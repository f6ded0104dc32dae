"""Adaptive Dormand-Prince 5(4) integration for two-state systems.

The radial eigenvalue ODE is a smooth two-dimensional first-order system
away from the pole, so an embedded 5(4) Runge-Kutta pair with proportional
step control is enough.  The module is private: it hardcodes the state as
a pair of floats because the shooting loop integrates (omega, flux) states
millions of times and tuple arithmetic beats tiny numpy arrays by a wide
margin there.  The right-hand side is called as f(t, u, v) and returns
the pair of slopes.

The dense march of a solution (`dp_graded`) takes fixed steps of the
same pair without error control: the fifth-order solution, six
right-hand-side evaluations per step, refined toward the points where
the field is not smooth.  `dp_step` holds the stage arithmetic that both
use; the march skips the error estimate.  Classical RK4 sub-steps
(`rk4_between`) serve the zero refinement of the shooting loop and
`dense_eval`, the restart from the nearest accepted mesh node that
answers one-node queries and anchors a band query; accepted steps are
short at the solver tolerances, so their sub-step error sits far below
the integration error itself.

Every step state (t, h and the states and slopes) is a Python float,
never a numpy scalar, whose arithmetic costs several times a float's.
One march step of the space-form right-hand side (c = -1, p = 2.5,
m = 2) takes a median 5.2-6.6 us on floats and 13.0-15.4 us on
np.float64 (40 interleaved runs of 2000 steps per process, five
processes, 2-vCPU x86_64 virtual machine, Python 3.11.7; the ranges are
the host's drift between processes).  Callers cast once, where numpy
values enter.  The loops around the steps keep their own work small
too: `integrate` selects its error scales and step clamps by
conditional expressions, not calls of abs, max and min, and the march
of a solution decides which gaps to grade before it steps.

`brent` is the package's one root-finder: the eigenvalue miss, the zeros
of a state component inside one step, the catenoid band end, and the
flux constant of a Rayleigh inverse-iteration step.
"""

import math
from bisect import bisect_right


class NonConvergenceError(RuntimeError):
    """A numerical iteration stopped short of its tolerance.

    Raised by `brent` when it runs out of steps, by `integrate` (as
    IntegrationError), by the eigenvalue solver when it cannot bracket
    lam (it adds p, m, the domain, the profile and the final eigenvalue
    bracket to the message), and by the Rayleigh minimizer at its step
    cap (naming p, the grid size, the Dirichlet ends and its last two
    quotients).
    """


class IntegrationError(NonConvergenceError):
    """Step-size underflow, NaN propagation or step limit in `integrate`."""


# Dormand-Prince coefficients (the classic ode45 pair).  The last row of
# the A matrix equals the 5th-order weights, so k7 of an accepted step is
# reused as k1 of the next (FSAL).
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (19372.0 / 6561.0, -25360.0 / 2187.0,
                          64448.0 / 6561.0, -212.0 / 729.0)
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0,
                                46732.0 / 5247.0, 49.0 / 176.0,
                                -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                           -2187.0 / 6784.0, 11.0 / 84.0)
# Error weights: 5th-order minus 4th-order solution.
_E1 = _B1 - 5179.0 / 57600.0
_E3 = _B3 - 7571.0 / 16695.0
_E4 = _B4 - 393.0 / 640.0
_E5 = _B5 + 92097.0 / 339200.0
_E6 = _B6 - 187.0 / 2100.0
_E7 = -1.0 / 40.0

# Brent steps before giving up; the package's roots take 2 to 12.
_BRENT_STEPS = 100


def integrate(f, t0, t1, y0, rtol=1e-12, atol=1e-12, max_steps=1000000):
    """Integrate y' = f(t, u, v), y = (u, v) floats, from t0 to t1 > t0.

    Returns (ts, ys): the accepted mesh nodes and states, starting at
    (t0, y0).  Integration ends at t1 or at the first accepted node where
    u <= 0, which the mesh still contains: a shot needs its trajectory
    only up to the first zero of omega.

    Raises IntegrationError on step-size underflow, NaN propagation or
    more than max_steps steps.
    """
    span = t1 - t0
    if span <= 0:
        raise ValueError("integrate requires t1 > t0")
    h = 0.01 * span
    hmin = 1e-15 * span
    t = t0
    u, v = float(y0[0]), float(y0[1])
    ts = [t]
    ys = [(u, v)]
    k1u, k1v = f(t, u, v)
    steps = 0
    # The scales and clamps below select what abs, max and min would,
    # without a call.
    while t < t1:
        if t + h > t1:
            h = t1 - t
        if h < hmin:
            raise IntegrationError("step-size underflow at t=%.12g" % t)
        steps += 1
        if steps > max_steps:
            raise IntegrationError("step limit exceeded at t=%.12g" % t)

        nu, nv, k7u, k7v, eu, ev = dp_step(f, t, h, u, v, k1u, k1v, True)
        au = u if u >= 0.0 else -u
        a = nu if nu >= 0.0 else -nu
        su = atol + rtol * (a if a > au else au)
        av = v if v >= 0.0 else -v
        a = nv if nv >= 0.0 else -nv
        sv = atol + rtol * (a if a > av else av)
        err = ((eu / su) ** 2 + (ev / sv) ** 2) ** 0.5 * 0.7071067811865476

        if err != err:  # NaN
            raise IntegrationError("NaN in the error estimate at t=%.12g" % t)
        if err <= 1.0:
            t += h
            u, v = nu, nv
            ts.append(t)
            ys.append((u, v))
            if u <= 0.0:
                break
            k1u, k1v = k7u, k7v
            if err == 0.0:
                h *= 5.0
            else:
                factor = 0.9 * err ** -0.2
                h *= factor if factor < 5.0 else 5.0
        else:
            factor = 0.9 * err ** -0.2
            h *= factor if factor > 0.2 else 0.2
    return ts, ys


def dp_step(f, t, h, u, v, k1u, k1v, estimate=False):
    """One Dormand-Prince step of length h from the state (u, v) at t.

    k1 = f(t, u, v) is passed in.  Returns (nu, nv, k7u, k7v): the
    fifth-order state at t + h and the slope there (k1 of the next step,
    FSAL).  With `estimate` it appends (eu, ev), h times the fifth- minus
    fourth-order weights, the local error estimate of `integrate`; the
    march has no use for it and skips its arithmetic.
    """
    k2u, k2v = f(t + _C2 * h, u + h * _A21 * k1u, v + h * _A21 * k1v)
    k3u, k3v = f(t + _C3 * h, u + h * (_A31 * k1u + _A32 * k2u),
                 v + h * (_A31 * k1v + _A32 * k2v))
    k4u, k4v = f(t + _C4 * h, u + h * (_A41 * k1u + _A42 * k2u + _A43 * k3u),
                 v + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v))
    k5u, k5v = f(t + _C5 * h, u + h * (_A51 * k1u + _A52 * k2u + _A53 * k3u
                                       + _A54 * k4u),
                 v + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v))
    k6u, k6v = f(t + h, u + h * (_A61 * k1u + _A62 * k2u + _A63 * k3u
                                 + _A64 * k4u + _A65 * k5u),
                 v + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v
                          + _A64 * k4v + _A65 * k5v))
    nu = u + h * (_B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
    nv = v + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
    k7u, k7v = f(t + h, nu, nv)
    if not estimate:
        return nu, nv, k7u, k7v
    eu = h * (_E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u + _E6 * k6u
              + _E7 * k7u)
    ev = h * (_E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v
              + _E7 * k7v)
    return nu, nv, k7u, k7v, eu, ev


def dp_graded(f, t_from, y, k, t_to, nsub, points):
    """Advance (y, k = f(t_from, y)) to t_to by fixed Dormand-Prince steps.

    Returns the state and slope at t_to.  The interval takes nsub equal
    steps, refined toward each (s, ratio) in `points`, a point where f is
    not smooth: the interval is cut at s and at s +- (t_to - t_from) 2^-j,
    j < 40, and a piece at distance d > 0 from s takes at least
    ratio * length / d steps, so no step is longer than d / ratio.  A
    piece that ends at s is at most 2^-39 of the interval and takes one
    step.  No piece takes more than ratio steps for one point: a piece
    longer than its distance from s arises only when s lies outside the
    interval within 2^-39 of its length.
    """
    span = t_to - t_from
    cuts = {t_to}
    for s, _ in points:
        cuts.update(c for c in [s] + [s + sign * span * 0.5 ** j
                                      for j in range(40)
                                      for sign in (-1.0, 1.0)]
                    if t_from < c < t_to)
    u, v = y
    ku, kv = k
    t = t_from
    for t_next in sorted(cuts):
        piece = t_next - t
        steps = nsub * piece / span
        for s, ratio in points:
            d = max(s - t_next, t - s)
            if d > 0.0:
                steps = max(steps, ratio * piece / max(d, piece))
        steps = max(1, int(math.ceil(steps)))
        h = piece / steps
        for i in range(steps):
            t_i = t + i * h
            h_i = t_next - t_i if i == steps - 1 else h
            u, v, ku, kv = dp_step(f, t_i, h_i, u, v, ku, kv)
        t = t_next
    return (u, v), (ku, kv)


def rk4_between(f, t_from, y, t_to, nsub=4):
    """Advance y from t_from to t_to with nsub classical RK4 sub-steps.

    Serves the zero refinement of the shooting loop and `dense_eval`.
    """
    h = (t_to - t_from) / nsub
    u, v = y
    t = t_from
    for _ in range(nsub):
        a1u, a1v = f(t, u, v)
        a2u, a2v = f(t + 0.5 * h, u + 0.5 * h * a1u, v + 0.5 * h * a1v)
        a3u, a3v = f(t + 0.5 * h, u + 0.5 * h * a2u, v + 0.5 * h * a2v)
        a4u, a4v = f(t + h, u + h * a3u, v + h * a3v)
        u += h * (a1u + 2.0 * a2u + 2.0 * a3u + a4u) / 6.0
        v += h * (a1v + 2.0 * a2v + 2.0 * a3v + a4v) / 6.0
        t += h
    return u, v


def dense_eval(f, ts, ys, t):
    """Evaluate the stored trajectory at t in [ts[0], ts[-1]].

    Restarts from the nearest mesh node at or before t, so repeated queries
    are independent and do not accumulate error.
    """
    if t <= ts[0]:
        return ys[0]
    if t >= ts[-1]:
        return ys[-1]
    k = bisect_right(ts, t) - 1
    if ts[k] == t:
        return ys[k]
    return rk4_between(f, ts[k], ys[k], t)


def brent(f, a, b, xtol, rtol=8.9e-16, fa=None, fb=None):
    """Root of f between a and b by Brent's method (Brent 1973, ch. 4).

    f(a) and f(b) (evaluated here unless given) must lie on opposite
    sides of zero; a value counts as one side if it is positive and as
    the other if not.  Each step interpolates (inverse quadratic, or
    secant when only two points are distinct) if the step lands inside
    the bracket and is less than half the step before last, and bisects
    otherwise: it converges on any bracket, and superlinearly near a
    simple root.  It stops once the bracket is no wider than
    xtol + rtol |x| or f(x) is exactly zero.

    Returns (x, y, steps): x is the best estimate, y the other end of the
    final bracket, f(x) and f(y) lie on opposite sides, and steps counts
    the evaluations of f after the two ends.  Raises ValueError when the
    ends do not bracket a root, and NonConvergenceError naming the final
    bracket after _BRENT_STEPS steps.
    """
    if fa is None:
        fa = f(a)
    if fb is None:
        fb = f(b)
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError("brent: f(%.17g) = %.3g and f(%.17g) = %.3g do not "
                         "bracket a root" % (a, fa, b, fb))
    # b is the best estimate, c the other end of the bracket, a the
    # previous b; d is the last step and e the one before it.
    c, fc = a, fa
    d = e = b - a
    steps = 0
    while True:
        if abs(fc) < abs(fb):
            a, fa = b, fb
            b, fb = c, fc
            c, fc = a, fa
        tol = 0.5 * (xtol + rtol * abs(b))
        half = 0.5 * (c - b)
        if fb == 0.0 or abs(half) <= tol:
            return b, c, steps
        if steps == _BRENT_STEPS:
            raise NonConvergenceError(
                "brent: bracket [%.17g, %.17g] still wider than %.3g after "
                "%d steps" % (min(b, c), max(b, c), 2.0 * tol, steps))
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                num, den = 2.0 * half * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                num = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                den = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if num > 0.0:
                den = -den
            else:
                num = -num
            # Accept the interpolated step if it lands well inside the
            # bracket and is less than half the step before last.
            if 2.0 * num < min(3.0 * half * den - abs(tol * den),
                               abs(e * den)):
                e, d = d, num / den
            else:
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, half)
        fb = f(b)
        steps += 1
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
