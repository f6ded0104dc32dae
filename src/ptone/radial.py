"""Shooting solver for the first radial Dirichlet p-eigenvalue.

On a rotationally symmetric model with warping f, the first Dirichlet
eigenfunction of a geodesic ball B(r) is radial, omega(t), and solves

    (f^{m-1} |omega'|^{p-2} omega')' + lam f^{m-1} |omega|^{p-2} omega = 0,
    omega(0) = 1,  omega'(0) = 0,  omega(r) = 0,

with omega' < 0 on (0, r].  Integrating the equation once removes the
gradient degeneracy at the pole: with the flux variable

    Phi(t) = f^{m-1} |omega'|^{p-2} omega'  =  -lam * F(t),
    F(t)   = int_0^t f^{m-1} |omega|^{p-2} omega ds,

the problem becomes the first-order system

    omega' = sign(Phi) (|Phi| / f^{m-1})^{1/(p-1)},
    Phi'   = -lam f^{m-1} |omega|^{p-2} omega.

The vector field is not Lipschitz at the pole, so integration starts at
t0 = 1e-4 r from the asymptotic expansion

    omega(t) = 1 - a t^beta + (a^2 m / (2(m+beta))) t^{2 beta},
    beta = p/(p-1),  a = ((p-1)/p) (lam/m)^{1/(p-1)},

obtained by balancing the leading terms of the integrated equation.

The eigenvalue is the smallest lam whose omega first vanishes exactly at
r.  The first zero is strictly decreasing in lam, so the solver brackets
(halving, then doubling lam from half the seed `_barta_seed` until a
zero appears before r) and then runs Brent's method on the continuous miss

    g(lam) = omega(r)              if omega has no zero before r,
    g(lam) = omega'(z) (r - z)     if its first zero is z <= r,

whose sign is the first-zero test and which decreases through 0 at the
eigenvalue with a continuous slope.  Every value Brent reads (at both
ends of the bracket and at each point it evaluates) comes from a tight
shot, integrated at tolerance 1e-12.  A doubling rung below the top of
the ladder is read only for its sign, so it first takes a loose shot at
1e-8, which decides the rung zero-free when omega reaches r above 1e-3
of its maximum; otherwise the tight shot decides it.  The bracket,
Brent's path and the result are thus those of tight shots alone, bit for
bit.  The reported lam is the zero-free end of the final bracket, whose
trajectory is already integrated.  It is certified zero-free for the
computed shot, not a lower value for the exact equation: at large p the
shot's integration error exceeds the 1e-12 bracket width.  On the flat
unit ball with m = 1, lam sits above (p-1)(pi_p/2)^p by 3.9e-12
(p = 8), 5.1e-11 (p = 12) and 2.0e-10 (p = 16), relative.  Annuli shoot
from the left endpoint with omega(a) = 0 and unit initial flux instead.
"""

import math
import os
import pickle
import sys
from array import array
from bisect import bisect_left

import numpy as np

from . import _ode
from ._ode import NonConvergenceError
from .modelspace import WarpingProfile, space_form

P_MIN, P_MAX = 1.05, 16.0

_DEFAULT_TOL = 1e-12     # relative width of the final eigenvalue bracket
_SHOT_TOL = 1e-12        # the shots' integration tolerance
# A doubling rung of the eigenvalue bracket is read only for its sign
# unless it is the rung that ends the ladder, so it first takes a loose
# shot (`_loose_zero_free`): at _LOOSE_TOL, and deciding only where omega
# ends above _LOOSE_MARGIN of its maximum.  Over balls and annuli at
# p from 1.05 to 16 and lam from 0.5 to 0.999 of the eigenvalue, the
# loose omega at the end is at most 3.8e-5 of that maximum off the tight
# one (1e-6 gives 3.7e-3, too close to the margin).
_LOOSE_TOL = 1e-8
_LOOSE_MARGIN = 1e-3
_DEFAULT_GRID = 2048
_STARTUP_FRAC = 1e-4
# Dense-march control (`RadialSolution._march`): no step of the grid
# march is longer than span/_ANCHOR_STEPS, and steps near a point where
# the field is not smooth are at most 1/ratio of their distance from it:
# the pole, the walls and an annulus's interior peak.  The steps are
# graded toward such a point only as close as its order needs
# (`_ode._graded_cuts`).
_ANCHOR_STEPS = 1024
_POLE_RATIO = 32.0
_KINK_RATIO = 8.0

# Relative windows for the residual sup: nodes closer to the pole than
# POLE_FRAC*r or with omega below OMEGA_FLOOR*max|omega| are excluded,
# where finite differences of the degenerate flux lose accuracy.
RESIDUAL_POLE_FRAC = 0.01
RESIDUAL_OMEGA_FLOOR = 0.01


def signed_power(x, q):
    """sign(x) |x|^q, elementwise; the p-Laplacian nonlinearity."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.abs(x) ** q


class Ball:
    """Geodesic ball domain of radius r (pole at t = 0).

    Like `Annulus`, it carries its interval [left, right] and the
    Dirichlet flags bc of the two ends; the pole end is free.
    """

    kind = "ball"
    bc = (False, True)

    def __init__(self, r):
        if not (math.isfinite(r) and r > 0):
            raise ValueError("ball radius must be positive and finite, "
                             "got r=%r" % (r,))
        self.r = float(r)
        self.left, self.right = 0.0, self.r

    def __repr__(self):
        return "Ball(r=%g)" % self.r


class Annulus:
    """Annular domain a < t < b with Dirichlet conditions at both ends."""

    kind = "annulus"
    bc = (True, True)

    def __init__(self, a, b):
        if not (math.isfinite(a) and math.isfinite(b) and 0 <= a < b):
            raise ValueError("annulus requires finite 0 <= a < b, got "
                             "a=%r, b=%r" % (a, b))
        self.a = float(a)
        self.b = float(b)
        self.left, self.right = self.a, self.b

    def __repr__(self):
        return "Annulus(a=%g, b=%g)" % (self.a, self.b)


def pi_p(p):
    """Half-period constant pi_p = 2 pi / (p sin(pi/p)) of the p-sine."""
    return 2.0 * math.pi / (p * math.sin(math.pi / p))


class RadialProblem:
    """A p-eigenvalue problem on a ball or annulus over a warping profile."""

    def __init__(self, p, m, profile, domain):
        p = float(p)
        if not P_MIN <= p <= P_MAX:
            raise ValueError(
                "p=%g outside the supported range [%g, %g]; the exponents "
                "1/(p-1) and p-2 are numerically hostile beyond it"
                % (p, P_MIN, P_MAX))
        if not (math.isfinite(m) and int(m) == m and m >= 1):
            raise ValueError("dimension m must be an integer >= 1, got "
                             "m=%r" % (m,))
        if not isinstance(profile, WarpingProfile):
            raise TypeError("profile must be a WarpingProfile")
        self.p = p
        self.m = int(m)
        self.profile = profile
        self.domain = domain
        if domain.right > profile.r_max * (1 + 1e-12):
            raise ValueError("%r exceeds the domain [0, %g] of the profile "
                             "%s" % (domain, profile.r_max, profile.label))
        if profile.c is not None and profile.c > 0:
            if domain.right >= math.pi / math.sqrt(profile.c):
                raise ValueError("%r reaches the conjugate point pi/sqrt(c) "
                                 "of S_c, c=%g" % (domain, profile.c))
        if domain.bc[0] and domain.left == 0 and self.m > 1:
            raise ValueError("annulus with a = 0 needs m = 1 (vanishing "
                             "weight at the pole otherwise)")
        # The shot divides by the weight f^(m-1) at its start and the
        # ball's seed by r**2; refuse a problem where either is 0.0.
        if domain.kind == "ball":
            t0 = _STARTUP_FRAC * domain.right
            if domain.right ** 2 == 0.0:
                raise ValueError("%r: r**2 underflows to 0" % (domain,))
        else:
            t0 = domain.left
        if self.m > 1 and profile.f_scalar(t0) ** (self.m - 1) == 0.0:
            raise ValueError("the weight f^(m-1) underflows to 0 at the "
                             "start t=%g of %r, m=%d" % (t0, domain, self.m))

    @property
    def q(self):
        """Conjugate exponent p/(p-1)."""
        return self.p / (self.p - 1.0)

    def weight(self, t):
        """The weight f^{m-1} at the nodes t; ones for m = 1."""
        if self.m == 1:
            return np.ones(np.shape(t))
        return self.profile.eval(t)[0] ** (self.m - 1)

    def cache_key(self, tol):
        """The key of the shot record at tol: what a shot reads.

        (p, m, weight key, (kind, left, right), tol), where the weight
        key is the profile's `cache_key()`, or None when m = 1.  At m = 1
        the weight f^(m-1) is 1 and the problem is the one-dimensional
        p-string, lam = (p-1)(pi_p/L)^p, whatever the warping, and the
        shot reads no bit of the profile: `_make_rhs` binds none of its
        names, `_Startup.flux_F` reads the finite f3_0 only times
        m - 1 = 0, the ball `_barta_seed` reads f'/f only times m - 1 = 0
        at nodes where f > 0, and `weight` returns ones.  Each such term
        is a signed zero and leaves every sum as it was, so every warping
        shares one m = 1 shot, bit for bit.  No build of its solutions
        (`RadialSolution.__getattr__`) reads more: the march walks the
        same form, nodes before t0 take `_Startup.state`, omega' and the
        residual read `weight`, and the peak and scale read the shot's
        mesh.  So every warping shares the m = 1 builds too.
        """
        d = self.domain
        return (self.p, self.m,
                None if self.m == 1 else self.profile.cache_key(),
                (d.kind, d.left, d.right), tol)

    def __repr__(self):
        return ("RadialProblem(p=%g, m=%d, %r, %r)"
                % (self.p, self.m, self.profile.label, self.domain))


def ball_problem(p, m, c, r):
    """Convenience constructor for space-form balls."""
    return RadialProblem(p, m, space_form(c), Ball(r))


# The right-hand side as source for `_ode.compile_form`, over the point
# s, the state (w, phi) = (omega, Phi) and the weight fm = f(s)^(m-1):
# the slopes (omega', Phi') by (p == 2, weighted).  A power whose
# exponent is exactly 1 is left out: both powers at p = 2, the weight
# power at m = 2.  The slopes keep their bits: pow(x, 1.0) returns x,
# and -((-Phi)/f) = Phi/f and lam (-omega) = -lam omega in IEEE
# arithmetic.  nlam is -lam, bound once per trial lam: -lam * fm parses
# as (-lam) * fm, so nlam * fm is the same product without a negation
# at every stage.
_SLOPES = {
    (True, False): ("phi", "nlam * w"),
    (True, True): ("phi / fm", "nlam * fm * w"),
    (False, False): ("phi ** em1 if phi >= 0.0 else -((-phi) ** em1)",
                     "nlam * (w ** pm1) if w >= 0.0 else lam * ((-w) ** pm1)"),
    (False, True): ("(phi / fm) ** em1 if phi >= 0.0"
                    " else -(((-phi) / fm) ** em1)",
                    "nlam * fm * (w ** pm1) if w >= 0.0"
                    " else lam * fm * ((-w) ** pm1)"),
}


def _make_rhs(p, m, profile, lam):
    """(rhs, integrate, walk) of the trial-lam system (`_ode`).

    rhs(t, omega, Phi) -> (omega', Phi') is the right-hand side;
    integrate and walk are its adaptive and fixed-step Dormand-Prince
    loops (`_ode.compile_form`).  The form's slopes are
    `_SLOPES`, and its weight is chosen by min(m - 1, 2): none, the
    profile's f_expr, or (f_expr) ** mm1.  Every warping, closed-form or
    tabulated, is thus written into every stage.  Each form (at most 30:
    7 warping expressions times 2 weight powers, plus unweighted, times
    p = 2 or not) is compiled on its first use in the process; this
    binds lam, the exponents and the profile's f_names.
    """
    k = min(m - 1, 2)
    params = "lam, nlam, em1, pm1, mm1"
    args = [lam, -lam, 1.0 / (p - 1.0), p - 1.0, m - 1]
    weight = None
    if k:
        weight = profile.f_expr if k == 1 else "(%s) ** mm1" % profile.f_expr
        params += "".join(", " + n for n in profile.f_names)
        args += profile.f_names.values()
    make = _ode.compile_form(params, weight, *_SLOPES[p == 2.0, k > 0])
    return make(*args)


class _Startup:
    """Pole expansion of the ball solution on [0, t0]."""

    def __init__(self, p, m, profile, lam):
        self.beta = p / (p - 1.0)
        self.a = ((p - 1.0) / p) * (lam / m) ** (1.0 / (p - 1.0))
        self.b2 = self.a * self.a * m / (2.0 * (m + self.beta))
        self.m = m
        self.p = p
        self.lam = lam
        self.f3_0 = profile.f3_0

    def omega(self, t):
        b = self.beta
        return 1.0 - self.a * t ** b + self.b2 * t ** (2.0 * b)

    def flux_F(self, t):
        # F = int_0^t f^{m-1} omega^{p-1}, with f ~ t + f3_0 t^3/6.
        m, b = self.m, self.beta
        return (t ** m / m
                + (m - 1) * self.f3_0 * t ** (m + 2) / (6.0 * (m + 2))
                - (self.p - 1.0) * self.a * t ** (m + b) / (m + b))

    def state(self, t):
        return self.omega(t), -self.lam * self.flux_F(t)


def _refine_zero(rhs, walk, ts, ys, k, tol_t, comp=0):
    """Zero of state component `comp` inside (ts[k-1], ts[k]).

    Each evaluation walks a one-step plan of the trajectory's form from
    node k-1, and `_ode.brent` finds the zero to within tol_t.  Returns
    (z, (omega, Phi, omega', Phi')): the zero, and the state and slope at
    the end of the step that ends there.
    """
    t, (u, v) = ts[k - 1], ys[k - 1]
    ku, kv = rhs(t, u, v)
    out = [0.0]
    steps = {}

    def component(s):
        steps[s] = walk([t], [s - t], u, v, ku, kv, out, out, None)
        return steps[s][comp]

    z = _ode.brent(component, t, ts[k], tol_t, fa=ys[k - 1][comp],
                   fb=ys[k][comp])[0]
    if z not in steps:      # an end of the bracket, never evaluated
        component(z)
    return z, steps[z]


def _start(problem, lam):
    """(t, (omega, Phi)) where a trial-lam shot starts.

    A ball starts at t0 = 1e-4 r with the startup state, an annulus at
    (a, (0, 1)) (unit initial flux).  A ball's start state that is not
    finite or overflows is a problem the shots cannot represent: on a
    ball of tiny r, lam grows like r^-p, and the pole expansion's
    t^(2 beta) coefficient overflows while t0^(2 beta) underflows
    (inf * 0), so the shot's error estimate would be NaN.  It raises a
    ValueError naming the domain, p, m and lam.
    """
    d = problem.domain
    if d.kind == "annulus":
        return d.left, (0.0, 1.0)
    t0 = _STARTUP_FRAC * d.right
    try:
        state = _Startup(problem.p, problem.m, problem.profile,
                         lam).state(t0)
    except OverflowError:
        state = (math.inf,)
    if not all(map(math.isfinite, state)):
        raise ValueError(
            "%r: the shot's start state at trial lam=%g leaves the float "
            "range (p=%g, m=%d)" % (d, lam, problem.p, problem.m))
    return t0, state


def _shoot(problem, lam):
    """Integrate the trial-lam trajectory; return (ts, ys, miss).

    The mesh starts at `_start` and is integrated at tolerance _SHOT_TOL.
    Integration stops at the first node where omega <= 0.  `miss` is the
    continuous miss g(lam) of the module docstring, positive exactly when
    omega has no zero before the right endpoint: omega there when the
    integration
    reached it (a zero inside the last step, or none), and
    omega'(z) (r - z) from the refined zero z when it stopped earlier.
    A zero exactly at the endpoint counts as a zero.
    """
    rhs, integrate, walk = _make_rhs(problem.p, problem.m, problem.profile,
                                     lam)
    t_start, y_start = _start(problem, lam)
    t_end = problem.domain.right
    ts, ys = integrate(t_start, t_end, y_start, _SHOT_TOL)
    if ys[-1][0] > 0.0 or ts[-1] >= t_end:
        return ts, ys, ys[-1][0] or -math.ulp(0.0)
    zero, (_, _, slope, _) = _refine_zero(rhs, walk, ts, ys, len(ts) - 1,
                                          1e-12 * (t_end - t_start))
    return ts, ys, -abs(slope) * (t_end - zero)


def _loose_zero_free(problem, lam):
    """True when a loose shot shows that omega at lam has no zero.

    It integrates from `_start` to the right end at _LOOSE_TOL and says
    True only when the trajectory reaches the end with omega there above
    _LOOSE_MARGIN times its largest omega: the loose omega(r) lies within
    3.8e-5 of that maximum of the tight one (see _LOOSE_TOL), so the
    tight shot would find no zero either.  A zero, an end inside the
    margin or an integration that fails say False, and the tight shot
    decides.
    """
    integrate = _make_rhs(problem.p, problem.m, problem.profile, lam)[1]
    t_start, y_start = _start(problem, lam)
    try:
        ts, ys = integrate(t_start, problem.domain.right, y_start,
                           _LOOSE_TOL)
    except (NonConvergenceError, OverflowError, ZeroDivisionError):
        return False
    # omega > 0 at the last node means integrate ran to the end.
    return ys[-1][0] > _LOOSE_MARGIN * max(y[0] for y in ys)


def _omega_prime(problem, t, phi):
    """omega' = sign(Phi) (|Phi| / f^{m-1})^{1/(p-1)} from the flux Phi.

    Zero where the weight f^{m-1} vanishes (the pole of a ball).
    """
    fm = problem.weight(t)
    out = np.zeros(t.size)
    ok = fm > 0.0
    out[ok] = signed_power(phi[ok] / fm[ok], 1.0 / (problem.p - 1.0))
    return out


# The names a solution builds on first use, each stored in its shot
# record's builds (`_CACHE`): the four dense names of one march and the
# march's recorded steps by (n_grid, name), and an annulus's peak and
# scale by name, once per shot.
_DENSE = ("grid", "omega", "omega_prime", "residual")
_PER_SHOT = ("_t_peak", "_scale")


class RadialSolution:
    """A solved radial eigenpair with dense evaluation.

    A view of one shot record (lam, ts, ys, steps, builds) for a problem
    and a grid size: each solve returns a new one, with its own problem
    and closures, so `critical` and `surfaces` read its own warping.

    Public arrays live on a uniform grid of n_grid nodes over the closed
    domain, marched from the stored adaptive trajectory by fixed
    Dormand-Prince steps.  `evaluate` reads any node off the dense output
    of that march's own steps, so derived quantities (Barta ratios,
    restriction inequalities, transplants) can be sampled anywhere
    without interpolating the stored arrays and without another march.

    `grid`, `omega`, `omega_prime` and `residual` are one build step: the
    first read of any of them marches the grid once and audits it, and
    all four are stored in the record's builds, so a caller that needs
    only `lam` pays for no march.  The three arrays are read-only, and
    every view of the record shares them.
    """

    def __init__(self, problem, record, n_grid):
        self.problem = problem
        self.p = problem.p
        self.m = problem.m
        lam, self._ts, self._ys, steps, self._builds = record
        self.lam = float(lam)
        self.iterations = int(steps)
        self._rhs, _, self._walk = _make_rhs(
            self.p, self.m, problem.profile, self.lam)
        d = problem.domain
        self._startup = (_Startup(self.p, self.m, problem.profile, self.lam)
                         if d.kind == "ball" else None)
        self._left = d.left
        self.r = d.right
        self.n_grid = n_grid

    def __getattr__(self, name):
        # Python calls this only when normal lookup fails, so on every
        # read of a built name: it lives in the record's builds, built
        # there on the first read.
        if name in _PER_SHOT:
            key = name
        elif name in _DENSE or name == "_steps":
            key = (self.n_grid, name)
        else:
            raise AttributeError("%r object has no attribute %r"
                                 % (type(self).__name__, name))
        builds = self._builds
        if key not in builds:
            if name in _DENSE:
                self._build(None)
            else:
                builds[key] = getattr(self, "_make" + name)()
        return builds[key]

    def _build(self, rec):
        """March the grid, recording its steps into rec unless rec is None,
        and store the four dense names unless they are stored."""
        grid, omega, phi = self._march(rec)
        n, builds = self.n_grid, self._builds
        if (n, "grid") in builds:
            return
        omega, omega_prime = self._states(grid, omega, phi)
        # Every view of the record shares the arrays: an in-place write
        # by one caller would corrupt every later solve of it.
        for arr in (grid, omega, omega_prime):
            arr.setflags(write=False)
        builds.update({(n, "grid"): grid, (n, "omega"): omega,
                       (n, "omega_prime"): omega_prime})
        builds[n, "residual"] = eigen_equation_residual(self)

    def _make_t_peak(self):
        """An annulus's interior peak, where the flux Phi crosses zero.

        None on a ball.  omega' ~ |Phi|^(1/(p-1)) is not smooth there, so
        the march grades its steps toward it.  Built on the first march,
        like `_scale`: a solve read only for lam does no peak work.
        """
        if self._startup is not None:
            return None
        ts, ys = self._ts, self._ys
        k = next(k for k in range(1, len(ts)) if ys[k][1] <= 0.0)
        return _refine_zero(self._rhs, self._walk, ts, ys, k,
                            1e-12 * (ts[-1] - ts[0]), comp=1)[0]

    def _make_scale(self):
        """1 / omega(_t_peak) on an annulus, 1 on a ball.

        The mesh-node maximum undershoots the peak by O(step^2).  omega at
        the peak is reached from the mesh node before it by a walk of
        `_ode.graded_steps`, one step per piece of its cuts toward the
        peak (ratio 1), cut to all 40 levels (width 0).  Cut only as deep
        as the peak's order needs, as in the march, 1/_scale moved by up
        to 2.5e-16 relative on annuli (0.5, 1.5), and every annulus array
        and printed peak with it.  On Annulus(0.5, 1), m = 2, c = 0, p = 4
        that value is 2.2e-12 off scipy's DOP853 at rtol 3e-14, and one
        plain step from the node is 5.8e-10 off.  The march's _KINK_RATIO of 8 takes eight
        times the steps and comes no more than 1.8e-15 closer on 189
        annuli (p from 1.05 to 16, m up to 3, c in {-1, 0, 1}).
        """
        t_peak = self._t_peak
        if t_peak is None:
            return 1.0
        k = bisect_left(self._ts, t_peak) - 1
        t, y = self._ts[k], self._ys[k]
        ts, hs = [], []
        _ode.graded_steps(ts, hs, t, t_peak, 1,
                          [(t_peak, 1.0, self.p / (self.p - 1.0))], 0.0)
        out = [0.0] * len(ts)
        peak = self._walk(ts, hs, *y, *self._rhs(t, *y), out, out, None)[0]
        return 1.0 / peak

    def _march(self, rec=None):
        """(grid, omega, Phi) on the solution's grid, by one walk of one plan.

        The plan takes fixed Dormand-Prince 5(4) steps (the generated
        `walk`, `_make_rhs`) from the shot's first mesh node (t0, ys[0])
        node to node.  The states are unscaled, and those of a ball's
        nodes before t0 are unset: `_states` reads both.

        A gap takes one step, unless it is longer than span/_ANCHOR_STEPS
        or than 1/ratio of its distance from a point where the field is
        not smooth.  Such a gap takes the `_ode.graded_steps` of
        ceil(_ANCHOR_STEPS gap / span) steps, cut toward the points near
        it as deep as their order needs.  The points (ratio, order) are
        the pole, where omega - 1 ~ t^(p/(p-1)) and the weight f^(m-1)
        vanishes (_POLE_RATIO, p/(p-1)); both walls, where omega vanishes
        and Phi - Phi(wall) ~ d^p at distance d (_KINK_RATIO, p); and an
        annulus's interior peak, where Phi vanishes and
        omega - omega(peak) ~ d^(p/(p-1)) (_KINK_RATIO, p/(p-1)).

        With rec, every step appends its `_ode.RECORD` to rec, in order,
        and the march ends with one more row: the last node and its
        state, with h = 1 and zero slopes.
        """
        grid = np.linspace(self._left, self.r, self.n_grid)
        t0, (u0, v0) = self._ts[0], self._ys[0]
        span = self.r - self._left
        wall, peak = self.p, self.p / (self.p - 1.0)
        if self._startup is not None:
            points = [(self._left, _POLE_RATIO, peak),
                      (self.r, _KINK_RATIO, wall)]
        else:
            points = [(self._left, _KINK_RATIO, wall),
                      (self.r, _KINK_RATIO, wall),
                      (self._t_peak, _KINK_RATIO, peak)]
        pre = int(np.searchsorted(grid, t0))

        # The gap before node t starts at t_prev = max(t0, previous node).
        # Code 2: graded steps, near a point s with
        # ratio gap > max(s - t, t_prev - s), or where gap exceeds
        # span / _ANCHOR_STEPS; code 1: one step; code 0: none, the node
        # is t0 itself.
        tn = grid[pre:]
        t_prev = np.concatenate(([t0], tn))[:-1]
        gap = tn - t_prev
        hits = [ratio * gap > np.maximum(s - tn, t_prev - s)
                for s, ratio, _ in points]
        split = _ANCHOR_STEPS * gap / span > 1.0
        codes = (gap > 0.0) * (1 + (np.logical_or.reduce(hits) | split))
        ends = np.minimum(codes, 1)     # the steps that end on each node

        # The plan is the one step of each code-1 gap, with the graded
        # steps of each code-2 gap spliced in.
        starts, hs, tl = t_prev.tolist(), gap.tolist(), tn.tolist()
        plan_t, plan_h = [], []
        i = 0
        for j in np.flatnonzero(codes != 1).tolist():
            plan_t += starts[i:j]
            plan_h += hs[i:j]
            if codes[j]:
                near = [pt for pt, hit in zip(points, hits) if hit[j]]
                nsub = int(math.ceil(_ANCHOR_STEPS * hs[j] / span))
                size = len(plan_t)
                _ode.graded_steps(plan_t, plan_h, starts[j], tl[j], nsub,
                                  near, span)
                ends[j] = len(plan_t) - size
            i = j + 1
        plan_t += starts[i:]
        plan_h += hs[i:]

        out_w = [0.0] * len(plan_t)
        out_phi = [0.0] * len(plan_t)
        u, v, _, _ = self._walk(plan_t, plan_h, u0, v0,
                                *self._rhs(t0, u0, v0), out_w, out_phi, rec)
        if rec is not None:
            rec.extend((tl[-1], 1.0, u, v) + (0.0,) * (len(_ode.RECORD) - 4))
        # Each node takes the end state of the last step up to it, or the
        # start state where there is none.
        at = np.cumsum(ends)
        omega = np.empty(self.n_grid)
        phi = np.empty(self.n_grid)
        omega[pre:] = np.array([u0] + out_w, float)[at]
        phi[pre:] = np.array([v0] + out_phi, float)[at]
        return grid, omega, phi

    def _states(self, x, w, phi):
        """(omega, omega') at the nodes x from the march states (w, Phi).

        Nodes before the march start t0 = ts[0] take the pole expansion,
        as the shot does below t0; only a ball has such nodes.  The states
        are scaled by `_scale`, in place, and the flux converted to omega'.
        """
        before = x < self._ts[0]
        if before.any():
            w[before], phi[before] = np.array(
                [self._startup.state(t) for t in x[before].tolist()]).T
        w *= self._scale
        phi *= self._scale ** (self.p - 1.0)
        return w, _omega_prime(self.problem, x, phi)

    def _make_steps(self):
        """The grid march's steps, `_ode.dense_steps` of its record.

        Built on the first `evaluate` by one march of the grid that records
        its steps (`_march`), which also builds the four dense names if
        they are not built yet.  The last row is the end of the march, so
        the last node reads the end state.  The states are unscaled.
        """
        rec = array("d")
        self._build(rec)
        return _ode.dense_steps(rec)

    def evaluate(self, t):
        """Dense (omega, omega') at scalar or array t in the closed domain.

        Every node is read off the grid march's stored steps (`_steps`),
        with no march of its own: a `searchsorted` on the step starts
        finds the step that holds it, and one Horner evaluation of that
        step's dense output gives the state, which `_states` turns into
        (omega, omega') as it does the grid's.  A grid node reads the
        grid's value bit for bit, the last node included.  A t outside
        [left, right], or NaN, raises a ValueError naming it.  Returns
        arrays of t's shape; a scalar comes back as a pair of floats.
        """
        tt = np.asarray(t, dtype=float)
        x = tt.ravel()
        outside = ~((x >= self._left) & (x <= self.r))
        if outside.any():
            raise ValueError("evaluate at t=%r, outside the domain [%r, %r]"
                             % (float(x[outside][0]), self._left, self.r))
        starts, h, cu, cv = self._steps
        k = np.maximum(np.searchsorted(starts, x, side="right") - 1, 0)
        s = (x - starts[k]) / h[k]
        w, phi = (c[0] + s * (c[1] + s * (c[2] + s * (c[3] + s * c[4])))
                  for c in (cu[:, k], cv[:, k]))
        w, wp = self._states(x, w, phi)
        if tt.ndim == 0:
            return float(w[0]), float(wp[0])
        return w.reshape(tt.shape), wp.reshape(tt.shape)

    def __repr__(self):
        return ("RadialSolution(p=%g, m=%d, %s, lam=%.12g, iterations=%d)"
                % (self.p, self.m, self.problem.domain, self.lam,
                   self.iterations))


def _barta_seed(problem):
    """Positive seed for bracketing, near the eigenvalue.

    Balls use the Barta ratio of eta = 1 - (t/r)^beta, a lower bound
    with a finite positive pole limit for every p.  An annulus uses the
    string eigenvalue (p-1)(pi_p/L)^p of its own interval of length L:
    exact at m = 1, where the weight f^(m-1) is 1, and no longer a lower
    bound at m >= 2, where the weight can push lam either way.  Either
    way the caller halves the seed and keeps halving while a zero still
    appears, which guards a half seed that lies above lam.
    """
    p, m = problem.p, problem.m
    d = problem.domain
    if d.kind == "annulus":
        return (p - 1.0) * (pi_p(p) / (d.right - d.left)) ** p
    r = d.right
    beta = p / (p - 1.0)
    t = np.linspace(r / 256.0, r * (1 - 1.0 / 512.0), 256)
    f, f1, _ = problem.profile.eval(t)
    x = t / r
    eta = 1.0 - x ** beta
    deta = -(beta / r) * x ** (beta - 1.0)
    d2eta = -(beta * (beta - 1.0) / r ** 2) * x ** (beta - 2.0)
    plap = np.abs(deta) ** (p - 2.0) * ((p - 1.0) * d2eta + (m - 1) * (f1 / f) * deta)
    val = float(np.min(-plap / eta ** (p - 1.0)))
    return val if val > 0 else (p - 1.0) * (pi_p(p) / (2 * r)) ** p


def _half_seed(problem):
    """Half the `_barta_seed`: the first lam the bracket shoots.

    Raises a ValueError naming the domain, p and m when it is not finite
    or overflows: on a ball of tiny r the seed grows like r^-p.  Each
    shot's start state is checked by `_start`.
    """
    lam = math.inf
    try:
        # An overflow is refused below; numpy need not warn of it.
        with np.errstate(over="ignore", invalid="ignore"):
            lam = 0.5 * _barta_seed(problem)
    except OverflowError:
        pass
    if not math.isfinite(lam):
        raise ValueError(
            "%r: the first trial lam=%g (half the eigenvalue seed) leaves "
            "the float range (p=%g, m=%d)"
            % (problem.domain, lam, problem.p, problem.m))
    return lam


def _solve(problem, tol):
    """(lam, ts, ys, steps) for the zero-free end of the final bracket.

    The bracket starts at half the `_barta_seed`, halves until a shot
    has no zero (lam_lo) and doubles until one has (lam_hi); Brent reads
    the miss at lam_lo, lam_hi and every point it evaluates, each a
    tight `_shoot`.  A doubling rung below lam_hi is read only for its
    sign: a loose shot (`_loose_zero_free`) decides it where it can, and
    the tight shot where it cannot, so the bracket, Brent's path and
    every bit of the result are those of tight shots alone.  The rung
    after a halving holds a tight shot with a zero already, and takes no
    loose one.

    steps counts the Brent steps after the bracketing shots.  A
    NonConvergenceError (IntegrationError included) leaves with the
    problem and the tightest bracket of tight shots so far appended to
    its message (a rung the loose shot decided counts in neither end).
    An OverflowError or ZeroDivisionError of the seed or of a shot (a
    power of the state or a weight that leaves the float range) leaves
    as an IntegrationError with the same message.  A seed, or the start
    state of any trial lam (`_start`), outside the float range is a
    problem the shots cannot represent: a ValueError naming the domain,
    p and m, raised before that shot.
    """
    shots = {}

    def miss(lam):
        if lam not in shots:
            shots[lam] = _shoot(problem, lam)
        return shots[lam][2]

    try:
        lam_lo = _half_seed(problem)
        for _ in range(80):
            if miss(lam_lo) > 0.0:
                break
            lam_lo *= 0.5
        else:
            raise NonConvergenceError("could not find a zero-free lower lam")
        lam_hi = lam_lo
        for _ in range(60):
            lam_hi *= 2.0
            if ((lam_hi in shots or not _loose_zero_free(problem, lam_hi))
                    and miss(lam_hi) <= 0.0):
                break
        else:
            raise NonConvergenceError("no omega zero after 60 doublings of lam")
        lam, other, steps = _ode.brent(miss, lam_lo, lam_hi, xtol=0.0,
                                       rtol=tol)
    except (NonConvergenceError, OverflowError, ZeroDivisionError) as exc:
        free = max((x for x in shots if miss(x) > 0.0), default=None)
        hit = min((x for x in shots if miss(x) <= 0.0), default=None)
        if isinstance(exc, NonConvergenceError):
            kind, what = type(exc), str(exc)
        else:
            kind, what = _ode.IntegrationError, "%s: %s" % (
                type(exc).__name__, exc)
        raise kind("%s (p=%g, m=%d, %r, profile %s, lam bracket [%r, %r])"
                   % (what, problem.p, problem.m, problem.domain,
                      problem.profile.label, free, hit)) from exc
    if miss(lam) <= 0.0:
        lam = other
    ts, ys = shots[lam][:2]
    return lam, ts, ys, steps


# Shot records (lam, ts, ys, Brent steps, builds) by
# `RadialProblem.cache_key(tol)`, which names only what a shot reads: at
# m = 1 it leaves out the warping, so every warping shares one shot.
# builds holds what the solutions of that shot build on first use
# (`RadialSolution.__getattr__`), none of which reads more of the
# problem than the shot does, so every solution of the shot shares
# them.  A solve that differs only in n_grid, or at m = 1 only in the
# warping, takes no shot, and at the same n_grid marches nothing the
# record holds.  The cache is per process; `fork_map` sends each
# child's additions back to the parent.
_CACHE = {}
_MIN_GRID = 5   # the residual audit's five-point stencil


def clear_solver_cache():
    """Drop memoized eigensolves and their builds (used by determinism
    checks)."""
    _CACHE.clear()


def _merge_cache_news(records):
    """Add the keys `_CACHE` lacks, and to a record it holds the builds
    it lacks; every array merged in is read-only, as it was built."""
    for key, record in records.items():
        for value in record[4].values():
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)
        builds = _CACHE.setdefault(key, record)[4]
        for name, value in record[4].items():
            builds.setdefault(name, value)


def _pickled_share(w, got, held):
    """(bytes, exit status) a child sends: its share, and every record
    of `_CACHE` that is new or has gained builds since held, the
    {key: build names} at the fork.

    A share with a row (or exception) that cannot be pickled becomes the
    (index, RuntimeError) of the first such row, and exit status 1.
    """
    news = {key: record for key, record in _CACHE.items()
            if record[4].keys() != held.get(key)}
    try:
        return pickle.dumps((got, news)), 0
    except Exception:
        for i, value in [got] if isinstance(got, tuple) else got:
            try:
                pickle.dumps(value)
            except Exception as exc:
                error = RuntimeError(
                    "row %d could not be pickled in row worker %d: %s: %s"
                    % (i, w, type(exc).__name__, exc))
                return pickle.dumps(((i, error), {})), 1
        raise


def fork_map(fn, items):
    """[fn(item) for item in items], in one process per usable CPU.

    The items run in n processes, one per CPU this process may use and at
    most one per item: this process takes items 0, n, 2n, ... and each of
    n - 1 forked children takes items w, w + n, ... and pickles down a
    pipe its rows, or the exception of its first failing item, with
    every shot record it added to the cache or gave new builds, against
    the record keys and build names held at the fork.  A share that
    cannot be pickled is sent as a RuntimeError naming its row
    (`_pickled_share`).  This process merges the records
    (`_merge_cache_news`), so the cache holds what one loop would have
    left and no later solve repeats a shot or a march.  One item or
    one CPU forks nothing.  The rows keep their order, and the exception
    raised is that of the lowest failing index, the one a single loop
    meets first.  Every child is reaped before this returns or raises.

    Items that share a shot or a march belong in one item: split
    apart, they land in different processes, each of which solves it
    (the m = 1 rows of one p in `acceptance.CROSS_RUNS` share one shot).
    """
    n = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        n = min(len(items), len(os.sched_getaffinity(0))) or 1

    def share(w):
        done = []
        for i in range(w, len(items), n):
            try:
                done.append((i, fn(items[i])))
            except Exception as exc:
                return i, exc
        return done

    shares, children, sent = [], [], []
    try:
        for w in range(1, n):
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    held = {key: set(record[4])
                            for key, record in _CACHE.items()}
                    data, status = _pickled_share(w, share(w), held)
                    with os.fdopen(wfd, "wb") as fh:
                        fh.write(data)
                finally:
                    os._exit(status)
            os.close(wfd)
            children.append((w, pid, rfd))
        shares.append(share(0))
    finally:
        for w, pid, rfd in children:
            with os.fdopen(rfd, "rb") as fh:
                data = fh.read()
            sent.append((w, data, os.waitpid(pid, 0)[1]))
    for w, data, status in sent:
        if not data:
            shares.append((w, RuntimeError(
                "row worker %d ended with wait status %d and sent no rows"
                % (w, status))))
            continue
        got, records = pickle.loads(data)
        _merge_cache_news(records)
        shares.append(got)
    failures = [got for got in shares if isinstance(got, tuple)]
    if failures:
        raise min(failures, key=lambda got: got[0])[1]
    return [row for _, row in sorted((pair for got in shares for pair in got),
                                     key=lambda pair: pair[0])]


def _solve_memoized(problem, kind, tol, n_grid, use_cache):
    """The body of both solve functions, for a domain of the given kind.

    Checks the domain kind, n_grid and tol.  Returns a new view of the
    shot record of `RadialProblem.cache_key(tol)`, solving for it and
    storing it if `_CACHE` holds none (without use_cache, a view of a
    fresh record that is stored nowhere).  The key leaves out the warping
    at m = 1, where the shot reads none of it, so an m = 1 solve on
    another warping takes no shot and shares the record's builds; its
    view holds its own problem.
    """
    if problem.domain.kind != kind:
        raise ValueError("solve_%s_eigenvalue needs a domain of kind %r, "
                         "got %r" % (kind, kind, problem.domain))
    if not (math.isfinite(n_grid) and int(n_grid) == n_grid
            and n_grid >= _MIN_GRID):
        raise ValueError("grid size n=%r: the dense grid needs an integer "
                         "n >= %d" % (n_grid, _MIN_GRID))
    # Brent cannot close a bracket narrower than one ulp of lam.
    if not sys.float_info.epsilon <= tol < 1.0:
        raise ValueError("tol=%r: the relative bracket width needs "
                         "2**-52 <= tol < 1" % (tol,))
    if not use_cache:
        return RadialSolution(problem, _solve(problem, tol) + ({},), n_grid)
    key = problem.cache_key(tol)
    if key not in _CACHE:
        _CACHE[key] = _solve(problem, tol) + ({},)
    return RadialSolution(problem, _CACHE[key], n_grid)


def solve_ball_eigenvalue(problem, tol=_DEFAULT_TOL, n_grid=_DEFAULT_GRID,
                          use_cache=True):
    """First Dirichlet p-eigenvalue of a ball, to relative accuracy tol.

    Returns a RadialSolution whose omega is positive on [0, r), decreasing,
    and vanishes at r up to the eigenvalue tolerance.  Solves are
    memoized per process by what the shot reads (p, m, domain, tol, and
    the warping unless m = 1; `RadialProblem.cache_key`), together with
    what the solutions build.  Another n_grid takes no shot, and neither
    does an m = 1 solve on another warping: with weight f^0 = 1 its shot
    and builds read no bit of the profile.  Solves are pure, so the
    cache is transparent.
    """
    return _solve_memoized(problem, "ball", tol, n_grid, use_cache)


def solve_annulus_eigenvalue(problem, tol=_DEFAULT_TOL, n_grid=_DEFAULT_GRID,
                             use_cache=True):
    """First Dirichlet p-eigenvalue of an annulus, normalized to max 1."""
    return _solve_memoized(problem, "annulus", tol, n_grid, use_cache)


def eigen_equation_residual(solution):
    """Scaled sup of the eigenvalue-equation defect on the solution grid.

    Evaluates (f^{m-1} |omega'|^{p-2} omega')' + lam f^{m-1} |omega|^{p-2}
    omega by 4th-order centered differences of the flux at interior nodes,
    normalized pointwise by lam f^{m-1} max|omega|^{p-1}.  Nodes within
    1% of the pole or with |omega| below 1% of the maximum are excluded;
    the degenerate flux is not finite-differentiable to this accuracy
    there.  Works on doctored solutions too: only the public arrays and
    ``solution.problem`` are read.

    On an annulus with p > 2 the flux is only C^{2,1/(p-1)} at the
    interior peak (Phi' ~ omega^(p-1) and omega' ~ |Phi|^(1/(p-1))), so
    the stencils next to the excluded strip measure the audit's own
    truncation error.  On Annulus(0.5, 1), m = 2, c = 0, p = 8 the
    2048-node residual reads 2.8e-5 at t = 0.74475, 1.7 node steps from
    the flux zero at 0.74517, and the same solve reads 2.9e-8 on 8192
    nodes (p = 4: 1.8e-7 and 8.4e-10); the solution is accurate there.

    On a ball with p < 2 the same happens at the wall, where omega
    vanishes and Phi' ~ omega^(p-1) is not smooth.  The worst node is the
    last one inside the omega window, a few node steps from t = r.  On
    the flat unit ball, m = 2, p = 1.1 the 2048-node residual reads
    1.8e-4 at t = 0.99853, three node steps from r, and the same solve
    reads 1.6e-6 on 8192 nodes (m = 1: p = 1.05 2.2e-3 and 1.3e-5,
    p = 1.2 4.9e-5 and 1.7e-7), while lam for m = 1 is within 4e-13 of
    its closed form.
    """
    problem = solution.problem
    p, m, lam = problem.p, problem.m, solution.lam
    t = solution.grid
    w = solution.omega
    wp = solution.omega_prime
    h = t[1] - t[0]
    fm = problem.weight(t)
    flux = fm * signed_power(wp, p - 1.0)
    n = t.size
    i = np.arange(2, n - 2)
    dflux = (flux[i - 2] - 8.0 * flux[i - 1] + 8.0 * flux[i + 1]
             - flux[i + 2]) / (12.0 * h)
    res = dflux + lam * fm[i] * signed_power(w[i], p - 1.0)
    denom = lam * fm[i] * np.max(np.abs(w)) ** (p - 1.0)
    keep = np.abs(w[i]) >= RESIDUAL_OMEGA_FLOOR * np.max(np.abs(w))
    if problem.domain.kind == "ball":
        keep &= t[i] >= RESIDUAL_POLE_FRAC * solution.r
    else:
        keep &= np.minimum(t[i] - t[0], t[-1] - t[i]) >= RESIDUAL_POLE_FRAC * (t[-1] - t[0])
        if p > 2.0:
            # the flux vanishes at the interior peak and omega'' blows up
            # like |flux|^((2-p)/(p-1)) there, so the stencil loses its
            # fourth-order accuracy in a thin strip around it
            keep &= np.abs(flux[i]) >= RESIDUAL_OMEGA_FLOOR * np.max(np.abs(flux))
    if not np.any(keep):
        raise ValueError("empty residual evaluation window")
    return float(np.max(np.abs(res[keep]) / denom[keep]))


def scaled_eigenvalue(lambda_unit, r, p):
    """Flat-case rescaling lam(B_r) = r^{-p} lam(B_1), flat only.

    The identity holds only for c = 0, where dilations are isometries up
    to scale.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    return float(lambda_unit) * r ** (-p)
