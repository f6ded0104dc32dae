"""Model-space warping functions and radial geometry profiles.

A rotationally symmetric metric around a pole is written dt^2 + f(t)^2 g_S
with a warping function f.  The constant-curvature models use

    S_c(t) = sin(sqrt(c) t)/sqrt(c)      (c > 0)
           = t                           (c = 0)
           = sinh(sqrt(-c) t)/sqrt(-c)   (c < 0)

and the model "cotangent" cot_c = S_c'/S_c, which behaves like 1/t at the
pole and is strictly decreasing up to the conjugate point pi/sqrt(c).

The radial sectional curvature of a profile is -f''/f.  Comparison
statements downstream require a verified bound -f''/f <= c, so
`verify_curvature_bound` checks it on a grid and reports the worst node
instead of assuming anything about the input.

Profiles come in three kinds:

  * space_form(c): exact closed forms;
  * perturbed(c, eps): f = S_c(t) (1 + eps t^2), which keeps the pole
    conditions f(0) = 0, f'(0) = 1 and, for eps >= 0, satisfies the same
    curvature bound as S_c (checked at construction, not assumed);
  * tabulated(nodes, values): monotone cubic (PCHIP) interpolation of
    sampled data, with derivatives taken from the interpolant.  The
    shooting loop reads f through `f_scalar`, a pure-Python evaluator of
    the same piecewise cubic that sums each local polynomial in scipy's
    own order, so its values equal the interpolant's bit for bit at
    about a tenth of the cost of a scipy call per point.

Everything here is a pure function of its inputs; profiles are immutable
after construction and safe to share between threads.
"""

import hashlib
import math
from bisect import bisect_right

import numpy as np

# Absolute tolerance for the curvature check: closed-form profiles satisfy
# their bounds exactly, so this only absorbs rounding.
TOL_CURV = 1e-9

# Below this radius S_c and cot_c switch to 3-term Taylor series to avoid
# cancellation; the shooting solver starts integration at the pole.
_TAYLOR_CUTOFF = 1e-6

_CURV_GRID_N = 4096


def _conjugate_guard(c, t):
    if c > 0:
        tmax = math.pi / math.sqrt(c)
        if np.any(t >= tmax):
            raise ValueError(
                "t beyond the conjugate point pi/sqrt(c) = %.12g" % tmax)


def s_c(c, t):
    """Warping function S_c(t) of the curvature-c model.

    Accepts a scalar or array t >= 0; for c > 0 requires t < pi/sqrt(c).
    Continuous in c at c = 0 (the Taylor branch is a series in c*t^2, so
    both signs of c share it).
    """
    scalar = np.ndim(t) == 0
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0):
        raise ValueError("s_c requires t >= 0")
    _conjugate_guard(c, tt)
    out = np.empty_like(tt)
    small = tt < _TAYLOR_CUTOFF
    if np.any(small):
        ts = tt[small]
        x2 = c * ts * ts
        out[small] = ts * (1.0 - x2 / 6.0 + x2 * x2 / 120.0)
    big = ~small
    if np.any(big):
        tl = tt[big]
        if c > 0:
            rc = math.sqrt(c)
            out[big] = np.sin(rc * tl) / rc
        elif c == 0:
            out[big] = tl
        else:
            rc = math.sqrt(-c)
            out[big] = np.sinh(rc * tl) / rc
    return float(out) if scalar else out


def c_c(c, t):
    """Derivative S_c'(t): cos, 1, or cosh of the rescaled radius."""
    scalar = np.ndim(t) == 0
    tt = np.asarray(t, dtype=float)
    _conjugate_guard(c, tt)
    if c > 0:
        out = np.cos(math.sqrt(c) * tt)
    elif c == 0:
        out = np.ones_like(tt)
    else:
        out = np.cosh(math.sqrt(-c) * tt)
    return float(out) if scalar else out


def cot_c(c, t):
    """Model cotangent S_c'(t)/S_c(t); behaves like 1/t at the pole.

    Requires t > 0 (and t below the conjugate point for c > 0); raises
    ValueError at t = 0 where the function diverges.
    """
    scalar = np.ndim(t) == 0
    tt = np.asarray(t, dtype=float)
    if np.any(tt <= 0):
        raise ValueError("cot_c requires t > 0")
    _conjugate_guard(c, tt)
    out = np.empty_like(tt)
    small = tt < _TAYLOR_CUTOFF
    if np.any(small):
        ts = tt[small]
        # 1/t - c t/3 - c^2 t^3/45, valid for both signs of c.
        out[small] = 1.0 / ts - c * ts / 3.0 - c * c * ts ** 3 / 45.0
    big = ~small
    if np.any(big):
        tl = tt[big]
        if c > 0:
            rc = math.sqrt(c)
            out[big] = rc / np.tan(rc * tl)
        elif c == 0:
            out[big] = 1.0 / tl
        else:
            rc = math.sqrt(-c)
            out[big] = rc / np.tanh(rc * tl)
    return float(out) if scalar else out


def _scalar_warping(kind, c, eps, interp):
    """Build a fast float->float evaluator of f for the shooting loop.

    A tabulated profile is read from its interpolant's own breakpoints
    and coefficients, one point at a time, without a scipy call.  The
    interval search and its clamp to [0, n-2] (the end polynomials
    extrapolate) are those of PPoly, and the local cubic is summed in
    PPoly's order -- the power sum c3 + c2 s + c1 s^2 + c0 s^3 with
    s^3 = (s s) s, not Horner -- so every value equals interp(t) bit for
    bit.  Horner rounds differently by an ulp, which CSV cells printed
    to 17 digits would show.
    """
    if kind == "spaceform" or kind == "perturbed":
        if c > 0:
            rc = math.sqrt(c)
            base = lambda t: math.sin(rc * t) / rc
        elif c == 0:
            base = lambda t: t
        else:
            rc = math.sqrt(-c)
            base = lambda t: math.sinh(rc * t) / rc
        if kind == "spaceform":
            return base
        return lambda t: base(t) * (1.0 + eps * t * t)
    x = interp.x.tolist()
    c0, c1, c2, c3 = interp.c.tolist()
    last = len(x) - 2

    def f(t):
        i = bisect_right(x, t) - 1
        if i < 0:
            i = 0
        elif i > last:
            i = last
        s = t - x[i]
        z = s * s
        return c3[i] + c2[i] * s + c1[i] * z + c0[i] * (z * s)
    return f


class WarpingProfile:
    """Immutable radial warping f(t) on [0, r_max] with two derivatives.

    Use the constructors `space_form`, `perturbed`, `tabulated`, or
    `from_csv` rather than calling the class directly.
    """

    def __init__(self, kind, c=None, eps=None, r_max=None, interp=None,
                 label=None, f3_0=0.0, data_key=None):
        self.kind = kind
        self.c = c
        self.eps = eps
        self.r_max = float(r_max)
        self._interp = interp
        self._d1 = interp.derivative(1) if interp is not None else None
        self._d2 = interp.derivative(2) if interp is not None else None
        self.label = label or kind
        # Third derivative of f at the pole; the solver's startup expansion
        # uses it for the O(t^{m+2}) flux correction.
        self.f3_0 = float(f3_0)
        self._data_key = data_key
        self.f_scalar = _scalar_warping(kind, c, eps, interp)

    def eval(self, t):
        """Return (f, f', f'') at t (scalar or array), t in [0, r_max]."""
        scalar = np.ndim(t) == 0
        tt = np.asarray(t, dtype=float)
        if np.any(tt < -1e-15) or np.any(tt > self.r_max * (1 + 1e-12)):
            raise ValueError("t outside the profile domain [0, %g]" % self.r_max)
        if self.kind == "spaceform":
            f = s_c(self.c, tt)
            f1 = c_c(self.c, tt)
            f2 = -self.c * f
        elif self.kind == "perturbed":
            s = s_c(self.c, tt)
            sc = c_c(self.c, tt)
            w = 1.0 + self.eps * tt * tt
            f = s * w
            f1 = sc * w + 2.0 * self.eps * tt * s
            f2 = -self.c * s * w + 4.0 * self.eps * tt * sc + 2.0 * self.eps * s
        else:
            f = self._interp(tt)
            f1 = self._d1(tt)
            f2 = self._d2(tt)
        if scalar:
            return float(f), float(f1), float(f2)
        return np.asarray(f, float), np.asarray(f1, float), np.asarray(f2, float)

    def cache_key(self):
        if self.kind == "spaceform":
            return ("spaceform", self.c, self.r_max)
        if self.kind == "perturbed":
            return ("perturbed", self.c, self.eps, self.r_max)
        return ("tabulated", self._data_key, self.r_max)

    def describe(self):
        """JSON-ready descriptor of the profile."""
        d = {"kind": self.kind, "r_max": self.r_max, "label": self.label}
        if self.c is not None:
            d["c"] = self.c
        if self.eps is not None:
            d["eps"] = self.eps
        if self.kind == "tabulated":
            d["data_sha1"] = self._data_key
        return d

    def __repr__(self):
        return "WarpingProfile(%s)" % (self.describe(),)


def space_form(c, r_max=None):
    """Constant-curvature profile f = S_c on [0, r_max]."""
    if r_max is None:
        r_max = 8.0 if c <= 0 else min(8.0, 0.999999 * math.pi / math.sqrt(c))
    elif c > 0 and r_max >= math.pi / math.sqrt(c):
        raise ValueError("r_max beyond the conjugate point of S_c")
    return WarpingProfile("spaceform", c=float(c), r_max=r_max,
                          label="S_c(c=%g)" % c, f3_0=-c)


def perturbed(c, eps, r_max=None):
    """Profile f = S_c(t) (1 + eps t^2); curvature bound checked on a grid."""
    if eps < 0:
        raise ValueError("perturbed profiles require eps >= 0")
    if r_max is None:
        r_max = 8.0 if c <= 0 else min(8.0, 0.999999 * math.pi / math.sqrt(c))
    prof = WarpingProfile("perturbed", c=float(c), eps=float(eps), r_max=r_max,
                          label="S_c(c=%g)*(1+%g t^2)" % (c, eps),
                          f3_0=6.0 * eps - c)
    report = verify_curvature_bound(prof, c)
    if not report.ok:
        raise ValueError(
            "perturbed profile violates -f''/f <= %g: excess %.3e at t=%.6g"
            % (c, report.worst_excess, report.worst_t))
    return prof


def tabulated(nodes, values, label=None):
    """Profile interpolated from samples (strictly increasing t from 0)."""
    t = np.asarray(nodes, dtype=float)
    f = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != f.shape or t.size < 4:
        raise ValueError("tabulated profiles need matching 1-d arrays, >= 4 samples")
    if t[0] != 0.0 or np.any(np.diff(t) <= 0):
        raise ValueError("sample radii must be strictly increasing and start at 0")
    if f[0] != 0.0:
        raise ValueError("smooth pole requires f(0) = 0")
    if np.any(f[1:] <= 0):
        raise ValueError("warping must be positive on (0, r_max]")
    # Imported here: scipy.interpolate costs about half a second, and
    # only tabulated profiles need it.
    from scipy.interpolate import PchipInterpolator
    interp = PchipInterpolator(t, f)
    d1_0 = float(interp.derivative(1)(0.0))
    if abs(d1_0 - 1.0) > 1e-6:
        raise ValueError("smooth pole requires f'(0) = 1, interpolant gives %.8g" % d1_0)
    # Estimate f'''(0) ~ f''(delta)/delta from the interpolant for the
    # solver's startup flux correction (f'' (0) = 0 at a smooth pole).
    delta = t[-1] / 1000.0
    f3_0 = float(interp.derivative(2)(delta)) / delta
    key = hashlib.sha1(t.tobytes() + f.tobytes()).hexdigest()[:12]
    return WarpingProfile("tabulated", r_max=t[-1], interp=interp,
                          label=label or "tabulated[%d]" % t.size,
                          f3_0=f3_0, data_key=key)


def from_csv(path):
    """Load a tabulated profile from a two-column CSV with header `t,f`."""
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip()
        if header != "t,f":
            raise ValueError("expected CSV header 't,f', got %r" % header)
        data = np.loadtxt(fh, delimiter=",")
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("expected two columns t,f")
    return tabulated(data[:, 0], data[:, 1], label=str(path))


class CurvatureReport:
    """Outcome of a curvature-bound check; truthy iff the bound holds."""

    def __init__(self, ok, c, worst_t, worst_excess, n_nodes):
        self.ok = bool(ok)
        self.c = c
        self.worst_t = worst_t
        # max over nodes of (-f''/f - c); <= TOL_CURV when the bound holds
        self.worst_excess = worst_excess
        self.margin = TOL_CURV - worst_excess
        self.n_nodes = n_nodes

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return ("CurvatureReport(ok=%s, c=%g, worst_t=%.6g, excess=%.3e, "
                "nodes=%d)" % (self.ok, self.c, self.worst_t,
                               self.worst_excess, self.n_nodes))


def verify_curvature_bound(profile, c, nodes=None):
    """Check -f''/f <= c + TOL_CURV at every node; report the worst one.

    Nodes default to a uniform grid of 4096 points on (0, r_max].  The
    result carries the argmax node and the margin; it never raises on a
    violated bound.
    """
    if nodes is None:
        nodes = np.linspace(0.0, profile.r_max, _CURV_GRID_N + 1)[1:]
    else:
        nodes = np.asarray(nodes, dtype=float)
        if np.any(nodes <= 0):
            raise ValueError("curvature nodes must lie in (0, r_max]")
    f, _, f2 = profile.eval(nodes)
    excess = (-f2 / f) - c
    i = int(np.argmax(excess))
    worst = float(excess[i])
    return CurvatureReport(worst <= TOL_CURV, c, float(nodes[i]), worst,
                           nodes.size)
