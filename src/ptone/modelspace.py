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
    conditions f(0) = 0, f'(0) = 1.  For eps >= 0 and c <= 0 it satisfies
    the same curvature bound as S_c; for c > 0 and eps > 0 the bound
    fails beyond t = 1.8366/sqrt(c), short of the conjugate point.  The
    bound is checked at construction, not assumed;
  * tabulated(nodes, values): monotone cubic (PCHIP) interpolation of
    sampled data, with derivatives taken from the interpolant.  The
    interpolant is ptone's own (`_pchip`, `_pchip_eval`); it repeats
    scipy's PchipInterpolator operation for operation, and a test shows
    the two equal bit for bit.

Each profile also carries f as one expression over the point s,
`f_expr`, with the values of the names it reads, `f_names`, a read-only
mapping.  It is the one copy of f as scalar code: the pure-Python
`f_scalar` is compiled from it, and the solver writes it into the
stages of its generated integrators (`radial._make_rhs`).  For the
closed forms it is the formula; for a tabulated profile it is a binary
search of the knots and the power sum of the cubic it finds, with the
knots and coefficients held as tuples.

Everything here is a pure function of its inputs; profiles are immutable
after construction and safe to share between threads.
"""

import functools
import hashlib
import math
import types
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


def _pchip_end(h0, h1, m0, m1):
    """One-sided three-point end slope, kept monotone (Moler's pchiptx)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(t, f):
    """PCHIP knots x and table of samples f at knots t.

    Slopes follow Fritsch & Carlson (1980) with the weighted harmonic
    mean of Fritsch & Butland (1984): d_k = 0 where the secants m_{k-1},
    m_k vanish or change sign.  Column k of the table holds the cubic
    of knot interval k, c0 s^3 + c1 s^2 + c2 s + c3 with s = t - x[k],
    as rows 0-3, then its derivatives' coefficients (3 c0, 2 c1, c2) and
    (6 c0, 2 c1) as rows 4-6 and 7-8.  Every operation, and its order,
    is that of scipy's PchipInterpolator and PPoly.derivative, so each
    coefficient keeps scipy's bits.
    """
    x = np.array(t)
    h = x[1:] - x[:-1]
    m = (f[1:] - f[:-1]) / h
    sm = np.sign(m)
    flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    d = np.concatenate(([_pchip_end(h[0], h[1], m[0], m[1])],
                        np.where(flat, 0.0, inner),
                        [_pchip_end(h[-1], h[-2], m[-1], m[-2])]))
    k = (d[:-1] + d[1:] - 2 * m) / h
    c = (k / h, (m - d[:-1]) / h - k, d[:-1], f[:-1])
    table = np.vstack(c + (3.0 * c[0], 2.0 * c[1], c[2],
                           6.0 * c[0], 2.0 * c[1]))
    return x, table


def _pchip_eval(pchip, t):
    """(f, f', f'') of a PCHIP (x, table) at t, summed as PPoly sums them.

    The interval is the count of interior knots <= t, which equals
    PPoly's searchsorted(x, t, "right") - 1 clamped to [0, n-2], so the
    end cubics extrapolate.  Each value is the power sum from 0.0 in
    ascending powers with s^2 = s s and s^3 = (s s) s, not Horner, which
    rounds differently by an ulp.
    """
    x, table = pchip
    i = np.searchsorted(x[1:-1], t, "right")
    s = t - x[i]
    s2 = s * s
    k = table[:, i]
    return (0.0 + k[3] + k[2] * s + k[1] * s2 + k[0] * (s2 * s),
            0.0 + k[6] + k[5] * s + k[4] * s2,
            0.0 + k[8] + k[7] * s)


def _scalar_warping(kind, c, eps):
    """The warping of a closed-form profile as source: (expr, names).

    expr is one expression over the point s, and names maps the other
    names it reads to their values: S_c is sin(rc * s) / rc, s or
    sinh(rc * s) / rc, and a perturbed profile multiplies it by
    (1.0 + eps * s * s).  This is the one copy of each closed form:
    `f_scalar` is compiled from it, and the solver writes it into the
    stages of its generated loops (`radial._make_rhs`).
    """
    if c > 0:
        expr, names = "sin(rc * s) / rc", {"rc": math.sqrt(c),
                                            "sin": math.sin}
    elif c == 0:
        expr, names = "s", {}
    else:
        expr, names = "sinh(rc * s) / rc", {"rc": math.sqrt(-c),
                                             "sinh": math.sinh}
    if kind == "perturbed":
        expr = "(%s) * (1.0 + eps * s * s)" % expr
        names["eps"] = eps
    return expr, names


def _tabulated_warping(pchip):
    """The warping of a PCHIP (x, table) as source: (expr, names).

    expr finds the interval by bisect_right on the knots with lo = 1 and
    hi = n - 1, which returns `_pchip_eval`'s interval plus one, clamped
    as its rule clamps (the end cubics extrapolate), and sums c3 + c2 d
    + c1 d^2 + c0 d^3 with d^2 = d d and d^3 = (d d) d, as `_pchip_eval`
    does.  So every value equals the interpolant's bit for bit (and so
    scipy's, which a test checks).  The assignment expressions bind
    iv, ds and ds2 in the function that evaluates expr.
    """
    x, table = pchip
    c0, c1, c2, c3 = (tuple(row) for row in table[:4].tolist())
    expr = ("c3[(iv := bisect_right(knots, s, 1, top) - 1)]"
            " + c2[iv] * (ds := s - knots[iv])"
            " + c1[iv] * (ds2 := ds * ds) + c0[iv] * (ds2 * ds)")
    return expr, {"knots": tuple(x.tolist()), "top": len(x) - 1,
                  "c0": c0, "c1": c1, "c2": c2, "c3": c3,
                  "bisect_right": bisect_right}


@functools.cache
def _compile_warping(expr, names):
    """make(**values) -> the function s -> expr of the given names.

    Each expression is compiled once per process, so building a profile
    costs no compile.
    """
    made = {}
    exec("def make(%s):\n    return lambda s: %s\n" % (", ".join(names),
                                                         expr), made)
    return made["make"]


class WarpingProfile:
    """Immutable radial warping f(t) on [0, r_max] with two derivatives.

    Use the constructors `space_form`, `perturbed`, `tabulated`, or
    `from_csv` rather than calling the class directly.
    """

    def __init__(self, kind, c=None, eps=None, r_max=None, pchip=None,
                 label=None, f3_0=0.0, data_key=None):
        self.kind = kind
        self.c = c
        self.eps = eps
        self.r_max = float(r_max)
        self._pchip = pchip
        self.label = label or kind
        # Third derivative of f at the pole; the solver's startup expansion
        # uses it for the O(t^{m+2}) flux correction.
        self.f3_0 = float(f3_0)
        self._data_key = data_key
        # A profile is shared by every solve on it; nobody may change
        # its interpolant in place.
        for arr in pchip or ():
            arr.setflags(write=False)
        if pchip is None:
            self.f_expr, names = _scalar_warping(kind, c, eps)
        else:
            self.f_expr, names = _tabulated_warping(pchip)
        self.f_names = types.MappingProxyType(names)
        self.f_scalar = _compile_warping(self.f_expr, tuple(names))(**names)

    def eval(self, t):
        """Return (f, f', f'') at t (scalar or array), t in [0, r_max]."""
        scalar = np.ndim(t) == 0
        tt = np.asarray(t, dtype=float)
        # Written as "not inside", so NaN fails the check too.
        if not (np.all(tt >= -1e-15)
                and np.all(tt <= self.r_max * (1 + 1e-12))):
            raise ValueError("t outside the profile domain [0, %g] or not a "
                             "number" % self.r_max)
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
            f, f1, f2 = _pchip_eval(self._pchip, tt)
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


def _check_finite(**params):
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError("%s must be finite, got %s=%r"
                             % (name, name, value))


def space_form(c, r_max=None):
    """Constant-curvature profile f = S_c on [0, r_max]."""
    _check_finite(c=c)
    if r_max is None:
        r_max = 8.0 if c <= 0 else min(8.0, 0.999999 * math.pi / math.sqrt(c))
    elif c > 0 and r_max >= math.pi / math.sqrt(c):
        raise ValueError("r_max beyond the conjugate point of S_c")
    return WarpingProfile("spaceform", c=float(c), r_max=r_max,
                          label="S_c(c=%g)" % c, f3_0=-c)


def perturbed(c, eps, r_max=None):
    """Profile f = S_c(t) (1 + eps t^2); curvature bound checked on a grid.

    The bound -f''/f <= c holds on all of [0, r_max] for c <= 0.  For
    c > 0 and eps > 0 it fails beyond t = 1.8366/sqrt(c), the zero of
    2 sqrt(c) t cos(sqrt(c) t) + sin(sqrt(c) t), whatever eps: the
    default r_max, just short of the conjugate point, always raises, and
    the error names the first grid radius where the bound fails, which
    r_max must stay below.
    """
    _check_finite(c=c, eps=eps)
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
            "perturbed profile violates -f''/f <= %g: excess %.3e at t=%.6g; "
            "the bound first fails at t=%.6g, which r_max must stay below"
            % (c, report.worst_excess, report.worst_t, report.first_t))
    return prof


def tabulated(nodes, values, label=None):
    """Profile interpolated from samples (strictly increasing t from 0)."""
    t = np.asarray(nodes, dtype=float)
    f = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != f.shape or t.size < 4:
        raise ValueError("tabulated profiles need matching 1-d arrays, >= 4 samples")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(f))):
        raise ValueError("tabulated samples must be finite")
    if t[0] != 0.0 or np.any(np.diff(t) <= 0):
        raise ValueError("sample radii must be strictly increasing and start at 0")
    if f[0] != 0.0:
        raise ValueError("smooth pole requires f(0) = 0")
    if np.any(f[1:] <= 0):
        raise ValueError("warping must be positive on (0, r_max]")
    pchip = _pchip(t, f)
    d1_0 = float(_pchip_eval(pchip, 0.0)[1])
    if abs(d1_0 - 1.0) > 1e-6:
        raise ValueError("smooth pole requires f'(0) = 1, interpolant gives %.8g" % d1_0)
    # Estimate f'''(0) ~ f''(delta)/delta from the interpolant for the
    # solver's startup flux correction (f'' (0) = 0 at a smooth pole).
    delta = t[-1] / 1000.0
    f3_0 = float(_pchip_eval(pchip, delta)[2]) / delta
    key = hashlib.sha1(t.tobytes() + f.tobytes()).hexdigest()[:12]
    return WarpingProfile("tabulated", r_max=t[-1], pchip=pchip,
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

    def __init__(self, ok, c, worst_t, worst_excess, n_nodes, first_t):
        self.ok = bool(ok)
        self.c = c
        self.worst_t = worst_t
        # the first node where the bound fails; None when it holds
        self.first_t = first_t
        # max over nodes of (-f''/f - c); <= TOL_CURV when the bound holds
        self.worst_excess = worst_excess
        self.n_nodes = n_nodes

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return ("CurvatureReport(ok=%s, c=%g, worst_t=%.6g, excess=%.3e, "
                "nodes=%d)" % (self.ok, self.c, self.worst_t,
                               self.worst_excess, self.n_nodes))


def verify_curvature_bound(profile, c):
    """Check -f''/f <= c + TOL_CURV at every node; report the worst one.

    The nodes are a uniform grid of 4096 points on (0, r_max].  The
    result carries the argmax node, the first failing node and the
    worst excess; it never raises on a violated bound.
    """
    nodes = np.linspace(0.0, profile.r_max, _CURV_GRID_N + 1)[1:]
    f, _, f2 = profile.eval(nodes)
    excess = (-f2 / f) - c
    i = int(np.argmax(excess))
    worst = float(excess[i])
    ok = worst <= TOL_CURV
    first = None if ok else float(nodes[np.argmax(excess > TOL_CURV)])
    return CurvatureReport(ok, c, float(nodes[i]), worst, nodes.size, first)
