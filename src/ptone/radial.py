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
(halving, then doubling lam from half a Barta-type seed until a zero
appears before r) and then runs Brent's method on the continuous miss

    g(lam) = omega(r)              if omega has no zero before r,
    g(lam) = omega'(z) (r - z)     if its first zero is z <= r,

whose sign is the first-zero test and which decreases through 0 at the
eigenvalue with a continuous slope.  The reported lam is the zero-free
end of the final bracket, whose trajectory is already integrated.  It is
certified zero-free for the computed shot, not a lower value for the
exact equation: at large p the shot's integration error exceeds the
1e-12 bracket width.  On the flat unit ball with m = 1, lam sits above
(p-1)(pi_p/2)^p by 3.9e-12 (p = 8), 5.1e-11 (p = 12) and 2.0e-10
(p = 16), relative.  Annuli shoot from the left endpoint with
omega(a) = 0 and unit initial flux instead.
"""

import functools
import math
import sys
from bisect import bisect_left, bisect_right

import numpy as np

from . import _ode
from ._ode import NonConvergenceError
from .modelspace import WarpingProfile, space_form

P_MIN, P_MAX = 1.05, 16.0

_DEFAULT_TOL = 1e-12     # relative width of the final eigenvalue bracket
_DEFAULT_GRID = 2048
_STARTUP_FRAC = 1e-4
# Dense-march control (`RadialSolution._march`): a sweep starts from the
# last mesh node at least span/_ANCHOR_STEPS before its first node past
# t0, takes one step per stride nodes where those are closer than
# span/(2 _ANCHOR_STEPS), takes no step longer than span/_ANCHOR_STEPS,
# and steps near a point where the field is not smooth are at most
# 1/ratio of their distance from it: the pole, the walls and an
# annulus's interior peak.  The steps are graded toward such a point
# only as close as its order needs (`_ode._graded_cuts`).
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
        if int(m) != m or m < 1:
            raise ValueError("dimension m must be an integer >= 1")
        if not isinstance(profile, WarpingProfile):
            raise TypeError("profile must be a WarpingProfile")
        self.p = p
        self.m = int(m)
        self.profile = profile
        self.domain = domain
        if domain.right > profile.r_max * (1 + 1e-12):
            raise ValueError("domain exceeds the profile domain [0, %g]"
                             % profile.r_max)
        if profile.c is not None and profile.c > 0:
            if domain.right >= math.pi / math.sqrt(profile.c):
                raise ValueError("radius beyond the conjugate point of S_c")
        if domain.bc[0] and domain.left == 0 and self.m > 1:
            raise ValueError("annulus with a = 0 needs m = 1 (vanishing "
                             "weight at the pole otherwise)")

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
        d = self.domain
        return (self.p, self.m, self.profile.cache_key(),
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
    """(rhs, step, integrate, run) of the trial-lam system (`_ode`).

    rhs(t, omega, Phi) -> (omega', Phi') is the right-hand side; step,
    integrate and run are its Dormand-Prince step, adaptive loop and
    plain-step march run (`_ode.compile_form`).  The form's slopes are
    `_SLOPES`, and its weight is chosen by min(m - 1, 2): none, the
    profile's f_expr, or (f_expr) ** mm1.  A closed-form warping is thus
    written into every stage; a tabulated one calls `fscalar`, bound
    here to the profile's f_scalar.  Each form (at most 30: 7 warping
    expressions times 2 weight powers, plus unweighted, times p = 2 or
    not) is compiled on its first use in the process; this binds lam,
    the exponents and the profile's names.
    """
    k = min(m - 1, 2)
    params = "lam, nlam, em1, pm1, mm1"
    args = [lam, -lam, 1.0 / (p - 1.0), p - 1.0, m - 1]
    weight = None
    if k:
        weight = profile.f_expr if k == 1 else "(%s) ** mm1" % profile.f_expr
        names = dict(profile.f_names)
        if profile._pchip is not None:
            names["fscalar"] = profile.f_scalar
        params += "".join(", " + n for n in names)
        args += names.values()
    make = _ode.compile_form(params, weight, *_SLOPES[p == 2.0, k > 0])
    return make(*args)


class _Startup:
    """Pole expansion of the ball solution on [0, t0]."""

    def __init__(self, p, m, profile, lam, t0):
        self.t0 = t0
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


def _refine_zero(rhs, step, ts, ys, k, tol_t, comp=0):
    """Zero of state component `comp` inside (ts[k-1], ts[k]).

    Each evaluation is one Dormand-Prince `step` of the trajectory's
    form from node k-1, and `_ode.brent` finds the zero to within tol_t.
    Returns (z, (omega, Phi, omega', Phi')): the zero, and the state and
    k7 slope of the step that ends there.
    """
    t, (u, v) = ts[k - 1], ys[k - 1]
    ku, kv = rhs(t, u, v)
    steps = {}

    def component(s):
        steps[s] = step(t, s - t, u, v, ku, kv)
        return steps[s][comp]

    z = _ode.brent(component, t, ts[k], tol_t, fa=ys[k - 1][comp],
                   fb=ys[k][comp])[0]
    if z not in steps:      # an end of the bracket, never evaluated
        component(z)
    return z, steps[z]


def _shoot(problem, lam):
    """Integrate the trial-lam trajectory; return (ts, ys, miss).

    For balls the mesh starts at t0 = 1e-4 r with the startup state; for
    annuli it starts at (a, (0, 1)) (unit initial flux).  Integration stops
    at the first node where omega <= 0.  `miss` is the continuous miss
    g(lam) of the module docstring, positive exactly when omega has no
    zero before the right endpoint: omega there when the integration
    reached it (a zero inside the last step, or none), and
    omega'(z) (r - z) from the refined zero z when it stopped earlier.
    A zero exactly at the endpoint counts as a zero.
    """
    p, m, prof = problem.p, problem.m, problem.profile
    rhs, step, integrate, _ = _make_rhs(p, m, prof, lam)
    d = problem.domain
    t_end = d.right
    if d.kind == "ball":
        t_start = _STARTUP_FRAC * t_end
        y_start = _Startup(p, m, prof, lam, t_start).state(t_start)
    else:
        t_start, y_start = d.left, (0.0, 1.0)
    ts, ys = integrate(t_start, t_end, y_start)
    if ys[-1][0] > 0.0 or ts[-1] >= t_end:
        return ts, ys, ys[-1][0] or -math.ulp(0.0)
    zero, (_, _, slope, _) = _refine_zero(rhs, step, ts, ys, len(ts) - 1,
                                          1e-12 * (t_end - t_start))
    return ts, ys, -abs(slope) * (t_end - zero)


def _omega_prime(problem, t, phi):
    """omega' = sign(Phi) (|Phi| / f^{m-1})^{1/(p-1)} from the flux Phi.

    Zero where the weight f^{m-1} vanishes (the pole of a ball).
    """
    fm = problem.weight(t)
    out = np.zeros(t.size)
    ok = fm > 0.0
    out[ok] = signed_power(phi[ok] / fm[ok], 1.0 / (problem.p - 1.0))
    return out


# The names `RadialSolution.__getattr__` builds.
_DENSE = frozenset(("grid", "omega", "omega_prime", "flux", "residual"))


class RadialSolution:
    """A solved radial eigenpair with dense re-evaluation.

    Public arrays live on a uniform grid of n_grid nodes over the closed
    domain; between nodes `evaluate` advances the stored adaptive
    trajectory with fixed Dormand-Prince steps (and, on nodes closer
    than the grid's, their dense output), so derived quantities (Barta
    ratios, restriction inequalities, transplants) can be sampled
    anywhere without interpolating the stored arrays.

    `grid`, `omega`, `omega_prime`, `flux` and `residual` are one build
    step: the first read of any of them marches the grid once and audits
    it, and all five are stored, so a caller that needs only `lam` pays
    for no march.  The four arrays are read-only, and a cache hit shares
    them with every other holder of the solution.
    """

    def __init__(self, problem, lam, ts, ys, iterations, n_grid):
        self.problem = problem
        self.p = problem.p
        self.m = problem.m
        self.profile = problem.profile
        self.lam = float(lam)
        self.iterations = int(iterations)
        self._ts = ts
        self._ys = ys
        self._rhs, self._step, _, self._run = _make_rhs(
            self.p, self.m, self.profile, self.lam)
        d = problem.domain
        # A ball's march gives nodes below t0 = ts[0] the pole expansion,
        # as the shot does; an annulus's gives them the wall state ys[0].
        self._startup = (_Startup(self.p, self.m, self.profile, self.lam,
                                  ts[0]) if d.kind == "ball" else None)
        self._left = d.left
        self.r = d.right
        self.n_grid = n_grid

    def __getattr__(self, name):
        # Python calls this only when normal lookup fails; the build
        # stores all five names, so it runs once per solution.
        if name not in _DENSE:
            raise AttributeError("%r object has no attribute %r"
                                 % (type(self).__name__, name))
        grid = np.linspace(self._left, self.r, self.n_grid)
        omega, phi = self._march(grid)
        self.grid = grid
        self.omega = omega
        self.omega_prime = _omega_prime(self.problem, grid, phi)
        self.flux = -phi / self.lam
        # Solutions are memoized and shared: an in-place write by one
        # caller would corrupt every later cache hit.
        for arr in (self.grid, self.omega, self.omega_prime, self.flux):
            arr.setflags(write=False)
        self.residual = eigen_equation_residual(self)
        return getattr(self, name)

    @functools.cached_property
    def _t_peak(self):
        """An annulus's interior peak, where the flux Phi crosses zero.

        None on a ball.  omega' ~ |Phi|^(1/(p-1)) is not smooth there, so
        the march grades its steps toward it.  Built on the first march,
        like `_scale`: a solve read only for lam does no peak work.
        """
        if self._startup is not None:
            return None
        ts, ys = self._ts, self._ys
        k = next(k for k in range(1, len(ts)) if ys[k][1] <= 0.0)
        return _refine_zero(self._rhs, self._step, ts, ys, k,
                            1e-12 * (ts[-1] - ts[0]), comp=1)[0]

    @functools.cached_property
    def _scale(self):
        """1 / omega(_t_peak) on an annulus, 1 on a ball.

        The mesh-node maximum undershoots the peak by O(step^2).  omega at
        the peak is reached from the mesh node before it by
        `_ode.dp_graded`, one step per piece of its cuts toward the peak
        (ratio 1), cut to all 40 levels (width 0).  Cut only as deep as
        the peak's order needs, as in the march, 1/_scale moved by up to
        2.5e-16 relative on annuli (0.5, 1.5), and every annulus array
        and printed peak with it.  On Annulus(0.5, 1), m = 2, c = 0, p = 4
        that value is
        2.2e-12 off scipy's DOP853 at rtol 3e-14, and one plain step from
        the node is 5.8e-10 off.  The march's _KINK_RATIO of 8 takes eight
        times the steps and comes no more than 1.8e-15 closer on 189
        annuli (p from 1.05 to 16, m up to 3, c in {-1, 0, 1}).
        """
        t_peak = self._t_peak
        if t_peak is None:
            return 1.0
        k = bisect_left(self._ts, t_peak) - 1
        t, y = self._ts[k], self._ys[k]
        (peak, _), _ = _ode.dp_graded(
            self._step, t, y, self._rhs(t, *y), t_peak, 1,
            [(t_peak, 1.0, self.p / (self.p - 1.0))], 0.0)
        return 1.0 / peak

    def _march(self, ts):
        """(omega, Phi) along sorted ts, by one sequential sweep.

        Each gap between nodes takes fixed Dormand-Prince 5(4) steps
        (the fifth-order solution without error control, the last stage
        of a step reused as the first of the next), six right-hand-side
        evaluations per step.  Marching keeps neighboring samples on a
        smooth shared error profile; independent dense queries would
        carry O(1e-12) interpolation jumps at the adaptive step
        boundaries, which second differences of the arrays amplify by
        1/h^2.

        One start rule: the sweep starts from a state the shot accepted,
        the last stored mesh node at or before (first node past t0) -
        span/_ANCHOR_STEPS, or the mesh's first node (t0, ys[0]) if none
        is.  A grid of more than _ANCHOR_STEPS nodes thus starts at t0,
        and a scalar or band query a little before its first node.  Nodes
        before the start take the pole state (the expansion for balls,
        the initial state for annuli), as the shot does below t0, so the
        pole expansion is read nowhere the shot does not read it.  The
        back-off keeps the shot's own error out of the arrays: started at
        the last mesh node at or before the first node, the flat p = 3
        grid (m = 1, 2) sat 2.8e-12 to 3.0e-12 from a march over 8 times
        the nodes, against 3.8e-15 from t0.  Starting every sweep at t0
        gives the same grids but marches every scalar `evaluate` from the
        start: the 2048 scalar queries of each annulus in
        `test_annulus_grid_matches_scalar_evaluate` took 6.7-9.1 s
        instead of 0.2-0.3 s.

        One stride rule: away from the points below, the sweep takes one
        plain step per stride gaps and fills the nodes inside each step
        from the step's own dense output (`_ode.compile_form`), with
        stride = max(1, floor(span / (2 _ANCHOR_STEPS h))) and h the mean
        spacing of the nodes, (last - first) / (n - 1), but no more than
        the n - 1 gaps of the query.  No strided step
        of a uniform grid is longer than a step of the 2048-node grid,
        whose closed-form agreement is given below.  The stride reads the
        spacing alone, not n_grid (which `--n` sets) nor the node count,
        and it is 1 wherever the spacing exceeds span / 2048: the
        2048-node grid and the 2000- and 4000-node Kazdan grids keep their
        steps and their bits.  The 16384- and 32768-node r* scans take
        stride 7 and 15, the 16385- and 8193-node plane bands 8 and 4,
        and the catenoid bands, whose 4226 to 8553 distinct distances
        crowd toward the neck, 12 to 25.  A stride of
        floor(span / (_ANCHOR_STEPS h)) instead would give the 4000-node
        Kazdan grid stride 3: criterion 13's doubling ratio at p = 3,
        m = 2, c = 1 would move from 0.2499 to 0.2635, and the scans would
        sit up to 8.3e-13 from a march over 8 times the nodes.

        The bands keep the stride.  Criterion 11 takes second differences
        of the 16385-node plane bands: two of its rows rose from 1.55e-8
        and 1.76e-8 to 2.20e-8 and 2.56e-8 (tolerance 1e-6), while the
        maximum it reports, 4.94e-7 on a catenoid band, did not move.

        One step rule: every gap is decided on the length stride gap of
        the step that may cover it.  A gap takes graded steps when that
        length exceeds span / _ANCHOR_STEPS (then ceil(_ANCHOR_STEPS gap /
        span) steps of its own) or 1/ratio of its distance from one of the
        points below; the graded gaps are stepped one by one, without a
        stride.  Decided on the gap alone, the 16384-node scans sat up to
        1.9e-10 from an unstrided march over 8 times the nodes, near the
        pole, against 2.1e-13 (omega' relative to its maximum, p from 2
        to 16, m up to 3, c in {-1, 0, 1}; the unstrided scans read up
        to 5.3e-14).  A query dense in one half of the ball and sparse in
        the other would take steps 32 times the 2048-node grid's in the
        sparse half, 6.9e-12 off the same march stepped node to node:
        deciding on the step length bounds every strided step by span /
        _ANCHOR_STEPS, whatever the nodes.

        The field is not smooth at the pole, where omega - 1 ~
        t^(p/(p-1)) and the weight f^(m-1) vanishes; at both walls, where
        omega vanishes and Phi' ~ |omega|^(p-1), so Phi - Phi(wall) ~ d^p
        at distance d; and at an annulus's interior peak, where Phi
        vanishes and omega' ~ |Phi|^(1/(p-1)), so omega - omega(peak) ~
        d^(p/(p-1)).  `_ode.dp_graded` steps every gap near one of these
        points so that no step is longer than 1/_POLE_RATIO (pole) or
        1/_KINK_RATIO (walls, peak) of its distance from it; the ratios
        were sized against marches with 8 times the steps.

        Its cuts toward a point stop once the piece next to it is no
        longer than span 2^(-53/q), q the point's order (p at a wall,
        p/(p-1) at the pole and the peak): across that piece the part that
        is not smooth changes by less than rounding, and the piece takes
        one step.  Cut to all 40 levels at every p instead (2^-39 of a
        gap, deep enough for a wall at p = 1.05 and a peak at p = 16), the
        grids agree with these to rounding, over p from 1.05 to 16, m up
        to 3 and c in {-1, 0, 1}: a ball's grid moves only at its last
        node, omega by at most 3.7e-16 (at p = 1.05 omega' also moves at
        the nodes next to the pole, where it is below 1e-50, by a few
        units of its own rounding), and on the annulus (0.5, 1.5) omega
        and the flux move by at most 1.3e-14 and 1.2e-14 of their maxima.

        Measured against scipy's
        DOP853 at rtol 1e-13 from the same start, the 2048-node omega' of
        the flat ball, m = 2, p = 1.2 is 1.3e-11 off (3.0e-4 with the
        walls ungraded, 1.0e-8 with a kink ratio of 1), and omega on
        Annulus(0.5, 1), m = 2, c = 0, p = 8 is 1.8e-12 off (4.3e-8
        ungraded).  At p = 2 the flat unit ball's omega matches cos, J0
        and sin(x)/x (m = 1, 2, 3) to 1.9e-15 on 2048 nodes, and for p
        from 2 to 16 the grid's omega and omega' agree with a march over
        8 times the nodes to 1e-14 (omega' relative to its maximum).

        The nodes are cast to Python floats once, on entry, so every
        step state of the sweep is a float: a step on numpy scalars costs
        more than twice a step on floats (13.4-15.4 us against 5.1-5.8
        us, see `_ode`).  The output buffers are Python lists, which
        `run` and the graded gaps fill and the sweep turns into numpy
        arrays once, at its end (see `_ode` for the cost per node).

        Which gaps take graded steps is decided for all nodes at once,
        with numpy, before the sweep.  Each maximal run of plain gaps is
        two calls of the solution's generated `run` (`_make_rhs`): one
        over the most gaps that are a multiple of the stride, one step
        over the rest.  So `run` needs no clamp at the end of a run, and
        with stride 1 it pays only one test of the stride per step.  It
        writes each state into the output buffers; the sweep itself
        visits only the graded and the empty gaps.  An unstrided gap that
        takes a single step and lies near no point is a plain gap:
        `dp_graded` would take exactly that step.  The 2048-node grid of
        the ball timed in `_ode` (c = -1, p = 2.5, m = 2) takes 2337
        steps, 330 of them graded: 72 from t0 to the first node past the
        pole and 89 in the last gap, at the wall.  Cut to all 40 levels,
        it took 2561 steps, 554 graded and 313 in the last gap; the
        annulus (0.5, 1.5), p = 3, m = 2, c = 0 takes 2629 against 3365.
        Alternating with the 40-level cuts in one process (40 rounds each,
        two processes, Python 3.11.7, 2-vCPU x86_64 virtual machine), the
        2048-node marches of the nine m = 2 annuli (0.5, 1.5) of the
        `warped` benchmark took 23.0% and 21.7% less time (medians), and
        those of the 24 `sweep` balls 10.7% and 8.4% less.
        Alternating with the code before the stride in one process (200
        marches each, three processes), the ball grid took 4.78, 3.66 and
        5.74 us per node before the stride and 4.71, 3.69 and 5.78 us with
        it (medians), the new march 1.1-1.6% slower in the median pair.  A
        16385-node band of the radius-1.2 ball (p = 3, c = 0, m = 2,
        stride 8) fell from 2.70, 4.11 and 3.75 us per node to 1.10, 1.60
        and 1.53 us, and a 16384-node scan (p = 3, c = -1, m = 2, stride
        7) from 4.76, 5.01 and 4.89 us to 1.81, 1.89 and 2.02 us (12
        marches each).  Before `run` existed, every plain gap went through
        `dp_graded`: the grid took 4.6-9.8 us per node against 3.3-6.5 us.
        Stepping each plain gap with the generated step from the sweep
        instead, with no `run`, kept every CSV body but was slower:
        `selftest` `wall_ref` 616.4 -> 627.2 (+1.8%, worse in 6 of 6
        alternating pairs), `sweep` 102.9 -> 106.0 (+3.0%, 5 of 6), and
        3-12% more per node in one process.
        """
        tl = ts.tolist()
        n = len(tl)
        if n == 0:
            return np.empty(0), np.empty(0)
        startup, step = self._startup, self._step
        t0, y0 = self._ts[0], self._ys[0]
        span = self.r - self._left
        # Each point carries its order: the part of the field that is not
        # smooth there grows like the distance to the power p at a wall
        # and p / (p - 1) at the pole and the peak.
        wall, peak = self.p, self.p / (self.p - 1.0)
        if startup is not None:
            points = [(self._left, _POLE_RATIO, peak),
                      (self.r, _KINK_RATIO, wall)]
        else:
            points = [(self._left, _KINK_RATIO, wall),
                      (self.r, _KINK_RATIO, wall),
                      (self._t_peak, _KINK_RATIO, peak)]
        k = bisect_right(tl, t0)
        back = tl[k] - span / _ANCHOR_STEPS if k < n else t0
        j = max(bisect_right(self._ts, back) - 1, 0)
        t_march, y = self._ts[j], self._ys[j]
        pre = bisect_left(tl, t_march)
        omega = [0.0] * n
        phi = [0.0] * n
        for i in range(pre):
            omega[i], phi[i] = (startup.state(tl[i]) if startup is not None
                                else y0)

        # One step per stride plain gaps, so that no strided step of a
        # uniform grid is longer than span / (2 _ANCHOR_STEPS), and no
        # step covers more gaps than the query has.
        width = tl[-1] - tl[0]
        stride = (max(1, int(min(n - 1, span / (2 * _ANCHOR_STEPS) / width
                                 * (n - 1))))
                  if width > 0.0 else 1)

        # Every gap is decided before the sweep, on the length stride gap
        # of the step that may cover it.  The gap before node t starts at
        # t_prev = max(march start, previous node).  Code 2: graded steps,
        # near a point s with q stride gap > max(s - t, t_prev - s), or
        # where stride gap exceeds span / _ANCHOR_STEPS; code 1: a plain
        # gap, stepped by `run` (with nsub = 1 and no point near,
        # dp_graded would take exactly the step of an unstrided gap);
        # code 0: none, the gap is empty (a duplicate node, or a node at
        # the start).
        tn = ts[pre:]
        t_prev = np.concatenate(([t_march], tn))[:-1]
        gap = tn - t_prev
        reach = stride * gap
        hits = [ratio * reach > np.maximum(s - tn, t_prev - s)
                for s, ratio, _ in points]
        flagged = np.logical_or.reduce(hits)
        split = _ANCHOR_STEPS * reach / span > 1.0
        codes = (gap > 0.0) * (1 + (flagged | split))
        near = {pre + j: [pt for pt, hit in zip(points, hits) if hit[j]]
                for j in np.flatnonzero(flagged).tolist()}

        # Each maximal run of code-1 gaps is one call of `run` over the
        # most gaps that are a multiple of stride, and one more call that
        # takes the rest in a single step; the sweep visits only the
        # other nodes.
        graded, run = _ode.dp_graded, self._run
        u, v = y
        ku, kv = self._rhs(t_march, u, v)
        i = pre
        for j in (np.flatnonzero(codes != 1) + pre).tolist() + [n]:
            tail = i + (j - i) // stride * stride
            if i < tail:
                t_march, u, v, ku, kv = run(t_march, u, v, ku, kv, tl, i,
                                            tail, stride, omega, phi)
            if tail < j:
                t_march, u, v, ku, kv = run(t_march, u, v, ku, kv, tl,
                                            tail, j, j - tail, omega, phi)
            if j == n:
                break
            t = tl[j]
            if codes[j - pre]:
                nsub = int(math.ceil(_ANCHOR_STEPS * (t - t_march) / span))
                (u, v), (ku, kv) = graded(step, t_march, (u, v), (ku, kv), t,
                                          nsub, near.get(j, []), span)
            t_march = t
            omega[j] = u
            phi[j] = v
            i = j + 1
        omega = np.array(omega, float)
        phi = np.array(phi, float)
        omega *= self._scale
        phi *= self._scale ** (self.p - 1.0)
        return omega, phi

    def evaluate(self, t):
        """Dense (omega, omega') at scalar or array t inside the domain.

        Every query is one march: the nodes are sorted (stably), swept by
        `_march`, converted from flux to omega' and returned in the input
        order and shape; a scalar comes back as a pair of floats.
        """
        tt = np.asarray(t, dtype=float)
        flat = tt.ravel()
        order = np.argsort(flat, kind="stable")
        ts = flat[order]
        w_sorted, phi = self._march(ts)
        w = np.empty(flat.size)
        wp = np.empty(flat.size)
        w[order] = w_sorted
        wp[order] = _omega_prime(self.problem, ts, phi)
        if tt.ndim == 0:
            return float(w[0]), float(wp[0])
        return w.reshape(tt.shape), wp.reshape(tt.shape)

    def __repr__(self):
        return ("RadialSolution(p=%g, m=%d, %s, lam=%.12g, iterations=%d)"
                % (self.p, self.m, self.problem.domain, self.lam,
                   self.iterations))


def _barta_seed(problem):
    """Positive lower seed for bracketing, from an explicit test profile.

    Balls use eta = 1 - (t/r)^beta, whose Barta ratio has a finite positive
    pole limit for every p; annuli fall back to a 1-d string estimate
    rescaled by the weight spread.  Either way the caller halves the seed
    and keeps halving while a zero still appears, so the seed only needs
    to be a sane order of magnitude.
    """
    p, m = problem.p, problem.m
    d = problem.domain
    if d.kind == "annulus":
        fm = problem.weight(np.linspace(d.left, d.right, 257))
        lo, hi = float(np.min(fm)), float(np.max(fm))
        base = (p - 1.0) * (pi_p(p) / (d.right - d.left)) ** p
        return base * (lo / hi if hi > 0 else 1.0)
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


def _solve(problem, tol):
    """(lam, ts, ys, steps) for the zero-free end of the final bracket.

    steps counts the Brent steps after the bracketing shots.  A
    NonConvergenceError (IntegrationError included) leaves with the
    problem and the tightest bracket shot so far appended to its message.
    """
    shots = {}

    def miss(lam):
        if lam not in shots:
            shots[lam] = _shoot(problem, lam)
        return shots[lam][2]

    try:
        lam_lo = 0.5 * _barta_seed(problem)
        for _ in range(80):
            if miss(lam_lo) > 0.0:
                break
            lam_lo *= 0.5
        else:
            raise NonConvergenceError("could not find a zero-free lower lam")
        lam_hi = lam_lo
        for _ in range(60):
            lam_hi *= 2.0
            if miss(lam_hi) <= 0.0:
                break
        else:
            raise NonConvergenceError("no omega zero after 60 doublings of lam")
        lam, other, steps = _ode.brent(miss, lam_lo, lam_hi, xtol=0.0,
                                       rtol=tol)
    except NonConvergenceError as exc:
        free = max((x for x in shots if miss(x) > 0.0), default=None)
        hit = min((x for x in shots if miss(x) <= 0.0), default=None)
        raise type(exc)("%s (p=%g, m=%d, %r, profile %s, lam bracket "
                        "[%r, %r])" % (exc, problem.p, problem.m,
                                       problem.domain, problem.profile.label,
                                       free, hit)) from exc
    if miss(lam) <= 0.0:
        lam = other
    ts, ys = shots[lam][:2]
    return lam, ts, ys, steps


# Solutions by (problem parameters, tol, n_grid), and the shot result
# (lam, mesh, Brent steps) they are built from by (problem parameters,
# tol): a solve that differs only in n_grid marches its grid from the
# cached mesh and takes no shot.
_SOLVE_CACHE = {}
_SHOT_CACHE = {}
_MIN_GRID = 5   # the residual audit's five-point stencil


def clear_solver_cache():
    """Drop memoized eigensolves and their shot results (used by
    determinism checks)."""
    _SOLVE_CACHE.clear()
    _SHOT_CACHE.clear()


def _solve_memoized(problem, kind, tol, n_grid, use_cache):
    """The body of both solve functions, for a domain of the given kind.

    Checks the domain kind, n_grid and tol, returns the cached solution
    of (problem parameters, tol, n_grid) if there is one, and otherwise
    builds one from the cached shot result of (problem parameters, tol),
    solving for it if there is none, and stores both.
    """
    if problem.domain.kind != kind:
        raise ValueError("solve_%s_eigenvalue needs a domain of kind %r, "
                         "got %r" % (kind, kind, problem.domain))
    if int(n_grid) != n_grid or n_grid < _MIN_GRID:
        raise ValueError("grid size n=%r: the dense grid needs an integer "
                         "n >= %d" % (n_grid, _MIN_GRID))
    # Brent cannot close a bracket narrower than one ulp of lam.
    if not sys.float_info.epsilon <= tol < 1.0:
        raise ValueError("tol=%r: the relative bracket width needs "
                         "2**-52 <= tol < 1" % (tol,))
    if not use_cache:
        return RadialSolution(problem, *_solve(problem, tol), n_grid)
    key = problem.cache_key(tol)
    sol = _SOLVE_CACHE.get((key, n_grid))
    if sol is None:
        if key not in _SHOT_CACHE:
            _SHOT_CACHE[key] = _solve(problem, tol)
        sol = RadialSolution(problem, *_SHOT_CACHE[key], n_grid)
        _SOLVE_CACHE[key, n_grid] = sol
    return sol


def solve_ball_eigenvalue(problem, tol=_DEFAULT_TOL, n_grid=_DEFAULT_GRID,
                          use_cache=True):
    """First Dirichlet p-eigenvalue of a ball, to relative accuracy tol.

    Returns a RadialSolution whose omega is positive on [0, r), decreasing,
    and vanishes at r up to the eigenvalue tolerance.  Results are
    memoized on (problem parameters, tol, n_grid), and the shot result on
    (problem parameters, tol), so another n_grid takes no shot; solves
    are pure, so the caches are transparent.
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
