"""Eigenvalue bounds and certificates for radial p-Laplacians.

Lower bounds come from three routes, each returning a BoundCertificate;
the differenced routes take their infimum only over an interior window,
so a bound is never quietly extrapolated into regions where finite
differences are unreliable:

  * Barta: lambda >= inf over positive test fields eta of the ratio
    -Delta_p eta / eta^(p-1), sharp exactly at the eigenfunction.
  * Divergence fields: lambda >= inf of (1-p)|X|^q + div X for any
    radial field X, with q = p/(p-1); the optimizer is the logarithmic
    gradient field of the eigenfunction.
  * The closed-form barrier ((m-2) cot_c(r) - h)^p / p^p for immersions
    with bounded mean curvature h.

The ratio -Delta_p eta / eta^(p-1) amplifies finite-difference noise
like h^2 / eta^(p-1) near a Dirichlet endpoint and like derivatives of
1/omega powers for the divergence identity, so every certificate here
evaluates on an explicit interior window (relative floor on eta, a pole
guard, and trimmed boundary layers) chosen so the stencil error stays
below the certificate tolerances.

The Kazdan transform v = -log(phi) and its source Psi = Delta_p v
- (p-1)|v'|^p live here too: for phi the eigenfunction, Psi is
identically lambda, which gives a derivative-free consistency check on
any eigenpair.
"""

import numpy as np

from .modelspace import cot_c
from .radial import signed_power
from .rayleigh import p_energy

BARTA_ETA_FLOOR = 0.05      # keep nodes with eta >= floor * max eta
BARTA_POLE_FRAC = 0.02      # drop ball nodes with t < frac * r
BOUNDARY_LAYERS = 2         # stencil cells trimmed at each kept end
DIV_OMEGA_FLOOR = 0.25      # eigen_field keeps omega >= floor * max


class RadialField:
    """A radial vector field t -> X(t) d/dt sampled on increasing nodes."""

    def __init__(self, nodes, values):
        self.nodes = np.asarray(nodes, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.nodes.shape != self.values.shape or self.nodes.ndim != 1:
            raise ValueError("nodes and values must be 1-d of equal length")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")


class BoundCertificate:
    """A certified one-sided bound; data holds route-specific details."""

    def __init__(self, kind, value, vacuous=False, data=None):
        self.kind = kind
        self.value = float(value)
        self.vacuous = bool(vacuous)
        self.data = dict(data or {})


def discrete_plap_radial(eta, problem, nodes):
    """Staggered-difference Delta_p eta at interior nodes (index 1..n-2).

    The flux f^{m-1}|eta'|^{p-2} eta' is formed at cell midpoints with the
    weight evaluated there exactly, then differenced back to nodes; both
    stages are second-order on uniform grids.
    """
    vals = np.asarray(eta, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    if vals.shape != nodes.shape:
        raise ValueError("eta and nodes must have equal length")
    h = np.diff(nodes)
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    wmid = problem.weight(mid)
    flux = wmid * signed_power(np.diff(vals) / h, problem.p - 1.0)
    wnode = problem.weight(nodes[1:-1])
    hc = 0.5 * (h[:-1] + h[1:])
    return np.diff(flux) / (hc * wnode)


def _window(keep, t, problem):
    """Indices where keep holds, without ball nodes t < BARTA_POLE_FRAC r,
    and with BOUNDARY_LAYERS trimmed at each end."""
    if problem.domain.kind == "ball":
        keep = keep & (t >= BARTA_POLE_FRAC * problem.domain.r)
    idx = np.flatnonzero(keep)
    if idx.size <= 2 * BOUNDARY_LAYERS:
        raise ValueError("evaluation window is empty")
    return idx[BOUNDARY_LAYERS:idx.size - BOUNDARY_LAYERS]


def barta_bound(eta, problem):
    """Lower bound inf(-Delta_p eta / eta^(p-1)) over a positive field.

    eta is sampled on the uniform grid of its size over the domain's
    [left, right], the grid of a solution of that size.  It must be
    positive on interior nodes and vanish at Dirichlet endpoints; the
    infimum is taken over the windowed interior where the staggered
    stencil meets its accuracy budget.
    """
    vals = np.asarray(eta, dtype=float)
    d = problem.domain
    nodes = np.linspace(d.left, d.right, vals.size)
    if np.any(vals[1:-1] <= 0):
        raise ValueError("eta must be positive on interior nodes")
    plap = discrete_plap_radial(vals, problem, nodes)
    keep = vals[1:-1] >= BARTA_ETA_FLOOR * float(np.max(np.abs(vals)))
    idx = _window(keep, nodes[1:-1], problem)
    ratio = -plap[idx] / vals[1:-1][idx] ** (problem.p - 1.0)
    return BoundCertificate(kind="barta", value=float(np.min(ratio)),
                            data={"n_evaluated": int(idx.size)})


def picone_defect(u, grad_u, v, grad_v, p):
    """Pointwise Picone expression; nonnegative, zero iff u is a multiple of v.

    All four arguments are sampled values of nonnegative u, positive v and
    their (signed, radial) gradients at common points.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    gu = np.asarray(grad_u, dtype=float)
    gv = np.asarray(grad_v, dtype=float)
    if np.any(v <= 0):
        raise ValueError("v must be positive")
    if np.any(u < 0):
        raise ValueError("u must be nonnegative")
    w = u / v
    return (np.abs(gu) ** p + (p - 1.0) * w ** p * np.abs(gv) ** p
            - p * w ** (p - 1.0) * signed_power(gv, p - 1.0) * gu)


def eigen_field(solution):
    """The optimal divergence field X = -|omega'|^{p-2} omega' / omega^{p-1}.

    Restricted to nodes where omega >= DIV_OMEGA_FLOOR * max omega: past
    that the field blows up like omega^{1-p} toward the Dirichlet endpoint
    and certifies nothing that the kept window does not already certify.
    """
    p = solution.problem.p
    om, dom = solution.omega, solution.omega_prime
    keep = om >= DIV_OMEGA_FLOOR * float(np.max(om))
    idx = np.flatnonzero(keep)
    i0, i1 = int(idx[0]), int(idx[-1])
    if i1 - i0 + 1 != idx.size:
        raise ValueError("omega window is not contiguous")
    sl = slice(i0, i1 + 1)
    x = -signed_power(dom[sl], p - 1.0) / om[sl] ** (p - 1.0)
    return RadialField(solution.grid[sl], x)


def div_radial(field, problem):
    """(f^{m-1} X)' / f^{m-1} on nodes 2..n-3 of the field's uniform grid,
    by the five-point centered stencil."""
    t = field.nodes
    h = np.diff(t)
    if not np.allclose(h, h[0], rtol=1e-9):
        raise ValueError("div_radial needs a uniform grid")
    h = float(h[0])
    g = problem.weight(t) * field.values
    d = (g[:-4] - 8 * g[1:-3] + 8 * g[3:-1] - g[4:]) / (12 * h)
    return d / problem.weight(t[2:-2])


def _field_expression(field, problem):
    """(1-p)|X|^q + div X, q = p/(p-1), on the window of nodes 2..n-3."""
    dv = div_radial(field, problem)
    idx = _window(np.ones(dv.size, dtype=bool), field.nodes[2:-2], problem)
    return ((1.0 - problem.p) * np.abs(field.values[2:-2][idx]) ** problem.q
            + dv[idx])


def div_field_bound(field, problem):
    """Lower bound inf over the window of (1-p)|X|^q + div X, q = p/(p-1).

    Any radial field gives a valid lower bound; the eigen_field makes it
    sharp (the expression is then identically lambda).
    """
    expr = _field_expression(field, problem)
    return BoundCertificate(
        kind="div-field", value=float(np.min(expr)),
        data={"q": problem.q, "n_evaluated": int(expr.size)})


def div_identity_residual(solution):
    """sup |((1-p)|X|^q + div X) - lambda| / lambda for the eigen field.

    The continuum identity says the expression is exactly lambda; the
    residual measures stencil error over the certificate window.
    """
    expr = _field_expression(eigen_field(solution), solution.problem)
    return float(np.max(np.abs(expr - solution.lam)) / solution.lam)


def theorem17_bound(m, p, c, r, h=0.0):
    """Closed-form barrier ((m-2) cot_c(r) - h)^p / p^p.

    Valid for immersed domains inside a ball of radius r in the curvature-c
    model when the mean curvature is bounded by h; vacuous (value 0) when
    the barrier base is nonpositive.
    """
    if m < 2:
        raise ValueError("needs ambient dimension m >= 2")
    base = (m - 2) * cot_c(float(c), float(r)) - float(h)
    vacuous = base <= 0.0
    value = 0.0 if vacuous else (base / p) ** p
    return BoundCertificate(kind="cotangent-barrier", value=value,
                            vacuous=vacuous, data={"base": base})


def transplant_barta_certificate(flat_solution, problem):
    """Barta certificate for the flat eigenfunction transplanted radially.

    For eta = omega_flat(t) on a warped ball of the same radius, the ratio
    -Delta_p eta / eta^(p-1) has the closed form

        lambda_flat + (m-1) (f'/f - 1/t) |eta'|^{p-1} / eta^{p-1},

    exact because eta satisfies the flat radial equation: no differencing
    enters, so the certificate resolves the equality case f = t to machine
    precision.  The correction term is nonnegative exactly when f is at
    least as spread as the flat profile (f'/f >= 1/t, e.g. f convex).
    """
    fp = flat_solution.problem
    if problem.domain.kind != "ball" or fp.domain.kind != "ball":
        raise ValueError("transplant certificates are for balls")
    if problem.domain.r != fp.domain.r or problem.m != fp.m \
            or problem.p != fp.p:
        raise ValueError("flat solution and target problem must share "
                         "p, m and radius")
    if fp.profile.kind != "spaceform" or fp.profile.c != 0.0:
        raise ValueError("flat_solution must be on the c=0 model")
    p, m, lam = fp.p, fp.m, flat_solution.lam
    om, dom, t = flat_solution.omega, flat_solution.omega_prime, \
        flat_solution.grid
    keep = (om >= 1e-6 * float(np.max(om))) & (t > 0)
    idx = np.flatnonzero(keep)
    t_k = t[idx]
    f, fprime, _ = problem.profile.eval(t_k)
    margin = (m - 1) * (fprime / f - 1.0 / t_k) \
        * np.abs(dom[idx]) ** (p - 1.0) / om[idx] ** (p - 1.0)
    values = lam + margin
    k = int(np.argmin(values))
    return BoundCertificate(
        kind="transplant-barta", value=float(values[k]),
        data={"lambda_flat": lam, "min_margin": float(margin[k]),
              "argmin_t": float(t_k[k])})


def stability_functional(u, potential, grid, p):
    """Q_p(u) = p-energy - sum w V |u|^p h over the grid quadrature."""
    vals = np.asarray(u, dtype=float)
    pot = np.broadcast_to(np.asarray(potential, dtype=float), vals.shape)
    mass = float(np.sum(grid.weight * pot * np.abs(vals) ** p
                        * grid.duals))
    return p_energy(vals, grid, p) - mass


def stability_criterion_immersion(sup_A_p, k, p, lambda_model):
    """Stability test sup ||A||^p <= k^{p-2} lambda_model.

    k is the infimum of cos(angle between the radial direction and the
    tangent plane) over the band; at p = 2 the k factor drops out, so k=0
    is accepted there, while for p > 2 a zero k makes the test vacuous
    (threshold 0).
    """
    if not 0.0 <= k <= 1.0:
        raise ValueError("k must lie in [0, 1]")
    if sup_A_p < 0:
        raise ValueError("sup ||A||^p must be nonnegative")
    threshold = lambda_model if p == 2.0 else k ** (p - 2.0) * lambda_model
    return bool(sup_A_p <= threshold)


def meancurv_threshold(m, p, r):
    """Mean-curvature stability threshold (m-1)/(p r)."""
    return (m - 1) / (p * float(r))


def stability_criterion_meancurv(A_sup, m, p, r):
    """Stability test sup ||A|| <= (m-1)/(p r) for minimal bands in a ball."""
    if A_sup < 0:
        raise ValueError("sup ||A|| must be nonnegative")
    return bool(A_sup <= meancurv_threshold(m, p, r))


def kazdan_transform(phi):
    """v = -log(phi); phi must be strictly positive on the given nodes."""
    vals = np.asarray(phi, dtype=float)
    if np.any(vals <= 0):
        raise ValueError("phi must be positive away from the boundary")
    return -np.log(vals)


def kazdan_source(v, problem, nodes):
    """Psi = Delta_p v - (p-1)|v'|^p at interior nodes (index 1..n-2).

    For v = -log(eigenfunction), Psi equals lambda identically, boundary
    blow-up notwithstanding; the caller restricts nodes to an interior
    window where v is finite.
    """
    vals = np.asarray(v, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    plap = discrete_plap_radial(vals, problem, nodes)
    h = np.diff(nodes)
    grad = (vals[2:] - vals[:-2]) / (h[:-1] + h[1:])
    return plap - (problem.p - 1.0) * np.abs(grad) ** problem.p
