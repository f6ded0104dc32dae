"""Rotationally symmetric minimal surfaces and transplanted eigenfunctions.

The catalog holds two surfaces of revolution in flat 3-space, each
parametrized by meridian arclength s: the plane through the origin
(rho = s, z = 0) and the unit catenoid (rho = sqrt(1+s^2),
z = arcsinh s).  Both are minimal and both admit closed forms for every
geometric ingredient -- profile derivatives, second fundamental form,
ambient distance t(s) from the origin, and the angle alpha between the
ambient radial direction and the tangent plane -- so every routine here
can be checked against an independent oracle.

A band is a connected component of {t < r}.  Composing the flat
two-dimensional model eigenfunction omega with t transplants it onto the
band, psi = omega o t, and the p-Laplacian of psi can be assembled by two
independent routes:

* ``plap_intrinsic``: staggered centered differences of the intrinsic
  one-dimensional operator rho^{-1} (rho |psi'|^{p-2} psi')'.
* ``plap_jk``: exact pointwise assembly through the Jorge--Koutrofiotis
  decomposition.  In flat space Hess t = (g - dt tensor dt)/t exactly, so
  with minimality the surface Laplacian of psi collapses to
  omega'' cos^2(alpha) + omega' (1 + sin^2(alpha))/t, and omega'' is
  eliminated through the radial eigenvalue equation.  No differencing
  enters, which makes the route a certificate rather than an estimate.

Agreement of the two routes validates the decomposition; the pointwise
comparison -Delta_p psi / (psi^{p-1} cos^{p-2} alpha) >= lambda is then
checked on the band (``modelcontrol_check``), and ``band_report``
assembles the spectral and stability verdicts for the CSV interface.
"""

import math

import numpy as np

from . import _ode, rayleigh
from .bounds import (meancurv_threshold, stability_criterion_immersion,
                     stability_criterion_meancurv)
from .radial import ball_problem, signed_power, solve_ball_eigenvalue

__all__ = [
    "RotSurface", "SurfaceBand", "Transplant", "get_surface",
    "extrinsic_distance", "angle_cos", "shape_operator_numeric",
    "transplant", "plap_intrinsic", "plap_jk", "route_agreement",
    "modelcontrol_check", "BandReport", "band_report",
]

#: angle cutoff below which the comparison quotient is not evaluated
#: (the derivation divides by cos^{p-2} alpha).
COS_ALPHA_FLOOR = 1e-3
#: eigenfunction cutoff below which the comparison quotient is not
#: evaluated (the derivation divides by psi^{p-1}).
PSI_FLOOR = 1e-6
#: meridian sample count for transplants.
TRANSPLANT_GRID = 8193
#: meridian sample count of the transplant shared by the two routes in
#: ``route_agreement``.
ROUTE_GRID = 16385
#: ``route_agreement`` skips nodes with |psi'| below this fraction of its
#: maximum (degenerate flux at the catenoid's neck) ...
ROUTE_GRAD_FLOOR = 1e-2
#: ... and nodes with rho below this fraction of its maximum (the
#: intrinsic operator divides by rho).
ROUTE_RHO_FLOOR = 0.1
#: meridian sample count of a band's Rayleigh grid.
RAYLEIGH_GRID = 2000


class RotSurface:
    """Surface of revolution about the z-axis, meridian by arclength.

    kind "plane": rho(s) = s, z = 0, meridian s >= 0 with the pole at
    s = 0.  kind "catenoid": rho(s) = sqrt(1+s^2), z(s) = arcsinh(s),
    the unit catenoid with its neck circle at s = 0 and s running over
    all of R.  The induced metric is ds^2 + rho(s)^2 dtheta^2.
    """

    def __init__(self, kind):
        kind = str(kind).lower()
        if kind not in ("plane", "catenoid"):
            raise ValueError("unknown surface kind %r" % (kind,))
        self.kind = kind

    def profile(self, s):
        """(rho, rho', rho'', z', z'') at scalar or array s."""
        s = np.asarray(s, dtype=float)
        if self.kind == "plane":
            one = np.ones(s.shape)
            zero = np.zeros(s.shape)
            return s + 0.0, one, zero, zero, zero
        w = 1.0 + s * s
        rho = np.sqrt(w)
        return rho, s / rho, 1.0 / (rho * w), 1.0 / rho, -s / (rho * w)

    def embedding(self, s, theta=0.0):
        """Ambient position (x, y, z) at meridian point s, longitude theta."""
        s = np.asarray(s, dtype=float)
        rho = self.profile(s)[0]
        z = np.arcsinh(s) if self.kind == "catenoid" else np.zeros(s.shape)
        return rho * math.cos(theta), rho * math.sin(theta), z + 0.0

    def principal_curvatures(self, s):
        """Normal curvatures (meridian, parallel) at s."""
        rho, rho_p, rho_pp, z_p, z_pp = self.profile(s)
        k_mer = rho_p * z_pp - z_p * rho_pp
        with np.errstate(divide="ignore", invalid="ignore"):
            k_par = np.where(rho > 0.0, z_p / np.where(rho > 0.0, rho, 1.0),
                             0.0)
        return k_mer, k_par

    def mean_curvature(self, s):
        """Trace of the shape operator; identically zero on the catalog."""
        k_mer, k_par = self.principal_curvatures(s)
        return k_mer + k_par

    def second_form_norm(self, s):
        """Frobenius norm of the second fundamental form.

        Closed forms: 0 on the plane, sqrt(2)/(1+s^2) on the catenoid;
        ``shape_operator_numeric`` provides the independent check.
        """
        k_mer, k_par = self.principal_curvatures(s)
        return np.hypot(k_mer, k_par)

    def __repr__(self):
        return "RotSurface(%r)" % self.kind


_CATALOG = {"plane": RotSurface("plane"), "catenoid": RotSurface("catenoid")}


def get_surface(name):
    """Catalog lookup by kind name ("plane" or "catenoid")."""
    try:
        return _CATALOG[str(name).lower()]
    except KeyError:
        raise ValueError("unknown surface kind %r" % (name,))


def shape_operator_numeric(surface, s):
    """Principal curvatures by differencing the embedding; oracle route.

    Fourth-order five-point second differences of X(s, theta) in each
    coordinate, with step h = 1e-3, are projected on the unit normal;
    the parallel curvature divides by the metric coefficient rho^2.
    Truncation is O(h^4), so the step resolves curvatures to ~1e-10 and
    the trace test |k_mer + k_par| <= 1e-9 is meaningful.
    """
    s = float(s)
    h = 1e-3
    stencil = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    offs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h

    rho, rho_p, _, z_p, _ = (float(v) for v in surface.profile(s))
    # unit normal at theta = 0 in the (x, z) meridian plane
    n_x, n_z = -z_p, rho_p

    xs = np.array([surface.embedding(s + o)[0] for o in offs])
    zs = np.array([surface.embedding(s + o)[2] for o in offs])
    k_mer = float(stencil @ xs) * n_x + float(stencil @ zs) * n_z

    x_tt = float(stencil @ np.array(
        [surface.embedding(s, theta=o)[0] for o in offs]))
    if rho <= 0.0:
        raise ValueError("parallel curvature undefined on the axis")
    k_par = x_tt * n_x / (rho * rho)
    return k_mer, k_par


# -- ambient distance and angle -----------------------------------------


def extrinsic_distance(surface, s):
    """Ambient distance t(s) = |X(s)| from the origin."""
    s = np.asarray(s, dtype=float)
    if surface.kind == "plane":
        return np.abs(s)
    return np.sqrt(1.0 + s * s + np.arcsinh(s) ** 2)


def _distance_derivs(surface, s):
    """(t, t', t'') of the ambient distance along the meridian.

    On the plane the one-sided derivative at the pole is used (t' = 1
    for s >= 0).  On the catenoid t t' = s + z z' gives
    t'' = (1 + z'^2 + z z'' - t'^2)/t; at the neck t''(0) = 2.
    """
    s = np.asarray(s, dtype=float)
    if surface.kind == "plane":
        t = np.abs(s)
        tp = np.where(s < 0.0, -1.0, 1.0)
        return t, tp, np.zeros(s.shape)
    t = extrinsic_distance(surface, s)
    z = np.arcsinh(s)
    w = 1.0 + s * s
    g = s + z / np.sqrt(w)              # = t t'
    gp = 1.0 + 1.0 / w - s * z / w ** 1.5
    tp = g / t
    return t, tp, (gp - tp * tp) / t


def angle_cos(surface, s):
    """cos(alpha) = |dt/ds|, the tangential share of the radial direction.

    The plane's pole is excluded (t is not differentiable there): any
    s = 0 input raises.  On the catenoid the neck circle gives 0.
    """
    s = np.asarray(s, dtype=float)
    if surface.kind == "plane" and np.any(s == 0.0):
        raise ValueError("angle undefined at the plane's pole")
    val = np.abs(_distance_derivs(surface, s)[1])
    return float(val) if np.ndim(s) == 0 else val


# -- bands and transplants ------------------------------------------------


class SurfaceBand:
    """Connected meridian band {t < r} with its angle infimum.

    Endpoints at extrinsic distance r are located to 1e-10; the plane's
    left endpoint is the pole itself (t = 0), not a boundary point.  k
    is the infimum of cos(alpha) over the band: 1 on any punctured plane
    band, 0 on any catenoid band (the neck circle is critical for t).
    """

    def __init__(self, surface, r, s_range, k):
        self.surface = surface
        self.r = float(r)
        self.s_range = (float(s_range[0]), float(s_range[1]))
        self.k = float(k)
        if not 0.0 <= self.k <= 1.0:
            raise ValueError("k must lie in [0, 1]")
        for s_end in self.s_range:
            t_end = float(extrinsic_distance(surface, s_end))
            if t_end > 0.0 and abs(t_end - self.r) > 1e-10:
                raise ValueError("band endpoint off the sphere t = r")

    @classmethod
    def from_radius(cls, surface, r):
        """The band around the surface's center for ambient radius r."""
        r = float(r)
        if surface.kind == "plane":
            if r <= 0.0:
                raise ValueError("plane bands require r > 0")
            return cls(surface, r, (0.0, r), 1.0)
        if r <= 1.0:
            raise ValueError(
                "catenoid bands require r > 1 (the neck sits at t = 1)")
        s_max = _ode.brent(
            lambda s: float(extrinsic_distance(surface, s)) - r,
            0.0, r, xtol=1e-14, rtol=8.9e-16)[0]
        return cls(surface, r, (-s_max, s_max), 0.0)

    def nodes(self, n):
        """Uniform meridian grid of n nodes over the band closure."""
        return np.linspace(self.s_range[0], self.s_range[1], int(n))

    def __repr__(self):
        return ("SurfaceBand(%s, r=%g, s=[%g, %g], k=%g)"
                % (self.surface.kind, self.r, self.s_range[0],
                   self.s_range[1], self.k))


class Transplant:
    """psi = omega o t sampled on a uniform meridian grid of a band.

    Carries the geometry needed by both p-Laplacian routes: the distance
    derivatives t', t'', the profile rho, rho', cos(alpha) = |t'| and the
    composed omega, omega' from the model solution.  grad holds the
    intrinsic gradient norm |psi'| = |omega'| cos(alpha).
    """

    def __init__(self, band, solution, s, t, omega, omega_prime):
        self.band = band
        self.solution = solution
        self.s = s
        self.t = t
        self.omega = omega
        self.omega_prime = omega_prime
        surface = band.surface
        self.rho, self.rho_prime = surface.profile(s)[:2]
        _, self.t_prime, self.t_second = _distance_derivs(surface, s)
        self.cos_alpha = np.abs(self.t_prime)
        self.psi = omega
        self.grad = np.abs(omega_prime) * self.cos_alpha

    @property
    def n(self):
        return self.s.size

    def __repr__(self):
        return ("Transplant(%s, p=%g, r=%g, n=%d)"
                % (self.band.surface.kind, self.solution.p, self.band.r,
                   self.n))


def transplant(solution, surface, band=None, n=TRANSPLANT_GRID):
    """Compose the flat planar model eigenfunction with the distance.

    solution must be a flat (c = 0) ball solution with m = 2 whose radius
    equals the band radius; the returned ``Transplant`` vanishes at the
    band endpoints to the shooting accuracy (|psi| <= 1e-12 for p = 2,
    3, 4 at r = 1.2).  Catenoid bands are even in s, so omega is
    evaluated once per distinct distance value.
    """
    prof = solution.profile
    if solution.m != 2 or prof.kind != "spaceform" or prof.c != 0.0:
        raise ValueError("transplant needs the flat planar model solution")
    if solution.problem.domain.kind != "ball":
        raise ValueError("transplant needs a ball solution")
    if band is None:
        band = SurfaceBand.from_radius(surface, solution.r)
    elif band.surface is not surface:
        raise ValueError("band does not belong to the given surface")
    if abs(band.r - solution.r) > 1e-12 * solution.r:
        raise ValueError("band radius does not match the solution radius")

    s = band.nodes(n)
    t = np.asarray(extrinsic_distance(surface, s))
    if np.any(t > solution.r * (1.0 + 1e-10)):
        raise ValueError("band contains points beyond the model radius")
    t = np.minimum(t, solution.r)

    t_unique, inverse = np.unique(t, return_inverse=True)
    w_u, wp_u = solution.evaluate(t_unique)
    return Transplant(band, solution, s, t, w_u[inverse], wp_u[inverse])


# -- the two p-Laplacian routes -------------------------------------------


def _psi_values(psi):
    if isinstance(psi, Transplant):
        return psi.psi
    return np.asarray(psi, dtype=float)


def plap_intrinsic(psi, p, band):
    """Delta_p psi by staggered differences of the intrinsic operator.

    psi is a ``Transplant`` or an array sampled on the band's uniform
    meridian grid, and rho is the profile of the band's surface; returns
    rho^{-1} (rho |psi'|^{p-2} psi')' at interior nodes (index 1..n-2)
    with midpoint fluxes, second order where the flux is smooth.
    """
    vals = _psi_values(psi)
    surface = band.surface
    s = band.nodes(vals.size)
    h = s[1] - s[0]
    d_mid = np.diff(vals) / h
    rho_mid = surface.profile(s[:-1] + 0.5 * h)[0]
    flux = rho_mid * signed_power(d_mid, p - 1.0)
    rho_nodes = surface.profile(s)[0]
    return np.diff(flux) / (h * rho_nodes[1:-1])


def plap_jk(psi):
    """Delta_p psi by the Jorge--Koutrofiotis decomposition; exact route.

    Assembles |grad psi|^{p-2} Delta psi
    + (p-2) |grad psi|^{p-4} Hess psi(grad psi, grad psi) with

        Delta psi = omega'' cos^2(alpha) + omega' sin^2(alpha)/t
                    + omega' Hess t(e2, e2),

    where e2 is the longitude direction and, the ambient Hessian of the
    distance being (g - dt tensor dt)/t in flat space, Hess t(e2, e2)
    = (1 - <e2, d/dt>^2)/t.  The position vector of a surface of
    revolution about an axis through the origin has no longitude
    component, so <e2, d/dt> = 0 identically.  omega'' is eliminated by
    the radial eigenvalue equation of the model, so the output involves
    no differencing.  Nodes with |grad psi| = 0 (the plane's pole, the
    catenoid's neck) are excluded and carry NaN.

    psi must be a ``Transplant``: the route needs omega' and the model
    eigenvalue, not just the sampled values.  p is the model solution's.
    """
    if not isinstance(psi, Transplant):
        raise TypeError("plap_jk needs a Transplant")
    sol = psi.solution
    p = sol.p

    t, om, om_p = psi.t, psi.omega, psi.omega_prime
    cos_a, tp, tpp = psi.cos_alpha, psi.t_prime, psi.t_second
    lam = sol.lam

    out = np.full(t.shape, np.nan)
    ok = (psi.grad > 0.0) & (t > 0.0)
    t, om, om_p = t[ok], om[ok], om_p[ok]
    cos_a, tp, tpp = cos_a[ok], tp[ok], tpp[ok]

    # omega'' from (p-1)|w'|^{p-2} w'' + (1/t)|w'|^{p-2} w' = -lam w^{p-1}
    flux_p = signed_power(om_p, p - 1.0)
    om_pp = (-(flux_p / t + lam * signed_power(om, p - 1.0))
             / ((p - 1.0) * np.abs(om_p) ** (p - 2.0)))

    proj_theta = 0.0                       # <e2, d/dt> for these surfaces
    hess_t_22 = (1.0 - proj_theta ** 2) / t
    lap_psi = (om_pp * cos_a ** 2 + om_p * (1.0 - cos_a ** 2) / t
               + om_p * hess_t_22)
    psi_ss = om_pp * tp ** 2 + om_p * tpp  # Hess psi on the meridian
    grad = np.abs(om_p) * cos_a
    out[ok] = grad ** (p - 2.0) * (lap_psi + (p - 2.0) * psi_ss)
    return out


def route_agreement(surface, p, r):
    """Scaled sup distance between the two Delta_p psi assemblies.

    Cross-validates ``plap_jk`` against ``plap_intrinsic`` on a shared
    transplant of ROUTE_GRID nodes.  The assembled route is exact; the
    difference route is second order only where its ingredients are
    smooth, so two collars are excluded from the comparison: nodes with
    |psi'| below ROUTE_GRAD_FLOOR * max |psi'| (degenerate flux at the
    catenoid's neck), and nodes with rho below ROUTE_RHO_FLOOR * max rho
    (the intrinsic operator divides by rho, and near the plane's axis
    the fluxes do not resolve the t^{p/(p-1)} pole profile -- relative
    truncation there is (h/s)^2).  Returns
    {"sup_scaled", "scale", "count", "n"}.
    """
    problem = ball_problem(p, 2, 0.0, r)
    sol = solve_ball_eigenvalue(problem)
    band = SurfaceBand.from_radius(surface, r)
    tp = transplant(sol, surface, band, n=ROUTE_GRID)
    exact = plap_jk(tp)
    fd = plap_intrinsic(tp, p, band)

    inner = slice(1, -1)
    keep = (np.isfinite(exact[inner])
            & (tp.grad[inner] >= ROUTE_GRAD_FLOOR * np.max(tp.grad))
            & (tp.rho[inner] >= ROUTE_RHO_FLOOR * np.max(tp.rho)))
    scale = float(np.max(np.abs(exact[inner][keep])))
    sup = float(np.max(np.abs(exact[inner][keep] - fd[keep])))
    return {"sup_scaled": sup / scale, "scale": scale,
            "count": int(np.count_nonzero(keep)), "n": ROUTE_GRID}


# -- comparison inequality and reports ------------------------------------


def modelcontrol_check(surface, solution, band=None):
    """Pointwise transplanted-eigenfunction comparison on a band.

    Evaluates -Delta_p psi / (psi^{p-1} cos^{p-2} alpha) - lambda, p the
    model solution's, on a transplant of TRANSPLANT_GRID nodes, over the
    nodes with cos(alpha) >= COS_ALPHA_FLOOR and psi >= PSI_FLOOR (the
    quotient divides by both) and reports the minimum.  The comparison
    is the p >= 2 statement; it presumes the model radius does not
    exceed the flat critical radius, which the critical-radius routines
    put at the full radius for these solutions.  pass iff
    min >= -1e-6 lambda.
    """
    p = solution.p
    if p < 2.0:
        raise ValueError("the comparison needs p >= 2")
    tp = transplant(solution, surface, band)
    vals = plap_jk(tp)
    sel = (np.isfinite(vals) & (tp.cos_alpha >= COS_ALPHA_FLOOR)
           & (tp.psi >= PSI_FLOOR))
    if not np.any(sel):
        raise ValueError("empty evaluation set on the band")
    lam = solution.lam
    quot = -vals[sel] / (signed_power(tp.psi[sel], p - 1.0)
                         * tp.cos_alpha[sel] ** (p - 2.0))
    margin = quot - lam
    i_min = int(np.argmin(margin))
    return {
        "min_margin": float(margin[i_min]),
        "argmin_s": float(tp.s[sel][i_min]),
        "count": int(np.count_nonzero(sel)),
        "pass": bool(margin[i_min] >= -1e-6 * lam),
    }


class BandReport:
    """Spectral and stability summary of one band; flattens to CSV."""

    CSV_FIELDS = ("surface", "p", "r", "k", "lambda_model", "rhs",
                  "lambda_band_upper", "modelcontrol_margin", "cor13",
                  "cor15")

    def __init__(self, surface, p, r, k, lambda_model, rhs,
                 lambda_band_upper, modelcontrol_margin, cor13, cor15,
                 vacuous, details=None):
        self.surface = surface
        self.p = p
        self.r = r
        self.k = k
        self.lambda_model = lambda_model
        self.rhs = rhs
        self.lambda_band_upper = lambda_band_upper
        self.modelcontrol_margin = modelcontrol_margin
        self.cor13 = cor13
        self.cor15 = cor15
        self.vacuous = vacuous
        self.details = details or {}

    def to_json(self):
        out = {f: getattr(self, f) for f in self.CSV_FIELDS}
        out["vacuous"] = self.vacuous
        out.update(self.details)
        return out

    def csv_row(self):
        return [getattr(self, f) for f in self.CSV_FIELDS]

    def __repr__(self):
        return ("BandReport(%s, p=%g, r=%g, k=%g, margin=%.3e%s)"
                % (self.surface, self.p, self.r, self.k,
                   self.modelcontrol_margin,
                   ", vacuous" if self.vacuous else ""))


def _band_grid(band):
    """Intrinsic Rayleigh grid of the band, RAYLEIGH_GRID nodes: weight
    rho, Dirichlet at t=r."""
    s = band.nodes(RAYLEIGH_GRID)
    weight = band.surface.profile(s)[0]
    if band.surface.kind == "plane":
        return rayleigh.Grid1D(s, weight, (False, True))
    return rayleigh.Grid1D(s, weight, (True, True))


def band_report(surface, r, p):
    """Assemble the comparison and stability verdicts for one band.

    lambda_model is the flat planar model eigenvalue on the ball of the
    band radius, rhs = k^{p-2} lambda_model its angle-weighted form (at
    p = 2 the angle factor drops out); when k = 0 and p > 2 the bound
    degenerates and the report marks it vacuous instead of asserting it.
    lambda_band_upper is the rotationally invariant Rayleigh quotient
    minimum on the band's RAYLEIGH_GRID-node grid, an upper bound for
    the band's first eigenvalue.
    cor13 is the curvature-vs-spectrum stability test
    sup ||A||^p <= k^{p-2} lambda_model; cor15 the mean-curvature test
    sup ||A|| <= (m-1)/(p r).  The plane band must reproduce the model
    eigenvalue (totally geodesic rigidity); a drift beyond 1e-4 lambda
    raises.
    """
    surface = get_surface(surface) if isinstance(surface, str) else surface
    model = solve_ball_eigenvalue(ball_problem(p, 2, 0.0, r))
    lam = model.lam

    band = SurfaceBand.from_radius(surface, r)
    k = band.k
    rhs = lam if p == 2.0 else k ** (p - 2.0) * lam
    vacuous = bool(k == 0.0 and p > 2.0)

    result = rayleigh.minimize_rayleigh(_band_grid(band), p)
    lam_band = float(result["lambda_est"])
    if surface.kind == "plane" and abs(lam_band - lam) > 1e-4 * max(1.0, lam):
        raise RuntimeError(
            "plane band failed to reproduce the model eigenvalue: "
            "%.12g vs %.12g" % (lam_band, lam))

    check = modelcontrol_check(surface, model, band)

    a_sup = float(np.max(surface.second_form_norm(band.nodes(4097))))
    cor13 = stability_criterion_immersion(a_sup ** p, k, p, lam)
    cor15 = stability_criterion_meancurv(a_sup, 2, p, r)

    return BandReport(
        surface.kind, p, r, k, lam, rhs, lam_band,
        check["min_margin"], cor13, cor15, vacuous,
        details={
            "s_range": list(band.s_range),
            "sup_A": a_sup,
            "meancurv_threshold": meancurv_threshold(2, p, r),
            "modelcontrol_pass": check["pass"],
            "modelcontrol_argmin_s": check["argmin_s"],
            "rayleigh_iterations": int(result["iterations"]),
        })
