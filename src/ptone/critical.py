"""Critical radius certification for the radial comparison inequality.

For p >= 2 the comparison machinery needs the restriction inequality

    W(t) = (p+m-2) (S_c'/S_c)(t) |omega'|^{p-2} omega'(t)
           + lambda omega(t)^{p-1}  <=  0        on (0, r_star),

to hold up to a certified radius r_star(c) <= r.  Two equivalent views
are implemented side by side:

  * Direct-W: evaluate W on a dense grid; it is an exact algebraic
    combination of solver outputs, so its sign needs no differencing.
  * Integral criterion: with the weights V_c (a Gaussian for c = 0, a
    power of cos/cosh for c = +-1) the combination

        LHS_c(t) = S_c^{m-1} (V_c' omega^{p-1} - V_c |omega'|^{p-2} omega')

    satisfies sign(LHS_c) = -sign(W) wherever V_c'/V_c =
    -(lambda/K) S_c/S_c' (true for c in {0, -1}), and equals a cumulative
    integral of the case integrand Phi_c against S_c^{m-1} V_c.  r_star
    is the first scan point where that cumulative integral stops being
    positive, and W <= tol is re-verified on (0, r_star) before any
    report is returned; a verification failure raises instead of
    returning a bad radius.

At p = 2 every case integrand is pointwise positive and r_star = r; the
spherical case (c = 1) keeps r_star = r for all r < pi/2 because Phi_1
stays above a quadratic barrier (Young's inequality in the tangent
variable).  For c in {0, -1} and p > 2 the integrand changes sign and
the scan may certify a strictly smaller radius.

For c in {0, -1} the restriction inequality itself holds on the whole
ball, for every p >= 2, m >= 1 and r.  With omega > 0 decreasing,
integrating the radial equation gives S_c^{m-1} |omega'|^{p-1} =
lambda int_0^t S_c^{m-1} omega^{p-1} >= lambda omega(t)^{p-1}
int_0^t S_c^{m-1}, and K c_c(t) int_0^t S_c^{m-1} >= S_c(t)^m with
K = p+m-2 >= m (for c = 0 the integral is t^m/m; for c = -1,
K cosh t int_0^t sinh^{m-1} >= sinh^m t), so W(t) < 0 on (0, r]; for
c = 0 this is the barrier W <= lambda (2-p) omega^{p-1} / m.  A scan
on a 4096-node grid over p in {2.25, 2.5, 3, 4, 6, 8, 12, 16},
m in 1..6, r = 1 found W < 0 on (0, r] in all 48 flat and all 48
hyperbolic cases.

The cumulative scan integrates the literal case integrands Phi_c of
the source identities rather than the exact LHS_c, which cannot cross
zero while W < 0 (the sign linkage above).  The integral of the
displayed Phi_0 or the reconstructed Phi_{-1} can still reach zero
inside the ball: the same scan returned an interior r_star in 26 of the
48 flat cases (for example (p, m) = (3, 4) -> 0.958) and in 34 of the
48 hyperbolic cases (among them (3, 2), which gives 0.9955 on the
16384-node grid of acceptance criterion 9).  Those radii are
conservative certified radii, not sign changes of W.

The hyperbolic integrand is reconstructed with
H = G = (p-1)|omega|^{p-2} - |omega'|^{p-2}; both of its stated endpoint
values, Phi_{-1}(0) = C4 and Phi_{-1}(r) = -C3 tanh(r) |omega'(r)|^{p-1},
pin that choice.  The constant C4 is kept as written, (p-2)/K without a
factor of lambda; the lambda-carrying variant is reported alongside in
diagnostics (see case_constants).
"""

import json

import numpy as np

from .modelspace import s_c, c_c, cot_c
from .radial import signed_power

TOL_W_REL = 1e-9          # certification tolerance on W, relative to lambda
SCAN_GRID = 16384         # default dense scan resolution


def case_constants(p, m, lam):
    """The constants C1..C4 of the spherical/hyperbolic case integrands.

    C4 is the printed lambda-free value; "C4_lambda" is the variant with
    the factor of lambda that dimensional consistency with C2 suggests,
    reported for diagnostics only.
    """
    K = p + m - 2.0
    return {"C1": lam * (p + 2 * m - 2.0) / K,
            "C2": lam * (1.0 / K + lam / K ** 2),
            "C3": lam / K,
            "C4": (p - 2.0) / K,
            "C4_lambda": lam * (p - 2.0) / K}


def _solution_c(solution):
    prof = solution.problem.profile
    if prof.kind != "spaceform":
        raise ValueError("critical-radius analysis needs a space-form "
                         "profile")
    return prof.c


def restriction_W(t, solution, c=None):
    """W(t) = (p+m-2) cot_c(t) |omega'|^{p-2} omega' + lambda omega^{p-1}.

    At t = 0 the product cot_c * |omega'|^{p-2} omega' tends to -lambda K
    / (mK) by the startup expansion, so W extends continuously with
    W(0+) = lambda (2-p)/m.
    """
    if c is None:
        c = _solution_c(solution)
    elif c != _solution_c(solution):
        raise ValueError("c does not match the solution's model curvature")
    p, m, lam = solution.p, solution.m, solution.lam
    K = p + m - 2.0
    scalar = np.ndim(t) == 0
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(tt.shape)
    pole = tt == 0.0
    if np.any(pole):
        out[pole] = lam * (2.0 - p) / m
    if np.any(~pole):
        ts = tt[~pole]
        om, dom = solution.evaluate(ts)
        out[~pole] = (K * cot_c(c, ts) * signed_power(dom, p - 1.0)
                      + lam * signed_power(om, p - 1.0))
    return float(out[0]) if scalar else out


def weight_V(c, t, lam, p, m):
    """The case weight V_c(t): Gaussian (c=0) or cos/cosh power (c=+-1)."""
    K = p + m - 2.0
    tt = np.asarray(t, dtype=float)
    if c == 0:
        out = np.exp(-lam * tt ** 2 / (2.0 * K))
    elif c == 1:
        out = np.cos(tt) ** (-lam / K)
    elif c == -1:
        out = np.cosh(tt) ** (-lam / K)
    else:
        raise ValueError("weights are defined for c in {-1, 0, 1} only")
    return float(out) if np.ndim(t) == 0 else out


def _weight_V_prime_over_V(c, t, lam, p, m):
    """V_c'(t) / V_c(t); equals -(lam/K) S_c/S_c' for c in {0, -1}."""
    K = p + m - 2.0
    tt = np.asarray(t, dtype=float)
    if c == 0:
        return -lam / K * tt
    if c == 1:
        return lam / K * np.tan(tt)
    if c == -1:
        return -lam / K * np.tanh(tt)
    raise ValueError("weights are defined for c in {-1, 0, 1} only")


def phi0(s, solution, lam=None):
    """Flat case integrand, evaluated as displayed.

    (p-2)|omega|^{p-1} + (lam/K) s^2 |omega|^{p-1}
        + (p-1)|omega|^{p-2}|omega'| - |omega'|^{p-1}.

    At p = 2 this reduces to (lam/m) s^2 |omega|, which is positive; for
    p > 2 it starts at p-2 > 0 and ends negative, so it crosses zero
    inside (0, r) (at s ~ 0.618 for p = 3, m = 2, r = 1).

    The boundary value is -|omega'(r)|^{p-1}, with exponent p-1 rather
    than the p-2 the source states for it: at s = r, where omega = 0,
    the bracket of the exact derivative flateq_integrand is
    -s |omega'|^{p-1}, and the identity supports no other reading.
    For p = 3, m = 2, r = 1 the displayed value at r, -0.96744471731,
    matches -|omega'(r)|^{p-1} = -0.96744471862 and not
    -|omega'(r)|^{p-2} = -0.98359 (compute_r_star reports all three as
    phi0_r_displayed, phi0_r_pm1 and phi0_r_pm2).
    """
    p, m = solution.p, solution.m
    if lam is None:
        lam = solution.lam
    K = p + m - 2.0
    ss = np.asarray(s, dtype=float)
    om, dom = solution.evaluate(ss)
    aom, adom = np.abs(om), np.abs(dom)
    out = ((p - 2.0) * aom ** (p - 1.0)
           + lam / K * ss ** 2 * aom ** (p - 1.0)
           + (p - 1.0) * aom ** (p - 2.0) * adom - adom ** (p - 1.0))
    return float(out) if np.ndim(s) == 0 else out


def phi1(s, solution, lam=None):
    """Spherical case integrand (C1 + C2 tan^2 s)|omega|^{p-1} + C3 tan s
    (|omega'|^{p-1}/(p-1) - |omega|^{p-2}|omega'|).

    Positive on (0, pi/2) for p >= 2: the Young inequality
    |omega|^{p-2}|omega'| <= ((p-2)|omega|^{p-1} + |omega'|^{p-1})/(p-1)
    leaves a quadratic in tan s with negative discriminant.
    """
    p, m = solution.p, solution.m
    if lam is None:
        lam = solution.lam
    cst = case_constants(p, m, lam)
    ss = np.asarray(s, dtype=float)
    if np.any(ss >= np.pi / 2):
        raise ValueError("spherical integrand needs s < pi/2")
    om, dom = solution.evaluate(ss)
    aom, adom = np.abs(om), np.abs(dom)
    tan = np.tan(ss)
    out = ((cst["C1"] + cst["C2"] * tan ** 2) * aom ** (p - 1.0)
           + cst["C3"] * tan * (adom ** (p - 1.0) / (p - 1.0)
                                - aom ** (p - 2.0) * adom))
    return float(out) if np.ndim(s) == 0 else out


def phi_minus1(s, solution, lam=None):
    """Hyperbolic case integrand (C4 + C2 tanh^2 s)|omega|^{p-1}
    + C3 tanh s |omega'| G, with G = (p-1)|omega|^{p-2} - |omega'|^{p-2}.

    The G factor is a reconstruction (the source leaves its symbol
    undefined) fixed by the stated endpoint values Phi_{-1}(0) = C4 and
    Phi_{-1}(r) = -C3 tanh(r) |omega'(r)|^{p-1}.  C4 is the printed
    lambda-free constant.
    """
    p, m = solution.p, solution.m
    if lam is None:
        lam = solution.lam
    cst = case_constants(p, m, lam)
    ss = np.asarray(s, dtype=float)
    om, dom = solution.evaluate(ss)
    aom, adom = np.abs(om), np.abs(dom)
    tanh = np.tanh(ss)
    g = (p - 1.0) * aom ** (p - 2.0) - adom ** (p - 2.0)
    out = ((cst["C4"] + cst["C2"] * tanh ** 2) * aom ** (p - 1.0)
           + cst["C3"] * tanh * adom * g)
    return float(out) if np.ndim(s) == 0 else out


def lhs_expression(c, t, solution, lam=None):
    """Exact left side S_c^{m-1} (V_c' omega^{p-1} - V_c |omega'|^{p-2}
    omega') of the case identities.

    Where V_c'/V_c = -(lam/K) S_c/S_c' (c in {0, -1}), its sign is
    opposite to W's: positive values certify the restriction inequality
    pointwise.
    """
    p, m = solution.p, solution.m
    if lam is None:
        lam = solution.lam
    tt = np.asarray(t, dtype=float)
    om, dom = solution.evaluate(tt)
    v = weight_V(c, tt, lam, p, m)
    vp_over_v = _weight_V_prime_over_V(c, tt, lam, p, m)
    sm = s_c(c, tt) ** (m - 1)
    out = sm * v * (vp_over_v * signed_power(om, p - 1.0)
                    - signed_power(dom, p - 1.0))
    return float(out) if np.ndim(t) == 0 else out


def flateq_integrand(s, solution, lam=None):
    """Exact flat-case right-side integrand, d/dt of lhs_expression(0, .):

    s^{m-1} V_0 (lam/K) [ (p-2) omega^{p-1} + (lam/K) s^2 omega^{p-1}
        + s ((p-1)|omega|^{p-2}|omega'| - |omega'|^{p-1}) ].

    This is the displayed flat integrand with the overall lam/K factor
    restored and the s-weight kept on the gradient terms; integrating it
    with the trapezoid rule reproduces lhs_expression to second order.
    """
    p, m = solution.p, solution.m
    if lam is None:
        lam = solution.lam
    K = p + m - 2.0
    ss = np.asarray(s, dtype=float)
    om, dom = solution.evaluate(ss)
    aom, adom = np.abs(om), np.abs(dom)
    v = weight_V(0, ss, lam, p, m)
    bracket = ((p - 2.0) * signed_power(om, p - 1.0)
               + lam / K * ss ** 2 * signed_power(om, p - 1.0)
               + ss * ((p - 1.0) * aom ** (p - 2.0) * adom
                       - adom ** (p - 1.0)))
    out = ss ** (m - 1) * v * (lam / K) * bracket
    return float(out) if np.ndim(s) == 0 else out


def flat_identity_check(solution, n=2048, window=0.1):
    """Compare cumulative trapezoid of flateq_integrand with
    lhs_expression(0, .).

    Returns (t, integral, lhs, sup_rel) with the sup of the relative gap
    over t >= window * r, where the trapezoid's O(h^2/t^2) pole error has
    decayed.
    """
    if _solution_c(solution) != 0.0:
        raise ValueError("the flat identity needs a c=0 solution")
    r = solution.r
    t = np.linspace(0.0, r, n)
    integrand = flateq_integrand(t, solution)
    integral = np.concatenate(
        ([0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1])
                          * np.diff(t))))
    lhs = lhs_expression(0, t[1:], solution)
    lhs = np.concatenate(([0.0], lhs))
    keep = t >= window * r
    rel = np.abs(integral[keep] - lhs[keep]) / np.abs(lhs[keep])
    return t, integral, lhs, float(np.max(rel))


class CriticalRadiusReport:
    """Certified critical radius with the diagnostics that justify it."""

    def __init__(self, c, p, m, r, lam, r_star, method, t_samples,
                 W_samples, LHS_samples, Phi_samples, constants,
                 min_margin, diagnostics=None):
        self.c = c
        self.p = p
        self.m = m
        self.r = r
        self.lam = lam
        self.r_star = r_star
        self.method = method
        self.t_samples = t_samples
        self.W_samples = W_samples
        self.LHS_samples = LHS_samples
        self.Phi_samples = Phi_samples
        self.constants = constants
        self.min_margin = min_margin
        self.diagnostics = dict(diagnostics or {})

    def to_json(self):
        return json.dumps({
            "c": self.c, "p": self.p, "m": self.m, "r": self.r,
            "lambda": self.lam, "r_star": self.r_star,
            "method": self.method, "constants": self.constants,
            "min_margin": self.min_margin,
            "n_samples": len(self.t_samples),
            "diagnostics": self.diagnostics}, sort_keys=True)

    def csv_row(self):
        return [self.c, self.p, self.m, self.r, self.lam, self.r_star,
                self.min_margin]


def verify_spherical_positivity(solution, lam=None, r=None, n=SCAN_GRID):
    """Check phi1 > 0 on a dense grid in (0, r); returns (ok, min margin).

    Also evaluates the quadratic-barrier lower bound
    (C1 + C2 tan^2 - C3 (p-2)/(p-1) tan) |omega|^{p-1}; the barrier is a
    pointwise underestimate, so phi1 must not fall below it.
    """
    if _solution_c(solution) != 1.0:
        raise ValueError("spherical positivity check needs c = 1")
    if lam is None:
        lam = solution.lam
    if r is None:
        r = solution.r
    if r >= np.pi / 2:
        raise ValueError("spherical comparison needs r < pi/2")
    p, m = solution.p, solution.m
    t = np.linspace(0.0, r, n)[1:-1]
    vals = phi1(t, solution, lam)
    om = np.abs(solution.evaluate(t)[0])
    cst = case_constants(p, m, lam)
    tan = np.tan(t)
    barrier = (cst["C1"] + cst["C2"] * tan ** 2
               - cst["C3"] * (p - 2.0) / (p - 1.0) * tan) * om ** (p - 1.0)
    if np.any(vals < barrier - 1e-12 * lam):
        raise RuntimeError("phi1 fell below its Young barrier; "
                           "inconsistent evaluation")
    margin = float(np.min(vals))
    return margin > 0.0, margin


def _certify_W(solution, c, t, r_star, lam, tol_w):
    """max W on scan nodes in (0, r_star); raises if above tolerance."""
    inside = (t > 0) & (t < r_star)
    w = restriction_W(t[inside], solution, c)
    w_max = float(np.max(w)) if np.any(inside) else -np.inf
    if w_max > tol_w * lam:
        raise RuntimeError(
            "restriction inequality fails inside the reported radius: "
            "max W = %.3e > %.1e lambda" % (w_max, tol_w))
    return w_max


def compute_r_star(c, solution, lam=None, n=SCAN_GRID, tol_w=TOL_W_REL):
    """Certified critical radius for a converged ball eigenpair, p >= 2.

    p = 2 certifies the full radius directly from W <= 0.  For c = 1 the
    full radius is certified by spherical positivity of phi1 plus the
    direct W check.  For c in {0, -1} and p > 2, the scan integrates the
    case integrand Phi_c against S_c^{m-1} V_c cumulatively and stops at
    the first nonpositive partial integral; if the integral stays
    positive the full radius is certified.  Every returned radius is
    re-verified against W <= tol_w * lambda on (0, r_star); failure
    raises RuntimeError rather than returning an uncertified radius.

    An interior radius for c in {0, -1} is where the certificate built
    from the displayed integrand runs out, not where W changes sign: W
    stays negative on all of (0, r] there (see the module docstring).
    On a 4096-node grid over p in {2.25, 2.5, 3, 4, 6, 8, 12, 16},
    m in 1..6, r = 1 the scan returned an interior r_star in 26 of 48
    flat cases (e.g. p = 3, m = 4 -> 0.958) and 34 of 48 hyperbolic
    cases (e.g. p = 3, m = 2 -> 0.9956; 0.9955 at n = 16384), while
    W < 0 held on (0, r] in all 96.
    """
    if solution.problem.domain.kind != "ball":
        raise ValueError("critical radii are defined for balls")
    if c not in (-1.0, 0.0, 1.0):
        raise ValueError("the case analysis covers the space forms "
                         "c in {-1, 0, 1}")
    if c != _solution_c(solution):
        raise ValueError("c does not match the solution's model curvature")
    p, m, r = solution.p, solution.m, solution.r
    if p < 2.0:
        raise ValueError("r_star is not defined by the source analysis "
                         "for p < 2 (it assumes 2 <= p)")
    if c == 1.0 and r >= np.pi / 2:
        raise ValueError("spherical comparison needs r < pi/2")
    if lam is None:
        lam = solution.lam
    t = np.linspace(0.0, r, n)
    w = restriction_W(t, solution, c)
    lhs = np.concatenate(([0.0], lhs_expression(c, t[1:], solution, lam)))
    constants = case_constants(p, m, lam)
    diagnostics = {"tol_w": tol_w * lam, "n_scan": n}

    if p == 2.0:
        r_star, method = r, "Direct-W"
        phi = {0.0: phi0, 1.0: phi1, -1.0: phi_minus1}[c](
            t[1:-1], solution, lam)
        diagnostics["min_phi"] = float(np.min(phi))
    elif c == 1.0:
        ok, margin = verify_spherical_positivity(solution, lam, r, n)
        if not ok:
            raise RuntimeError("spherical integrand lost positivity "
                               "(min margin %.3e)" % margin)
        r_star, method = r, "Direct-W"
        phi = phi1(t[1:-1], solution, lam)
        diagnostics["positivity_margin"] = margin
    else:
        phi_fun = phi0 if c == 0.0 else phi_minus1
        phi = phi_fun(t[1:], solution, lam)
        v = weight_V(c, t[1:], lam, p, m)
        sm = s_c(c, t[1:]) ** (m - 1)
        integrand = np.concatenate(([0.0], sm * phi * v))
        psi = np.concatenate(
            ([0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1])
                              * np.diff(t))))
        hit = np.flatnonzero(psi[1:] <= 0.0)
        if hit.size:
            r_star, method = float(t[1:][hit[0]]), "Integral-LHS"
        else:
            r_star, method = r, "Integral-LHS"
        diagnostics["psi_final"] = float(psi[-1])
        diagnostics["psi_min"] = float(np.min(psi[1:]))
        if c == 0.0:
            om_r, dom_r = solution.evaluate(r)
            diagnostics["phi0_r_displayed"] = float(phi[-1])
            diagnostics["phi0_r_pm1"] = -abs(dom_r) ** (p - 1.0)
            diagnostics["phi0_r_pm2"] = -abs(dom_r) ** (p - 2.0)

    w_max = _certify_W(solution, c, t, r_star, lam, tol_w)
    return CriticalRadiusReport(
        c=c, p=p, m=m, r=r, lam=lam, r_star=r_star, method=method,
        t_samples=t, W_samples=w, LHS_samples=lhs,
        Phi_samples=np.asarray(phi), constants=constants,
        min_margin=-w_max, diagnostics=diagnostics)
