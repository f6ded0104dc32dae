"""Critical radius certification for the radial comparison inequality.

For p >= 2 the comparison machinery needs the restriction inequality

    W(t) = (p+m-2) (S_c'/S_c)(t) |omega'|^{p-2} omega'(t)
           + lambda omega(t)^{p-1}  <=  0        on (0, r_star),

to hold up to a certified radius r_star(c) <= r.  compute_r_star
evaluates the solution once on a dense grid and derives everything it
certifies from that one sample of (omega, omega'):

  * Direct-W: W is an exact algebraic combination of the samples, so
    its sign needs no differencing.
  * Integral criterion (c in {0, -1}): with the weights V_c (a Gaussian
    for c = 0, a power of cosh for c = -1) the combination

        LHS_c(t) = S_c^{m-1} (V_c' omega^{p-1} - V_c |omega'|^{p-2} omega')

    satisfies sign(LHS_c) = -sign(W), since V_c'/V_c = -(lambda/K)
    S_c/S_c', and equals a cumulative integral of the case integrand
    Phi_c against S_c^{m-1} V_c.  r_star is the first scan point where
    that cumulative integral stops being positive, and W <= tol is
    re-verified on (0, r_star) before any report is returned; a
    verification failure raises instead of returning a bad radius.
    LHS_c itself is formed only by flat_identity_check, which compares
    it at c = 0 with the cumulative trapezoid of its exact derivative.

The integrands are functions of the sampled arrays plus (p, m, lambda);
none of them evaluates the solution.

At p = 2 every case integrand is pointwise positive and r_star = r; the
spherical case (c = 1) keeps r_star = r for all r < pi/2 because Phi_1
stays above a quadratic barrier (Young's inequality in the tangent
variable).  Both cases certify by Direct-W and integrate no weight.
For c in {0, -1} and p > 2 the integrand changes sign and the scan may
certify a strictly smaller radius.

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
factor of lambda.
"""

import numpy as np

from .modelspace import s_c, cot_c
from .radial import signed_power

TOL_W_REL = 1e-9          # certification tolerance on W, relative to lambda
SCAN_GRID = 16384         # default dense scan resolution
IDENTITY_WINDOW = 0.1     # flat_identity_check compares on t >= this * r


def case_constants(p, m, lam):
    """The constants C1..C4 of the spherical/hyperbolic case integrands.

    C4 is the printed lambda-free value.
    """
    K = p + m - 2.0
    return {"C1": lam * (p + 2 * m - 2.0) / K,
            "C2": lam * (1.0 / K + lam / K ** 2),
            "C3": lam / K,
            "C4": (p - 2.0) / K}


def _solution_c(solution):
    prof = solution.problem.profile
    if prof.kind != "spaceform":
        raise ValueError("critical-radius analysis needs a space-form "
                         "profile")
    return prof.c


def restriction_W(c, t, om, dom, p, m, lam):
    """W(t) = (p+m-2) cot_c(t) |omega'|^{p-2} omega' + lambda omega^{p-1}
    from samples om, dom of (omega, omega') at the nodes t.

    At t = 0 the product cot_c * |omega'|^{p-2} omega' tends to -lambda K
    / (mK) by the startup expansion, so W extends continuously with
    W(0+) = lambda (2-p)/m.
    """
    K = p + m - 2.0
    out = np.full(t.shape, lam * (2.0 - p) / m)
    ok = t != 0.0
    out[ok] = (K * cot_c(c, t[ok]) * signed_power(dom[ok], p - 1.0)
               + lam * signed_power(om[ok], p - 1.0))
    return out


def weight_V(c, t, lam, p, m):
    """The case weight V_c(t): Gaussian (c=0) or cosh power (c=-1)."""
    K = p + m - 2.0
    if c == 0:
        return np.exp(-lam * t ** 2 / (2.0 * K))
    if c == -1:
        return np.cosh(t) ** (-lam / K)
    raise ValueError("weights are defined for c in {-1, 0} only")


def phi0(s, om, dom, p, m, lam):
    """Flat case integrand, evaluated as displayed from samples om, dom of
    (omega, omega') at the nodes s.

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
    matches -|omega'(r)|^{p-1} = -0.96744471861 and not
    -|omega'(r)|^{p-2} = -0.98359 (compute_r_star reports all three as
    phi0_r_displayed, phi0_r_pm1 and phi0_r_pm2).
    """
    K = p + m - 2.0
    aom, adom = np.abs(om), np.abs(dom)
    return ((p - 2.0) * aom ** (p - 1.0)
            + lam / K * s ** 2 * aom ** (p - 1.0)
            + (p - 1.0) * aom ** (p - 2.0) * adom - adom ** (p - 1.0))


def phi1(s, om, dom, p, m, lam):
    """Spherical case integrand (C1 + C2 tan^2 s)|omega|^{p-1} + C3 tan s
    (|omega'|^{p-1}/(p-1) - |omega|^{p-2}|omega'|).

    Positive on (0, pi/2) for p >= 2: the Young inequality
    |omega|^{p-2}|omega'| <= ((p-2)|omega|^{p-1} + |omega'|^{p-1})/(p-1)
    leaves a quadratic in tan s with negative discriminant.
    """
    if np.any(s >= np.pi / 2):
        raise ValueError("spherical integrand needs s < pi/2")
    cst = case_constants(p, m, lam)
    aom, adom = np.abs(om), np.abs(dom)
    tan = np.tan(s)
    return ((cst["C1"] + cst["C2"] * tan ** 2) * aom ** (p - 1.0)
            + cst["C3"] * tan * (adom ** (p - 1.0) / (p - 1.0)
                                 - aom ** (p - 2.0) * adom))


def phi_minus1(s, om, dom, p, m, lam):
    """Hyperbolic case integrand (C4 + C2 tanh^2 s)|omega|^{p-1}
    + C3 tanh s |omega'| G, with G = (p-1)|omega|^{p-2} - |omega'|^{p-2}.

    The G factor is a reconstruction (the source leaves its symbol
    undefined) fixed by the stated endpoint values Phi_{-1}(0) = C4 and
    Phi_{-1}(r) = -C3 tanh(r) |omega'(r)|^{p-1}.  C4 is the printed
    lambda-free constant.
    """
    cst = case_constants(p, m, lam)
    aom, adom = np.abs(om), np.abs(dom)
    tanh = np.tanh(s)
    g = (p - 1.0) * aom ** (p - 2.0) - adom ** (p - 2.0)
    return ((cst["C4"] + cst["C2"] * tanh ** 2) * aom ** (p - 1.0)
            + cst["C3"] * tanh * adom * g)


def lhs_expression(t, om, dom, p, m, lam):
    """Exact left side S_0^{m-1} (V_0' omega^{p-1} - V_0 |omega'|^{p-2}
    omega') of the flat case identity, with V_0'/V_0 = -(lam/K) t.

    Its sign is opposite to W's: positive values certify the restriction
    inequality pointwise.
    """
    K = p + m - 2.0
    v = weight_V(0, t, lam, p, m)
    sm = s_c(0, t) ** (m - 1)
    return sm * v * (-lam / K * t * signed_power(om, p - 1.0)
                     - signed_power(dom, p - 1.0))


def flateq_integrand(s, om, dom, p, m, lam):
    """Exact flat-case right-side integrand, d/dt of lhs_expression:

    s^{m-1} V_0 (lam/K) [ (p-2) omega^{p-1} + (lam/K) s^2 omega^{p-1}
        + s ((p-1)|omega|^{p-2}|omega'| - |omega'|^{p-1}) ].

    This is the displayed flat integrand with the overall lam/K factor
    restored and the s-weight kept on the gradient terms; integrating it
    with the trapezoid rule reproduces lhs_expression to second order.
    """
    K = p + m - 2.0
    aom, adom = np.abs(om), np.abs(dom)
    v = weight_V(0, s, lam, p, m)
    bracket = ((p - 2.0) * signed_power(om, p - 1.0)
               + lam / K * s ** 2 * signed_power(om, p - 1.0)
               + s * ((p - 1.0) * aom ** (p - 2.0) * adom
                      - adom ** (p - 1.0)))
    return s ** (m - 1) * v * (lam / K) * bracket


def _cumulative_trapezoid(y, t):
    """Trapezoid integrals of y over [t[0], t[i]] for every node i."""
    return np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1])
                                            * np.diff(t))))


def flat_identity_check(solution):
    """Compare cumulative trapezoid of flateq_integrand with
    lhs_expression, both on the solution's own grid.

    The grid, omega and omega' are the solution's arrays, built once and
    shared with every other reader, so the check marches no node.
    Returns (t, integral, lhs, sup_rel) with the sup of the relative gap
    over t >= IDENTITY_WINDOW * r, where the trapezoid's O(h^2/t^2) pole
    error has decayed.
    """
    if _solution_c(solution) != 0.0:
        raise ValueError("the flat identity needs a c=0 solution")
    p, m, r, lam = solution.p, solution.m, solution.r, solution.lam
    t, om, dom = solution.grid, solution.omega, solution.omega_prime
    integral = _cumulative_trapezoid(
        flateq_integrand(t, om, dom, p, m, lam), t)
    lhs = np.concatenate(([0.0], lhs_expression(t[1:], om[1:], dom[1:],
                                                p, m, lam)))
    keep = t >= IDENTITY_WINDOW * r
    rel = np.abs(integral[keep] - lhs[keep]) / np.abs(lhs[keep])
    return t, integral, lhs, float(np.max(rel))


class CriticalRadiusReport:
    """Certified critical radius with the scan samples that justify it."""

    def __init__(self, c, p, m, r, lam, r_star, method, t_samples,
                 omega_samples, W_samples, min_margin, diagnostics=None):
        self.c = c
        self.p = p
        self.m = m
        self.r = r
        self.lam = lam
        self.r_star = r_star
        self.method = method
        self.t_samples = t_samples
        self.omega_samples = omega_samples
        self.W_samples = W_samples
        self.min_margin = min_margin
        self.diagnostics = dict(diagnostics or {})


_INTEGRANDS = {0.0: phi0, 1.0: phi1, -1.0: phi_minus1}


def compute_r_star(solution, n=SCAN_GRID):
    """Certified critical radius for a converged space-form ball
    eigenpair, p >= 2, from one evaluation of the solution on n nodes.

    The case c in {-1, 0, 1} is the solution's model curvature.  p = 2
    certifies the full radius directly from W <= 0.  For c = 1 the full
    radius is certified by positivity of phi1, which must also stay above
    its Young barrier (C1 + C2 tan^2 - C3 (p-2)/(p-1) tan) |omega|^{p-1};
    either failure raises RuntimeError.  For c in {0, -1} and p > 2, the
    scan integrates the case integrand Phi_c against S_c^{m-1} V_c
    cumulatively and stops at the first nonpositive partial integral; if
    the integral stays positive the full radius is certified.  Every
    returned radius is re-verified against W <= TOL_W_REL * lambda on
    (0, r_star); failure raises RuntimeError rather than returning an
    uncertified radius.

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
    c = _solution_c(solution)
    if c not in (-1.0, 0.0, 1.0):
        raise ValueError("the case analysis covers the space forms "
                         "c in {-1, 0, 1}, got c=%g" % c)
    p, m, r, lam = solution.p, solution.m, solution.r, solution.lam
    if p < 2.0:
        raise ValueError("r_star is not defined by the source analysis "
                         "for p < 2 (it assumes 2 <= p), got p=%g" % p)
    if c == 1.0 and r >= np.pi / 2:
        raise ValueError("spherical comparison needs r < pi/2, got r=%g"
                         % r)
    t = np.linspace(0.0, r, n)
    om, dom = solution.evaluate(t)
    w = restriction_W(c, t, om, dom, p, m, lam)
    diagnostics = {"tol_w": TOL_W_REL * lam, "n_scan": n}

    if p == 2.0 or c == 1.0:
        r_star, method = r, "Direct-W"
        s = t[1:-1]
        phi = _INTEGRANDS[c](s, om[1:-1], dom[1:-1], p, m, lam)
        if p == 2.0:
            diagnostics["min_phi"] = float(np.min(phi))
        else:
            # phi1 must stay above its pointwise Young underestimate
            cst = case_constants(p, m, lam)
            tan = np.tan(s)
            barrier = (cst["C1"] + cst["C2"] * tan ** 2
                       - cst["C3"] * (p - 2.0) / (p - 1.0) * tan) \
                * np.abs(om[1:-1]) ** (p - 1.0)
            if np.any(phi < barrier - 1e-12 * lam):
                raise RuntimeError("phi1 fell below its Young barrier; "
                                   "inconsistent evaluation")
            margin = float(np.min(phi))
            if not margin > 0.0:
                raise RuntimeError("spherical integrand lost positivity "
                                   "(min margin %.3e)" % margin)
            diagnostics["positivity_margin"] = margin
    else:
        phi = _INTEGRANDS[c](t[1:], om[1:], dom[1:], p, m, lam)
        v = weight_V(c, t[1:], lam, p, m)
        sm = s_c(c, t[1:]) ** (m - 1)
        psi = _cumulative_trapezoid(np.concatenate(([0.0], sm * phi * v)), t)
        hit = np.flatnonzero(psi[1:] <= 0.0)
        r_star = float(t[1:][hit[0]]) if hit.size else r
        method = "Integral-LHS"
        diagnostics["psi_final"] = float(psi[-1])
        diagnostics["psi_min"] = float(np.min(psi[1:]))
        if c == 0.0:
            diagnostics["phi0_r_displayed"] = float(phi[-1])
            diagnostics["phi0_r_pm1"] = -abs(float(dom[-1])) ** (p - 1.0)
            diagnostics["phi0_r_pm2"] = -abs(float(dom[-1])) ** (p - 2.0)

    inside = (t > 0) & (t < r_star)
    w_max = float(np.max(w[inside])) if np.any(inside) else -np.inf
    if w_max > TOL_W_REL * lam:
        raise RuntimeError(
            "restriction inequality fails inside the reported radius: "
            "max W = %.3e > %.1e lambda" % (w_max, TOL_W_REL))
    return CriticalRadiusReport(
        c=c, p=p, m=m, r=r, lam=lam, r_star=r_star, method=method,
        t_samples=t, omega_samples=om, W_samples=w, min_margin=-w_max,
        diagnostics=diagnostics)
