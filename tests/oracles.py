"""Recompute the frozen numeric fixtures used by the test suite.

Not collected by pytest (no ``test_`` prefix); run directly:

    python3 tests/oracles.py

Two kinds of value appear in the tests.  Closed-form oracles are
recomputed here from independent routes (special-function zeros,
elementary formulas, root-finding on the catalogued embeddings) and can
be compared digit-for-digit with the fixtures.  Scan/solver pins are
frozen outputs of this package's own deterministic algorithms; for
those the check printed here is grid/tolerance refinement consistency,
not an independent formula.
"""

import math

import mpmath
import numpy as np
from scipy import optimize, special

from ptone import acceptance, critical, radial, rayleigh, surfaces


def line(name, value, note=""):
    print("%-34s %.17g  %s" % (name, value, note))


def closed_forms():
    print("== closed-form oracles ==")
    j01 = special.jn_zeros(0, 1)[0]
    line("j01", j01, "acceptance.J01 - j01 = %.1e" % (acceptance.J01 - j01))
    line("j01^2", j01 ** 2, "lambda(p=2, m=2, c=0, r=1)")
    line("pi^2", math.pi ** 2, "lambda(p=2, m=3, c=0, r=1); annulus m=3")
    for p in (1.5, 2.0, 3.0, 4.0):
        pi_p = 2.0 * math.pi / (p * math.sin(math.pi / p))
        line("pi_p(p=%g)" % p, pi_p)
        line("(p-1)(pi_p/2)^p, p=%g" % p, (p - 1.0) * (pi_p / 2.0) ** p,
             "lambda(m=1, ball r=1)")
    line("sinh(1)", math.sinh(1.0))
    line("coth(1)", 1.0 / math.tanh(1.0))
    line("((1 - 0)/2)^2", ((1.0 - 0.0) / 2.0) ** 2,
         "theorem17(m=3, p=2, c=0, r=1, h=0)")
    line("((coth1 - 1/2)/3)^3", ((1.0 / math.tanh(1.0) - 0.5) / 3.0) ** 3,
         "theorem17(m=3, p=3, c=-1, r=1, h=0.5)")


def exact_ball_omega(p, t):
    """omega(t) of the flat unit ball for m = 1, with omega(0) = 1.

    The first integral (p-1)|omega'|^p + lam |omega|^p = lam, with
    lam = (p-1)(pi_p/2)^p, integrates to
    omega(t) = I^{-1}(1/p, 1 - 1/p; 1 - t)^{1/p}, I the regularized
    incomplete beta.  For p >= 2 this is scipy's inverse.  Below p = 2
    that inverse cannot be checked near the pole, where omega is flat, so
    each node is a bisection on omega of mpmath's betainc at 30 digits:
    from scipy's value +-1e-15 when that brackets the root, else from
    [0, 1], down to a bracket of 2e-16.
    """
    t = np.asarray(t, dtype=float)
    a = 1.0 / p
    guess = special.betaincinv(a, 1.0 - a, 1.0 - t) ** a
    if p >= 2.0:
        return guess
    with mpmath.workdps(30):
        ma = mpmath.mpf(1) / p

        def below(w, target):
            # w < omega(t), as I(w^p) increases with w
            return mpmath.betainc(ma, 1 - ma, 0, mpmath.mpf(w) ** p,
                                  regularized=True) < target

        out = []
        for ti, gi in zip(t.tolist(), guess.tolist()):
            target = 1 - mpmath.mpf(ti)
            lo, hi = gi - 1e-15, min(gi + 1e-15, 1.0)
            if not (lo >= 0.0 and below(lo, target)
                    and not below(hi, target)):
                lo, hi = 0.0, 1.0
            while hi - lo > 2e-16:
                mid = 0.5 * (lo + hi)
                if below(mid, target):
                    lo = mid
                else:
                    hi = mid
            out.append(0.5 * (lo + hi))
    return np.array(out)


def exact_annulus_peak(p, a, b):
    """max omega on the flat annulus (a, b), m = 1, with unit wall flux
    omega'(a) = 1: omega is (b - a)/pi_p times the p-sine of
    pi_p (t - a)/(b - a), symmetric about (a + b)/2, and peaks at
    (b - a)/pi_p."""
    return (b - a) * p * math.sin(math.pi / p) / (2.0 * math.pi)


def catenoid_chords():
    print("\n== catenoid extrinsic-distance oracles ==")
    # Arclength parametrization: rho = sqrt(1+s^2), z = asinh(s); the
    # ambient distance from the axis point at the neck-circle center is
    # t(s) = sqrt(rho^2 + z^2) = sqrt(1 + s^2 + asinh(s)^2).
    t = lambda s: math.sqrt(1.0 + s * s + math.asinh(s) ** 2)

    def t_prime(s):
        return (s + math.asinh(s) / math.sqrt(1.0 + s * s)) / t(s)

    line("asinh(1)", math.asinh(1.0))
    line("t(1)", t(1.0), "sqrt(2 + asinh(1)^2)")
    line("|t'(2)|", abs(t_prime(2.0)), "angle_cos at s=2")
    for r in (1.1, 1.2):
        smax = optimize.brentq(lambda s: t(s) - r, 1e-9, 5.0, xtol=1e-14)
        line("smax(r=%g)" % r, smax, "root of t(s)=r")


def solver_pins():
    print("\n== solver pins (refinement consistency, not independent) ==")
    pins = [(2.0, 2, 0.0), (3.0, 2, 0.0), (2.0, 3, 0.0), (2.0, 2, -1.0),
            (2.0, 2, 1.0), (2.5, 2, 1.0), (3.0, 2, -1.0)]
    for p, m, c in pins:
        prob = radial.RadialProblem(p, m, radial.space_form(c),
                                    radial.Ball(1.0))
        base = radial.solve_ball_eigenvalue(prob)
        fine = radial.solve_ball_eigenvalue(prob, tol=1e-14)
        line("lambda(%g,%d,%g)" % (p, m, c), base.lam,
             "tol=1e-14 drift %.1e" % abs(fine.lam - base.lam))
        radial.clear_solver_cache()


def march_closed_forms():
    print("\n== dense march vs p = 2 closed forms ==")
    # omega(t) for the computed lam on the flat unit ball: cos, J0 and
    # sin(x)/x for m = 1, 2, 3; the error is the march's alone.
    forms = {1: lambda x: np.cos(x), 2: special.j0,
             3: lambda x: np.sinc(x / math.pi)}
    for m, form in forms.items():
        sol = radial.solve_ball_eigenvalue(radial.ball_problem(2.0, m, 0.0,
                                                               1.0))
        for n in (2048, 16384):
            t = np.linspace(0.0, 1.0, n)
            w, _ = sol.evaluate(t)
            line("march err m=%d n=%d" % (m, n),
                 float(np.max(np.abs(w - form(math.sqrt(sol.lam) * t)))),
                 "max |omega - closed form|")
    radial.clear_solver_cache()


def scan_pins():
    print("\n== critical-radius scan pins (refinement consistency) ==")
    for p in (3.0, 4.0):
        prob = radial.RadialProblem(p, 2, radial.space_form(1.0),
                                    radial.Ball(1.4))
        sol = radial.solve_ball_eigenvalue(prob)
        for n in (16384, 32768):
            rep = critical.compute_r_star(sol, n=n)
            line("spherical margin p=%g n=%d" % (p, n),
                 rep.diagnostics["positivity_margin"])
        radial.clear_solver_cache()
    for p in (3.0, 4.0):
        prob = radial.RadialProblem(p, 2, radial.space_form(-1.0),
                                    radial.Ball(1.0))
        sol = radial.solve_ball_eigenvalue(prob)
        for n in (16384, 32768):
            rep = critical.compute_r_star(sol, n=n)
            line("hyperbolic r_star p=%g n=%d" % (p, n), rep.r_star)
        radial.clear_solver_cache()
    prob = radial.RadialProblem(3.0, 2, radial.space_form(0.0),
                                radial.Ball(1.0))
    sol = radial.solve_ball_eigenvalue(prob)
    for n in (16384, 32768):
        rep = critical.compute_r_star(sol, n=n)
        line("flat psi_min n=%d" % n, rep.diagnostics["psi_min"],
             "stays positive: no interior r_star")
        line("flat psi_final n=%d" % n, rep.diagnostics["psi_final"])
    radial.clear_solver_cache()


#: (kind, p, m, c, domain) of the pinned Rayleigh minima: domain is the
#: radius of a ball or catenoid band, or the (a, b) of an annulus.
RAYLEIGH_PINS = [
    ("ball", 1.5, 1, 0.0, 1.0),
    ("ball", 2.0, 2, 0.0, 1.0),
    ("ball", 3.0, 3, -1.0, 1.0),
    ("ball", 8.0, 2, 1.0, 1.0),
    ("annulus", 3.0, 2, 0.0, (0.5, 1.0)),
    ("catenoid", 3.0, 2, 0.0, 1.2),
]


def rayleigh_pin_grid(kind, p, m, c, domain):
    """The 2000-node grid of one RAYLEIGH_PINS entry: a band's Rayleigh
    grid, or the default grid of a radial problem."""
    if kind == "catenoid":
        band = surfaces.SurfaceBand.from_radius(
            surfaces.get_surface("catenoid"), domain)
        return surfaces._band_grid(band)
    if kind == "ball":
        shape = radial.Ball(domain)
    else:
        shape = radial.Annulus(*domain)
    prob = radial.RadialProblem(p, m, radial.space_form(c), shape)
    return rayleigh.Grid1D.from_problem(prob)


def rayleigh_pins():
    print("\n== discrete Rayleigh minima, n = 2000 (frozen outputs) ==")
    for kind, p, m, c, domain in RAYLEIGH_PINS:
        res = rayleigh.minimize_rayleigh(
            rayleigh_pin_grid(kind, p, m, c, domain), p)
        line("rayleigh %s(%g,%d,%g)" % (kind, p, m, c), res["lambda_est"],
             "%d iterations" % res["iterations"])


if __name__ == "__main__":
    closed_forms()
    catenoid_chords()
    solver_pins()
    march_closed_forms()
    scan_pins()
    rayleigh_pins()
