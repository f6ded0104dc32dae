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


def rayleigh_pin_grid(kind, p, m, c, domain, n=2000):
    """The n-node grid of one RAYLEIGH_PINS entry."""
    if kind == "catenoid":
        band = surfaces.SurfaceBand.from_radius(
            surfaces.get_surface("catenoid"), domain)
        return surfaces._band_grid(band, n)
    if kind == "ball":
        shape = radial.Ball(domain)
    else:
        shape = radial.Annulus(*domain)
    prob = radial.RadialProblem(p, m, radial.space_form(c), shape)
    return rayleigh.Grid1D.from_problem(prob, n=n)


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
