import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import RAYLEIGH_PINS, rayleigh_pin_grid
from ptone import radial, rayleigh
from ptone.radial import Annulus, Ball, RadialProblem, ball_problem
from ptone.modelspace import perturbed, space_form, tabulated
from ptone.rayleigh import (Grid1D, minimize_rayleigh, p_energy,
                            p_norm_mass, rayleigh_quotient)


def unit_ball_grid(n=400, m=2):
    problem = ball_problem(2.0, m, 0.0, 1.0)
    return Grid1D.from_problem(problem, n=n)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D([0.0, 1.0], [1.0, 1.0], (False, True))
    with pytest.raises(ValueError):
        Grid1D([0.0, 0.5, 0.4], [1.0, 1.0, 1.0], (False, True))
    with pytest.raises(ValueError):
        Grid1D([0.0, 0.5, 1.0], [1.0, 1.0], (False, True))
    with pytest.raises(ValueError):
        Grid1D([0.0, 0.5, 1.0], [1.0, -1.0, 1.0], (False, True))


_T = np.linspace(0.0, 1.05, 2001)
WEIGHT_PROFILES = (space_form(-1.0), perturbed(-1.0, 0.3),
                   tabulated(_T, np.sinh(_T), label="tab-sinh"))


def test_from_problem_ball():
    problem = ball_problem(2.0, 3, 0.0, 1.0)
    d = problem.domain
    assert (d.left, d.right, d.bc) == (0.0, 1.0, (False, True))
    grid = Grid1D.from_problem(problem, n=101)
    assert grid.n == 101
    assert grid.bc == (False, True)
    assert grid.weight[0] == 0.0                    # f^{m-1} at the pole
    assert grid.weight[50] == pytest.approx(grid.nodes[50] ** 2, rel=1e-12)
    # RadialProblem.weight is the one f^{m-1}, bit for bit.
    for prof in WEIGHT_PROFILES:
        for m in (2, 3):
            grid = Grid1D.from_problem(RadialProblem(3.0, m, prof, Ball(1.0)),
                                       n=64)
            expect = prof.eval(grid.nodes)[0] ** (m - 1)
            assert np.array_equal(grid.weight, expect), (prof.label, m)


def test_from_problem_m1_weight_is_one():
    problem = ball_problem(3.0, 1, 0.0, 1.0)
    grid = Grid1D.from_problem(problem, n=64)
    assert np.all(grid.weight == 1.0)
    for prof in WEIGHT_PROFILES:
        problem = RadialProblem(3.0, 1, prof, Ball(1.0))
        assert np.array_equal(problem.weight(grid.nodes), np.ones(64))


def test_from_problem_annulus():
    problem = RadialProblem(2.0, 2, space_form(0.0), Annulus(0.5, 1.5))
    d = problem.domain
    assert (d.left, d.right, d.bc) == (0.5, 1.5, (True, True))
    grid = Grid1D.from_problem(problem, n=64)
    assert grid.bc == (True, True)
    assert grid.nodes[0] == 0.5 and grid.nodes[-1] == 1.5


def test_grid_geometry_is_read_only():
    # Computed once per grid and shared by every minimizer iteration, so
    # a write through one caller must not change the next quotient.
    grid = Grid1D([0.0, 0.1, 0.3, 0.6, 1.0], [0.0, 1.0, 2.0, 3.0, 4.0],
                  (False, True))
    assert_allclose(grid.cell_sizes(), [0.1, 0.2, 0.3, 0.4], rtol=1e-15)
    assert_allclose(grid.dual_sizes(), [0.05, 0.15, 0.25, 0.35, 0.2],
                    rtol=1e-15)
    assert_allclose(grid._wmid, [0.5, 1.5, 2.5, 3.5], rtol=1e-15)
    for arr in (grid.cell_sizes(), grid.dual_sizes(), grid._wmid):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_boundary_profile_is_distance_field():
    grid = unit_ball_grid(n=11)
    prof = np.asarray(grid.boundary_profile())
    assert prof[-1] == 0.0
    assert prof[0] == pytest.approx(1.0)            # distance to t = 1
    grid2 = Grid1D([0.0, 0.25, 0.5, 0.75, 1.0], np.ones(5), (True, True))
    prof2 = np.asarray(grid2.boundary_profile())
    assert prof2[0] == prof2[-1] == 0.0
    assert prof2[2] == pytest.approx(0.5)
    free = Grid1D([0.0, 0.5, 1.0], np.ones(3), (False, False))
    with pytest.raises(ValueError):
        free.boundary_profile()


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_p_energy_linear_field(p):
    grid = Grid1D(np.linspace(0.0, 1.0, 21), np.ones(21), (False, True))
    u = 1.0 - grid.nodes
    assert p_energy(u, grid, p) == pytest.approx(1.0, rel=1e-12)
    assert p_norm_mass(np.ones(21), grid, p) == pytest.approx(1.0,
                                                              rel=1e-12)


def test_bc_enforced():
    grid = unit_ball_grid(n=16)
    with pytest.raises(ValueError):
        p_energy(np.ones(grid.n), grid, 2.0)
    with pytest.raises(ValueError):
        rayleigh_quotient(np.zeros(grid.n), grid, 2.0)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3),
       st.sampled_from([1.5, 2.0, 3.0]))
def test_quotient_scale_invariance(scale, p):
    grid = Grid1D(np.linspace(0.0, 1.0, 33), np.ones(33), (False, True))
    rng = np.random.default_rng(7)
    u = rng.uniform(0.1, 1.0, 33)
    u[-1] = 0.0
    base = rayleigh_quotient(u, grid, p)
    assert rayleigh_quotient(scale * u, grid, p) == pytest.approx(
        base, rel=1e-12)


def test_string_quotient_of_sine():
    # u = sin(pi t) on the unit string: continuum quotient pi^2.
    grid = Grid1D(np.linspace(0.0, 1.0, 2001), np.ones(2001), (True, True))
    u = np.sin(math.pi * grid.nodes)
    u[0] = u[-1] = 0.0
    assert rayleigh_quotient(u, grid, 2.0) == pytest.approx(math.pi ** 2,
                                                            rel=1e-4)


@pytest.mark.parametrize("p,m,c", [(2.0, 3, 0.0), (3.0, 2, 0.0),
                                   (2.0, 2, -1.0), (1.5, 2, 1.0)])
def test_minimize_matches_shooting(p, m, c):
    problem = ball_problem(p, m, c, 1.0)
    lam = radial.solve_ball_eigenvalue(problem).lam
    res = minimize_rayleigh(Grid1D.from_problem(problem, n=2000), p)
    assert res["lambda_est"] == pytest.approx(lam, rel=1e-3)
    assert res["iterations"] > 0


def test_minimizer_is_ground_state():
    problem = ball_problem(2.5, 2, 0.0, 1.0)
    grid = Grid1D.from_problem(problem, n=500)
    res = minimize_rayleigh(grid, 2.5)
    u = np.asarray(res["u_min"])
    assert np.all(u[:-1] > 0.0) and u[-1] == 0.0
    assert p_norm_mass(u, grid, 2.5) == pytest.approx(1.0, rel=1e-8)
    assert rayleigh_quotient(u, grid, 2.5) == pytest.approx(
        res["lambda_est"], rel=1e-12)
    # any admissible competitor sits at or above the minimum
    rng = np.random.default_rng(11)
    for _ in range(5):
        v = rng.uniform(0.05, 1.0, grid.n)
        v[-1] = 0.0
        assert rayleigh_quotient(v, grid, 2.5) >= res["lambda_est"] - 1e-9


def test_minimize_accepts_custom_init():
    problem = ball_problem(2.0, 2, 0.0, 1.0)
    grid = Grid1D.from_problem(problem, n=300)
    init = 1.0 - grid.nodes ** 2
    res = minimize_rayleigh(grid, 2.0, init=init)
    lam = radial.solve_ball_eigenvalue(problem).lam
    assert res["lambda_est"] == pytest.approx(lam, rel=1e-3)


def test_minimize_near_p_one():
    # At p = 1.1 the slope is the tenth power of the flux, so descent on
    # the quotient crawls; inverse iteration does not.
    problem = ball_problem(1.1, 2, 0.0, 1.0)
    lam = radial.solve_ball_eigenvalue(problem).lam
    res = minimize_rayleigh(Grid1D.from_problem(problem, n=2000), 1.1)
    assert res["iterations"] <= 20
    assert res["lambda_est"] == pytest.approx(lam, rel=1e-6)


def test_minimize_annulus_p8_matches_descent():
    problem = RadialProblem(8.0, 1, space_form(0.0), Annulus(0.5, 1.0))
    grid = Grid1D.from_problem(problem, n=2000)
    res = minimize_rayleigh(grid, 8.0)
    assert res["iterations"] <= 30
    assert res["lambda_est"] == pytest.approx(564078.399949072, rel=1e-8)
    assert rayleigh_quotient(res["u_min"], grid, 8.0) == res["lambda_est"]


@pytest.mark.parametrize("p,m,n", [(8.0, 1, 2000), (12.0, 1, 2000),
                                   (16.0, 2, 1000), (16.0, 3, 500)])
def test_minimize_annulus_large_p_stops_at_minimum(p, m, n):
    # Between two Dirichlet ends the iterates drive one cell's flux to
    # zero, where one ulp of the flux constant moves the slope by about
    # ulp^{1/(p-1)}.  Left in a wall cell, the root's miss made the
    # quotient jump by up to 3e-4 and the stop rule end early; no later
    # iterate may sit below the reported minimum.
    problem = RadialProblem(p, m, space_form(0.0), Annulus(0.5, 1.0))
    grid = Grid1D.from_problem(problem, n=n)
    res = minimize_rayleigh(grid, p)
    u = np.asarray(res["u_min"])
    for _ in range(30):
        u = rayleigh._inverse_step(u, grid, p)
        u /= p_norm_mass(u, grid, p) ** (1.0 / p)
        assert rayleigh_quotient(u, grid, p) >= res["lambda_est"] * (
            1.0 - 1e-12)


# Minima of the projected preconditioned descent this minimizer replaced,
# printed by tests/oracles.py (rayleigh_pins) on that code.  At p = 1.5 the
# descent stopped at its own tolerance, 1.3e-11 above the minimum for the
# m = 1 ball, so that pin holds to 5e-11; the others hold to 1e-12.
RAYLEIGH_PIN_VALUES = [1.8804507250428009, 5.7831864873240768,
                       21.237220491720091, 39.730137594418487,
                       223.16754921211867, 33.867721845847733]


@pytest.mark.parametrize("pin,value", zip(RAYLEIGH_PINS, RAYLEIGH_PIN_VALUES),
                         ids=["%s-p%g" % (pin[0], pin[1])
                              for pin in RAYLEIGH_PINS])
def test_minimum_matches_pin(pin, value):
    p = pin[1]
    res = minimize_rayleigh(rayleigh_pin_grid(*pin), p)
    assert res["lambda_est"] == pytest.approx(
        value, rel=1e-12 if p >= 2 else 5e-11)


def test_minimize_iteration_cap_is_non_convergence():
    problem = RadialProblem(3.0, 2, space_form(0.0), Annulus(0.5, 1.0))
    grid = Grid1D.from_problem(problem, n=200)
    with pytest.raises(radial.NonConvergenceError) as info:
        minimize_rayleigh(grid, 3.0, max_iter=1)
    msg = str(info.value)
    assert "p=3" in msg and "n=200" in msg and "(True, True)" in msg
    assert "quotients" in msg


def test_minimize_rejects_grid_without_dirichlet_end():
    grid = Grid1D([0.0, 0.5, 1.0], np.ones(3), (False, False))
    with pytest.raises(ValueError):
        minimize_rayleigh(grid, 2.0, init=np.ones(3))


def test_minimize_left_dirichlet_end_mirrors_ball():
    # A grid pinned only at its left end is the mirror image of one
    # pinned only at its right end.
    t = np.linspace(0.0, 1.0, 401)
    w = 1.0 + t ** 2
    right = minimize_rayleigh(Grid1D(t, w, (False, True)), 3.0)
    left = minimize_rayleigh(Grid1D(1.0 - t[::-1], w[::-1], (True, False)),
                             3.0)
    assert left["lambda_est"] == pytest.approx(right["lambda_est"],
                                               rel=1e-12)
    assert_allclose(np.asarray(left["u_min"])[::-1],
                    np.asarray(right["u_min"]), rtol=1e-9, atol=1e-12)
