import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptone import bounds, modelspace, radial, rayleigh
from ptone.bounds import (barta_bound, div_field_bound,
                          div_identity_residual, eigen_field,
                          kazdan_source, kazdan_transform,
                          meancurv_threshold, picone_defect,
                          stability_criterion_immersion,
                          stability_criterion_meancurv, stability_functional,
                          theorem17_bound, transplant_barta_certificate)
from ptone.radial import Ball, RadialProblem, ball_problem


def solved(p, m, c, r=1.0):
    problem = ball_problem(p, m, c, r)
    return problem, radial.solve_ball_eigenvalue(problem)


# Barta


@pytest.mark.parametrize("p,m,c", [(2.0, 3, 0.0), (3.0, 2, -1.0),
                                   (1.5, 2, 1.0)])
def test_barta_sharp_at_eigenfunction(p, m, c):
    problem, sol = solved(p, m, c)
    cert = barta_bound(sol.omega, problem)
    assert cert.kind == "barta"
    assert cert.value == pytest.approx(sol.lam, rel=1e-4)
    assert not cert.vacuous


def test_barta_strictly_below_for_non_eigenfunction():
    problem, sol = solved(2.0, 2, 0.0)
    eta = np.cos(math.pi * sol.grid / 2.0)  # wrong profile, right sign
    cert = barta_bound(eta, problem)
    assert cert.value < sol.lam
    assert cert.value > 0.0


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3))
def test_barta_zero_homogeneous(scale):
    problem, sol = solved(2.5, 2, 0.0)
    base = barta_bound(sol.omega, problem).value
    scaled = barta_bound(scale * sol.omega, problem).value
    assert scaled == pytest.approx(base, rel=1e-9)


def test_barta_default_nodes_and_validation():
    problem, sol = solved(2.0, 2, 0.0)
    t = np.linspace(0.0, 1.0, 2048)       # the uniform grid of 2048 nodes
    cert = barta_bound(1.0 - t * t, problem)
    assert 0.0 < cert.value <= sol.lam * (1.0 + 1e-9)
    with pytest.raises(ValueError):
        barta_bound(sol.omega - 2.0, problem)  # sign change


# Picone


def test_picone_nonnegative_seeded():
    rng = np.random.default_rng(3)
    for p in (1.5, 2.0, 3.0):
        u = rng.uniform(0.05, 3.0, 4096)
        v = rng.uniform(0.05, 3.0, 4096)
        gu = rng.uniform(-3.0, 3.0, 4096)
        gv = rng.uniform(-3.0, 3.0, 4096)
        d = picone_defect(u, gu, v, gv, p)
        scale = np.abs(gu) ** p + (u / v) ** p * np.abs(gv) ** p + 1e-30
        assert float(np.min(d / scale)) >= -1e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.05, max_value=20.0),
       st.floats(min_value=0.05, max_value=20.0),
       st.floats(min_value=-20.0, max_value=20.0),
       st.floats(min_value=-20.0, max_value=20.0),
       st.sampled_from([1.5, 2.0, 2.5, 3.0, 4.0]))
def test_picone_nonnegative_property(u, v, gu, gv, p):
    w = u / v
    scale = abs(gu) ** p + (p - 1) * w ** p * abs(gv) ** p \
        + p * w ** (p - 1) * abs(gv) ** (p - 1) * abs(gu)
    assert picone_defect(u, gu, v, gv, p) >= -1e-12 * max(scale, 1e-30)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.05, max_value=5.0),
       st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=0.1, max_value=10.0))
def test_picone_vanishes_on_proportional_pairs(u, gu, factor):
    d = picone_defect(u, gu, factor * u, factor * gu, 3.0)
    assert abs(d) <= 1e-12 * max(abs(gu) ** 3, 1e-30)


# divergence-field route


@pytest.mark.parametrize("p,m,c", [(2.0, 2, 0.0), (3.0, 3, 1.0),
                                   (1.5, 2, -1.0)])
def test_div_field_bound_sharp(p, m, c):
    problem, sol = solved(p, m, c)
    cert = div_field_bound(eigen_field(sol), problem)
    assert cert.value == pytest.approx(sol.lam, rel=1e-4)
    assert div_identity_residual(sol) <= 1e-6


# closed-form barrier and stability arithmetic


def test_theorem17_fixtures():
    assert theorem17_bound(3, 2.0, 0.0, 1.0).value == pytest.approx(
        0.25, abs=1e-12)
    ref = ((1.0 / math.tanh(1.0) - 0.5) / 3.0) ** 3
    assert theorem17_bound(3, 3.0, -1.0, 1.0, h=0.5).value == pytest.approx(
        ref, abs=1e-12)


def test_theorem17_is_a_lower_bound():
    problem, sol = solved(2.0, 3, 0.0)
    cert = theorem17_bound(3, 2.0, 0.0, 1.0)
    assert cert.value <= sol.lam


def test_theorem17_vacuous_bracket():
    cert = theorem17_bound(3, 2.0, 0.0, 1.0, h=3.0)
    assert cert.vacuous


def test_stability_criterion_immersion():
    assert stability_criterion_immersion(0.5, 1.0, 2.0, 1.0)
    assert stability_criterion_immersion(2.0, 0.0, 2.0, 4.0)  # k moot at p=2
    assert not stability_criterion_immersion(2.0, 0.0, 2.0, 1.5)
    assert not stability_criterion_immersion(0.1, 0.0, 3.0, 10.0)
    assert stability_criterion_immersion(1.0, 0.5, 3.0, 4.0)


def test_stability_criterion_meancurv():
    assert meancurv_threshold(2, 2.0, 1.2) == pytest.approx(1.0 / 2.4)
    assert not stability_criterion_meancurv(math.sqrt(2.0), 2, 2.0, 1.2)
    assert stability_criterion_meancurv(0.4, 2, 2.0, 1.2)
    with pytest.raises(ValueError):
        stability_criterion_meancurv(-1.0, 2, 2.0, 1.0)


def test_stability_functional_zero_at_eigenpair():
    problem, _ = solved(2.5, 2, 0.0)
    grid = rayleigh.Grid1D.from_problem(problem, n=500)
    res = rayleigh.minimize_rayleigh(grid, 2.5)
    q = stability_functional(res["u_min"], res["lambda_est"], grid, 2.5)
    energy = rayleigh.p_energy(res["u_min"], grid, 2.5)
    assert abs(q) <= 1e-10 * energy
    # lowering the potential makes the functional strictly positive
    q_low = stability_functional(res["u_min"], 0.5 * res["lambda_est"],
                                 grid, 2.5)
    assert q_low > 0.0


# transplant certificate


def test_transplant_certificate_hyperbolic_dominates_flat():
    _, flat = solved(2.5, 2, 0.0)
    warped = RadialProblem(2.5, 2, modelspace.space_form(-1.0), Ball(1.0))
    cert = transplant_barta_certificate(flat, warped)
    assert cert.value >= flat.lam * (1.0 - 1e-6)
    assert cert.data["lambda_flat"] == flat.lam
    assert 0.0 < cert.data["argmin_t"] <= 1.0


def test_transplant_certificate_flat_equality_is_exact():
    _, flat = solved(3.0, 2, 0.0)
    same = RadialProblem(3.0, 2, modelspace.space_form(0.0), Ball(1.0))
    cert = transplant_barta_certificate(flat, same)
    assert cert.value == flat.lam


# Kazdan transform


def test_kazdan_transform_requires_positive_input():
    with pytest.raises(ValueError):
        kazdan_transform(np.array([1.0, 0.0, 2.0]))


def test_kazdan_source_equals_lambda_at_eigenfunction():
    problem, sol = solved(2.0, 2, 0.0)
    keep = sol.grid <= 0.9
    nodes = sol.grid[keep]
    psi = kazdan_source(kazdan_transform(sol.omega[keep]), problem, nodes)
    window = nodes[1:-1] >= 0.05
    assert float(np.max(np.abs(psi[window] - sol.lam))) <= 1e-3 * sol.lam


def test_kazdan_source_sandwiches_lambda_for_other_profiles():
    problem, sol = solved(2.0, 2, 0.0)
    nodes = sol.grid[sol.grid <= 0.96]
    phi = 1.0 - nodes ** 2
    psi = kazdan_source(kazdan_transform(phi), problem, nodes)
    window = nodes[1:-1] >= 0.05
    assert float(np.min(psi[window])) <= sol.lam <= float(
        np.max(psi[window]))
