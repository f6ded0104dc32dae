import math

import numpy as np
import pytest

from ptone import critical, radial
from ptone.critical import compute_r_star, flat_identity_check
from ptone.radial import ball_problem


def solved(p, m, c, r=1.0):
    return radial.solve_ball_eigenvalue(ball_problem(p, m, c, r))


@pytest.mark.parametrize("c,r", [(-1.0, 1.0), (0.0, 1.0), (1.0, 1.4)])
def test_p2_certifies_full_radius(c, r):
    sol = solved(2.0, 2, c, r)
    rep = compute_r_star(sol)
    assert rep.r_star == r
    assert rep.method == "Direct-W"
    assert rep.min_margin >= -1e-9 * sol.lam
    assert rep.diagnostics["min_phi"] > 0.0


@pytest.mark.parametrize("p,margin_ref", [(3.0, 1.0230038076662218),
                                          (4.0, 0.2813956582480785)])
def test_spherical_full_radius_with_positive_margin(p, margin_ref):
    sol = solved(p, 2, 1.0, 1.4)
    rep = compute_r_star(sol)
    assert rep.r_star == 1.4
    assert rep.diagnostics["positivity_margin"] == pytest.approx(
        margin_ref, rel=1e-6)


@pytest.mark.parametrize("p,rstar_ref", [(3.0, 0.99554416163095893),
                                         (4.0, 0.721784776903)])
def test_hyperbolic_interior_critical_radius(p, rstar_ref):
    sol = solved(p, 2, -1.0, 1.0)
    rep = compute_r_star(sol)
    assert rep.method == "Integral-LHS"
    assert 0.0 < rep.r_star < 1.0
    assert rep.r_star == pytest.approx(rstar_ref, rel=1e-6)
    assert rep.min_margin >= -1e-9 * sol.lam


def test_hyperbolic_r_star_stable_under_refinement():
    sol = solved(3.0, 2, -1.0, 1.0)
    coarse = compute_r_star(sol, n=8192)
    fine = compute_r_star(sol, n=16384)
    assert abs(coarse.r_star - fine.r_star) <= 2.0 / 8191.0


def test_flat_scan_stays_positive():
    # The flat integrand's cumulative integral never crosses zero, so the
    # scan certifies the full radius; frozen diagnostics document it.
    sol = solved(3.0, 2, 0.0, 1.0)
    rep = compute_r_star(sol)
    assert rep.r_star == 1.0
    assert rep.method == "Integral-LHS"
    assert rep.diagnostics["psi_min"] > 0.0
    assert rep.diagnostics["psi_final"] == pytest.approx(
        0.072691320615551558, rel=1e-6)
    # both readings of the boundary value of the flat integrand factor
    assert rep.diagnostics["phi0_r_displayed"] < 0.0
    assert rep.diagnostics["phi0_r_pm1"] < 0.0


@pytest.mark.parametrize("p,m", [(3.0, 2), (3.0, 4), (8.0, 2)])
def test_flat_W_below_barrier(p, m):
    # Integrating the radial equation with omega decreasing gives
    # W <= lam (2-p) |omega|^{p-1} / m on the whole flat ball, whether or
    # not the scan returns an interior radius.
    sol = solved(p, m, 0.0, 1.0)
    rep = compute_r_star(sol)
    barrier = (sol.lam * (2.0 - p) * np.abs(rep.omega_samples) ** (p - 1.0)
               / m)
    assert np.all(rep.W_samples <= barrier + 1e-9 * sol.lam)


def test_compute_r_star_validation():
    sol = solved(1.5, 2, 0.0, 1.0)
    with pytest.raises(ValueError):
        compute_r_star(sol)                         # p < 2
    with pytest.raises(ValueError):
        compute_r_star(solved(2.0, 2, 1.0, 1.6))    # r beyond pi/2
    with pytest.raises(ValueError):
        compute_r_star(solved(2.0, 2, 2.0, 1.0))    # c outside {-1, 0, 1}


@pytest.mark.parametrize("p,m", [(2.5, 2), (3.0, 3)])
def test_flat_identity(p, m):
    sol = solved(p, m, 0.0, 1.0)
    t, integral, lhs, sup_rel = flat_identity_check(sol)
    assert sup_rel <= 1e-4
    assert t.shape == integral.shape == lhs.shape
    assert np.all(np.diff(t) > 0)


def test_flat_identity_rejects_curved_solutions():
    sol = solved(2.5, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        flat_identity_check(sol)


@pytest.fixture
def evaluate_calls(monkeypatch):
    """Node counts of every RadialSolution.evaluate call."""
    calls = []
    original = radial.RadialSolution.evaluate

    def counted(self, t):
        calls.append(int(np.size(t)))
        return original(self, t)

    monkeypatch.setattr(radial.RadialSolution, "evaluate", counted)
    return calls


@pytest.mark.parametrize("p,c,r", [(2.0, 0.0, 1.0), (3.0, 1.0, 1.4),
                                   (3.0, -1.0, 1.0), (3.0, 0.0, 1.0)])
def test_scan_marches_once(evaluate_calls, p, c, r):
    # every branch of the scan derives W, the case integrand and its
    # diagnostics from one evaluation of the solution on the scan grid
    sol = solved(p, 2, c, r)
    del evaluate_calls[:]
    rep = compute_r_star(sol, n=4096)
    assert evaluate_calls == [4096]
    assert rep.omega_samples.shape == rep.t_samples.shape == (4096,)


def test_flat_identity_marches_once(evaluate_calls):
    # the check reads the solution's own arrays, which criterion 4 has
    # already built on the same cached solutions: no further march
    sol = solved(2.5, 2, 0.0, 1.0)
    del evaluate_calls[:]
    t, _, _, _ = flat_identity_check(sol)
    assert evaluate_calls == []
    assert t is sol.grid
