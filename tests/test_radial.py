import itertools
import math
import re
import warnings
from array import array
from types import MappingProxyType, SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import RK45, solve_ivp
from scipy.special import j0, jn_zeros

import oracles
from conftest import _assert_no_child_left, _cpus
from ptone import _ode, acceptance, modelspace, radial
from ptone.radial import (Annulus, Ball, RadialProblem, ball_problem,
                          eigen_equation_residual, pi_p,
                          scaled_eigenvalue, signed_power,
                          solve_annulus_eigenvalue, solve_ball_eigenvalue)


def test_pi_p_values():
    assert pi_p(2.0) == pytest.approx(math.pi, rel=1e-15)
    for p in (1.5, 3.0, 4.0):
        assert pi_p(p) == pytest.approx(
            2.0 * math.pi / (p * math.sin(math.pi / p)), rel=1e-14)


def test_signed_power():
    assert signed_power(2.0, 3.0) == 8.0
    assert signed_power(-2.0, 3.0) == -8.0
    assert signed_power(-4.0, 0.5) == -2.0
    assert signed_power(0.0, 0.3) == 0.0
    assert_allclose(signed_power(np.array([-1.0, 0.0, 9.0]), 0.5),
                    [-1.0, 0.0, 3.0])


# closed-form spectral references


def test_flat_ball_m3_is_pi_squared():
    sol = solve_ball_eigenvalue(ball_problem(2.0, 3, 0.0, 1.0))
    assert sol.lam == pytest.approx(math.pi ** 2, rel=1e-7)


def test_j01_literal_matches_scipy():
    assert acceptance.J01 == pytest.approx(float(jn_zeros(0, 1)[0]),
                                           rel=1e-15)


def test_flat_ball_m2_is_bessel_zero_squared():
    sol = solve_ball_eigenvalue(ball_problem(2.0, 2, 0.0, 1.0))
    assert sol.lam == pytest.approx(float(jn_zeros(0, 1)[0]) ** 2, rel=1e-7)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0, 8.0, 12.0, 16.0])
def test_one_dimensional_string(p):
    # Two-sided: at large p the shot's integration error exceeds the
    # bracket width, and lam lands above the closed form (2.0e-10 at
    # p = 16), so the zero-free end is no lower bound there.
    sol = solve_ball_eigenvalue(ball_problem(p, 1, 0.0, 1.0))
    assert sol.lam == pytest.approx((p - 1.0) * (pi_p(p) / 2.0) ** p,
                                    rel=1e-9)


# Unit-ball eigenvalues at the default tolerance (tests/oracles.py).
FROZEN_UNIT_BALL = {
    (2.0, 2, 0.0): 5.7831859629434943,
    (3.0, 2, 0.0): 9.8314984046049609,
    (2.0, 3, 0.0): 9.86960440108437,
    (2.0, 2, -1.0): 6.113081819708639,
    (2.0, 2, 1.0): 5.4459932747994291,
    (2.5, 2, 1.0): 7.265442334299653,
    (3.0, 2, -1.0): 10.392918901063121,
}


@pytest.mark.parametrize("p,m,c,lam_1e8", [
    (2.0, 2, 0.0, 5.7831859436989781),
    (3.0, 2, 0.0, 9.8314983848569035),
    (2.0, 3, 0.0, 9.8696043860151086),
    (2.0, 2, -1.0, 6.1130817990812947),
    (2.0, 2, 1.0, 5.4459932484991125),
    (2.5, 2, 1.0, 7.2654423116121389),
    (3.0, 2, -1.0, 10.392918869985543),
])
def test_frozen_unit_ball_eigenvalues(p, m, c, lam_1e8):
    # lam_1e8 is the zero-free lower end of a bisection bracket 1e-8 wide
    # (relative) on the same shots, so the eigenvalue lies above it and
    # within that width of it.
    sol = solve_ball_eigenvalue(ball_problem(p, m, c, 1.0))
    assert sol.lam == pytest.approx(FROZEN_UNIT_BALL[(p, m, c)], rel=1e-9)
    assert lam_1e8 < sol.lam <= lam_1e8 * (1.0 + 1e-8)


@pytest.mark.parametrize("p,m", [(2.0, 2), (3.0, 3), (1.5, 1)])
def test_scaling_law(p, m):
    lam1 = solve_ball_eigenvalue(ball_problem(p, m, 0.0, 1.0)).lam
    for r in (0.5, 2.0):
        lam_r = solve_ball_eigenvalue(ball_problem(p, m, 0.0, r)).lam
        assert lam_r == pytest.approx(scaled_eigenvalue(lam1, r, p),
                                      rel=1e-8)


def test_curvature_monotonicity_single_case():
    lam = {c: solve_ball_eigenvalue(ball_problem(2.5, 2, c, 1.0)).lam
           for c in (-1.0, 0.0, 1.0)}
    assert lam[-1.0] > lam[0.0] > lam[1.0]


def test_annulus_m3_flat_is_pi_squared():
    # u = v/t turns the radial m=3 problem on (1,2) into v'' + lam v = 0.
    prob = RadialProblem(2.0, 3, modelspace.space_form(0.0), Annulus(1., 2.))
    sol = solve_annulus_eigenvalue(prob)
    assert sol.lam == pytest.approx(math.pi ** 2, rel=1e-7)
    # normalized by the true (off-grid) peak: grid max is 1 - O(h^2)
    assert 1.0 - 1e-6 <= np.max(sol.omega) <= 1.0 + 1e-12
    assert abs(sol.omega[0]) <= 1e-8 and abs(sol.omega[-1]) <= 1e-8


@pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 8.0])
def test_annulus_grid_matches_scalar_evaluate(p):
    # omega' ~ |Phi|^(1/(p-1)) is not smooth at the interior peak, where
    # the flux crosses zero, and for p < 2 Phi' ~ |omega|^(p-1) is not
    # smooth at the walls; the grid march must still agree with scalar
    # queries of the adaptive trajectory at every node.
    prob = RadialProblem(p, 2, modelspace.space_form(0.0), Annulus(0.5, 1.))
    sol = solve_annulus_eigenvalue(prob)
    scalar = np.array([sol.evaluate(float(t))[0] for t in sol.grid])
    assert np.max(np.abs(sol.omega - scalar)) <= 1e-8


@pytest.mark.parametrize("n", [2048, 16384])
@pytest.mark.parametrize("m,form", [
    (1, lambda k, t: np.cos(k * t)),
    (2, lambda k, t: j0(k * t)),
    (3, lambda k, t: np.sinc(k * t / math.pi)),     # sin(kt)/(kt)
], ids=["m1", "m2", "m3"])
def test_march_matches_p2_closed_forms(m, form, n):
    # At p = 2 the flat unit ball's eigenfunction is known in closed form
    # for the computed lam; the dense march must reproduce it to rounding.
    # The RK4 march read 5.4e-15, 3.0e-15 and 2.4e-14 on 2048 nodes.
    sol = solve_ball_eigenvalue(ball_problem(2.0, m, 0.0, 1.0))
    t = np.linspace(0.0, 1.0, n)
    w, _ = sol.evaluate(t)
    tol = 2.5e-15 if n == 2048 else 7e-15
    assert np.max(np.abs(w - form(math.sqrt(sol.lam), t))) <= tol


def _refined(sol, n_grid):
    """A fresh solution from sol's shot on n_grid nodes: its own march,
    node to node, independent of sol's (a record with no builds)."""
    return radial.RadialSolution(sol.problem, (sol.lam, sol._ts, sol._ys,
                                               sol.iterations, {}), n_grid)


@pytest.mark.parametrize("p,m,c", [
    (p, m, 0.0) for p in (8.0, 12.0, 16.0) for m in (1, 2)
] + [(16.0, 2, 1.0), (16.0, 2, -1.0)])
def test_grid_matches_eightfold_march(p, m, c):
    # The 2048-node grid must agree with a march over 8 times the nodes
    # (every 8th node compared), stepped node to node, to rounding.
    # Started from the pole expansion at the node step h instead of at
    # t0, the grid was 1.9e-9 off in omega (p = 16, m = 1) and 3.5e-7 in
    # omega' (p = 16, m = 2).
    sol = solve_ball_eigenvalue(ball_problem(p, m, c, 1.0), use_cache=False)
    fine = _refined(sol, 8 * 2047 + 1)
    assert np.max(np.abs(sol.omega - fine.omega[::8])) <= 1e-13
    assert (np.max(np.abs(sol.omega_prime - fine.omega_prime[::8]))
            <= 1e-13 * np.max(np.abs(fine.omega_prime)))


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 8.0, 12.0, 16.0])
def test_scan_matches_eightfold_march(p):
    # A dense scan reads every node off the dense output of the 2048-node
    # grid's steps.  It must agree with a grid over 8 times the gaps,
    # marched node to node on its own steps: omega to 5e-13, omega' to
    # 5e-13 of its maximum, at every node of the finer grid.
    for m in (1, 2, 3):
        for c in (-1.0, 0.0, 1.0):
            sol = solve_ball_eigenvalue(ball_problem(p, m, c, 1.0))
            fine = _refined(sol, 8 * 2047 + 1)
            w, wp = sol.evaluate(fine.grid)
            assert np.max(np.abs(w - fine.omega)) <= 5e-13
            assert (np.max(np.abs(wp - fine.omega_prime))
                    <= 5e-13 * np.max(np.abs(fine.omega_prime)))


@pytest.mark.parametrize("n", [5, 100, 257, 1024])
def test_coarse_grid_matches_eightfold_march(n):
    # A grid of at most _ANCHOR_STEPS nodes splits each gap into steps no
    # longer than span / _ANCHOR_STEPS.  Like the 2048-node grid, it must
    # agree with a grid over 8 times the gaps to 5e-13 (omega' relative
    # to its maximum), every 8th node compared.
    for p, m, c in ((1.5, 3, -1.0), (4.0, 3, 1.0), (16.0, 1, 0.0)):
        sol = solve_ball_eigenvalue(ball_problem(p, m, c, 1.0), n_grid=n)
        fine = _refined(sol, 8 * (n - 1) + 1)
        assert np.max(np.abs(sol.omega - fine.omega[::8])) <= 5e-13
        assert (np.max(np.abs(sol.omega_prime - fine.omega_prime[::8]))
                <= 5e-13 * np.max(np.abs(fine.omega_prime)))


@pytest.mark.parametrize("problem,tol_w,tol_wp", [
    (ball_problem(1.2, 2, 0.0, 1.0), 1e-11, 1e-10),
    (RadialProblem(4.0, 2, modelspace.space_form(0.0), Annulus(0.5, 1.)),
     1e-11, 1e-10),
    (RadialProblem(8.0, 2, modelspace.space_form(0.0), Annulus(0.5, 1.)),
     1e-11, 1e-10),
], ids=["ball-p1.2", "annulus-p4", "annulus-p8"])
def test_march_matches_dop853(problem, tol_w, tol_wp):
    # The field is not smooth at the walls for p < 2 and at an annulus's
    # interior peak for p > 2.  The grid must still match an independent
    # integration (scipy's DOP853 at rtol 1e-13) from the same start.
    # Four RK4 sub-steps per gap, graded only within one gap of the peak,
    # were 9.8e-5 off in omega' on the ball and 9.0e-11 off in omega on
    # both annuli.
    sol = (solve_ball_eigenvalue(problem) if problem.domain.kind == "ball"
           else solve_annulus_eigenvalue(problem))
    t = sol.grid[1:]
    ref = solve_ivp(lambda s, y: sol._rhs(s, y[0], y[1]),
                    (sol._ts[0], t[-1]), list(sol._ys[0]), method="DOP853",
                    rtol=1e-13, atol=1e-15, t_eval=t)
    w = ref.y[0] * sol._scale
    wp = radial._omega_prime(problem, t,
                             ref.y[1] * sol._scale ** (problem.p - 1.0))
    assert np.max(np.abs(sol.omega[1:] - w)) <= tol_w
    assert np.max(np.abs(sol.omega_prime[1:] - wp)) <= tol_wp


@pytest.mark.parametrize("p", [3.0, 4.0, 8.0])
def test_annulus_peak_matches_dop853(p):
    # An annulus solution is normalized by omega at the flux zero.  An
    # independent integration (scipy's DOP853, stopped by an event at
    # Phi = 0) must agree on that value.  The field is not smooth there:
    # one plain step from the mesh node before the zero is up to 5.8e-10
    # off (p = 4).
    prob = RadialProblem(p, 2, modelspace.space_form(0.0), Annulus(0.5, 1.))
    sol = solve_annulus_eigenvalue(prob)

    def flux_zero(s, y):
        return y[1]
    flux_zero.terminal = True
    ref = solve_ivp(lambda s, y: sol._rhs(s, y[0], y[1]), (0.5, 1.0),
                    [0.0, 1.0], method="DOP853", rtol=3e-14, atol=1e-18,
                    events=flux_zero)
    peak = ref.y_events[0][0][0]
    assert abs(1.0 / sol._scale - peak) <= 1e-11 * peak


def _pointwise_plan(nodes, start, points, span):
    """The steps of a march from start over sorted nodes, decided node by
    node.

    A plain gap takes one step.  A graded gap passes the points
    (s, ratio, order) near it and the domain's length, which set how deep
    its cuts go toward each point.
    """
    plan, t_prev = [], start
    for t in nodes:
        if t <= t_prev:     # before the march start, or the start itself
            continue
        gap = t - t_prev
        near = [(s, ratio, order) for s, ratio, order in points
                if ratio * gap > max(s - t, t_prev - s)]
        if near or radial._ANCHOR_STEPS * gap / span > 1.0:
            plan.append(("graded", t_prev, t,
                         math.ceil(radial._ANCHOR_STEPS * gap / span), near,
                         span))
        else:
            plan.append(("step", t_prev, gap))
        t_prev = t
    return plan


_ANNULUS = [RadialProblem(p, 2, modelspace.space_form(0.0), Annulus(0.5, 1.))
            for p in (3.0, 8.0)]


@pytest.mark.parametrize("problem", [
    ball_problem(2.5, 2, -1.0, 1.0),
    ball_problem(2.5, 2, 0.0, 1.0),
    ball_problem(2.5, 2, 1.0, 1.0),
    _ANNULUS[0],
    _ANNULUS[1],
], ids=["grid-c-1", "grid-c0", "grid-c1", "annulus-p3", "annulus-p8"])
def test_march_grades_exactly_the_pointwise_gaps(monkeypatch, problem):
    # The march decides which gaps to grade for all nodes at once; its
    # steps must be those of the rule applied to each node in turn.  The
    # recording march of the first `evaluate` takes the same steps.
    sol = _fresh_solve(problem)
    sol._scale      # the peak's own steps are built on the first march
    calls, spliced = [], {}
    walk, graded = sol._walk, _ode.graded_steps

    def graded_spy(ts, hs, t_from, t_to, nsub, points, width):
        # the graded steps of one gap, spliced into the plan at len(ts)
        first = len(ts)
        graded(ts, hs, t_from, t_to, nsub, points, width)
        spliced[first] = (("graded", t_from, t_to, nsub, list(points),
                           width), len(ts) - first)

    def walk_spy(ts, hs, *rest):
        # the plan's steps, with each graded gap's steps as its one call
        j = 0
        while j < len(ts):
            if j in spliced:
                call, size = spliced.pop(j)
                calls.append(call)
                j += size
            else:
                calls.append(("step", ts[j], hs[j]))
                j += 1
        assert not spliced
        return walk(ts, hs, *rest)

    sol._walk = walk_spy
    monkeypatch.setattr(_ode, "graded_steps", graded_spy)
    query = np.linspace(sol._left, sol.r, sol.n_grid)
    assert np.array_equal(sol.grid, query)
    # the order of a wall is p, that of the pole and of the peak p/(p-1)
    wall, peak = sol.p, sol.p / (sol.p - 1.0)
    if sol._startup is not None:
        points = [(sol._left, radial._POLE_RATIO, peak),
                  (sol.r, radial._KINK_RATIO, wall)]
    else:
        assert sol._left < sol._t_peak < sol.r
        points = [(sol._left, radial._KINK_RATIO, wall),
                  (sol.r, radial._KINK_RATIO, wall),
                  (sol._t_peak, radial._KINK_RATIO, peak)]
    plan = _pointwise_plan(query.tolist(), sol._ts[0], points,
                           sol.r - sol._left)
    assert calls == plan
    assert any(c[0] == "graded" for c in plan)
    assert any(c[0] == "step" for c in plan)
    del calls[:]
    sol.evaluate(0.5)
    assert calls == plan


@pytest.mark.parametrize("problem,most", [
    (ball_problem(2.5, 2, -1.0, 1.0), 2350),
    (RadialProblem(3.0, 2, modelspace.space_form(0.0), Annulus(0.5, 1.5)),
     2650),
], ids=["ball", "annulus"])
def test_grid_grades_only_as_deep_as_the_order_needs(problem, most):
    # Cutting toward every non-smooth point down to 2^-39 of a gap, the
    # 2048-node grids took 2561 (ball) and 3365 (annulus) steps; cut only
    # until the last piece is width 2^(-53/order) long, 2337 and 2629.
    sol = _fresh_solve(problem)
    sol._scale      # the peak's own steps are taken before the march
    steps = []
    walk = sol._walk

    def walk_spy(ts, *rest):
        steps.append(len(ts))
        return walk(ts, *rest)

    sol._walk = walk_spy
    sol.omega
    # every one of the 2047 gaps takes at least one step
    assert 2047 <= sum(steps) <= most


# Bounds: the figure measured when the test was written, rounded up to
# the next power of ten (1e-16 where it read 0).
@pytest.mark.parametrize("kind,p,tol_w,tol_wp", [
    ("ball", 1.05, 1e-16, 1e-58), ("ball", 1.5, 1e-15, 1e-15),
    ("ball", 2.0, 1e-15, 1e-15), ("ball", 2.5, 1e-15, 1e-16),
    ("ball", 4.0, 1e-15, 1e-16), ("ball", 8.0, 1e-15, 1e-16),
    ("ball", 16.0, 1e-15, 1e-16),
    ("annulus", 1.05, 1e-13, 1e-13), ("annulus", 1.5, 1e-14, 1e-14),
    ("annulus", 2.0, 1e-14, 1e-14), ("annulus", 2.5, 1e-14, 1e-13),
    ("annulus", 4.0, 1e-14, 1e-12), ("annulus", 8.0, 1e-14, 1e-12),
    ("annulus", 16.0, 1e-14, 1e-11)])
def test_grid_matches_cuts_to_every_level(monkeypatch, kind, p, tol_w,
                                          tol_wp):
    # The cuts toward a point stop once the field's part that is not
    # smooth there changes by less than rounding across the last piece.
    # The grid must agree with a fresh grid from the same shot cut to all
    # 40 levels (the rule before), omega to tol_w and omega' to tol_wp of
    # its maximum.
    # The annulus's omega' reads |Phi|^(1/(p-1)), which magnifies the
    # flux's rounding next to the peak at large p.  A ball's steps differ
    # only in the last gap, at the wall, so only its last node may move;
    # at p = 1.05 omega' near the pole (below 1e-50, omega - 1 ~ t^21)
    # moves too, by a few units of its own rounding.
    for m in (1, 2, 3):
        for c in (-1.0, 0.0, 1.0):
            if kind == "ball":
                sol = solve_ball_eigenvalue(ball_problem(p, m, c, 1.0))
            else:
                sol = solve_annulus_eigenvalue(RadialProblem(
                    p, m, modelspace.space_form(c), Annulus(0.5, 1.5)))
            w, wp = sol.omega, sol.omega_prime
            cuts = _ode._graded_cuts
            with monkeypatch.context() as patch:
                patch.setattr(_ode, "_graded_cuts",
                              lambda t_from, t_to, points, width:
                              cuts(t_from, t_to, points, 0.0))
                ref = _refined(sol, sol.n_grid)
                w_ref, wp_ref = ref.omega, ref.omega_prime
            assert np.max(np.abs(w - w_ref)) <= tol_w
            assert (np.max(np.abs(wp - wp_ref))
                    <= tol_wp * np.max(np.abs(wp_ref)))
            if kind == "ball":
                assert np.array_equal(w[:-1], w_ref[:-1])
                if p > 1.05:
                    assert np.array_equal(wp[:-1], wp_ref[:-1])


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_annulus_m1_is_string(p):
    prob = RadialProblem(p, 1, modelspace.space_form(0.0),
                         Annulus(0.0, 1.0))
    sol = solve_annulus_eigenvalue(prob)
    assert sol.lam == pytest.approx((p - 1.0) * pi_p(p) ** p, rel=1e-8)


# Bounds: the figure measured when the test was written, rounded up to
# the next power of ten.
@pytest.mark.parametrize("p,ball_tol,peak_tol,sym_tol", [
    (1.05, 1e-11, 1e-10, 1e-10), (1.1, 1e-11, 1e-10, 1e-11),
    (1.5, 1e-12, 1e-10, 1e-11), (2.0, 1e-13, 1e-12, 1e-12),
    (4.0, 1e-13, 1e-11, 1e-12), (8.0, 1e-12, 1e-11, 1e-12),
    (12.0, 1e-11, 1e-12, 1e-12), (16.0, 1e-11, 1e-12, 1e-12)])
def test_m1_profiles_match_closed_forms(p, ball_tol, peak_tol, sym_tol):
    # For m = 1 on a flat interval omega itself has a closed form, so the
    # arrays are judged against exact values, not a finer march.  Below
    # p = 2 the exact ball profile is an mpmath bisection per node, so
    # it is read at every 64th node and at the wall, where the error
    # peaks.
    ball = solve_ball_eigenvalue(ball_problem(p, 1, 0.0, 1.0))
    n = ball.grid.size
    keep = np.arange(n) if p >= 2.0 else np.r_[:n:64, n - 1]
    exact = oracles.exact_ball_omega(p, ball.grid[keep])
    assert np.max(np.abs(ball.omega[keep] - exact)) <= ball_tol
    ann = solve_annulus_eigenvalue(RadialProblem(
        p, 1, modelspace.space_form(0.0), Annulus(0.5, 1.5)))
    # 1/_scale is the peak of the unit-wall-flux omega the shots carry
    peak = oracles.exact_annulus_peak(p, 0.5, 1.5)
    assert abs(1.0 / ann._scale - peak) <= peak_tol
    assert np.max(np.abs(ann.omega - ann.omega[::-1])) <= sym_tol


def test_annulus_p8_residual_is_the_stencil_error():
    # The 2048-node audit reads 2.8e-5 because its stencils straddle the
    # flux zero, where the flux is only C^{2,1/7}; four times the nodes
    # take the audit below 1e-7 on the same eigenvalue.
    prob = RadialProblem(8.0, 2, modelspace.space_form(0.0),
                         Annulus(0.5, 1.))
    coarse = solve_annulus_eigenvalue(prob)
    fine = solve_annulus_eigenvalue(prob, n_grid=8192)
    assert fine.lam == coarse.lam
    assert fine.residual <= 1e-7


def test_small_p_ball_residual_is_the_stencil_error():
    # For p < 2 the flux is not smooth at the wall, where omega vanishes
    # and Phi' ~ omega^(p-1); the 2048-node audit reads 1.8e-4 at the
    # last node of its window, and four times the nodes take it more
    # than 50 times lower on the same eigenvalue.
    prob = ball_problem(1.1, 2, 0.0, 1.0)
    coarse = solve_ball_eigenvalue(prob)
    fine = solve_ball_eigenvalue(prob, n_grid=8192)
    assert fine.lam == coarse.lam
    assert fine.residual <= coarse.residual / 50.0
    assert fine.residual <= 1e-5


# the root-finder and the eigenvalue bracket


def test_brent_rejects_unbracketed_interval():
    with pytest.raises(ValueError):
        _ode.brent(lambda x: x * x + 1.0, -1.0, 2.0, xtol=1e-12)
    with pytest.raises(ValueError):
        _ode.brent(lambda x: x - 5.0, 0.0, 1.0, xtol=1e-12)


def test_brent_returns_an_exact_root():
    x, y, steps = _ode.brent(lambda x: x, -1.0, 1.0, xtol=1e-12)
    assert x == 0.0 and steps == 1
    assert y > 0.0                  # the other end keeps its side
    assert _ode.brent(lambda x: x - 2.0, 2.0, 3.0, xtol=1e-12)[0] == 2.0


@pytest.mark.parametrize("f,a,b,root", [
    (lambda x: x ** 3 - 2.0, 0.0, 3.0, 2.0 ** (1.0 / 3.0)),
    (math.cos, 0.0, 3.0, 0.5 * math.pi),
    (lambda x: 10.0 - math.exp(x), -5.0, 10.0, math.log(10.0)),
])
def test_brent_meets_xtol(f, a, b, root):
    for xtol in (1e-6, 1e-12):
        x, y, steps = _ode.brent(f, a, b, xtol=xtol, rtol=0.0)
        assert abs(x - y) <= xtol and abs(x - root) <= xtol
        assert (f(x) > 0.0) != (f(y) > 0.0)
        assert steps <= 12


def _generic_slopes(p, m, fscalar, lam, t, w, phi):
    """The right-hand side of the module docstring, every power written."""
    em1, pm1, mm1 = 1.0 / (p - 1.0), p - 1.0, m - 1
    if mm1 == 0:
        wp = phi ** em1 if phi >= 0.0 else -((-phi) ** em1)
        pp = -lam * (w ** pm1) if w >= 0.0 else lam * ((-w) ** pm1)
    else:
        fm = fscalar(t) ** mm1
        wp = (phi / fm) ** em1 if phi >= 0.0 else -(((-phi) / fm) ** em1)
        pp = (-lam * fm * (w ** pm1) if w >= 0.0
              else lam * fm * ((-w) ** pm1))
    return wp, pp


@pytest.mark.parametrize("p,m", [(2.0, 1), (2.0, 2), (2.0, 3), (1.05, 2),
                                 (1.5, 2), (3.0, 2), (16.0, 2)])
def test_rhs_exponent_one_forms_are_exact(p, m):
    # _make_rhs leaves out the powers with exponent 1 (both at p = 2, the
    # weight power at m = 2); every slope must keep its bits, signed
    # zeros included.
    rng = np.random.default_rng(7)
    size = rng.standard_normal((400, 2)) * 10.0 ** rng.uniform(-6, 2, (400, 2))
    states = size.tolist() + [[a, b] for a in (0.0, -0.0, 0.5, -0.5)
                              for b in (0.0, -0.0, 0.25, -0.25)]
    for c in (-1.0, 0.0, 1.0):
        prof = modelspace.space_form(c)
        rhs = radial._make_rhs(p, m, prof, 7.25)[0]
        for t, (w, phi) in zip(rng.uniform(1e-4, 1.0, len(states)).tolist(),
                               states):
            got = rhs(t, w, phi)
            want = _generic_slopes(p, m, prof.f_scalar, 7.25, t, w, phi)
            assert [x.hex() for x in got] == [x.hex() for x in want]


# The Dormand-Prince 5(4) pair (Dormand and Prince 1980), the tests' own
# copy of its rational coefficients: the reference step reads these, and
# `_ode`'s tables must hold the same floats.  The fourth-order weights
# _BH* give the error weights _E* = _B* - _BH*.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784,
                           11 / 84)
_BH1, _BH3, _BH4, _BH5, _BH6, _BH7 = (5179 / 57600, 7571 / 16695, 393 / 640,
                                      -92097 / 339200, 187 / 2100, 1 / 40)
_E1, _E3, _E4, _E5, _E6, _E7 = (_B1 - _BH1, _B3 - _BH3, _B4 - _BH4,
                                _B5 - _BH5, _B6 - _BH6, -_BH7)
# The dense output's rows, scipy's RK45.P.
_DENSE_P = RK45.P.tolist()


def test_tableau_holds_the_rational_coefficients():
    # The pair's one copy in `_ode` is its tables; each entry must be the
    # float of its rational, bit for bit.  (The dense output's rows are
    # checked against scipy's by
    # test_dense_output_is_scipys_and_ends_on_the_step.)
    def bits(rows):
        return [[x.hex() for x in row] for row in rows]

    assert bits([_ode._C]) == bits([(0.0, _C2, _C3, _C4, _C5, 1.0, 1.0)])
    assert bits(_ode._A) == bits([(_A21,), (_A31, _A32), (_A41, _A42, _A43),
                                  (_A51, _A52, _A53, _A54),
                                  (_A61, _A62, _A63, _A64, _A65)])
    assert bits([_ode._B]) == bits([(_B1, 0.0, _B3, _B4, _B5, _B6, 0.0)])
    assert bits([_ode._E]) == bits([(_E1, 0.0, _E3, _E4, _E5, _E6, _E7)])


def _reference_dp_step(f, t, h, u, v, k1u, k1v, estimate=False,
                       dense=False):
    """One Dormand-Prince step through seven calls of f(t, u, v).

    With dense, it also returns the step's record (t, h, u, v and the
    slopes k1, k3..k7, u before v) and its dense output at x in [0, 1].
    """
    k2u, k2v = f(t + _C2 * h, u + h * _A21 * k1u, v + h * _A21 * k1v)
    k3u, k3v = f(t + _C3 * h, u + h * (_A31 * k1u + _A32 * k2u),
                 v + h * (_A31 * k1v + _A32 * k2v))
    k4u, k4v = f(t + _C4 * h, u + h * (_A41 * k1u + _A42 * k2u + _A43 * k3u),
                 v + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v))
    k5u, k5v = f(t + _C5 * h, u + h * (_A51 * k1u + _A52 * k2u + _A53 * k3u
                                       + _A54 * k4u),
                 v + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v))
    k6u, k6v = f(t + h, u + h * (_A61 * k1u + _A62 * k2u + _A63 * k3u
                                 + _A64 * k4u + _A65 * k5u),
                 v + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v
                          + _A64 * k4v + _A65 * k5v))
    nu = u + h * (_B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
    nv = v + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
    k7u, k7v = f(t + h, nu, nv)
    if dense:
        ks = ((k1u, k1v), (k2u, k2v), (k3u, k3v), (k4u, k4v), (k5u, k5v),
              (k6u, k6v), (k7u, k7v))
        a = [[h * sum(row[k] * kk[y] for row, kk in zip(_DENSE_P, ks))
              for k in range(4)] for y in (0, 1)]

        def at(x):
            return tuple(y0 + x * (a1 + x * (a2 + x * (a3 + x * a4)))
                         for y0, (a1, a2, a3, a4) in zip((u, v), a))
        record = (t, h, u, v) + tuple(y for i, kk in enumerate(ks)
                                      if i != 1 for y in kk)
        return nu, nv, k7u, k7v, record, at
    if not estimate:
        return nu, nv, k7u, k7v
    eu = h * (_E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u + _E6 * k6u
              + _E7 * k7u)
    ev = h * (_E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v
              + _E7 * k7v)
    return nu, nv, k7u, k7v, eu, ev


# One (p, m) per right-hand-side form: p = 2 or not, m - 1 = 0, 1 or >= 2.
_FORMS = [(2.0, 1), (2.0, 2), (2.0, 3), (2.5, 1), (2.5, 2), (2.5, 3)]

# One profile per warping expression: the three space forms, the three
# perturbed ones and a tabulated one.
_T_NODES = np.linspace(0.0, 2.0, 2001)
_PROFILES = ([modelspace.space_form(c) for c in (-1.0, 0.0, 1.0)]
             + [modelspace.perturbed(c, 0.1, r_max=1.5)
                for c in (-1.0, 0.0, 1.0)]
             + [modelspace.tabulated(_T_NODES, np.sinh(_T_NODES))])


@pytest.mark.parametrize("p,m", _FORMS)
def test_generated_step_matches_reference_dp(p, m):
    # The generated stages inline the slopes and share the weight at
    # t + h between stage 6 and k7; the state and slope a one-step walk
    # returns, and the state it writes, must keep their bits, signed
    # zeros included.  (The error estimate is checked through whole
    # shots, by test_generated_integrate_matches_reference.)
    rng = np.random.default_rng(5)
    n = 300
    size = rng.standard_normal((n, 4)) * 10.0 ** rng.uniform(-6, 1, (n, 4))
    states = size.tolist() + [[a, b, ka, kb] for a in (0.0, -0.0, 0.5)
                              for b in (0.0, -0.0, -0.25)
                              for ka, kb in ((0.0, -0.0), (-0.0, 1.5),
                                             (-2.0, 0.0))]
    for prof in _PROFILES:
        fscalar = prof.f_scalar
        walk = radial._make_rhs(p, m, prof, 7.25)[2]

        def f(t, w, phi):
            return _generic_slopes(p, m, fscalar, 7.25, t, w, phi)

        ts = rng.uniform(1e-4, 1.0, len(states)).tolist()
        hs = (10.0 ** rng.uniform(-5, -1, len(states))).tolist()
        for t, h, state in zip(ts, hs, states):
            out_w, out_phi = [None], [None]
            got = walk([t], [h], *state, out_w, out_phi, None)
            want = _reference_dp_step(f, t, h, *state)
            assert [x.hex() for x in got] == [x.hex() for x in want]
            assert [out_w[0].hex(), out_phi[0].hex()] == \
                [x.hex() for x in want[:2]]


def _reference_integrate(f, t0, t1, y0):
    """The adaptive loop of the shots over `_reference_dp_step` of f, at
    relative and absolute tolerance 1e-12."""
    span = t1 - t0
    if span <= 0:
        raise ValueError("integrate requires t1 > t0")
    h = 0.01 * span
    hmin = 1e-15 * span
    t = t0
    u, v = float(y0[0]), float(y0[1])
    ts = [t]
    ys = [(u, v)]
    k1u, k1v = f(t, u, v)
    steps = 0
    while t < t1:
        if t + h > t1:
            h = t1 - t
        if h < hmin:
            raise _ode.IntegrationError("step-size underflow at t=%.12g" % t)
        steps += 1
        if steps > 1000000:
            raise _ode.IntegrationError("step limit exceeded at t=%.12g" % t)

        nu, nv, k7u, k7v, eu, ev = _reference_dp_step(f, t, h, u, v, k1u,
                                                      k1v, True)
        au = u if u >= 0.0 else -u
        a = nu if nu >= 0.0 else -nu
        su = 1e-12 + 1e-12 * (a if a > au else au)
        av = v if v >= 0.0 else -v
        a = nv if nv >= 0.0 else -nv
        sv = 1e-12 + 1e-12 * (a if a > av else av)
        err = ((eu / su) ** 2 + (ev / sv) ** 2) ** 0.5 * 0.7071067811865476

        if err != err:  # NaN
            raise _ode.IntegrationError(
                "NaN in the error estimate at t=%.12g" % t)
        if err <= 1.0:
            t += h
            u, v = nu, nv
            ts.append(t)
            ys.append((u, v))
            if u <= 0.0:
                break
            k1u, k1v = k7u, k7v
            if err == 0.0:
                h *= 5.0
            else:
                factor = 0.9 * err ** -0.2
                h *= factor if factor < 5.0 else 5.0
        else:
            factor = 0.9 * err ** -0.2
            h *= factor if factor > 0.2 else 0.2
    return ts, ys


@pytest.mark.parametrize("p,m", [(2.0, 3), (2.5, 2), (3.0, 1)])
def test_generated_integrate_matches_reference(p, m):
    # The shots' adaptive loop is generated per form, with the stages and
    # a closed-form weight written in; its mesh and states must keep
    # their bits for every warping expression, on ball and annulus shots
    # below the eigenvalue (no zero) and above it (a zero before the end).
    for prof in _PROFILES:
        for domain in (Ball(1.0), Annulus(0.5, 1.0)):
            problem = RadialProblem(p, m, prof, domain)
            solve = (solve_ball_eigenvalue if domain.kind == "ball"
                     else solve_annulus_eigenvalue)
            lam = solve(problem, use_cache=False).lam
            t_end = 1.0
            for lam_shot in (0.8 * lam, 1.25 * lam):
                ts, ys, miss = radial._shoot(problem, lam_shot)
                assert (miss > 0.0) == (lam_shot < lam)

                def f(t, w, phi):
                    return _generic_slopes(p, m, prof.f_scalar, lam_shot,
                                           t, w, phi)

                want = _reference_integrate(f, ts[0], t_end, ys[0])
                assert [t.hex() for t in ts] == [t.hex() for t in want[0]]
                assert [[x.hex() for x in y] for y in ys] == \
                    [[x.hex() for x in y] for y in want[1]]


@pytest.mark.parametrize("p,m", _FORMS)
def test_generated_run_matches_steps(p, m):
    # A walk over a plan of steps must write the state of one reference
    # step per plan entry, bit for bit, return the last state and slope,
    # and agree with a chain of one-step walks.  Given a record, the walk
    # and the chain must each append every step's (t, h, u, v, k1,
    # k3..k7), bit for bit; without one, the walk writes the same states.
    rng = np.random.default_rng(11)

    def bits(xs):
        return [x.hex() for x in xs]

    for prof in _PROFILES:
        def f(t, w, phi):
            return _generic_slopes(p, m, prof.f_scalar, 7.25, t, w, phi)

        walk = radial._make_rhs(p, m, prof, 7.25)[2]
        nodes = np.sort(rng.uniform(0.05, 1.0, 40)).tolist()
        ts = [nodes[0]] + nodes[3:36]
        hs = [b - a for a, b in zip(ts, nodes[3:37])]
        u0, v0 = 0.75, -0.25
        k0 = f(nodes[0], u0, v0)
        outs = []
        for rec in (None, array("d")):
            out_w, out_phi = [0.0] * 40, [0.0] * 40
            got = walk(ts, hs, u0, v0, *k0, out_w, out_phi, rec)
            state, want, chain = (u0, v0, *k0), [], array("d")
            for j, (t, h) in enumerate(zip(ts, hs)):
                *ref, record, _ = _reference_dp_step(f, t, h, *state,
                                                     dense=True)
                state = walk([t], [h], *state, [0.0], [0.0], chain)
                assert bits(state) == bits(ref)
                want += record
                assert (out_w[j].hex() == state[0].hex()
                        and out_phi[j].hex() == state[1].hex())
            assert bits(got) == bits(state)
            assert not any(out_w[len(ts):]) and not any(out_phi[len(ts):])
            outs.append((out_w, out_phi))
            assert bits(chain) == bits(want)
            if rec is not None:
                assert bits(rec) == bits(want)
        assert outs[0] == outs[1]
        rec = array("d")
        got = walk([nodes[0]], [0.125], u0, v0, *k0, [0.0], [0.0], rec)
        *want, record, _ = _reference_dp_step(f, nodes[0], 0.125, u0, v0,
                                              *k0, dense=True)
        assert bits(got) == bits(want)
        assert bits(rec) == bits(record)


def test_evaluate_reads_each_steps_dense_output():
    # Inside a step of the grid march, evaluate must give the step's
    # dense output, formed from the stages of a reference step from the
    # same start, to rounding of omega's maximum, 1.  (The reference
    # takes k1 at the step's start, the march the slope at the end of the
    # step before, which may lie an ulp away.)
    for problem in _LAZY_PROBLEMS:
        sol = _fresh_solve(problem)
        starts, h, cu, cv = sol._steps
        rng = np.random.default_rng(13)
        for i in rng.choice(len(h) - 1, 40, replace=False).tolist():
            t, hi, u, v = (float(x) for x in (starts[i], h[i], cu[0, i],
                                              cv[0, i]))
            *_, at = _reference_dp_step(sol._rhs, t, hi, u, v,
                                        *sol._rhs(t, u, v), dense=True)
            for x in (0.125, 0.5, 0.875):
                w, phi = at(x)
                got, _ = sol.evaluate(t + x * hi)
                assert abs(got - w * sol._scale) <= 1e-15


def test_dense_output_is_scipys_and_ends_on_the_step():
    # The dense output's rows are scipy's RK45.P, and at x = 1 each
    # stage's row sums to its fifth-order weight (k2 and k7 have none),
    # to the rounding of the rows' entries: every step's interpolant ends
    # on the step's own end state.
    assert [list(row) for row in _ode._DENSE_P] == RK45.P.tolist()
    for row, b in zip(_ode._DENSE_P, (_B1, 0.0, _B3, _B4, _B5, _B6, 0.0)):
        assert abs(math.fsum(row) - b) <= sum(map(math.ulp, row + (b,)))


def test_step_compiles_once_per_form():
    # Each form is compiled once: the functions of two trial lam share
    # their code objects, m = 4 shares the m = 3 form, two profiles of
    # the same kind and sign share one form, and the six forms are six
    # codes.
    prof = modelspace.space_form(-1.0)
    same_kind = [(prof, modelspace.space_form(-2.5)),
                 (modelspace.space_form(1.0), modelspace.space_form(0.3)),
                 (modelspace.perturbed(-1.0, 0.1),
                  modelspace.perturbed(-0.5, 0.2)),
                 (_PROFILES[-1], modelspace.tabulated(_T_NODES, _T_NODES))]
    codes = set()
    for p, m in _FORMS:
        made = radial._make_rhs(p, m, prof, 7.25)
        again = radial._make_rhs(p, m, prof, 9.5)
        for fn, fn2 in zip(made, again):
            assert fn2 is not fn and fn2.__code__ is fn.__code__
        codes.add(made[1].__code__)
        if m == 3:
            assert radial._make_rhs(p, 4, prof, 1.0)[1].__code__ is \
                made[1].__code__
        for one, other in same_kind:
            assert [fn.__code__ for fn in radial._make_rhs(p, m, one, 1.0)] \
                == [fn.__code__ for fn in radial._make_rhs(p, m, other, 2.0)]
    assert len(codes) == len(_FORMS)


def test_generated_source_reads_the_tableau_as_literals(monkeypatch):
    # compile_form writes every coefficient as a literal: the source of
    # each form names no table of `_ode`, and its functions load no
    # private module global.
    forms = set()
    compile_form = _ode.compile_form

    def spy(*form):
        forms.add(form)
        return compile_form(*form)

    monkeypatch.setattr(_ode, "compile_form", spy)
    for (p, m), prof in itertools.product(_FORMS, _PROFILES):
        radial._make_rhs(p, m, prof, 7.25)
    assert len(forms) == 2 + 4 * len(_PROFILES)     # every form: 30
    for form in forms:
        source = _ode.form_source(*form)
        assert re.search(r"\b_[A-Z]", source) is None
        assert all(repr(a) in source for row in _ode._A for a in row)
        code = [compile(source, "<dp form>", "exec")]
        for c in code:
            assert not [n for n in c.co_names if n.startswith("_")]
            code += [k for k in c.co_consts if hasattr(k, "co_names")]


def _levels(length, width, order):
    """The count of levels j = 0, 1, ... of the cuts toward a point of
    the given order: the fewest whose last level leaves a piece,
    length 2^-j, no longer than width 2^(-53 / order), at least 1 and
    at most 40 (all 40 for width 0)."""
    if width == 0.0:
        return 40
    return min(40, max(1, math.ceil(math.log2(length / width)
                                    + 53.0 / order) + 1))


def _reference_cuts(t_from, t_to, points, width):
    """The cuts of `_ode.graded_steps`, from all 2 `_levels` + 1
    candidates per point."""
    span = t_to - t_from
    cuts = {t_to}
    for s, _, order in points:
        cuts.update(c for c in [s] + [
            s + sign * span * 0.5 ** j
            for j in range(_levels(span, width, order))
            for sign in (-1.0, 1.0)] if t_from < c < t_to)
    return sorted(cuts)


def test_graded_cuts_match_every_candidate():
    # graded_steps forms only the candidate cuts inside its interval, down
    # to the level its order needs; the cuts must be those of all the
    # candidates per point, bit for bit, for points inside the interval,
    # outside it and at or next to an end, for orders from a wall at
    # p = 1.05 to the pole at p = 1.05, and for domains from the
    # interval's length to 1e9 times it (and width 0, all 40 levels).
    rng = np.random.default_rng(17)
    for _ in range(3000):
        t_from = float(rng.choice([0.0, rng.uniform(-2.0, 2.0)]))
        span = float(10.0 ** rng.uniform(-9, 0.5))
        t_to = t_from + span
        points = []
        for kind in rng.integers(0, 5, rng.integers(1, 4)).tolist():
            if kind == 0:
                s = t_from + rng.uniform(0.0, 1.0) * span
            elif kind == 1:
                s = t_from - float(10.0 ** rng.uniform(-13, 1)) * span
            elif kind == 2:
                s = t_to + float(10.0 ** rng.uniform(-13, 1)) * span
            elif kind == 3:
                s = t_from if rng.uniform() < 0.5 else t_to
            else:
                s = float(np.nextafter(t_from if rng.uniform() < 0.5
                                       else t_to, rng.choice([-9.0, 9.0])))
            points.append((float(s), 8.0, float(rng.uniform(1.05, 21.0))))
        width = float(rng.choice([0.0, span * 10.0 ** rng.uniform(0, 9)]))
        got = _ode._graded_cuts(t_from, t_to, points, width)
        want = _reference_cuts(t_from, t_to, points, width)
        assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize("problem", [
    ball_problem(1.05, 2, 0.0, 1.0),
    ball_problem(2.5, 2, -1.0, 1.0),
    ball_problem(16.0, 3, 1.0, 1.0),
    RadialProblem(3.0, 2, modelspace.space_form(0.0), Annulus(0.5, 1.0)),
], ids=["ball-p1.05", "ball-p2.5", "ball-p16", "annulus-p3"])
def test_shot_mesh_stops_at_first_nonpositive_omega(problem):
    # A shot's mesh ends at the first node where omega <= 0 (or at the
    # right end when there is none), and an accepted step is at most five
    # times the one before it.
    solve = (solve_ball_eigenvalue if problem.domain.kind == "ball"
             else solve_annulus_eigenvalue)
    lam = solve(problem).lam
    t_end = problem.domain.r if problem.domain.kind == "ball" else \
        problem.domain.b
    for factor in (0.9, 1.0, 1.3, 3.0):
        ts, ys, miss = radial._shoot(problem, factor * lam)
        omega = [y[0] for y in ys]
        assert all(w > 0.0 for w in omega[1:-1])
        if omega[-1] > 0.0:
            assert ts[-1] == t_end and miss > 0.0
        else:
            assert ts[-1] <= t_end and miss <= 0.0
        h = np.diff(ts)
        assert np.all(h > 0.0)
        assert np.max(h[1:] / h[:-1]) <= 5.0 * (1.0 + 1e-9)


def _nan_from_half(monkeypatch):
    """A tabulated profile whose warping turns NaN past t = 0.5.

    The stages read the warping as source, `f_expr` over `f_names`, so
    the NaN goes in there (and into `f_scalar`, which the problem's
    start-weight check reads).
    """
    prof = modelspace.tabulated(_T_NODES, _T_NODES, label="nan-past-half")

    def nan_past_half(t):
        return math.nan if t > 0.5 else 1.0 + t
    monkeypatch.setattr(prof, "f_scalar", nan_past_half)
    monkeypatch.setattr(prof, "f_expr", "nan_past_half(s)")
    monkeypatch.setattr(prof, "f_names",
                        MappingProxyType({"nan_past_half": nan_past_half}))
    return prof


def test_integrate_raises_on_nan(monkeypatch):
    # NaN slopes from the first step (lam = NaN) and from t > 0.5 on (a
    # weight that turns NaN there).
    for p, m, prof, lam in ((2.0, 1, modelspace.space_form(0.0), math.nan),
                            (2.5, 2, _nan_from_half(monkeypatch), 3.0)):
        integrate = radial._make_rhs(p, m, prof, lam)[1]
        for tol in (1e-12, radial._LOOSE_TOL):
            with pytest.raises(_ode.IntegrationError, match="NaN"):
                integrate(0.0, 1.0, (1.0, 1.0), tol)


def _criterion_01_cases():
    return [(2.0, 3, math.pi ** 2), (2.0, 2, acceptance.J01 ** 2)] + [
        (p, 1, (p - 1.0) * (pi_p(p) / 2.0) ** p) for p in (1.5, 3.0, 4.0)]


def test_shots_per_solve(monkeypatch):
    # The bisection on "has a zero before r" took 30-31 shots per solve.
    # A tight shot is taken only where Brent reads the miss: at both ends
    # of its bracket and at each of its steps.  The zero-free doubling
    # rungs are decided by loose shots.
    shots = []
    shoot = radial._shoot
    monkeypatch.setattr(radial, "_shoot",
                        lambda *args: shots.append(1) or shoot(*args))
    for p, m, _ in _criterion_01_cases():
        del shots[:]
        sol = solve_ball_eigenvalue(ball_problem(p, m, 0.0, 1.0),
                                    use_cache=False)
        assert len(shots) == sol.iterations + 2


def _count_work(monkeypatch):
    """Counts of tight shots, loose shots and walked steps, as they run."""
    counts = {"tight": 0, "loose": 0, "walked": 0}
    shoot, loose = radial._shoot, radial._loose_zero_free
    make_rhs = radial._make_rhs

    def tight_spy(*args):
        counts["tight"] += 1
        return shoot(*args)

    def loose_spy(*args):
        counts["loose"] += 1
        return loose(*args)

    def counted(*args):
        rhs, integrate, walk = make_rhs(*args)

        def walk_spy(ts, *rest):
            counts["walked"] += len(ts)
            return walk(ts, *rest)
        return rhs, integrate, walk_spy

    monkeypatch.setattr(radial, "_shoot", tight_spy)
    monkeypatch.setattr(radial, "_loose_zero_free", loose_spy)
    monkeypatch.setattr(radial, "_make_rhs", counted)
    return counts


def _assert_within(counts, pins):
    assert all(counts[k] <= pins[k] for k in pins), (counts, pins)


def test_work_budget_of_the_benchmark_passes(monkeypatch):
    # One cold pass of the `sweep` matrix (its 24 balls, each read for
    # omega and the residual, as a sweep row reads them) and of the
    # `warped` solves, in this process.  Counts do not drift with the
    # host: a change that takes more shots or steps fails here, and one
    # that takes fewer lowers the pin.  Each pin is the count measured
    # when it was set.
    counts = _count_work(monkeypatch)
    radial.clear_solver_cache()
    for p, m, c in itertools.product((2.0, 2.5, 3.0, 4.0), (2, 3),
                                     (-1.0, 0.0, 1.0)):
        sol = solve_ball_eigenvalue(ball_problem(p, m, c, 1.0))
        sol.omega, sol.residual
    _assert_within(counts, {"tight": 196, "loose": 65, "walked": 55947})

    counts.update(tight=0, loose=0, walked=0)
    radial.clear_solver_cache()
    profiles = dict(acceptance.compare_profiles())
    for name, p in itertools.product(("tab-sinh", "tab-cubic"),
                                     (2.0, 3.0, 4.0)):
        solve_ball_eigenvalue(RadialProblem(p, 2, profiles[name], Ball(1.0)))
    for c, p, (m, a, b) in itertools.product(
            (-1.0, 0.0, 1.0), (2.0, 3.0, 4.0), ((1, 0.2, 1.2), (2, 0.5, 1.5))):
        solve_annulus_eigenvalue(RadialProblem(
            p, m, modelspace.space_form(c), Annulus(a, b)))
    _assert_within(counts, {"tight": 136, "loose": 30, "walked": 100})
    radial.clear_solver_cache()


def test_work_budget_of_annuli(monkeypatch):
    # Annuli over the p range, m = 1, 2 and 6 and the three space forms,
    # on a wide and a near-pole interval.  Each solves, and the shots
    # stay within their pins, each the count measured when it was set.
    counts = _count_work(monkeypatch)
    for p, m, c, (a, b) in itertools.product(
            (1.05, 2.0, 4.0, 16.0), (1, 2, 6), (-1.0, 0.0, 1.0),
            ((0.5, 1.5), (0.01, 1.0))):
        problem = RadialProblem(p, m, modelspace.space_form(c), Annulus(a, b))
        assert solve_annulus_eigenvalue(problem, use_cache=False).lam > 0.0
    _assert_within(counts, {"tight": 561, "loose": 103})


def _solve_bits(problem):
    """`radial._solve` at tol 1e-12, every float as its hex."""
    lam, ts, ys, steps = radial._solve(problem, 1e-12)
    return (lam.hex(), [t.hex() for t in ts],
            [[x.hex() for x in y] for y in ys], steps)


# Balls at the ends and middle of the p range, and the annuli of the
# `warped` benchmark: (0.2, 1.2) at m = 1, whose seed is its exact
# eigenvalue (p-1)(pi_p/L)^p, so a doubling rung lands on the root (at
# p = 3 a loose shot with no margin misjudged it), and (0.5, 1.5) at
# m = 2.
_LADDER_PROBLEMS = (
    [ball_problem(p, m, c, 1.0) for p in (1.05, 2.0, 3.0, 16.0)
     for m in (1, 3) for c in (-1.0, 0.0, 1.0)]
    + [RadialProblem(p, 1, modelspace.space_form(0.0), Annulus(0.2, 1.2))
       for p in (2.0, 3.0, 4.0)]
    + [RadialProblem(p, 2, modelspace.space_form(c), Annulus(0.5, 1.5))
       for p in (2.0, 3.0, 4.0) for c in (-1.0, 1.0)])


def test_loose_ladder_keeps_every_bit(monkeypatch):
    # A loose shot decides a zero-free doubling rung, which Brent never
    # reads, so lam, the mesh and the Brent steps must be those of a
    # ladder of tight shots alone, bit for bit.  The loose shots must
    # decide some rungs, or the comparison shows nothing.
    decided = []
    loose = radial._loose_zero_free

    def spy(problem, lam):
        decided.append(loose(problem, lam))
        return decided[-1]

    for problem in _LADDER_PROBLEMS:
        monkeypatch.setattr(radial, "_loose_zero_free", spy)
        shipped = _solve_bits(problem)
        monkeypatch.setattr(radial, "_loose_zero_free", lambda *args: False)
        assert _solve_bits(problem) == shipped, problem
    assert sum(decided) >= len(_LADDER_PROBLEMS)


@pytest.mark.parametrize("error", [_ode.IntegrationError, OverflowError,
                                   ZeroDivisionError])
def test_failed_loose_shot_leaves_the_rung_to_the_tight_one(error,
                                                            monkeypatch):
    # A loose integration that fails decides nothing: the tight shot
    # decides the rung, and nothing is raised or changed.
    problem = ball_problem(2.5, 2, -1.0, 1.0)
    tight = _solve_bits(problem)
    make_rhs = radial._make_rhs
    failed = []

    def failing(p, m, profile, lam):
        rhs, integrate, walk = make_rhs(p, m, profile, lam)

        def integrate_or_fail(t0, t1, y0, tol):
            if tol == radial._LOOSE_TOL:
                failed.append(lam)
                raise error("loose shot at lam=%r" % lam)
            return integrate(t0, t1, y0, tol)
        return rhs, integrate_or_fail, walk

    monkeypatch.setattr(radial, "_make_rhs", failing)
    assert not radial._loose_zero_free(problem, 1.0)
    del failed[:]
    assert _solve_bits(problem) == tight
    assert failed


@pytest.mark.parametrize("p,m,anchor", _criterion_01_cases())
def test_anchor_approached_from_below(p, m, anchor):
    lam = solve_ball_eigenvalue(ball_problem(p, m, 0.0, 1.0)).lam
    assert anchor * (1.0 - 1e-11) <= lam < anchor


# lam to the bit: criterion 1's five balls and the `warped` benchmark's
# m = 1 annuli, whose seed is their exact string eigenvalue.  A change
# to a seed or to Brent's path moves lam inside its 1e-12 bracket, which
# no tolerance above sees; one that moves a bit here updates the table
# and says why.
_FROZEN_LAM = [
    (ball_problem(2.0, 3, 0.0, 1.0), "0x1.3bd3cc9be3ad6p+3"),
    (ball_problem(2.0, 2, 0.0, 1.0), "0x1.721fb804629f6p+2"),
    (ball_problem(1.5, 1, 0.0, 1.0), "0x1.e165396898653p+0"),
    (ball_problem(3.0, 1, 0.0, 1.0), "0x1.c49ec4e0b34c5p+1"),
    (ball_problem(4.0, 1, 0.0, 1.0), "0x1.243a2e91ebfedp+2")] + [
    (RadialProblem(p, 1, modelspace.space_form(0.0), Annulus(0.2, 1.2)),
     bits) for p, bits in ((2.0, "0x1.3bd3cc9be3b04p+3"),
                           (3.0, "0x1.c49ec4e0b32d4p+4"),
                           (4.0, "0x1.243a2e91ec6eep+6"))]


@pytest.mark.parametrize("problem,bits", _FROZEN_LAM)
def test_eigenvalue_bits_are_frozen(problem, bits):
    assert radial._solve(problem, 1e-12)[0].hex() == bits


@pytest.mark.parametrize("problem", [
    ball_problem(1.05, 2, 0.0, 1.0),
    ball_problem(2.0, 2, -1.0, 1.0),
    ball_problem(16.0, 3, 1.0, 1.0),
    RadialProblem(3.0, 2, modelspace.space_form(0.0), Annulus(0.5, 1.0)),
], ids=["ball-p1.05", "ball-p2", "ball-p16", "annulus-p3"])
def test_reported_eigenvalue_is_zero_free(problem):
    # lam is the zero-free end of the final bracket: its trajectory has no
    # zero before the right endpoint, and a trial lam 1e-9 above it has.
    # A shot's miss is positive exactly when it has no zero.
    if problem.domain.kind == "ball":
        sol = solve_ball_eigenvalue(problem)
    else:
        sol = solve_annulus_eigenvalue(problem)
    assert radial._shoot(problem, sol.lam)[2] > 0.0
    above = sol.lam * (1.0 + 1e-9)
    assert radial._shoot(problem, above)[2] <= 0.0


def test_solve_errors_name_the_problem(monkeypatch):
    # The first shot fails: its weight turns NaN past t = 0.5.
    problem = RadialProblem(2.5, 3, _nan_from_half(monkeypatch), Ball(0.8))
    with pytest.raises(radial.NonConvergenceError) as info:
        solve_ball_eigenvalue(problem, use_cache=False)
    assert isinstance(info.value, _ode.IntegrationError)
    msg = str(info.value)
    for part in ("NaN in the error estimate", "p=2.5", "m=3", "Ball(r=0.8)",
                 "nan-past-half", "bracket"):
        assert part in msg


# solution-object invariants


class _TypedBuffer:
    """An output buffer that records the type of every value written."""

    def __init__(self, out):
        self.out, self.types = out, set()

    def __setitem__(self, j, x):
        self.types.add(type(x))
        self.out[j] = x


def _fresh_ball(c=0.0, r=1.0):
    return solve_ball_eigenvalue(ball_problem(2.5, 2, c, r), use_cache=False)


@pytest.mark.parametrize("run", [
    lambda: _fresh_ball(-1.0).grid,
    lambda: _fresh_ball(0.0).grid,
    lambda: _fresh_ball(1.0).grid,
    lambda: _fresh_ball().evaluate(np.linspace(0.0, 1.0, 4096)),
    lambda: _fresh_ball(r=1.2).evaluate(np.linspace(0.9, 1.15, 64)),
    lambda: solve_annulus_eigenvalue(
        RadialProblem(3.0, 2, modelspace.space_form(0.0), Annulus(0.5, 1.0)),
        use_cache=False).grid,
    lambda: _fresh_ball().evaluate(np.linspace(0.0, 1.0, 16384)),
    _fresh_ball,
], ids=["grid-c-1", "grid-c0", "grid-c1", "evaluate-pole", "evaluate-band",
        "annulus-grid", "evaluate-scan", "shots"])
def test_steps_run_on_python_floats(run, monkeypatch):
    # A numpy scalar in a step state makes every later step of its march
    # cost about twice its time on floats; the ball marches of a 2048-node
    # grid and of a dense query from the pole once ran on them.
    # Every step of the shots and of the march comes from _make_rhs: the
    # shots' (tight and loose) from integrate, the march's and the zero
    # refinements' from walk, recording for `evaluate`.  The trial lam,
    # what each of them is given (a shot's tolerance too) and what it
    # returns (a shot's every node and state, which its stages computed
    # from lam and the weight), the starts and lengths of a walk and
    # every state it writes are checked.
    types = set()
    make_rhs = radial._make_rhs

    def typed_make_rhs(p, m, profile, lam):
        types.add(type(lam))
        rhs, integrate, walk = make_rhs(p, m, profile, lam)

        def typed_integrate(t0, t1, y0, tol):
            types.update(map(type, (t0, t1, *y0, tol)))
            ts, ys = integrate(t0, t1, y0, tol)
            types.update(map(type, ts))
            types.update(type(x) for y in ys for x in y)
            return ts, ys

        def typed_walk(ts, hs, u, v, ku, kv, out_w, out_phi, rec):
            types.update(map(type, (*ts, *hs, u, v, ku, kv)))
            w, phi = _TypedBuffer(out_w), _TypedBuffer(out_phi)
            last = walk(ts, hs, u, v, ku, kv, w, phi, rec)
            types.update(map(type, last))
            types.update(w.types | phi.types)
            return last
        return rhs, typed_integrate, typed_walk

    monkeypatch.setattr(radial, "_make_rhs", typed_make_rhs)
    run()
    assert types == {float}


def test_solution_shape_and_boundary():
    sol = solve_ball_eigenvalue(ball_problem(3.0, 2, 0.0, 1.0))
    assert sol.grid[0] == 0.0 and sol.grid[-1] == 1.0
    assert sol.omega[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(sol.omega[-1]) <= 1e-8
    assert np.all(sol.omega[:-1] > 0.0)
    assert np.all(sol.omega_prime[1:] < 0.0)
    assert sol.omega_prime[0] == 0.0          # the pole: zero flux
    assert sol.residual <= 1e-6


def test_evaluate_scalar_matches_grid_arrays():
    sol = solve_ball_eigenvalue(ball_problem(2.5, 2, -1.0, 1.0))
    for i in (0, 100, 1024, 2047):
        w, wp = sol.evaluate(float(sol.grid[i]))
        assert w == pytest.approx(sol.omega[i], abs=1e-11)
        assert wp == pytest.approx(sol.omega_prime[i], abs=1e-9)


def test_evaluate_band_query_matches_scalars():
    # A sorted query starting mid-domain anchors on the stored adaptive
    # trajectory; it must agree with independent scalar queries.
    sol = solve_ball_eigenvalue(ball_problem(3.0, 2, 0.0, 1.2))
    band = np.linspace(0.9, 1.15, 64)
    w_band, wp_band = sol.evaluate(band)
    for i in (0, 17, 40, 63):
        w, wp = sol.evaluate(float(band[i]))
        assert w_band[i] == pytest.approx(w, abs=1e-11)
        assert wp_band[i] == pytest.approx(wp, abs=1e-10)


def test_evaluate_unsorted_array():
    # Coarse and unsorted queries, and nodes a few subnormals apart, take
    # the same march as dense ones; each node must agree with an
    # independent scalar query, including nodes far from the pole, where
    # the pole expansion does not hold.
    queries = (np.array([0.9, 0.1, 0.5]), np.linspace(0.0, 1.0, 9),
               np.linspace(0.1, 0.9, 8), np.array([1e-323, 0.0, 5e-324]))
    for p in (2.0, 3.0, 8.0):
        sol = solve_ball_eigenvalue(ball_problem(p, 2, 0.0, 1.0))
        for t in queries:
            w, wp = sol.evaluate(t)
            for ti, wi, wpi in zip(t, w, wp):
                ws, wps = sol.evaluate(float(ti))
                assert wi == pytest.approx(ws, abs=1e-11)
                assert wpi == pytest.approx(wps, abs=1e-10)


_FLAT_BALL = ball_problem(2.5, 2, 0.0, 1.0)
_ANNULUS = RadialProblem(3.0, 2, modelspace.space_form(0.0),
                         Annulus(0.5, 1.5))


@pytest.mark.parametrize("problem,t", [
    (_FLAT_BALL, 1.5), (_FLAT_BALL, -0.1),
    (_FLAT_BALL, math.nextafter(1.0, 2.0)), (_FLAT_BALL, math.nan),
    (_ANNULUS, 0.4), (_ANNULUS, math.nextafter(0.5, 0.0)),
], ids=["ball-1.5", "ball--0.1", "ball-past-r", "ball-nan", "annulus-0.4",
        "annulus-before-a"])
def test_evaluate_refuses_points_outside_the_domain(problem, t):
    # These were read off the march anyway: t = 1.5 gave omega' = -0.808,
    # re-derived with the weight at 1.5, against omega'(1) = -1.0587; the
    # annulus at 0.4 gave 3.386 against 3.029 at the wall; t = -0.1 first
    # warned of a complex pole series, then the profile refused it.
    sol = (solve_ball_eigenvalue(problem) if problem.domain.kind == "ball"
           else solve_annulus_eigenvalue(problem))
    left, right = problem.domain.left, problem.domain.right
    named = re.escape("t=%r, outside the domain [%r, %r]" % (t, left, right))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=named):
            sol.evaluate(t)
        with pytest.raises(ValueError, match=named):
            sol.evaluate(np.array([left, t, right]))
    # both ends are inside
    w, _ = sol.evaluate(np.array([left, right]))
    assert w[0] == sol.omega[0] and w[1] == sol.omega[-1]


def test_cached_solution_is_read_only(monkeypatch):
    problem = ball_problem(2.0, 2, 0.0, 1.0)
    fresh = solve_ball_eigenvalue(problem, use_cache=False)
    sol = solve_ball_eigenvalue(problem)
    peak = sol.omega.max()
    # fresh.omega_prime is the first read of that solution: the build it
    # starts must protect all three arrays
    for arr in (fresh.omega_prime, fresh.grid, fresh.omega,
                sol.grid, sol.omega, sol.omega_prime):
        with pytest.raises(ValueError):
            arr[:] = 0.0
        with pytest.raises(ValueError):
            arr *= 2.0
    # another solve shares the record's arrays, with no shot and no march
    shots, sizes = _shot_spy(monkeypatch), _count_marches(monkeypatch)
    again = solve_ball_eigenvalue(problem)
    assert again.omega is sol.omega and shots == [] and sizes == []
    assert again.omega.max() == peak == pytest.approx(1.0, abs=1e-12)


_DENSE_NAMES = ("grid", "omega", "omega_prime", "residual")
_LAZY_PROBLEMS = [
    ball_problem(2.5, 2, 1.0, 1.0),
    RadialProblem(3.0, 2, modelspace.space_form(0.0), Annulus(0.5, 1.0)),
]


def _fresh_solve(problem):
    if problem.domain.kind == "ball":
        return solve_ball_eigenvalue(problem, use_cache=False)
    return solve_annulus_eigenvalue(problem, use_cache=False)


def _count_marches(monkeypatch):
    """The grid size of every later march, negated for a recording one."""
    sizes = []
    march = radial.RadialSolution._march

    def counted(self, rec=None):
        sizes.append(self.n_grid if rec is None else -self.n_grid)
        return march(self, rec)

    monkeypatch.setattr(radial.RadialSolution, "_march", counted)
    return sizes


def test_kazdan_sandwich_does_not_march(monkeypatch):
    # The quadratic sandwich reads only lam off its solve and builds the
    # solution's grid itself: a cold call marches nothing.
    radial.clear_solver_cache()
    sizes = _count_marches(monkeypatch)
    stats = acceptance.kazdan_quadratic_stats(2.0, 2, 0.0, 1.0)
    assert sizes == []
    sol = solve_ball_eigenvalue(ball_problem(2.0, 2, 0.0, 1.0), n_grid=2001)
    assert stats["lambda"] == sol.lam
    assert np.array_equal(np.linspace(0.0, 1.0, 2001), sol.grid)
    assert stats["inf"] <= sol.lam <= stats["sup"]


@pytest.mark.parametrize("problem", _LAZY_PROBLEMS, ids=["ball", "annulus"])
def test_lambda_only_solve_does_not_march(monkeypatch, problem):
    sizes = _count_marches(monkeypatch)
    sol = _fresh_solve(problem)
    assert sol.lam > 0.0 and sol.iterations > 0
    assert "lam=" in repr(sol)
    assert sizes == []


@pytest.mark.parametrize("name", _DENSE_NAMES)
def test_first_dense_read_marches_once(monkeypatch, name):
    sizes = _count_marches(monkeypatch)
    sol = _fresh_solve(_LAZY_PROBLEMS[0])
    assert sizes == []
    getattr(sol, name)
    assert sizes == [sol.n_grid]
    for other in _DENSE_NAMES:
        getattr(sol, other)
    assert sizes == [sol.n_grid]


@pytest.mark.parametrize("problem", _LAZY_PROBLEMS, ids=["ball", "annulus"])
def test_lazy_arrays_match_evaluate(problem):
    sol = _fresh_solve(problem)
    w, wp = sol.evaluate(sol.grid)
    assert np.array_equal(sol.omega, w)
    assert np.array_equal(sol.omega_prime, wp)


@pytest.mark.parametrize("problem", _LAZY_PROBLEMS, ids=["ball", "annulus"])
def test_first_evaluate_is_the_one_march(monkeypatch, problem):
    # The first evaluate marches the grid once, recording its steps, and
    # builds the dense names on the way; a later evaluate steps nothing.
    sizes = _count_marches(monkeypatch)
    # a built grid is kept: the recording march stores no new arrays
    built = _fresh_solve(problem)
    omega = built.omega
    built.evaluate(0.5)
    assert built.omega is omega
    assert sizes == [built.n_grid, -built.n_grid]
    del sizes[:]
    sol = _fresh_solve(problem)
    scan = np.linspace(sol._left, sol.r, 3001)
    first = sol.evaluate(scan)
    assert sizes == [-sol.n_grid]
    assert sol.omega is sol._builds[sol.n_grid, "omega"]
    assert sol.residual > 0.0 and sizes == [-sol.n_grid]

    def refuse(*args, **kwargs):
        raise AssertionError("a second evaluate stepped")

    sol._walk = refuse
    monkeypatch.setattr(_ode, "graded_steps", refuse)
    again = sol.evaluate(scan)
    assert sizes == [-sol.n_grid]
    assert all(np.array_equal(a, b) for a, b in zip(first, again))


@pytest.mark.parametrize("problem", _LAZY_PROBLEMS, ids=["ball", "annulus"])
def test_every_fixed_step_is_a_walk(monkeypatch, problem):
    # A form makes two loops, the shots' integrate and walk.  A zero
    # refinement (a shot's omega zero, an annulus's flux zero) walks
    # one-step plans; the grid march walks its whole plan once, the
    # recording march of the first evaluate once more, and neither
    # reaches integrate.
    calls = []
    make_rhs = radial._make_rhs

    def spied(p, m, profile, lam):
        made = make_rhs(p, m, profile, lam)
        assert [fn.__name__ for fn in made] == ["f", "integrate", "walk"]
        rhs, integrate, walk = made

        def integrate_spy(*args):
            calls.append("integrate")
            return integrate(*args)

        def walk_spy(ts, *args):
            calls.append(len(ts))
            return walk(ts, *args)
        return rhs, integrate_spy, walk_spy

    monkeypatch.setattr(radial, "_make_rhs", spied)
    sol = _fresh_solve(problem)
    assert "integrate" in calls and 1 in calls
    assert set(calls) == {"integrate", 1}
    del calls[:]
    sol._scale      # the peak: one-step walks, then its graded plan
    if sol._startup is None:
        assert set(calls[:-1]) == {1} and calls[-1] > 1
    else:
        assert calls == []
    del calls[:]
    sol.omega
    assert len(calls) == 1 and calls[0] >= sol.n_grid - 1
    sol.evaluate(0.5)
    assert calls == [calls[0]] * 2
    sol.evaluate(np.linspace(sol._left, sol.r, 101))
    assert calls == [calls[0]] * 2


def test_stored_steps_are_read_only():
    # The steps are shared by every solution of the shot record.
    sol = solve_ball_eigenvalue(ball_problem(2.0, 2, 0.0, 1.0))
    sol.evaluate(0.5)
    for arr in sol._steps:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0


def test_m1_builds_are_shared_by_every_warping(monkeypatch):
    # At m = 1 no build reads more of the problem than the shot does
    # (`RadialProblem.cache_key`): the solves on S_-1, S_0, S_1 and
    # tab-sinh march once and share one set of read-only arrays, each bit
    # for bit a cold solve of its own problem.  At m = 2 every warping
    # marches its own.
    radial.clear_solver_cache()
    sizes = _count_marches(monkeypatch)
    sols = [solve_ball_eigenvalue(RadialProblem(2.5, 1, prof, Ball(1.0)))
            for prof in _warpings(Ball(1.0))]
    assert len(sols) == 4
    for sol in sols:
        assert sol.omega is sols[0].omega and sol.grid is sols[0].grid
        assert sol.omega_prime is sols[0].omega_prime
    assert sizes == [sols[0].n_grid]
    for sol in sols:
        _assert_same_solution(sol, _fresh_solve(sol.problem))
    del sizes[:]
    for c in (-1.0, 0.0, 1.0):
        solve_ball_eigenvalue(ball_problem(2.5, 2, c, 1.0)).omega
    assert len(sizes) == 3


def test_forked_builds_come_home(monkeypatch):
    # This process solves for lam only; a forked child reads omega and
    # evaluates.  The child's builds come back into the shot record,
    # read-only, so this process's solution reads them with no march.
    problem = _LAZY_PROBLEMS[1]
    radial.clear_solver_cache()
    sol = solve_annulus_eigenvalue(problem)
    t = np.linspace(sol._left, sol.r, 101)

    def case(i):
        if i == 0:
            return None
        child = solve_annulus_eigenvalue(problem)
        return [a.tobytes() for a in (child.omega,) + child.evaluate(t)]

    _cpus(monkeypatch, 2)
    sizes = _count_marches(monkeypatch)
    _, sent = radial.fork_map(case, [0, 1])
    _assert_no_child_left()
    assert sizes == []
    got = [sol.omega] + list(sol.evaluate(t))
    assert sizes == [] and [a.tobytes() for a in got] == sent
    for arr in (sol.grid, sol.omega, sol.omega_prime) + sol._steps:
        assert not arr.flags.writeable
    assert sol._scale > 1.0 and sol.residual > 0.0 and sizes == []
    _assert_same_solution(sol, _fresh_solve(problem))


def test_residual_detects_doctored_eigenvalue():
    sol = solve_ball_eigenvalue(ball_problem(2.0, 2, 0.0, 1.0))
    fake = SimpleNamespace(problem=sol.problem, lam=1.05 * sol.lam,
                           grid=sol.grid, omega=sol.omega,
                           omega_prime=sol.omega_prime, r=sol.r)
    doctored = eigen_equation_residual(fake)
    assert doctored > 1e3 * sol.residual
    assert doctored == pytest.approx(0.05, rel=0.3)


def test_residual_detects_doctored_profile():
    sol = solve_ball_eigenvalue(ball_problem(2.0, 2, 0.0, 1.0))
    wrong = SimpleNamespace(problem=ball_problem(2.0, 2, -1.0, 1.0),
                            lam=sol.lam, grid=sol.grid, omega=sol.omega,
                            omega_prime=sol.omega_prime, r=sol.r)
    assert eigen_equation_residual(wrong) > 1e3 * sol.residual


def test_shot_first_zero_monotone_in_lambda():
    # Oscillation: larger lam pulls the first zero inward; below the
    # eigenvalue there is no zero at all.
    problem = ball_problem(2.5, 2, 0.0, 1.0)
    lam_star = solve_ball_eigenvalue(problem).lam
    zeros = []
    for factor in (1.1, 1.5, 2.5):
        ts, ys, miss = radial._shoot(problem, factor * lam_star)
        assert miss <= 0.0
        rhs, _, walk = radial._make_rhs(problem.p, problem.m,
                                        problem.profile, factor * lam_star)
        zeros.append(radial._refine_zero(rhs, walk, ts, ys, len(ts) - 1,
                                         1e-12)[0])
    assert zeros[0] > zeros[1] > zeros[2]
    assert radial._shoot(problem, 0.9 * lam_star)[2] > 0.0


def test_solver_cache_and_determinism(monkeypatch):
    radial.clear_solver_cache()
    problem = ball_problem(2.0, 2, 1.0, 0.7)
    first = solve_ball_eigenvalue(problem)
    first.omega
    shots, sizes = _shot_spy(monkeypatch), _count_marches(monkeypatch)
    hit = solve_ball_eigenvalue(problem)
    assert hit.omega is first.omega and shots == [] and sizes == []
    radial.clear_solver_cache()
    again = solve_ball_eigenvalue(problem)
    assert again is not first and again.lam == first.lam
    assert np.array_equal(again.omega, first.omega)


def _shot_spy(monkeypatch):
    """The list that every later `radial._shoot` call appends its lam to."""
    shots = []
    shoot = radial._shoot

    def spy(problem, lam):
        shots.append(lam)
        return shoot(problem, lam)

    monkeypatch.setattr(radial, "_shoot", spy)
    return shots


def _assert_same_solution(sol, cold):
    """sol and the cold solve agree in lam, steps, every array bit and
    the residual."""
    assert (cold.lam, cold.iterations) == (sol.lam, sol.iterations)
    for name in ("grid", "omega", "omega_prime"):
        arr = getattr(sol, name)
        assert not arr.flags.writeable
        assert arr.tobytes() == getattr(cold, name).tobytes()
    assert sol.residual == cold.residual


@pytest.mark.parametrize("problem", _LAZY_PROBLEMS, ids=["ball", "annulus"])
def test_other_grid_size_takes_no_shot(monkeypatch, problem):
    # The shot result is cached per (problem, tol): a solve that differs
    # only in n_grid builds its grid from it, and its arrays are those of
    # a cold solve.  clear_solver_cache drops the shot result too.
    solve = (solve_ball_eigenvalue if problem.domain.kind == "ball"
             else solve_annulus_eigenvalue)
    radial.clear_solver_cache()
    first = solve(problem)
    shots = _shot_spy(monkeypatch)
    sol = solve(problem, n_grid=1000)
    assert shots == [] and sol is not first
    assert (sol.lam, sol.iterations) == (first.lam, first.iterations)
    cold = solve(problem, n_grid=1000, use_cache=False)
    assert shots
    _assert_same_solution(sol, cold)
    del shots[:]
    radial.clear_solver_cache()
    solve(problem, n_grid=1000)
    assert shots


def _warpings(domain):
    """S_-1, S_0, S_1 and, where the domain fits its table (which ends at
    1.05), the battery's tab-sinh."""
    tab_sinh = dict(acceptance.compare_profiles())["tab-sinh"]
    profiles = [modelspace.space_form(c) for c in (-1.0, 0.0, 1.0)]
    return profiles + ([tab_sinh] if domain.right <= tab_sinh.r_max else [])


@pytest.mark.parametrize("p, domain", [(2.5, Ball(1.0)),
                                       (3.0, Annulus(0.2, 1.2))],
                         ids=["ball", "annulus"])
def test_m1_shot_is_shared_by_every_warping(monkeypatch, p, domain):
    # At m = 1 the weight f^0 is 1 and the shot reads no bit of the
    # warping, so its cache key leaves the warping out: on a cold cache
    # only the first warping's solve shoots, and every other's solution,
    # built for its own problem, is bit for bit a cold solve of it.
    solve = (solve_ball_eigenvalue if domain.kind == "ball"
             else solve_annulus_eigenvalue)
    shots = _shot_spy(monkeypatch)
    radial.clear_solver_cache()
    problems = [RadialProblem(p, 1, prof, domain)
                for prof in _warpings(domain)]
    for i, problem in enumerate(problems):
        sol = solve(problem)
        assert sol.problem is problem
        assert bool(shots) == (i == 0)
        if i:
            cold = solve(problem, use_cache=False)
            _assert_same_solution(sol, cold)
        del shots[:]
    radial.clear_solver_cache()
    solve(problems[-1])
    assert shots


def test_m2_shot_is_one_per_warping(monkeypatch):
    # At m = 2 the weight is f itself: every warping takes its own shot.
    domain = Ball(1.0)
    shots = _shot_spy(monkeypatch)
    radial.clear_solver_cache()
    for prof in _warpings(domain):
        problem = RadialProblem(2.5, 2, prof, domain)
        assert solve_ball_eigenvalue(problem).problem is problem
        assert shots
        del shots[:]


def test_tolerance_refines_eigenvalue():
    problem = ball_problem(2.0, 3, 0.0, 1.0)
    rough = solve_ball_eigenvalue(problem, tol=1e-4).lam
    fine = solve_ball_eigenvalue(problem, tol=1e-12).lam
    assert abs(fine - math.pi ** 2) < abs(rough - math.pi ** 2)
    assert abs(rough - math.pi ** 2) <= 2e-4 * math.pi ** 2


# constructor guards


def test_problem_validation():
    with pytest.raises(ValueError):
        ball_problem(0.5, 2, 0.0, 1.0)
    with pytest.raises(ValueError):
        ball_problem(32.0, 2, 0.0, 1.0)
    with pytest.raises(ValueError):
        ball_problem(2.0, 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ball_problem(2.0, 2, 1.0, math.pi)       # conjugate point
    with pytest.raises(ValueError):
        Ball(-1.0)
    with pytest.raises(ValueError):
        Annulus(2.0, 1.0)
    with pytest.raises(ValueError):
        RadialProblem(2.0, 3, modelspace.space_form(0.0), Annulus(0.0, 1.0))
    with pytest.raises(ValueError):
        RadialProblem(2.0, 2, modelspace.space_form(0.0, r_max=1.0),
                      Ball(2.0))
    with pytest.raises(TypeError):
        RadialProblem(2.0, 2, "flat", Ball(1.0))


def test_refusals_name_the_parameter():
    # A radius beyond the profile's domain and one at the conjugate point
    # were refused without naming r or c.
    conjugate = modelspace.WarpingProfile("spaceform", c=1.0, r_max=3.5,
                                          label="S_c(c=1)", f3_0=-1.0)
    for make, named in ((lambda: ball_problem(2.0, 2, 0.0, 9.0), "r=9"),
                        (lambda: RadialProblem(2.0, 2, conjugate, Ball(3.2)),
                         "c=1"),
                        (lambda: ball_problem(2.0, 0, 0.0, 1.0), "m=0")):
        with pytest.raises(ValueError, match=named):
            make()


@pytest.mark.parametrize("m,domain,named", [
    (1000, Ball(1.0), "m=1000"), (100, Ball(1.0), "m=100"),
    (2, Ball(1e-300), r"r=1e-300"), (1, Ball(1e-170), r"r=1e-170"),
    (3, Annulus(1e-200, 1.0), "m=3"),
], ids=["m1000", "m100", "r1e-300", "r1e-170-m1", "annulus-m3"])
def test_unrepresentable_problems_are_refused(m, domain, named):
    # A shot divides by the weight f^(m-1) at its start, a ball's seed by
    # r**2.  Where either underflowed to 0 the solve ended in a
    # ZeroDivisionError, reported as non-convergence.
    with pytest.raises(ValueError, match=named):
        RadialProblem(2.0, m, modelspace.space_form(0.0), domain)


def test_every_trial_start_state_is_checked():
    # At r = 1e-77 the first trial lam (2.0e154) starts finite, but at
    # the next doubling rung a^2 of the pole expansion overflows, and
    # omega(t0) = inf * 0 made the shot's error estimate NaN (exit 3).
    # Every shot's start, loose or tight, is refused instead.
    problem = ball_problem(2.0, 2, 0.0, 1e-77)
    lam = radial._half_seed(problem)
    radial._start(problem, lam)
    for start in (radial._start, radial._loose_zero_free, radial._shoot):
        with pytest.raises(ValueError, match=r"r=1e-77.*p=2, m=2"):
            start(problem, 2.0 * lam)
    with pytest.raises(ValueError, match=r"r=1e-77.*p=2, m=2"):
        solve_ball_eigenvalue(problem, use_cache=False)


def test_representable_edges_are_not_refused():
    # (1e-4)^79 and (1e-150)^2 are subnormal, not 0.
    flat = modelspace.space_form(0.0)
    RadialProblem(2.0, 80, flat, Ball(1.0))
    RadialProblem(2.0, 2, flat, Ball(1e-150))
    RadialProblem(2.0, 1, flat, Annulus(0.0, 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_domains_reject_non_finite_radii(bad):
    # "r <= 0" and "0 <= a < b" read NaN as passing.
    with pytest.raises(ValueError, match="r="):
        Ball(bad)
    for a, b in ((bad, 1.0), (0.0, bad), (bad, bad)):
        with pytest.raises(ValueError, match="a="):
            Annulus(a, b)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_dimension_and_grid_are_refused(bad):
    # int() raised OverflowError on +-inf, and on NaN a message that
    # names no parameter.
    with pytest.raises(ValueError, match="dimension m"):
        RadialProblem(2.0, bad, modelspace.space_form(0.0), Ball(1.0))
    with pytest.raises(ValueError, match="grid size n="):
        solve_ball_eigenvalue(ball_problem(2.0, 2, 0.0, 1.0), n_grid=bad)
    with pytest.raises(ValueError, match="grid size n="):
        solve_annulus_eigenvalue(
            RadialProblem(2.0, 1, modelspace.space_form(0.0),
                          Annulus(0.0, 1.0)), n_grid=bad)


def test_domain_mismatch_guards():
    ball_prob = ball_problem(2.0, 2, 0.0, 1.0)
    ann_prob = RadialProblem(2.0, 3, modelspace.space_form(0.0),
                             Annulus(1.0, 2.0))
    with pytest.raises(ValueError):
        solve_ball_eigenvalue(ann_prob)
    with pytest.raises(ValueError):
        solve_annulus_eigenvalue(ball_prob)


BAD_TOLS = (math.nan, 0.0, -1.0, math.inf, 1.0, 1e-16)


def test_ball_solve_rejects_bad_tol():
    # Unchecked, tol = inf stops Brent at 2.0000305 for j01^2 = 5.7832.
    problem = ball_problem(2.0, 2, 0.0, 1.0)
    for tol in BAD_TOLS:
        with pytest.raises(ValueError, match="tol="):
            solve_ball_eigenvalue(problem, tol=tol)


def test_annulus_solve_rejects_bad_tol():
    # Unchecked, tol = inf stops Brent at 1.2337 for pi^2 = 9.8696.
    problem = RadialProblem(2.0, 1, modelspace.space_form(0.0),
                            Annulus(0.0, 1.0))
    for tol in BAD_TOLS:
        with pytest.raises(ValueError, match="tol="):
            solve_annulus_eigenvalue(problem, tol=tol)
