"""The benchmark's output checks reject wrong answers and failed solves.

    python3 -m pytest perfbench/test_checks.py
"""

import math
import random
import types

import pytest

import run

run.import_program()

import spans  # noqa: E402  (needs ptone on the path)
import workloads  # noqa: E402
from ptone import acceptance, radial, surfaces  # noqa: E402


def good_sweep_rows():
    """Rows that pass every sweep check: anchors exact, lambda falling in c."""
    rows = []
    for p, m, c, r in workloads.sweep_grid():
        base = workloads.SWEEP_ANCHORS.get((p, m, 0.0, r), 10.0 * p + m)
        lam = base * (1.0 - 0.1 * c)
        rows.append({"p": p, "m": m, "c": c, "r": r, "lambda": lam,
                     "barta": lam * (1.0 - 1e-6),
                     "rayleigh": lam * (1.0 + 1e-4)})
    return rows


def test_sweep_checks_pass_good_rows():
    failures, anchor_err = workloads.check_sweep_rows(good_sweep_rows())
    assert failures == {}
    assert anchor_err == 0.0


@pytest.mark.parametrize("key", [(2.0, 2, 0.0, 1.0), (3.0, 3, 1.0, 1.0)])
def test_sweep_checks_reject_doctored_lambda(key):
    rows = good_sweep_rows()
    for row in rows:
        if (row["p"], row["m"], row["c"], row["r"]) == key:
            row["lambda"] *= 1.0 + 1e-4
    failures, _ = workloads.check_sweep_rows(rows)
    assert key in failures


def test_sweep_checks_reject_missing_row():
    failures, _ = workloads.check_sweep_rows(good_sweep_rows()[1:])
    assert list(failures) == [workloads.sweep_grid()[0]]


def test_warped_checks_reject_doctored_lambda():
    refs = {("ball", -1.0, 3.0, 2, 1.0): 10.0, ("ball", 0.0, 3.0, 2, 1.0): 9.0}
    sinh_key = ("ball", "tab-sinh", 3.0, 2, 1.0)
    annulus_key = ("annulus", 0.0, 3.0, 1, (0.2, 1.2))
    exact = 2.0 * radial.pi_p(3.0) ** 3
    for key, lam in ((sinh_key, 10.0), (annulus_key, exact)):
        good = types.SimpleNamespace(lam=lam, residual=1e-9)
        assert workloads.check_warped(key, good, refs)[0] is None
        bad = types.SimpleNamespace(lam=lam * (1.0 + 1e-4), residual=1e-9)
        assert workloads.check_warped(key, bad, refs)[0] is not None


def test_nonconvergence_fails_every_operation(monkeypatch, tmp_path):
    def refuse(problem, *args, **kwargs):
        raise radial.NonConvergenceError("refused for the test")

    monkeypatch.setattr(radial, "solve_ball_eigenvalue", refuse)
    monkeypatch.setattr(radial, "solve_annulus_eigenvalue", refuse)

    warped = workloads.Warped(str(tmp_path))
    outcome = warped.run_pass(random.Random(0))
    assert len(outcome.failures) == outcome.attempted == warped.ops_per_pass
    assert outcome.unexpected == set(outcome.failures)
    assert all("NonConvergenceError" in msg
               for msg in outcome.failures.values())

    monkeypatch.setenv("PTONE_THREADS", "1")
    sweep = workloads.Sweep(str(tmp_path))
    outcome = sweep.run_pass(random.Random(0))
    assert len(outcome.failures) == outcome.attempted == sweep.ops_per_pass
    assert all("exited 3" in msg for msg in outcome.failures.values())


def criterion_9(red_clauses):
    rows = [{"clause": clause, "ok": clause not in red_clauses}
            for clause in ("p2", "spherical", "hyperbolic-interior",
                           "flat-interior")]
    return acceptance.CriterionResult(9, "critical radius", not red_clauses,
                                      "detail", rows, 1.0)


def test_only_the_known_red_clause_is_expected():
    assert workloads.check_criterion(criterion_9([])) == (None, False)
    failure, unexpected = workloads.check_criterion(
        criterion_9(["flat-interior"]))
    assert failure and not unexpected
    failure, unexpected = workloads.check_criterion(
        criterion_9(["flat-interior", "p2"]))
    assert failure and unexpected
    other = acceptance.CriterionResult(4, "barta sharpness", False, "detail",
                                       [], 1.0)
    assert workloads.check_criterion(other)[1]


def test_tracer_wraps_names_imported_elsewhere_and_undoes():
    original = radial.solve_ball_eigenvalue
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert surfaces.solve_ball_eigenvalue is radial.solve_ball_eigenvalue
        assert surfaces.solve_ball_eigenvalue is not original
        radial.clear_solver_cache()
        surfaces.solve_ball_eigenvalue(radial.ball_problem(2.0, 2, 0.0, 1.0))
    finally:
        tracer.uninstall()
    assert surfaces.solve_ball_eigenvalue is original
    names = [s[1] for s in tracer.spans]
    assert names.count("radial.solve") == 1
    assert names.count("radial.solution_init") == 1
    init = next(s for s in tracer.spans if s[1] == "radial.solution_init")
    solve = next(s for s in tracer.spans if s[1] == "radial.solve")
    assert init[4] == solve[0]


def test_self_time_and_threads():
    # one solve on thread 1 with a child; an overlapping solve on thread 2
    spans_ = [(0, "radial.solve", 0.0, 4.0, None, 1, None),
              (1, "radial.solution_init", 1.0, 3.0, 0, 1,
               {"iterations": 27}),
              (2, "radial.solve", 2.0, 5.0, None, 2, None)]
    idx = spans.SpanIndex(spans_)
    assert idx.busy("radial.solve") == 5.0
    # thread 1 self: [0,1] and [3,4]; thread 2: [2,5]; union [0,1]+[2,5]
    assert idx.self_busy("radial.solve") == 4.0
    metrics = spans.layer_metrics(spans_, passes=1)
    assert metrics["radial.cache.hit_ratio"] == 0.5
    assert metrics["radial.bisect_steps_per_solve"] == 27
    assert math.isclose(metrics["radial.solution_init.s"], 2.0)
