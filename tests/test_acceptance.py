"""Acceptance battery: one test per criterion, run off a single pass.

The battery itself lives in ptone.acceptance; this file executes every
criterion once (module-scoped fixture) and turns each result into a
pass/fail line.  Criterion 9 is asserted clause by clause first, so a
failure names the clause that broke; its docstring carries the proof of
the flat clause's bound W <= lambda (2-p) omega^{p-1} / m.
"""

import pytest

from conftest import _assert_no_child_left, _count_calls, _cpus
from ptone import acceptance


@pytest.fixture(scope="module")
def battery():
    results = acceptance.run_all()
    return {res.number: res for res in results}


def _check(res):
    print(res.status_line())
    assert res.passed, res.detail


def test_criterion_01_closed_form_eigenvalues(battery):
    _check(battery[1])


def test_criterion_02_flat_scaling_law(battery):
    _check(battery[2])


def test_criterion_03_shooting_vs_rayleigh(battery):
    _check(battery[3])


def test_criterion_04_barta_sharpness(battery):
    _check(battery[4])


def test_criterion_05_picone_nonnegativity(battery):
    _check(battery[5])


def test_criterion_06_divergence_field_sharpness(battery):
    _check(battery[6])


def test_criterion_07_curvature_monotonicity(battery):
    _check(battery[7])


def test_criterion_08_warped_model_comparison(battery):
    _check(battery[8])


def test_criterion_09_critical_radius(battery):
    res = battery[9]
    by_clause = {}
    for row in res.rows:
        by_clause.setdefault(row["clause"], []).append(row)

    assert all(row["ok"] for row in by_clause["p2"])
    assert all(row["ok"] for row in by_clause["spherical"])
    assert all(row["ok"] for row in by_clause["hyperbolic-interior"])
    assert all(row["ok"] for row in by_clause["flat-full-radius"])
    _check(res)


def test_criterion_10_flat_integral_identity(battery):
    _check(battery[10])


def test_criterion_11_jorge_koutrofiotis_routes(battery):
    _check(battery[11])


def test_criterion_12_model_control_inequality(battery):
    _check(battery[12])


def test_criterion_13_kazdan_kramer_transform(battery):
    _check(battery[13])


def test_criterion_14_stability_arithmetic(battery):
    _check(battery[14])


def test_criterion_15_harness_determinism(battery):
    _check(battery[15])


def test_battery_runs_inside_time_budget(battery):
    assert sum(res.runtime for res in battery.values()) <= 600.0


def test_registry_results_carry_their_number_name_and_runtime(battery):
    # perfbench/workloads.py reads number, name and runtime off fn() of
    # each (number, name, fn) triple; the battery holds the results in
    # registry order.
    assert [entry[0] for entry in acceptance.REGISTRY] == list(range(1, 16))
    assert len(battery) == len(acceptance.REGISTRY)
    for (number, name, _), res in zip(acceptance.REGISTRY, battery.values()):
        assert (res.number, res.name) == (number, name)
        assert res.runtime > 0.0


# The battery split over forked processes (`radial.fork_map`)


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """n -> (results, work counts, forks) of the battery on n CPUs."""
    out = {}
    for n in (1, 3):
        with pytest.MonkeyPatch.context() as mp:
            forks = _cpus(mp, n)
            counts = _count_calls(
                mp, tmp_path_factory.mktemp("work") / "calls")
            results = acceptance.run_all()
            _assert_no_child_left()
            out[n] = results, counts(), len(forks)
    return out


def _hexed(value):
    return float.hex(value) if isinstance(value, float) else value


def test_battery_is_the_same_on_any_cpu_count(passes):
    # Every criterion's verdict, detail and rows, floats to the bit.
    (serial, _, serial_forks), (forked, _, forks) = passes[1], passes[3]
    assert serial_forks == 0 and forks > 0
    assert len(serial) == len(forked) == len(acceptance.REGISTRY)
    for one, three in zip(serial, forked):
        assert (one.number, one.passed, one.detail) == (
            three.number, three.passed, three.detail)
        assert [{k: _hexed(v) for k, v in row.items()} for row in one.rows] \
            == [{k: _hexed(v) for k, v in row.items()} for row in three.rows]
        assert [list(map(type, row.values())) for row in one.rows] == \
            [list(map(type, row.values())) for row in three.rows]


def test_battery_repeats_no_march_across_processes(passes):
    # The children send back every shot record with its builds, so a
    # criterion reads what an earlier one built in any process, and the
    # cases that share a shot run in one process (`CROSS_RUNS` and the
    # cuts of criteria 11-13), so no two processes take one.
    serial, forked = passes[1][1], passes[3][1]
    assert forked["_march"] == serial["_march"] > 0
    # The serial pass's work budget: each pin is the count measured when
    # it was set; a change that takes fewer lowers it.
    assert serial["_solve"] <= 112 and serial["_shoot"] <= 913
    assert serial["_march"] <= 63
    assert forked["_solve"] == serial["_solve"]
    assert forked["_shoot"] == serial["_shoot"]


def test_each_multi_case_criterion_forks(monkeypatch):
    # On 3 CPUs the criteria that split their cases fork, criterion 15
    # its two emissions, and the others run in this process.
    forks = _cpus(monkeypatch, 3)
    forked = set()
    for number, _, fn in acceptance.REGISTRY:
        before = len(forks)
        fn()
        if len(forks) > before:
            forked.add(number)
    _assert_no_child_left()
    assert forked == {2, 3, 4, 6, 7, 9, 10, 11, 12, 13, 15}
