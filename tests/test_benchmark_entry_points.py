"""The benchmark's tracer and workloads still find every name they use.

``perfbench/spans.py`` wraps the entry points in ``TARGETS`` when it is
imported, and ``perfbench/workloads.py`` calls into ptone directly, so a
renamed or deleted name would first show up as a failed benchmark run.
Both files are loaded here by path and only read; nothing under
``perfbench/`` is written (no bytecode either).
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

from ptone import acceptance, bounds, cli, critical, modelspace, radial, \
    rayleigh, surfaces

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PTONE_MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in
                 (acceptance, bounds, cli, critical, modelspace, radial,
                  rayleigh, surfaces)}


def load(name):
    """Execute perfbench/<name>.py as a fresh module, without caching it."""
    path = PERFBENCH / (name + ".py")
    spec = importlib.util.spec_from_file_location("perfbench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def spans():
    return load("spans")


@pytest.mark.parametrize("name", ["spans", "workloads"])
def test_every_ptone_attribute_exists(name):
    # Every ``<module>.<attr>`` the file reads off a ptone module.
    tree = ast.parse((PERFBENCH / (name + ".py")).read_text())
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in PTONE_MODULES}
    assert used
    missing = sorted("%s.%s" % pair for pair in used
                     if not hasattr(PTONE_MODULES[pair[0]], pair[1]))
    assert missing == []


def test_workloads_calls_resolve():
    load("workloads")
    assert callable(cli.compare_profiles)
    params = inspect.signature(radial.solve_ball_eigenvalue).parameters
    assert "use_cache" in params


def test_targets_resolve(spans):
    for _, owner, attr, _ in spans.TARGETS:
        assert callable(getattr(owner, attr)), attr


def test_tracer_wraps_and_restores(spans):
    homes = list(spans.MODULES) + [owner for _, owner, _, _ in spans.TARGETS
                                   if inspect.isclass(owner)]
    before = [(home, dict(vars(home))) for home in homes]
    originals = [getattr(owner, attr) for _, owner, attr, _ in spans.TARGETS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (_, owner, attr, _), fn in zip(spans.TARGETS, originals):
            assert getattr(owner, attr).__wrapped__ is fn, attr
        # One traced solve feeds the spans that read the solution.
        radial.solve_ball_eigenvalue(radial.ball_problem(2.0, 2, 0.0, 1.0),
                                     use_cache=False)
    finally:
        tracer.uninstall()
    for (_, owner, attr, _), fn in zip(spans.TARGETS, originals):
        assert getattr(owner, attr) is fn, attr
    for home, names in before:
        assert dict(vars(home)) == names, home
    named = {s[1]: s[6] for s in tracer.spans}
    assert "radial.solve" in named
    assert isinstance(named["radial.solution_init"]["iterations"], int)


def test_tracer_sees_the_cli_row_builders(spans, tmp_path):
    # The command table calls each row builder through its module name,
    # so the tracer's wrapper is the one that runs: one cli.rows span per
    # command.
    tracer = spans.Tracer()
    tracer.install()
    try:
        for command in ("sweep", "rstar"):
            assert cli.main([command, "--p", "2", "--m", "2", "--c", "0",
                             "--r", "1", "--out",
                             str(tmp_path / (command + ".csv"))]) == 0
    finally:
        tracer.uninstall()
    assert [s[1] for s in tracer.spans].count("cli.rows") == 2
