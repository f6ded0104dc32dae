import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csv_bodies
from conftest import _assert_no_child_left, _count_calls, _cpus
from ptone import _ode, cli, modelspace, radial


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "ptone.cli", *args],
                          capture_output=True, text=True)


def run_main(capsys, *args):
    """`cli.main` in this process, with run_cli's exit code and output."""
    try:
        code = cli.main(list(args))
    except SystemExit as exc:                        # argparse usage error
        code = exc.code
    out, err = capsys.readouterr()
    return subprocess.CompletedProcess(args, code, out, err)


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


# plumbing units


def test_parse_list_forms():
    assert cli._parse_list("2,3") == [2.0, 3.0]
    assert cli._parse_list("2") == [2.0]
    assert cli._parse_list("0.5:1.5:0.25") == [0.5, 0.75, 1.0, 1.25, 1.5]
    assert cli._parse_list("1,2,3", cast=int) == [1, 2, 3]
    with pytest.raises(ValueError):
        cli._parse_list("")
    with pytest.raises(ValueError):
        cli._parse_list("1:2")                       # malformed range
    with pytest.raises(ValueError):
        cli._parse_list("2:1:0.5")                   # empty range
    with pytest.raises(ValueError):
        cli._parse_list("1.5", cast=int)
    assert cli._parse_list(" plane, catenoid", cast=str) == ["plane",
                                                             "catenoid"]
    assert cli._parse_list("2048", cast=int, single=True) == 2048
    # inf as an integer and an infinite range ended in an OverflowError
    # traceback, exit 1.
    for text, cast in (("inf", int), ("0:inf:1", float)):
        with pytest.raises(ValueError):
            cli._parse_list(text, cast=cast)
    with pytest.raises(ValueError):
        cli._parse_list("2,3", single=True)
    with pytest.raises(ValueError):
        cli._parse_list("plane,", cast=str)


def test_range_expands_to_at_most_max_rows_values():
    # A range's values were built with no limit: 0:1e9:1e-9 asked for
    # 10^18 of them.
    n = cli.MAX_ROWS
    assert len(cli._parse_list("1:%d:1" % n)) == n
    with pytest.raises(ValueError, match="expands to %d values" % (n + 1)):
        cli._parse_list("0:%d:1" % n)


@pytest.mark.parametrize("argv,named", [
    (["eig", "--p", "0:1e9:1e-9"],
     "--p: range '0:1e9:1e-9' expands to 1000000000000000001 values"),
    (["surface", "--p", "2", "--r", "1:2:1e-12"], "--r: range "),
    (["eig", "--p", "0:99:1", "--m", "1:101:1"],
     "--p, --m, --c, --r: 100 x 101 x 1 x 1 = 10100 rows"),
])
def test_cli_refuses_more_than_max_rows(argv, named, tmp_path, capsys):
    res = run_main(capsys, *argv)
    assert res.returncode == 2
    assert named in res.stderr and "more than %d" % cli.MAX_ROWS in res.stderr
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"p": "0:1e9:1e-9"}))
    res = run_main(capsys, "eig", "--config", str(config))
    assert res.returncode == 2
    assert "config key p: range '0:1e9:1e-9' expands to " in res.stderr


def test_format_csv_values_and_meta():
    rows = [{"p": 2.0, "ok": True, "label": 'a,"b"', "n": 3},
            {"p": 1.0 / 3.0, "ok": False, "label": "plain", "n": 1}]
    text = cli.format_csv(["p", "ok", "label", "n"], rows, meta="run stamp")
    lines = text.splitlines()
    assert lines[0] == "# run stamp"
    assert lines[1] == "p,ok,label,n"
    assert lines[2].startswith("2,true,")
    assert '"a,""b"""' in lines[2]                   # RFC-4180 quoting
    assert "0.33333333333333331" in lines[3]         # 17 significant digits
    parsed = parse_csv(text)
    assert float(parsed[1]["p"]) == 1.0 / 3.0        # round-trips exactly


def test_format_csv_field_union_preserves_order():
    rows = [{"a": 1, "b": 2}, {"a": 3, "c": 4}]
    text = cli.format_csv(None, rows)
    lines = text.splitlines()
    assert lines[0] == "a,b,c"
    assert lines[2] == "3,,4"


def test_sort_rows_by_parameter_tuple():
    rows = [{"p": 3.0, "m": 1, "c": 0.0, "r": 1.0},
            {"p": 2.0, "m": 2, "c": 1.0, "r": 1.0},
            {"p": 2.0, "m": 2, "c": -1.0, "r": 1.0}]
    out = cli._sort_rows(rows)
    assert [(r["p"], r["c"]) for r in out] == [(2.0, -1.0), (2.0, 1.0),
                                               (3.0, 0.0)]


# subcommands end to end


def test_eig_known_eigenvalue(capsys):
    res = run_main(capsys, "eig", "--p", "2", "--m", "3", "--c", "0", "--r",
                   "1")
    assert res.returncode == 0
    rows = parse_csv(res.stdout)
    assert len(rows) == 1
    assert float(rows[0]["lambda"]) == pytest.approx(9.8696044, rel=1e-5)
    assert float(rows[0]["residual"]) <= 1e-6


def test_eig_rejects_bad_p(capsys):
    res = run_main(capsys, "eig", "--p", "0.5", "--m", "2", "--c", "0",
                   "--r", "1")
    assert res.returncode == 2
    assert "invalid input" in res.stderr


@pytest.mark.parametrize("c,r,message", [
    ("0", "nan", "ball radius"), ("0", "inf", "ball radius"),
    ("nan", "1", "c must be finite"), ("inf", "1", "c must be finite"),
], ids=["nan", "inf", "c-nan", "c-inf"])
def test_eig_rejects_non_finite_radius(c, r, message, capsys):
    # A non-finite curvature is invalid input (exit 2), not a failure of
    # the shots (exit 3).
    res = run_main(capsys, "eig", "--p", "2", "--m", "2", "--c", c, "--r", r)
    assert res.returncode == 2
    assert "invalid input: " + message in res.stderr
    bad = ("c", c) if c != "0" else ("r", r)
    assert "%s=%s" % bad in res.stderr


@pytest.mark.parametrize("n", ["0", "1", "4"])
def test_eig_rejects_too_small_grid(n, capsys):
    assert cli.main(["eig", "--p", "2", "--m", "2", "--c", "0", "--r", "1",
                     "--n", n]) == 2
    assert "n=%s" % n in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf", "1", "1e-17",
                                 "1e-16"])
def test_eig_rejects_bad_tol(tol, capsys):
    # Invalid input, not a failed solve: unchecked, Brent would step to
    # lam = NaN, never close the bracket (below one ulp of lam, it took
    # 100 steps and exited 3), or stop far from j01^2.
    assert cli.main(["eig", "--p", "2", "--m", "2", "--c", "0", "--r", "1",
                     "--tol", tol]) == 2
    assert "tol=" in capsys.readouterr().err


def test_eig_accepts_the_smallest_tol():
    # 2**-52, one ulp relative: Brent still closes the bracket.
    assert cli.main(["eig", "--p", "2", "--m", "2", "--c", "0", "--r", "1",
                     "--tol", repr(2.0 ** -52)]) == 0


def test_eig_scaling_ratio(capsys):
    res = run_main(capsys, "eig", "--p", "2", "--m", "2", "--c", "0", "--r",
                   "1,2")
    rows = parse_csv(res.stdout)
    lam = {float(r["r"]): float(r["lambda"]) for r in rows}
    assert lam[1.0] / lam[2.0] == pytest.approx(4.0, rel=1e-8)


def test_rstar_rejects_p_below_two(capsys):
    res = run_main(capsys, "rstar", "--p", "1.5", "--m", "2", "--c", "0",
                   "--r", "1")
    assert res.returncode == 2


def test_compare_battery_flags_inadmissible_profile(capsys):
    res = run_main(capsys, "compare", "--p", "2", "--r", "1")
    assert res.returncode == 0
    rows = parse_csv(res.stdout)
    by_name = {r["profile"]: r for r in rows}
    assert by_name["hyperbolic"]["admissible"] == "true"
    assert float(by_name["hyperbolic"]["margin_rel"]) >= -1e-6
    assert float(by_name["flat-equality"]["margin_rel"]) == 0.0
    assert by_name["inadmissible-sin"]["admissible"] == "false"


def test_compare_violation_exits_one(monkeypatch, capsys):
    # An admissible profile whose certificate falls below the flat
    # eigenvalue is reported on stderr, and the rows are still written.
    rows = [{"profile": "bad", "p": 2.0, "m": 2, "r": 1.0}]
    monkeypatch.setattr(cli, "compare_rows",
                        lambda p, m, r: (rows, [("bad", 2.0, -0.5)]))
    res = run_main(capsys, "compare", "--p", "2")
    assert res.returncode == 1
    assert "comparison violated: profile=bad p=2 margin_rel=-5.000e-01" \
        in res.stderr
    assert parse_csv(res.stdout)[0]["profile"] == "bad"


def test_kazdan_quadratic_sandwich(capsys):
    res = run_main(capsys, "kazdan", "--phi", "quadratic", "--p", "2", "--m",
                   "2", "--c", "0", "--r", "1")
    rows = parse_csv(res.stdout)
    assert rows[0]["sandwich_ok"] == "true"
    lam = float(rows[0]["lambda"])
    assert float(rows[0]["psi_inf"]) <= lam <= float(rows[0]["psi_sup"])


def test_surface_report_rows(tmp_path, capsys):
    out = tmp_path / "surface.csv"
    res = run_main(capsys, "surface", "--surfaces", "plane", "--p", "2",
                   "--r", "1.2", "--out", str(out), "--json",
                   str(tmp_path / "surface.json"))
    assert res.returncode == 0
    rows = parse_csv(out.read_text())
    assert rows[0]["surface"] == "plane"
    payload = json.loads((tmp_path / "surface.json").read_text())
    assert payload["command"] == "surface"
    assert payload["rows"][0]["cor15"] is True


def test_surface_json_carries_band_details(tmp_path, capsys):
    # The CSV writes the ten BAND_COLUMNS; --json writes the whole row,
    # with the vacuity flag and the band details.
    path = tmp_path / "surface.json"
    res = run_main(capsys, "surface", "--surfaces", "catenoid", "--p", "3",
                   "--r", "1.2", "--json", str(path))
    assert res.returncode == 0, res.stderr
    row = json.loads(path.read_text())["rows"][0]
    assert row["vacuous"] is True                  # k = 0 and p > 2
    assert isinstance(row["modelcontrol_pass"], bool)
    header = next(ln for ln in res.stdout.splitlines()
                  if not ln.startswith("#"))
    assert "vacuous" not in header.split(",")


def test_selftest_filter_and_determinism(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    r1 = run_cli("selftest", "--filter", "determinism", "--out", str(first))
    r2 = run_cli("selftest", "--filter", "determinism", "--out",
                 str(second))
    assert r1.returncode == 0 and r2.returncode == 0
    assert "[15] PASS" in r1.stdout
    body1 = [ln for ln in first.read_text().splitlines()
             if not ln.startswith("#")]
    body2 = [ln for ln in second.read_text().splitlines()
             if not ln.startswith("#")]
    assert body1 == body2 and len(body1) > 1


def test_selftest_json_writes_criteria(tmp_path, capsys):
    path = tmp_path / "selftest.json"
    res = run_main(capsys, "selftest", "--filter", "barta", "--json",
                   str(path))
    assert res.returncode == 0, res.stderr
    payload = json.loads(path.read_text())
    assert payload["command"] == "selftest"
    [crit] = payload["criteria"]
    assert crit["number"] == 4 and crit["name"] == "barta sharpness"
    assert crit["passed"] is True and crit["runtime_s"] > 0.0
    assert crit["detail"] in res.stdout and "[ 4] PASS" in res.stdout


def test_selftest_unknown_filter(capsys):
    res = run_main(capsys, "selftest", "--filter", "nonexistent-criterion")
    assert res.returncode == 2


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": "2,3", "m": 3, "c": "0", "r": "1"}))
    res = run_main(capsys, "eig", "--config", str(cfg), "--m", "2")
    rows = parse_csv(res.stdout)
    assert [r["m"] for r in rows] == ["2", "2"]        # flag wins
    assert [r["p"] for r in rows] == ["2", "3"]        # config list used


GRID = ["eig", "--c", "0", "--r", "1"]


@pytest.mark.parametrize("argv,config,message", [
    (["compare", "--p", "2"], {"m": None}, "config key m holds null"),
    (["kazdan"], {"n": None, "phi": "quadratic"}, "config key n holds null"),
    (["eig"], {"p": [2, None]}, "config key p holds null"),
    (GRID, {"m": 2.5}, "config key m: expected integer values, got 2.5"),
    (GRID, {"m": [2.5]}, "config key m: expected integer values, got 2.5"),
    (GRID, {"n": 2048.7}, "config key n: expected integer values"),
    (GRID, {"n": [2048, 4096]}, "config key n: expected one value"),
    (GRID, {"p": [2, [3]]}, "config key p holds [2, [3]];"),
    (GRID, {"p": {"a": 1}}, 'config key p holds {"a": 1};'),
    (GRID, {"m": True}, "config key m holds true;"),
    (["eig"], {"c": [True]}, "config key c holds [true];"),
    (["eig"], {"r": []}, "config key r holds [];"),
    (GRID, {"pp": 3}, "config key pp is not a flag of ptone eig"),
    (["surface"], {"m": 2}, "config key m is not a flag of ptone surface"),
], ids=["compare-m", "kazdan-n", "eig-p-list", "eig-m-float",
        "eig-m-float-list", "eig-n-float", "eig-n-two-values", "eig-p-nested",
        "eig-p-object", "eig-m-bool", "eig-c-bool-list", "eig-r-empty",
        "eig-unknown-key", "surface-unknown-key"])
def test_null_config_value_is_invalid_input(argv, config, message, tmp_path,
                                            capsys):
    # Every malformed config value exits 2 and names its key.  A null
    # ended in int(None) or float(None), a nested list in float([3]): a
    # traceback, exit 1.  A float m or n was truncated, a bool read as
    # 0 or 1, an empty list gave no rows, and an unknown key was ignored:
    # exit 0.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    res = run_main(capsys, *argv, "--config", str(cfg))
    assert res.returncode == 2
    assert "invalid input: " + message in res.stderr


#: One value per flag, as the flag's text and as config JSON: a range
#: string, a list starting with a negative value, one-value lists for a
#: single-valued flag and for a name list.
TWIN_VALUES = {"p": ("2:3:1", "2:3:1"), "m": ("2", 2), "c": ("-1,0", [-1, 0]),
               "r": ("1", 1.0), "tol": ("1e-10", 1e-10), "n": ("64", [64]),
               "phi": ("quadratic", "quadratic"),
               "surfaces": ("plane", ["plane"])}


def _body(text):
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_config_values_read_as_their_flags(command, tmp_path, capsys):
    # Every flag's value gives the same CSV body from the command line
    # and from a config file; m also as JSON 2.0.
    keys = [flag[2:] for flag, *_ in cli.COMMANDS[command][1]]
    argv = [command]
    for key in keys:
        argv += ["--" + key, TWIN_VALUES[key][0]]
    by_flags = run_main(capsys, *argv)
    assert by_flags.returncode == 0, by_flags.stderr
    config = {key: TWIN_VALUES[key][1] for key in keys}
    cfg = tmp_path / "cfg.json"
    for variant in ([dict(config, m=m) for m in (2, 2.0)] if "m" in config
                    else [config]):
        cfg.write_text(json.dumps(variant))
        by_config = run_main(capsys, command, "--config", str(cfg))
        assert by_config.returncode == 0, by_config.stderr
        assert _body(by_config.stdout) == _body(by_flags.stdout)


def test_selftest_takes_no_config(capsys):
    # selftest reads no flag values, so a config would go unread.
    res = run_main(capsys, "selftest", "--filter", "14", "--config",
                   "x.json")
    assert res.returncode == 2
    assert "unrecognized arguments: --config" in res.stderr


def test_repeat_runs_are_byte_identical():
    # "--c -1,0,1" also checks that a list starting with '-' parses.
    args = ("eig", "--p", "2,3", "--m", "2", "--c", "-1,0,1", "--r", "1")
    first, second = run_cli(*args), run_cli(*args)
    assert first.returncode == 0 and second.returncode == 0
    strip = lambda s: [ln for ln in s.splitlines() if not ln.startswith("#")]
    assert strip(first.stdout) == strip(second.stdout)
    rows = parse_csv(first.stdout)
    assert len(rows) == 6
    assert [(r["p"], r["c"]) for r in rows] == [
        (p, c) for p in ("2", "3") for c in ("-1", "0", "1")]


def test_negative_list_values_parse():
    assert cli._join_list_values(
        ["sweep", "--c", "-1,0,1", "--r", "-1:0:0.5", "--p", "2"]) == [
        "sweep", "--c=-1,0,1", "--r=-1:0:0.5", "--p", "2"]
    args = cli.build_parser().parse_args(
        cli._join_list_values(["eig", "--c", "-.5,1", "--m", "2"]))
    assert args.c == "-.5,1" and args.m == "2"


@pytest.mark.parametrize("flag", ["--c", "--n"])
@pytest.mark.parametrize("value", ["-inf", "-Inf", "-nan", "-NAN"])
def test_negative_non_finite_values_reach_their_check(flag, value, capsys):
    # argparse took "-inf" for an option and said "expected one argument";
    # joined to its flag, the value reaches the check that names it.
    argv = ["eig", "--p", "2", "--m", "2", "--r", "1"]
    if flag == "--n":
        argv += ["--c", "0"]
    res = run_main(capsys, *argv, flag, value)
    assert res.returncode == 2
    assert "expected one argument" not in res.stderr
    assert ("c must be finite, got c=" if flag == "--c"
            else "--n: expected integer values, got ") in res.stderr
    assert cli._join_list_values(["eig", flag, value]) == [
        "eig", flag + "=" + value]


_ARITHMETIC_FAULTS = [
    [command, "--p", "1.05", "--m", "12", "--c=1", "--r", "3.14"]
    for command in ("eig", "barta", "rstar", "sweep", "kazdan")
] + [["eig", "--p", "2", "--m", "1000", "--r", "1"],
     ["eig", "--p", "2", "--r", "1e-300"]]


@pytest.mark.parametrize("argv", _ARITHMETIC_FAULTS, ids=" ".join)
def test_arithmetic_faults_exit_with_the_problem(argv, tmp_path, capsys):
    # These ended in an OverflowError (the flux power near the conjugate
    # point at p = 1.05) or a ZeroDivisionError (the weight t^999 at the
    # start point, the seed's r^2) traceback and exit 1.
    res = run_main(capsys, *argv, "--out", str(tmp_path / "out.csv"))
    assert res.returncode in (2, 3)
    assert "Traceback" not in res.stderr
    assert re.search(r"\b(p|m|r)=", res.stderr)


@pytest.mark.parametrize("argv", [
    ["eig", "--p", "2", "--r", "1e-60"],
    ["eig", "--p", "2", "--r", "1e-76"],
    ["eig", "--p", "16", "--r", "1e-19"],
], ids=" ".join)
def test_tiny_representable_radii_solve(argv, capsys):
    # The refusal of an unrepresentable seed or start state stops short of
    # these radii, which solve.
    res = run_main(capsys, *argv)
    assert res.returncode == 0, res.stderr
    lam = float(parse_csv(res.stdout)[0]["lambda"])
    assert math.isfinite(lam) and lam > 0.0


def test_smallest_ball_at_p2_keeps_its_eigenvalue(capsys):
    # r = 1e-76 solves, with j01^2 r^-2 to 12 digits; r = 1e-77, whose
    # start state leaves the float range at a doubling rung, is refused.
    res = run_main(capsys, "eig", "--p", "2", "--r", "1e-76")
    assert res.returncode == 0, res.stderr
    assert parse_csv(res.stdout)[0]["lambda"] == "5.7831859629434926e+152"
    res = run_main(capsys, "eig", "--p", "2", "--r", "1e-77")
    assert res.returncode == 2
    assert "r=1e-77" in res.stderr and "p=2, m=2" in res.stderr


_UNNAMED_REFUSALS = [
    (["eig", "--p", "2", "--m", "2", "--c=0", "--r", "9"], "r=9"),
    (["kazdan", "--p", "2", "--m", "2", "--c=1", "--r", "3.5"], "r=3.5"),
    (["rstar", "--p", "3", "--m", "2", "--c=0.5", "--r", "1"], "c=0.5"),
    (["rstar", "--p", "3", "--m", "2", "--c=1", "--r", "1.6"], "r=1.6"),
    (["eig", "--p", "2", "--m", "1000", "--r", "1"], "m=1000"),
    (["eig", "--p", "2", "--m", "100", "--r", "1"], "m=100"),
    (["eig", "--p", "2", "--r", "1e-300"], "r=1e-300"),
    (["eig", "--p", "2", "--r", "1e-200"], "r=1e-200"),
    (["eig", "--p", "2", "--r", "1e-77"], "r=1e-77"),
    (["eig", "--p", "2", "--r", "1e-80"], "r=1e-80"),
    (["eig", "--p", "2", "--r", "1e-100"], "r=1e-100"),
    (["eig", "--p", "2", "--r", "1e-160"], "r=1e-160"),
    (["eig", "--p", "16", "--r", "1e-25"], "r=1e-25"),
    (["eig", "--p", "1.05", "--r", "1e-20"], "r=1e-20"),
    (["sweep", "--p", "10.678688063175688", "--m", "3", "--c=1", "--r",
      "2.417524932289065e-26"], "p=10.6787"),
    (["surface", "--surfaces", "catenoid", "--p", "1.5", "--r", "1.2"],
     "p=1.5"),
    (["surface", "--surfaces", "catenoid", "--p", "3", "--r", "1"], "r=1"),
    (["surface", "--surfaces", "catenoid", "--p", "3", "--r",
      "1.0000000001"], "r=1.0000000001"),
]


@pytest.mark.parametrize("argv,named", _UNNAMED_REFUSALS,
                         ids=[" ".join(argv) for argv, _ in _UNNAMED_REFUSALS])
def test_invalid_input_names_its_parameter(argv, named, capsys):
    # These exited 2 with no parameter on stderr: a radius beyond the
    # profile's domain, a curvature outside the r* case analysis, a
    # Rayleigh grid whose p-mass underflows; or exited 3, "non-
    # convergence: ZeroDivisionError", where the start weight
    # (1e-4 r)^(m-1) or the seed's r**2 underflowed to 0, or exited 3
    # with "NaN in the error estimate" and no bracket (or an
    # OverflowError) at a ball radius whose seed, or whose start state at
    # some trial lam, leaves the float range (r = 1e-77: at the second
    # doubling rung).  A catenoid
    # surface row at p < 2 ended in a ZeroDivisionError traceback (k = 0
    # raised to p - 2), and its band refusals named no r.
    res = run_main(capsys, *argv)
    assert res.returncode == 2
    assert res.stderr.startswith("invalid input: ")
    assert named in res.stderr


_NON_FINITE = st.sampled_from(["nan", "inf", "-inf"])
# (p, m, c, r) over p in [1.0001, 64], m in [1, 1000], c in [-4, 4],
# r in [1e-300, 1e300] and non-finite values, or all four inside the
# supported range, where a row is solved.
_ROW = st.tuples(st.floats(1.0001, 64.0) | _NON_FINITE,
                 st.integers(1, 1000) | _NON_FINITE,
                 st.floats(-4.0, 4.0) | _NON_FINITE,
                 st.floats(1e-300, 1e300) | _NON_FINITE
                 | st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)) | \
    st.tuples(st.floats(1.05, 16.0), st.integers(1, 4),
              st.floats(-4.0, 4.0) | st.sampled_from([-1.0, 0.0, 1.0]),
              st.floats(0.05, 1.5))
# Inputs that ended in a traceback: an OverflowError of the flux power
# near the conjugate point (all five commands) and a ZeroDivisionError of
# the start weight (1e-4 r)^(m-1) or of the seed's r**2; and r = 1e-100,
# whose first shot failed (exit 3): its start state at half the seed is
# NaN, which is refused before any shot (exit 2).
_PAST_FAULTS = [(command, (1.05, 12, 1.0, 3.14))
            for command in ("eig", "barta", "rstar", "sweep", "kazdan")] + [
    ("eig", (2.0, 1000, 0.0, 1.0)), ("eig", (2.0, 2, 0.0, 1e-300)),
    ("eig", (2.0, 100, 0.0, 1.0)), ("eig", (2.0, 2, 0.0, 1e-100))]


def _with_past_faults(test):
    for args in _PAST_FAULTS:
        test = example(*args)(test)
    return test


def _flags(names, row):
    return ["--%s=%s" % (k, x if isinstance(x, str) else repr(x))
            for k, x in zip(names, row)]


def _main_in_process(argv):
    """(exit code, stderr) of `cli.main` on argv, stdout discarded."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:                    # argparse usage error
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=40, derandomize=True, deadline=None)
@_with_past_faults
@given(st.sampled_from(["eig", "barta", "rstar", "sweep", "kazdan"]), _ROW)
def test_one_row_commands_exit_with_a_named_parameter(command, row):
    # Any one-row command exits 0, 2 (invalid input) or 3 (non-
    # convergence), never with a traceback, and an exit 2 or 3 names a
    # parameter on stderr.
    argv = [command] + _flags("pmcr", row)
    code, err = _main_in_process(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code:
        assert re.search(r"\b(p|m|c|r)=|--(p|m|c|r)\b", err), (argv, err)


@settings(max_examples=40, derandomize=True, deadline=None)
@example("catenoid", (1.5, 1.2))
@example("catenoid", (3.0, 1.0))
@example("catenoid", (3.0, 1.0000000001))
@example("plane", (1.5, 1.2))
@given(st.sampled_from(["plane", "catenoid"]),
       _ROW.map(lambda row: (row[0], row[3])))
def test_surface_row_exits_with_a_named_parameter(surface, row):
    # The surface command on one (p, r) exits 0, 2 or 3, and an exit 2
    # or 3 names p or r.  The examples ended in a ZeroDivisionError
    # traceback (k = 0 raised to p - 2 at p < 2) or refused naming no r.
    argv = ["surface", "--surfaces", surface] + _flags("pr", row)
    code, err = _main_in_process(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code:
        assert re.search(r"\b(p|r)=|--(p|r)\b", err), (argv, err)


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.startswith("ptone ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_runs(argv, tmp_path):
    # The full battery has its own tests; one filtered criterion stands in
    # for the unfiltered selftest commands.
    if argv[0] == "selftest" and "--filter" not in argv:
        argv = ["selftest", "--filter", "barta"] + [
            str(tmp_path / a) if a.endswith(".csv") else a for a in argv[1:]]
    res = run_cli(*argv)
    assert res.returncode == 0, res.stderr


def test_readme_quick_start_runs():
    # Every line of the Quick start runs, and each expression line
    # returns the value its comment prints: to every digit, to the digits
    # before "...", or, for "~x", within a factor 2 of x.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Quick start", 1)[1].split("```")[1]
    scope, checked = {}, 0
    for line in block.splitlines()[1:]:
        code, _, comment = line.partition("#")
        try:
            expr = compile(code, "<README>", "eval")
        except SyntaxError:
            exec(code, scope)
            continue
        value = eval(expr, scope)
        printed = comment.split()[0].rstrip(",")
        if printed.startswith("~"):
            assert 0.5 <= value / float(printed[1:]) <= 2.0, line
        elif printed.endswith("..."):
            assert repr(value).startswith(printed[:-3]), line
        else:
            assert repr(value) == printed, line
        checked += 1
    assert checked == 3


def test_unknown_subcommand_exits_two(capsys):
    res = run_main(capsys, "frobnicate")
    assert res.returncode == 2


def test_m1_eig_shoots_once_per_p(monkeypatch, capsys):
    # At m = 1 every warping shares one shot: the six rows of two p and
    # three c, all run in this process, take the shots of the two cold
    # solves at c = 0.  The cache is per process, so one CPU.
    _cpus(monkeypatch, 1)
    shots = []
    shoot = radial._shoot

    def spy(problem, lam):
        shots.append(lam)
        return shoot(problem, lam)

    monkeypatch.setattr(radial, "_shoot", spy)
    cold = 0
    for p in (2.0, 3.0):
        radial.solve_ball_eigenvalue(radial.ball_problem(p, 1, 0.0, 1.0),
                                     use_cache=False)
        cold += len(shots)
        del shots[:]
    radial.clear_solver_cache()
    res = run_main(capsys, "eig", "--p", "2,3", "--m", "1", "--c=-1,0,1",
                   "--r", "1")
    assert res.returncode == 0 and len(parse_csv(res.stdout)) == 6
    assert len(shots) == cold


# multi-row commands: rows split over one process per CPU


def _outputs(monkeypatch, capsys, tmp_path, n, argv):
    """(exit code, CSV body, JSON text, stderr, forks) of argv on n CPUs."""
    forks = _cpus(monkeypatch, n)
    out, js = tmp_path / ("%d.csv" % n), tmp_path / ("%d.json" % n)
    res = run_main(capsys, *argv, "--out", str(out), "--json", str(js))
    _assert_no_child_left()
    if res.returncode:
        return res.returncode, None, None, res.stderr, len(forks)
    return (0, _body(out.read_text()), js.read_text(), res.stderr,
            len(forks))


@pytest.mark.parametrize("argv,rows", [
    (["sweep", "--p", "2,2.5,3,4", "--m", "2,3", "--c=-1,0,1", "--r", "1"],
     24),
    (["rstar", "--p", "2,3", "--m", "2", "--c=-1,0", "--r", "1,1.2"], 8),
    # Rows that sort equal (c = 0 and -0) keep the order of their combos.
    (["eig", "--p", "2", "--m", "2", "--c=0,-0,0,-0", "--r", "1"], 4),
], ids=["sweep", "rstar", "ties"])
def test_rows_on_three_cpus_keep_every_byte(argv, rows, monkeypatch, capsys,
                                            tmp_path):
    # Three processes (this one and two forked children) give the CSV
    # body and JSON of one process, byte for byte.
    radial.clear_solver_cache()
    serial = _outputs(monkeypatch, capsys, tmp_path, 1, argv)
    radial.clear_solver_cache()
    forked = _outputs(monkeypatch, capsys, tmp_path, 3, argv)
    assert serial[0] == 0 and len(serial[1]) == rows + 1
    assert forked[1:4] == serial[1:4]
    assert (serial[4], forked[4]) == (0, 2)


def test_one_row_forks_nothing(monkeypatch, capsys, tmp_path):
    code, body, _, _, forks = _outputs(
        monkeypatch, capsys, tmp_path, 3,
        ["eig", "--p", "2", "--m", "3", "--c=0", "--r", "1"])
    assert code == 0 and len(body) == 2 and forks == 0


_FAILING_EIG = ["eig", "--p", "2,2.5,3,3.5,4,5", "--m", "2", "--c=0",
                "--r", "1"]


def _fail_at(monkeypatch, failures):
    """Make the eig row at each p in failures raise its exception."""
    solve = radial.solve_ball_eigenvalue

    def failing(problem, **kwargs):
        if problem.p in failures:
            raise failures[problem.p]
        return solve(problem, **kwargs)
    monkeypatch.setattr(radial, "solve_ball_eigenvalue", failing)


@pytest.mark.parametrize("failures,code,message", [
    # On three CPUs this process takes rows 0 and 3 (p = 2 and 3.5), the
    # children rows 1 and 4, and 2 and 5.
    ({2.0: ValueError("r=7 at p=2")}, 2, "invalid input: r=7 at p=2"),
    ({3.0: radial.NonConvergenceError("stuck at p=3")}, 3,
     "non-convergence: stuck at p=3"),
    ({2.5: ValueError("p=2.5 first"),
      3.5: radial.NonConvergenceError("p=3.5 later")}, 2,
     "invalid input: p=2.5 first"),
    ({3.5: ValueError("p=3.5 later"),
      3.0: radial.NonConvergenceError("p=3 first")}, 3,
     "non-convergence: p=3 first"),
    ({5.0: ValueError("p=5 later"), 2.0: ValueError("p=2 first")}, 2,
     "invalid input: p=2 first"),
], ids=["parent", "child", "child-before-parent", "child-before-child",
        "parent-before-child"])
def test_failing_row_exits_as_one_loop_does(failures, code, message,
                                            monkeypatch, capsys, tmp_path):
    # A row that raises, in this process or in a child, gives the exit
    # code and message of one loop over the rows: that of the lowest
    # failing index.  No child outlives the command.
    _fail_at(monkeypatch, failures)
    serial = _outputs(monkeypatch, capsys, tmp_path, 1, _FAILING_EIG)
    forked = _outputs(monkeypatch, capsys, tmp_path, 3, _FAILING_EIG)
    assert serial[:4] == (code, None, None, message + "\n")
    assert forked[:4] == serial[:4]


def test_failing_row_keeps_its_exception_type(monkeypatch):
    _fail_at(monkeypatch, {2.5: _ode.IntegrationError("p=2.5")})
    _cpus(monkeypatch, 3)
    combos = cli._combos({"p": [2.0, 2.5, 3.0], "m": [2], "c": [0.0],
                          "r": [1.0]})
    with pytest.raises(_ode.IntegrationError, match="^p=2.5$"):
        cli.eig_rows(combos)
    _assert_no_child_left()


def test_rows_of_any_size_and_a_lost_child(monkeypatch):
    # Rows larger than a pipe's buffer arrive whole; a child that ends
    # without sending its rows is an error, and is reaped.
    _cpus(monkeypatch, 3)
    parent = os.getpid()
    combos = [(float(p), 2, 0.0, 1.0) for p in range(2, 8)]

    def big(p, m, c, r):
        return {"p": p, "m": m, "c": c, "r": r, "blob": "%g" % p * 40000}

    assert cli._rows(big, combos) == [big(*combo) for combo in combos]

    def lost(p, m, c, r):
        if p == 3.0 and os.getpid() != parent:
            os._exit(7)
        return big(p, m, c, r)

    with pytest.raises(RuntimeError, match="row worker 1 ended with wait "
                       "status 1792 and sent no rows"):
        cli._rows(lost, combos)
    _assert_no_child_left()


def test_a_row_that_cannot_be_pickled_names_itself(monkeypatch):
    # A child whose row cannot be pickled sends a RuntimeError naming the
    # row and exits 1; the same rows succeed in one process.
    combos = [(float(p), 2, 0.0, 1.0) for p in range(2, 8)]

    def row(p, m, c, r):
        return {"p": p, "m": m, "c": c, "r": r,
                "f": (lambda: p) if p == 6.0 else None}

    _cpus(monkeypatch, 1)
    assert [got["p"] for got in cli._rows(row, combos)] == [
        combo[0] for combo in combos]
    forks = _cpus(monkeypatch, 3)
    statuses = []
    waitpid = os.waitpid

    def spy(pid, options):
        got = waitpid(pid, options)
        statuses.append(got[1])
        return got

    monkeypatch.setattr(os, "waitpid", spy)
    with pytest.raises(RuntimeError, match="^row 4 could not be pickled in "
                       "row worker 1: .*lambda"):
        cli._rows(row, combos)
    assert len(forks) == 2 and sorted(statuses) == [0, 256]
    _assert_no_child_left()


def test_forked_rows_leave_their_solves_in_this_process(monkeypatch,
                                                        tmp_path):
    # The children send back every shot and built solution, so solving
    # each row's problem here and reading its arrays takes no shot and
    # no march.
    forks = _cpus(monkeypatch, 3)
    radial.clear_solver_cache()
    combos = cli._combos({"p": [2.0, 3.0], "m": [1, 2], "c": [-1.0, 0.0, 1.0],
                          "r": [1.0]})
    rows = cli.sweep_rows(combos)
    assert len(rows) == 12 and len(forks) == 2
    _assert_no_child_left()
    counts = _count_calls(monkeypatch, tmp_path / "calls")
    for p, m, c, r in combos:
        sol = radial.solve_ball_eigenvalue(radial.ball_problem(p, m, c, r))
        assert sol.omega.size == sol.n_grid and not sol.omega.flags.writeable
    assert counts() == {}


def test_integration_failure_exits_three(monkeypatch, capsys):
    # A failed integration is a numerical non-convergence: exit 3, with
    # the parameters that caused it, not a traceback.  The shots fail for
    # real: the profile's weight turns NaN past t = 0.5.  The stages read
    # the warping as source, f_expr over f_names, so the NaN goes there.
    t = np.linspace(0.0, 2.0, 201)
    prof = modelspace.tabulated(t, t, label="nan-past-half")

    def nan_past_half(s):
        return math.nan if s > 0.5 else s
    monkeypatch.setattr(prof, "f_scalar", nan_past_half)
    monkeypatch.setattr(prof, "f_expr", "nan_past_half(s)")
    monkeypatch.setattr(prof, "f_names",
                        MappingProxyType({"nan_past_half": nan_past_half}))
    monkeypatch.setattr(radial, "space_form", lambda c: prof)
    radial.clear_solver_cache()
    assert cli.main(["eig", "--p", "2.5", "--m", "3", "--c", "0",
                     "--r", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("non-convergence: NaN in the error estimate")
    assert "p=2.5" in err and "m=3" in err and "nan-past-half" in err


def test_oracles_script_runs():
    # tests/oracles.py regenerates the frozen fixtures; it is not collected,
    # so only this run keeps it in step with the API it calls.
    script = Path(__file__).resolve().parent / "oracles.py"
    proc = subprocess.run([sys.executable, str(script)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for section in ("== closed-form oracles ==",
                    "== catenoid extrinsic-distance oracles ==",
                    "== solver pins", "== dense march vs p = 2 closed forms",
                    "== critical-radius scan pins",
                    "== discrete Rayleigh minima"):
        assert section in proc.stdout


def test_import_loads_no_scipy():
    # scipy.interpolate costs about half a second of start-up; only a
    # tabulated profile needs it, so the CLI must import without it.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ptone.cli; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_tabulated_path_loads_no_scipy(tmp_path):
    # Tabulated profiles build and evaluate their own PCHIP; scipy is
    # needed only by the tests.
    path = tmp_path / "profile.csv"
    t = np.linspace(0.0, 1.05, 2001)
    path.write_text("t,f\n" + "\n".join(
        "%.17g,%.17g" % (a, b) for a, b in zip(t, np.sinh(t))) + "\n")
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from ptone import cli, modelspace, radial\n"
        "cli.compare_profiles()\n"
        "prof = modelspace.from_csv(sys.argv[1])\n"
        "prof.eval(np.linspace(0.0, 1.0, 9))\n"
        "sol = radial.solve_ball_eigenvalue(radial.RadialProblem(\n"
        "    2.0, 2, prof, radial.Ball(1.0)), use_cache=False)\n"
        "assert sol.lam > 0 and sol.omega.size\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_csv_bodies_script_hashes_the_body(tmp_path):
    # tests/csv_bodies.py is not collected either; one cheap command keeps
    # it running and checks that it hashes the CSV without its # line,
    # and the whole --json file.
    script = Path(__file__).resolve().parent / "csv_bodies.py"
    proc = subprocess.run([sys.executable, str(script), "eig"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    argv = next(a for a in _readme_commands() if a[0] == "eig")
    json_path = tmp_path / "eig.json"
    body = "".join(ln for ln in run_cli(*argv, "--json", str(json_path))
                   .stdout.splitlines(True) if not ln.startswith("# "))
    assert proc.stdout == "%s  eig\n%s  eig.json\n" % (
        hashlib.sha256(body.encode()).hexdigest(),
        hashlib.sha256(json_path.read_bytes()).hexdigest())


def _flip_first(line):
    return ("0" if line[0] != "0" else "1") + line[1:]


def test_csv_bodies_check_flags_a_moved_body(tmp_path, capsys):
    # --check compares against a saved run: exit 0 when every digest
    # matches, exit 1 naming each one that moved.  A saved run without
    # .json lines compares the CSV bodies alone.  The script prints the
    # saved digests in a fresh interpreter; its check runs in this one.
    script = Path(__file__).resolve().parent / "csv_bodies.py"
    csv_line, json_line = subprocess.run(
        [sys.executable, str(script), "eig"], capture_output=True,
        text=True).stdout.splitlines(True)
    cases = {"good": ([csv_line, json_line], 0, "all 2 digests match"),
             "csv-only": ([csv_line], 0, "all 1 digests match"),
             "bad-csv": ([_flip_first(csv_line), json_line], 1,
                         "moved: eig\n"),
             "bad-json": ([csv_line, _flip_first(json_line)], 1,
                          "moved: eig.json")}
    for name, (lines, code, text) in cases.items():
        path = tmp_path / name
        path.write_text("".join(lines))
        assert csv_bodies.check(str(path), []) == code
        assert text in capsys.readouterr().out
