"""Command-line harness: sweeps, certificates, surface reports, selftest.

Eight subcommands (eig, rstar, barta, compare, surface, kazdan, sweep,
selftest) share one plumbing layer: list/range flag parsing, JSON config
merging (flags beat config beats defaults), and RFC-4180 CSV output with
17-significant-digit floats.  One table, ``COMMANDS``, holds every
subcommand but selftest: its help, its flags with theirs, a rows
function and its CSV columns.  ``build_parser`` loops over the table,
and one handler (``_run_command``) loads the config, builds the rows and
writes them; selftest keeps its own handler.  One row path serves the
grid commands: ``_combos`` reads the (p, m, c, r) grid once, and each
builder maps one function over it and sorts the rows by (p, m, c, r)
(``_rows``).  A row is a dict; the CSV writes the command's named
columns and ``--json`` writes every key.  Timestamps appear only on the
leading ``#`` metadata line so two identical runs emit byte-identical
bodies.

Exit codes: 0 success, 1 acceptance failure, 2 invalid input,
3 numerical non-convergence.
"""

import argparse
import csv
import io
import itertools
import json
import math
import re
import sys
from datetime import datetime, timezone

import numpy as np

from . import acceptance, bounds, critical, modelspace, radial, rayleigh, \
    surfaces


# -- plumbing ---------------------------------------------------------------


def _parse_list(text, cast=float):
    """Parse ``2,3`` (list) or ``0.5:1.5:0.25`` (inclusive range)."""
    text = str(text).strip()
    if not text:
        raise ValueError("empty parameter list")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("range syntax is start:stop:step, got %r"
                             % text)
        start, stop, step = (float(x) for x in parts)
        if step <= 0 or stop < start:
            raise ValueError("range needs stop >= start and step > 0")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        vals = [start + i * step for i in range(count)]
    else:
        vals = [float(x) for x in text.split(",")]
    out = []
    for v in vals:
        if cast is int:
            if v != int(v):
                raise ValueError("expected integer values, got %g" % v)
            out.append(int(v))
        else:
            out.append(float(v))
    return out


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    nulls = [key for key, value in cfg.items()
             if value is None or isinstance(value, list) and None in value]
    if nulls:
        raise ValueError("config key %s holds null; give a value or leave "
                         "the key out" % ", ".join(nulls))
    return cfg


def _merged(args, config, key, default, cast=float):
    """Flag value if given, else config value, else default (all parsed)."""
    raw = getattr(args, key, None)
    if raw is None:
        raw = config.get(key)
    if raw is None:
        raw = default
    if isinstance(raw, (list, tuple)):
        return [cast(v) for v in raw]
    if isinstance(raw, (int, float)):
        return [cast(raw)]
    return _parse_list(raw, cast=cast)


def _scalar(args, config, key, default, cast=float):
    raw = getattr(args, key, None)
    if raw is None:
        raw = config.get(key, default)
    return None if raw is None else cast(raw)


def _sort_rows(rows):
    def key(row):
        return tuple(float(row.get(k, 0.0)) for k in ("p", "m", "c", "r"))
    return sorted(rows, key=key)


def _fmt_value(v):
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


def _json_value(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return str(v)


def format_csv(fieldnames, rows, meta=None):
    """RFC-4180 CSV text; field order is first-seen across rows if None."""
    if fieldnames is None:
        fieldnames = []
        for row in rows:
            for k in row:
                if k not in fieldnames:
                    fieldnames.append(k)
    buf = io.StringIO()
    if meta:
        buf.write("# %s\n" % meta)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_fmt_value(row[k]) if k in row else ""
                         for k in fieldnames])
    return buf.getvalue()


def _emit(args, fieldnames, rows, command):
    meta = "ptone %s  %s" % (
        command, datetime.now(timezone.utc).isoformat(timespec="seconds"))
    text = format_csv(fieldnames, rows, meta=meta)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    json_path = getattr(args, "json", None)
    if json_path:
        payload = {"command": command, "rows": [
            {k: _json_value(v) for k, v in row.items()} for row in rows]}
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _combos(args, config):
    """The (p, m, c, r) grid of the --p/--m/--c/--r flags, in product
    order."""
    return list(itertools.product(_merged(args, config, "p", [2.0]),
                                  _merged(args, config, "m", [2], cast=int),
                                  _merged(args, config, "c", [0.0]),
                                  _merged(args, config, "r", [1.0])))


def _rows(one, combos):
    return _sort_rows([one(*combo) for combo in combos])


# -- row builders (shared with the acceptance battery) ----------------------


def eig_rows(combos, tol=None, n_grid=None):
    kwargs = {}
    if tol is not None:
        kwargs["tol"] = tol
    if n_grid is not None:
        kwargs["n_grid"] = n_grid

    def one(p, m, c, r):
        sol = radial.solve_ball_eigenvalue(
            radial.ball_problem(p, m, c, r), **kwargs)
        return {"p": p, "m": m, "c": c, "r": r, "lambda": sol.lam,
                "residual": sol.residual, "iterations": sol.iterations}

    return _rows(one, combos)


def rstar_rows(combos):
    def one(p, m, c, r):
        sol = radial.solve_ball_eigenvalue(radial.ball_problem(p, m, c, r))
        rep = critical.compute_r_star(sol)
        return {"c": c, "p": p, "m": m, "r": r, "lambda": rep.lam,
                "r_star": rep.r_star, "min_W_margin": rep.min_margin}

    return _rows(one, combos)


def barta_rows(combos):
    def one(p, m, c, r):
        problem = radial.ball_problem(p, m, c, r)
        sol = radial.solve_ball_eigenvalue(problem)
        cert = bounds.barta_bound(sol.omega, problem, nodes=sol.grid)
        return {"p": p, "m": m, "c": c, "r": r, "lambda": sol.lam,
                "barta_value": cert.value,
                "rel_gap": (cert.value - sol.lam) / sol.lam}

    return _rows(one, combos)


def sweep_rows(combos):
    def one(p, m, c, r):
        problem = radial.ball_problem(p, m, c, r)
        sol = radial.solve_ball_eigenvalue(problem)
        est = rayleigh.minimize_rayleigh(
            rayleigh.Grid1D.from_problem(problem), p)["lambda_est"]
        cert = bounds.barta_bound(sol.omega, problem, nodes=sol.grid)
        return {"p": p, "m": m, "c": c, "r": r, "lambda": sol.lam,
                "rayleigh": est, "barta": cert.value,
                "residual": sol.residual}

    return _rows(one, combos)


def kazdan_rows(combos, phi, n):
    def one(p, m, c, r):
        if phi == "eigen":
            st = acceptance.kazdan_eigen_stats(p, m, c, r, n)
            return {"p": p, "m": m, "c": c, "r": r, "phi": "eigen",
                    "lambda": st["lambda"], "psi_inf": st["inf"],
                    "psi_sup": st["sup"], "psi_spread": st["sup"] - st["inf"],
                    "window_nodes": st["count"]}
        st = acceptance.kazdan_quadratic_stats(p, m, c, r, n=n)
        return {"p": p, "m": m, "c": c, "r": r, "phi": "quadratic",
                "lambda": st["lambda"], "psi_inf": st["inf"],
                "psi_sup": st["sup"],
                "sandwich_ok": st["inf"] <= st["lambda"] <= st["sup"]}

    return _rows(one, combos)


# Built in acceptance, which criterion 8 shares; the benchmark reads it here.
compare_profiles = acceptance.compare_profiles


def compare_rows(p_list, m, r):
    profiles = compare_profiles()
    rows, violations = [], []
    for p in sorted(p_list):
        flat = radial.solve_ball_eigenvalue(radial.ball_problem(p, m, 0.0, r))
        for name, prof in profiles:
            admissible = modelspace.verify_curvature_bound(prof, 0.0).ok
            problem = radial.RadialProblem(p, m, prof, radial.Ball(r))
            cert = bounds.transplant_barta_certificate(flat, problem)
            margin_rel = (cert.value - flat.lam) / flat.lam
            est = rayleigh.minimize_rayleigh(
                rayleigh.Grid1D.from_problem(problem), p)["lambda_est"]
            rows.append({"profile": name, "p": p, "m": m, "r": r,
                         "lambda_model": flat.lam, "certificate": cert.value,
                         "margin_rel": margin_rel, "rayleigh_warped": est,
                         "admissible": admissible})
            if admissible and margin_rel < -1e-6:
                violations.append((name, p, margin_rel))
    return rows, violations


# -- subcommands ------------------------------------------------------------


def _compare(args, cfg):
    rows, violations = compare_rows(_merged(args, cfg, "p", [2.0, 2.5, 3.0]),
                                    _scalar(args, cfg, "m", 2, cast=int),
                                    _scalar(args, cfg, "r", 1.0))
    for name, p, margin in violations:
        print("comparison violated: profile=%s p=%g margin_rel=%.3e"
              % (name, p, margin), file=sys.stderr)
    return rows, 1 if violations else 0


def _surface(args, cfg):
    raw = args.surfaces or cfg.get("surfaces") or "plane,catenoid"
    kinds = [s.strip() for s in str(raw).split(",") if s.strip()]
    p_list = sorted(_merged(args, cfg, "p", [2.0, 3.0]))
    r_list = sorted(_merged(args, cfg, "r", [1.2]))
    return [surfaces.band_report(kind, r, p)
            for kind in kinds for p in p_list for r in r_list], 0


def _kazdan(args, cfg):
    phi = args.phi or cfg.get("phi") or "eigen"
    if phi not in ("eigen", "quadratic"):
        raise ValueError("--phi must be 'eigen' or 'quadratic'")
    n = _scalar(args, cfg, "n", 2000, cast=int)
    return kazdan_rows(_combos(args, cfg), phi, n), 0


_GRID_FLAGS = (("--p", "p values: 2,3 or 1.5:3:0.5"),
               ("--m", "dimensions m (integers)"),
               ("--c", "curvature bounds c"), ("--r", "radii r"))

#: name -> (help, flags, rows, columns) of every subcommand but selftest.
#: A flag is (flag, help) or (flag, help, argparse options).  rows(args,
#: config) returns (rows, exit code); it names its builder when it runs,
#: so a rebound builder (a tracer's wrapper) is the one called.  The CSV
#: writes the columns, or with None every key in first-seen order.
COMMANDS = {
    "eig": ("eigenvalue sweep", _GRID_FLAGS + (
        ("--tol", "relative width of the final eigenvalue bracket",
         {"type": float}),
        ("--n", "output grid size")),
        lambda args, cfg: (eig_rows(
            _combos(args, cfg), tol=_scalar(args, cfg, "tol", None),
            n_grid=_scalar(args, cfg, "n", None, cast=int)), 0),
        ["p", "m", "c", "r", "lambda", "residual", "iterations"]),
    "rstar": ("critical-radius certification", _GRID_FLAGS,
              lambda args, cfg: (rstar_rows(_combos(args, cfg)), 0),
              ["c", "p", "m", "r", "lambda", "r_star", "min_W_margin"]),
    "barta": ("Barta certificates at the eigenfunction", _GRID_FLAGS,
              lambda args, cfg: (barta_rows(_combos(args, cfg)), 0),
              ["p", "m", "c", "r", "lambda", "barta_value", "rel_gap"]),
    "compare": ("warped-model comparison certificates",
                (("--p", "p values"), ("--m", "dimension (single integer)"),
                 ("--r", "radius (single value)")), _compare,
                ["profile", "p", "m", "r", "lambda_model", "certificate",
                 "margin_rel", "rayleigh_warped", "admissible"]),
    "surface": ("minimal-surface band reports",
                (("--surfaces", "comma list: plane,catenoid"),
                 ("--p", "p values"), ("--r", "radii")), _surface,
                surfaces.BAND_COLUMNS),
    "kazdan": ("log-transform source statistics", _GRID_FLAGS + (
        ("--phi", "profile to transform",
         {"choices": ("eigen", "quadratic")}),
        ("--n", "solver grid size")), _kazdan, None),
    "sweep": ("eigenvalue + Rayleigh + Barta battery", _GRID_FLAGS,
              lambda args, cfg: (sweep_rows(_combos(args, cfg)), 0),
              ["p", "m", "c", "r", "lambda", "rayleigh", "barta",
               "residual"]),
}


def _run_command(args):
    """Load the config, build the subcommand's rows and write them."""
    _, _, rows_of, columns = COMMANDS[args.command]
    rows, code = rows_of(args, _load_config(args.config))
    _emit(args, columns, rows, args.command)
    return code


def selftest_manifest_rows(results):
    """Long-format rows (criterion, record, field, value) for CSV."""
    rows = []
    for res in results:
        for idx, record in enumerate(res.rows):
            for field, value in record.items():
                rows.append({"criterion": res.number, "record": idx,
                             "field": field, "value": _fmt_value(value)})
    return rows


def cmd_selftest(args):
    results = acceptance.run_all(name_filter=args.filter)
    if not results:
        print("no criterion matches filter %r" % (args.filter,),
              file=sys.stderr)
        return 2
    for res in results:
        print(res.status_line())
    failures = [res for res in results if not res.passed]
    out = getattr(args, "out", None)
    if out:
        meta = "ptone selftest  %s" % datetime.now(
            timezone.utc).isoformat(timespec="seconds")
        with open(out, "w") as fh:
            fh.write(format_csv(["criterion", "record", "field", "value"],
                                selftest_manifest_rows(results), meta=meta))
    json_path = getattr(args, "json", None)
    if json_path:
        payload = {"command": "selftest", "criteria": [
            {"number": res.number, "name": res.name, "passed": res.passed,
             "detail": res.detail, "runtime_s": res.runtime}
            for res in results]}
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if failures:
        print("\nFAILURE MANIFEST")
        sys.stdout.write(format_csv(
            ["criterion", "record", "field", "value"],
            selftest_manifest_rows(failures)))
        print("\n%d of %d criteria failed: %s"
              % (len(failures), len(results),
                 ", ".join(r.name for r in failures)))
        return 1
    print("\nall %d criteria passed" % len(results))
    return 0


# -- entry point ------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file (flags override)")
    sub.add_argument("--out", help="write CSV to this path")
    sub.add_argument("--json", help="also write rows as JSON to this path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ptone",
        description="First p-eigenvalues of radially symmetric domains: "
                    "solvers, certified bounds, and acceptance batteries.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (summary, flags, _, _) in COMMANDS.items():
        sub = subs.add_parser(name, help=summary)
        for flag, text, *extra in flags:
            sub.add_argument(flag, help=text, **(extra[0] if extra else {}))
        _add_common(sub)
        sub.set_defaults(handler=_run_command)

    sub = subs.add_parser("selftest", help="run the acceptance criteria")
    sub.add_argument("--filter", help="substring (or number) selecting "
                                      "criteria")
    _add_common(sub)
    sub.set_defaults(handler=cmd_selftest)
    return parser


_LIST_FLAGS = ("--p", "--m", "--c", "--r")


def _join_list_values(argv):
    """Rewrite ``--c -1,0,1`` as ``--c=-1,0,1``.

    argparse takes a token that starts with '-' and is not a plain
    number for an option, so a list or range with a negative first
    value would otherwise be refused.  No option starts with '-' and a
    digit, so such a token after a list flag is always its value.
    """
    out = []
    for tok in argv:
        if out and out[-1] in _LIST_FLAGS and re.match(r"-[\d.]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_join_list_values(
        sys.argv[1:] if argv is None else argv))
    try:
        return args.handler(args)
    except radial.NonConvergenceError as exc:
        print("non-convergence: %s" % exc, file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
