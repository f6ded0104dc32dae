"""Command-line harness: sweeps, certificates, surface reports, selftest.

Eight subcommands (eig, rstar, barta, compare, surface, kazdan, sweep,
selftest) share one plumbing layer: one reader of flag values and
RFC-4180 CSV output with 17-significant-digit floats.  One table,
``COMMANDS``, holds every subcommand but selftest: its help, its flags
with their kinds and defaults, a rows function and its CSV columns.
``build_parser`` loops over the table, and one handler
(``_run_command``) reads each flag's value (flag beats JSON config beats
default, all in the flag grammar of ``_parse_list``), builds the rows
and writes them; selftest keeps its own handler.  The grid commands map
one function over the (p, m, c, r) grid (``_combos``) and sort the rows
by (p, m, c, r) (``_rows``), running them in one process per usable
CPU (``radial.fork_map``) with every byte kept.  A row is a dict; the
CSV writes the command's named columns and ``--json`` writes every
key.  Timestamps appear only on the leading ``#`` metadata line so two
identical runs emit byte-identical bodies.

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

#: The most values one range may expand to, and the most combinations of
#: values (one row each; compare: one per profile) one command may take.
MAX_ROWS = 10000


def _parse_list(text, cast=float, single=False):
    """Parse ``2,3`` (list) or ``0.5:1.5:0.25`` (inclusive range) of
    numbers, or ``a,b`` of names (``cast=str``); ``single`` takes one
    value and returns it."""
    text = text.strip()
    if not text:
        raise ValueError("empty parameter list")
    if ":" in text and cast is not str:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("range syntax is start:stop:step, got %r"
                             % text)
        start, stop, step = (float(x) for x in parts)
        if step <= 0 or stop < start:
            raise ValueError("range needs stop >= start and step > 0")
        span = (stop - start) / step
        if not math.isfinite(span):
            raise ValueError("range needs finite bounds, got %r" % text)
        count = int(math.floor(span + 1e-9)) + 1
        if count > MAX_ROWS:
            raise ValueError("range %r expands to %d values, more than %d"
                             % (text, count, MAX_ROWS))
        vals = [start + i * step for i in range(count)]
    else:
        vals = [x.strip() if cast is str else float(x)
                for x in text.split(",")]
    if cast is str and "" in vals:
        raise ValueError("empty name in %r" % text)
    if cast is int:
        for v in vals:
            if not v.is_integer():
                raise ValueError("expected integer values, got %g" % v)
        vals = [int(v) for v in vals]
    if single and len(vals) != 1:
        raise ValueError("expected one value, got %r" % text)
    return vals[0] if single else vals


#: Flag kinds, (cast, single): a single kind takes exactly one value.
_FLOATS, _INTS, _NAMES = (float, False), (int, False), (str, False)
_FLOAT, _INT, _NAME = (float, True), (int, True), (str, True)


def _read(source, text, kind):
    """``text`` parsed as ``kind``, None for None; errors name ``source``."""
    if text is None:
        return None
    try:
        return _parse_list(text, *kind)
    except ValueError as exc:
        raise ValueError("%s: %s" % (source, exc)) from None


def _load_config(path, command):
    """The config's values by key, each read as its flag's text: a string
    as it stands, a number or a list of numbers or names as a comma list
    (``repr`` keeps every float's bits)."""
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    kinds = {flag[2:]: kind for flag, _, kind, _ in COMMANDS[command][1]}
    values = {}
    for key, value in cfg.items():
        if key not in kinds:
            raise ValueError("config key %s is not a flag of ptone %s (%s)"
                             % (key, command, ", ".join(kinds)))
        items = value if isinstance(value, list) else [value]
        if None in items:
            raise ValueError("config key %s holds null; give a value or "
                             "leave the key out" % key)
        if not items or not all(isinstance(v, (str, int, float))
                                and not isinstance(v, bool) for v in items):
            raise ValueError("config key %s holds %s; give the flag's text, "
                             "a number, or a list of numbers or names"
                             % (key, json.dumps(value)))
        values[key] = _read("config key " + key, ",".join(
            v if isinstance(v, str) else repr(v) for v in items), kinds[key])
    return values


def _sort_rows(rows):
    return sorted(rows, key=lambda row: tuple(
        float(row.get(k, 0.0)) for k in ("p", "m", "c", "r")))


def _json_value(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return str(v)


def _fmt_value(v):
    v = _json_value(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return "%.17g" % v if isinstance(v, float) else str(v)


def format_csv(fieldnames, rows, meta=None):
    """RFC-4180 CSV text; field order is first-seen across rows if None."""
    if fieldnames is None:
        fieldnames = list(dict.fromkeys(k for row in rows for k in row))
    buf = io.StringIO()
    if meta:
        buf.write("# %s\n" % meta)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_fmt_value(row[k]) if k in row else ""
                         for k in fieldnames])
    return buf.getvalue()


def _meta(command):
    """The leading ``#`` line's text: the command and the UTC time."""
    return "ptone %s  %s" % (
        command, datetime.now(timezone.utc).isoformat(timespec="seconds"))


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(args, fieldnames, rows, command):
    text = format_csv(fieldnames, rows, meta=_meta(command))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.json:
        _write_json(args.json, {"command": command, "rows": [
            {k: _json_value(v) for k, v in row.items()} for row in rows]})


def _combos(v):
    """The (p, m, c, r) grid of the read flag values, in product order."""
    return list(itertools.product(v["p"], v["m"], v["c"], v["r"]))


def _rows(one, combos):
    """``one(p, m, c, r)`` of every combo, sorted by (p, m, c, r).

    The rows are independent, so they run in one process per usable CPU
    (`radial.fork_map`), with every byte and the exception of one loop.
    """
    return _sort_rows(radial.fork_map(lambda combo: one(*combo), combos))


# -- row builders (shared with the acceptance battery) ----------------------


def eig_rows(combos, tol=None, n_grid=None):
    kwargs = {k: v for k, v in (("tol", tol), ("n_grid", n_grid))
              if v is not None}

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
        cert = bounds.barta_bound(sol.omega, problem)
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
        cert = bounds.barta_bound(sol.omega, problem)
        return {"p": p, "m": m, "c": c, "r": r, "lambda": sol.lam,
                "rayleigh": est, "barta": cert.value,
                "residual": sol.residual}

    return _rows(one, combos)


def kazdan_rows(combos, phi, n):
    if phi not in ("eigen", "quadratic"):
        raise ValueError("phi must be 'eigen' or 'quadratic', got %r"
                         % (phi,))

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


def _compare(v):
    rows, violations = compare_rows(v["p"], v["m"], v["r"])
    for name, p, margin in violations:
        print("comparison violated: profile=%s p=%g margin_rel=%.3e"
              % (name, p, margin), file=sys.stderr)
    return rows, 1 if violations else 0


def _surface(v):
    return [surfaces.band_report(kind, r, p) for kind in v["surfaces"]
            for p in sorted(v["p"]) for r in sorted(v["r"])], 0


_GRID_FLAGS = (("--p", "p values: 2,3 or 1.5:3:0.5", _FLOATS, "2"),
               ("--m", "dimensions m (integers)", _INTS, "2"),
               ("--c", "curvature bounds c", _FLOATS, "0"),
               ("--r", "radii r", _FLOATS, "1"))

#: name -> (help, flags, rows, columns) of every subcommand but selftest.
#: A flag is (flag, help, kind, default text or None).  rows(values)
#: takes each flag's value by key and returns (rows, exit code); it
#: names its builder when it runs, so a rebound builder (a tracer's
#: wrapper) is the one called.  The CSV writes the columns, or with None
#: every key in first-seen order.
COMMANDS = {
    "eig": ("eigenvalue sweep", _GRID_FLAGS + (
        ("--tol", "relative width of the final eigenvalue bracket", _FLOAT,
         None),
        ("--n", "output grid size", _INT, None)),
        lambda v: (eig_rows(_combos(v), tol=v["tol"], n_grid=v["n"]), 0),
        ["p", "m", "c", "r", "lambda", "residual", "iterations"]),
    "rstar": ("critical-radius certification", _GRID_FLAGS,
              lambda v: (rstar_rows(_combos(v)), 0),
              ["c", "p", "m", "r", "lambda", "r_star", "min_W_margin"]),
    "barta": ("Barta certificates at the eigenfunction", _GRID_FLAGS,
              lambda v: (barta_rows(_combos(v)), 0),
              ["p", "m", "c", "r", "lambda", "barta_value", "rel_gap"]),
    "compare": ("warped-model comparison certificates",
                (("--p", "p values", _FLOATS, "2,2.5,3"),
                 ("--m", "dimension (single integer)", _INT, "2"),
                 ("--r", "radius (single value)", _FLOAT, "1")), _compare,
                ["profile", "p", "m", "r", "lambda_model", "certificate",
                 "margin_rel", "rayleigh_warped", "admissible"]),
    "surface": ("minimal-surface band reports",
                (("--surfaces", "comma list: plane,catenoid", _NAMES,
                  "plane,catenoid"),
                 ("--p", "p values", _FLOATS, "2,3"),
                 ("--r", "radii", _FLOATS, "1.2")), _surface,
                surfaces.BAND_COLUMNS),
    "kazdan": ("log-transform source statistics", _GRID_FLAGS + (
        ("--phi", "profile to transform: eigen or quadratic", _NAME,
         "eigen"),
        ("--n", "solver grid size", _INT, "2000")),
        lambda v: (kazdan_rows(_combos(v), v["phi"], v["n"]), 0), None),
    "sweep": ("eigenvalue + Rayleigh + Barta battery", _GRID_FLAGS,
              lambda v: (sweep_rows(_combos(v)), 0),
              ["p", "m", "c", "r", "lambda", "rayleigh", "barta",
               "residual"]),
}


def _run_command(args):
    """Read each flag's value (flag, else config, else default), build
    the subcommand's rows and write them."""
    _, flags, rows_of, columns = COMMANDS[args.command]
    values = _load_config(args.config, args.command)
    for flag, _, kind, default in flags:
        key, text = flag[2:], getattr(args, flag[2:])
        if text is not None:
            values[key] = _read(flag, text, kind)
        elif key not in values:
            values[key] = _read(flag, default, kind)
    lists = {"--" + k: len(v) for k, v in values.items()
             if isinstance(v, list)}
    count = math.prod(lists.values())
    if count > MAX_ROWS:
        raise ValueError("%s: %s = %d rows, more than %d" % (
            ", ".join(lists), " x ".join(map(str, lists.values())), count,
            MAX_ROWS))
    rows, code = rows_of(values)
    _emit(args, columns, rows, args.command)
    return code


def selftest_manifest_rows(results):
    """Long-format rows (criterion, record, field, value) for CSV."""
    return [{"criterion": res.number, "record": idx, "field": field,
             "value": _fmt_value(value)}
            for res in results for idx, record in enumerate(res.rows)
            for field, value in record.items()]


def cmd_selftest(args):
    results = acceptance.run_all(name_filter=args.filter)
    if not results:
        print("no criterion matches filter %r" % (args.filter,),
              file=sys.stderr)
        return 2
    for res in results:
        print(res.status_line())
    failures = [res for res in results if not res.passed]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(format_csv(["criterion", "record", "field", "value"],
                                selftest_manifest_rows(results),
                                meta=_meta("selftest")))
    if args.json:
        _write_json(args.json, {"command": "selftest", "criteria": [
            {"number": res.number, "name": res.name, "passed": res.passed,
             "detail": res.detail, "runtime_s": res.runtime}
            for res in results]})
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


def _add_output(sub):
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
        for flag, text, _, _ in flags:
            sub.add_argument(flag, help=text)
        sub.add_argument("--config", help="JSON config file of flag values "
                                          "(flags override)")
        _add_output(sub)
        sub.set_defaults(handler=_run_command)

    sub = subs.add_parser("selftest", help="run the acceptance criteria")
    sub.add_argument("--filter", help="substring (or number) selecting "
                                      "criteria")
    _add_output(sub)
    sub.set_defaults(handler=cmd_selftest)
    return parser


#: The flags that take numbers, any of which may start with '-'.
_NUMBER_FLAGS = {flag for _, flags, _, _ in COMMANDS.values()
                 for flag, _, (cast, _), _ in flags if cast is not str}


def _join_list_values(argv):
    """Rewrite ``--c -1,0,1`` as ``--c=-1,0,1``, and ``--c -inf`` as
    ``--c=-inf``.

    argparse takes a token that starts with '-' and is not a plain
    number for an option, so a list or range with a negative first
    value, or -inf or -nan (any case), would otherwise be refused.  No
    option starts with '-' and a digit, 'inf' or 'nan', so such a token
    after a number flag is always its value.
    """
    out = []
    for tok in argv:
        if (out and out[-1] in _NUMBER_FLAGS
                and re.match(r"-([\d.]|inf|nan)", tok, re.IGNORECASE)):
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
