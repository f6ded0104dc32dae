"""The three benchmark workloads, their inputs and their output checks.

Each workload is a class with

* ``__init__``: the set-up a user pays before the first solve (building
  the workload's inputs, such as tabulated profiles);
* ``prepare()``: reference values for the checks, computed once per run
  outside the timed passes;
* ``run_pass(rng)``: one timed pass, starting from a cold solver cache
  as every ``ptone`` invocation does, returning a :class:`PassOutcome`.

The seed only permutes the order of independent operations; the set of
operations, and so every result, is the same for every seed.

Checks reuse the acceptance battery's own tolerances.  An operation
fails when it raises or its output check fails; each failure is
recorded with the parameters that caused it.
"""

import csv
import math
import os

from scipy.special import jn_zeros

from ptone import acceptance, cli, modelspace, radial

#: The fixed CLI sweep matrix of the project roadmap.
SWEEP_P = ("2", "2.5", "3", "4")
SWEEP_M = ("2", "3")
SWEEP_C = ("-1", "0", "1")
SWEEP_R = "1"

#: Closed-form flat anchors of the sweep, keyed by (p, m, c, r).
SWEEP_ANCHORS = {
    (2.0, 2, 0.0, 1.0): float(jn_zeros(0, 1)[0]) ** 2,
    (2.0, 3, 0.0, 1.0): math.pi ** 2,
}

ANCHOR_TOL = 1e-5          # criterion 1
BARTA_TOL = 1e-4           # criterion 4
RAYLEIGH_TOL = 1e-3        # criterion 3
PROFILE_TOL = 1e-6         # criterion 8 (tab-sinh vs S_-1, tab-cubic >= flat)
RESIDUAL_TOL = 1e-6        # annulus eigen-equation residual

WARPED_P = (2.0, 3.0, 4.0)
WARPED_C = (-1.0, 0.0, 1.0)
#: (m, a, b): m = 1 has the closed form (p-1)(pi_p/(b-a))^p.
WARPED_ANNULI = ((1, 0.2, 1.2), (2, 0.5, 1.5))
WARPED_PROFILES = ("tab-sinh", "tab-cubic")

#: Criterion 9's flat-interior clause is the project's one documented red
#: clause (see the roadmap's standing item).  It is counted as a failed
#: operation like any other; it alone does not mark the run incorrect.
KNOWN_RED = (9, "flat-interior")


class PassOutcome:
    """Counts, failures and the worst closed-form error of one pass.

    ``failures`` maps each failed operation to its message.  All of them
    make the run incorrect except those not in ``unexpected`` (the known
    red clause), which still count as failed.
    """

    def __init__(self, attempted, failures, anchor_relerr, unexpected=None,
                 runtimes=None):
        self.attempted = attempted
        self.failures = failures
        self.anchor_relerr = anchor_relerr
        self.unexpected = set(failures) if unexpected is None else unexpected
        self.runtimes = runtimes or {}


# -- sweep ------------------------------------------------------------------


def sweep_grid():
    """The (p, m, c, r) keys of the sweep matrix."""
    return [(float(p), int(m), float(c), float(SWEEP_R))
            for p in SWEEP_P for m in SWEEP_M for c in SWEEP_C]


def check_sweep_rows(rows):
    """Failures and worst anchor error of the sweep's CSV rows.

    ``rows`` holds dicts with float values for p, m, c, r, lambda,
    rayleigh and barta.  Returns ``({key: message}, anchor_err)``, one
    message per failed grid point; a missing grid point fails too.
    """
    failures = {}

    def fail(key, message):
        failures.setdefault(key, "sweep p=%g m=%d c=%g r=%g: " % key
                            + message)

    grid = sweep_grid()
    by_key = {}
    for row in rows:
        key = (row["p"], int(row["m"]), row["c"], row["r"])
        if key in by_key or key not in grid:
            fail(key, "unexpected or duplicate row")
        by_key[key] = row
    for key in grid:
        if key not in by_key:
            fail(key, "row missing")

    anchor_err = 0.0
    for key, row in by_key.items():
        lam = row["lambda"]
        if not (math.isfinite(lam) and lam > 0.0):
            fail(key, "lambda=%r" % lam)
            continue
        if key in SWEEP_ANCHORS:
            ref = SWEEP_ANCHORS[key]
            err = abs(lam - ref) / ref
            anchor_err = max(anchor_err, err)
            if not err <= ANCHOR_TOL:
                fail(key, "anchor rel err %.3e > %g" % (err, ANCHOR_TOL))
        gap = abs(row["barta"] - lam) / lam
        if not gap <= BARTA_TOL:
            fail(key, "|barta-lambda|/lambda %.3e > %g" % (gap, BARTA_TOL))
        gap = abs(row["rayleigh"] - lam) / lam
        if not gap <= RAYLEIGH_TOL:
            fail(key, "|rayleigh-lambda|/lambda %.3e > %g"
                 % (gap, RAYLEIGH_TOL))
    # lambda strictly decreasing in c for each (p, m): a row fails when
    # its lambda is not below the one at the next smaller c
    for lower, upper in zip(grid, grid[1:]):
        if lower[:2] == upper[:2] and lower in by_key and upper in by_key:
            if not by_key[upper]["lambda"] < by_key[lower]["lambda"]:
                fail(upper, "lambda %.17g not below %.17g at c=%g"
                     % (by_key[upper]["lambda"], by_key[lower]["lambda"],
                        lower[2]))
    return failures, anchor_err


def read_sweep_csv(path):
    """The rows of a ``ptone sweep`` CSV file, as floats."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return [{k: float(v) for k, v in row.items()}
            for row in csv.DictReader(lines)]


class Sweep:
    """``ptone sweep --p 2,2.5,3,4 --m 2,3 --c=-1,0,1 --r 1`` via ``cli``."""

    name = "sweep"
    ops_per_pass = len(SWEEP_P) * len(SWEEP_M) * len(SWEEP_C)

    def __init__(self, out_dir):
        self.out_path = os.path.join(out_dir, "sweep.csv")

    def prepare(self):
        pass

    def run_pass(self, rng):
        def shuffled(values):
            values = list(values)
            rng.shuffle(values)
            return ",".join(values)

        radial.clear_solver_cache()
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        argv = ["sweep", "--p", shuffled(SWEEP_P), "--m", shuffled(SWEEP_M),
                "--c=" + shuffled(SWEEP_C), "--r", SWEEP_R,
                "--out", self.out_path]
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash fails every row of the pass
            code = "%s: %s" % (type(exc).__name__, exc)
        if code != 0:
            message = "sweep: `ptone %s` exited %s" % (" ".join(argv), code)
            failures = {key: message for key in sweep_grid()}
            return PassOutcome(self.ops_per_pass, failures, 0.0)
        failures, anchor_err = check_sweep_rows(read_sweep_csv(self.out_path))
        return PassOutcome(self.ops_per_pass, failures, anchor_err)


# -- warped -----------------------------------------------------------------


def warped_operations(profiles):
    """(key, problem) for every solve of the warped workload."""
    ops = []
    for name in WARPED_PROFILES:
        for p in WARPED_P:
            ops.append((("ball", name, p, 2, 1.0),
                        radial.RadialProblem(p, 2, profiles[name],
                                             radial.Ball(1.0))))
    for c in WARPED_C:
        for p in WARPED_P:
            for m, a, b in WARPED_ANNULI:
                ops.append((("annulus", c, p, m, (a, b)),
                            radial.RadialProblem(p, m,
                                                 modelspace.space_form(c),
                                                 radial.Annulus(a, b))))
    return ops


def check_warped(key, sol, refs):
    """(failure or None, anchor rel err or 0) of one warped solve."""
    lam = sol.lam
    if not (math.isfinite(lam) and lam > 0.0):
        return "warped %s: lambda=%r" % (key, lam), 0.0
    if key[0] == "ball":
        _, name, p, m, r = key
        if name == "tab-sinh":
            ref = refs[("ball", -1.0, p, m, r)]
            err = abs(lam - ref) / ref
            if not err <= PROFILE_TOL:
                return ("warped %s: |lambda - lambda(S_-1)|/lambda %.3e > %g"
                        % (key, err, PROFILE_TOL)), 0.0
        else:
            ref = refs[("ball", 0.0, p, m, r)]
            if not lam >= ref * (1.0 - PROFILE_TOL):
                return ("warped %s: lambda %.12g below flat %.12g"
                        % (key, lam, ref)), 0.0
        return None, 0.0
    _, c, p, m, (a, b) = key
    if m == 1:
        ref = (p - 1.0) * (radial.pi_p(p) / (b - a)) ** p
        err = abs(lam - ref) / ref
        if not err <= ANCHOR_TOL:
            return ("warped %s: anchor rel err %.3e > %g"
                    % (key, err, ANCHOR_TOL)), err
        return None, err
    if not sol.residual <= RESIDUAL_TOL:
        return ("warped %s: residual %.3e > %g"
                % (key, sol.residual, RESIDUAL_TOL)), 0.0
    return None, 0.0


class Warped:
    """Ball solves on tabulated profiles plus space-form annulus solves."""

    name = "warped"
    ops_per_pass = (len(WARPED_PROFILES) * len(WARPED_P)
                    + len(WARPED_C) * len(WARPED_P) * len(WARPED_ANNULI))

    def __init__(self, out_dir):
        profiles = dict(cli.compare_profiles())
        self.ops = warped_operations(profiles)
        self.refs = {}

    def prepare(self):
        """Space-form ball eigenvalues the tabulated solves are held to."""
        radial.clear_solver_cache()
        for c in (-1.0, 0.0):
            for p in WARPED_P:
                sol = radial.solve_ball_eigenvalue(
                    radial.ball_problem(p, 2, c, 1.0), use_cache=False)
                self.refs[("ball", c, p, 2, 1.0)] = sol.lam

    def run_pass(self, rng):
        radial.clear_solver_cache()
        ops = list(self.ops)
        rng.shuffle(ops)
        failures, anchor_err = {}, 0.0
        for key, problem in ops:
            try:
                if key[0] == "ball":
                    sol = radial.solve_ball_eigenvalue(problem)
                else:
                    sol = radial.solve_annulus_eigenvalue(problem)
            except Exception as exc:  # recorded as a failed operation
                failures[key] = "warped %s: %s: %s" % (
                    key, type(exc).__name__, exc)
                continue
            failure, err = check_warped(key, sol, self.refs)
            anchor_err = max(anchor_err, err)
            if failure:
                failures[key] = failure
        return PassOutcome(len(ops), failures, anchor_err)


# -- selftest ---------------------------------------------------------------


def check_criterion(res):
    """(failure or None, unexpected: bool) of one CriterionResult."""
    if res.passed:
        return None, False
    failure = "selftest criterion %d (%s): %s" % (res.number, res.name,
                                                  res.detail)
    red = [row.get("clause") for row in res.rows if not row.get("ok", True)]
    known = (res.number == KNOWN_RED[0] and red == [KNOWN_RED[1]])
    return failure, not known


class Selftest:
    """``ptone selftest``: the fifteen-criterion acceptance battery."""

    name = "selftest"
    ops_per_pass = len(acceptance.REGISTRY)

    def __init__(self, out_dir):
        pass

    def prepare(self):
        pass

    def run_pass(self, rng):
        # Criterion 15 clears the shared solver cache, so only criteria
        # 1-14 are independent of their order; 15 stays last.
        head = [entry for entry in acceptance.REGISTRY if entry[0] != 15]
        rng.shuffle(head)
        order = head + [entry for entry in acceptance.REGISTRY
                        if entry[0] == 15]
        radial.clear_solver_cache()
        failures, unexpected, runtimes, anchor_err = {}, set(), {}, 0.0
        for number, name, fn in order:
            try:
                res = fn()
            except Exception as exc:  # recorded as a failed operation
                failures[number] = "selftest criterion %d (%s): %s: %s" % (
                    number, name, type(exc).__name__, exc)
                unexpected.add(number)
                continue
            runtimes[number] = res.runtime
            if number == 1:
                anchor_err = max(row["rel_err"] for row in res.rows)
            failure, is_unexpected = check_criterion(res)
            if failure:
                failures[number] = failure
                if is_unexpected:
                    unexpected.add(number)
        return PassOutcome(len(order), failures, anchor_err,
                           unexpected=unexpected, runtimes=runtimes)


WORKLOADS = {cls.name: cls for cls in (Sweep, Warped, Selftest)}
