"""Acceptance battery: fifteen verification criteria spanning every module.

Each criterion body runs a self-contained battery against fixed grids,
seeds and tolerances and returns (passed, detail, rows); ``_criterion``
registers it under its number and name, where it is defined, and times
it into a :class:`CriterionResult`.  The registry drives both the CLI
selftest and the pytest acceptance suite, so a criterion lives in
exactly one place.  Result rows contain only deterministic numerics (no
timings, no timestamps) -- the selftest CSV body must be byte-identical
between runs.

Criteria 2, 3, 4, 6, 7 and 9-13 run their independent cases through
`radial.fork_map`, one process per usable CPU, each process pulling
the next case when it finishes one: each case returns its rows, and
the checks and the detail are read off the rows.  A case is
one solution: cases that would share a shot or a march are one case,
or two processes would each take it.  So criteria 3, 4 and 6 take the
three m = 1 rows of one p, which share one shot and march, as one case
(`CROSS_RUNS`); criterion 11 runs both surfaces in one case per p,
criterion 12 the plane check in the r = 1.2 case of its p, and
criterion 13 the sandwich in its (2, 2, 0) case.  Criterion 4 draws
every row's perturbations here, in row order, before the map.  The map
leaves the children's shot records, with everything their solutions
built, in this process's cache, so later criteria repeat no shot or
march.  The rows are those of one loop, bit for bit, in the same order,
on any CPU count.  Criterion 15 maps its two cold emissions, each of
which runs its rows in one loop (a map inside a map forks nothing).
Criteria 1, 5, 8 and 14 run in this process.

A criterion that fails is reported as such; nothing here downgrades a
tolerance to force a pass.  Criterion 9's flat clause checks the full
radius against the proven bound W <= lambda (2-p) omega^{p-1} / m: on
the flat ball the restriction inequality holds everywhere, so there is
no interior critical radius to find.  For c = 0, p = 3, m = 2, r = 1
the displayed integrand Phi_0 changes sign at t ~ 0.618, and its
cumulative integral starts at 0, peaks at 0.128 near t ~ 0.618 and
falls to 0.0727 at r without reaching zero, so the scan keeps all of r.
"""

import functools
import itertools
import math
import time

import numpy as np

from . import bounds, critical, modelspace, radial, rayleigh, surfaces

#: First zero j01 of the Bessel function J0; lambda = j01^2 on the unit
#: flat disk (p = 2, m = 2).  The tests check it against scipy.
J01 = 2.404825557695773

#: RNG seed for every randomized battery (perturbed fields, Picone pairs).
SEED = 0x5EED

#: (p, m, c) matrix shared by the solver/bound cross-validation criteria.
CROSS_MATRIX = [(p, m, c)
                for p in (1.5, 2.0, 2.5, 3.0)
                for m in (1, 2, 3)
                for c in (-1.0, 0.0, 1.0)]

#: CROSS_MATRIX's row indices cut into runs that share one shot.  At
#: m = 1 a shot and its builds read no warping
#: (`RadialProblem.cache_key`), so the rows (p, 1, c), c = -1, 0, 1, make
#: one run; every other row is a run of its own.  A run is one case of
#: `radial.fork_map` (`_cross_rows`), so no two processes take the same
#: shot.
CROSS_RUNS = [list(run) for _, run in itertools.groupby(
    range(len(CROSS_MATRIX)),
    key=lambda i: CROSS_MATRIX[i][:2] if CROSS_MATRIX[i][1] == 1 else i)]


class CriterionResult:
    """Outcome of one acceptance criterion."""

    def __init__(self, number, name, passed, detail, rows, runtime):
        self.number = int(number)
        self.name = name
        self.passed = bool(passed)
        self.detail = detail
        self.rows = rows
        self.runtime = float(runtime)

    def status_line(self):
        return ("[%2d] %s  %-28s %s (%.1fs)"
                % (self.number, "PASS" if self.passed else "FAIL",
                   self.name, self.detail, self.runtime))

    def __repr__(self):
        return "CriterionResult(%d, %r, passed=%s)" % (
            self.number, self.name, self.passed)


def _solve(p, m, c, r):
    return radial.solve_ball_eigenvalue(radial.ball_problem(p, m, c, r))


def _cross_rows(case):
    """[case(i) for each CROSS_MATRIX row index i], one `CROSS_RUNS` run
    per case of `radial.fork_map`, so the rows of a run share a process."""
    return [row for rows in radial.fork_map(
        lambda run: [case(i) for i in run], CROSS_RUNS) for row in rows]


def compare_profiles():
    """(name, profile) of the comparison battery (`ptone compare`): three
    admissible warpings, -f''/f <= 0 (the tabulated two by a visible
    margin), the flat equality case, and one that fails the curvature
    check (f = sin has -f''/f = +1 > 0).  Criterion 8 takes the first
    three."""
    t = np.linspace(0.0, 1.05, 2001)
    return [
        ("hyperbolic", modelspace.space_form(-1.0)),
        ("tab-sinh", modelspace.tabulated(t, np.sinh(t), label="tab-sinh")),
        ("tab-cubic", modelspace.tabulated(t, t * (1.0 + t * t / 10.0),
                                           label="tab-cubic")),
        ("flat-equality", modelspace.space_form(0.0)),
        ("inadmissible-sin", modelspace.tabulated(t, np.sin(t),
                                                  label="inadmissible-sin")),
    ]


# -- criteria ---------------------------------------------------------------

#: (number, name, fn) of every criterion in order; fn() returns its
#: CriterionResult.
REGISTRY = []


def _criterion(number, name):
    """Register the decorated body as criterion `number`, timed here.

    The body returns (passed, detail, rows); the registered function
    returns them as a CriterionResult with the runtime of the call.
    """
    def register(body):
        @functools.wraps(body)
        def run():
            t0 = time.perf_counter()
            passed, detail, rows = body()
            return CriterionResult(number, name, passed, detail, rows,
                                   time.perf_counter() - t0)
        REGISTRY.append((number, name, run))
        return run
    return register


@_criterion(1, "closed-form eigenvalues")
def criterion_01():
    """Closed-form flat eigenvalues within 1e-5, each solve within 1 s."""
    cases = [
        (2.0, 3, math.pi ** 2, "pi^2"),
        (2.0, 2, J01 ** 2, "j01^2"),
        (1.5, 1, 0.5 * (radial.pi_p(1.5) / 2.0) ** 1.5, "(p-1)(pi_p/2)^p"),
        (3.0, 1, 2.0 * (radial.pi_p(3.0) / 2.0) ** 3, "(p-1)(pi_p/2)^p"),
        (4.0, 1, 3.0 * (radial.pi_p(4.0) / 2.0) ** 4, "(p-1)(pi_p/2)^p"),
    ]
    rows, checks, times_ok = [], [], []
    for p, m, ref, label in cases:
        t1 = time.perf_counter()
        lam = _solve(p, m, 0.0, 1.0).lam
        dt = time.perf_counter() - t1
        rel = abs(lam - ref) / ref
        checks.append(rel <= 1e-5)
        times_ok.append(dt <= 1.0)
        rows.append({"p": p, "m": m, "c": 0.0, "r": 1.0, "lambda": lam,
                     "reference": ref, "rel_err": rel, "oracle": label})
    worst = max(row["rel_err"] for row in rows)
    detail = "max rel err %.2e (tol 1e-05), solves within 1 s: %s" % (
        worst, all(times_ok))
    return all(checks) and all(times_ok), detail, rows


@_criterion(2, "flat scaling law")
def criterion_02():
    """Flat scaling law lambda(r) = r^-p lambda(1) within 1e-6."""
    def case(pm):
        p, m = pm
        lam1 = _solve(p, m, 0.0, 1.0).lam
        rows = []
        for r in (0.5, 2.0):
            lam_r = _solve(p, m, 0.0, r).lam
            pred = radial.scaled_eigenvalue(lam1, r, p)
            rows.append({"p": p, "m": m, "c": 0.0, "r": r, "lambda": lam_r,
                         "scaled_from_unit": pred,
                         "rel_err": abs(lam_r - pred) / lam_r})
        return rows

    rows = [row for rows in radial.fork_map(
        case, [(p, m) for p in (1.5, 2.0, 3.0, 4.0) for m in (1, 2, 3)])
        for row in rows]
    checks = [row["rel_err"] <= 1e-6 for row in rows]
    detail = "max rel err %.2e (tol 1e-06)" % max(r["rel_err"] for r in rows)
    return all(checks), detail, rows


@_criterion(3, "shooting vs rayleigh")
def criterion_03():
    """Shooting vs discrete Rayleigh within 1e-3 relative at n = 2000."""
    def case(i):
        p, m, c = CROSS_MATRIX[i]
        problem = radial.ball_problem(p, m, c, 1.0)
        lam = radial.solve_ball_eigenvalue(problem).lam
        est = rayleigh.minimize_rayleigh(
            rayleigh.Grid1D.from_problem(problem, n=2000), p)["lambda_est"]
        return {"p": p, "m": m, "c": c, "r": 1.0, "lambda": lam,
                "rayleigh": est, "rel_err": abs(lam - est) / lam}

    rows = _cross_rows(case)
    checks = [row["rel_err"] <= 1e-3 for row in rows]
    detail = "max rel err %.2e (tol 1e-03)" % max(r["rel_err"] for r in rows)
    return all(checks), detail, rows


@_criterion(4, "barta sharpness")
def criterion_04():
    """Barta sharpness at the eigenfunction; strict slack for perturbations."""
    # Every row's ten perturbations, drawn here in row order.
    rng = np.random.default_rng(SEED)
    perturbations = [[rng.uniform(-1.0, 1.0, 3) for _ in range(10)]
                     for _ in CROSS_MATRIX]

    def case(i):
        p, m, c = CROSS_MATRIX[i]
        problem = radial.ball_problem(p, m, c, 1.0)
        sol = radial.solve_ball_eigenvalue(problem)
        cert = bounds.barta_bound(sol.omega, problem)
        t = sol.grid
        worst_pert = -np.inf
        for coef in perturbations[i]:
            g = sum(a * np.sin((k + 1) * math.pi * t) for k, a in
                    enumerate(coef)) / 3.0
            eta = sol.omega * (1.0 + 0.2 * g)
            pert = bounds.barta_bound(eta, problem)
            worst_pert = max(worst_pert, (pert.value - sol.lam) / sol.lam)
        return {"p": p, "m": m, "c": c, "r": 1.0, "lambda": sol.lam,
                "barta_rel_gap": (cert.value - sol.lam) / sol.lam,
                "perturbed_max_rel_gap": worst_pert}

    rows = _cross_rows(case)
    checks = [abs(row["barta_rel_gap"]) <= 1e-4
              and row["perturbed_max_rel_gap"] < 0.0 for row in rows]
    detail = ("max |rel gap| %.2e (tol 1e-04); perturbed max %.2e (< 0)"
              % (max(abs(r["barta_rel_gap"]) for r in rows),
                 max(r["perturbed_max_rel_gap"] for r in rows)))
    return all(checks), detail, rows


@_criterion(5, "picone nonnegativity")
def criterion_05():
    """Picone defect nonnegative; zero for proportional pairs."""
    rng = np.random.default_rng(SEED)
    rows, checks = [], []
    for p in (1.5, 2.0, 3.0, 4.0):
        shape = (1000, 32)
        u = rng.uniform(0.05, 3.0, shape)
        v = rng.uniform(0.05, 3.0, shape)
        gu = rng.uniform(-3.0, 3.0, shape)
        gv = rng.uniform(-3.0, 3.0, shape)
        w = u / v
        scale = (np.abs(gu) ** p + (p - 1.0) * w ** p * np.abs(gv) ** p
                 + p * w ** (p - 1.0) * np.abs(gv) ** (p - 1.0) * np.abs(gu))
        defect = bounds.picone_defect(u, gu, v, gv, p)
        worst = float(np.min(defect / np.maximum(scale, 1e-300)))

        factor = 1.7
        prop = bounds.picone_defect(u, gu, factor * u, factor * gu, p)
        scale_p = (1.0 + (p - 1.0) / factor ** p * 1.0
                   + p / factor ** (p - 1.0)) * np.abs(gu) ** p
        prop_worst = float(np.max(np.abs(prop) / np.maximum(scale_p, 1e-300)))
        checks.append(worst >= -1e-12 and prop_worst <= 1e-13)
        rows.append({"p": p, "pairs": shape[0] * shape[1],
                     "min_defect_scaled": worst,
                     "proportional_max_scaled": prop_worst})
    detail = ("min defect %.2e (>= -1e-12); proportional max %.2e "
              "(<= 1e-13)" % (min(r["min_defect_scaled"] for r in rows),
                              max(r["proportional_max_scaled"] for r in rows)))
    return all(checks), detail, rows


@_criterion(6, "divergence-field sharpness")
def criterion_06():
    """Divergence-field bound sharp at the eigenfield; pointwise identity."""
    def case(i):
        p, m, c = CROSS_MATRIX[i]
        problem = radial.ball_problem(p, m, c, 1.0)
        sol = radial.solve_ball_eigenvalue(problem)
        cert = bounds.div_field_bound(bounds.eigen_field(sol), problem)
        return {"p": p, "m": m, "c": c, "r": 1.0, "lambda": sol.lam,
                "div_bound_rel_err": abs(cert.value - sol.lam) / sol.lam,
                "identity_residual": bounds.div_identity_residual(sol)}

    rows = _cross_rows(case)
    checks = [row["div_bound_rel_err"] <= 1e-4
              and row["identity_residual"] <= 1e-6 for row in rows]
    detail = ("max bound rel err %.2e (tol 1e-04); max identity residual "
              "%.2e (tol 1e-06)"
              % (max(r["div_bound_rel_err"] for r in rows),
                 max(r["identity_residual"] for r in rows)))
    return all(checks), detail, rows


@_criterion(7, "curvature monotonicity")
def criterion_07():
    """Strict eigenvalue monotonicity in the curvature bound."""
    def case(pmr):
        p, m, r = pmr
        lam = {c: _solve(p, m, c, r).lam for c in (-1.0, 0.0, 1.0)}
        return {"p": p, "m": m, "r": r, "lambda_hyperbolic": lam[-1.0],
                "lambda_flat": lam[0.0], "lambda_spherical": lam[1.0],
                "strict": lam[-1.0] > lam[0.0] > lam[1.0]}

    rows = radial.fork_map(case, [(p, m, r) for p in (1.5, 2.0, 3.0)
                                  for m in (2, 3) for r in (0.8, 1.4)])
    checks = [row["strict"] for row in rows]
    gaps = [min(r["lambda_hyperbolic"] - r["lambda_flat"],
                r["lambda_flat"] - r["lambda_spherical"]) for r in rows]
    detail = "min strict gap %.3e (> 0)" % min(gaps)
    return all(checks), detail, rows


@_criterion(8, "warped-model comparison")
def criterion_08():
    """Warped-model comparison: transplant certificate >= flat eigenvalue."""
    profiles = compare_profiles()[:3]
    rows, checks = [], []
    for p in (2.0, 2.5, 3.0):
        flat = _solve(p, 2, 0.0, 1.0)
        for name, prof in profiles:
            curv = modelspace.verify_curvature_bound(prof, 0.0)
            problem = radial.RadialProblem(p, 2, prof, radial.Ball(1.0))
            cert = bounds.transplant_barta_certificate(flat, problem)
            rel = (cert.value - flat.lam) / flat.lam
            checks.append(curv.ok and rel >= -1e-6)
            rows.append({"profile": name, "p": p, "m": 2, "r": 1.0,
                         "lambda_flat": flat.lam, "certificate": cert.value,
                         "rel_margin": rel, "curvature_ok": curv.ok})
        prob0 = radial.RadialProblem(p, 2, modelspace.space_form(0.0),
                                     radial.Ball(1.0))
        cert0 = bounds.transplant_barta_certificate(flat, prob0)
        rel0 = abs(cert0.value - flat.lam) / flat.lam
        checks.append(rel0 <= 1e-6)
        rows.append({"profile": "flat (equality)", "p": p, "m": 2, "r": 1.0,
                     "lambda_flat": flat.lam, "certificate": cert0.value,
                     "rel_margin": rel0, "curvature_ok": True})
    detail = ("min rel margin %.2e (>= -1e-06); equality gap %.1e"
              % (min(r["rel_margin"] for r in rows if "equality" not in
                     r["profile"]),
                 max(r["rel_margin"] for r in rows if "equality" in
                     r["profile"])))
    return all(checks), detail, rows


@_criterion(9, "critical radius")
def criterion_09():
    """Critical radius: full-radius, spherical, hyperbolic and flat clauses.

    Four clauses.  (a) p = 2 certifies the full radius for every c.
    (b) c = 1, p in {3, 4} certifies the full radius with a positive
    positivity margin.  (c) c = -1, p = 3 finds an interior critical
    radius with a certified restriction inequality, stable under grid
    refinement.  (d) c = 0, p = 3, m = 2, r = 1 certifies the full radius
    by the Integral-LHS scan, and W stays below the flat barrier

        W(t) <= lambda (2-p) |omega(t)|^{p-1} / m

    (up to TOL_W_REL * lambda) at every node of the report's scan.

    The barrier is a theorem, not a fit.  For a first eigenfunction
    omega > 0 is decreasing, so integrating the radial equation gives

        t^{m-1} |omega'|^{p-1} = lambda int_0^t s^{m-1} omega^{p-1} ds
                               >= lambda omega(t)^{p-1} t^m / m,

    and with K = p+m-2 and cot_0(t) = 1/t,

        W(t) = -(K/t) |omega'|^{p-1} + lambda omega^{p-1}
             <= lambda omega^{p-1} (1 - K/m)
              = lambda (2-p) omega(t)^{p-1} / m  <  0    on (0, r),

    while W(r) = -(K/r) |omega'(r)|^{p-1} < 0.  The restriction
    inequality therefore holds on the whole flat ball for every p >= 2,
    m >= 1 and r, and r_star = r is the correct answer; no interior flat
    critical radius exists.  At t = 0 the bound holds with equality
    (W(0+) = lambda (2-p)/m, omega(0) = 1), so the reported barrier
    margin is the minimum of bound - W over the nodes t > 0.

    Each clause case is one solution, all at m = 2, and returns its row.
    """
    m = 2

    def case(clause_pcr):
        clause, p, c, r = clause_pcr
        sol = _solve(p, m, c, r)
        if clause == "p2":
            rep = critical.compute_r_star(sol)
            ok = abs(rep.r_star - r) <= 1e-12
            return {"clause": "p2", "c": c, "p": p, "m": m, "r": r,
                    "lambda": sol.lam, "r_star": rep.r_star,
                    "w_margin": rep.min_margin, "ok": ok}
        if clause == "spherical":
            rep = critical.compute_r_star(sol)
            margin = rep.diagnostics["positivity_margin"]
            ok = abs(rep.r_star - r) <= 1e-12 and margin > 0.0
            return {"clause": "spherical", "c": c, "p": p, "m": m,
                    "r": r, "lambda": sol.lam, "r_star": rep.r_star,
                    "positivity_margin": margin, "ok": ok}
        if clause == "hyperbolic-interior":
            rep = critical.compute_r_star(sol, n=16384)
            rep_fine = critical.compute_r_star(sol, n=32768)
            cell = 1.0 / 16383.0
            drift = abs(rep.r_star - rep_fine.r_star)
            interior = 0.0 < rep.r_star < 1.0
            ok = interior and drift <= 2.0 * cell
            return {"clause": "hyperbolic-interior", "c": c, "p": p,
                    "m": m, "r": r, "lambda": sol.lam, "r_star": rep.r_star,
                    "r_star_refined": rep_fine.r_star, "drift_cells":
                    drift / cell, "w_margin": rep.min_margin, "ok": ok}
        rep0 = critical.compute_r_star(sol, n=16384)
        barrier = (sol.lam * (2.0 - p) * np.abs(rep0.omega_samples)
                   ** (p - 1.0) / m)
        gap = barrier - rep0.W_samples
        barrier_margin = float(np.min(gap[rep0.t_samples > 0.0]))
        ok = (rep0.r_star == r and rep0.method == "Integral-LHS"
              and bool(np.all(gap >= -critical.TOL_W_REL * sol.lam)))
        return {"clause": "flat-full-radius", "c": c, "p": p, "m": m,
                "r": r, "lambda": sol.lam, "r_star": rep0.r_star,
                "method": rep0.method, "w_margin": rep0.min_margin,
                "barrier_margin": barrier_margin, "ok": ok}

    rows = radial.fork_map(case, [
        ("p2", 2.0, -1.0, 1.0), ("p2", 2.0, 0.0, 1.0), ("p2", 2.0, 1.0, 1.4),
        ("spherical", 3.0, 1.0, 1.4), ("spherical", 4.0, 1.0, 1.4),
        ("hyperbolic-interior", 3.0, -1.0, 1.0),
        ("flat-full-radius", 3.0, 0.0, 1.0)])
    flat = rows[-1]
    failed = [row["clause"] for row in rows if not row["ok"]]
    detail = ("%s; flat r_star = %g, W margin %.3e, barrier margin %.2e"
              % ("failing clauses: " + ", ".join(failed) if failed
                 else "all clauses hold", flat["r_star"], flat["w_margin"],
                 flat["barrier_margin"]))
    return not failed, detail, rows


@_criterion(10, "flat integral identity")
def criterion_10():
    """Flat integral identity: trapezoid vs closed-form left side."""
    def case(pm):
        p, m = pm
        sol = _solve(p, m, 0.0, 1.0)
        _, _, _, sup_rel = critical.flat_identity_check(sol)
        return {"p": p, "m": m, "c": 0.0, "r": 1.0, "lambda": sol.lam,
                "sup_rel_gap": sup_rel}

    rows = radial.fork_map(case, [(p, m) for p in (2.5, 3.0)
                                  for m in (2, 3)])
    checks = [row["sup_rel_gap"] <= 1e-4 for row in rows]
    detail = "max rel gap %.2e (tol 1e-04)" % max(
        r["sup_rel_gap"] for r in rows)
    return all(checks), detail, rows


@_criterion(11, "jorge-koutrofiotis routes")
def criterion_11():
    """Jorge--Koutrofiotis assembly vs intrinsic differences, 1e-6.

    Both surfaces at one p transplant one flat solution, so one case per
    p runs both; the rows come out surface by surface."""
    kinds = ("plane", "catenoid")

    def case(p):
        rows = []
        for kind in kinds:
            ra = surfaces.route_agreement(surfaces.get_surface(kind), p, 1.2)
            rows.append({"surface": kind, "p": p, "r": 1.2,
                         "sup_scaled": ra["sup_scaled"],
                         "nodes_compared": ra["count"]})
        return rows

    by_p = radial.fork_map(case, [2.0, 2.5, 3.0, 4.0])
    rows = [row for by_kind in zip(*by_p) for row in by_kind]
    checks = [row["sup_scaled"] <= 1e-6 for row in rows]
    detail = "max scaled sup %.2e (tol 1e-06)" % max(
        r["sup_scaled"] for r in rows)
    return all(checks), detail, rows


@_criterion(12, "model-control inequality")
def criterion_12():
    """Model-control inequality on catenoid bands; plane equality case.

    One case per (r, p) solution; the r = 1.2 cases also check the plane
    on their solution.  The catenoid rows come first, then the plane's."""
    def case(rp):
        r, p = rp
        sol = _solve(p, 2, 0.0, r)
        if p > 2.0:  # precondition r <= r_star of the flat model
            r_star = critical.compute_r_star(sol).r_star
        else:
            r_star = r
        chk = surfaces.modelcontrol_check(surfaces.get_surface("catenoid"),
                                          sol)
        ok = r <= r_star and chk["min_margin"] >= -1e-6 * sol.lam
        cat = {"surface": "catenoid", "p": p, "r": r, "lambda": sol.lam,
               "r_star_flat": r_star, "min_margin": chk["min_margin"],
               "margin_rel": chk["min_margin"] / sol.lam, "ok": ok}
        if r != 1.2:
            return cat, None
        chk = surfaces.modelcontrol_check(surfaces.get_surface("plane"), sol)
        ok = abs(chk["min_margin"]) <= 1e-4 * sol.lam
        return cat, {"surface": "plane", "p": p, "r": r, "lambda": sol.lam,
                     "r_star_flat": r, "min_margin": chk["min_margin"],
                     "margin_rel": chk["min_margin"] / sol.lam, "ok": ok}

    pairs = radial.fork_map(case, [(r, p) for r in (1.1, 1.2)
                                   for p in (2.0, 3.0)])
    cat_rows = [cat for cat, _ in pairs]
    pl_rows = [plane for _, plane in pairs if plane]
    rows = cat_rows + pl_rows
    checks = [row["ok"] for row in rows]
    detail = ("catenoid min margin %+.3f lambda (>= -1e-06); plane "
              "|margin| %.1e lambda (<= 1e-04)"
              % (min(r["margin_rel"] for r in cat_rows),
                 max(abs(r["margin_rel"]) for r in pl_rows)))
    return all(checks), detail, rows


def kazdan_eigen_stats(p, m, c, r, n):
    """sup |Psi - lambda| for v = -log(eigenfunction) on an interior window.

    The window keeps omega >= 0.35 max and t >= 0.04 r: v blows up at the
    Dirichlet boundary and the centered gradient loses an order at the
    pole, so the transform is compared where both stencils are clean.
    """
    problem = radial.ball_problem(p, m, c, r)
    sol = radial.solve_ball_eigenvalue(problem, n_grid=n)
    keep = sol.omega >= 0.01 * np.max(sol.omega)
    last = int(np.max(np.flatnonzero(keep)))
    nodes = sol.grid[:last + 1]
    v = bounds.kazdan_transform(sol.omega[:last + 1])
    psi = bounds.kazdan_source(v, problem, nodes)
    om_in, t_in = sol.omega[1:last], nodes[1:-1]
    window = (om_in >= 0.35 * np.max(sol.omega)) & (t_in >= 0.04 * r)
    vals = psi[window]
    return {"lambda": sol.lam, "inf": float(np.min(vals)),
            "sup": float(np.max(vals)),
            "sup_err": float(np.max(np.abs(vals - sol.lam))),
            "count": int(np.count_nonzero(window))}


def kazdan_quadratic_stats(p, m, c, r, n=2001):
    """inf/sup of Psi for the non-eigenfunction phi = 1 - t^2/r^2."""
    problem = radial.ball_problem(p, m, c, r)
    # Only lam is read, so the solve marches nothing; n_grid=n keeps the
    # check of n.  The nodes are the solution's grid, built directly.
    lam = radial.solve_ball_eigenvalue(problem, n_grid=n).lam
    grid = np.linspace(0.0, r, n)
    nodes = grid[grid <= 0.96 * r]
    phi = 1.0 - (nodes / r) ** 2
    v = bounds.kazdan_transform(phi)
    psi = bounds.kazdan_source(v, problem, nodes)
    window = nodes[1:-1] >= 0.04 * r
    return {"lambda": lam, "inf": float(np.min(psi[window])),
            "sup": float(np.max(psi[window]))}


@_criterion(13, "kazdan-kramer transform")
def criterion_13():
    """Kazdan--Kramer transform: Psi = lambda at the eigenfunction; the
    inf/sup sandwich for an arbitrary positive profile.

    One case per (p, m, c) shot: its n = 2000 and n = 4000 solves share
    it, and the sandwich, which reads the (2, 2, 0) shot, rides in that
    case.  The eigenfunction rows come first, then the sandwich."""
    def case(pmc):
        p, m, c = pmc
        coarse = kazdan_eigen_stats(p, m, c, 1.0, 2000)
        fine = kazdan_eigen_stats(p, m, c, 1.0, 4000)
        eigen = {"phi": "eigenfunction", "p": p, "m": m, "c": c, "r": 1.0,
                 "lambda": coarse["lambda"],
                 "sup_err_n2000": coarse["sup_err"],
                 "sup_err_n4000": fine["sup_err"],
                 "doubling_ratio": fine["sup_err"] / coarse["sup_err"]}
        if pmc != (2.0, 2, 0.0):
            return eigen, None
        quad = kazdan_quadratic_stats(p, m, c, 1.0)
        return eigen, {"phi": "1 - t^2/r^2", "p": p, "m": m, "c": c,
                       "r": 1.0, "lambda": quad["lambda"],
                       "inf_psi": quad["inf"], "sup_psi": quad["sup"]}

    pairs = radial.fork_map(case, [(2.0, 2, 0.0), (3.0, 2, 1.0),
                                   (1.5, 3, -1.0), (2.5, 1, 0.0)])
    eigen_rows = [eigen for eigen, _ in pairs]
    sandwich = next(quad for _, quad in pairs if quad)
    rows = eigen_rows + [sandwich]
    checks = [row["sup_err_n2000"] <= 1e-2 * row["lambda"]
              and row["doubling_ratio"] < 0.6 for row in eigen_rows]
    checks.append(sandwich["inf_psi"] <= sandwich["lambda"]
                  <= sandwich["sup_psi"])
    detail = ("max sup err %.1e lambda (tol 1e-02); worst doubling ratio "
              "%.2f (< 0.6); sandwich %.3f <= %.3f <= %.3f"
              % (max(r["sup_err_n2000"] / r["lambda"] for r in eigen_rows),
                 max(r["doubling_ratio"] for r in eigen_rows),
                 sandwich["inf_psi"], sandwich["lambda"],
                 sandwich["sup_psi"]))
    return all(checks), detail, rows


@_criterion(14, "stability arithmetic")
def criterion_14():
    """Cotangent-barrier fixtures, stability verdict tables, Q_p at the
    discrete minimizer."""
    rows, checks = [], []

    fix1 = bounds.theorem17_bound(3, 2.0, 0.0, 1.0, 0.0).value
    ref1 = 0.25
    fix2 = bounds.theorem17_bound(3, 3.0, -1.0, 1.0, 0.5).value
    ref2 = ((1.0 / math.tanh(1.0) - 0.5) / 3.0) ** 3
    checks += [abs(fix1 - ref1) <= 1e-10, abs(fix2 - ref2) <= 1e-10]
    rows.append({"check": "barrier m3 p2 flat", "value": fix1,
                 "reference": ref1, "abs_err": abs(fix1 - ref1)})
    rows.append({"check": "barrier m3 p3 hyperbolic h=0.5", "value": fix2,
                 "reference": ref2, "abs_err": abs(fix2 - ref2)})

    immersion_table = [
        # (sup ||A||^p, k, p, lambda_model, expected)
        (0.5, 1.0, 2.0, 1.0, True),     # 0.5 <= 1
        (2.0, 0.0, 2.0, 4.0, True),     # k ignored at p = 2
        (2.0, 0.0, 2.0, 1.5, False),    # 2 > 1.5
        (0.1, 0.0, 3.0, 10.0, False),   # k = 0, p > 2: threshold 0
        (1.0, 0.5, 3.0, 4.0, True),     # 1 <= 0.5 * 4
        (2.1, 0.5, 3.0, 4.0, False),    # 2.1 > 2
    ]
    for sup_a, k, p, lam, expected in immersion_table:
        got = bounds.stability_criterion_immersion(sup_a, k, p, lam)
        checks.append(got == expected)
        rows.append({"check": "immersion", "sup_A_p": sup_a, "k": k, "p": p,
                     "lambda_model": lam, "verdict": got,
                     "expected": expected})
    meancurv_table = [
        # (sup ||A||, m, p, r, expected): threshold (m-1)/(p r)
        (math.sqrt(2.0), 2, 2.0, 1.2, False),   # sqrt2 > 1/2.4
        (0.4, 2, 2.0, 1.2, True),               # 0.4 <= 0.41667
        (0.99, 3, 2.0, 1.0, True),              # 0.99 <= 1
        (1.01, 3, 2.0, 1.0, False),
    ]
    for a_sup, m, p, r, expected in meancurv_table:
        got = bounds.stability_criterion_meancurv(a_sup, m, p, r)
        checks.append(got == expected)
        rows.append({"check": "meancurv", "sup_A": a_sup, "m": m, "p": p,
                     "r": r, "verdict": got, "expected": expected})

    problem = radial.ball_problem(2.5, 2, 0.0, 1.0)
    grid = rayleigh.Grid1D.from_problem(problem, n=2000)
    res = rayleigh.minimize_rayleigh(grid, 2.5)
    lam_est = res["lambda_est"]
    potential = np.full(grid.n, lam_est)
    q_val = bounds.stability_functional(res["u_min"], potential, grid, 2.5)
    energy = rayleigh.p_energy(res["u_min"], grid, 2.5)
    checks.append(abs(q_val) <= 1e-3 * energy)
    rows.append({"check": "Q_p at minimizer", "p": 2.5, "m": 2,
                 "lambda_est": lam_est, "q_value": q_val,
                 "energy": energy, "q_over_energy": q_val / energy})

    detail = ("fixture errs %.1e/%.1e (tol 1e-10); verdict tables exact; "
              "|Q_p| = %.1e energy (tol 1e-03)"
              % (abs(fix1 - ref1), abs(fix2 - ref2),
                 abs(q_val) / energy))
    return all(checks), detail, rows


@_criterion(15, "harness determinism")
def criterion_15():
    """Harness determinism: the sweep battery emits byte-identical CSV.

    The two emissions are the two items of one `radial.fork_map`, so on
    two CPUs they run side by side.  Each is cold: it clears the cache of
    the process that runs it, and its rows run there in one loop (a map
    inside a map forks nothing).  Each clears the cache again when it is
    done, so a child sends no records home: they serve only this check.
    """
    from . import cli

    def battery(_):
        radial.clear_solver_cache()
        # The r* rows first: their scan's recording march also builds the
        # grid that three sweep rows read, where the other order marches
        # those grids twice.  The CSV keeps the sweep rows first.
        rstar = cli.rstar_rows([(2.0, 2, -1.0, 1.0), (2.0, 2, 0.0, 1.0),
                                (2.0, 2, 1.0, 1.4), (3.0, 2, -1.0, 1.0)])
        rows = cli.sweep_rows([(p, 2, c, 1.0) for p in (2.0, 3.0)
                               for c in (-1.0, 0.0, 1.0)])
        radial.clear_solver_cache()
        return cli.format_csv(None, rows + rstar)

    first, second = radial.fork_map(battery, ["first", "second"])
    identical = first == second
    rows = [{"check": "csv bodies identical", "bytes": len(first),
             "identical": identical}]
    detail = "two battery emissions: %d bytes, identical: %s" % (
        len(first), identical)
    return identical, detail, rows


def run_all(name_filter=None):
    """Run the registry (optionally filtered by substring) in order.

    Clears the solver cache first so reported runtimes are genuine.
    Returns the list of CriterionResult.
    """
    radial.clear_solver_cache()
    results = []
    for num, name, fn in REGISTRY:
        if name_filter and name_filter not in name and \
                name_filter != str(num):
            continue
        results.append(fn())
    return results
