"""Outside-in tracing: spans around calls into each ptone layer.

The program itself records nothing, so the traced run wraps the public
functions of every layer from here.  A function imported by name into
another module (``surfaces`` imports ``solve_ball_eigenvalue``) is
wrapped in every namespace that holds it, or calls through that name
would be missed.

A span is ``(id, name, start, end, parent, thread, info)``.  The parent
is the innermost open span on the same thread, so spans opened on pool
threads start their own trees; per-layer times are therefore taken as
the union of span intervals across threads (wall time during which some
thread was inside the layer), never as a sum that counts two threads
twice.
"""

import itertools
import threading
import time

import numpy as np

from ptone import acceptance, bounds, cli, critical, modelspace, radial, \
    rayleigh, surfaces

MODULES = (acceptance, bounds, cli, critical, modelspace, radial, rayleigh,
           surfaces)


def _evaluate_info(args, kwargs, result):
    return {"nodes": int(np.size(args[1]))}


def _init_info(args, kwargs, result):
    return {"iterations": args[0].iterations}


def _rayleigh_info(args, kwargs, result):
    return {"iterations": int(result["iterations"])}


#: (span name, owner, attribute, info) of every wrapped entry point.
TARGETS = (
    ("radial.solve", radial, "solve_ball_eigenvalue", None),
    ("radial.solve", radial, "solve_annulus_eigenvalue", None),
    ("radial.solution_init", radial.RadialSolution, "__init__", _init_info),
    ("radial.evaluate", radial.RadialSolution, "evaluate", _evaluate_info),
    ("radial.residual", radial, "eigen_equation_residual", None),
    ("modelspace.eval", modelspace.WarpingProfile, "eval", None),
    ("rayleigh.minimize", rayleigh, "minimize_rayleigh", _rayleigh_info),
    ("bounds.certificate", bounds, "barta_bound", None),
    ("bounds.certificate", bounds, "transplant_barta_certificate", None),
    ("bounds.certificate", bounds, "div_field_bound", None),
    ("critical.r_star", critical, "compute_r_star", None),
    ("surfaces.route_agreement", surfaces, "route_agreement", None),
    ("surfaces.modelcontrol", surfaces, "modelcontrol_check", None),
    ("surfaces.transplant", surfaces, "transplant", None),
    ("cli.rows", cli, "eig_rows", None),
    ("cli.rows", cli, "rstar_rows", None),
    ("cli.rows", cli, "barta_rows", None),
    ("cli.rows", cli, "sweep_rows", None),
    ("cli.rows", cli, "compare_rows", None),
)


class Tracer:
    """Collects spans in memory; ``install`` wraps, ``uninstall`` undoes."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo = []

    def _wrap(self, name, fn, info):
        # list.append and next(count) are single calls into C, atomic
        # under the interpreter lock, so pool threads need no extra lock
        spans, ids, local = self.spans, self._ids, self._local

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result, done = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, name, start, end, parent,
                              threading.get_ident(),
                              info(args, kwargs, result)
                              if info and done else None))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        for name, owner, attr, info in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, info)
            homes = [owner] + [mod for mod in MODULES if mod is not owner]
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is original:
                        self._undo.append((home, key, value))
                        setattr(home, key, wrapper)

    def uninstall(self):
        for home, key, value in reversed(self._undo):
            setattr(home, key, value)
        self._undo = []


# -- span arithmetic ---------------------------------------------------------


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanIndex:
    """Parent/child lookups over a list of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.children = {}
        for s in spans:
            if s[4] is not None:
                self.children.setdefault(s[4], []).append(s)

    def named(self, name):
        return [s for s in self.spans if s[1] == name]

    def busy(self, name):
        """Wall seconds during which some thread was inside ``name``."""
        return _union_length((s[2], s[3]) for s in self.named(name))

    def self_busy(self, name):
        """Like ``busy``, with each span's child spans cut out."""
        pieces = []
        for s in self.named(name):
            cursor = s[2]
            for child in sorted(self.children.get(s[0], ()),
                                key=lambda c: c[2]):
                pieces.append((cursor, child[2]))
                cursor = child[3]
            pieces.append((cursor, s[3]))
        return _union_length(p for p in pieces if p[1] > p[0])

    def descendants(self, span):
        out, todo = [], list(self.children.get(span[0], ()))
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(self.children.get(s[0], ()))
        return out

    def nodes_under(self, name):
        """``radial.evaluate`` nodes requested inside ``name`` spans."""
        return sum(d[6]["nodes"] for s in self.named(name)
                   for d in self.descendants(s)
                   if d[1] == "radial.evaluate" and d[6])


def layer_metrics(spans, passes):
    """Per-layer figures per pass, from the spans of ``passes`` passes."""
    idx = SpanIndex(spans)
    solves = idx.named("radial.solve")
    # spans of calls that raised carry no info
    inits = [s for s in idx.named("radial.solution_init") if s[6]]
    evaluates = [s for s in idx.named("radial.evaluate") if s[6]]
    minimizes = [s for s in idx.named("rayleigh.minimize") if s[6]]
    scans = idx.named("critical.r_star")
    m = {
        "radial.solve.calls": len(solves) / passes,
        "radial.solve.computed": len(inits) / passes,
        "radial.cache.hit_ratio":
            1.0 - len(inits) / len(solves) if solves else 0.0,
        "radial.bisect_steps_per_solve":
            sum(s[6]["iterations"] for s in inits) / len(inits)
            if inits else 0.0,
        "radial.shoot.self_s": idx.self_busy("radial.solve") / passes,
        "radial.solution_init.s": idx.busy("radial.solution_init") / passes,
        "radial.evaluate.calls": len(evaluates) / passes,
        "radial.evaluate.nodes":
            sum(s[6]["nodes"] for s in evaluates) / passes,
        "radial.evaluate.s": idx.busy("radial.evaluate") / passes,
        "radial.residual.s": idx.busy("radial.residual") / passes,
        "modelspace.eval.s": idx.busy("modelspace.eval") / passes,
        "rayleigh.minimize.calls": len(minimizes) / passes,
        "rayleigh.minimize.s": idx.busy("rayleigh.minimize") / passes,
        "rayleigh.iterations_per_call":
            sum(s[6]["iterations"] for s in minimizes) / len(minimizes)
            if minimizes else 0.0,
        "bounds.certificate.calls":
            len(idx.named("bounds.certificate")) / passes,
        "bounds.certificate.s": idx.busy("bounds.certificate") / passes,
        "critical.r_star.calls": len(scans) / passes,
        "critical.r_star.self_s": idx.self_busy("critical.r_star") / passes,
        "critical.nodes_per_scan":
            idx.nodes_under("critical.r_star") / len(scans) if scans else 0.0,
        "surfaces.route_agreement.s":
            idx.busy("surfaces.route_agreement") / passes,
        "surfaces.modelcontrol.s": idx.busy("surfaces.modelcontrol") / passes,
        "surfaces.transplant.nodes":
            idx.nodes_under("surfaces.transplant") / passes,
    }
    m.update(_pool_metrics(idx, passes))
    return m


def _pool_metrics(idx, passes):
    """Row-builder time, pool width and thread overlap.

    The overlap is the summed duration of the top-level work spans run
    for a row builder -- its direct children on its own thread plus the
    root spans other threads open during it -- over the builder's wall
    time.  Above 1, threads ran at once; with GIL-bound work that is
    contention, not speed.
    """
    builders = idx.named("cli.rows")
    roots = [s for s in idx.spans if s[4] is None]
    workers, work, wall = 0, 0.0, 0.0
    for b in builders:
        _, _, start, end, _, thread, _ = b
        pool = [s for s in roots
                if s[5] != thread and start <= s[2] and s[3] <= end]
        workers = max(workers, len({s[5] for s in pool}))
        work += sum(s[3] - s[2] for s in pool)
        work += sum(s[3] - s[2] for s in idx.children.get(b[0], ()))
        wall += end - start
    return {
        "cli.pool_workers": float(workers),
        "cli.rows.s": _union_length((b[2], b[3]) for b in builders) / passes,
        "cli.pool.overlap": work / wall if wall else 0.0,
    }
