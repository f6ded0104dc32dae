"""Benchmark of ptone: one workload per call, checked, one JSON result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; ``ptone`` is imported from its
``src/``.  ``--workload all`` runs every workload in one process.  With
``--trace 0`` the result carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it runs untraced passes for half
the time and traced passes for the other half, and carries the
per-layer metrics.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the lines above it
spell each metric out with its unit and sample count.  Full records
(samples, failures, environment, spans) go to ``.perfbench_out/``.
"""

import argparse
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
#: Set-up is measured this many times, in fresh interpreters.
SETUP_PROBES = 5


def import_program():
    """Import ptone from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "ptone" / "__init__.py").is_file():
        raise SystemExit("perfbench: no ptone sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import ptone

    if Path(ptone.__file__).resolve().parent != SRC / "ptone":
        raise SystemExit("perfbench: imported ptone from %s, not %s"
                         % (ptone.__file__, SRC))


def metric_units():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def setup_probe(name):
    """Child side of a set-up measurement: import, build inputs, report."""
    start = time.perf_counter()
    import_program()
    import workloads

    workloads.WORKLOADS[name](str(OUT_DIR))
    print(time.perf_counter() - start)


def setup_seconds(name):
    """Median set-up time over ``SETUP_PROBES`` fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--setup-probe", name],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def reference_kernel(steps=8000):
    """A fixed pure-Python RK4 march of y' = -y cos t, independent of ptone.

    Its run time tracks the host's speed, which on a shared machine drifts
    by tens of percent within minutes; pass times are reported in units
    of it (``ref``).
    """
    y, t, h = 1.0, 0.0, 1e-4
    for _ in range(steps):
        k1 = -y * math.cos(t)
        k2 = -(y + 0.5 * h * k1) * math.cos(t + 0.5 * h)
        k3 = -(y + 0.5 * h * k2) * math.cos(t + 0.5 * h)
        k4 = -(y + h * k3) * math.cos(t + h)
        y += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        t += h
    return y


class Speedometer:
    """Runs the reference kernel on the main thread every 0.1 s.

    A SIGALRM timer interleaves the kernel with the workload's own
    bytecode, so it samples the speed of the CPUs the workload runs on,
    all through the pass.  The kernel is timed in thread CPU seconds, so
    time spent waiting for the interpreter lock held by pool threads is
    not counted; that CPU time is taken out of the pass.
    """

    INTERVAL = 0.1

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0

    def _tick(self, signum, frame):
        start = time.thread_time()
        reference_kernel()
        self.seconds += time.thread_time() - start
        self.calls += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


class Sample:
    """One pass: wall and CPU seconds, the mean reference-kernel time
    ``ref`` while it ran, and the workload's outcome."""

    def __init__(self, wall, cpu, ref, outcome):
        self.wall, self.cpu, self.ref, self.outcome = wall, cpu, ref, outcome


def timed_passes(workload, rng, seconds):
    """Passes until ``seconds`` have elapsed (at least one), as Samples."""
    samples = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        with Speedometer() as meter:
            outcome = workload.run_pass(rng)
        wall = time.perf_counter() - t0 - meter.seconds
        cpu = cpu_seconds() - cpu0 - meter.seconds
        samples.append(Sample(wall, cpu, meter.seconds / max(meter.calls, 1),
                              outcome))
    return samples


def spread(values):
    """Median, plus the highest percentile with >= 10 samples beyond it."""
    values = sorted(values)
    n = len(values)
    text = "median %.6g, n=%d" % (statistics.median(values), n)
    if n >= 11:
        return text + ", p%.0f %.6g" % (100.0 * (n - 10) / n, values[n - 11])
    return text + ", too few samples for a percentile"


def end_to_end(samples, setup):
    """End-to-end metrics, and the report lines that spell them out.

    Pass times are in reference-kernel units (``ref``): pass seconds over
    the mean reference-kernel seconds sampled while the pass ran.
    """
    walls = [s.wall / s.ref for s in samples]
    cpus = [s.cpu / s.ref for s in samples]
    rates = [1000.0 * (s.outcome.attempted - len(s.outcome.failures)) / w
             for s, w in zip(samples, walls)]
    metrics = {
        "wall_ref": statistics.median(walls),
        "ops_per_kref": statistics.median(rates),
        "cpu_ref": statistics.median(cpus),
        "setup_s": setup[0],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "anchor_relerr_max": max(s.outcome.anchor_relerr for s in samples),
    }
    lines = {
        "wall_ref": spread(walls),
        "ops_per_kref": spread(rates),
        "cpu_ref": spread(cpus),
        "setup_s": spread(setup[1]),
        "raw wall_s": spread([s.wall for s in samples]),
        "raw cpu_s": spread([s.cpu for s in samples]),
        "raw ops_per_s": spread(
            [(s.outcome.attempted - len(s.outcome.failures)) / s.wall
             for s in samples]),
        "ref kernel ms": spread([1000.0 * s.ref for s in samples]),
    }
    return metrics, lines


def f_scalar_us(profile, calls=20000):
    """Microseconds per call of a profile's scalar evaluator (best of 5)."""
    f = profile.f_scalar
    ts = [0.001 * k for k in range(1, 1001)] * (calls // 1000)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for t in ts:
            f(t)
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best / len(ts)


def per_layer(untraced, traced, span_list):
    import spans
    from ptone import cli, modelspace

    metrics = spans.layer_metrics(span_list, len(traced))
    profiles = dict(cli.compare_profiles())
    metrics["modelspace.f_scalar_us.tabulated"] = f_scalar_us(
        profiles["tab-sinh"])
    metrics["modelspace.f_scalar_us.spaceform"] = f_scalar_us(
        modelspace.space_form(-1.0))
    for number in range(1, 16):
        runtimes = [s.outcome.runtimes[number] for s in untraced
                    if number in s.outcome.runtimes]
        metrics["acceptance.criterion_%02d.s" % number] = (
            statistics.median(runtimes) if runtimes else 0.0)
    metrics["trace.overhead_frac"] = (
        statistics.median(s.wall / s.ref for s in traced)
        / statistics.median(s.wall / s.ref for s in untraced) - 1.0)
    return metrics


def run_workload(name, seed, seconds, trace):
    """Run one workload; return (result dict, report lines, record)."""
    import spans
    import workloads

    e2e_units, layer_units = metric_units()
    start = time.perf_counter()
    workload = workloads.WORKLOADS[name](str(OUT_DIR))
    build_s = time.perf_counter() - start
    workload.prepare()
    rng = random.Random(seed)
    if trace:
        untraced = timed_passes(workload, rng, seconds / 2.0)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = timed_passes(workload, rng, seconds / 2.0)
        finally:
            tracer.uninstall()
        samples = untraced + traced
        metrics = per_layer(untraced, traced, tracer.spans)
        units, lines = layer_units, {}
        spans_path = OUT_DIR / ("spans-%s-seed%d.json" % (name, seed))
        extra = {"spans_file": spans_path.name}
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent",
                                  "thread", "info"],
                       "spans": tracer.spans}, fh)
    else:
        setup = setup_seconds(name)
        samples = timed_passes(workload, rng, seconds)
        metrics, lines = end_to_end(samples, setup)
        units = e2e_units
        extra = {"setup_probes_s": setup[1]}
    if set(metrics) != set(units):
        raise SystemExit("perfbench: metrics %s do not match BENCHMARK.json"
                         % sorted(set(metrics) ^ set(units)))

    outcomes = [s.outcome for s in samples]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(len(o.failures) for o in outcomes)
    failures = sorted({msg for o in outcomes for msg in o.failures.values()})
    unexpected = sorted({o.failures[k] for o in outcomes
                         for k in o.unexpected})
    result = {"correct": not unexpected, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in sorted(metrics.items())}}

    report = ["[%s] seed %d, %d pass(es), %s threads, trace %d"
              % (name, seed, len(samples), os.environ["PTONE_THREADS"],
                 trace)]
    for key, value in sorted(metrics.items()):
        report.append("[%s] %-36s %.6g %s  %s" % (
            name, key, value, units[key], lines.get(key, "")))
    report += ["[%s] (%s: %s)" % (name, key, text)
               for key, text in sorted(lines.items()) if key not in metrics]
    report.append("[%s] failed_frac %d/%d = %.4g" % (
        name, failed, attempted, failed / attempted))
    report += ["[%s] FAILED %s" % (name, msg) for msg in failures]
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "build_inputs_s": build_s,
              "walls_s": [s.wall for s in samples],
              "cpus_s": [s.cpu for s in samples],
              "ref_kernel_s": [s.ref for s in samples],
              "criterion_runtimes": [s.outcome.runtimes for s in samples],
              "failures": failures, "unexpected_failures": unexpected,
              "result": result, **extra}
    return result, report, record


def environment(seed):
    import numpy
    import scipy

    return {"seed": seed, "cpus": len(os.sched_getaffinity(0)),
            "PTONE_THREADS": os.environ["PTONE_THREADS"],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # The cli pool never runs more threads than this process may use.
    os.environ["PTONE_THREADS"] = str(len(os.sched_getaffinity(0)))
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    import_program()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)

    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    if names[0] not in workloads.WORKLOADS:
        parser.error("--workload must be one of %s or all"
                     % ", ".join(sorted(workloads.WORKLOADS)))

    env = environment(args.seed)
    print("perfbench environment: %s" % json.dumps(env, sort_keys=True))
    results = {}
    for name in names:
        result, report, record = run_workload(name, args.seed, args.seconds,
                                              args.trace)
        print("\n".join(report), flush=True)
        results[name] = result
        record["environment"] = env
        path = OUT_DIR / ("result-%s-seed%d-trace%d.json"
                          % (name, args.seed, args.trace))
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s.%s" % (name, k): v
                             for name, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
