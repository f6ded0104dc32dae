"""Repeat ``run.py`` over seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workloads sweep,warped,selftest \
        --seeds 1-10 --trace 0 --out perfbench/BENCH_0_baseline.json

Each run is a fresh process with the ``run_seconds`` of BENCHMARK.json.
For every workload and metric the summary gives the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the quartile
spread as a share of the median, next to the metric's bound; a spread
above a third of its bound is flagged.  The output file keeps every
run's result line, so two files (before and after a change) can be
compared run by run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text):
    if "-" in text:
        first, last = (int(x) for x in text.split("-"))
        return list(range(first, last + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    env = json.loads(lines[0].split(":", 1)[1])
    return json.loads(lines[-1]), env


def summarise(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    out = {"median": median, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / median if median else 0.0}
    if bound is not None:
        out["bound"] = bound
        out["steady"] = out["spread"] < bound / 3.0
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the runs and summary here")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in
              spec["end_to_end" if args.trace == 0 else "per_layer"]}
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            result, env = run_once(workload, seed, seconds, args.trace)
            runs.append({"seed": seed, "result": result})
            print("%s seed %d: correct=%s failed=%d/%d %s" % (
                workload, seed, result["correct"], result["failed"],
                result["attempted"],
                " ".join("%s=%.6g" % (k, v["value"]) for k, v in
                         sorted(result["metrics"].items())
                         if bounds.get(k) is not None)), flush=True)
        report["environment"] = env
        summary = {}
        for name, bound in sorted(bounds.items()):
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = summarise(values, bound)
            summary[name]["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            s = summary[name]
            print("  %-34s median %-12.6g spread %.4f%s" % (
                name, s["median"], s["spread"],
                "" if bound is None else "  bound %.2f %s" % (
                    bound, "ok" if s["steady"] else "WIDE")), flush=True)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
