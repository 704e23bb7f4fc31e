#!/usr/bin/env python3
"""Calibrate crac_bench: run every workload on several seeds and record the
spread of each end-to-end metric.

    python3 bench/e2e/calibrate.py                      # seeds 1-5 -> calibration.json
    python3 bench/e2e/calibrate.py --seeds 1-10 --out /tmp/spread.json
    python3 bench/e2e/calibrate.py --seeds 1-3 --sets 2 # two sets, order alternated

For each (workload, metric) it records the values, their median and
quartiles (statistics.quantiles, n=4) and the relative IQR, (q3 - q1) /
median. The suggested regression bound of a metric is three times its
largest relative IQR over the workloads (and sets), at least 10% and at
most 25%, so that run-to-run spread stays under a third of the bound;
setup_s always gets the largest bound, 25%. BENCHMARK.json declares these,
rounded up to the next percent. With --sets 2 the seeds run twice, the
second time in reverse order, and each median of the second set must be
within the declared bound of the first, either way.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["interpose", "ckpt-file", "migrate", "registry"]
MIN_BOUND, MAX_BOUND = 0.10, 0.25


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d): %s" %
                           (workload, seed, out.returncode, out.stderr[-2000:]))
    result = json.loads(lines[-1])
    print("  %-10s seed %-3d %5.1f s  attempted %4d failed %3d  correct %s" %
          (workload, seed, time.monotonic() - t0, result["attempted"], result["failed"],
           result["correct"]), flush=True)
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "iqr_rel": (q3 - q1) / med if med else float("inf")}


def run_set(workloads, seeds, seconds, reverse):
    results = {w: [] for w in workloads}
    order = [(w, s) for s in seeds for w in workloads]
    for w, s in (reversed(order) if reverse else order):
        results[w].append(run_once(w, s, seconds))
    return results


def summarize(results):
    summary = {}
    for w, runs in results.items():
        metrics = sorted(runs[0]["metrics"])
        summary[w] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "metrics": {m: spread([r["metrics"][m]["value"] for r in runs]) for m in metrics},
        }
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--out", default=os.path.join(HERE, "calibration.json"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    seeds = seed_list(args.seeds)

    sets = []
    for i in range(args.sets):
        print("set %d: seeds %s, %g s per run%s" % (i + 1, seeds, seconds,
                                                     ", reverse order" if i else ""))
        sets.append(summarize(run_set(WORKLOADS, seeds, seconds, reverse=i == 1)))

    first = sets[0]
    bounds = {}
    for m in first[WORKLOADS[0]]["metrics"]:
        worst = max(s[w]["metrics"][m]["iqr_rel"] for s in sets for w in WORKLOADS)
        bounds[m] = MAX_BOUND if m == "setup_s" else min(MAX_BOUND, max(MIN_BOUND, 3 * worst))

    print("\n%-10s %-18s %12s %9s  %s" % ("workload", "metric", "median", "IQR/med", "bound"))
    declared = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in WORKLOADS:
        for m, s in first[w]["metrics"].items():
            print("%-10s %-18s %12.4g %8.2f%%  %.0f%% (declared %.0f%%)" %
                  (w, m, s["median"], 100 * s["iqr_rel"], 100 * bounds[m],
                   100 * declared.get(m, float("nan"))))

    drift_ok = True
    if len(sets) == 2:
        print("\nset 2 vs set 1 (median drift, either way, against the declared bound):")
        for w in WORKLOADS:
            for m, s in first[w]["metrics"].items():
                drift = sets[1][w]["metrics"][m]["median"] / s["median"] - 1
                ok = abs(drift) <= declared.get(m, 0)
                drift_ok &= ok
                print("  %-10s %-18s %+7.2f%%  %s" % (w, m, 100 * drift, "ok" if ok else "OUTSIDE"))

    record = {
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "system": platform.system(), "release": platform.release(),
                 "python": platform.python_version()},
        "seconds": seconds,
        "seeds": seeds,
        "sets": sets,
        "suggested_bounds": bounds,
    }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
    print("\nwrote %s" % args.out)
    return 0 if drift_ok else 1


if __name__ == "__main__":
    sys.exit(main())
