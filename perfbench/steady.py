"""Steadiness check of the benchmark itself.

Usage (from the root of a checkout):

    python3 perfbench/steady.py

Runs two sets of ten runs per workload of BENCHMARK.json, one seed per
run (set k uses seeds 100*k+1 ... 100*k+10), one after another, each of
run_seconds.  For every workload and end-to-end metric it prints each
set's median and quartile spread (distance between the first and third
quartile over the median) and whether, per BENCHMARK.json, the spread
stays within the metric's bound (setup_s excepted) and the two sets'
medians differ by no more than the bound, in either direction.  Every
run must be correct (a failed request is a failed check).

The trace check runs each workload traced three times on one seed: twice
with PYTHONHASHSEED=0 and once with PYTHONHASHSEED=1.  Every count metric
must read the same in all three.

Exit status 0 when everything holds, 1 otherwise.  A summary is written
to perfbench/out/steady.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2
TRACE_SECONDS = 1  # counts are the first round's; the run length does not matter


def run_once(workload, seed, seconds, trace, hashseed=None):
    env = dict(os.environ)
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(better, first, last):
    """How much worse `last` is than `first`, as a share of `first`."""
    change = (last - first) / first
    return -change if better == "higher" else change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    ok = True
    summary = {"runs": RUNS, "sets": SETS, "workloads": {}}

    for wl in workloads:
        sets = []
        for k in range(SETS):
            results = []
            for i in range(RUNS):
                res = run_once(wl, 100 * k + i + 1, spec["run_seconds"], 0)
                results.append(res)
                print(f"{wl} set {k} seed {100 * k + i + 1}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} "
                      + " ".join(f"{n}={m['value']:.4g}" for n, m in res["metrics"].items()),
                      flush=True)
            sets.append(results)
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = [[r["metrics"][name]["value"] for r in s] for s in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            drift = worse_by(metric["better"], meds[0], meds[-1])
            spread_ok = name == "setup_s" or max(spreads) <= bound
            good = spread_ok and abs(meds[-1] - meds[0]) / meds[0] <= bound
            ok &= good
            rows[name] = {"medians": meds, "spreads": spreads, "bound": bound,
                          "worse_by": drift, "ok": good}
            print(f"  {wl:9s} {name:15s} medians " + " ".join(f"{m:10.4f}" for m in meds)
                  + "  spreads " + " ".join(f"{s:6.3f}" for s in spreads)
                  + f"  bound {bound:.2f}  worse_by {drift:+.3f}  {'ok' if good else 'FAIL'}"
                  + ("  (spread below a third of the bound)" if max(spreads) < bound / 3 else ""))
        correct = all(r["correct"] for s in sets for r in s)
        ok &= correct
        print(f"  {wl:9s} correct={correct}")
        summary["workloads"][wl] = {"metrics": rows, "correct": correct}

    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for wl in workloads:
        runs = [run_once(wl, 1, TRACE_SECONDS, 1, hashseed=h) for h in (0, 0, 1)]
        diffs = [n for n in counts if len({r["metrics"][n]["value"] for r in runs}) > 1]
        ok &= not diffs
        print(f"  {wl:9s} traced counts identical across runs and hash seeds: "
              + ("yes" if not diffs else f"NO, differ in {diffs}"))
        summary["workloads"][wl]["trace_count_diffs"] = diffs
        summary["workloads"][wl]["trace_counts"] = {n: [r["metrics"][n]["value"] for r in runs]
                                                    for n in counts}

    summary["ok"] = ok
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
