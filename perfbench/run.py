"""Closed-loop benchmark of the tropgroups CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload analyze|roundtrip|closure \
        [--seed N] [--seconds S] [--trace 0|1]

One client sends CLI requests one after another, in process, through
``tropgroups.cli.main(argv)`` with stdout captured.  Requests come in
whole rounds (one pass over the workload's inputs) until ``--seconds``
have passed.  Afterwards every report is checked against computations
made apart from the program (``oracles.py``), and the last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer metrics with ``--trace 1``.

The host is shared and its speed swings: identical rounds of requests in
one process took from 0.83 s to 1.66 s, in phases lasting minutes, with
CPU time tracking wall time.  So between requests (and between set-ups)
the benchmark times a fixed pure-Python reference loop that uses nothing
of the program, and scales each request's time by REFERENCE_S over the
mean of the reference times just before and just after it.  End-to-end
times are thus in seconds of a host on which the reference loop takes
REFERENCE_S; the raw times are kept in the summary file beside them.  A
change to the program cannot move the reference loop, so it moves the
scaled times as much as the raw ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 11
MIN_SAMPLES = 100
DEFAULT_SEED = 1
REFERENCE_S = 0.001


def reference_work():
    """Fixed interpreter work, about a millisecond: exact fractions, tuples,
    dicts and small sorts, the operations the program spends its time on."""
    acc, table = Fraction(0), {}
    for i in range(1, 200):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        item = (i, acc, i * 3)
        table[i % 50] = sorted((item[2], i % 11, -i))
    return acc


def reference_time():
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def reference_speed(samples=5):
    return statistics.median(reference_time() for _ in range(samples))


def scale(times, refs):
    """Each time scaled by the mean of the reference times taken just
    before and just after it (refs has one more entry than times)."""
    return [t * 2 * REFERENCE_S / (a + b) for t, a, b in zip(times, refs, refs[1:])]


# One set-up in a fresh interpreter: import the program and write the
# seeded inputs.  argv: src dir, benchmark dir, workload, seed, work dir.
SETUP_CHILD = """
import os, sys
src, here, workload, seed, workdir = sys.argv[1:]
sys.path[:0] = [src, here]
import tropgroups, tropgroups.cli, workloads
os.makedirs(workdir)
workloads.build(workload, int(seed), workdir, tropgroups)
"""


def setup(workload, seed, workdir):
    """Time SETUP_REPEATS set-ups, each in a fresh child process from
    spawn to exit, so interpreter start and every import the program makes
    are counted; then set up once more in this process, untimed, for the
    timed run.  Returns that set-up's requests and the median set-up time,
    scaled and raw."""
    times, refs = [], [reference_speed()]
    for rep in range(SETUP_REPEATS):
        argv = [sys.executable, "-c", SETUP_CHILD, SRC, HERE, workload, str(seed),
                os.path.join(workdir, f"setup{rep}")]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited {proc.returncode}: {proc.stderr[-2000:]}")
        refs.append(reference_speed())
    import tropgroups.cli  # noqa: F401  (main() calls it from sys.modules)

    rundir = os.path.join(workdir, "run")
    os.makedirs(rundir)
    reqs = workloads.build(workload, seed, rundir, tropgroups)
    return reqs, statistics.median(scale(times, refs)), statistics.median(times)


def call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit):  # a crash fails the request, not the run
            err.write(traceback.format_exc())
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def timed_loop(cli, reqs, seconds, tracer=None):
    """Whole rounds until `seconds` have passed and at least MIN_SAMPLES
    requests are done.  Returns raw and scaled
    latencies, failures, first-round outputs, any output that changed and
    the number of rounds."""
    latencies, scaled, failures, first, changed = [], [], [], [], []
    t_start = time.perf_counter()
    rounds = 0
    while True:
        refs, raw = [reference_time()], []
        for k, req in enumerate(reqs):
            if tracer is not None:
                tracer.begin_request(len(latencies) + len(raw))
            t0 = time.perf_counter()
            rc, out, err = call(cli, req["argv"])
            raw.append(time.perf_counter() - t0)
            refs.append(reference_time())
            if rc != 0:
                failures.append((req["argv"], rc, err[-500:]))
            if rounds == 0:
                first.append((rc, out))
            elif out != first[k][1]:
                changed.append(req["argv"])
        rounds += 1
        latencies += raw
        scaled += scale(raw, refs)
        if tracer is not None:
            tracer.end_round()
        if time.perf_counter() - t_start >= seconds and len(latencies) >= MIN_SAMPLES:
            break
    return latencies, scaled, failures, first, changed, rounds


def end_to_end(latencies, setup_s):
    """Requests per second of request time, with the latencies' median and
    90th percentile (at least ten samples lie beyond it: a run makes
    MIN_SAMPLES or more requests)."""
    ms = sorted(x * 1000.0 for x in latencies)
    return {
        "setup_s": (setup_s, "s"),
        "req_per_s": (len(ms) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "tropgroups", "cli.py")) or not os.path.isfile(spec_path):
        print(f"error: no tropgroups source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    try:
        reqs, setup_s, setup_raw = setup(args.workload, args.seed, workdir)
        cli = sys.modules["tropgroups.cli"]
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        try:
            t0 = time.perf_counter()
            latencies, scaled, failures, first, changed, rounds = timed_loop(cli, reqs, seconds, tracer)
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        e2e = end_to_end(scaled, setup_s)
        raw = end_to_end(latencies, setup_raw)

        import checks

        problems = checks.check_round(reqs, first)
        problems += [f"output changed between rounds: {' '.join(a)}" for a in changed]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        metrics = {m["name"]: (tracer.metric_value(m["name"]), m["unit"]) for m in spec["per_layer"]}
    else:
        metrics = e2e
    for argv_, rc, err in failures[:5]:
        print(f"failed (exit {rc}): {' '.join(argv_)}: {err.strip()}", file=sys.stderr)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "requests_per_round": len(reqs), "samples": len(latencies),
        "wall_s": wall, "problems": problems,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "end_to_end_raw": {k: v for k, (v, _) in raw.items()},
    }
    if tracer is not None:
        tracer.write(os.path.join(OUT, f"{tag}.spans.jsonl"))
        summary["per_layer"] = {k: v for k, (v, _) in metrics.items()}
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)

    print(f"# {args.workload} seed {args.seed}: {rounds} rounds x {len(reqs)} requests = "
          f"{len(latencies)} samples in {wall:.2f} s")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    result = {
        "correct": not problems,
        "attempted": len(latencies),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
