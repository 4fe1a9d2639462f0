"""gradedlie benchmark runner.

    python3 bench/run.py --workload {betti-sweep,triple-grid,massey-ladder}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from its
``src`` directory.  Each workload run is a fresh worker process (cold
caches, as for one CLI call) that performs the workload's op list one call
at a time, checks every answer against an oracle and reports back.  The
runner first spawns set-up-only workers, then repeats the op list while the
time budget allows, and reports medians.

With ``--trace 0`` the final stdout line carries the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced workers and carries the
per-layer metrics, including the tracing overhead.  Lines before it give a
readable table with units and sample counts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("betti-sweep", "triple-grid", "massey-ladder")
SETUP_SPAWNS = 7          # set-up-only workers per run, after one warm-up spawn
HARD_LIMIT_S = 150.0      # every worker of a run must end this long after the start
KILL_GRACE_S = 10.0       # extra time before a worker that ignores its deadline is killed

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("decided_ratio", "ratio", "higher"),
)


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bits_max"):
        return "bits"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def spawn(args, mode, start):
    """Run one worker to completion and return its JSON summary."""
    deadline = HARD_LIMIT_S - (now() - start)
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--spawned-at", repr(now()), "--deadline", f"{deadline:.3f}"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline, 0) + KILL_GRACE_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"worker ({mode}) did not stop at its deadline and was killed")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"worker ({mode}) failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def measure(args):
    """Spawn set-up workers, then op-list workers while the budget allows."""
    start = now()
    spawn(args, "setup", start)   # warm-up: the first import may write bytecode
    setups = [spawn(args, "setup", start) for _ in range(SETUP_SPAWNS)]
    modes = ("plain", "traced") if args.trace else ("plain",)
    reps = {m: [] for m in modes}
    longest = {m: 0.0 for m in modes}
    turn = 0
    while True:
        mode = modes[turn % len(modes)]
        first_round = turn < len(modes)
        if not first_round and now() - start + longest[mode] > args.seconds:
            break
        t0 = now()
        reps[mode].append(spawn(args, mode, start))
        longest[mode] = max(longest[mode], now() - t0)
        turn += 1
    return setups + reps["plain"], reps


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def op_latencies(workers, key="latencies"):
    """Each op's median latency over the workers that ran the op list."""
    return [statistics.median(times) for times in zip(*(r[key] for r in workers))]


def end_to_end(setups, plain):
    op_ms = [x * 1e3 for x in op_latencies(plain)]
    ops = sum(r["ops"] for r in plain)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "wall_s": sum(op_ms) / 1e3,
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": percentile(op_ms, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "decided_ratio": sum(r["decided"] for r in plain) / ops,
    }
    samples = {"setup_s": len(setups), "wall_s": len(op_ms), "op_p50_ms": len(op_ms),
               "op_p90_ms": len(op_ms), "peak_rss_mb": len(plain), "decided_ratio": ops}
    units = {name: unit for name, unit, _ in END_TO_END}
    return metrics, samples, units


def per_layer(plain, traced):
    # counts repeat exactly from worker to worker; times are medians
    metrics = {n: statistics.median(r["layers"][n] for r in traced) if layer_unit(n) == "s"
               else traced[0]["layers"][n] for n in traced[0]["layers"]}
    for rung in tracer.RUNGS:
        metrics[f"massey.rung.{rung}.count"] = plain[0]["rung_count"].get(rung, 0)
        metrics[f"massey.rung.{rung}.s"] = statistics.median(
            r["rung_s"].get(rung, 0.0) for r in plain)
    metrics["trace.overhead_s"] = sum(op_latencies(traced)) - sum(op_latencies(plain))
    samples = dict.fromkeys(metrics, len(traced))
    for name in metrics:
        if name.startswith("massey.rung.") or name == "trace.overhead_s":
            samples[name] = len(plain)
    return metrics, samples, {n: layer_unit(n) for n in metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "gradedlie", "__init__.py")):
        sys.exit(f"no gradedlie sources under {os.path.join(ROOT, 'src')}; "
                 "run from a source checkout")

    setups, reps = measure(args)
    plain = reps["plain"]
    every = plain + reps.get("traced", [])
    attempted = sum(r["ops"] for r in every)
    failed = sum(r["errors"] for r in every)
    if args.trace:
        metrics, samples, units = per_layer(plain, reps["traced"])
    else:
        metrics, samples, units = end_to_end(setups, plain)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} untraced and {len(reps.get('traced', []))} traced workers, "
          f"{len(setups)} set-ups; times at reference speed, op latencies are "
          f"medians over the untraced workers")
    print(f"# as measured: wall_s {sum(op_latencies(plain, 'raw_latencies')):.4f} s, "
          f"setup_s {statistics.median(r['raw_setup_s'] for r in setups):.4f} s")
    print(f"# error_rate = {failed / attempted:.6f} ({failed} errors in {attempted} ops)")
    for problem in [p for r in every for p in r["problems"]][:20]:
        print(f"#   {problem}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]:6s} n={samples[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
