"""One benchmark worker: a fresh process that sets up, runs one op list and
reports a JSON summary on its last stdout line.

    python3 bench/worker.py --workload NAME --seed N --mode {setup,plain,traced}
                            --spawned-at T --deadline SECONDS

``--spawned-at`` is the CLOCK_MONOTONIC reading taken by the parent just
before it started this process, so ``setup_s`` covers interpreter start,
the library import and ``load_preset``.  Ops still running or not started
when the deadline passes are reported as unfinished.

Other tenants of a shared machine slow every instruction stream down by up
to a factor of two, for seconds to minutes at a time.  So the worker times a
fixed calibration kernel, which does not touch the library, after every
``CAL_EVERY_S`` of op time, and reports each latency scaled by
``CAL_REF_S`` over the kernel time measured around it: seconds at the speed
at which the kernel takes ``CAL_REF_S``.  The raw figures are reported too.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

CAL_EVERY_S = 0.05     # op time between two calibration runs
CAL_REF_S = 0.0016     # kernel time at the reference speed (2-vCPU Xeon VM, CPython 3.11)


def calibration_kernel():
    """Fixed pure-Python work in the library's mix: Fractions, tuple-keyed
    dicts and growing integers.  Returns its run time."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    table = {}
    x = 1
    big = 3 ** 200
    for i in range(1, 200):
        acc += Fraction(i % 7 - 3, i % 11 + 1) * Fraction(i % 5 + 1, 3)
        key = (i % 17, i % 13, i % 7)
        table[key] = table.get(key, 0) + x
        x = (x * 6364136223846793005 + 1442695040888963407) & ((1 << 64) - 1)
        big = (big * (i + 12345) - x) // 7 + 3 ** 100
    return time.perf_counter() - t0


def reference_speed():
    """Scale factor to reference speed, from five kernel runs."""
    return CAL_REF_S / statistics.median(calibration_kernel() for _ in range(5))


class DeadlineExceeded(BaseException):
    """Raised from the alarm handler; a BaseException so no library handler catches it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--deadline", type=float, required=True)
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import gradedlie
    if os.path.dirname(os.path.dirname(os.path.abspath(gradedlie.__file__))) != SRC:
        sys.exit(f"gradedlie imported from {gradedlie.__file__}, not from {SRC}")
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.active = True
    import workloads
    algebras = workloads.load_algebras(args.workload)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    if tracer is not None:
        tracer.active = False
    raw_setup_s = setup_s
    setup_s *= reference_speed()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return

    ops = workloads.build(args.workload, args.seed, algebras)
    raw = []            # per-op latency, as measured
    scale = []          # per-op factor to reference speed
    rungs = []
    decided = wrong = 0
    problems = []
    last_cal = calibration_kernel()
    since_cal = 0.0
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(args.deadline, 0.001))
    try:
        for op in ops:
            value = exc = None
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                value = op.run()
            except Exception as caught:  # judged below; anything unexpected is an error
                exc = caught
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            verdict = op.judge(value, exc)
            raw.append(dt)
            rungs.append(verdict.rung)
            decided += verdict.decided
            if verdict.problems:
                wrong += 1
                problems += [f"{op.label}: {p}" for p in verdict.problems]
            since_cal += dt
            if since_cal >= CAL_EVERY_S:
                cal = calibration_kernel()
                scale += [2 * CAL_REF_S / (last_cal + cal)] * (len(raw) - len(scale))
                last_cal, since_cal = cal, 0.0
    except DeadlineExceeded:
        problems.append(f"deadline of {args.deadline:.0f}s passed with {len(ops) - len(raw)} "
                        f"of {len(ops)} ops unfinished")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.active = False
    cal = calibration_kernel()
    scale += [2 * CAL_REF_S / (last_cal + cal)] * (len(raw) - len(scale))
    latencies = [dt * f for dt, f in zip(raw, scale)]
    rung_count = Counter(r for r in rungs if r is not None)
    rung_s = defaultdict(float)
    for r, dt in zip(rungs, latencies):
        if r is not None:
            rung_s[r] += dt

    out = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "ops": len(ops),
        "finished": len(latencies),
        "latencies": latencies,
        "raw_latencies": raw,
        "decided": decided,
        "errors": len(ops) - len(latencies) + wrong,
        "problems": problems[:20],
        "rung_count": dict(rung_count),
        "rung_s": dict(rung_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        from tracer import layer_metrics
        # span times go to reference speed with the worker's overall factor
        out["layers"] = layer_metrics(tracer.records, tracer.cache_entries(),
                                      sum(latencies) / sum(raw) if raw else 1.0)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
