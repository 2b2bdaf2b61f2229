"""One fresh engine process of the benchmark.

    python3 bench/worker.py --probe
    python3 bench/worker.py --plan PLAN.json --out OUT.json [--spans FILE]

Imports ``kummer.cli`` from the ``src/`` beside the benchmark's directory and
prints ``ready`` once it is importable, so the parent can time set-up from
process start.  With ``--probe`` it stops there.  Otherwise it runs the
plan's entries through ``kummer.cli.main``, closed loop with one client, in
whole rounds of every entry once: at least the plan's rounds, and then until
a round ends after the plan's seconds are spent.  It writes each call's
seconds, exit code and report sha256, the first report of each entry, and
its own peak memory to OUT.  With ``--spans`` it installs the span recorder
first and writes the spans there.  Without it, it times the calibration
chunk four times a second through the run (calibrate.py), leaves that time
out of every call's seconds, counts the budget in reference seconds, writes
the chunk times to OUT, and reports any recorder wrapper still installed
after the loop, which fails the run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--plan")
    ap.add_argument("--out")
    ap.add_argument("--spans")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import kummer.cli

    if not os.path.abspath(kummer.cli.__file__).startswith(SRC + os.sep):
        print(f"kummer imported from {kummer.cli.__file__}, not {SRC}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    if args.probe:
        return 0

    # imported after "ready", so that set-up times only what the engine loads
    import resource

    import calibrate
    import spans

    with open(args.plan) as fh:
        plan = json.load(fh)
    recorder = None
    if args.spans:
        recorder = spans.Recorder()
        recorder.install()

    sampler = None
    clock, scale = time.perf_counter, lambda: 1.0
    if recorder is None:
        # the traced run reports per-layer wall times and needs no calibration
        sampler = calibrate.Sampler()
        clock, scale = sampler.engine_clock, sampler.speed
        sampler.install()
    try:
        calls, reports = run_loop(
            kummer.cli.main, plan["entries"], plan["seconds"], plan["min_rounds"], clock, scale
        )
    finally:
        if sampler is not None:
            sampler.uninstall()
    wall = sum(c[1] for c in calls)
    loop_wall = calls[-1][4] - (calls[0][4] - calls[0][1]) if calls else 0.0
    out = {
        "calls": calls,
        "reports": reports,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verdict_wall_s": wall,
        "loop_wall_s": loop_wall,
        "wrappers_after": spans.installed_wrappers() if recorder is None else [],
        "calibration": sampler.samples if sampler is not None else [],
        # the verdicts must not come from the reference's library
        "sympy_loaded": "sympy" in sys.modules,
    }
    if recorder is not None:
        recorder.uninstall()
        out["span_cost_s"] = recorder.per_span_cost()
        out["counters"] = dict(recorder.counters)
        with open(args.spans, "w") as fh:
            json.dump({"keys": recorder.keys, "spans": recorder.spans}, fh)
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


def run_loop(cli_main, entries, seconds, min_rounds=1, clock=time.perf_counter, scale=lambda: 1.0):
    """Closed loop: entry i+1 starts when entry i has returned.  Only whole
    rounds run, so every entry has the same number of calls: at least
    min_rounds, and then until a round ends after seconds.  Every time is read
    from clock; scale() turns it into the seconds the budget counts, which
    keeps the number of rounds the same whatever the machine's speed.
    Returns the
    calls as (entry index, seconds, exit code or error text, report sha256,
    clock at its end) and the first report of each entry."""
    import hashlib

    calls = []
    reports = {}
    start = clock()
    i = 0
    while i < min_rounds * len(entries) or i % len(entries) or (clock() - start) * scale() < seconds:
        k = i % len(entries)
        argv, report_path = entries[k]["argv"], entries[k]["report"]
        if os.path.exists(report_path):
            os.unlink(report_path)
        t0 = clock()
        try:
            rc = cli_main(argv)
        except (Exception, SystemExit) as exc:  # a failed input, not a failed run
            rc = f"{type(exc).__name__}: {exc}"
        t1 = clock()
        digest = None
        if os.path.exists(report_path):
            with open(report_path, "rb") as fh:
                data = fh.read()
            digest = hashlib.sha256(data).hexdigest()
            if k not in reports:
                reports[k] = json.loads(data)
        calls.append((k, t1 - t0, rc, digest, t1))
        i += 1
    return calls, reports


if __name__ == "__main__":
    sys.exit(main())
