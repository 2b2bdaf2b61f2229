"""Benchmark of kummer-verify: time to a checked verdict, end to end and per layer.

    python3 bench/run.py --workload cases|audits|rejects --seed N --seconds S --trace 0|1
    python3 bench/run.py --baseline

A run builds the workload's inputs from the seed, predicts every verdict with
the independent reference (sympy, outside the timed region), times set-up in
fresh processes, and then runs the inputs in one fresh engine process through
the public entry point ``kummer.cli.main``: closed loop, one client, one
thread.  Every report is checked against the prediction and hashed; a wrong
exit code, a wrong report, an exception or a report that differs between
repetitions of one input counts as failed.

``--trace 0`` prints the end-to-end metrics, every time in reference seconds:
wall seconds scaled by the machine's speed, which the engine process
measures on a fixed chunk of work (calibrate.py).  ``--trace 1`` wraps each
layer's public functions from outside the engine (spans.py) and prints the
per-layer metrics instead.  Both print every metric as a line first, and end
with one JSON line: correct, attempted, failed, metrics.

``--baseline`` runs each bundled case file and each bundled audit once in its
own fresh process, untraced and then traced, and prints the baseline table:
wall time per entry and the layers that take its time.

The engine is imported from ``src/`` next to this directory; the run writes
only under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 15  # before the inputs are built, and again after the engine run
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = (
    ("verdicts_per_s", "1/s"),
    ("verdict_s.p50", "s"),
    ("verdict_s.tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

LAYER_EXTRAS = (
    ("galois.primes_scanned", "count"),
    ("galois.certified_ratio", "ratio"),
    ("disjoint.disc_digits", "digits"),
    ("disjoint.budget_exceeded", "count"),
    ("disjoint.factored_ratio", "ratio"),
    ("groups.enumerations", "count"),
    ("groups.elements", "count"),
    ("groups.cayley_edges", "count"),
    ("groups.elements_per_s", "1/s"),
    ("groups.closure_s", "s"),
    ("cohomology.harvests", "count"),
    ("cohomology.harvested_edges", "count"),
    ("picard.models_built", "count"),
    ("picard.ambient_dim", "count"),
    ("picard.action_matrices", "count"),
    ("lattice.coords_calls", "count"),
    ("lattice.constructions", "count"),
    ("smith.snf_calls", "count"),
    ("smith.snf_entries", "count"),
    ("smith.solve_calls", "count"),
    ("trace.wall_s", "s"),
    ("trace.covered_share", "ratio"),
    ("trace.recorder_s", "s"),
    ("trace.spans", "count"),
)

PER_LAYER = tuple(
    (f"{layer}.{what}", unit)
    for layer in spans.LAYERS
    for what, unit in (("self_s", "s"), ("calls", "count"))
) + LAYER_EXTRAS


class BenchError(Exception):
    """The benchmark itself cannot run here."""


# ---------------------------------------------------------------------------
# inputs and their predicted verdicts


def factoring_fits(disc: int) -> bool:
    """Can the engine's squarefree kernel surely split disc within its budget?

    It trial-divides up to 10^5 and then needs Pollard rho, about sqrt(p)
    steps for a factor p, for every prime factor but the largest; a factor
    below 10^9 takes at most about 3 * 10^4 of its 4 * 10^5 steps."""
    big = sorted(p for p in reference.factorint(abs(disc)) if p > 10**5)
    return len(big) < 2 or big[-2] < 10**9


def wanted(workload: str, kind: str, expected) -> bool:
    if workload == "cases":
        return expected.exit_code == 0
    if expected.withheld_at != workloads.REJECT_STAGES[kind]:
        return False
    if kind == "large-quintic":
        # asserted only if the engine factors the discriminant: an exceeded
        # budget would withhold it, which the reference does not predict.
        # A shifted pair is withheld at linear_disjointness either way.
        return factoring_fits(expected.factors[0].discriminant)
    return True


def bundled_cases() -> list:
    out = []
    for name in workloads.BUNDLED_CASES:
        path = ROOT / "cases" / name
        expected = reference.expect_case(json.loads(path.read_text()))
        out.append({"id": name, "shape": "bundled", "file": str(path), "expect": expected})
    return out


def build_pool(workload: str, seed: int) -> list:
    """The workload's distinct inputs, each with its predicted verdict."""
    if workload == "audits":
        return [{"id": f"audit-{name}", "shape": "audit", "audit": name} for name in workloads.AUDITS]
    pool = bundled_cases() if workload == "cases" else []
    for slot in range(workloads.pool_size(workload)):
        for tries, (kind, case) in enumerate(workloads.candidates(workload, seed, slot)):
            if tries == 500:
                raise BenchError(f"no usable {kind} candidate for slot {slot}")
            try:
                expected = reference.expect_case(case)
            except reference.Unpredictable:
                continue
            if wanted(workload, kind, expected):
                pool.append({"id": f"{workload}-{slot:02d}", "shape": kind, "case": case, "expect": expected})
                break
    return pool


def write_plan(pool: list, run_dir: Path, seconds: float, min_rounds: int = 1) -> Path:
    (run_dir / "inputs").mkdir(parents=True)
    (run_dir / "reports").mkdir()
    entries = []
    for entry in pool:
        report = str(run_dir / "reports" / f"{entry['id']}.json")
        if "audit" in entry:
            argv = ["--audit", entry["audit"], "--report", report]
        else:
            path = entry.get("file")
            if path is None:
                path = str(run_dir / "inputs" / f"{entry['id']}.json")
                Path(path).write_text(json.dumps(entry["case"], indent=1))
            argv = ["--input", path, "--report", report]
        entries.append({"argv": argv, "report": report})
    plan = run_dir / "plan.json"
    plan.write_text(json.dumps({"entries": entries, "seconds": seconds, "min_rounds": min_rounds}))
    return plan


# ---------------------------------------------------------------------------
# engine processes


def worker_cmd(*args) -> list:
    # -S: the engine needs only the standard library, so the environment's
    # site-packages (their .pth hooks take most of a bare start) stay out of
    # set-up and out of the engine process
    return [sys.executable, "-S", str(WORKER), *map(str, args)]


def worker_env() -> dict:
    """The engine processes' environment: bytecode is cached under OUT
    whatever PYTHONDONTWRITEBYTECODE says, so set-up never includes compiling
    the engine."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def wait_ready(proc) -> None:
    line = proc.stdout.readline().strip()
    if line != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"engine process did not start (said {line!r})")


def started_s(cmd: list) -> float:
    """Seconds from starting cmd until it says it is ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env())
    try:
        wait_ready(proc)
        return time.perf_counter() - t0
    finally:
        proc.kill()
        proc.wait()


def setup_seconds(probes: int) -> list:
    """Per probe: (seconds from process start until kummer.cli is imported,
    seconds of a reference start just before it)."""
    reference_start = [sys.executable, "-S", "-c", calibrate.REFERENCE_START]
    out = []
    for _ in range(probes):
        ref_s = started_s(reference_start)
        out.append((started_s(worker_cmd("--probe")), ref_s))
    return out


def run_worker(plan: Path, run_dir: Path, trace: bool, deadline: float) -> dict:
    extra = ["--spans", run_dir / "spans.json"] if trace else []
    cmd = worker_cmd("--plan", plan, "--out", run_dir / "out.json", *extra)
    with open(run_dir / "stderr.txt", "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True, env=worker_env())
        try:
            wait_ready(proc)
            proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("engine process passed the run's time limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"engine process exited {proc.returncode}: {(run_dir / 'stderr.txt').read_text()[-2000:]}")
    result = json.loads((run_dir / "out.json").read_text())
    result["reports"] = {int(k): v for k, v in result["reports"].items()}
    if trace:
        result["spans"] = json.loads((run_dir / "spans.json").read_text())
    return result


# ---------------------------------------------------------------------------
# checking and metrics


def check_calls(pool: list, result: dict) -> list:
    """Per call: the list of its problems (empty when the verdict is right)."""
    verdict_problems = {}
    for k, entry in enumerate(pool):
        report = result["reports"].get(k)
        first = next((c for c in result["calls"] if c[0] == k), None)
        if first is None:
            continue
        rc = first[2]
        if "audit" in entry:
            verdict_problems[k] = reference.check_audit(report, rc, entry["audit"])
        else:
            verdict_problems[k] = reference.check_case(report, rc, entry["expect"])
    run_problems = []
    if result["wrappers_after"]:
        run_problems.append(f"recorder wrappers installed in an untraced run: {result['wrappers_after']}")
    if result["sympy_loaded"]:
        run_problems.append("the engine process imported sympy")
    first_digest = {}
    out = []
    for k, _, rc, digest, _ in result["calls"]:
        problems = verdict_problems[k] + run_problems
        if not isinstance(rc, int):
            problems.append(f"raised {rc}")
        first_digest.setdefault(k, digest)
        if digest != first_digest[k]:
            problems.append("report differs from the first repetition")
        out.append(problems)
    return out


def tail(values: list):
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it; the maximum (p100) when there are fewer than 11."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        return s[-1], 100, n
    return s[n - 11], math.floor(100 * (n - 10) / n), n


def end_to_end(result: dict, ok_calls: int, setup: list) -> dict:
    """Every time in reference seconds (calibrate.py); the wall-clock
    figures follow as lines of their own."""
    times = [c[1] for c in result["calls"]]
    ref = calibrate.reference_seconds([(c[1], c[4]) for c in result["calls"]], result["calibration"])
    value, pct, n = tail(ref)
    chunks = [s for _, s in result["calibration"]]
    return {
        "verdicts_per_s": (ok_calls / sum(ref), "1/s"),
        "verdict_s.p50": (statistics.median(ref), "s"),
        "verdict_s.tail": (value, "s", f"p{pct} of n={n}"),
        "setup_s": (
            statistics.median(p * calibrate.REF_START_S / b for p, b in setup),
            "s",
            f"median of {len(setup)} fresh processes",
        ),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "wall.verdicts_per_s": (ok_calls / result["loop_wall_s"], "1/s"),
        "wall.verdict_s.p50": (statistics.median(times), "s"),
        "wall.verdict_s.tail": (tail(times)[0], "s"),
        "wall.setup_s": (statistics.median(p for p, _ in setup), "s"),
        "machine.chunk_s": (calibrate.REF_CHUNK_S / calibrate.speed(chunks), "s", f"{len(chunks)} chunks"),
        "machine.start_s": (statistics.median(b for _, b in setup), "s", f"{len(setup)} reference starts"),
    }


def per_layer(result: dict) -> dict:
    keys = [tuple(k) for k in result["spans"]["keys"]]
    by_key = spans.self_times(result["spans"]["spans"])
    counters = result["counters"]
    layers = {layer: [0, 0.0] for layer in spans.LAYERS}
    named = {}
    for key, (calls, _, self_s) in by_key.items():
        layer, name = keys[key]
        layers[layer][0] += calls
        layers[layer][1] += self_s
        named[name] = (calls, self_s)

    def calls(name):
        return named.get(name, (0, 0.0))[0]

    def self_time(name):
        return named.get(name, (0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for layer, (n, self_s) in layers.items():
        out[f"{layer}.self_s"] = (self_s, "s")
        out[f"{layer}.calls"] = (n, "count")
    wall = result["verdict_wall_s"]
    n_spans = len(result["spans"]["spans"])
    extras = {name: counters.get(name, 0) for name, _ in LAYER_EXTRAS}
    extras.update(
        {
            "galois.certified_ratio": ratio(counters.get("galois.certified", 0), calls("certify_galois")),
            "disjoint.factored_ratio": ratio(counters.get("disjoint.factored", 0), calls("disc_class")),
            "groups.elements_per_s": ratio(extras["groups.elements"], self_time("FiniteGroup.enumerate")),
            "groups.closure_s": self_time("FiniteGroup.normal_closure"),
            "picard.action_matrices": calls("lattice_action_matrices"),
            "lattice.coords_calls": calls("Lattice.coords"),
            "lattice.constructions": calls("Lattice.__init__"),
            "smith.snf_calls": calls("_snf"),
            "smith.solve_calls": calls("RowSolver.solve"),
            "trace.wall_s": wall,
            "trace.covered_share": ratio(sum(s for _, s in layers.values()), wall),
            "trace.recorder_s": n_spans * result["span_cost_s"],
            "trace.spans": n_spans,
        }
    )
    for name, unit in LAYER_EXTRAS:
        out[name] = (extras[name], unit)
    return out


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "kummer").glob("*.py"))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# one run


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    run_dir = OUT / f"run-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup_seconds(1)  # untimed: byte-compiles the engine once
        setup = setup_seconds(SETUP_PROBES)
        pool = build_pool(workload, seed)
        plan = write_plan(pool, run_dir, seconds, workloads.MIN_ROUNDS[workload])
        result = run_worker(plan, run_dir, trace, deadline)
        setup += setup_seconds(SETUP_PROBES)
    finally:
        spans_file = run_dir / "spans.json"
        if spans_file.exists():
            spans_file.replace(OUT / f"spans-{workload}-seed{seed}.json")
        shutil.rmtree(run_dir, ignore_errors=True)
    problems = check_calls(pool, result)
    failed = sum(1 for p in problems if p)
    ok = len(problems) - failed
    metrics = per_layer(result) if trace else end_to_end(result, ok, setup)
    if not trace:
        metrics["failed_share"] = (failed / len(problems), "ratio", f"{failed}/{len(problems)}")
    entries = []
    for k, entry in enumerate(pool):
        mine = [c for c in result["calls"] if c[0] == k]
        entries.append(
            {
                "id": entry["id"],
                "shape": entry["shape"],
                "calls": len(mine),
                "median_s": statistics.median(c[1] for c in mine) if mine else None,
                "sha256": sorted({c[3] for c in mine if c[3]}),
                "problems": sorted({msg for c, p in zip(result["calls"], problems) if c[0] == k for msg in p}),
            }
        )
        if entry["shape"] == "audit" and mine and not trace:
            (audit_s,) = calibrate.reference_seconds([(mine[0][1], mine[0][4])], result["calibration"])
            metrics[f"audit_s.{entry['audit']}"] = (audit_s, "s")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "attempted": len(problems),
        "failed": failed,
        "metrics": metrics,
        "entries": entries,
    }


def print_run(rec: dict, declared) -> None:
    env = rec["environment"]
    print(
        f"# {rec['workload']} seed={rec['seed']} seconds={rec['seconds']} trace={int(rec['trace'])} "
        f"python={env['python']} nproc={env['nproc']} commit={env['commit']} src_lines={env['src_lines']}"
    )
    for name, (value, unit, *note) in rec["metrics"].items():
        print(f"{name} {value:.6g} {unit}" + (f"  ({note[0]})" if note else ""))
    for e in rec["entries"]:
        median = f"{e['median_s']:.4f}" if e["median_s"] is not None else "-"
        digests = ",".join(d[:16] for d in e["sha256"]) or "-"
        print(f"entry {e['id']} {e['shape']} calls={e['calls']} median_s={median} sha256={digests}")
        for p in e["problems"]:
            print(f"  FAILED {e['id']}: {p}")
    summary = {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {name: {"value": rec["metrics"][name][0], "unit": unit} for name, unit in declared},
    }
    print(json.dumps(summary))


# ---------------------------------------------------------------------------
# baseline table


def baseline() -> None:
    """Per-entry wall time of each bundled case and audit, one fresh process
    each, and the three layers with the most self time in a traced rerun."""
    env = environment()
    print(f"# baseline python={env['python']} nproc={env['nproc']} commit={env['commit']} src_lines={env['src_lines']}")
    print("| entry point | wall | layers by self time (traced) |")
    print("| --- | --- | --- |")
    audits = [{"id": f"audit-{name}", "shape": "audit", "audit": name} for name in workloads.BUNDLED_AUDITS]
    for entry in bundled_cases() + audits:
        walls = {}
        for trace in (False, True):
            run_dir = OUT / f"baseline-{os.getpid()}"
            shutil.rmtree(run_dir, ignore_errors=True)
            try:
                plan = write_plan([entry], run_dir, 0)
                result = run_worker(plan, run_dir, trace, time.monotonic() + 600)
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            problems = check_calls([entry], result)[0]
            if problems:
                raise BenchError(f"{entry['id']}: {problems}")
            walls[trace] = result["calls"][0][1]
            if trace:
                layers = per_layer(result)
        total = sum(layers[f"{layer}.self_s"][0] for layer in spans.LAYERS) or 1.0
        top = sorted(spans.LAYERS, key=lambda layer: -layers[f"{layer}.self_s"][0])[:3]
        split = ", ".join(f"{layer} {100 * layers[f'{layer}.self_s'][0] / total:.0f}%" for layer in top)
        name = f"`--audit {entry['audit']}`" if "audit" in entry else f"`cases/{entry['id']}`"
        print(f"| {name} | {walls[False]:.2f} s | {split} (traced {walls[True]:.2f} s) |")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=18)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", action="store_true", help="print the per-entry baseline table")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through the finally clauses that end the engine processes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "kummer" / "cli.py").is_file():
        print(f"no engine at {ROOT / 'src' / 'kummer'}: run from a full checkout", file=sys.stderr)
        return 2
    if not args.baseline and args.workload is None:
        ap.error("--workload is required unless --baseline is given")
    OUT.mkdir(exist_ok=True)
    try:
        if args.baseline:
            baseline()
            return 0
        rec = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    trace_tag = f"trace{args.trace}"
    (OUT / f"record-{args.workload}-seed{args.seed}-{trace_tag}.json").write_text(json.dumps(rec, indent=1))
    print_run(rec, PER_LAYER if args.trace else END_TO_END)
    return 0


if __name__ == "__main__":
    sys.exit(main())
