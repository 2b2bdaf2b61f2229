"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _first(workload, seed, slot, count=5):
    return list(itertools.islice(workloads.candidates(workload, seed, slot), count))


@pytest.mark.parametrize("workload", ["cases", "rejects"])
def test_candidates_are_pure_functions_of_the_seed(workload):
    for slot in range(workloads.pool_size(workload)):
        assert _first(workload, 7, slot) == _first(workload, 7, slot)
    assert _first(workload, 7, 0) != _first(workload, 8, 0)


@pytest.mark.parametrize("workload", ["cases", "rejects", "audits"])
def test_pool_is_a_pure_function_of_the_seed(workload):
    def strip(pool):
        return [(e["id"], e["shape"], e.get("case"), e.get("audit")) for e in pool]

    first = run.build_pool(workload, 11)
    assert strip(first) == strip(run.build_pool(workload, 11))
    if workload != "audits":
        assert strip(first) != strip(run.build_pool(workload, 12))


def test_shift_is_a_translate():
    f = [3, -2, 0, 1]
    g = workloads.shift(f, 4)
    for x in range(-3, 4):
        assert sum(c * x**i for i, c in enumerate(g)) == sum(c * (x + 4) ** i for i, c in enumerate(f))


def test_self_times_on_a_nested_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    tree = [(2, 1, "b", 2.0, 3.0), (1, 0, "a", 1.0, 4.0), (3, 0, "c", 5.0, 9.0), (0, -1, "root", 0.0, 10.0)]
    out = spans.self_times(tree)
    assert out == {"b": [1, 1.0, 1.0], "a": [1, 3.0, 2.0], "c": [1, 4.0, 4.0], "root": [1, 10.0, 3.0]}
    assert sum(row[2] for row in out.values()) == 10.0


def test_recorder_spans_nest_and_self_times_add_up():
    ticks = itertools.count()
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("b", "inner", lambda: None)
    outer = rec.wrap("a", "outer", lambda: (inner(), inner()))
    outer()
    outer()
    by_key = spans.self_times(rec.spans)
    # each outer call spans 5 ticks and holds two 1-tick inner calls
    assert by_key == {1: [2, 10.0, 6.0], 0: [4, 4.0, 4.0]}
    assert rec.keys == [("b", "inner"), ("a", "outer")]


def test_recorder_install_and_guard():
    import kummer.galois
    import kummer.pipeline

    assert spans.installed_wrappers() == []
    rec = spans.Recorder()
    rec.install()
    try:
        found = spans.installed_wrappers()
        assert "kummer.pipeline.certify_galois" in found
        assert "kummer.lattice._snf" in found and "kummer.picard._snf" in found
        assert "kummer.groups.FiniteGroup.enumerate" in found
        assert kummer.pipeline.certify_galois is kummer.galois.certify_galois
    finally:
        rec.uninstall()
    assert spans.installed_wrappers() == []


def test_traced_engine_call_is_counted():
    import kummer.cli

    rec = spans.Recorder()
    rec.install()
    try:
        assert kummer.cli.main(["--input", str(ROOT / "cases" / "example1.json"), "--report", "/dev/null"]) == 0
    finally:
        rec.uninstall()
    names = {rec.keys[k][1]: row for k, row in spans.self_times(rec.spans).items()}
    assert names["main"][0] == 1 and names["run_case"][0] == 1
    assert rec.counters["galois.certified"] == 1
    assert rec.counters["picard.models_built"] == 1
    assert rec.counters["picard.ambient_dim"] == 16
    total = sum(row[2] for row in names.values())
    assert total == pytest.approx(names["main"][1], rel=1e-9)


@pytest.fixture(scope="module")
def example1(tmp_path_factory):
    import kummer.cli

    out = tmp_path_factory.mktemp("report") / "example1.json"
    case_file = ROOT / "cases" / "example1.json"
    rc = kummer.cli.main(["--input", str(case_file), "--report", str(out)])
    return rc, json.loads(out.read_text()), reference.expect_case(json.loads(case_file.read_text()))


def test_reference_accepts_the_engine_report(example1):
    rc, report, expected = example1
    assert expected.exit_code == 0 and expected.picard_rank == 17
    assert reference.check_case(report, rc, expected) == []


def test_reference_rejects_a_flipped_exit_code(example1):
    rc, report, expected = example1
    assert reference.check_case(report, 2, expected)


def test_reference_rejects_a_wrong_picard_rank(example1):
    rc, report, expected = example1
    bad = json.loads(json.dumps(report))
    bad["conclusions"]["picard_rank"]["value"] = 18
    assert any("picard_rank" in p for p in reference.check_case(bad, rc, expected))


def test_reference_rejects_a_wrong_witness(example1):
    rc, report, expected = example1
    bad = json.loads(json.dumps(report))
    witnesses = bad["hypotheses"][0]["details"][0]["witnesses"]
    witnesses[0][0] += 2
    assert any("witnesses" in p for p in reference.check_case(bad, rc, expected))


def test_reference_predicts_withheld_stages():
    frob = reference.expect_case({"factors": [{"poly": ["-2", "0", "0", "0", "0", "1"]}], "prime_bound": 500})
    assert (frob.exit_code, frob.withheld_at) == (2, "galois_certification")
    f = [7, -3, 0, 1]
    pair = {"factors": [{"poly": f}, {"poly": workloads.shift(f, 5)}], "prime_bound": 500}
    shifted = reference.expect_case(pair)
    assert (shifted.exit_code, shifted.withheld_at) == (2, "linear_disjointness")


def test_reference_rejects_a_wrong_audit_record():
    record = reference.expect_audit("example1")
    report = {"audit": "example1", "record": dict(record)}
    assert reference.check_audit(report, 0, "example1") == []
    report["record"]["sp4_order_enumerated"] = 25920
    assert reference.check_audit(report, 0, "example1")
    assert reference.check_audit({"audit": "example1", "record": record}, 1, "example1")


def test_reference_audit_values_follow_the_formulas():
    assert reference.sp_order(4, 3) == 51840
    two = reference.expect_audit("example2")
    assert two["sextic_disc_class"] == {"support": [3, 13, 31], "sign": -1}
    assert two["gsp4_f3"]["order"] == 103680
    three = reference.expect_audit("example3")
    assert three["torsor_group_order"] == 322560 and three["picard_prediction"] == 65


def test_tail_has_ten_samples_beyond_it():
    values = list(range(40))
    value, pct, n = run.tail(values)
    assert (n, sum(v > value for v in values)) == (40, 10)
    assert pct == 75
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100, 3)


def _audit_result(digests, **extra):
    record = reference.expect_audit("example3")
    result = {
        "calls": [(0, 1.0, 0, d, 1.0 + i) for i, d in enumerate(digests)],
        "reports": {0: {"audit": "example3", "record": record}},
        "wrappers_after": [],
        "sympy_loaded": False,
    }
    result.update(extra)
    return [{"id": "audit-example3", "shape": "audit", "audit": "example3"}], result


def test_check_calls_flags_a_report_that_changes_between_repetitions():
    pool, result = _audit_result(["aa", "aa", "bb"])
    problems = run.check_calls(pool, result)
    assert problems[:2] == [[], []]
    assert problems[2] == ["report differs from the first repetition"]


def test_check_calls_fails_every_call_of_a_run_with_wrappers_installed():
    pool, result = _audit_result(["aa", "aa"], wrappers_after=["kummer.pipeline.certify_galois"])
    assert all(run.check_calls(pool, result))


def test_reference_does_not_import_the_engine():
    import subprocess

    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "import reference, workloads; "
        "assert not [m for m in sys.modules if m.split('.')[0] == 'kummer']"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


def test_calibration_chunk_is_fixed_work():
    assert calibrate.chunk() == calibrate.CHUNK_RESULT
    # the mean of the speeds, not of the times
    assert calibrate.speed([calibrate.REF_CHUNK_S / 2, calibrate.REF_CHUNK_S]) == pytest.approx(1.5)


def test_reference_seconds_use_the_chunks_near_each_call():
    ref = calibrate.REF_CHUNK_S
    samples = [(0.0, ref), (1.0, ref / 2), (10.0, ref), (20.0, ref * 2)]
    # (seconds, end): [0.2, 1.2] sees the chunks at 0 and 1; [10, 12] the one
    # at 10; [15, 16] none, so all of them
    out = calibrate.reference_seconds([(1.0, 1.2), (2.0, 12.0), (1.0, 16.0)], samples)
    assert out == pytest.approx([1.5, 2.0, 1.125])


def test_engine_clock_leaves_out_chunk_time():
    sampler = calibrate.Sampler()
    before = sampler.engine_clock()
    sampler._tick()
    assert len(sampler.samples) == 1 and sampler.samples[0][0] >= before
    assert sampler.engine_clock() - before < sampler.paused_s


def test_run_loop_makes_whole_rounds_and_at_least_min_rounds():
    ticks = itertools.count()
    entries = [{"argv": [], "report": "/nonexistent/a"}, {"argv": [], "report": "/nonexistent/b"}]
    calls, _ = worker.run_loop(lambda argv: 0, entries, 0, 3, clock=lambda: float(next(ticks)))
    assert [c[0] for c in calls] == [0, 1] * 3
    # the budget counts clock seconds times scale(): 2 ticks a call, so
    # 4 ticks a round, and 12 scaled seconds take two rounds at scale 2
    ticks = itertools.count()
    calls, _ = worker.run_loop(lambda argv: 0, entries, 12, 1, clock=lambda: float(next(ticks)), scale=lambda: 2.0)
    assert len(calls) == 4


def test_end_to_end_times_are_in_reference_seconds():
    result = {
        "calls": [(0, 1.0, 0, "aa", 1.0), (0, 3.0, 0, "aa", 4.0)],
        "loop_wall_s": 4.0,
        "peak_rss_mb": 50.0,
        "calibration": [(t, calibrate.REF_CHUNK_S / 2) for t in range(5)],  # a machine twice as fast
    }
    setup = [(0.05, calibrate.REF_START_S * 2)] * 3  # starts twice as slow
    m = run.end_to_end(result, 2, setup)
    assert m["verdict_s.p50"][0] == pytest.approx(4.0) and m["wall.verdict_s.p50"][0] == 2.0
    assert m["verdicts_per_s"][0] == pytest.approx(0.25)
    assert m["setup_s"][0] == pytest.approx(0.025)
