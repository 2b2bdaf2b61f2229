import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from kummer import cli
from kummer.cli import build_parser, main
from kummer.errors import (
    CapExceeded,
    EngineError,
    GaloisCheckFailed,
    GroupCheckFailed,
    InputError,
    LatticeCheckFailed,
)

ROOT = Path(__file__).resolve().parent.parent
CASES = ROOT / "cases"


def run_cli(args, tmp_path):
    """Invoke the CLI in-process; returns (exit_code, report_dict_or_None)."""
    report = tmp_path / "report.json"
    code = main(list(args) + ["--report", str(report)])
    data = json.loads(report.read_text()) if report.exists() else None
    return code, data


def test_example1_exit_zero(tmp_path):
    code, data = run_cli(["--input", str(CASES / "example1.json")], tmp_path)
    assert code == 0
    assert data["conclusions"]["asserted"] is True
    assert data["conclusions"]["picard_rank"]["value"] == 17


def test_two_jacobians_case(tmp_path):
    code, data = run_cli(["--input", str(CASES / "two_jacobians.json")], tmp_path)
    assert code == 0
    assert data["conclusions"]["picard_rank"]["value"] == 66


def test_withheld_exit_two(tmp_path):
    dup = tmp_path / "dup.json"
    dup.write_text(
        json.dumps(
            {
                "factors": [
                    {"poly": ["1", "-1", "0", "0", "0", "1"], "torsor_nontrivial": False},
                    {"poly": ["1", "-1", "0", "0", "0", "1"], "torsor_nontrivial": False},
                ],
                "prime_bound": 200,
            }
        )
    )
    code, data = run_cli(["--input", str(dup)], tmp_path)
    assert code == 2
    assert data["conclusions"]["asserted"] is False


def test_input_error_exit_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(["--input", str(bad)], tmp_path)
    assert code == 1

    even = tmp_path / "even.json"
    even.write_text(json.dumps({"factors": [{"poly": ["5", "-8", "4", "0", "4", "-8", "4"]}]}))
    code, _ = run_cli(["--input", str(even)], tmp_path)
    assert code == 1

    code = main(["--input", str(tmp_path / "missing.json")])
    assert code == 1


def test_strict_case_schema_exit_one(tmp_path, capsys):
    case = json.loads((CASES / "example1.json").read_text())
    case["factors"][0]["torsor_nontrivial"] = "false"
    flag = tmp_path / "flag.json"
    flag.write_text(json.dumps(case))
    code, data = run_cli(["--input", str(flag)], tmp_path)
    assert code == 1 and data is None
    assert "torsor_nontrivial" in capsys.readouterr().err
    # certify is the only mode a case file may name
    flag.write_text(json.dumps({**json.loads((CASES / "example1.json").read_text()), "mode": "heuristic"}))
    code, data = run_cli(["--input", str(flag)], tmp_path)
    assert code == 1 and data is None
    assert capsys.readouterr().err.startswith('input error: "mode" must be "certify"')
    # a trailing 0 is refused, not trimmed into x^5 - x + 1
    trailing = {"poly": ["1", "-1", "0", "0", "0", "1", "0", "0"], "torsor_nontrivial": True}
    flag.write_text(json.dumps({"factors": [trailing]}))
    code, data = run_cli(["--input", str(flag)], tmp_path)
    assert code == 1 and data is None
    assert "leading" in capsys.readouterr().err
    # the --prime-bound override goes through the same bound as the file
    code, data = run_cli(["--input", str(CASES / "example1.json"), "--prime-bound", "1000001"], tmp_path)
    assert code == 1 and data is None
    assert "prime_bound" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,error",
    [
        (["--prime-bound", "500"], "case file must contain a JSON object"),
        # --mode is no option: argparse refuses it before the file is read
        (["--mode", "certify"], "unrecognized arguments: --mode certify"),
    ],
    ids=["prime-bound", "mode"],
)
@pytest.mark.parametrize("value", [[1, 2], "x", None, 3], ids=["list", "str", "null", "int"])
def test_a_case_file_that_is_no_object_is_an_input_error(tmp_path, capsys, value, flag, error):
    # the override is applied to the case before parse_case sees it
    case = tmp_path / "case.json"
    case.write_text(json.dumps(value))
    code, data = run_cli(["--input", str(case), *flag], tmp_path)
    assert code == 1 and data is None
    assert capsys.readouterr().err == f"input error: {error}\n"


@pytest.mark.parametrize(
    "content",
    [b'{"factors": [{"poly": [' + b"1" * 5000 + b", 1]}]}", b'{"factors": \xff\xfe}', b"[" * 100000],
    ids=["integer-past-digit-limit", "not-utf8", "nested-100000-deep"],
)
def test_an_undecodable_case_file_is_an_input_error(tmp_path, capsys, content):
    case = tmp_path / "case.json"
    case.write_bytes(content)
    code, data = run_cli(["--input", str(case)], tmp_path)
    assert code == 1 and data is None
    assert capsys.readouterr().err.startswith("input error:")
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    out = subprocess.run(
        [sys.executable, "-m", "kummer.cli", "--input", str(case)], capture_output=True, text=True, env=env
    )
    assert out.returncode == 1
    assert out.stderr.startswith("input error:") and "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "args", [["--input", str(CASES / "example1.json")], ["--audit", "example1"]], ids=["input", "audit"]
)
def test_an_unwritable_report_path_is_an_input_error(tmp_path, capsys, args):
    report = tmp_path / "no" / "such" / "dir" / "report.json"
    assert main([*args, "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and str(report) in err
    assert not report.parent.exists()


def test_force_fail_exit_two(tmp_path):
    code, data = run_cli(
        ["--input", str(CASES / "example1.json"), "--force-fail", "pi1_cohomology"],
        tmp_path,
    )
    assert code == 2
    assert data["conclusions"]["withheld_because"] == ["pi1_cohomology"]


def test_report_bytes_deterministic(tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    main(["--input", str(CASES / "example1.json"), "--report", str(r1)])
    main(["--input", str(CASES / "example1.json"), "--report", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()


def test_cli_overrides(tmp_path, capsys):
    # a prime bound too small to find witnesses downgrades the verdict
    code, data = run_cli(
        ["--input", str(CASES / "example1.json"), "--prime-bound", "2"], tmp_path
    )
    assert code == 2
    assert "galois_certification" in data["conclusions"]["withheld_because"]
    # certify is the only mode, so --mode is no option, whatever its value
    for mode in ("certify", "heuristic"):
        assert main(["--input", str(CASES / "example1.json"), "--mode", mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error:")


def test_the_readme_cli_block_lists_every_option():
    # the usage block cannot drift from the parser: it names each option once
    # or more, and nothing the parser lacks
    block = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1].split("```")[1]
    options = {s for a in build_parser()._actions for s in a.option_strings if s.startswith("--")}
    assert set(re.findall(r"--[a-z][a-z-]*", block)) == options - {"--help"}


def test_cli_audit_example1(tmp_path):
    code, data = run_cli(["--audit", "example1"], tmp_path)
    assert code == 0
    assert data["record"]["psp4_order_formula"] == 25920


def test_cli_as_subprocess(tmp_path):
    # the module entry point works without installation
    env_path = str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, "-m", "kummer.cli", "--input", str(CASES / "example1.json")],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
    )
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["conclusions"]["picard_rank"]["value"] == 17


def test_reports_identical_under_optimize_flag():
    # python -O strips assert statements; no verdict may depend on them
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    for args in (
        ["--input", str(CASES / "example1.json")],
        ["--input", str(CASES / "two_jacobians.json")],
        ["--audit", "example1"],
        ["--audit", "example3"],
    ):
        reports = []
        for flags in ([], ["-O"]):
            out = subprocess.run(
                [sys.executable, *flags, "-m", "kummer.cli", *args],
                capture_output=True,
                env=env,
            )
            assert out.returncode == 0, out.stderr
            reports.append(out.stdout)
        assert reports[0] == reports[1], args


def test_rejected_command_line_is_an_input_error(capsys):
    # exit 2 means withheld conclusions; a command line argparse rejects is
    # malformed input, exit 1
    for args in (["--prime-bound", "1e7"], ["--no-such-flag"], ["--audit", "example9"]):
        code = main(["--input", str(CASES / "example1.json"), *args])
        assert code == 1, args
        assert "input error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error, code",
    [
        (GroupCheckFailed, 3),
        (GaloisCheckFailed, 3),
        (LatticeCheckFailed, 3),
        (InputError, 1),
        (CapExceeded, 1),
        (EngineError, 1),
    ],
)
def test_failed_soundness_check_exits_three(monkeypatch, tmp_path, capsys, error, code):
    # a soundness check that meets contradictory evidence is told apart from
    # malformed input and from the other engine errors, and writes no report
    def raise_error(case, force_fail=None):
        raise error("contradiction")

    monkeypatch.setattr(cli, "run_case", raise_error)
    report = tmp_path / "report.json"
    assert main(["--input", str(CASES / "example1.json"), "--report", str(report)]) == code
    assert not report.exists()
    prefix = "input error:" if error is InputError else "engine error:"
    assert prefix in capsys.readouterr().err


def test_help_exits_zero():
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    out = subprocess.run([sys.executable, "-m", "kummer.cli", "--help"], capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert "--prime-bound" in out.stdout


def test_one_process_reuses_the_parser(tmp_path, capsys):
    # each call's report equals a fresh process's, whatever the calls before
    # it parsed; a rejected line and --help still exit 1 and 0 afterwards
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    case = ["--input", str(CASES / "two_jacobians.json")]
    for flags in (
        ["--prime-bound", "50"],
        ["--force-fail", "h1_vanishing"],
        [],
    ):
        fresh = subprocess.run(
            [sys.executable, "-m", "kummer.cli", *case, *flags], capture_output=True, env=env
        )
        report = tmp_path / "report.json"
        assert main([*case, *flags, "--report", str(report)]) == fresh.returncode, flags
        assert report.read_bytes() == fresh.stdout, flags
    assert main([*case, "--prime-bound", "1e7"]) == 1
    assert "input error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    assert "--prime-bound" in capsys.readouterr().out
    assert build_parser.cache_info().misses == 1


@pytest.mark.parametrize(
    "option",
    [
        ["--input", str(CASES / "example1.json")],
        ["--prime-bound", "7"],
        ["--mode", "heuristic"],
        ["--force-fail", "h1_vanishing"],
    ],
    ids=lambda option: option[0],
)
def test_an_audit_refuses_case_options(tmp_path, capsys, option):
    # a bundled audit reads no case, so a case option with it is malformed
    # input, not something to drop without a word
    report = tmp_path / "report.json"
    assert main(["--audit", "example1", *option, "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and option[0] in err
    assert not report.exists()
