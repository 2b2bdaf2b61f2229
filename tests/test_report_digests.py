"""Byte-level pins of the verdict report.

Each input's `run_case(...).to_json()` is hashed and compared with a digest
recorded before `run_case` was split into stage functions, so a refactor of
the pipeline cannot change a report without changing this table.  The same
case files with `"mode": "heuristic"` were pinned until that mode was
deleted; each must now be refused as an input error.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from kummer.errors import InputError
from kummer.galois import IntPolynomial
from kummer.pipeline import HYPOTHESIS_CHECKS, CaseInput, FactorInput, parse_case, run_case
from oracles import shifted

CASES = Path(__file__).resolve().parent.parent / "cases"


def _poly(*coeffs):
    return IntPolynomial(coeffs)


X5 = _poly(1, -1, 0, 0, 0, 1)
A5 = _poly(16, 20, 0, 0, 0, 1)

# edge inputs, every torsor flag set
EDGE = {
    "degree9": [_poly(1, 1, 0, 0, 0, 0, 0, 0, 0, 1)],
    "a3_cubic": [_poly(-1, -3, 0, 1), X5],
    "duplicate": [X5, X5],
    "g4_pair": [X5, _poly(3, -1, 0, 0, 0, 1)],
    "a5_shift": [A5, shifted(A5, 2)],
    "three_cubics": [_poly(-1, -1, 0, 1), _poly(-1, -2, 0, 1), _poly(-3, -1, 0, 1)],
    # three_cubics stops at stage 1 (x^3 - 2x - 1 is reducible); these three
    # S_3 cubics, of discriminant classes -23, -31 and -3, reach stages 3-6
    "three_s3_cubics": [_poly(-1, -1, 0, 1), _poly(1, 1, 0, 1), _poly(-2, 0, 0, 1)],
}


def _case_files(mode):
    for name in ("example1", "two_jacobians"):
        obj = json.loads((CASES / f"{name}.json").read_text())
        for fault in (None,) + HYPOTHESIS_CHECKS:
            yield f"{name}-{mode}-{fault or 'none'}", {**obj, "mode": mode}, fault
    for name, polys in EDGE.items():
        factors = [{"poly": list(p.coefficients), "torsor_nontrivial": True} for p in polys]
        yield f"{name}-{mode}", {"factors": factors, "prime_bound": 500, "mode": mode}, None


INPUTS = [(key, parse_case(obj), fault) for key, obj, fault in _case_files("certify")]
# heuristic mode is deleted: the case files once pinned in it are refused
RETIRED = list(_case_files("heuristic"))
PINNED = INPUTS + RETIRED


def pinned_report(case, fault):
    """``run_case(case, force_fail=fault)``, or None for a RETIRED case file,
    which parse_case must refuse."""
    if isinstance(case, dict):
        with pytest.raises(InputError, match='"mode" must be "certify"'):
            parse_case(case)
        return None
    return run_case(case, force_fail=fault)


DIGESTS = {
    "example1-certify-none": "42142648dff53c8f6cd1a9101377f3ab3d3df3ae4dd2e397ed575d293095511c",
    "example1-certify-galois_certification": "922870d82b2a87a3dde751c5cd65bdb9044298d9c4a81c645bf6207217ad8c57",
    "example1-certify-linear_disjointness": "d3aa2d7026672e2baaf3f4b0ef1cee8b1f1fee91345234e32dc32eae210ccc27",
    "example1-certify-module_structure": "6d47e9cd60c427eb6b00f5cd65238a32e860ac511130035bd622837a2765d29b",
    "example1-certify-h1_vanishing": "5fa5e8340cd1dc867b7ea039c2d3aa1e8152eba9abf17a1a1ddeb8b5f6b2016e",
    "example1-certify-pi1_cohomology": "8d84d25c7c412ca253616cd368d68d439bfc997e7dc3155f153cae63a24be0a0",
    "example1-certify-pic_model_cohomology": "7419e2890be115a7d70e9562b98cdf0b50b462f147b6a31842c4da5b21a1b1ed",
    "two_jacobians-certify-none": "06024f614e6d3008f1bcb41e41d7ecad9d92c471d317bbc4c61862dc77e87bdc",
    "two_jacobians-certify-galois_certification": "4b46a4a5182b21498fc138ab912f43bf204e5a8e9115b5ffbdc5bdd2b74b73a2",
    "two_jacobians-certify-linear_disjointness": "9c59f91f39217fa9a628ad63edff8655394567dd5303e1ee62bf3140007b327b",
    "two_jacobians-certify-module_structure": "00c5f615f0d5280db848243dbf22248533a38454c6672f22f69d1c39c0d1a84d",
    "two_jacobians-certify-h1_vanishing": "7960b64eb28fcafdb8c62f54c932df15242dff1532dfe05cde8e98fde84405a8",
    "two_jacobians-certify-pi1_cohomology": "a02d92919d20b3fa8eecae9d64ca86ca7a4a32eca744d252216d16688e681af6",
    "two_jacobians-certify-pic_model_cohomology": "cec049e3dbc091cc0a1426f8c1da4d2a068412ec9b0c8268a46f9d8a6efcc969",
    "degree9-certify": "610221cee46e57ff98b68e7078cc2fd00595668ec65462ccf202997de9cf1f6a",
    "a3_cubic-certify": "236ee01a11c72716ed1771b342153e7485a9f970957c385e7dd38da46056c367",
    "duplicate-certify": "c38b224286be1c0bd354691e64f61779d4c6cb3fcc7668297a63d3f4e1e4f602",
    "g4_pair-certify": "f2d5a501fb300a5ae979f01e4984d29b6c4f9c6ba7b546c7fe1d13d28e486ed3",
    "a5_shift-certify": "218278e810d7e05ed9e17d0a214a721c2c8b392aa347dba00d7a7fa5ff48fdf7",
    "three_cubics-certify": "a99a715af405734a6dccb188bd7950e2cad4e700ac390f969118995eb8f1254a",
    "three_s3_cubics-certify": "56ccb2ec616e79ea249ea6e084d3aeebe8e77f92aa30bfa447c08dd23f704548",
}


def test_every_input_is_pinned():
    assert sorted(DIGESTS) == sorted(key for key, _, _ in INPUTS)


def test_three_s3_cubics_reach_every_stage():
    factors = tuple(FactorInput(p, True) for p in EDGE["three_s3_cubics"])
    report = json.loads(run_case(CaseInput(factors, prime_bound=500)).to_json())
    stages = {h["name"]: h for h in report["hypotheses"]}
    assert list(stages) == list(HYPOTHESIS_CHECKS)
    assert all(h["passed"] for h in stages.values())
    assert stages["pi1_cohomology"]["details"]["group_order"] == 24**3  # (F_2^2 x| S_3)^3
    assert report["conclusions"]["asserted"] is True


@pytest.mark.parametrize("key,case,fault", PINNED, ids=[key for key, _, _ in PINNED])
def test_report_digest(key, case, fault):
    report = pinned_report(case, fault)
    if report is not None:
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == DIGESTS[key]


def test_every_digest_holds_in_one_warm_process():
    # the memo is kept across these calls, forward and then reversed, so an
    # entry keyed too coarsely answers for an input it was not filled from
    for key, case, fault in INPUTS + INPUTS[::-1]:
        report = run_case(case, force_fail=fault).to_json()
        assert hashlib.sha256(report.encode()).hexdigest() == DIGESTS[key], key


def test_every_digest_holds_in_one_warm_optimized_process():
    # python -O strips asserts; the memos are kept across these calls,
    # forward and then reversed, in one process
    script = (
        "import hashlib, sys\n"
        "from kummer.pipeline import run_case\n"
        "from test_report_digests import INPUTS\n"
        "print(sys.flags.optimize)\n"
        "for key, case, fault in INPUTS + INPUTS[::-1]:\n"
        "    report = run_case(case, force_fail=fault).to_json()\n"
        "    print(key, hashlib.sha256(report.encode()).hexdigest())\n"
    )
    env = {"PYTHONPATH": f"{CASES.parent / 'src'}:{CASES.parent / 'tests'}", "PATH": "/usr/bin:/bin"}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    optimize, *lines = out.stdout.splitlines()
    assert optimize == "1"
    order = [key for key, _, _ in INPUTS + INPUTS[::-1]]
    assert [line.split(" ") for line in lines] == [[key, DIGESTS[key]] for key in order]
