import json
import subprocess
import sys
from pathlib import Path

import pytest

from kummer import picard, pipeline
from kummer.errors import EngineError, InputError
from kummer.galois import IntPolynomial
from kummer.groups import FiniteGroup
from kummer.picard import EQUIVARIANT_G_CAP
from kummer.pipeline import (
    HYPOTHESIS_CHECKS,
    PRIME_BOUND_MAX,
    CaseInput,
    FactorInput,
    parse_case,
    run_case,
)
from kummer.reps import GModule

X5 = IntPolynomial((1, -1, 0, 0, 0, 1))
X3 = IntPolynomial((-1, -1, 0, 1))


def example1_case(prime_bound=200):
    return CaseInput((FactorInput(X5, True),), prime_bound=prime_bound)


def test_example1_pipeline():
    rep = run_case(example1_case())
    assert rep.asserted
    names = [h["name"] for h in rep.hypotheses]
    assert list(names) == list(HYPOTHESIS_CHECKS)
    assert all(h["passed"] for h in rep.hypotheses)
    assert rep.conclusions["picard_rank"]["value"] == 17
    assert rep.conclusions["br2_algebraic"]["value"] is True
    assert rep.conclusions["br1_equals_br0"]["value"] is True
    assert rep.conclusions["br_bar_2_invariants_zero"]["value"] is True
    audit = rep.equivariant_audit
    assert audit["h1_pi1"] == 0
    assert audit["group_order"] == 1920
    assert audit["factors"][0]["h1_torsor_group_module"] == 1
    assert audit["factors"][0]["torsor_class_nonzero"] is True
    assert audit["h1_pic_model_assembled"] == 0
    # the vanishing H^1(S5, V) is part of the hypothesis details
    h1_line = next(h for h in rep.hypotheses if h["name"] == "h1_vanishing")
    assert h1_line["details"][0]["h1"] == 0


def test_two_factor_case():
    case = CaseInput((FactorInput(X5, False), FactorInput(X3, False)), prime_bound=500)
    rep = run_case(case)
    assert rep.asserted
    assert rep.case["g"] == 3 and rep.case["n"] == 2
    assert rep.conclusions["picard_rank"]["value"] == 2**6 + 2
    assert rep.equivariant_audit["pi1_permutation_basis"] is True


def test_two_nontrivial_torsor_factors():
    case = CaseInput((FactorInput(X5, True), FactorInput(X3, True)), prime_bound=500)
    rep = run_case(case)
    assert rep.asserted
    audit = rep.equivariant_audit
    assert audit["group_order"] == (16 * 120) * (4 * 6)
    assert audit["h1_pi1"] == 0
    for line in audit["factors"]:
        assert line["h1_torsor_group_module"] == 1
        assert line["torsor_class_nonzero"] is True
        assert line["h1_pic_factor_model"] == 0
    assert rep.conclusions["picard_rank"]["value"] == 66


def test_mixed_torsor_flags():
    case = CaseInput((FactorInput(X5, True), FactorInput(X3, False)), prime_bound=500)
    rep = run_case(case)
    assert rep.asserted
    lines = rep.equivariant_audit["factors"]
    assert lines[0]["h1_torsor_group_module"] == 1
    assert lines[1]["h1_torsor_group_module"] == 0
    assert rep.equivariant_audit["pi1_permutation_basis"] is False


def test_duplicate_polynomials_withheld():
    case = CaseInput((FactorInput(X5, False), FactorInput(X5, False)))
    rep = run_case(case)
    assert not rep.asserted
    assert "linear_disjointness" in rep.conclusions["withheld_because"]
    assert rep.conclusions["picard_rank"]["value"] is None


def test_fault_injection_withholds_every_conclusion():
    for check in HYPOTHESIS_CHECKS:
        rep = run_case(example1_case(), force_fail=check)
        assert not rep.asserted, check
        assert rep.conclusions["withheld_because"] == [check]
        for key in ("picard_rank", "br2_algebraic", "br1_equals_br0", "br_bar_2_invariants_zero"):
            assert rep.conclusions[key]["value"] is None
        forced = next(h for h in rep.hypotheses if h["name"] == check)
        assert forced.get("fault_injected") is True


def test_report_determinism():
    r1 = run_case(example1_case()).to_json()
    r2 = run_case(example1_case()).to_json()
    assert r1 == r2


def test_conclusions_tagged_with_sources():
    rep = run_case(example1_case())
    for key in ("picard_rank", "br2_algebraic", "br1_equals_br0", "br_bar_2_invariants_zero"):
        assert rep.conclusions[key]["source"] == "COMPUTED"
        assert rep.conclusions[key]["citation"]
    assert rep.conclusions["odd_part_unobstructed_note"]["source"].startswith("CITED")


def test_case_input_validation():
    with pytest.raises(InputError):
        CaseInput(())
    with pytest.raises(InputError):
        CaseInput((FactorInput(IntPolynomial((1, 0, 1)), False),))  # even degree
    with pytest.raises(InputError):
        CaseInput((FactorInput(X3, False),))  # g = 1
    # certify is the only mode: a case file naming another one is refused
    with pytest.raises(InputError, match='"mode" must be "certify"'):
        parse_case({"factors": [GOOD_FACTOR, GOOD_FACTOR], "mode": "bogus"})


def test_beyond_lattice_cap_fails_closed():
    # g = 4 passes input validation but the equivariant audit cannot run
    f2 = IntPolynomial((3, -1, 0, 0, 0, 1))  # x^5 - x + 3, disc != disc(X5)
    from kummer.galois import discriminant

    assert discriminant(f2) != 0
    case = CaseInput((FactorInput(X5, False), FactorInput(f2, False)), prime_bound=500)
    rep = run_case(case)
    assert not rep.asserted
    withheld = rep.conclusions["withheld_because"]
    assert "pi1_cohomology" in withheld and "pic_model_cohomology" in withheld


X7 = IntPolynomial((-1, -1, 0, 0, 0, 0, 0, 1))  # x^7 - x - 1


@pytest.mark.parametrize(
    "polys",
    [
        # S_7 x S_7 has order 25401600, past the enumeration cap
        (X7, IntPolynomial((-3, -1, 0, 0, 0, 0, 0, 1))),
        (X5, X7),
    ],
    ids=["g6-septic-pair", "g5-quintic-septic"],
)
def test_beyond_lattice_cap_never_enumerates_the_product(polys, monkeypatch):
    enumerated = []
    real = FiniteGroup.enumerate

    def recording(group):
        enumerated.append(group.name)
        return real(group)

    monkeypatch.setattr(FiniteGroup, "enumerate", recording)
    case = CaseInput(tuple(FactorInput(p, False) for p in polys), prime_bound=500)
    rep = run_case(case)
    assert "S7" in enumerated and not any(" x " in name for name in enumerated)
    assert [h["passed"] for h in rep.hypotheses[:4]] == [True] * 4
    assert rep.conclusions["withheld_because"] == ["pi1_cohomology", "pic_model_cohomology"]
    skip = f"total dimension g = {case.g} beyond the lattice cap g <= {EQUIVARIANT_G_CAP}"
    assert rep.hypotheses[4]["details"] == {"skipped": skip}
    assert rep.equivariant_audit is None


def test_a_module_that_is_no_homomorphism_fails_stage_3(monkeypatch):
    real = pipeline.standard_module

    def swapped(d, kind):
        m = real(d, kind)
        if kind != "S":
            return m
        a, b = m.generator_matrices
        return GModule(m.group, m.dim, m.l, (b, a))

    monkeypatch.setattr(pipeline, "standard_module", swapped)
    with pytest.raises(EngineError) as excinfo:
        run_case(example1_case())
    assert any(entry.name == "_module_stage" for entry in excinfo.traceback)


def _on_kind(kind, value, real):
    """real, but value on a module of S_d (kind "S") or A_d (kind "A")."""
    return lambda m: value if m.group.name[0] == kind else real(m)


# one fault per conjunct of stage 3's acceptance: each check made false on
# its own, every other one true, withholds the verdict at module_structure.
# The case has two factors, S_5 and S_3, so the product audit runs, and no
# torsor, so stage 6 reads no End.  A fixed vector (h0) is
# test_equivariant_stage's lone-factor test
STAGE_3_FAULTS = {
    "simple": ("is_simple", lambda real: _on_kind("S", False, real)),
    "end-dim": ("endomorphism_algebra_dim", lambda real: _on_kind("S", 2, real)),
    "alternating-simple": ("is_simple", lambda real: _on_kind("A", False, real)),
    "alternating-end-dim": ("endomorphism_algebra_dim", lambda real: _on_kind("A", 2, real)),
    "alternating-index-2": ("has_index_l_normal_subgroup", lambda real: lambda g, l: True),
    "wedge2-invariants": ("wedge2_dual_invariants_dim", lambda real: lambda m: real(m) + 1),
    "cross-hom": (
        "_cross_hom_dims",
        lambda real: lambda mods, g: {key: 1 for key in list(real(mods, g))[:1]},
    ),
}


@pytest.mark.parametrize("fault", STAGE_3_FAULTS)
def test_each_stage_3_check_withholds_on_its_own(fault, monkeypatch):
    name, build = STAGE_3_FAULTS[fault]
    monkeypatch.setattr(pipeline, name, build(getattr(pipeline, name)))
    rep = run_case(CaseInput((FactorInput(X5, False), FactorInput(X3, False)), prime_bound=500))
    assert rep.conclusions["withheld_because"] == ["module_structure"]


def test_parse_case_roundtrip():
    obj = {
        "factors": [
            {"poly": ["1", "-1", "0", "0", "0", "1"], "torsor_nontrivial": True}
        ],
        "prime_bound": 200,
    }
    case = parse_case(obj)
    assert case.factors[0].poly == X5
    assert case.factors[0].torsor_nontrivial is True
    with pytest.raises(InputError):
        parse_case({"factors": []})
    with pytest.raises(InputError):
        parse_case({"factors": [{"poly": ["x"]}]})
    with pytest.raises(InputError):
        parse_case([1, 2])


GOOD_FACTOR = {"poly": ["1", "-1", "0", "0", "0", "1"], "torsor_nontrivial": True}


@pytest.mark.parametrize(
    "obj",
    [
        # a string flag is not a bool: "false" must not turn into True
        {"factors": [{**GOOD_FACTOR, "torsor_nontrivial": "false"}]},
        {"factors": [{**GOOD_FACTOR, "torsor_nontrivial": 0}]},
        # floats and bools are not coefficients; 1.7 must not truncate to 1
        {"factors": [{**GOOD_FACTOR, "poly": [1.7, -1, 0, 0, 0, 1]}]},
        {"factors": [{**GOOD_FACTOR, "poly": [1.0, -1, 0, 0, 0, 1]}]},
        {"factors": [{**GOOD_FACTOR, "poly": [True, -1, 0, 0, 0, 1]}]},
        {"factors": [{**GOOD_FACTOR, "poly": ["1.7", "-1", "0", "0", "0", "1"]}]},
        {"factors": [{**GOOD_FACTOR, "poly": ["1_0", "-1", "0", "0", "0", "1"]}]},
        # unknown keys, at the top level and inside a factor
        {"factors": [GOOD_FACTOR], "prime_bund": 200},
        {"factors": [{**GOOD_FACTOR, "torsor": True}]},
        # prime_bound: not a bool, not a float, within [2, PRIME_BOUND_MAX]
        {"factors": [GOOD_FACTOR], "prime_bound": True},
        {"factors": [GOOD_FACTOR], "prime_bound": 200.0},
        {"factors": [GOOD_FACTOR], "prime_bound": 1},
        {"factors": [GOOD_FACTOR], "prime_bound": PRIME_BOUND_MAX + 1},
        # factors and coefficients come as lists, and each factor has a poly
        {"factors": 5},
        {"factors": [5]},
        {"factors": [{"torsor_nontrivial": True}]},
        {"factors": [{**GOOD_FACTOR, "poly": "100001"}]},
        # certify is the only mode
        {"factors": [GOOD_FACTOR], "mode": "heuristic"},
        {"factors": [GOOD_FACTOR], "mode": None},
    ],
)
def test_parse_case_is_strict(obj):
    with pytest.raises(InputError):
        parse_case(obj)


def test_parse_case_accepts_integers_and_the_bound():
    case = parse_case(
        {
            "factors": [{"poly": [1, -1, 0, 0, 0, "1"], "torsor_nontrivial": False}],
            "prime_bound": PRIME_BOUND_MAX,
            "mode": "certify",
        }
    )
    assert case.factors[0].poly == X5
    assert case.factors[0].torsor_nontrivial is False
    assert case.prime_bound == PRIME_BOUND_MAX
    # the flag defaults to a trivial torsor
    assert parse_case({"factors": [{"poly": [1, -1, 0, 0, 0, 1]}]}).factors[0].torsor_nontrivial is False


def test_unknown_galois_group_withholds():
    # degree 9 polynomial: certification refuses, conclusions withheld
    f = IntPolynomial((1, 1, 0, 0, 0, 0, 0, 0, 0, 1))
    case = CaseInput((FactorInput(f, False),), prime_bound=100)
    rep = run_case(case)
    assert not rep.asserted
    assert "galois_certification" in rep.conclusions["withheld_because"]


def test_an_undecided_alternating_pair_withholds_below_a_raised_lattice_cap(monkeypatch):
    # x^5 + 20x + 16 and its shift by 2 have one splitting field, so the
    # abelian variety is J x J and its Picard rank exceeds 2^8 + 2.  With the
    # lattice cap raised to their g = 4, only stage 2 can withhold, and it must
    a5 = IntPolynomial((16, 20, 0, 0, 0, 1))
    monkeypatch.setattr(picard, "EQUIVARIANT_G_CAP", 4)
    monkeypatch.setattr(pipeline, "EQUIVARIANT_G_CAP", 4)
    report = run_case(CaseInput((FactorInput(a5, False), FactorInput(a5.shift(2), False)), 500))
    dis = report.hypotheses[1]
    assert dis["name"] == "linear_disjointness" and dis["passed"] is False
    assert dis["details"]["verdict"] == "HeuristicOnly"
    assert report.asserted is False
    assert report.conclusions["withheld_because"] == ["linear_disjointness"]
    assert report.conclusions["picard_rank"]["value"] is None


BUDGET_SCRIPT = """
import json, sys
from kummer import pipeline
from kummer.errors import FactorBudgetExceeded
from kummer.galois import IntPolynomial
from kummer.pipeline import CaseInput, FactorInput, run_case

def over_budget(d):
    raise FactorBudgetExceeded(f"cannot split cofactor of {d}")

pipeline.disc_class = over_budget
x3 = IntPolynomial((-1, -1, 0, 1))
report = run_case(CaseInput((FactorInput(x3, False), FactorInput(x3.shift(1), False))))
print(json.dumps([sys.flags.optimize, report.asserted, report.to_dict()]))
"""


def test_a_factoring_budget_raise_withholds_under_optimize_flag():
    # x^3 - x - 1 and x^3 + 3x^2 + 2x - 1 share one splitting field, so
    # passing an undecided stage 2 would assert a wrong Picard rank;
    # test_factor_memo runs the same input in this process
    root = Path(__file__).resolve().parent.parent
    env = {"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"}
    out = subprocess.run(
        [sys.executable, "-O", "-c", BUDGET_SCRIPT], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    optimize, asserted, report = json.loads(out.stdout)
    assert optimize == 1 and asserted is False
    dis = report["hypotheses"][1]
    assert dis["passed"] is False and dis["details"]["verdict"] == "HeuristicOnly"
    assert report["conclusions"]["withheld_because"] == ["linear_disjointness"]
    assert report["conclusions"]["picard_rank"]["value"] is None


@pytest.mark.parametrize("obj", [{"mode": "certify"}, {}], ids=["certify", "absent"])
def test_a_certify_or_absent_mode_parses_and_echoes_certify(obj):
    case = parse_case({"factors": [GOOD_FACTOR], **obj})
    assert not hasattr(case, "mode") and "mode" not in CaseInput.__slots__
    assert run_case(case).case["mode"] == "certify"


def test_degree3_alternating_rejected():
    # x^3 - 3x - 1 has square discriminant 81: Galois group A_3, not allowed
    f = IntPolynomial((-1, -3, 0, 1))
    from kummer.galois import discriminant, disc_is_square

    assert disc_is_square(discriminant(f))
    case = CaseInput((FactorInput(f, False), FactorInput(X5, False)), prime_bound=200)
    rep = run_case(case)
    assert not rep.asserted
    assert "galois_certification" in rep.conclusions["withheld_because"]

