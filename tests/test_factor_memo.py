"""The pipeline's per-process memo of stages 3 to 6 per tuple of factor
signatures: a warm memo gives the same report bytes as a cold one, does no
group work again, hands out no shared dicts, and keeps nothing from a fill
that raised; one fill harvests each distinct factor module once."""

import hashlib
from itertools import product

import pytest

from conftest import clear_pipeline_memo
from kummer import cohomology, disjoint, galois, pipeline, reps
from kummer.errors import FactorBudgetExceeded
from kummer.galois import IntPolynomial
from kummer.groups import FiniteGroup
from kummer.pipeline import CaseInput, FactorInput, run_case
from oracles import shifted
from test_equivariant_stage import SIGNATURES

# polynomials with Galois group S_d or A_d, distinct ones per degree
POLYS = {
    (3, "S"): [(-1, -1, 0, 1), (1, 1, 0, 1), (3, -1, 0, 1)],
    (5, "S"): [(-1, -1, 0, 0, 0, 1)],
    (5, "A"): [(16, 20, 0, 0, 0, 1)],
    (7, "S"): [(-1, -1, 0, 0, 0, 0, 0, 1)],
    (7, "A"): [(1, 0, 0, 1, -1, -3, 0, 1)],
}


def _product_signatures():
    """Every two- and three-factor layout with g <= 3 that stage 3 reaches
    but ``SIGNATURES`` leaves out: a quintic before a cubic.  The memo
    is keyed in factor order, so (5, 3) is a tuple of its own."""
    for kind, flags in product(("S", "A"), product((False, True), repeat=2)):
        yield (5, 3), (kind, "S"), flags


MEMO_SIGNATURES = SIGNATURES + list(_product_signatures())


def signature_case(degrees, kinds, flags):
    used = {}
    factors = []
    for d, k, flag in zip(degrees, kinds, flags):
        i = used[d, k] = used.get((d, k), -1) + 1
        factors.append(FactorInput(IntPolynomial(POLYS[d, k][i]), flag))
    return CaseInput(tuple(factors), prime_bound=500)


def digest(report):
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def record_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, recording)
    return calls


@pytest.mark.parametrize(
    "degrees,kinds,flags",
    SIGNATURES,
    ids=["-".join(f"{d}{k}{int(f)}" for d, k, f in zip(*sig)) for sig in SIGNATURES],
)
def test_cold_and_warm_reports_are_byte_identical(degrees, kinds, flags):
    case = signature_case(degrees, kinds, flags)
    cold = run_case(case).to_json()
    warm = run_case(case).to_json()
    assert warm == cold
    structure = run_case(case).hypotheses[2]["details"]
    assert [(e["degree"], e["group"]) for e in structure[:-1]] == list(zip(degrees, kinds))


def test_one_warm_process_gives_every_cold_report():
    # the memo is kept across these calls, forward and then reversed, so an
    # entry keyed too coarsely answers for a signature tuple it was not
    # filled from
    cases = [signature_case(*sig) for sig in MEMO_SIGNATURES]
    cold = []
    for (degrees, kinds, _), case in zip(MEMO_SIGNATURES, cases):
        clear_pipeline_memo()
        report = run_case(case)
        structure = report.hypotheses[2]
        groups = [(e["degree"], e["group"]) for e in structure["details"][:-1]]
        assert groups == list(zip(degrees, kinds)) and structure["passed"]
        cold.append(digest(report))
    clear_pipeline_memo()
    for i in [*range(len(cases)), *reversed(range(len(cases)))]:
        assert digest(run_case(cases[i])) == cold[i], MEMO_SIGNATURES[i]


def test_a_warm_signature_does_no_group_work(monkeypatch):
    first = CaseInput((FactorInput(IntPolynomial((-1, -1, 0, 0, 0, 1)), True),))
    second = CaseInput((FactorInput(IntPolynomial((1, -1, 0, 0, 0, 1)), True),))
    assert run_case(first).asserted
    harvests = record_calls(monkeypatch, cohomology, "_harvest_constraints_f2")
    enumerations = record_calls(monkeypatch, FiniteGroup, "enumerate")
    rep = run_case(second)
    assert rep.asserted and rep.equivariant_audit["group_order"] == 1920
    assert harvests == [] and enumerations == []


def test_a_warm_signature_tuple_does_no_product_work(monkeypatch):
    x3 = [IntPolynomial(c) for c in POLYS[3, "S"]]
    run_case(CaseInput((FactorInput(x3[0], True), FactorInput(x3[1], False))))
    second = CaseInput((FactorInput(x3[2], True), FactorInput(x3[0], False)))
    calls = {
        name: record_calls(monkeypatch, pipeline, name)
        for name in (
            "wedge2_dual_invariants_dim",
            "_cross_hom_dims",
            "point_permutations",
            "h1_pi1_from_points",
        )
    }
    warm = digest(run_case(second))
    assert all(c == [] for c in calls.values()), calls
    clear_pipeline_memo()
    assert digest(run_case(second)) == warm
    assert all(calls.values())


def test_discriminant_runs_once_per_factor(monkeypatch):
    case = signature_case((3, 5), ("S", "S"), (True, False))
    calls = []
    real = galois.discriminant

    def counting(f):
        calls.append(f)
        return real(f)

    for module in (galois, disjoint, pipeline):
        monkeypatch.setattr(module, "discriminant", counting)
    run_case(case)
    assert calls == [f.poly for f in case.factors]


def test_mutating_a_report_leaves_the_next_one_alone():
    case = signature_case((3, 5), ("S", "S"), (True, False))
    first = run_case(case)
    expected = digest(first)
    first.hypotheses[2]["details"][0]["endomorphism_dim"] = 99
    first.hypotheses[3]["details"][1]["h1"] = 99
    first.equivariant_audit["factors"][0]["torsor_class_nonzero"] = False
    first.equivariant_audit["factors"][1]["h1_torsor_group_module"] = 99
    first.hypotheses[4]["details"]["group_order"] = 0
    first.hypotheses[4]["details"]["h1_pi1"] = 99
    first.hypotheses[2]["details"][-1]["decomposition_audit"]["cross_hom_dims"]["0,1"] = 99
    assert digest(run_case(case)) == expected


@pytest.mark.parametrize(
    "name",
    [
        "has_index_l_normal_subgroup",
        "h1_dim",
        "endomorphism_algebra_dim",
        "wedge2_dual_invariants_dim",
        "h1_pi1_from_points",
    ],
)
def test_a_fill_that_raises_is_not_kept(name, monkeypatch):
    case = signature_case((5,), ("S",), (True,))
    expected = digest(run_case(case))
    clear_pipeline_memo()

    def broken(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(pipeline, name, broken)
    with pytest.raises(RuntimeError):
        run_case(case)
    monkeypatch.undo()
    calls = record_calls(monkeypatch, pipeline, name)
    assert digest(run_case(case)) == expected
    assert calls


def test_one_fill_harvests_each_distinct_module_once(monkeypatch):
    # three S_3 factors share one (degree, S/A) module within the fill, so
    # its Z^1 rows are harvested once and reused by stages 4 and 6
    harvests = record_calls(monkeypatch, cohomology, "_harvest_constraints_f2")
    case = signature_case((3, 3, 3), ("S", "S", "S"), (False, False, False))
    assert run_case(case).asserted
    assert len(harvests) == 1


@pytest.mark.parametrize("kind,expected", [("A", 1), ("S", 2)])
def test_one_fill_spins_up_each_distinct_module_once(kind, expected, monkeypatch):
    # an A_7 factor's module is its own alternating restriction; an S_7
    # factor's restriction is a second module.  is_absolutely_simple reaches
    # is_simple through reps, so both names are counted
    calls = []
    real = reps.is_simple

    def counting(m):
        calls.append(m)
        return real(m)

    for module in (pipeline, reps):
        monkeypatch.setattr(module, "is_simple", counting)
    pipeline._signature_outcomes(((7, kind, False),))
    assert len(calls) == expected
    assert all(a != b for i, a in enumerate(calls) for b in calls[i + 1 :])


# ---------------------------------------------------------------------------
# the per-polynomial memos of stages 1 and 2: _certificate and _disc_class

X5_PLUS = IntPolynomial((1, -1, 0, 0, 0, 1))  # x^5 - x + 1: Unknown at bound 2, S_5 at 3


def _pool():
    x3 = [IntPolynomial(c) for c in POLYS[3, "S"]]
    x5 = IntPolynomial(POLYS[5, "S"][0])
    layouts = [((x3[0], x5), 500), ((x3[1], x5), 500), ((x3[2], x3[0]), 500), ((x3[0], x5), 400)]
    return [
        CaseInput(tuple(FactorInput(p, False) for p in polys), prime_bound=bound)
        for polys, bound in layouts
    ]


def test_two_passes_certify_once_per_key_and_factor_once_per_discriminant(monkeypatch):
    pool = _pool()
    certifications = record_calls(monkeypatch, pipeline, "certify_galois")
    factorings = record_calls(monkeypatch, disjoint, "squarefree_kernel")
    cold = [digest(run_case(case)) for case in pool]
    assert [digest(run_case(case)) for case in pool] == cold
    keys = {(f.poly, case.prime_bound) for case in pool for f in case.factors}
    discs = {galois.discriminant(poly) for poly, _ in keys}
    assert sorted(certifications, key=repr) == sorted(keys, key=repr)
    assert sorted(n for (n,) in factorings) == sorted(discs)


def test_a_shifted_cubic_pair_factors_its_discriminant_once(monkeypatch):
    f = IntPolynomial(POLYS[3, "S"][0])
    case = CaseInput((FactorInput(f, False), FactorInput(shifted(f, 3), False)), prime_bound=500)
    factorings = record_calls(monkeypatch, disjoint, "squarefree_kernel")
    report = run_case(case)
    assert report.hypotheses[0]["passed"]
    assert factorings == [(galois.discriminant(f),)]
    classes = report.hypotheses[1]["details"]["classes"]
    assert len(classes) == 2 and classes[0] == classes[1]


def test_the_prime_bound_is_part_of_the_certificate_key():
    cases = [CaseInput((FactorInput(X5_PLUS, True),), prime_bound=b) for b in (2, 3)]
    cold = []
    for case in cases:
        clear_pipeline_memo()
        report = run_case(case)
        cold.append(digest(report))
        assert report.hypotheses[0]["details"][0]["verdict"] == (
            "Unknown" if case.prime_bound == 2 else "SymmetricGroup"
        )
    clear_pipeline_memo()
    for i in (0, 1, 1, 0):
        assert digest(run_case(cases[i])) == cold[i], cases[i].prime_bound


def test_mutating_galois_and_disjointness_details_leaves_the_next_report_alone():
    case = signature_case((3, 5), ("S", "S"), (True, False))
    first = run_case(case)
    expected = digest(first)
    galois_details, disjoint_details = first.hypotheses[0]["details"], first.hypotheses[1]["details"]
    galois_details[0]["witnesses"].append([2, [3], "odd-permutation"])
    galois_details[1]["witnesses"][0][1].append(99)
    for entry in disjoint_details["classes"]:
        entry["support"].append(10**9 + 7)
    assert digest(run_case(case)) == expected


def test_the_per_polynomial_memos_are_bounded():
    # their keys come from outside input, so an unbounded memo would grow for
    # the life of the process
    for memo in (pipeline._certificate, pipeline._disc_class):
        assert memo.cache_info().maxsize == pipeline.MEMO_SIZE
        assert isinstance(pipeline.MEMO_SIZE, int)


X3 = IntPolynomial(POLYS[3, "S"][0])  # x^3 - x - 1


@pytest.mark.parametrize(
    "factors",
    [
        signature_case((3, 5), ("S", "S"), (True, False)).factors,
        # one splitting field: passing stage 2 would assert Picard rank 18
        (FactorInput(X3, False), FactorInput(shifted(X3, 1), False)),
    ],
    ids=["s3-s5", "same-field-cubics"],
)
def test_a_factoring_budget_raise_reaches_run_case(factors, monkeypatch):
    case = CaseInput(factors, prime_bound=500)
    expected = digest(run_case(case))
    clear_pipeline_memo()

    def over_budget(d):
        raise FactorBudgetExceeded(f"cannot split cofactor of {d}")

    monkeypatch.setattr(pipeline, "disc_class", over_budget)
    report = run_case(case)
    check = report.hypotheses[1]
    assert check["name"] == "linear_disjointness" and check["passed"] is False
    assert check["details"]["verdict"] == "HeuristicOnly"
    assert report.asserted is False
    assert report.conclusions["withheld_because"] == ["linear_disjointness"]
    assert report.conclusions["picard_rank"]["value"] is None
    monkeypatch.undo()
    fills = record_calls(monkeypatch, pipeline, "disc_class")
    assert digest(run_case(case)) == expected
    assert len(fills) == len({galois.discriminant(f.poly) for f in factors})


# ---------------------------------------------------------------------------
# a warm report is assembled from memoized fragments, not encoded again

FRAGMENT_MEMOS = ("_certificate", "_disc_class", "_signature_outcomes", "_conclusions")


def _containers(value):
    """Every dict and list in value, through tuples too."""
    found = [value] if isinstance(value, (dict, list)) else []
    items = value.values() if isinstance(value, dict) else value
    if isinstance(value, (dict, list, tuple)):
        for item in items:
            found += _containers(item)
    return found


def test_a_warm_report_fills_no_memo_decodes_nothing_and_encodes_no_memo_value(monkeypatch):
    a, b = IntPolynomial(POLYS[5, "S"][0]), X5_PLUS
    first = CaseInput((FactorInput(a, True), FactorInput(b, True)), prime_bound=500)
    # the same polynomials and signature tuple, in the other order
    swapped = CaseInput((FactorInput(b, True), FactorInput(a, True)), prime_bound=500)
    run_case(first)
    memos = {name: getattr(pipeline, name) for name in FRAGMENT_MEMOS}
    misses = {name: memo.cache_info().misses for name, memo in memos.items()}
    returned = []

    def recording(memo):
        def call(*args):
            value = memo(*args)
            returned.extend(_containers(value))
            return value

        return call

    for name, memo in memos.items():
        monkeypatch.setattr(pipeline, name, recording(memo))
    encoded = record_calls(monkeypatch, pipeline, "report_json")
    fills = {
        name: record_calls(monkeypatch, pipeline, name)
        for name in ("certify_galois", "disc_class", "_module_stage", "_fragment", "numerology")
    }
    loads = record_calls(monkeypatch, pipeline.json, "loads")
    reports = [run_case(first), run_case(swapped)]
    assert {name: memo.cache_info().misses for name, memo in memos.items()} == misses
    assert all(calls == [] for calls in fills.values()), fills
    assert loads == []
    # one encoding per report, of dicts and lists built in this call: no
    # memo entry holds one
    assert returned == [] and len(encoded) == 2
    monkeypatch.undo()
    cold = []
    for case in (first, swapped):
        clear_pipeline_memo()
        cold.append(run_case(case).to_json())
    assert [report.to_json() for report in reports] == cold
