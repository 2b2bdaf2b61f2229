"""The pipeline's per-process memo of factor facts: a warm memo gives the
same report bytes as a cold one, does no group work again, hands out no
shared dicts, and keeps nothing from a fill that raised."""

import hashlib

import pytest

from kummer import cohomology, pipeline
from kummer.errors import ActionMismatch
from kummer.galois import IntPolynomial
from kummer.groups import FiniteGroup
from kummer.pipeline import CaseInput, FactorInput, run_case
from kummer.reps import GModule, standard_module
from test_equivariant_stage import SIGNATURES

# polynomials with Galois group S_d or A_d, distinct ones per degree
POLYS = {
    (3, "S"): [(-1, -1, 0, 1), (1, 1, 0, 1), (3, -1, 0, 1)],
    (5, "S"): [(-1, -1, 0, 0, 0, 1)],
    (5, "A"): [(16, 20, 0, 0, 0, 1)],
    (7, "S"): [(-1, -1, 0, 0, 0, 0, 0, 1)],
    (7, "A"): [(1, 0, 0, 1, -1, -3, 0, 1)],
}


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


def test_a_warm_signature_does_no_group_work(monkeypatch):
    first = CaseInput((FactorInput(IntPolynomial((-1, -1, 0, 0, 0, 1)), True),))
    second = CaseInput((FactorInput(IntPolynomial((1, -1, 0, 0, 0, 1)), True),))
    assert run_case(first).asserted
    harvests = record_calls(monkeypatch, cohomology, "_harvest_constraints_f2")
    enumerations = record_calls(monkeypatch, FiniteGroup, "enumerate")
    rep = run_case(second)
    assert rep.asserted and rep.equivariant_audit["group_order"] == 1920
    assert harvests == [] and enumerations == []


def test_mutating_a_report_leaves_the_next_one_alone():
    case = signature_case((3, 5), ("S", "S"), (True, False))
    first = run_case(case)
    expected = digest(first)
    first.hypotheses[2]["details"][0]["endomorphism_dim"] = 99
    first.hypotheses[3]["details"][1]["h1"] = 99
    first.equivariant_audit["factors"][0]["torsor_class_nonzero"] = False
    first.equivariant_audit["factors"][1]["h1_torsor_group_module"] = 99
    first.hypotheses[4]["details"]["group_order"] = 0
    assert digest(run_case(case)) == expected


@pytest.mark.parametrize(
    "name", ["has_index_l_normal_subgroup", "h1_dim", "cocycle_class_is_nonzero"]
)
def test_a_fill_that_raises_is_not_kept(name, monkeypatch):
    case = signature_case((5,), ("S",), (True,))
    expected = digest(run_case(case))
    for memo in (pipeline._factor_facts, pipeline._torsor_facts):
        memo.cache_clear()

    def broken(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(pipeline, name, broken)
    with pytest.raises(RuntimeError):
        run_case(case)
    monkeypatch.undo()
    calls = record_calls(monkeypatch, pipeline, name)
    assert digest(run_case(case)) == expected
    assert calls


def test_the_memo_answers_only_for_a_standard_module():
    # the equivariant stage keys the memo by the module's signature, so a
    # module with other matrices must be refused, not answered for S_5
    case = signature_case((5,), ("S",), (True,))
    m = standard_module(5, "S")
    a, b = m.generator_matrices
    with pytest.raises(ActionMismatch):
        pipeline._equivariant_stage(case, [GModule(m.group, m.dim, m.l, (b, a))])
