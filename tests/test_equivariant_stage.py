"""Stages 5 and 6 without the product group: the Schreier-graph H^1(P, Pi_1)
against the lattice path, and the factorwise stage against the full-product
oracle."""

import json
import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummer import pipeline
from kummer.errors import EngineError
from kummer.galois import IntPolynomial
from kummer.groups import FiniteGroup
from kummer.picard import (
    build_nikulin_lattice,
    h1_pi1_from_points,
    h1_two_torsion_dim,
    lattice_action_matrices,
)
from kummer.pipeline import CaseInput, FactorInput, parse_case, run_case
from kummer.reps import standard_module
from oracles import full_product_equivariant_stage

CASES = Path(__file__).resolve().parent.parent / "cases"


def lattice_h1_pi1(perms):
    model = build_nikulin_lattice({16: 2, 64: 3}[len(perms[0])])
    return h1_two_torsion_dim([lattice_action_matrices(model.pi1, p) for p in perms])


def translations(n, shifts):
    """Generators x -> x ^ v of F_2^m on n = 2^m points."""
    return [[x ^ v for x in range(n)] for v in shifts]


def on_blocks(n, block_perms):
    """One generator acting on consecutive blocks of the n points."""
    out, off = [], 0
    for perm in block_perms:
        out += [off + y for y in perm]
        off += len(perm)
    assert off == n
    return out


CYCLE16 = [(x + 1) % 16 for x in range(16)]
SWAP01 = [1, 0] + list(range(2, 16))

SCHREIER_EXAMPLES = {
    # S_16: the sign is nonzero on every point stabiliser
    "s16": ([SWAP01, CYCLE16], 0),
    # a translation on half the points fixes the other half
    "fixed-points": ([on_blocks(16, [translations(8, [1])[0], list(range(8))])], 0),
    "free-involution": (translations(16, [8]), 1),
    "cyclic-of-order-16": ([CYCLE16], 1),
    # the identity generator lies in every stabiliser
    "translations-and-identity": (translations(64, [1, 2]) + [list(range(64))], 2),
    "free-(Z/2)^3": (translations(16, [1, 2, 4]), 3),
    # two orbits of 8, each a free (Z/2)^3 orbit, with shifts that agree
    "two-orbits": (
        [on_blocks(16, [translations(8, [v])[0]] * 2) for v in (1, 2, 4)],
        3,
    ),
    # two orbits whose stabilisers differ: (Z/2)^2 free on one, with kernel on the other
    "two-orbits-mixed": (
        [
            on_blocks(16, [translations(8, [1])[0], translations(8, [1])[0]]),
            on_blocks(16, [translations(8, [2])[0], translations(8, [1])[0]]),
        ],
        1,
    ),
}


@pytest.mark.parametrize("name", SCHREIER_EXAMPLES)
def test_schreier_h1_pi1_examples(name):
    perms, expected = SCHREIER_EXAMPLES[name]
    assert h1_pi1_from_points(perms) == expected
    assert lattice_h1_pi1(perms) == expected


@st.composite
def permutation_groups(draw):
    """1-3 permutations of 16 or 64 points: random ones with fixed points, or
    translations of F_2^m on blocks (several orbits, free or not), relabelled
    by a random permutation."""
    n = draw(st.sampled_from([16, 64]))
    k = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        perms = []
        for _ in range(k):
            moved = rng.sample(range(n), rng.randrange(n + 1))
            image = moved[:]
            rng.shuffle(image)
            perm = list(range(n))
            for a, b in zip(moved, image):
                perm[a] = b
            perms.append(perm)
    else:
        m = draw(st.integers(1, n.bit_length() - 1))
        size = 1 << m
        perms = [
            on_blocks(n, [translations(size, [rng.randrange(size)])[0] for _ in range(n // size)])
            for _ in range(k)
        ]
    sigma = list(range(n))
    rng.shuffle(sigma)
    inverse = [0] * n
    for x, y in enumerate(sigma):
        inverse[y] = x
    return [[sigma[perm[inverse[x]]] for x in range(n)] for perm in perms]


@settings(max_examples=60, deadline=None)
@given(permutation_groups())
def test_schreier_h1_pi1_matches_the_lattice_path(perms):
    assert h1_pi1_from_points(perms) == lattice_h1_pi1(perms)


def _signatures():
    """Every (degree, S/A, torsor flag) layout on degrees {5}, {7}, {3,3},
    {3,5}, {3,3,3}; degree 3 only as S_3.  2^6 x| S_7 is left to the
    example3 audit, which enumerates it."""
    for degrees in ((5,), (7,), (3, 3), (3, 5), (3, 3, 3)):
        kinds = product(*[("S",) if d == 3 else ("S", "A") for d in degrees])
        for ks, flags in product(kinds, product((False, True), repeat=len(degrees))):
            if (degrees, ks, flags) != ((7,), ("S",), (True,)):
                yield degrees, ks, flags


SIGNATURES = list(_signatures())


def _stage_inputs(degrees, kinds, flags):
    polys = [IntPolynomial((-1, -1) + (0,) * (d - 2) + (1,)) for d in degrees]
    case = CaseInput(tuple(FactorInput(p, f) for p, f in zip(polys, flags)))
    return case, [standard_module(d, k) for d, k in zip(degrees, kinds)]


@pytest.mark.parametrize(
    "degrees,kinds,flags",
    SIGNATURES,
    ids=["-".join(f"{d}{k}{int(f)}" for d, k, f in zip(*sig)) for sig in SIGNATURES],
)
def test_equivariant_stage_matches_the_full_product_oracle(degrees, kinds, flags):
    assert len(SIGNATURES) == 27
    _, modules = _stage_inputs(degrees, kinds, flags)
    fast = pipeline._equivariant_stage(tuple(zip(degrees, kinds, flags)), modules)
    slow = full_product_equivariant_stage(*_stage_inputs(degrees, kinds, flags))
    assert fast == slow


def record_enumerations(monkeypatch):
    enumerated = []
    real = FiniteGroup.enumerate

    def recording(group):
        enumerated.append(group.name)
        return real(group)

    monkeypatch.setattr(FiniteGroup, "enumerate", recording)
    return enumerated


def test_two_jacobians_never_enumerates_the_product(monkeypatch):
    enumerated = record_enumerations(monkeypatch)
    rep = run_case(parse_case(json.loads((CASES / "two_jacobians.json").read_text())))
    assert rep.asserted
    assert "S5" in enumerated and not any(" x " in name for name in enumerated)


def test_a_septic_torsor_never_enumerates_its_torsor_group(monkeypatch):
    # the values the example3 audit finds by enumerating 2^6 x| S_7:
    # H^1(P, V) = H^1(S_7, V) + End(V) = 0 + 1, and the torsor class is nonzero
    enumerated = record_enumerations(monkeypatch)
    x7 = IntPolynomial((-1, -1, 0, 0, 0, 0, 0, 1))
    rep = run_case(CaseInput((FactorInput(x7, True),)))
    assert rep.asserted
    assert rep.equivariant_audit["group_order"] == 322_560
    [line] = rep.equivariant_audit["factors"]
    assert line["h1_torsor_group_module"] == 1 and line["torsor_class_nonzero"] is True
    assert "S7" in enumerated and not any(" x| " in name for name in enumerated)


def test_invariants_in_a_factor_module_fail_closed(monkeypatch):
    # with V_i^{G_i} != 0 the factorwise H^1 would drop Hom(P', V_i^{P_i})
    monkeypatch.setattr(pipeline, "h0", lambda m: 1)
    case = parse_case(json.loads((CASES / "two_jacobians.json").read_text()))
    with pytest.raises(EngineError) as excinfo:
        run_case(case)
    assert excinfo.traceback[-1].name == "_equivariant_stage"
