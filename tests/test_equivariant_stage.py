"""Stages 5 and 6 without the product group: the Schreier-graph H^1(P, Pi_1)
against the lattice path, its sum over the factors of a direct product, the
factorwise stage against the full-product oracle, and each part of the
stage's two checks made false on its own."""

import json
import math
import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummer import pipeline, reps
from kummer.cohomology import validate_module
from kummer.errors import ActionMismatch, EngineError
from kummer.galois import IntPolynomial
from kummer.groups import FiniteGroup, symmetric_group
from kummer.picard import (
    build_nikulin_lattice,
    h1_pi1_from_points,
    h1_two_torsion_dim,
    lattice_action_matrices,
)
from kummer.pipeline import CaseInput, FactorInput, parse_case, run_case
from kummer.reps import GModule, standard_module
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


def test_invariants_in_a_lone_factor_module_withhold_without_raising(monkeypatch):
    # with one factor P = P_1, so invariants drop nothing from H^1(P, V_1):
    # stage 3 fails on them and nothing raises
    monkeypatch.setattr(pipeline, "h0", lambda m: 1)
    rep = run_case(parse_case(json.loads((CASES / "example1.json").read_text())))
    assert rep.conclusions["withheld_because"] == ["module_structure"]


# ---------------------------------------------------------------------------
# H^1(P, Pi_1) of a direct product, factor by factor


def product_action(factors):
    """Generators of the direct product of permutation groups, each factor's
    acting on its own coordinate of the product of the point sets (mixed
    radix, the first factor lowest), so the point 0 is every factor's 0."""
    total = math.prod(len(perms[0]) for perms in factors)
    out, stride = [], 1
    for perms in factors:
        n = len(perms[0])
        for perm in perms:
            moved = [perm[x // stride % n] - x // stride % n for x in range(total)]
            out.append([x + step * stride for x, step in enumerate(moved)])
        stride *= n
    return out


FREE_Z2 = [[1, 0]]
S3_ON_3 = [[1, 0, 2], [1, 2, 0]]
Z4_ON_4 = [[1, 2, 3, 0]]

PRODUCT_EXAMPLES = {
    # Z/2 x Z/4 acts freely: every character of it survives
    "free-z2-x-free-z4": ([FREE_Z2, Z4_ON_4], 2),
    # the sign of S_3 is nonzero on a point stabiliser, so only Z/2's survives
    "s3-x-free-z2": ([S3_ON_3, FREE_Z2], 1),
    "free-z2-cubed": ([FREE_Z2] * 3, 3),
}


@pytest.mark.parametrize("name", PRODUCT_EXAMPLES)
def test_h1_pi1_of_product_examples(name):
    factors, expected = PRODUCT_EXAMPLES[name]
    assert h1_pi1_from_points(product_action(factors)) == expected
    assert sum(h1_pi1_from_points(perms) for perms in factors) == expected


@st.composite
def small_permutation_groups(draw):
    """1-3 permutations of 2-8 points, drawn as in ``permutation_groups``:
    random ones with fixed points, or translations of F_2^m on blocks of a
    power of 2 points, relabelled by a random permutation."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        n = draw(st.integers(2, 8))
        perms = []
        for _ in range(k):
            moved = rng.sample(range(n), rng.randrange(n + 1))
            perm = list(range(n))
            for a, b in zip(moved, rng.sample(moved, len(moved))):
                perm[a] = b
            perms.append(perm)
    else:
        n = draw(st.sampled_from([2, 4, 8]))
        size = 1 << draw(st.integers(1, n.bit_length() - 1))
        perms = [
            on_blocks(n, [translations(size, [rng.randrange(size)])[0] for _ in range(n // size)])
            for _ in range(k)
        ]
    sigma = rng.sample(range(n), n)
    inverse = sorted(range(n), key=sigma.__getitem__)
    return [[sigma[perm[inverse[x]]] for x in range(n)] for perm in perms]


@settings(max_examples=100, deadline=None)
@given(st.lists(small_permutation_groups(), min_size=2, max_size=3))
def test_h1_pi1_of_a_direct_product_is_the_sum_over_its_factors(factors):
    whole = product_action(factors)
    assert h1_pi1_from_points(whole) == sum(h1_pi1_from_points(perms) for perms in factors)
    fixes0 = all(perm[0] == 0 for perms in factors for perm in perms)
    assert all(perm[0] == 0 for perm in whole) == fixes0


def record_arguments(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


def test_the_verdict_path_acts_with_one_factor_group_at_a_time(monkeypatch):
    # stage 5 builds no product of the P_i: each one acts on its own one
    # F_2 block of 2^dim points; the one product on the verdict path, stage
    # 4's in reps, is of the G_i, which carry no F_2 block
    acting = record_arguments(monkeypatch, pipeline, "point_permutations")
    products = record_arguments(monkeypatch, reps, "direct_product")
    for degrees, kinds, flags in SIGNATURES:
        _, modules = _stage_inputs(degrees, kinds, flags)
        pipeline._equivariant_stage(tuple(zip(degrees, kinds, flags)), modules)
    for name in ("example1", "two_jacobians"):
        assert run_case(parse_case(json.loads((CASES / f"{name}.json").read_text()))).asserted
    assert not hasattr(pipeline, "direct_product")
    assert all(not group.blocks for groups in products for group in groups)
    assert len(acting) > len(SIGNATURES)
    assert all(len(group.blocks) == 1 for group, in acting), [g.blocks for g, in acting]


# ---------------------------------------------------------------------------
# each part of pi1_ok and pic_ok false on its own


def _with(h1_pi1=None, fixes0=None, **bumps):
    """An edit of ``_torsor_factor``'s facts: h1_pi1 or fixes0 replaced, and
    each named stage 6 line value moved by the given amount."""

    def edit(order, line, h1, fixes):
        line = {**line, **{key: line[key] + by for key, by in bumps.items()}}
        return order, line, h1 if h1_pi1 is None else h1_pi1, fixes if fixes0 is None else fixes0

    return edit


# factors x^3 (V of dim 2) and x^5 (dim 4), both S_d: the torsor flags, the
# edit per V_i's dim, and the (pi1_ok, pic_ok) the stage must return.
# assembled == 0 follows from pi1_ok and every line's h1_pic_factor_model == 0,
# so no edit makes it the one false part; "factor-model-nonzero" makes both
# false.
STAGE_PARTS = {
    "h1-pi1-nonzero": ((True, False), {4: _with(h1_pi1=1)}, (False, False)),
    "fixes-0-false-every-torsor-trivial": (
        (False, False),
        {2: _with(fixes0=False)},
        (False, False),
    ),
    "fixes-0-false-a-torsor-nontrivial": ((True, False), {4: _with(fixes0=False)}, (True, True)),
    "torsor-module-off-expected": (
        (True, False),
        {2: _with(h1_torsor_group_module=1)},
        (True, False),
    ),
    "factor-models-cancel": (
        (True, False),
        {2: _with(h1_pic_factor_model=1), 4: _with(h1_pic_factor_model=-1)},
        (True, False),
    ),
    "factor-model-nonzero": ((False, True), {2: _with(h1_pic_factor_model=1)}, (True, False)),
}


@pytest.mark.parametrize("name", STAGE_PARTS)
def test_each_part_of_stages_5_and_6_decides_alone(monkeypatch, name):
    flags, edits, expected = STAGE_PARTS[name]
    real = pipeline._torsor_factor
    monkeypatch.setattr(
        pipeline,
        "_torsor_factor",
        lambda mod, flag: edits.get(mod.dim, lambda *facts: facts)(*real(mod, flag)),
    )
    sigs = ((3, "S", flags[0]), (5, "S", flags[1]))
    (pi1_ok, pi1), (pic_ok, pic) = pipeline._equivariant_stage(
        sigs, [standard_module(3, "S"), standard_module(5, "S")]
    )
    assert (pi1_ok, pic_ok) == expected, (pi1, pic)


def test_a_translation_orbit_that_spans_only_over_f3_fails_closed():
    # a genuine F_2[S_2]-module on which e_0 spans only a plane; the same 0/1
    # matrix spans all of F_3^3 from e_0, so the spin-up must be over F_2
    b = ((0, 1, 0), (1, 0, 0), (1, 1, 1))
    mod = GModule(symmetric_group(2), 3, 2, (b, b))
    validate_module(mod)
    with pytest.raises(ActionMismatch):
        pipeline._torsor_factor(mod, True)
