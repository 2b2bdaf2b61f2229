import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummer.errors import DimensionMismatch, EvenDegree, GroupMismatch, MissingCharacter
from kummer.fp import mat_vec, rank
from kummer.groups import (
    FiniteGroup,
    affine,
    alternating_group,
    from_cycles,
    images,
    symmetric_group,
    symplectic_group,
)
from kummer.reps import (
    GModule,
    endomorphism_algebra_dim,
    h0,
    hom_module_dim,
    is_absolutely_simple,
    is_simple,
    permutation_module,
    product_factor_module,
    standard_module,
    wedge2_dual_invariants_dim,
    wedge_square_matrices,
    with_character,
    zero_sum_module,
)

from oracles import (
    brute_force_hom_dim,
    brute_force_wedge2_invariants_dim,
    end_dim_by_rows,
    exhaustive_is_simple,
    h0_by_rows,
    invariant_alternating_form,
    trivial_module,
    wedge2_invariants_by_rows,
)


def trivial_group():
    return FiniteGroup([from_cycles(1, [])], name="1")


def test_standard_module_dims():
    assert standard_module(3, "S").dim == 2
    assert standard_module(5, "S").dim == 4
    assert standard_module(7, "S").dim == 6


def test_trivial_one_dim_simple():
    m = trivial_module(trivial_group(), 1)
    assert is_simple(m) is True
    assert is_absolutely_simple(m) is True


def test_permutation_module_not_simple():
    m = permutation_module(symmetric_group(5))
    assert is_simple(m) is False


def test_standard_a5_simple():
    assert is_simple(standard_module(5, "A")) is True


def test_end_dims():
    assert endomorphism_algebra_dim(standard_module(5, "S")) == 1
    assert endomorphism_algebra_dim(permutation_module(symmetric_group(5))) >= 2
    m = trivial_module(trivial_group(), 3)
    assert endomorphism_algebra_dim(m) == 9


def test_perm_module_end_dim_oracle():
    # direct solve of the commutant system by exhaustion over F_2 (dim 5 -> 2^25
    # is too big, so check spanning set instead: E commuting with both gens)
    m = permutation_module(symmetric_group(5))
    dim = endomorphism_algebra_dim(m)
    # identity and all-ones matrix commute with every permutation matrix
    assert dim == 2


def test_absolute_simplicity():
    assert is_absolutely_simple(standard_module(5, "S")) is True
    assert is_absolutely_simple(standard_module(7, "A")) is True
    # A_3 = Z/3 acting on the 2-dim module has End = F_4
    m3 = standard_module(3, "A")
    assert is_simple(m3) is True
    assert endomorphism_algebra_dim(m3) == 2
    assert is_absolutely_simple(m3) is False
    assert is_absolutely_simple(standard_module(3, "S")) is True


def test_hom_dims():
    m = standard_module(5, "S")
    assert hom_module_dim(m, m) == 1
    t1 = trivial_module(trivial_group(), 1)
    assert hom_module_dim(t1, t1) == 1
    with pytest.raises(GroupMismatch):
        hom_module_dim(m, trivial_module(symmetric_group(4)))


def test_hom_between_nonisomorphic_simple_modules_is_zero():
    # standard module vs sign-twisted trivial piece: use the two simple
    # constituents seen by S_5 over F_2: standard (dim 4) and trivial (dim 1)
    m = standard_module(5, "S")
    t = trivial_module(symmetric_group(5), 1)
    assert hom_module_dim(m, t) == 0
    assert hom_module_dim(t, m) == 0


def test_wedge2_invariants_standard_s5():
    m = with_character(standard_module(5, "S"), [1, 1])
    assert wedge2_dual_invariants_dim(m) == 1
    # exhaustive oracle over all 2^6 functionals on wedge^2
    pairs, wedge = wedge_square_matrices(m)
    count = 0
    for bits in range(1 << len(pairs)):
        f = [(bits >> i) & 1 for i in range(len(pairs))]
        ok = True
        for w in wedge:
            for col in range(len(pairs)):
                img = sum(f[r] * w[r][col] for r in range(len(pairs))) % 2
                if img != f[col]:
                    ok = False
                    break
            if not ok:
                break
        if ok and bits:
            count += 1
    assert count == 2 ** wedge2_dual_invariants_dim(m) - 1


def test_wedge2_product_of_two_disjoint_factors():
    m1 = standard_module(5, "S")
    m2 = standard_module(5, "S")
    prod = product_factor_module([m1, m2])
    prod = with_character(prod, [1] * len(prod.group.generators))
    assert wedge2_dual_invariants_dim(prod) == 2
    # cross Hom contributes zero: the two summands as modules of the product
    from kummer.reps import GModule

    g = prod.group
    k1 = len(m1.group.generators)
    v1 = GModule(g, 4, 2, tuple(list(m1.generator_matrices) + [_eye(4)] * k1))
    v2 = GModule(g, 4, 2, tuple([_eye(4)] * k1 + list(m2.generator_matrices)))
    assert hom_module_dim(v1, v2) == 0


def _eye(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def test_wedge2_dim_one_module():
    m = with_character(trivial_module(symmetric_group(3), 1), [1, 1])
    assert wedge2_dual_invariants_dim(m) == 0


def test_wedge2_missing_character():
    with pytest.raises(MissingCharacter):
        wedge2_dual_invariants_dim(standard_module(5, "S"))


def test_spin_dim_bound():
    from kummer.errors import DimTooLarge

    big = trivial_module(trivial_group(), 25)
    with pytest.raises(DimTooLarge):
        is_simple(big)


def test_spin_dim_bound_admits_its_own_dimension():
    # dim 24 is the last one allowed: 2^24 bytes of marks, and e_0 of the
    # trivial module spins up to a line
    assert is_simple(trivial_module(trivial_group(), 24)) is False


def test_h0_values():
    assert h0(standard_module(5, "S")) == 0
    assert h0(permutation_module(symmetric_group(5))) == 1
    assert h0(trivial_module(trivial_group(), 4)) == 4


def test_invariant_alternating_form_standard_module():
    # witnesses A_d inside Sp(d-1, F_2)
    for d in (5, 7):
        m = standard_module(d, "A")
        form = invariant_alternating_form(m)
        assert form is not None
        # nondegenerate: rank of the form matrix is full
        from kummer.fp import rank

        assert rank([list(r) for r in form], 2) == d - 1


def test_zero_sum_action_consistency():
    # module matrices really implement the permutation action on zero-sum vectors
    d = 5
    m = standard_module(d, "S")
    g = m.group
    for s, mat in zip(g.generators, m.generator_matrices):
        for i in range(d - 1):
            full = [0] * d
            full[i] ^= 1
            full[d - 1] ^= 1
            permuted = [0] * d
            for x in range(d):
                permuted[images(s)[x]] = full[x]
            # in the u-basis a zero-sum vector's coordinates are its first d-1 entries
            u = permuted[: d - 1]
            basis_vec = [1 if t == i else 0 for t in range(d - 1)]
            assert mat_vec([list(r) for r in mat], basis_vec, 2) == u


S3 = symmetric_group(3)
EYE2 = ((1, 0), (0, 1))


@pytest.mark.parametrize(
    "build,error",
    [
        (lambda: GModule(S3, 2, 2, (EYE2,)), DimensionMismatch),  # one matrix, two generators
        (lambda: GModule(S3, 2, 2, (EYE2, ((1, 0),))), DimensionMismatch),
        (lambda: GModule(S3, 2, 2, (EYE2, ((1, 0), (0,)))), DimensionMismatch),
        (lambda: GModule(S3, 2, 2, (EYE2, EYE2), (1,)), DimensionMismatch),
        (lambda: GModule(S3, 2, 3, (EYE2, EYE2), (1, 3)), GroupMismatch),  # 3 = 0 in F_3
        (lambda: GModule(S3, 2, 3, (EYE2, EYE2)).bit_rows(), DimensionMismatch),
        (lambda: zero_sum_module(S3, 4), DimensionMismatch),
        (lambda: standard_module(4, "S"), EvenDegree),
        (lambda: standard_module(1, "S"), EvenDegree),
        (
            lambda: product_factor_module([standard_module(3, "S"), trivial_module(S3, 1, 3)]),
            GroupMismatch,
        ),
    ],
    ids=[
        "matrix-count",
        "matrix-rows",
        "matrix-columns",
        "character-length",
        "character-not-a-unit",
        "bit-rows-off-f2",
        "zero-sum-points",
        "even-degree",
        "degree-one",
        "product-primes",
    ],
)
def test_module_checks_raise_typed_errors(build, error):
    # typed errors, not asserts, so the checks survive python -O
    with pytest.raises(error):
        build()


# ---------------------------------------------------------------------------
# simplicity by orbit representatives against the exhaustive spin-up


def _tautological_sp4_f3():
    sp = symplectic_group(4, 3)
    return GModule(sp, 4, 3, tuple(affine(s, sp.blocks[0])[0] for s in sp.generators))


def _named_modules():
    for d in (3, 5, 7, 9):
        yield from (standard_module(d, kind) for kind in "SA")
    yield _tautological_sp4_f3()
    for d in range(2, 7):
        yield from (permutation_module(symmetric_group(d), l) for l in (2, 3))
    yield permutation_module(alternating_group(5))
    yield trivial_module(trivial_group(), 1, 3)


@pytest.mark.parametrize(
    "m", list(_named_modules()), ids=lambda m: f"{m.group.name}-F{m.l}^{m.dim}"
)
def test_is_simple_matches_exhaustive_spin_up_on_named_modules(m):
    assert is_simple(m) == exhaustive_is_simple(m)


@st.composite
def random_modules(draw):
    """(module, split) over F_2 or F_3, dim <= 5, with 1 to 3 random invertible
    generator matrices.  With split > 0 every matrix is block upper
    triangular, so the first split coordinates span a proper submodule."""
    l = draw(st.sampled_from((2, 3)))
    dim = draw(st.integers(min_value=1, max_value=5))
    split = draw(st.integers(min_value=0, max_value=dim - 1))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    mats = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        while True:
            m = [[rng.randrange(l) for _ in range(dim)] for _ in range(dim)]
            for r in range(split, dim):
                m[r][:split] = [0] * split
            if rank(m, l) == dim:
                break
        mats.append(m)
    group = FiniteGroup([from_cycles(1, [])] * len(mats), name=f"free{len(mats)}")
    return GModule(group, dim, l, tuple(mats)), split


@settings(max_examples=150, deadline=None)
@given(random_modules())
def test_is_simple_matches_exhaustive_spin_up_on_random_modules(case):
    m, split = case
    assert is_simple(m) == exhaustive_is_simple(m)
    if split:
        assert not is_simple(m)


def test_is_simple_spins_up_one_vector_per_orbit(monkeypatch):
    # Sp(4, F_3) is transitive on the 80 nonzero vectors of F_3^4; S_7 has
    # three orbits on the 63 of its standard module, the even-weight vectors
    # of F_2^7, one per weight 2, 4 and 6
    from kummer import reps

    spins = []
    real = reps._spins_to_full

    def counting(v, mats, dim, l):
        spins.append(v)
        return real(v, mats, dim, l)

    monkeypatch.setattr(reps, "_spins_to_full", counting)
    assert is_simple(_tautological_sp4_f3()) and len(spins) == 1
    spins.clear()
    assert is_simple(standard_module(7, "S")) and len(spins) == 3


def test_is_simple_marks_cost_one_byte_per_vector():
    # S_13's standard module has 2^12 vectors: the marks are 4,096 bytes,
    # where a list of 2^12 entries would take 8 bytes a pointer alone
    m = standard_module(13, "S")
    tracemalloc.start()
    try:
        assert is_simple(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**12


# ---------------------------------------------------------------------------
# End, H^0 and the wedge-square invariants as Hom dimensions, against the
# former row builders and a count of every candidate map


@pytest.mark.parametrize(
    "m", list(_named_modules()), ids=lambda m: f"{m.group.name}-F{m.l}^{m.dim}"
)
def test_hom_dimensions_match_the_former_row_builders_on_named_modules(m):
    assert endomorphism_algebra_dim(m) == end_dim_by_rows(m)
    assert h0(m) == h0_by_rows(m)
    k = len(m.group.generators)
    for chi in {(1,) * k, (m.l - 1,) * k}:
        twisted = with_character(m, chi)
        assert wedge2_dual_invariants_dim(twisted) == wedge2_invariants_by_rows(twisted)


def _invertible(rng, dim, l):
    while True:
        m = [[rng.randrange(l) for _ in range(dim)] for _ in range(dim)]
        if rank(m, l) == dim:
            return m


@st.composite
def module_pairs(draw):
    """(m, n) on one group of 1 to 3 generators, of dim <= 3 over F_2 or
    <= 2 over F_3, with random invertible generator matrices; m carries a
    random unit character (over F_2 the trivial one)."""
    l = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(min_value=1, max_value=3))
    dims = st.integers(min_value=0, max_value=3 if l == 2 else 2)
    dm, dn = draw(dims), draw(dims)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    group = FiniteGroup([from_cycles(1, [])] * k, name=f"free{k}")
    chi = tuple(rng.randrange(1, l) for _ in range(k))
    m = GModule(group, dm, l, tuple(_invertible(rng, dm, l) for _ in range(k)), chi)
    n = GModule(group, dn, l, tuple(_invertible(rng, dn, l) for _ in range(k)))
    return m, n


@settings(max_examples=150, deadline=None)
@given(module_pairs())
def test_hom_dimensions_match_brute_force_on_random_modules(pair):
    m, n = pair
    group, l = m.group, m.l
    assert hom_module_dim(m, n) == brute_force_hom_dim(m, n)
    assert hom_module_dim(n, m) == brute_force_hom_dim(n, m)
    assert endomorphism_algebra_dim(m) == brute_force_hom_dim(m, m)
    assert h0(m) == brute_force_hom_dim(trivial_module(group, 1, l), m)
    wedge_dim = wedge2_dual_invariants_dim(m)
    assert wedge_dim == brute_force_wedge2_invariants_dim(m)
    if m.dim >= 2:
        pairs, wedge = wedge_square_matrices(m)
        chi = GModule(group, 1, l, tuple(((c,),) for c in m.character))
        assert wedge_dim == brute_force_hom_dim(GModule(group, len(pairs), l, wedge), chi)


def test_end_h0_and_wedge_invariants_each_solve_one_hom_system(monkeypatch):
    from kummer import reps

    calls = []
    real = reps.hom_module_dim

    def recording(m, n):
        calls.append((m.dim, n.dim))
        return real(m, n)

    monkeypatch.setattr(reps, "hom_module_dim", recording)
    m = with_character(standard_module(5, "S"), [1, 1])
    for f, shapes in (
        (endomorphism_algebra_dim, (4, 4)),
        (h0, (1, 4)),
        (wedge2_dual_invariants_dim, (6, 1)),
    ):
        calls.clear()
        f(m)
        assert calls == [shapes]
