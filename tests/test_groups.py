import re
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummer.errors import CapExceeded, DimensionMismatch, EvenDegree, GroupCheckFailed, InputError
from kummer.groups import (
    FiniteGroup,
    _primitive_root,
    affine,
    alternating_group,
    direct_product,
    elementary_l_quotient_kernel,
    from_cycles,
    general_symplectic_group,
    group_order_formula,
    has_index_l_normal_subgroup,
    images,
    mul,
    permutation,
    semidirect,
    stabiliser_chain,
    symmetric_group,
    symplectic_group,
    transvection,
)
from kummer import groups
from kummer.lattice import Lattice
from kummer.pipeline import audit_example_1_odd, audit_example_2_goursat

from oracles import DirectElement as ODirect
from oracles import element_orders
from oracles import FpMat
from oracles import Perm as OPerm
from oracles import SemidirectElement as OSemidirect
from oracles import oracle_bfs
from oracles import TwoPassChain
from oracles import trivial_module, twisted_torsor_group


def standard_action_mats(d):
    """Zero-sum module matrices for the S_d / A_d generators, packed rows."""
    from kummer.reps import standard_module

    return standard_module(d, "S").generator_matrices


def test_s5_order():
    assert symmetric_group(5).order() == 120


def test_a5_order():
    assert alternating_group(5).order() == 60


def test_sp4_f2_order_matches_formula():
    g = symplectic_group(4, 2)
    assert g.order() == 720
    assert group_order_formula("Sp", 4, 2) == 720


def test_sp4_f3_formula():
    assert group_order_formula("Sp", 4, 3) == 51840
    assert group_order_formula("PSp", 4, 3) == 25920
    assert group_order_formula("GSp", 4, 3) == 103680


def test_enumeration_deterministic():
    def build():
        return FiniteGroup(
            [from_cycles(5, [(0, 1)]), from_cycles(5, [(0, 1, 2, 3, 4)])]
        ).enumerate()

    g1, g2 = build(), build()
    assert g1.elements == g2.elements
    assert g1.edges == g2.edges
    assert g1.parents == g2.parents


def test_enumeration_generator_order_invariant():
    g1 = FiniteGroup([from_cycles(5, [(0, 1)]), from_cycles(5, [(0, 1, 2, 3, 4)])])
    g2 = FiniteGroup([from_cycles(5, [(0, 1, 2, 3, 4)]), from_cycles(5, [(0, 1)])])
    s1 = set(g1.enumerate().elements)
    s2 = set(g2.enumerate().elements)
    assert s1 == s2


def test_identity_is_element_zero():
    g = symmetric_group(4).enumerate()
    assert g.elements[0] == g.identity()


def test_semidirect_s3():
    from kummer.reps import standard_module

    m = standard_module(3, "S")
    g = semidirect(m)
    assert g.order() == 4 * 6


def test_semidirect_s5_order_1920():
    from kummer.reps import standard_module

    m = standard_module(5, "S")
    g = semidirect(m)
    assert g.order() == 1920


def test_semidirect_zero_dim_isomorphic():
    from kummer.reps import standard_module

    m = standard_module(3, "S")
    g0 = semidirect(trivial_module(m.group, 0))
    base = m.group
    assert g0.order() == base.order()
    # the sorted orders tell S_3 (1,2,2,2,3,3) from C_6 (1,2,3,3,6,6), which
    # order and exponent cannot
    assert element_orders(g0) == element_orders(base)


def test_semidirect_dimension_mismatch():
    # F_2^dim x| G needs an F_2 action: an F_3 module has no packed rows
    from kummer.reps import permutation_module

    with pytest.raises(DimensionMismatch):
        semidirect(permutation_module(symmetric_group(3), 3))


def test_has_index_2_normal_subgroup():
    assert has_index_l_normal_subgroup(symmetric_group(5), 2) is True
    assert has_index_l_normal_subgroup(alternating_group(5), 2) is False


def test_index_l_known_abelianizations():
    # S_d -> Z/2, A_d (d >= 5) -> trivial, for l in {2, 3, 5}
    for l in (2, 3, 5):
        assert has_index_l_normal_subgroup(symmetric_group(4), l) is (l == 2)
        assert has_index_l_normal_subgroup(symmetric_group(5), l) is (l == 2)
        assert has_index_l_normal_subgroup(alternating_group(5), l) is False


def test_cap_exceeded_immediately_for_known_large_group():
    g = general_symplectic_group(4, 5)
    assert g.known_order == group_order_formula("GSp", 4, 5)
    assert g.known_order > 2_000_000
    with pytest.raises(CapExceeded):
        g.enumerate()


def test_transvections_preserve_form():
    # constructor asserts the symplectic condition internally
    transvection((1, 0, 0, 0), 3, 4)
    transvection((1, 2, 1, 0), 3, 4)


def test_fpmat_inverse():
    m = FpMat(3, [[1, 2], [1, 1]])
    assert m * m.inverse() == FpMat.identity(3, 2)


def test_direct_product_order():
    g = direct_product(symmetric_group(3), symmetric_group(4))
    assert g.order() == 6 * 24


def test_soundness_checks_raise_typed_errors():
    from kummer.groups import _check_form, symplectic_form

    with pytest.raises(GroupCheckFailed):
        FiniteGroup([])
    with pytest.raises(GroupCheckFailed):
        FiniteGroup([from_cycles(3, [(0, 1)]), from_cycles(4, [(0, 1)])])
    with pytest.raises(GroupCheckFailed):
        FiniteGroup(symmetric_group(4).generators, known_order=12).enumerate()
    scale = [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(GroupCheckFailed):
        _check_form(scale, symplectic_form(4), 3, 1)


def test_more_than_256_points_fails_closed_at_enumerate():
    # 2^8 x| S_3 has order 1536, far below the cap, but needs 256 + 3 points
    s3 = symmetric_group(3)
    g = semidirect(trivial_module(s3, 8))
    assert g.degree == 259 and g.known_order == 1536
    with pytest.raises(CapExceeded):
        g.enumerate()


def test_stabiliser_chain_takes_256_points_and_refuses_more():
    # the chain pads every element to 256 points: a 256-cycle fits, and
    # 2^8 x| S_3 on 259 points is refused before any sift
    c256 = stabiliser_chain(FiniteGroup([from_cycles(256, [tuple(range(256))])]))
    assert c256.order == 256 and len(c256.hom_basis(2)) == 1
    s3 = symmetric_group(3)
    with pytest.raises(CapExceeded):
        stabiliser_chain(semidirect(trivial_module(s3, 8)))


# differential checks against the naive element types in tests/oracles.py:
# same elements in the same BFS order, same Cayley edges, same BFS tree


def _assert_bfs_matches(group, oracle_gens, oracle_identity, key_of):
    keys, edges, parents = oracle_bfs(oracle_gens, oracle_identity)
    group.enumerate()
    assert [key_of(x) for x in group.elements] == keys
    assert group.edges == edges
    assert group.parents == parents


def _perm_key(x, off=0, n=None):
    img = images(x)[off : off + n if n else None]
    return ("p", tuple(y - off for y in img))


def _affine_key(x, dim, gdeg, off=0):
    # V's 2^dim points, then the acting group's gdeg points
    _, v = affine(x, (off, dim, 2))
    packed = sum(b << i for i, b in enumerate(v))
    return ("sd", packed, _perm_key(x, off + (1 << dim), gdeg))


def _oracle_affine_gens(mod, translations, cocycle=None):
    ident = OPerm.identity(mod.group.degree)
    eye = [[1 if i == j else 0 for j in range(mod.dim)] for i in range(mod.dim)]
    gens = [OSemidirect(1 << i, ident, eye) for i in range(translations)]
    for j, s in enumerate(mod.group.generators):
        c = cocycle[j] if cocycle else (0,) * mod.dim
        packed = sum(b << i for i, b in enumerate(c))
        gens.append(OSemidirect(packed, OPerm(images(s)), mod.generator_matrices[j]))
    return gens


def test_oracle_bfs_symmetric_and_alternating():
    s5 = [OPerm.from_cycles(5, [(0, 1)]), OPerm.from_cycles(5, [(0, 1, 2, 3, 4)])]
    _assert_bfs_matches(symmetric_group(5), s5, OPerm.identity(5), _perm_key)
    a7 = [OPerm.from_cycles(7, [(0, 1, 2)]), OPerm.from_cycles(7, [tuple(range(7))])]
    _assert_bfs_matches(alternating_group(7), a7, OPerm.identity(7), _perm_key)


def test_oracle_bfs_sp4_f2_on_16_points():
    from kummer.groups import _SP4_DIRECTIONS

    g = symplectic_group(4, 2)
    assert g.degree == 16
    gens = [FpMat(2, transvection(v, 2, 4)) for v in _SP4_DIRECTIONS]
    _assert_bfs_matches(
        g, gens, FpMat.identity(2, 4), lambda x: ("m", 2, affine(x, g.blocks[0])[0])
    )
    assert g.order() == 720


def test_oracle_bfs_semidirect_plain_twisted_and_linear_lift():
    from kummer.picard import torsor_factor_group
    from kummer.reps import standard_module

    m = standard_module(5, "S")
    ident = OSemidirect(0, OPerm.identity(5), [[int(i == j) for j in range(4)] for i in range(4)])

    def key(x):
        return _affine_key(x, 4, 5)

    _assert_bfs_matches(semidirect(m), _oracle_affine_gens(m, 4), ident, key)
    twist = [(1, 0, 1, 0), (0, 1, 1, 0)]
    twisted = twisted_torsor_group(m, twist)
    _assert_bfs_matches(twisted, _oracle_affine_gens(m, 1, twist), ident, key)
    assert twisted.order() == 1920
    lift = torsor_factor_group(m, False)
    _assert_bfs_matches(lift, _oracle_affine_gens(m, 0), ident, key)
    assert lift.order() == 120


def test_oracle_bfs_two_factor_direct_product():
    from kummer.picard import torsor_factor_group
    from kummer.reps import standard_module

    m = standard_module(3, "S")
    g = direct_product(torsor_factor_group(m, True), symmetric_group(4))
    assert g.blocks == ((0, 2, 2),)
    eye = [[1, 0], [0, 1]]
    pad = OPerm.identity(4)
    gens = [ODirect([a, pad]) for a in _oracle_affine_gens(m, 1)]
    lin = OSemidirect(0, OPerm.identity(3), eye)
    s4 = [OPerm.from_cycles(4, [(0, 1)]), OPerm.from_cycles(4, [(0, 1, 2, 3)])]
    gens += [ODirect([lin, b]) for b in s4]
    ident = ODirect([lin, pad])
    _assert_bfs_matches(
        g, gens, ident, lambda x: ("x", _affine_key(x, 2, 3), _perm_key(x, 7, 4))
    )
    assert g.order() == 24 * 24


@pytest.mark.parametrize(
    "build,args,error",
    [
        (alternating_group, (4,), EvenDegree),
        (alternating_group, (1,), EvenDegree),
        (group_order_formula, ("Sp", 3, 3), InputError),
        (group_order_formula, ("SL", 4, 3), InputError),
        (symplectic_group, (2, 3), DimensionMismatch),
        (general_symplectic_group, (6, 3), DimensionMismatch),
        (_primitive_root, (8,), GroupCheckFailed),
    ],
    ids=["A4", "A1", "odd-n", "unknown-family", "Sp2", "GSp6", "no-primitive-root"],
)
def test_bad_group_parameters_raise_typed_errors(build, args, error):
    # raised, not asserted, so python -O cannot build S_4 under the name A4
    with pytest.raises(error):
        build(*args)


# the stabiliser chain against enumeration and the normal-closure oracle


def _chain_oracle_groups():
    yield from (symmetric_group(d) for d in range(3, 8))
    yield from (alternating_group(d) for d in (3, 5, 7))
    yield symplectic_group(4, 3)
    yield general_symplectic_group(4, 3)
    yield FiniteGroup([from_cycles(4, [(0, 1, 2)]), from_cycles(4, [(1, 2, 3)])], name="A4")
    yield FiniteGroup([from_cycles(9, [tuple(range(9))])], name="C9")
    yield direct_product(symmetric_group(5), symmetric_group(3))
    c3 = FiniteGroup([from_cycles(3, [(0, 1, 2)])], name="C3")
    yield direct_product(c3, c3)


def _assert_chain_matches_oracles(g, primes):
    chain = stabiliser_chain(g)
    g.enumerate()
    assert chain.order == len(g.elements)
    k = len(g.generators)
    for l in primes:
        basis = chain.hom_basis(l)
        assert l ** len(basis) == len(g.elements) // len(elementary_l_quotient_kernel(g, l))
        for phi in basis:
            # phi on every element through the BFS tree, then every Cayley
            # edge x -> x s_j must add phi(s_j): phi is a homomorphism
            value = [0] * len(g.elements)
            for y in range(1, len(g.elements)):
                x, j = divmod(g.parents[y], k)
                value[y] = (value[x] + phi[j]) % l
            for e, y in enumerate(g.edges):
                x, j = divmod(e, k)
                assert value[y] == (value[x] + phi[j]) % l
            # and phi read off the chain's word of an element agrees with it
            for y in range(0, len(g.elements), max(1, len(g.elements) // 50)):
                word = chain.word(g.elements[y])
                assert sum(a * b for a, b in zip(phi, word)) % l == value[y]


@pytest.mark.parametrize("g", list(_chain_oracle_groups()), ids=lambda g: g.name)
def test_stabiliser_chain_matches_enumeration_and_closures(g):
    _assert_chain_matches_oracles(g, (2, 3, 5))


@pytest.mark.parametrize(
    "build,order,hom2", [(symmetric_group, 362880, 1), (alternating_group, 181440, 0)]
)
def test_stabiliser_chain_of_degree_9_without_enumeration(build, order, hom2):
    g = build(9)
    chain = stabiliser_chain(g)
    assert chain.order == order and len(chain.hom_basis(2)) == hom2
    assert g.elements is None


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)
    )
)
def test_stabiliser_chain_of_random_generators(imgs):
    _assert_chain_matches_oracles(FiniteGroup([permutation(p) for p in imgs]), (2, 3))


# the one-pass chain against the verifying second pass it replaced


def _assert_one_pass_matches_two_pass(g):
    chain = stabiliser_chain(g)
    oracle = TwoPassChain(g, [b for b, _ in chain.levels], chain.strong)
    assert chain.order == oracle.order
    assert chain.hom_basis(2) == oracle.hom_basis(2)
    assert chain.hom_basis(3) == oracle.hom_basis(3)
    # the two build their transversals in different orders, so an element's
    # words may differ, but only by a relation: both relator sets span one
    # lattice, and the difference of the words lies in it
    relations = Lattice(chain.ngens, chain.relators)
    assert relations == Lattice(oracle.ngens, oracle.relators)
    gens = g.generators
    elements = [*gens, *(mul(x, y) for x in gens for y in gens), mul(*gens), mul(*gens[::-1])]
    elements += [y[: g.degree] for y, _, _ in chain.strong]
    for x in elements:
        assert relations.contains(list(map(sub, chain.word(x), oracle.word(x))))


@pytest.mark.parametrize(
    "g",
    [*_chain_oracle_groups(), symmetric_group(9), alternating_group(9)],
    ids=lambda g: g.name,
)
def test_one_pass_chain_matches_the_two_pass_oracle(g):
    _assert_one_pass_matches_two_pass(g)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)
    )
)
def test_one_pass_chain_of_random_generators_matches_the_two_pass_oracle(imgs):
    _assert_one_pass_matches_two_pass(FiniteGroup([permutation(p) for p in imgs]))


def test_a_group_keeps_its_verified_chain(monkeypatch):
    builds = []
    real = groups._schreier_sims
    monkeypatch.setattr(groups, "_schreier_sims", lambda g: builds.append(g) or real(g))
    g = FiniteGroup(symmetric_group(5).generators)
    chain = stabiliser_chain(g)
    assert stabiliser_chain(g) is chain is g.chain and builds == [g]
    # a fresh group on the same generators builds its own
    assert stabiliser_chain(FiniteGroup(g.generators)) is not chain and len(builds) == 2
    # the audits' groups are cached, so a second audit builds no chain
    audit_example_1_odd()
    audit_example_2_goursat()
    builds.clear()
    audit_example_1_odd()
    audit_example_2_goursat()
    assert builds == []


def test_a_chain_that_raised_is_not_kept():
    g = FiniteGroup(symmetric_group(4).generators, known_order=12)
    for _ in range(2):
        with pytest.raises(GroupCheckFailed):
            stabiliser_chain(g)
        assert g.chain is None
    s3 = symmetric_group(3)
    big = semidirect(trivial_module(s3, 8))
    for name, label in (("", "group"), ("V x| S_3", "V x| S_3")):
        big.name = name
        with pytest.raises(CapExceeded, match=f"^{re.escape(label)} acts on 259 > 256 points$"):
            stabiliser_chain(big)
        assert big.chain is None
