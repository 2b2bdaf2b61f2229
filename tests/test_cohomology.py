import random

import pytest

from kummer.cohomology import (
    CocycleSpace,
    cocycle_class_is_nonzero,
    h1,
    h1_dim,
    is_cocycle,
    validate_module,
)
from kummer.errors import EngineError, GroupCheckFailed
from kummer.groups import (
    FiniteGroup,
    affine,
    alternating_group,
    from_cycles,
    semidirect,
    symmetric_group,
)
from kummer.reps import (
    GModule,
    permutation_module,
    standard_module,
    zero_sum_module,
)

from oracles import brute_force_h1, trivial_module, twisted_torsor_group


def test_h1_standard_s5_vanishes():
    assert h1_dim(standard_module(5, "S")) == 0


def test_h1_standard_a5_vanishes():
    assert h1_dim(standard_module(5, "A")) == 0


def test_h1_trivial_module_s4_is_hom_to_z2():
    # frozen against the per-element oracle below; the sign character is the
    # only surjection S4 -> Z/2
    m = trivial_module(symmetric_group(4), 1)
    space = h1(m)
    assert space.h1_dim == 1
    z1, b1 = brute_force_h1(m.group, [list(map(list, g)) for g in m.generator_matrices], 1, 2)
    assert z1 - b1 == 1


def test_h1_semidirect_natural_module():
    m = standard_module(5, "S")
    p = semidirect(m)
    eye = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    mats = [eye] * 4 + list(m.generator_matrices)
    pm = GModule(p, 4, 2, tuple(mats))
    assert h1_dim(pm) == 1


def test_shapiro_cross_check():
    # permutation module of S_d  <->  trivial module of the point stabiliser
    assert h1_dim(permutation_module(symmetric_group(5))) == 1
    assert h1_dim(trivial_module(symmetric_group(4), 1)) == 1
    assert h1_dim(permutation_module(alternating_group(5))) == 0
    assert h1_dim(trivial_module(alternating_group(5), 1)) == 0


def test_h1_independent_of_generating_set():
    g1 = symmetric_group(5)
    g2 = FiniteGroup(
        [from_cycles(5, [(0, 4)]), from_cycles(5, [(0, 1, 2, 3, 4)])],
        name="S5'",
    )
    assert g2.order() == 120
    for d, grp in ((5, g1), (5, g2)):
        pass
    m1 = zero_sum_module(g1, 5)
    m2 = zero_sum_module(g2, 5)
    assert h1_dim(m1) == h1_dim(m2) == 0
    p1 = permutation_module(g1)
    p2 = permutation_module(g2)
    assert h1_dim(p1) == h1_dim(p2) == 1


def test_validate_rejects_non_homomorphism():
    g = symmetric_group(3)
    bad = GModule(
        g,
        2,
        2,
        (
            ((1, 0), (0, 1)),
            ((1, 1), (0, 1)),  # order 2 matrix assigned to the 3-cycle
        ),
    )
    with pytest.raises(EngineError):
        validate_module(bad)


def test_cocycle_class_detection():
    # for P = V x| S5 acting on V via S5, the translation-part projection is a
    # cocycle with nonzero class (the unique one)
    m = standard_module(5, "S")
    p = semidirect(m)
    eye = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    mats = [eye] * 4 + list(m.generator_matrices)
    pm = GModule(p, 4, 2, tuple(mats))
    tau = []
    for s in p.generators:
        tau.append(affine(s, p.blocks[0])[1])
    assert is_cocycle(pm, tau)
    assert cocycle_class_is_nonzero(pm, tau) is True
    # a coboundary has zero class
    w = (1, 0, 1, 0)
    cob = []
    from kummer.fp import mat_vec

    for j, s in enumerate(p.generators):
        mv = mat_vec([list(r) for r in mats[j]], list(w), 2)
        cob.append(tuple((a - b) % 2 for a, b in zip(mv, w)))
    assert is_cocycle(pm, cob)
    assert cocycle_class_is_nonzero(pm, cob) is False


def _cyclic_6():
    return FiniteGroup([from_cycles(6, [(0, 1, 2, 3, 4, 5)])], name="C6")


def _random_small_group_module(rng):
    """Pool of genuine (group, module) pairs with |G| <= 60, dim <= 6."""
    kind = rng.randrange(7)
    if kind == 0:
        g = symmetric_group(3)
        return permutation_module(g, 2)
    if kind == 1:
        g = symmetric_group(4)
        return permutation_module(g, 2)
    if kind == 2:
        g = alternating_group(5)
        return zero_sum_module(g, 5)
    if kind == 3:
        g = symmetric_group(4)
        return trivial_module(g, rng.randrange(1, 3), 2)
    if kind == 4:
        # dihedral group of order 8 on 4 points
        g = FiniteGroup(
            [from_cycles(4, [(0, 1, 2, 3)]), from_cycles(4, [(0, 2)])],
            name="D4",
        )
        return permutation_module(g, 2)
    if kind == 5:
        return permutation_module(_cyclic_6(), 2)
    g = symmetric_group(3)
    return permutation_module(g, 2)


def test_h1_oracle_equivalence_randomized():
    rng = random.Random(20240809)
    for trial in range(20):
        m = _random_small_group_module(rng)
        space = h1(m)
        mats = [list(map(list, g)) for g in m.generator_matrices]
        z1, b1 = brute_force_h1(m.group, mats, m.dim, m.l)
        assert (space.z1_dim, space.b1_dim) == (z1, b1), f"trial {trial}"


def test_cocycle_basis_members_are_cocycles():
    m = permutation_module(symmetric_group(4))
    space = h1(m)
    for coc in space.cocycle_basis:
        assert is_cocycle(m, coc)


def test_cocycle_class_reuses_the_h1_harvest(monkeypatch):
    from kummer import cohomology

    m = standard_module(5, "S")
    p = semidirect(m)
    eye = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    pm = GModule(p, 4, 2, tuple([eye] * 4 + list(m.generator_matrices)))
    tau = [affine(s, p.blocks[0])[1] for s in p.generators]
    w = (1, 0, 1, 0)  # the coboundary s -> s.w - w
    cob = [
        tuple((sum(a * b for a, b in zip(row, w)) - w[i]) % 2 for i, row in enumerate(mat))
        for mat in pm.generator_matrices
    ]
    calls = []
    real = cohomology._harvest_constraints_f2

    def counting(mod):
        calls.append(mod)
        return real(mod)

    monkeypatch.setattr(cohomology, "_harvest_constraints_f2", counting)
    assert h1(pm).h1_dim == 1
    assert len(calls) == 1
    assert cocycle_class_is_nonzero(pm, tau) is True
    assert cocycle_class_is_nonzero(pm, cob) is False
    not_a_cocycle = list(tau)
    not_a_cocycle[4] = (1, 0, 0, 0)
    with pytest.raises(EngineError):
        cocycle_class_is_nonzero(pm, not_a_cocycle)
    assert len(calls) == 1


def _linear_part_module(p):
    """The module of an affine group p on its single block: each generator
    acts by its linear part, so the action factors through the base group."""
    block = p.blocks[0]
    return GModule(p, block[1], 2, tuple(affine(s, block)[0] for s in p.generators))


def _oracle_case_modules():
    from kummer.reps import product_factor_module

    s5 = standard_module(5, "S")
    twisted = twisted_torsor_group(s5, [(1, 0, 1, 0), (0, 1, 1, 0)])
    return [
        s5,
        standard_module(5, "A"),
        permutation_module(symmetric_group(4), 2),
        permutation_module(_cyclic_6(), 2),
        _linear_part_module(twisted),
        product_factor_module([standard_module(5, "S"), standard_module(3, "S")]),
        product_factor_module([standard_module(3, "S")] * 3),
        product_factor_module([standard_module(5, "A"), standard_module(3, "S")]),
    ]


def _fresh(m):
    return GModule(m.group, m.dim, m.l, m.generator_matrices, m.character)


def test_harvest_matches_per_edge_oracle(monkeypatch):
    from kummer import cohomology

    from oracles import per_edge_harvest_f2

    for m in _oracle_case_modules():
        space = h1(m)
        assert m._z1_rows == per_edge_harvest_f2(_fresh(m)), m.group.name
        with monkeypatch.context() as mp:
            mp.setattr(cohomology, "_harvest_constraints_f2", per_edge_harvest_f2)
            oracle_space = h1(_fresh(m))
        assert (space.z1_dim, space.b1_dim, space.cocycle_basis) == (
            oracle_space.z1_dim,
            oracle_space.b1_dim,
            oracle_space.cocycle_basis,
        ), m.group.name


def _count_matmul_rows(monkeypatch):
    """List that gains one entry per gf2.matmul_rows call."""
    from kummer import gf2

    calls = []
    real = gf2.matmul_rows

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(gf2, "matmul_rows", counting)
    return calls


def test_harvest_multiplies_once_per_image_element_and_generator(monkeypatch):
    m = standard_module(5, "S")
    pm = _linear_part_module(semidirect(m))
    k = len(pm.group.generators)
    calls = _count_matmul_rows(monkeypatch)
    assert h1_dim(pm) == 1
    assert pm.group.order() == 1920
    assert 0 < len(calls) <= 120 * k


def test_is_cocycle_validates_before_answering():
    g = symmetric_group(3)
    bad = GModule(g, 2, 2, (((1, 0), (0, 1)), ((1, 1), (0, 1))))
    with pytest.raises(EngineError):
        is_cocycle(bad, [(0, 0), (0, 0)])
    assert bad._z1_rows is None


def test_image_larger_than_the_group_fails_closed(monkeypatch):
    # two transvections generating SL(2, F_2) = S_3, assigned to the two
    # generators of Z/2 x Z/2: the image (6 matrices) outgrows the group (4),
    # and the image walk stops there instead of closing it
    g = FiniteGroup([from_cycles(4, [(0, 1)]), from_cycles(4, [(2, 3)])], name="V4")
    bad = GModule(g, 2, 2, (((1, 1), (0, 1)), ((1, 0), (1, 1))))
    calls = _count_matmul_rows(monkeypatch)
    with pytest.raises(EngineError):
        h1(bad)
    assert len(calls) < 4 * 2


def test_cocycle_space_refuses_inconsistent_dimensions():
    m = standard_module(5, "S")
    with pytest.raises(GroupCheckFailed):
        CocycleSpace(m, z1_dim=4, b1_dim=4, h1_dim=1, cocycle_basis=())
