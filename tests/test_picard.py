import random

import pytest

from kummer.cohomology import cocycle_class_is_nonzero, h1_dim
from kummer.errors import ActionMismatch, GTooLarge, LatticeCheckFailed, NotASublattice
from kummer.gf2 import matvec
from kummer.groups import FiniteGroup, direct_product, from_cycles
from kummer.lattice import Lattice, lattice_index, saturate
from kummer.picard import (
    build_nikulin_lattice,
    canonical_class,
    canonical_class_in_pi1,
    equivariant_lattice,
    h1_two_torsion_dim,
    lattice_action_matrices,
    numerology,
    quotient_two_ranks,
    torsor_factor_group,
    zt_in_pi_coordinates,
)
from kummer.reps import standard_module
from oracles import (
    dense_nikulin_lattices,
    exceptional_intersections,
    mat_inverse,
    permutation_basis_exists,
    trivial_module,
)


def test_model_invariants_g2():
    m = build_nikulin_lattice(2)
    assert m.ambient_dim == 16
    assert lattice_index(m.zt, m.pi) == 32
    assert lattice_index(m.zt, m.pi1) == 2
    assert lattice_index(m.pi1, m.pi) == 16
    assert quotient_two_ranks(m.zt, m.pi) == 5


def test_model_invariants_g3():
    m = build_nikulin_lattice(3)
    assert m.ambient_dim == 64
    assert lattice_index(m.zt, m.pi) == 128
    assert quotient_two_ranks(m.zt, m.pi) == 7


def test_f2_model_equals_dense_hermite_oracle():
    for g in (2, 3):
        m = build_nikulin_lattice(g)
        assert (m.zt, m.pi1, m.pi) == dense_nikulin_lattices(g)


def test_model_check_raises_under_optimize(monkeypatch):
    # a model whose Pi misses its half-sums must raise, not assert
    import kummer.picard as picard

    real = picard.Lattice.from_f2_rows

    def drop_half_sums(n, rows, den):
        return real(n, rows[:1], den)

    monkeypatch.setattr(picard.Lattice, "from_f2_rows", staticmethod(drop_half_sums))
    with pytest.raises(LatticeCheckFailed):
        build_nikulin_lattice(2)


def test_h1_two_torsion_rank_check_raises(monkeypatch):
    import kummer.picard as picard

    monkeypatch.setattr(picard, "bareiss_rank", lambda rows: 0)
    with pytest.raises(LatticeCheckFailed):
        h1_two_torsion_dim([[[0]]])


def test_quotient_two_ranks_raises_on_a_non_elementary_quotient():
    with pytest.raises(LatticeCheckFailed):
        quotient_two_ranks(Lattice(2, [[4, 0], [0, 1]]), Lattice.standard(2))
    with pytest.raises(NotASublattice):
        quotient_two_ranks(Lattice.standard(2), Lattice(2, [[2, 0], [0, 2]]))


def test_saturation_equals_pi():
    for g in (2, 3):
        m = build_nikulin_lattice(g)
        ztc = zt_in_pi_coordinates(m)
        assert saturate(ztc) == Lattice.standard(m.ambient_dim)


def test_half_integer_membership_enumeration_g2():
    # oracle: enumerate all half-integer patterns u/2, u in {0,1}^16, and count
    # how many lie in Pi; must be exactly 2^{2g+1} = 32 cosets, each an affine
    # hyperplane indicator
    m = build_nikulin_lattice(2)
    n = m.ambient_dim
    members = []
    for bits in range(1 << n):
        u = [(bits >> i) & 1 for i in range(n)]
        if m.pi.contains(u, 2):
            members.append(bits)
    assert len(members) == 32
    for bits in members:
        if bits == 0:
            continue
        support = {x for x in range(n) if (bits >> x) & 1}
        # affine hyperplane or the full space
        found = False
        for L in range(n):
            for c in (0, 1):
                hyp = {x for x in range(n) if ((L & x).bit_count() & 1) == c}
                if support == hyp:
                    found = True
        assert found, f"member {bits:016b} is not an affine hyperplane indicator"


def test_two_times_generators_in_zt():
    from kummer.picard import _half_sum_row

    for g in (2, 3):
        m = build_nikulin_lattice(g)
        n = m.ambient_dim
        # doubled basis rows and doubled raw half-sum generators land in Z[T]
        for row in m.pi.basis:
            assert m.zt.contains([2 * x for x in row], 2)
        for L in range(0, n, max(1, n // 8)):
            for c in (0, 1):
                hs = _half_sum_row(g, L, c)
                assert m.zt.contains([2 * x for x in hs], 2)


def test_canonical_class():
    nums, den = canonical_class(2)
    assert den == 2 and all(x == 0 for x in nums)
    nums3, _ = canonical_class(3)
    assert all(x == 1 for x in nums3)  # half the full sum: effective
    nums4, _ = canonical_class(4)
    assert all(x == 2 for x in nums4)  # the full exceptional divisor class
    for g in range(2, 7):
        assert canonical_class_in_pi1(g)
    # cross-check against explicit membership for the modelled sizes
    for g in (2, 3):
        m = build_nikulin_lattice(g)
        nums, den = canonical_class(g)
        assert m.pi1.contains(list(nums), den)


def test_exceptional_intersections():
    for g in (2, 3):
        mat = exceptional_intersections(g)
        n = 1 << (2 * g)
        assert len(mat) == n
        assert all(mat[i][i] == -2 for i in range(n))
        assert all(mat[i][j] == 0 for i in range(n) for j in range(n) if i != j)


def test_numerology_values():
    out = numerology(2, 1)
    assert out["picard_rank"] == 17
    assert out["betti"] == [1, 0, 22, 0, 1]
    out3 = numerology(3, 1)
    assert out3["picard_rank"] == 65
    assert out3["betti"][2] == 79 and out3["h2_dim"] == 79
    assert numerology(2, 2)["picard_rank"] == 18
    for g in range(2, 7):
        numerology(g, 1)  # internal b2 == h2 assertion must pass


def test_numerology_caps():
    with pytest.raises(GTooLarge):
        numerology(7, 1)
    with pytest.raises(GTooLarge):
        build_nikulin_lattice(4)
    with pytest.raises(GTooLarge):
        build_nikulin_lattice(1)


def test_equivariant_trivial_torsor_permutation_module():
    m = build_nikulin_lattice(2)
    mod = standard_module(5, "S")
    p = direct_product(torsor_factor_group(mod, False))
    eq = equivariant_lattice(m, p, [False])
    assert permutation_basis_exists(eq) is True
    assert eq.h1_pi1_two_torsion() == 0
    assert h1_dim(eq.factor_modules[0]) == 0


def test_equivariant_nontrivial_torsor():
    m = build_nikulin_lattice(2)
    mod = standard_module(5, "S")
    p = direct_product(torsor_factor_group(mod, True))
    eq = equivariant_lattice(m, p, [True])
    assert permutation_basis_exists(eq) is False
    assert eq.h1_pi1_two_torsion() == 0
    assert h1_dim(eq.factor_modules[0]) == 1
    assert cocycle_class_is_nonzero(eq.factor_modules[0], eq.tau_cocycles[0])
    # affine action is transitive on the 16 points: BFS orbit oracle
    orbit = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for perm in eq.point_perms:
            y = perm[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    assert len(orbit) == 16


def test_equivariant_identity_group():
    m = build_nikulin_lattice(2)
    triv = FiniteGroup([from_cycles(1, [])], name="1")
    mod = trivial_module(triv, 4)
    p = direct_product(torsor_factor_group(mod, False))
    eq = equivariant_lattice(m, p, [False])
    assert eq.h1_pi1_two_torsion() == 0
    assert permutation_basis_exists(eq) is True


def test_equivariant_flag_mismatch():
    m = build_nikulin_lattice(2)
    mod = standard_module(5, "S")
    p = direct_product(torsor_factor_group(mod, True))
    with pytest.raises(ActionMismatch):
        equivariant_lattice(m, p, [False])


def test_h1_two_torsion_cyclic_oracle():
    # for a cyclic group <s> acting on a lattice, H^1 = ker(norm) / im(s - 1)
    # computably via Smith normal form; compare with the doubling formula
    from kummer.smith import ZMatrix, _snf, bareiss_rank

    def cyclic_h1_two_torsion(m):
        n = len(m)
        order = 1
        acc = [row[:] for row in m]
        eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        while acc != eye:
            acc = (ZMatrix(acc) * ZMatrix(m)).data
            order += 1
            assert order < 100
        # norm = sum of powers; elements of ker(norm) viewed modulo im(s-1)
        power = eye
        norm = [[0] * n for _ in range(n)]
        for _ in range(order):
            for i in range(n):
                for j in range(n):
                    norm[i][j] += power[i][j]
            power = (ZMatrix(power) * ZMatrix(m)).data
        # rows spanning im(s - 1) (row convention: v -> v m)
        sm1 = [[m[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
        # kernel of the norm: rows v with v . norm = 0, basis from SNF of norm
        res = _snf(ZMatrix(norm))
        r = res.rank
        # left kernel of norm: rows u of U beyond the rank (u . norm has zero rows)
        ker_rows = [res.U.data[i] for i in range(r, n)]
        if not ker_rows:
            return 0
        # H^1 = ker / im; 2-torsion part of the quotient via SNF of im in ker basis
        from kummer.lattice import Lattice

        ker_lat = Lattice(n, ker_rows)
        coords = []
        for row in sm1:
            c = ker_lat.coords(row)
            assert c is not None  # im(s-1) lies inside ker(norm)
            coords.append(c)
        diag = _snf(ZMatrix(coords)).D.diagonal()
        h1_order = 1
        for i in range(ker_lat.rank):
            d = diag[i] if i < len(diag) else 0
            assert d != 0, "H^1 of a finite group is finite"
            h1_order *= d
        count = 0
        for d in diag:
            if d % 2 == 0:
                count += 1
        return count

    cases = [
        [[0, 1], [1, 0]],  # swap: permutation lattice, H^1 = 0
        [[-1]],  # sign: H^1 = Z/2
        [[0, -1], [-1, 0]],  # twisted swap: H^1 = 0
        [[0, 1], [-1, 0]],  # rotation of order 4: H^1 = Z/2? computed by oracle
        [[0, 1], [-1, -1]],  # order 3
        [[1, 1], [0, -1]],
    ]
    for m in cases:
        assert h1_two_torsion_dim([m]) == cyclic_h1_two_torsion(m), m


def test_relabel_invariance():
    # outputs must not depend on the chosen bijection points ~ F_2^{2g}
    m = build_nikulin_lattice(2)
    mod = standard_module(5, "S")
    p = direct_product(torsor_factor_group(mod, True))
    eq = equivariant_lattice(m, p, [True])
    rng = random.Random(99)
    n = 16
    for _ in range(3):
        while True:
            rows = [rng.randrange(1 << 4) for _ in range(4)]
            try:
                inv = mat_inverse(rows)
                break
            except ValueError:
                continue
        b = rng.randrange(16)
        phi = [matvec(rows, x) ^ b for x in range(16)]
        phi_inv = [0] * 16
        for x, y in enumerate(phi):
            phi_inv[y] = x
        conj = [[phi[perm[phi_inv[x]]] for x in range(16)] for perm in eq.point_perms]
        mats = [lattice_action_matrices(m.pi1, c) for c in conj]
        assert h1_two_torsion_dim(mats) == eq.h1_pi1_two_torsion()
        for c in conj:
            lattice_action_matrices(m.pi, c)  # stability survives relabelling
