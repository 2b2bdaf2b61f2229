import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummer.errors import DimensionMismatch, NotASublattice
from kummer.lattice import Lattice, lattice_index, saturate

from oracles import snf_index, solver_coords


def test_index_2z2_in_z2():
    sub = Lattice(2, [[2, 0], [0, 2]])
    sup = Lattice.standard(2)
    assert lattice_index(sub, sup) == 4


def test_index_rank_mismatch_is_infinite():
    sub = Lattice(2, [[2, 0]])
    sup = Lattice.standard(2)
    assert lattice_index(sub, sup) == math.inf


def test_not_a_sublattice():
    sub = Lattice(2, [[1, 0], [0, 1]])
    sup = Lattice(2, [[2, 0], [0, 2]])
    with pytest.raises(NotASublattice):
        lattice_index(sub, sup)


def test_saturate_full_rank():
    lat = Lattice(2, [[2, 0], [0, 2]])
    assert saturate(lat) == Lattice.standard(2)


def test_saturate_rank_one():
    lat = Lattice(2, [[2, 2]])
    assert saturate(lat) == Lattice(2, [[1, 1]])


def test_saturate_idempotent_and_index_finite():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(1, 5)
        k = rng.randrange(1, n + 1)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)]
        lat = Lattice(n, rows)
        if lat.rank == 0:
            continue
        sat = saturate(lat)
        assert saturate(sat) == sat
        assert sat.rank == lat.rank
        idx = lattice_index(lat, sat)
        assert idx != math.inf and idx >= 1


def test_denominator_bookkeeping():
    # lattice of multiples of (1/2, 1/2) inside (1/2) Z^2
    lat = Lattice(2, [[1, 1]], den=2)
    assert lat.contains([1, 1], 2)
    assert lat.contains([3, 3], 2)
    assert not lat.contains([1, 0], 2)
    assert lat.contains([1, 1], 1)  # (1,1) = 2 * (1/2, 1/2)
    # minimal denominator is enforced on construction
    assert Lattice(2, [[2, 0], [0, 2]], den=2) == Lattice.standard(2)


def test_index_with_mixed_denominators():
    # [Z^2 : 2 Z^2] seen with denominator-2 storage on one side
    sub = Lattice(2, [[4, 0], [0, 4]], den=2)  # = 2 Z^2
    sup = Lattice(2, [[2, 0], [0, 2]], den=2)  # = Z^2
    assert lattice_index(sub, sup) == 4


hermite_lattices = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=1, max_size=n),
        st.integers(1, 4),
    )
)


@settings(max_examples=150, deadline=None)
@given(hermite_lattices, st.data())
def test_coords_match_row_solver(spec, data):
    n, rows, den = spec
    lat = Lattice(n, rows, den)
    # a member: an integer combination of the basis, over the lattice's den
    x = data.draw(st.lists(st.integers(-5, 5), min_size=lat.rank, max_size=lat.rank))
    member = [sum(c * r[j] for c, r in zip(x, lat.basis)) for j in range(n)]
    assert lat.coords(member, lat.den) == x == solver_coords(lat, member, lat.den)
    # an arbitrary vector with an arbitrary denominator, member or not
    v = data.draw(st.lists(st.integers(-12, 12), min_size=n, max_size=n))
    d = data.draw(st.integers(1, 6))
    assert lat.coords(v, d) == solver_coords(lat, v, d)


@settings(max_examples=100, deadline=None)
@given(hermite_lattices, st.data())
def test_index_matches_smith_diagonal(spec, data):
    n, rows, den = spec
    sup = Lattice(n, rows, den)
    if sup.rank == 0:
        return
    # a sublattice of equal rank: a nonsingular integer combination of sup's basis
    r = sup.rank
    mix = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=r, max_size=r), min_size=r, max_size=r))
    sub_rows = [[sum(c * b[j] for c, b in zip(m, sup.basis)) for j in range(n)] for m in mix]
    scale = data.draw(st.integers(1, 3))
    sub = Lattice(n, [[scale * x for x in row] for row in sub_rows], sup.den * scale)
    if sub.rank != r:
        assert lattice_index(sub, sup) == math.inf
        return
    assert lattice_index(sub, sup) == snf_index(sub, sup)


def test_index_ambient_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        lattice_index(Lattice.standard(2), Lattice.standard(3))


def test_from_f2_rows_matches_hermite():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(1, 9)
        packed = [rng.randrange(1 << n) for _ in range(rng.randrange(0, 5))]
        dense = [[(p >> j) & 1 for j in range(n)] for p in packed]
        dense += [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        assert Lattice.from_f2_rows(n, packed, 2) == Lattice(n, dense, 2)
