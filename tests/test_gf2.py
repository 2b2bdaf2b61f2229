import random

from hypothesis import given, settings
from hypothesis import strategies as st

from kummer.gf2 import (
    F2Echelon,
    F2Matrix,
    f2_rank_kernel,
    matmul_rows,
    matvec,
    rref,
)

from oracles import _modp_rank, exhaustive_f2_kernel, f2_from_rows, mat_inverse


def test_empty_matrix():
    rank, ker = f2_rank_kernel(F2Matrix(0, 0))
    assert rank == 0
    assert ker.nrows == 0


def test_identity_rank():
    rank, ker = f2_rank_kernel(F2Matrix(4, 4, [1 << i for i in range(4)]))
    assert rank == 4
    assert ker.nrows == 0


def test_all_ones_3x3():
    m = f2_from_rows([[1, 1, 1]] * 3)
    rank, ker = f2_rank_kernel(m)
    assert rank == 1
    assert ker.nrows == 2
    # frozen from the exhaustive oracle: kernel = even-weight vectors
    oracle = exhaustive_f2_kernel(m.rows, 3)
    assert len(oracle) == 4  # 2^2 including zero
    for krow in ker.rows:
        assert krow in oracle


def test_kernel_matches_exhaustive_enumeration():
    rng = random.Random(7)
    for _ in range(40):
        nrows = rng.randrange(1, 7)
        ncols = rng.randrange(1, 13)
        rows = [rng.randrange(1 << ncols) for _ in range(nrows)]
        m = F2Matrix(nrows, ncols, rows)
        rank, ker = f2_rank_kernel(m)
        oracle = exhaustive_f2_kernel(rows, ncols)
        assert rank + ker.nrows == ncols
        assert 1 << ker.nrows == len(oracle)
        span = F2Matrix(ker.nrows, ncols, ker.rows)
        assert span.rank() == ker.nrows
        for v in ker.rows:
            assert v in oracle


def test_rref_pivots_sorted():
    rows = [0b110, 0b011, 0b101]
    ech, pivots = rref(rows, 3)
    assert pivots == sorted(pivots)
    assert len(ech) == len(pivots) == 2


packed_rows = st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=9))
)


@settings(max_examples=200, deadline=None)
@given(packed_rows)
def test_rref_is_fully_reduced_and_spans_the_rows(shape):
    ncols, rows = shape
    ech, pivots = rref(rows, ncols)
    assert pivots == sorted(set(pivots)) and len(ech) == len(pivots)
    for i, (row, c) in enumerate(zip(ech, pivots)):
        assert row & -row == 1 << c  # the pivot is the row's first entry
        # and every other row is 0 in its column
        assert [r >> c & 1 for r in ech] == [int(j == i) for j in range(len(ech))]

    def unpack(r):
        return [r >> j & 1 for j in range(ncols)]

    assert len(pivots) == _modp_rank([unpack(r) for r in rows], 2)
    assert _modp_rank([unpack(r) for r in rows + ech], 2) == len(pivots)


def test_echelon_incremental_matches_rank():
    rng = random.Random(11)
    for _ in range(20):
        ncols = rng.randrange(1, 30)
        rows = [rng.randrange(1 << ncols) for _ in range(rng.randrange(1, 12))]
        ech = F2Echelon(ncols)
        for r in rows:
            ech.add(r)
        assert ech.rank == F2Matrix(len(rows), ncols, rows).rank()
        for r in rows:
            assert ech.contains(r)


def test_matmul_and_inverse():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randrange(1, 7)
        while True:
            rows = [rng.randrange(1 << n) for _ in range(n)]
            if F2Matrix(n, n, rows).rank() == n:
                break
        inv = mat_inverse(rows)
        assert matmul_rows(rows, inv) == [1 << i for i in range(n)]
        v = rng.randrange(1 << n)
        assert matvec(inv, matvec(rows, v)) == v
