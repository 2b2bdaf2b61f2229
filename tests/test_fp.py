from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from kummer import fp

from oracles import _modp_rank


def _shapes(p):
    return st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-2 * p, 2 * p), min_size=n, max_size=n), max_size=5
        ).map(lambda rows: (n, rows))
    )


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([2, 3, 5]).flatmap(lambda p: st.tuples(st.just(p), _shapes(p))))
def test_rref_and_kernel_match_the_rank_oracle_and_an_exhaustive_kernel(case):
    p, (ncols, rows) = case
    ech, pivots = fp.rref(rows, p)
    assert len(pivots) == fp.rank(rows, p) == _modp_rank(rows, p)
    assert pivots == sorted(set(pivots)) and len(ech) == len(pivots)
    for i, (row, c) in enumerate(zip(ech, pivots)):
        assert row[:c] == [0] * c and row[c] == 1
        assert [r[c] for r in ech] == [int(j == i) for j in range(len(ech))]
    assert _modp_rank(rows + ech, p) == len(pivots)
    kernel = {
        v
        for v in product(range(p), repeat=ncols)
        if all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in rows)
    }
    basis = fp.kernel_basis(rows, ncols, p)
    assert len(basis) == ncols - len(pivots)
    span = {
        tuple(sum(c * v[i] for c, v in zip(cs, basis)) % p for i in range(ncols))
        for cs in product(range(p), repeat=len(basis))
    }
    assert span == kernel
