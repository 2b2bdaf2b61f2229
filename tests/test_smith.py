import random

from kummer.smith import (
    RowSolver,
    ZMatrix,
    bareiss_det,
    bareiss_rank,
    hermite_rows,
    smith_normal_form,
    xgcd,
)

from oracles import cofactor_det, is_diagonal, unimodular_2x2_snf_search


def is_unimodular(m):
    return abs(bareiss_det(m.data)) == 1


def check_snf(mat):
    u, d, v = smith_normal_form(mat)
    assert (u * mat * v).data == d.data
    assert is_diagonal(d)
    assert is_unimodular(u)
    assert is_unimodular(v)
    diag = [x for x in d.diagonal() if x != 0]
    assert all(x >= 1 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    return d


def test_snf_diag_2_3():
    d = check_snf(ZMatrix([[2, 0], [0, 3]]))
    assert d.diagonal() == [1, 6]
    # frozen via the exhaustive small-unimodular oracle
    assert unimodular_2x2_snf_search([[2, 0], [0, 3]]) == (1, 6)


def test_snf_identity():
    d = check_snf(ZMatrix([[int(i == j) for j in range(5)] for i in range(5)]))
    assert d.diagonal() == [1] * 5


def test_snf_already_diagonal():
    d = check_snf(ZMatrix([[2, 0], [0, 2]]))
    assert d.diagonal() == [2, 2]


def test_snf_random_small_entries():
    rng = random.Random(2024)
    for _ in range(60):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        mat = ZMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        check_snf(mat)


def test_bareiss_det_matches_cofactor():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(1, 6)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert bareiss_det(mat) == cofactor_det(mat)


def test_bareiss_rank():
    assert bareiss_rank([[1, 2], [2, 4]]) == 1
    assert bareiss_rank([[1, 2], [2, 5]]) == 2
    assert bareiss_rank([[0, 0], [0, 0]]) == 0
    rng = random.Random(17)
    for _ in range(30):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        square = [r[:m] + [0] * max(0, m - n) for r in mat[:m]]
        # rank equals count of nonzero SNF diagonal entries
        _, d, _ = smith_normal_form(ZMatrix(mat))
        snf_rank = sum(1 for x in d.diagonal() if x)
        assert bareiss_rank(mat) == snf_rank


def test_hermite_rows_canonical():
    rng = random.Random(9)
    for _ in range(40):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        rows = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(m)]
        h1 = hermite_rows(rows, n)
        # idempotent
        assert hermite_rows(h1, n) == h1
        # row space preserved: every original row solves in the basis and back
        if h1:
            solver = RowSolver(h1, n)
            for r in rows:
                assert solver.solve(r) is not None
        else:
            assert all(not any(r) for r in rows)
        # shuffled generators give the same canonical basis
        rows2 = rows[:]
        rng.shuffle(rows2)
        assert hermite_rows(rows2, n) == h1


def test_row_solver_roundtrip():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randrange(1, 6)
        rows = hermite_rows(
            [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)], n
        )
        if not rows:
            continue
        solver = RowSolver(rows, n)
        x = [rng.randint(-6, 6) for _ in range(len(rows))]
        b = [sum(x[i] * rows[i][j] for i in range(len(rows))) for j in range(n)]
        assert solver.solve(b) == x


def test_xgcd():
    for a, b in [(0, 0), (4, 6), (-4, 6), (12, -18), (7, 0), (0, -5)]:
        g, s, t = xgcd(a, b)
        assert g == s * a + t * b
        assert g >= 0
