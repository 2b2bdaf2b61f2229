"""Exact integer matrix algorithms: Smith normal form, Hermite reduction, Bareiss.

All entries are Python ints, so nothing overflows; there are deliberately no
modular shortcuts anywhere in this module.
"""

from __future__ import annotations

from .errors import DimensionMismatch


class ZMatrix:
    """Dense integer matrix, rows as lists of arbitrary-precision ints."""

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, data):
        self.data = [list(r) for r in data]
        self.nrows = len(self.data)
        self.ncols = len(self.data[0]) if self.data else 0
        if any(len(r) != self.ncols for r in self.data):
            raise DimensionMismatch(f"rows of unequal lengths in a {self.nrows}-row matrix")

    def __mul__(self, other):
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"cannot multiply {self.ncols} columns by {other.nrows} rows")
        bt = list(zip(*other.data))
        return ZMatrix(
            [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in self.data]
        )

    def __eq__(self, other):
        return isinstance(other, ZMatrix) and self.data == other.data

    def __repr__(self):
        return f"ZMatrix({self.data!r})"

    def diagonal(self):
        return [self.data[i][i] for i in range(min(self.nrows, self.ncols))]


def xgcd(a, b):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        a, s0, t0 = -a, -s0, -t0
    return a, s0, t0


class SNFResult:
    __slots__ = ("U", "D", "V", "Vinv", "rank")

    def __init__(self, U: ZMatrix, D: ZMatrix, V: ZMatrix, Vinv: ZMatrix, rank: int):
        self.U = U
        self.D = D
        self.V = V
        self.Vinv = Vinv
        self.rank = rank


def _snf(mat: ZMatrix) -> SNFResult:
    """Full Smith normal form with transforms: U*m*V = D, d1 | d2 | ...

    Pivot rule: smallest absolute nonzero entry of the remaining block.
    Column operations applied to V are mirrored inversely on Vinv so that
    V * Vinv = I throughout.
    """
    a = [list(r) for r in mat.data]
    m, n = mat.nrows, mat.ncols
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    vinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_row(src, dst, c):
        # row_dst += c * row_src
        ra, rs = a[dst], a[src]
        for k in range(n):
            ra[k] += c * rs[k]
        ru, rsu = u[dst], u[src]
        for k in range(m):
            ru[k] += c * rsu[k]

    def add_col(src, dst, c):
        # col_dst += c * col_src ; inverse op on vinv rows: row_src -= c * row_dst
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]
        rv, rd = vinv[src], vinv[dst]
        for k in range(n):
            rv[k] -= c * rd[k]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while True:
        # locate smallest-absolute nonzero pivot in the trailing block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            # clear column t below the pivot
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            # clear row t right of the pivot
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # force divisibility of the rest of the block by the pivot
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    return SNFResult(ZMatrix(u), ZMatrix(a), ZMatrix(v), ZMatrix(vinv), t)


def smith_normal_form(mat: ZMatrix):
    """Smith normal form: returns (U, D, V) with U*m*V = D diagonal, d1 | d2 | ..."""
    res = _snf(mat)
    return res.U, res.D, res.V


def hermite_rows(rows, ncols):
    """Canonical row-style Hermite basis of the row space of ``rows``.

    Pivots are positive, strictly to the right as you go down, and entries
    above each pivot are reduced into [0, pivot).
    """
    work = [list(r) for r in rows if any(r)]
    basis = []
    for col in range(ncols):
        sel = [r for r in work if r[col] != 0]
        if not sel:
            continue
        rest = [r for r in work if r[col] == 0]
        piv = sel[0]
        for r in sel[1:]:
            g, s, t = xgcd(piv[col], r[col])
            pc, rc = piv[col] // g, r[col] // g
            new_piv = [s * x + t * y for x, y in zip(piv, r)]
            new_r = [pc * y - rc * x for x, y in zip(piv, r)]
            piv = new_piv
            if any(new_r):
                rest.append(new_r)
        if piv[col] < 0:
            piv = [-x for x in piv]
        for r in basis:
            q = r[col] // piv[col]
            if q:
                for k in range(ncols):
                    r[k] -= q * piv[k]
        basis.append(piv)
        work = rest
    return basis


def bareiss_rank(rows, ncols=None):
    """Rank over Q of an integer matrix, by fraction-free elimination."""
    a = [list(r) for r in rows]
    if not a:
        return 0
    if ncols is None:
        ncols = len(a[0])
    m = len(a)
    rank = 0
    prev = 1
    col = 0
    while rank < m and col < ncols:
        piv = None
        for i in range(rank, m):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pr = a[rank]
        # Bareiss update touches every remaining row, zero pivot entry or not,
        # so the exact division by the previous pivot stays valid.
        for i in range(rank + 1, m):
            ri = a[i]
            f = ri[col]
            for j in range(col, ncols):
                ri[j] = (ri[j] * pr[col] - f * pr[j]) // prev
        prev = pr[col]
        rank += 1
        col += 1
    return rank


def bareiss_det(rows):
    """Exact determinant of a square integer matrix."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    if any(len(r) != n for r in a):
        raise DimensionMismatch(f"not a square matrix: {n} rows, not all of length {n}")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


class RowSolver:
    """Repeated exact solving of x * B = b for a fixed full-row-rank integer B."""

    def __init__(self, basis_rows, ncols):
        self.ncols = ncols
        self.nrows = len(basis_rows)
        res = _snf(ZMatrix(basis_rows)) if basis_rows else None
        if res is not None and res.rank != self.nrows:
            raise DimensionMismatch("basis rows are not linearly independent")
        self._res = res

    def solve(self, b):
        """Integer x with x*B = b, or None when none exists."""
        if self._res is None:
            return [] if not any(b) else None
        res = self._res
        bv = [sum(b[i] * res.V.data[i][j] for i in range(self.ncols)) for j in range(self.ncols)]
        d = res.D
        z = []
        for i in range(self.nrows):
            di = d.data[i][i]
            q, r = divmod(bv[i], di)
            if r:
                return None
            z.append(q)
        if any(bv[i] for i in range(self.nrows, self.ncols)):
            return None
        u = res.U.data
        return [sum(z[i] * u[i][j] for i in range(self.nrows)) for j in range(self.nrows)]
