"""Dense linear algebra over GF(2) with rows packed into Python ints.

A row is a single int whose bit j is the entry in column j, so row addition
is one XOR regardless of width.  This is the performance kernel behind the
cocycle solvers, which push on the order of 10^5 - 10^6 row operations.
"""

from __future__ import annotations

from .errors import DimensionMismatch


class F2Matrix:
    """Matrix over F_2; ``rows[i]`` is an int, bit j = entry (i, j)."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = list(rows) if rows is not None else [0] * nrows
        if len(self.rows) != nrows:
            raise DimensionMismatch(f"{len(self.rows)} rows for a matrix of {nrows}")
        if ncols < 64:  # cheap sanity on small widths only
            mask = (1 << ncols) - 1
            if any(r & ~mask for r in self.rows):
                raise DimensionMismatch(f"a row has a bit beyond column {ncols}")

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls(n, n, [1 << i for i in range(n)])

    def __eq__(self, other):
        return (
            isinstance(other, F2Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"F2Matrix({self.nrows}x{self.ncols})"

    def rank(self) -> int:
        return len(rref(self.rows, self.ncols)[0])


def rref(rows, ncols):
    """Reduced row echelon form of packed rows.

    Returns (echelon_rows, pivot_cols); echelon_rows has one row per pivot.
    """
    work = [r for r in rows if r]
    out = []
    pivots = []
    for c in range(ncols):
        mask = 1 << c
        src = None
        for i, r in enumerate(work):
            if r & mask:
                src = i
                break
        if src is None:
            continue
        piv = work.pop(src)
        work = [r ^ piv if r & mask else r for r in work]
        out = [r ^ piv if r & mask else r for r in out]
        out.append(piv)
        pivots.append(c)
        if not work:
            break
    return out, pivots


def f2_rank_kernel(m: F2Matrix):
    """Rank and a right-kernel basis of m over F_2.

    Every kernel basis row k satisfies m . k^T = 0, and
    rank + kernel dimension = ncols.
    """
    ech, pivots = rref(m.rows, m.ncols)
    rank = len(pivots)
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.ncols) if c not in pivot_set]
    kernel_rows = []
    for f in free_cols:
        v = 1 << f
        fmask = 1 << f
        for r, c in zip(ech, pivots):
            if r & fmask:
                v |= 1 << c
        kernel_rows.append(v)
    return rank, F2Matrix(len(kernel_rows), m.ncols, kernel_rows)


class F2Echelon:
    """Incremental row-space basis for streaming constraint harvesting."""

    __slots__ = ("ncols", "_rows",)

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows = {}  # pivot bit position -> row

    def reduce(self, row: int) -> int:
        rows = self._rows
        while row:
            p = row & -row
            r = rows.get(p)
            if r is None:
                return row
            row ^= r
        return 0

    def add(self, row: int) -> bool:
        """Insert a row; returns True if the rank grew."""
        row = self.reduce(row)
        if row == 0:
            return False
        self._rows[row & -row] = row
        return True

    def contains(self, row: int) -> bool:
        return self.reduce(row) == 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def basis_rows(self):
        return sorted(self._rows.values())


def matmul_rows(a_rows, b_rows):
    """Product of two packed-row F_2 matrices (a then b, column vectors act on the right)."""
    out = []
    for r in a_rows:
        acc = 0
        rr = r
        while rr:
            k = (rr & -rr).bit_length() - 1
            acc ^= b_rows[k]
            rr &= rr - 1
        out.append(acc)
    return out


def matvec(rows, v: int) -> int:
    """Matrix times column vector, both packed; returns packed vector."""
    acc = 0
    for i, r in enumerate(rows):
        if (r & v).bit_count() & 1:
            acc |= 1 << i
    return acc
