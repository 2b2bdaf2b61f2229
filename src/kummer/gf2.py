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
    """Reduced row echelon form of packed rows, the fully reduced basis of
    their F2Echelon.

    Returns (echelon_rows, pivot_cols); echelon_rows has one row per pivot.
    """
    ech = F2Echelon(ncols)
    for r in rows:
        ech.add(r)
    return ech.reduced()


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

    def reduced(self):
        """(rows, pivot_cols) of the reduced row echelon form, in pivot order.

        A row's pivot is its lowest bit, so the rows above it in pivot order
        are done first: each then clears its other pivot bits with one XOR per
        bit, and the rows it XORs in carry no pivot bit but their own."""
        done = {}
        mask = 0
        for p in sorted(self._rows, reverse=True):
            row = self._rows[p]
            hits = row & mask
            while hits:
                q = hits & -hits
                row ^= done[q]
                hits ^= q
            done[p] = row
            mask |= p
        pivots = sorted(done)
        return [done[p] for p in pivots], [p.bit_length() - 1 for p in pivots]


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
