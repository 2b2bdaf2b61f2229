"""Lattices in (1/D) * Z^n with integer-only kernels.

A lattice is stored as an integer basis plus an explicit denominator, so the
Smith/Hermite machinery never sees a rational number.  The basis is in
canonical Hermite form, so membership is back-substitution down its pivots
and the index of a sublattice of equal rank is a ratio of pivot products.
"""

from __future__ import annotations

import math
from math import gcd

from . import gf2
from .errors import DimensionMismatch, InputError, LatticeCheckFailed, NotASublattice
from .smith import ZMatrix, _snf, hermite_rows


class Lattice:
    """Full- or partial-rank subgroup of (1/den) * Z^ambient_dim.

    The stored basis rows are numerators: the actual lattice vectors are
    row/den.  The basis is kept in canonical Hermite form and the denominator
    is minimal.
    """

    __slots__ = ("ambient_dim", "basis", "den", "_steps", "_free")

    def __init__(self, ambient_dim, basis_rows, den=1, _canonical=False):
        if den <= 0:
            raise InputError(f"the denominator must be positive, got {den}")
        rows = [list(r) for r in basis_rows]
        if any(len(r) != ambient_dim for r in rows):
            raise DimensionMismatch(f"a basis row is not of length {ambient_dim}")
        if not _canonical:
            rows = hermite_rows(rows, ambient_dim)
        # minimal denominator: strip common factors shared with den
        g = den
        for r in rows:
            for x in r:
                g = gcd(g, x)
                if g == 1:
                    break
            if g == 1:
                break
        if g > 1:
            den //= g
            rows = [[x // g for x in r] for r in rows]
        self.ambient_dim = ambient_dim
        self.basis = tuple(tuple(r) for r in rows)
        self.den = den
        # per basis row: (pivot column, pivot, nonzero entries right of it)
        steps = []
        for r in rows:
            col = next(j for j, x in enumerate(r) if x)
            steps.append((col, r[col], tuple((j, r[j]) for j in range(col + 1, ambient_dim) if r[j])))
        self._steps = tuple(steps)
        pivot_cols = {col for col, _, _ in steps}
        self._free = tuple(j for j in range(ambient_dim) if j not in pivot_cols)

    @classmethod
    def from_f2_rows(cls, ambient_dim, packed_rows, den):
        """(1/den) M for the M with 2 Z^n <= M <= Z^n whose image in F_2^n is
        spanned by packed_rows (bit j = column j).

        M's Hermite basis is the F_2 RREF of the rows, lifted to 0/1 vectors,
        together with 2 e_j for every non-pivot column j.
        """
        ech, pivots = gf2.rref(packed_rows, ambient_dim)
        by_pivot = dict(zip(pivots, ech))
        rows = []
        for j in range(ambient_dim):
            r = by_pivot.get(j)
            if r is None:
                row = [0] * ambient_dim
                row[j] = 2
            else:
                row = [(r >> k) & 1 for k in range(ambient_dim)]
            rows.append(row)
        return cls(ambient_dim, rows, den, _canonical=True)

    @classmethod
    def standard(cls, n):
        """Z^n."""
        return cls(n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def rank(self):
        return len(self.basis)

    @property
    def pivots(self):
        """The leading entry of each basis row."""
        return tuple(p for _, p, _ in self._steps)

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.ambient_dim == other.ambient_dim
            and self.den == other.den
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Lattice(dim={self.ambient_dim}, rank={self.rank}, den={self.den})"

    def coords(self, num, den=1):
        """Integer coordinates of the vector num/den in this basis, or None."""
        # num/den = x . basis/self.den  <=>  x . basis = num * self.den / den
        if den == self.den:
            b = list(num)
        else:
            b = []
            for v in num:
                q, r = divmod(v * self.den, den)
                if r:
                    return None
                b.append(q)
        x = []
        for col, piv, tail in self._steps:
            q = b[col]
            if q:
                q, r = divmod(q, piv)
                if r:
                    return None
                for j, a in tail:
                    b[j] -= q * a
            x.append(q)
        # rows never touch columns left of their pivot, so what is left on a
        # non-pivot column after the walk is final
        for j in self._free:
            if b[j]:
                return None
        return x

    def contains(self, num, den=1):
        return self.coords(num, den) is not None


def lattice_index(sub: Lattice, sup: Lattice):
    """Index [sup : sub]; math.inf when the ranks differ.

    Raises NotASublattice when some basis vector of sub falls outside sup.
    Of equal rank, both lattices span one rational space, so their Hermite
    bases share pivot columns and the index is the ratio of the pivot
    products, each scaled by its denominator to the rank.
    """
    if sub.ambient_dim != sup.ambient_dim:
        raise DimensionMismatch(f"{sub!r} and {sup!r} live in different ambient spaces")
    for row in sub.basis:
        if sup.coords(row, sub.den) is None:
            raise NotASublattice(f"{sub!r} is not contained in {sup!r}")
    if sub.rank != sup.rank:
        return math.inf
    num = sup.den ** sup.rank
    den = sub.den ** sub.rank
    for p in sub.pivots:
        num *= p
    for p in sup.pivots:
        den *= p
    idx, rem = divmod(num, den)
    if rem:
        raise LatticeCheckFailed(f"[{sup!r} : {sub!r}] = {num}/{den} is not an integer")
    return idx


def saturate(lat: Lattice) -> Lattice:
    """Vectors v of the ambient (1/den)*Z^n with k*v in the lattice for some k != 0.

    Same rank as the input; idempotent.
    """
    if lat.rank == 0:
        return lat
    res = _snf(ZMatrix([list(r) for r in lat.basis]))
    sat_rows = [res.Vinv.data[i] for i in range(res.rank)]
    return Lattice(lat.ambient_dim, sat_rows, lat.den)
