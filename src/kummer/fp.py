"""Dense linear algebra over F_p for small primes p (lists of ints mod p).

Any prime, 2 included: the module checks of reps (the spin-ups, and the
one Hom system behind End, H^0 and the wedge^2 invariants) run here at
l = 2 on every standard module, and the stabiliser chain's Hom(G, F_l)
runs here at l = 2 and 3.  Widths stay tiny.  The wide F_2 work (the H^1
harvest, the lattice layer) goes through the packed-int kernel in gf2.
"""

from __future__ import annotations


def mat_vec(a, v, p):
    return [sum(x * y for x, y in zip(row, v)) % p for row in a]


def rref(rows, p):
    """Reduced row echelon form; returns (rows, pivot_cols)."""
    work = [[x % p for x in r] for r in rows if any(x % p for x in r)]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][c], -1, p)
        work[r] = [x * inv % p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rank(rows, p):
    return len(rref(rows, p)[1])


def kernel_basis(rows, ncols, p):
    """Basis of {v : M v = 0} for M given by rows."""
    ech, pivots = rref(rows, p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(ech, pivots):
            v[c] = (-row[f]) % p
        basis.append(v)
    return basis


class FpEchelon:
    """Incremental row-space rank over F_p."""

    def __init__(self, ncols, p):
        self.ncols = ncols
        self.p = p
        self._rows = {}  # pivot col -> normalised row

    def add(self, row):
        p = self.p
        row = [x % p for x in row]
        for c, r in sorted(self._rows.items()):
            if row[c]:
                f = row[c]
                row = [(x - f * y) % p for x, y in zip(row, r)]
        piv = next((c for c, x in enumerate(row) if x), None)
        if piv is None:
            return False
        inv = pow(row[piv], -1, p)
        self._rows[piv] = [x * inv % p for x in row]
        return True

    @property
    def rank(self):
        return len(self._rows)
