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
    """Reduced row echelon form, the fully reduced basis of the rows'
    FpEchelon; returns (rows, pivot_cols)."""
    ech = FpEchelon(p)
    for r in rows:
        ech.add(r)
    return ech.reduced()


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
    """Incremental row-space basis over F_p; `reduced` is its rref."""

    def __init__(self, p):
        self.p = p
        self._rows = {}  # pivot col -> normalised row, in pivot order

    def add(self, row):
        p = self.p
        row = [x % p for x in row]
        for c, r in self._rows.items():
            f = row[c]
            if f:
                row = [(x - f * y) % p for x, y in zip(row, r)]
        piv = next((c for c, x in enumerate(row) if x), None)
        if piv is None:
            return False
        inv = pow(row[piv], -1, p)
        self._rows[piv] = [x * inv % p for x in row]
        self._rows = dict(sorted(self._rows.items()))
        return True

    def reduced(self):
        """(rows, pivot_cols) of the reduced row echelon form, in pivot order:
        each row, last pivot first, clears the later pivot columns with the
        rows already done, which are zero at every pivot column but their own."""
        p = self.p
        done = {}
        for c in sorted(self._rows, reverse=True):
            row = self._rows[c]
            for q, r in done.items():
                f = row[q]
                if f:
                    row = [(x - f * y) % p for x, y in zip(row, r)]
            done[c] = row
        pivots = sorted(done)
        return [done[c] for c in pivots], pivots

    @property
    def rank(self):
        return len(self._rows)
