"""G-modules over small prime fields: construction, simplicity and Hom
spaces.  ``hom_module_dim`` solves the one linear system F a = b F; End,
H^0 and the invariants of twisted wedge-square duals are Hom dimensions.

Vectors are columns; a generator matrix M sends v to M v, and the assignment
extends to a homomorphism (checked on relation-closing Cayley edges by the
cocycle machinery before any cohomology is trusted).
"""

from __future__ import annotations

from operator import mul

from . import fp
from .errors import (
    DimensionMismatch,
    DimTooLarge,
    EvenDegree,
    GroupCheckFailed,
    GroupMismatch,
    MissingCharacter,
)
from .groups import FiniteGroup, alternating_group, direct_product, images, symmetric_group

SPIN_DIM_BOUND = 24


class GModule:
    """Action of a FiniteGroup on F_l^dim via one matrix per generator.

    Equal modules have the same fields; the Z^1 rows cached on a module
    (``_z1_rows``) take no part in equality."""

    __slots__ = ("group", "dim", "l", "generator_matrices", "character", "_z1_rows")

    def __init__(
        self, group: FiniteGroup, dim: int, l: int, generator_matrices: tuple,
        character: tuple | None = None,
    ):
        self.group = group
        self.dim = dim
        self.l = l
        self.generator_matrices = tuple(
            tuple(tuple(x % l for x in row) for row in m) for m in generator_matrices
        )
        self.character = None
        self._z1_rows = None
        k = len(group.generators)
        if len(self.generator_matrices) != k:
            raise DimensionMismatch(f"need {k} generator matrices, one per generator")
        for m in self.generator_matrices:
            if len(m) != dim or any(len(r) != dim for r in m):
                raise DimensionMismatch(f"a generator matrix is not {dim} x {dim}")
        if character is not None:
            self.character = tuple(x % l for x in character)
            if len(self.character) != k:
                raise DimensionMismatch(f"need {k} character values, one per generator")
            if not all(self.character):
                raise GroupMismatch(f"character values must be units of F_{l}")

    def __eq__(self, other):
        if other.__class__ is not GModule:
            return NotImplemented
        return (self.group, self.dim, self.l, self.generator_matrices, self.character) == (
            other.group, other.dim, other.l, other.generator_matrices, other.character
        )

    @property
    def _validated(self) -> bool:
        """Z^1 rows are cached only by a harvest that validated the module."""
        return self._z1_rows is not None

    def bit_rows(self):
        """Packed-row form of the generator matrices (F_2 modules only)."""
        if self.l != 2:
            raise DimensionMismatch(f"packed rows need an F_2 module, not F_{self.l}")
        return [
            tuple(sum((row[j] & 1) << j for j in range(self.dim)) for row in m)
            for m in self.generator_matrices
        ]


def permutation_module(group: FiniteGroup, l: int = 2) -> GModule:
    """F_l^n permuted the way the generators permute {0..n-1}."""
    n = group.degree
    mats = []
    for s in group.generators:
        img = images(s)
        m = [[0] * n for _ in range(n)]
        for x in range(n):
            m[img[x]][x] = 1
        mats.append(m)
    return GModule(group, n, l, tuple(mats))


def zero_sum_module(group: FiniteGroup, d: int) -> GModule:
    """Zero-sum subspace of the permutation module F_2^d of a group on d points.

    Basis: u_i = e_i + e_{d-1} for i < d-1, so u_{d-1} reads as 0.
    """
    mats = []
    for s in group.generators:
        if len(s) != d:
            raise DimensionMismatch(f"a generator acts on {len(s)} points, not {d}")
        img = images(s)
        m = [[0] * (d - 1) for _ in range(d - 1)]
        for i in range(d - 1):
            for target in (img[i], img[d - 1]):
                if target != d - 1:
                    m[target][i] ^= 1
        mats.append(m)
    return GModule(group, d - 1, 2, tuple(mats))


def standard_module(d: int, kind: str) -> GModule:
    """Zero-sum subspace of the permutation module F_2^d for S_d or A_d.

    d must be odd, which makes the permutation module split off this
    (d-1)-dimensional direct summand.
    """
    if d % 2 == 0 or d < 3:
        raise EvenDegree(f"the standard module needs an odd degree >= 3, got {d}")
    group = symmetric_group(d) if kind == "S" else alternating_group(d)
    return zero_sum_module(group, d)


def product_factor_module(groups_modules) -> GModule:
    """Module of the direct product acting blockwise: factor i on summand i.

    Input: list of GModules, one per factor; all over the same prime.
    The resulting group is the direct product with the usual generator order.
    """
    mods = list(groups_modules)
    l = mods[0].l
    if any(m.l != l for m in mods):
        raise GroupMismatch("the factor modules must share their prime")
    prod = direct_product(*[m.group for m in mods])
    total = sum(m.dim for m in mods)
    offsets = []
    off = 0
    for m in mods:
        offsets.append(off)
        off += m.dim
    mats = []
    for i, m in enumerate(mods):
        for gm in m.generator_matrices:
            big = [[1 if a == b else 0 for b in range(total)] for a in range(total)]
            o = offsets[i]
            for r in range(m.dim):
                for c in range(m.dim):
                    big[o + r][o + c] = gm[r][c]
            mats.append(big)
    return GModule(prod, total, l, tuple(mats))


def is_simple(m: GModule) -> bool:
    """True iff every nonzero vector generates the whole module.

    <g c v> = <v> for an invertible generator matrix g and a scalar c != 0,
    so one spin-up per orbit of <generator matrices, F_l^x> on the nonzero
    vectors decides it; a singular generator matrix, which does not permute
    the vectors, raises GroupCheckFailed.  The orbit of a representative v
    is the union of the orbits of the generator matrices through its
    multiples c v, each marked by a BFS over the packed vectors sum v_i l^i
    in a bytearray of l^dim bytes (0 unseen, 1 found, 2 expanded), which is
    also the BFS frontier; the dim bound guards its size.
    """
    if m.dim > SPIN_DIM_BOUND:
        raise DimTooLarge(f"dim {m.dim} > {SPIN_DIM_BOUND}")
    if m.dim == 0:
        return False
    l, dim, mats = m.l, m.dim, m.generator_matrices
    if any(fp.rank(a, l) < dim for a in mats):
        raise GroupCheckFailed("a singular generator matrix does not permute the vectors")
    weights = [l**r for r in range(dim)]
    marks = bytearray(l**dim)
    marks[0], rep = 2, 1
    while (rep := marks.find(0, rep)) > 0:
        v = [rep // w % l for w in weights]
        if not _spins_to_full(v, mats, dim, l):
            return False
        for c in range(1, l):
            p = sum(c * x % l * w for x, w in zip(v, weights))
            if marks[p]:
                continue
            while p >= 0:
                marks[low := p] = 2
                u = [p // w % l for w in weights]
                for a in mats:
                    q = sum(sum(map(mul, row, u)) % l * w for row, w in zip(a, weights))
                    if not marks[q]:
                        marks[q], low = 1, min(low, q)
                p = marks.find(1, low)
    return True


def _spins_to_full(v, mats, dim, l):
    ech = fp.FpEchelon(l)
    ech.add(v)
    queue = [v]
    while queue:
        w = queue.pop()
        for mat in mats:
            img = fp.mat_vec(mat, w, l)
            if ech.add(img):
                if ech.rank == dim:
                    return True
                queue.append(img)
    return ech.rank == dim


def endomorphism_algebra_dim(m: GModule) -> int:
    """Dimension over F_l of {E : E rho(s) = rho(s) E for all generators}."""
    return hom_module_dim(m, m)


def is_absolutely_simple(m: GModule) -> bool:
    """Simple with endomorphisms only the scalars.

    Over a finite field End of a simple module is a finite division algebra,
    hence a field (Wedderburn), so End = F_l is exactly absolute simplicity.
    """
    return is_simple(m) and endomorphism_algebra_dim(m) == 1


def hom_module_dim(m: GModule, n: GModule) -> int:
    """Dimension of the space of G-maps m -> n."""
    if m.group is not n.group or m.l != n.l:
        raise GroupMismatch("modules must share their group and prime")
    l = m.l
    dm, dn = m.dim, n.dim
    rows = []
    for a, b in zip(m.generator_matrices, n.generator_matrices):
        # unknown F (dn x dm): F a = b F
        for i in range(dn):
            for j in range(dm):
                row = [0] * (dn * dm)
                for k in range(dm):
                    row[i * dm + k] = (row[i * dm + k] + a[k][j]) % l
                for k in range(dn):
                    row[k * dm + j] = (row[k * dm + j] - b[i][k]) % l
                rows.append(row)
    return dn * dm - fp.rank(rows, l) if rows else dn * dm


def wedge_square_matrices(m: GModule):
    """Action matrices on wedge^2 of the module, basis e_i ^ e_j (i < j)."""
    dim, l = m.dim, m.l
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    pidx = {pr: a for a, pr in enumerate(pairs)}
    out = []
    for mat in m.generator_matrices:
        big = [[0] * len(pairs) for _ in range(len(pairs))]
        for (i, j), col in pidx.items():
            # (M e_i) ^ (M e_j) = sum_{k<t} (M_ki M_tj - M_ti M_kj) e_k ^ e_t
            for k, t in pairs:
                coeff = (mat[k][i] * mat[t][j] - mat[t][i] * mat[k][j]) % l
                if coeff:
                    big[pidx[(k, t)]][col] = coeff
        out.append(big)
    return pairs, out


def wedge2_dual_invariants_dim(m: GModule) -> int:
    """dim of G-invariants of Hom(wedge^2 m, chi) for the stored character chi.

    The trivial character must be supplied explicitly (legitimate whenever the
    group acts through the symplectic group of an alternating form).
    """
    if m.character is None:
        raise MissingCharacter("module carries no character for the twist")
    if m.dim <= 1:
        return 0
    pairs, wedge = wedge_square_matrices(m)
    return hom_module_dim(
        GModule(m.group, len(pairs), m.l, wedge), _line(m.group, m.l, m.character)
    )


def h0(m: GModule) -> int:
    """Dimension of the simultaneous fixed space of the generator matrices."""
    return hom_module_dim(_line(m.group, m.l, [1] * len(m.generator_matrices)), m)


def _line(group: FiniteGroup, l: int, values) -> GModule:
    """F_l with generator s acting as the scalar values[s]."""
    return GModule(group, 1, l, tuple(((c,),) for c in values))


def with_character(m: GModule, character) -> GModule:
    return GModule(m.group, m.dim, m.l, m.generator_matrices, tuple(character))

