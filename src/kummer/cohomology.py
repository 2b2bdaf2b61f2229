"""Group cohomology H^0 / H^1 via Cayley-graph cocycle propagation.

A 1-cocycle is determined by its values on the generators; propagating those
unknowns along the BFS tree of the Cayley graph and harvesting one linear
constraint per non-tree edge turns H^1 into a small F_l system (dim * #gens
unknowns) instead of one with an unknown vector per group element.  The
per-element brute-force solver survives only as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fp, gf2
from .errors import EngineError
from .gf2 import F2Echelon
from .reps import GModule


@dataclass
class CocycleSpace:
    """Z^1 / B^1 data for a module; cocycle_basis[i][j] = value on generator j."""

    module: GModule
    z1_dim: int
    b1_dim: int
    h1_dim: int
    cocycle_basis: tuple

    def __post_init__(self):
        assert self.h1_dim == self.z1_dim - self.b1_dim


def h1(m: GModule, validate: bool = True) -> CocycleSpace:
    """Cocycle space of the module; enumerates the group (CapExceeded bubbles up).

    With validate=True the generator matrices are also checked to define a
    homomorphism on every relation-closing Cayley edge.
    """
    m.group.enumerate()
    z_rows, ncols = _z1_constraints(m, validate)
    if m.l == 2:
        _, ker = gf2.f2_rank_kernel(gf2.F2Matrix(len(z_rows), ncols, z_rows))
        kernel_vecs = ker.rows
        z1 = len(kernel_vecs)
        b_rows = _coboundary_rows_f2(m)
        b1 = gf2.F2Matrix(len(b_rows), ncols, b_rows).rank()
        basis = tuple(_unpack_cocycle_f2(v, m) for v in kernel_vecs)
    else:
        kernel_vecs = fp.kernel_basis(z_rows, ncols, m.l)
        z1 = len(kernel_vecs)
        b_rows = _coboundary_rows_fp(m)
        b1 = fp.rank(b_rows, m.l)
        basis = tuple(_unpack_cocycle_fp(v, m) for v in kernel_vecs)
    return CocycleSpace(m, z1, b1, z1 - b1, basis)


def h1_dim(m: GModule, validate: bool = True) -> int:
    return h1(m, validate).h1_dim


def validate_module(m: GModule) -> None:
    """Check the generator assignment extends to the group; raises on failure."""
    if not m._validated:
        _z1_constraints(m, True)


def _z1_constraints(m: GModule, validate: bool):
    """(rows, ncols) of the Z^1 constraints, harvested from the Cayley graph
    once per module and cached on it; harvested again only while validation
    is still owed."""
    if m._z1_rows is None or (validate and not m._validated):
        harvest = _harvest_constraints_f2 if m.l == 2 else _harvest_constraints_fp
        m._z1_rows = harvest(m, validate)
    return m._z1_rows


def _harvest_constraints_f2(m: GModule, validate: bool):
    """Constraint rows for Z^1 over F_2, one block-row per non-tree edge.

    Unknown layout: N = dim * k bits, block j = c(s_j).  Per element x the
    propagated c(x) is a dim x N matrix packed into one int, row i occupying
    bits [i*N, i*N + N).  rho(x) is a tuple of dim packed rows.
    """
    g = m.group.enumerate()
    gens_rows = m.bit_rows()
    dim = m.dim
    k = len(g.generators)
    n_unknowns = dim * k
    rowmask = (1 << n_unknowns) - 1
    order = len(g.elements)
    edges = g.edges
    parents = g.parents

    def embed(rho_rows, j):
        # dim x N matrix with block j equal to rho, packed
        acc = 0
        shift = j * dim
        for i, r in enumerate(rho_rows):
            acc |= r << (i * n_unknowns + shift)
        return acc

    identity_rows = tuple(1 << i for i in range(dim))
    rho = [None] * order
    coef = [None] * order
    rho[0] = identity_rows
    coef[0] = 0
    ech = F2Echelon(n_unknowns)
    consistent = m._validated
    for x in range(order):
        rx = rho[x]
        cx = coef[x]
        base = x * k
        for j in range(k):
            y = edges[base + j]
            t = cx ^ embed(rx, j)
            if rho[y] is None:
                # tree edge: define c(y) and rho(y)
                rho[y] = tuple(gf2.matmul_rows(rx, gens_rows[j]))
                coef[y] = t
                if parents[y] != base + j:
                    raise AssertionError("enumeration parent bookkeeping broken")
            else:
                diff = t ^ coef[y]
                if diff:
                    for i in range(dim):
                        row = (diff >> (i * n_unknowns)) & rowmask
                        if row:
                            ech.add(row)
                if validate and not consistent:
                    if tuple(gf2.matmul_rows(rx, gens_rows[j])) != rho[y]:
                        raise EngineError(
                            "generator matrices do not extend to the group"
                        )
    if validate:
        _check_character(m)
        m._validated = True
    return ech.basis_rows(), n_unknowns


def _coboundary_rows_f2(m: GModule):
    """B^1 spanning rows: for basis vector e_t the map s_j -> rho(s_j) e_t - e_t."""
    dim = m.dim
    k = len(m.group.generators)
    n_unknowns = dim * k
    gens_rows = m.bit_rows()
    rows = []
    for t in range(dim):
        v = 1 << t
        acc = 0
        for j in range(k):
            w = gf2.matvec(gens_rows[j], v) ^ v
            acc |= w << (j * dim)
        rows.append(acc)
    return rows


def _unpack_cocycle_f2(packed, m: GModule):
    dim = m.dim
    vals = []
    for j in range(len(m.group.generators)):
        block = (packed >> (j * dim)) & ((1 << dim) - 1)
        vals.append(tuple((block >> i) & 1 for i in range(dim)))
    return tuple(vals)


def _pack_cocycle_f2(values, m: GModule):
    dim = m.dim
    acc = 0
    for j, v in enumerate(values):
        block = sum((x & 1) << i for i, x in enumerate(v))
        acc |= block << (j * dim)
    return acc


def _harvest_constraints_fp(m: GModule, validate: bool):
    """Generic-prime version of the constraint harvest (small groups only)."""
    g = m.group.enumerate()
    l = m.l
    dim = m.dim
    k = len(g.generators)
    n_unknowns = dim * k
    order = len(g.elements)
    edges = g.edges
    mats = m.generator_matrices

    def embed(rho_mat, j):
        out = [[0] * n_unknowns for _ in range(dim)]
        for i in range(dim):
            for c in range(dim):
                out[i][j * dim + c] = rho_mat[i][c]
        return out

    rho = [None] * order
    coef = [None] * order
    rho[0] = fp.identity(dim)
    coef[0] = [[0] * n_unknowns for _ in range(dim)]
    rows = []
    for x in range(order):
        rx = rho[x]
        cx = coef[x]
        base = x * k
        for j in range(k):
            y = edges[base + j]
            emb = embed(rx, j)
            t = [
                [(cx[i][c] + emb[i][c]) % l for c in range(n_unknowns)]
                for i in range(dim)
            ]
            if rho[y] is None:
                rho[y] = fp.mat_mul(rx, [list(r) for r in mats[j]], l)
                coef[y] = t
            else:
                cy = coef[y]
                for i in range(dim):
                    row = [(t[i][c] - cy[i][c]) % l for c in range(n_unknowns)]
                    if any(row):
                        rows.append(row)
                if validate and not m._validated:
                    if fp.mat_mul(rx, [list(r) for r in mats[j]], l) != rho[y]:
                        raise EngineError(
                            "generator matrices do not extend to the group"
                        )
    if validate:
        _check_character(m)
        m._validated = True
    return rows, n_unknowns


def _check_character(m: GModule):
    """Characters are rank-one modules; validate on relation-closing edges."""
    if m.character is None:
        return
    g = m.group
    l = m.l
    k = len(g.generators)
    vals = [None] * len(g.elements)
    vals[0] = 1
    for x in range(len(g.elements)):
        vx = vals[x]
        for j in range(k):
            y = g.edges[x * k + j]
            w = (vx * m.character[j]) % l
            if vals[y] is None:
                vals[y] = w
            elif vals[y] != w:
                raise EngineError("character is inconsistent on a Cayley relation")


def _coboundary_rows_fp(m: GModule):
    dim, l = m.dim, m.l
    k = len(m.group.generators)
    rows = []
    for t in range(dim):
        row = [0] * (dim * k)
        for j, mat in enumerate(m.generator_matrices):
            for i in range(dim):
                row[j * dim + i] = (mat[i][t] - (1 if i == t else 0)) % l
        rows.append(row)
    return rows


def _unpack_cocycle_fp(vec, m: GModule):
    dim = m.dim
    return tuple(
        tuple(vec[j * dim + i] for i in range(dim))
        for j in range(len(m.group.generators))
    )


def is_cocycle(m: GModule, values) -> bool:
    """Do the per-generator values satisfy every Cayley relation."""
    return _satisfies_constraints(m, values)


def _satisfies_constraints(m: GModule, values) -> bool:
    rows, _ = _z1_constraints(m, False)
    if m.l == 2:
        packed = _pack_cocycle_f2(values, m)
        return all((row & packed).bit_count() % 2 == 0 for row in rows)
    flat = [x for v in values for x in v]
    return all(sum(a * b for a, b in zip(row, flat)) % m.l == 0 for row in rows)


def cocycle_class_is_nonzero(m: GModule, values) -> bool:
    """Is the class of the given cocycle nonzero in H^1 (i.e. not a coboundary)."""
    if not _satisfies_constraints(m, values):
        raise EngineError("the given values do not satisfy the cocycle condition")
    if m.l == 2:
        packed = _pack_cocycle_f2(values, m)
        b_rows = _coboundary_rows_f2(m)
        ech = F2Echelon(m.dim * len(m.group.generators))
        for r in b_rows:
            ech.add(r)
        return not ech.contains(packed)
    flat = [x for v in values for x in v]
    b_rows = _coboundary_rows_fp(m)
    base = fp.rank(b_rows, m.l)
    return fp.rank(b_rows + [flat], m.l) > base
