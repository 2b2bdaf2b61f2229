"""Group cohomology H^0 / H^1 via Cayley-graph cocycle propagation.

A 1-cocycle is determined by its values on the generators; propagating those
unknowns along the BFS tree of the Cayley graph and harvesting one linear
constraint per non-tree edge turns H^1 into a small F_l system (dim * #gens
unknowns) instead of one with an unknown vector per group element.  The
per-element brute-force solver survives only as a test oracle.

The harvest first walks the image of g -> (rho(g), chi(g)), interning each
matrix (and character value) to an index and tabulating its product with
every generator, so rho is multiplied once per image element and generator
rather than once per Cayley edge.  The edge walk then carries one index per
element: a non-tree edge must close on the tabulated index, which checks on
every relation that rho and chi are homomorphisms, on every harvest.
Repeated constraints are dropped before the echelon, and the rows are cached
on the module, so each module is harvested and validated once.
"""

from __future__ import annotations

from operator import xor

from . import fp, gf2
from .errors import EngineError, GroupCheckFailed
from .gf2 import F2Echelon
from .reps import GModule


class CocycleSpace:
    """Z^1 / B^1 data for a module; cocycle_basis[i][j] = value on generator j."""

    __slots__ = ("module", "z1_dim", "b1_dim", "h1_dim", "cocycle_basis")

    def __init__(
        self, module: GModule, z1_dim: int, b1_dim: int, h1_dim: int, cocycle_basis: tuple
    ):
        if h1_dim != z1_dim - b1_dim:
            raise GroupCheckFailed(f"h1 {h1_dim} != z1 {z1_dim} - b1 {b1_dim}")
        self.module = module
        self.z1_dim = z1_dim
        self.b1_dim = b1_dim
        self.h1_dim = h1_dim
        self.cocycle_basis = cocycle_basis


def h1(m: GModule) -> CocycleSpace:
    """Cocycle space of the module; enumerates the group (CapExceeded bubbles up)
    and checks that the generator matrices define a homomorphism."""
    z_rows, ncols = _z1_constraints(m)
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


def h1_dim(m: GModule) -> int:
    return h1(m).h1_dim


def validate_module(m: GModule) -> None:
    """Check the generator assignment extends to the group; raises on failure."""
    _z1_constraints(m)


def _z1_constraints(m: GModule):
    """(rows, ncols) of the Z^1 constraints, harvested (and validated) from
    the Cayley graph once per module and cached on it."""
    if m._z1_rows is None:
        harvest = _harvest_constraints_f2 if m.l == 2 else _harvest_constraints_fp
        m._z1_rows = harvest(m)
    return m._z1_rows


def _image_walk(m: GModule, one, times):
    """Intern the image of g -> (rho(g), chi(g)) by BFS from (one, 1) under
    right multiplication by the generators; times(mat, j) = mat M_j.

    Returns (keys, step) with step[r*k + j] the index of keys[r] times
    generator j.  The image of a homomorphism has at most |G| elements, so a
    larger one fails closed before the edge walk.
    """
    g = m.group.enumerate()
    k = len(g.generators)
    order = len(g.elements)
    chi = m.character or (1,) * k
    keys = [(one, 1)]
    index = {keys[0]: 0}
    step = []
    r = 0
    while r < len(keys):
        mat, c = keys[r]
        for j in range(k):
            y = (times(mat, j), c * chi[j] % m.l)
            yi = index.get(y)
            if yi is None:
                yi = len(keys)
                if yi >= order:
                    raise EngineError("generator matrices do not extend to the group")
                index[y] = yi
                keys.append(y)
            step.append(yi)
        r += 1
    return keys, step


def _distinct_rows(m: GModule, step, emb, add, sub, zero, split):
    """Walk the Cayley graph carrying c(x) and the image index rid[x]; yield
    each distinct nonzero row of the constraints c(x) + x.c(s_j) - c(x s_j).

    A tree edge defines c(y) and rid[y]; a non-tree edge must land on
    rid[y] = step[rid[x]*k + j], which checks rho and chi on that relation.
    emb[r*k + j] is image element r placed in block j; split(c) gives the
    dim rows of a packed c.  A repeated constraint or row is skipped: it
    already lies in the span of the ones yielded.
    """
    g = m.group
    k = len(g.generators)
    order = len(g.elements)
    edges = g.edges
    parents = g.parents
    rid = [-1] * order
    coef = [None] * order
    rid[0] = 0
    coef[0] = zero
    seen = {zero}
    seen_rows = set(split(zero))
    for x in range(order):
        if rid[x] < 0:
            raise GroupCheckFailed("enumeration parent bookkeeping broken")
        r = rid[x] * k
        cx = coef[x]
        base = x * k
        for j in range(k):
            y = edges[base + j]
            t = add(cx, emb[r + j])
            s = step[r + j]
            if rid[y] < 0:
                if parents[y] != base + j:
                    raise GroupCheckFailed("enumeration parent bookkeeping broken")
                rid[y] = s
                coef[y] = t
            elif rid[y] != s:
                raise EngineError("generator matrices do not extend to the group")
            else:
                diff = sub(t, coef[y])
                if diff not in seen:
                    seen.add(diff)
                    for row in split(diff):
                        if row not in seen_rows:
                            seen_rows.add(row)
                            yield row


def _harvest_constraints_f2(m: GModule):
    """Echelon basis of the Z^1 constraints over F_2.

    Unknown layout: N = dim * k bits, block j = c(s_j).  Per element x the
    propagated c(x) is a dim x N matrix packed into one int, row i occupying
    bits [i*N, i*N + N).
    """
    gens_rows = m.bit_rows()
    dim = m.dim
    k = len(gens_rows)
    n = dim * k
    keys, step = _image_walk(
        m,
        tuple(1 << i for i in range(dim)),
        lambda rows, j: tuple(gf2.matmul_rows(rows, gens_rows[j])),
    )
    emb = [sum(r << (i * n + j * dim) for i, r in enumerate(rows)) for rows, _ in keys for j in range(k)]
    mask = (1 << n) - 1
    ech = F2Echelon(n)
    for row in _distinct_rows(
        m, step, emb, xor, xor, 0, lambda c: ((c >> (i * n)) & mask for i in range(dim))
    ):
        ech.add(row)
    return ech.basis_rows(), n


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


def _harvest_constraints_fp(m: GModule):
    """Distinct nonzero Z^1 constraint rows over F_p in first-seen order, by
    the same walks; c(x) is one flat tuple of its dim rows."""
    l, dim = m.l, m.dim
    mats = m.generator_matrices
    k = len(mats)
    n = dim * k
    keys, step = _image_walk(
        m,
        tuple(map(tuple, fp.identity(dim))),
        lambda mat, j: tuple(map(tuple, fp.mat_mul(mat, mats[j], l))),
    )
    emb = [
        tuple(mat[i][c - j * dim] if 0 <= c - j * dim < dim else 0 for i in range(dim) for c in range(n))
        for mat, _ in keys
        for j in range(k)
    ]
    rows = _distinct_rows(
        m,
        step,
        emb,
        lambda a, b: tuple((x + y) % l for x, y in zip(a, b)),
        lambda a, b: tuple((x - y) % l for x, y in zip(a, b)),
        (0,) * (dim * n),
        lambda c: (c[i * n : i * n + n] for i in range(dim)),
    )
    return list(rows), n


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
    rows, _ = _z1_constraints(m)
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
