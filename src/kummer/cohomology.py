"""Group cohomology H^1 of F_2-modules via Cayley-graph cocycle propagation.

Every module the engine takes H^1 of is over F_2 (A[2] as a G_i-module, and
the torsor modules V x| G), so this module is F_2 only: a module over any
other field is refused by ``GModule.bit_rows`` before anything is cached.
Over F_2 the only unit is 1, so a module's character is trivial and plays
no part here.

A 1-cocycle is determined by its values on the generators; propagating those
unknowns along the BFS tree of the Cayley graph and harvesting one linear
constraint per non-tree edge turns H^1 into a small F_2 system (dim * #gens
unknowns) instead of one with an unknown vector per group element.  The
per-element brute-force solver survives only as a test oracle.

The harvest is one walk.  It first interns the image of rho, each packed
matrix to an index, tabulating its product with every generator, so rho is
multiplied once per image element and generator rather than once per Cayley
edge.  The edge walk then carries one index per element: a non-tree edge
must close on the tabulated index, which checks on every relation that rho
is a homomorphism, on every harvest.  Repeated constraints and rows are
dropped before the echelon, and the rows are cached on the module, so each
module is harvested and validated once.
"""

from __future__ import annotations

from . import gf2
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
    _, ker = gf2.f2_rank_kernel(gf2.F2Matrix(len(z_rows), ncols, z_rows))
    z1 = len(ker.rows)
    b_rows = _coboundary_rows_f2(m)
    b1 = gf2.F2Matrix(len(b_rows), ncols, b_rows).rank()
    basis = tuple(_unpack_cocycle_f2(v, m) for v in ker.rows)
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
        m._z1_rows = _harvest_constraints_f2(m)
    return m._z1_rows


def _image_walk(gens_rows, dim: int, order: int):
    """Intern the image of rho by BFS from the identity under right
    multiplication by the generators, as tuples of packed rows.

    Returns (keys, step) with step[r*k + j] the index of keys[r] times
    generator j.  The image of a homomorphism has at most |G| elements, so a
    larger one fails closed before the edge walk.
    """
    keys = [tuple(1 << i for i in range(dim))]
    index = {keys[0]: 0}
    step = []
    for rows in keys:  # keys grows while it is walked: a BFS queue
        for gen in gens_rows:
            y = tuple(gf2.matmul_rows(rows, gen))
            yi = index.get(y)
            if yi is None:
                yi = len(keys)
                if yi >= order:
                    raise EngineError("generator matrices do not extend to the group")
                index[y] = yi
                keys.append(y)
            step.append(yi)
    return keys, step


def _harvest_constraints_f2(m: GModule):
    """Echelon basis of the Z^1 constraints over F_2, as (rows, ncols).

    Unknown layout: N = dim * k bits, block j = c(s_j).  The walk carries
    per element x the propagated c(x), a dim x N matrix packed into one int
    (row i occupying bits [i*N, i*N + N)), and the image index rid[x].  A
    tree edge defines c(y) and rid[y]; a non-tree edge must land on
    rid[y] = step[rid[x]*k + j], which checks rho on that relation, and
    gives the constraint c(x) + x.c(s_j) - c(x s_j).  emb[r*k + j] is image
    element r placed in block j.
    """
    gens_rows = m.bit_rows()
    g = m.group.enumerate()
    dim = m.dim
    k = len(gens_rows)
    n = dim * k
    order = len(g.elements)
    edges = g.edges
    parents = g.parents
    keys, step = _image_walk(gens_rows, dim, order)
    emb = [sum(r << (i * n + j * dim) for i, r in enumerate(rows)) for rows in keys for j in range(k)]
    mask = (1 << n) - 1
    ech = F2Echelon(n)
    rid = [-1] * order
    coef = [0] * order
    rid[0] = 0
    seen = {0}
    seen_rows = {0}
    for x in range(order):
        if rid[x] < 0:
            raise GroupCheckFailed("enumeration parent bookkeeping broken")
        r = rid[x] * k
        cx = coef[x]
        base = x * k
        for j in range(k):
            y = edges[base + j]
            t = cx ^ emb[r + j]
            s = step[r + j]
            if rid[y] < 0:
                if parents[y] != base + j:
                    raise GroupCheckFailed("enumeration parent bookkeeping broken")
                rid[y] = s
                coef[y] = t
            elif rid[y] != s:
                raise EngineError("generator matrices do not extend to the group")
            else:
                # a repeated constraint or row already lies in the echelon's span
                diff = t ^ coef[y]
                if diff not in seen:
                    seen.add(diff)
                    for i in range(dim):
                        row = (diff >> (i * n)) & mask
                        if row not in seen_rows:
                            seen_rows.add(row)
                            ech.add(row)
    return ech.basis_rows(), n


def _coboundary_rows_f2(m: GModule):
    """B^1 spanning rows: for basis vector e_t the map s_j -> rho(s_j) e_t - e_t."""
    dim = m.dim
    gens_rows = m.bit_rows()
    rows = []
    for t in range(dim):
        v = 1 << t
        acc = 0
        for j, gen in enumerate(gens_rows):
            acc |= (gf2.matvec(gen, v) ^ v) << (j * dim)
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


def is_cocycle(m: GModule, values) -> bool:
    """Do the per-generator values satisfy every Cayley relation."""
    return _satisfies_constraints(m, values)


def _satisfies_constraints(m: GModule, values) -> bool:
    rows, _ = _z1_constraints(m)
    packed = _pack_cocycle_f2(values, m)
    return all((row & packed).bit_count() % 2 == 0 for row in rows)


def cocycle_class_is_nonzero(m: GModule, values) -> bool:
    """Is the class of the given cocycle nonzero in H^1 (i.e. not a coboundary)."""
    if not _satisfies_constraints(m, values):
        raise EngineError("the given values do not satisfy the cocycle condition")
    ech = F2Echelon(m.dim * len(m.group.generators))
    for r in _coboundary_rows_f2(m):
        ech.add(r)
    return not ech.contains(_pack_cocycle_f2(values, m))
