"""The exceptional-class lattice model Z[T] < Pi_1 < Pi for Kummer varieties.

Points of the halved torsor are identified with F_2^{2g}; the ambient space
is (1/2) Z^(2^{2g}) so every half-sum generator is integral in numerators.
Pi is spanned by Z[T] together with the half-sums over affine hyperplanes
L(x) = c, and Pi_1 by Z[T] together with half the full sum.
"""

from __future__ import annotations

import math

from . import gf2
from .errors import ActionMismatch, GTooLarge, InputError, LatticeCheckFailed, NotASublattice
from .frozen import Frozen
from .groups import FiniteGroup, affine, affine_extension, images
from .lattice import Lattice, lattice_index
from .reps import GModule
from .smith import ZMatrix, _snf, bareiss_rank

EQUIVARIANT_G_CAP = 3
NUMEROLOGY_G_CAP = 6


class KummerLatticeModel(Frozen):
    __slots__ = ("g", "ambient_dim", "zt", "pi1", "pi")

    def __init__(self, g: int, ambient_dim: int, zt: Lattice, pi1: Lattice, pi: Lattice):
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "zt", zt)
        object.__setattr__(self, "pi1", pi1)
        object.__setattr__(self, "pi", pi)


def _half_sum_row(g, L, c):
    """Indicator numerator of {x in F_2^{2g} : L.x = c} (denominator 2)."""
    n = 1 << (2 * g)
    return [1 if ((L & x).bit_count() & 1) == c else 0 for x in range(n)]


def _pack(row):
    """A 0/1 row as an int, bit j = entry j."""
    return sum(1 << j for j, x in enumerate(row) if x)


def build_nikulin_lattice(g: int) -> KummerLatticeModel:
    """Construct Z[T], Pi_1, Pi for dimension g and verify the filtration.

    Each lattice lies between Z[T] = Z^n and (1/2) Z^n, so it is built from
    its generators mod 2 (``Lattice.from_f2_rows``): Pi from the 2^{2g+1}
    affine-hyperplane half-sums, whose span is the Reed-Muller code
    RM(1, 2g), and Pi_1 from half the full sum.  ``_verify_model`` then
    audits every generator against the lattice built.
    """
    if g < 2:
        raise GTooLarge("the model needs g >= 2")
    if g > EQUIVARIANT_G_CAP:
        raise GTooLarge(f"lattice model capped at g <= {EQUIVARIANT_G_CAP}")
    n = 1 << (2 * g)
    half_sums = [_half_sum_row(g, L, c) for L in range(n) for c in (0, 1)]
    zt = Lattice.from_f2_rows(n, [], den=2)
    pi1 = Lattice.from_f2_rows(n, [(1 << n) - 1], den=2)
    pi = Lattice.from_f2_rows(n, [_pack(r) for r in half_sums], den=2)
    model = KummerLatticeModel(g, n, zt, pi1, pi)
    _verify_model(model, half_sums)
    return model


def _verify_model(model, half_sums):
    """Every generator lies in the lattice built, the filtration has indices
    2 and 2^{2g}, and 2 Pi <= Z[T], so Pi / Z[T] is elementary abelian of
    rank 2g + 1."""
    g, n = model.g, model.ambient_dim
    zt, pi1, pi = model.zt, model.pi1, model.pi
    if not zt.rank == pi1.rank == pi.rank == n:
        raise LatticeCheckFailed("the filtration is not of full rank")
    units = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    generators = ((zt, []), (pi1, [[1] * n]), (pi, half_sums))
    for lat, halves in generators:
        if not (all(lat.contains(r) for r in units) and all(lat.contains(r, 2) for r in halves)):
            raise LatticeCheckFailed(f"{lat!r} misses one of its generators")
    for sub, sup, idx in ((zt, pi1, 2), (pi1, pi, 1 << (2 * g)), (zt, pi, 1 << (2 * g + 1))):
        if lattice_index(sub, sup) != idx:
            raise LatticeCheckFailed(f"[{sup!r} : {sub!r}] is not {idx}")
    if not all(zt.contains([2 * x for x in r], pi.den) for r in pi.basis):
        raise LatticeCheckFailed("Pi / Z[T] is not elementary abelian")


def quotient_two_ranks(sub: Lattice, sup: Lattice) -> int:
    """Number of 2s in the SNF of sub expressed in sup coordinates."""
    coords = []
    for row in sub.basis:
        c = sup.coords(row, sub.den)
        if c is None:
            raise NotASublattice(f"{sub!r} is not contained in {sup!r}")
        coords.append(c)
    diag = _snf(ZMatrix(coords)).D.diagonal()
    if not all(d in (1, 2) for d in diag):
        raise LatticeCheckFailed(f"quotient is not elementary abelian: {diag}")
    return sum(1 for d in diag if d == 2)


def zt_in_pi_coordinates(model) -> Lattice:
    """Z[T] written in the basis of Pi (an index-2^{2g+1} sublattice of Z^n)."""
    coords = []
    for row in model.zt.basis:
        c = model.pi.coords(row, model.zt.den)
        if c is None:
            raise NotASublattice("Z[T] is not contained in Pi")
        coords.append(c)
    return Lattice(model.ambient_dim, coords)


def canonical_class(g: int):
    """K = ((g-2)/2) * sum of exceptional classes, as (numerators, 2).

    Zero exactly when g = 2; an effective class for every g >= 3.
    """
    if g < 2:
        raise GTooLarge("the model needs g >= 2")
    n = 1 << (2 * g)
    return (tuple([g - 2] * n), 2)


def canonical_class_in_pi1(g: int) -> bool:
    """Exact membership of the canonical class in Pi_1, any g >= 2.

    Decomposition witness: (g-2) * halfsum = a * halfsum + b * fullsum with
    a = (g-2) mod 2 and b = (g-2-a)/2, both Pi_1 generators.
    """
    nums, den = canonical_class(g)
    a = (g - 2) % 2
    b = (g - 2 - a) // 2
    n = len(nums)
    recon = [a * 1 + b * 2 for _ in range(n)]
    return list(nums) == recon


def numerology(g: int, ns_rank: int):
    """Picard rank, Betti numbers and h^2 for dimension g, with b_2 = h^2 enforced."""
    if g < 2:
        raise GTooLarge("the model needs g >= 2")
    if g > NUMEROLOGY_G_CAP:
        raise GTooLarge(f"numerology capped at g <= {NUMEROLOGY_G_CAP}")
    if ns_rank < 1:
        raise InputError(f"the Neron-Severi rank must be at least 1, got {ns_rank}")
    n = 1 << (2 * g)
    picard = n + ns_rank
    betti = [0] * (2 * g + 1)
    betti[0] = betti[2 * g] = 1
    for i in range(1, g):
        betti[2 * i] = math.comb(2 * g, 2 * i) + n
    h2 = g * (2 * g - 1) + n
    if betti[2] != h2:
        raise LatticeCheckFailed(f"b_2 = {betti[2]} but dim H^2 = {h2}")
    return {"picard_rank": picard, "betti": betti, "h2_dim": h2}


# ---------------------------------------------------------------------------
# equivariant structure


def torsor_factor_group(module: GModule, nontrivial: bool) -> FiniteGroup:
    """Galois group of the torsor field for one factor, acting affinely.

    Nontrivial torsor: V x| G with one translation generator (the module is
    simple, so its orbit spans) plus the lifted generators of G.  Trivial
    torsor: the linear lift of G alone.
    """
    dim = module.dim
    gens = [(0, s, rows) for s, rows in zip(module.group.generators, module.bit_rows())]
    if nontrivial:
        gens.insert(0, (1, module.group.identity(), tuple(1 << i for i in range(dim))))
    base_order = module.group.known_order
    if base_order is None and module.group.elements is not None:
        base_order = len(module.group.elements)
    order = None
    if base_order is not None:
        order = base_order * ((1 << dim) if nontrivial else 1)
    name = f"{'2^%d x| ' % dim if nontrivial else ''}{module.group.name or 'G'}"
    return affine_extension(module.group, dim, gens, order, name)


def point_permutations(p_group: FiniteGroup):
    """Per-generator permutation of F_2^(sum of block dims), read off the
    generators' F_2 blocks of points."""
    npoints = 1 << sum(d for _, d, _ in p_group.blocks)
    perms = []
    for gen in p_group.generators:
        img = images(gen)
        perm = [0] * npoints
        for x in range(npoints):
            y = shift = 0
            for off, d, _ in p_group.blocks:
                xi = (x >> shift) & ((1 << d) - 1)
                y |= (img[off + xi] - off) << shift
                shift += d
            perm[x] = y
        perms.append(perm)
    return perms


def h1_pi1_from_points(perms) -> int:
    """dim H^1(P, Pi_1) for P generated by permutations s_1..s_k of the points T.

    Z[T] is a permutation module, so H^1(P, Z[T]) = 0 (Shapiro) and H^1(P, Pi_1)
    is the kernel on Hom(P, Z/2) of the Bockstein of 0 -> Z[T] -> Pi_1 -> Z/2
    -> 0.  By Shapiro again it sends chi to the Bocksteins of its restrictions
    to the point stabilisers P_x, each injective as H^1(P_x, Z) = 0.  So
    H^1(P, Pi_1) = {chi : chi(P_x) = 0 for all x}: the c in F_2^k such that
    each orbit carries f with f(s_j y) = f(y) + c_j (such a c kills every word
    fixing a point, so every relation of P).  One BFS gives f(y) as a linear
    form in c along tree edges; each non-tree edge adds f(s_j y) + f(y) + e_j.
    """
    k = len(perms)
    form = [None] * len(perms[0])
    ech = gf2.F2Echelon(k)
    for root in range(len(form)):
        if form[root] is not None:
            continue
        form[root] = 0
        queue = [root]
        for y in queue:
            for j, perm in enumerate(perms):
                z, t = perm[y], form[y] ^ (1 << j)
                if form[z] is None:
                    form[z] = t
                    queue.append(z)
                elif form[z] != t:
                    ech.add(form[z] ^ t)
    return k - ech.rank


def lattice_action_matrices(lat: Lattice, perm):
    """Integer matrix of the coordinate permutation in the basis of lat.

    Row convention: coordinate row c maps to c * M.  Raises ActionMismatch
    when the lattice is not stable under the permutation.
    """
    n = lat.ambient_dim
    solver_rows = []
    for row in lat.basis:
        image = [0] * n
        for x in range(n):
            image[perm[x]] = row[x]
        c = lat.coords(image, lat.den)
        if c is None:
            raise ActionMismatch("lattice is not stable under the point action")
        solver_rows.append(c)
    return solver_rows


def h1_two_torsion_dim(int_mats):
    """dim of the 2-torsion of H^1 for a torsion-free module given by integer
    generator matrices, via the doubling sequence:

        0 -> M^G / 2 M^G -> (M/2)^G -> H^1(G, M)[2] -> 0

    so the answer is rank_Q(W) - rank_{F_2}(W) for W = [M_s - I | ...].
    """
    if not int_mats:
        return 0
    r = len(int_mats[0])
    wide = []
    for i in range(r):
        row = []
        for m in int_mats:
            row.extend(m[i][j] - (1 if i == j else 0) for j in range(r))
        wide.append(row)
    rank_q = bareiss_rank(wide)
    packed = [sum((row[j] & 1) << j for j in range(len(row))) for row in wide]
    rank_f2 = gf2.F2Matrix(len(packed), len(wide[0]), packed).rank()
    if rank_q < rank_f2:
        raise LatticeCheckFailed(f"rank over Q {rank_q} below rank over F_2 {rank_f2}")
    return rank_q - rank_f2


class EquivariantModel:
    """Action of the torsor Galois group on the lattice filtration.

    factor_modules holds the GModule of the product group on each V_i, and
    tau_cocycles, per factor, a tuple over generators of F_2 vectors."""

    __slots__ = ("point_perms", "pi1_matrices", "factor_modules", "tau_cocycles")

    def __init__(self, point_perms, pi1_matrices, factor_modules, tau_cocycles):
        self.point_perms = point_perms
        self.pi1_matrices = pi1_matrices
        self.factor_modules = factor_modules
        self.tau_cocycles = tau_cocycles

    def h1_pi1_two_torsion(self):
        """All of H^1(P, Pi_1): the exceptional-class sublattice is a
        permutation module with H^1 = 0, and the quotient is Z/2, so H^1 of
        Pi_1 embeds in Hom(P, Z/2) and equals its own 2-torsion."""
        return h1_two_torsion_dim(self.pi1_matrices)


def equivariant_lattice(model: KummerLatticeModel, p_group: FiniteGroup, flags) -> EquivariantModel:
    """Equip the lattice model with the action of the torsor Galois group.

    The generators of p_group must carry affine data (per-factor pairs
    (v, g) with the action matrix); flags mark which factors are nontrivial
    torsors, and trivial factors must act linearly.
    """
    flags = tuple(bool(f) for f in flags)
    blocks = p_group.blocks
    if len(blocks) != len(flags) or any(l != 2 for _, _, l in blocks):
        raise ActionMismatch("generators must carry one F_2 block of affine data per factor")
    dims = tuple(d for _, d, _ in blocks)
    if sum(dims) != 2 * model.g:
        raise ActionMismatch(
            f"factor dimensions {dims} do not fill F_2^{2 * model.g}"
        )
    parts = [[affine(gen, b) for b in blocks] for gen in p_group.generators]
    for gen_parts in parts:
        for i, (_, v) in enumerate(gen_parts):
            if not flags[i] and any(v):
                raise ActionMismatch("trivial-flag factor carries a translation")
    perms = point_permutations(p_group)
    pi1_mats = [lattice_action_matrices(model.pi1, perm) for perm in perms]
    factor_modules = [
        GModule(p_group, d, 2, tuple(gp[i][0] for gp in parts)) for i, d in enumerate(dims)
    ]
    tau = [tuple(gp[i][1] for gp in parts) for i in range(len(dims))]
    return EquivariantModel(perms, pi1_mats, factor_modules, tau)
