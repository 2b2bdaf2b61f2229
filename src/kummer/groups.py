"""Finite group engine: one element type, a permutation of at most 256 points
stored as the ``bytes`` of its inverse, plus Cayley-BFS enumeration,
stabiliser chains (the order and Hom(G, F_l) without enumerating G) and
symplectic generators.  Normal closures stay as the tests' oracle for the
index-l quotients that the chains find.

Every group acts faithfully on its points: S_d and A_d on d points, Sp and
GSp(4, F_l) on the l^4 vectors of F_l^4, V x| G on V's 2^dim points (by the
affine map) followed by G's own points, and a direct product on the disjoint
union of its factors' points.  Storing the inverse makes right multiplication
by s one C call, ``x.translate(T_s)`` with T_s the 256-byte table of s^-1, and
the bytes are their own hash key, so enumeration order is deterministic for a
fixed generator order.  Vector-space blocks of points (``FiniteGroup.blocks``)
let ``affine`` read each element's matrix and translation back off its points.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from operator import add, sub

from . import fp, gf2
from .errors import CapExceeded, DimensionMismatch, EvenDegree, GroupCheckFailed, InputError

DEFAULT_CAP = 2_000_000
MAX_POINTS = 256
_ID = bytes(range(MAX_POINTS))


def permutation(imgs):
    """The element sending point i to imgs[i].

    Past MAX_POINTS the inverse is kept as a tuple: such a group can be built
    and inspected, but ``enumerate`` refuses it.
    """
    imgs = tuple(imgs)
    if sorted(imgs) != list(range(len(imgs))):
        raise GroupCheckFailed("generator images do not permute the points")
    inv = [0] * len(imgs)
    for i, j in enumerate(imgs):
        inv[j] = i
    return bytes(inv) if len(inv) <= MAX_POINTS else tuple(inv)


def from_cycles(n, cycles):
    img = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            img[a] = b
    return permutation(img)


def images(x):
    """Point images of an element (the inverse of what it stores)."""
    out = [0] * len(x)
    for i, j in enumerate(x):
        out[j] = i
    return tuple(out)


def _table(x):
    return x + _ID[len(x) :]


def mul(*xs):
    """Product x1 x2 ... (the last factor acts first)."""
    return reduce(lambda a, b: a.translate(_table(b)), xs)


def inverse(x):
    return bytes(images(x))


def is_even(x):
    """Parity from the cycle count (x and its inverse share it)."""
    seen = set()
    cycles = 0
    for i in range(len(x)):
        if i not in seen:
            cycles += 1
            while i not in seen:
                seen.add(i)
                i = x[i]
    return (len(x) - cycles) % 2 == 0


def affine(x, block):
    """(matrix rows, translation) of x on a block (offset, dim, l) of the points
    F_l^dim, point sum(v_i l^i) <-> v: the translation is the image of the
    zero vector and column c is the image of e_c minus it."""
    off, dim, l = block
    img = images(x)

    def vec(p):
        y = img[off + p] - off
        return [y // l**i % l for i in range(dim)]

    v = vec(0)
    cols = [[(a - b) % l for a, b in zip(vec(l**c), v)] for c in range(dim)]
    return tuple(tuple(col[r] for col in cols) for r in range(dim)), tuple(v)


class FiniteGroup:
    """Finitely generated permutation group with bounded Cayley-BFS enumeration.

    After ``enumerate()``: ``elements`` is the BFS-ordered element list with
    the identity at index 0, ``edges[i*k + j]`` is the index of
    ``elements[i] * generators[j]``, and ``parents[y]`` is the flat edge index
    that first produced y (tree edge), -1 for the identity.  ``blocks`` lists
    the (offset, dim, l) vector-space blocks of the points.  ``chain`` is
    the verified ``stabiliser_chain``, kept once built, like ``elements``.
    """

    def __init__(self, generators, known_order=None, name="", blocks=()):
        self.generators = list(generators)
        if not self.generators:
            raise GroupCheckFailed("a group needs at least one generator")
        if len({len(s) for s in self.generators}) != 1:
            raise GroupCheckFailed("generators act on different point sets")
        self.known_order = known_order
        self.name = name
        self.blocks = tuple(blocks)
        self.elements = None
        self.edges = None
        self.parents = None
        self.chain = None

    @property
    def degree(self):
        return len(self.generators[0])

    def identity(self):
        return permutation(range(self.degree))

    def enumerate(self):
        """Freeze the element list and Cayley edges (idempotent)."""
        if self.elements is not None:
            return self
        label = self.name or "group"
        if self.known_order is not None and self.known_order > DEFAULT_CAP:
            raise CapExceeded(f"{label} has order {self.known_order} > cap {DEFAULT_CAP}")
        if self.degree > MAX_POINTS:
            raise CapExceeded(f"{label} acts on {self.degree} > {MAX_POINTS} points")
        tables = [_table(s) for s in self.generators]
        k = len(tables)
        e = self.identity()
        elements = [e]
        index = {e: 0}
        edges = []
        parents = [-1]
        i = 0
        while i < len(elements):
            x = elements[i]
            for j, t in enumerate(tables):
                y = x.translate(t)
                yi = index.get(y)
                if yi is None:
                    yi = len(elements)
                    if yi >= DEFAULT_CAP:
                        raise CapExceeded(f"enumeration of {label} passed cap {DEFAULT_CAP}")
                    index[y] = yi
                    elements.append(y)
                    parents.append(i * k + j)
                edges.append(yi)
            i += 1
        self.elements = elements
        self.edges = edges
        self.parents = parents
        if self.known_order is not None and self.known_order != len(elements):
            raise GroupCheckFailed(
                f"{label}: enumerated order {len(elements)} != expected {self.known_order}"
            )
        return self

    def order(self):
        self.enumerate()
        return len(self.elements)

    def subgroup_closure(self, seeds):
        """Elements of <seeds>, BFS products only (enough for finite groups)."""
        e = self.identity()
        els = {e}
        order_list = [e]
        gens = []
        for t in seeds:
            if t not in els:
                self._extend_closure(els, order_list, gens, t)
        return els, order_list, gens

    def normal_closure(self, seeds):
        """Smallest normal subgroup containing the seeds, as an element set."""
        els, order_list, gens = self.subgroup_closure(seeds)
        # conjugating the subgroup generators by the group generators is enough
        # for normality; new conjugates are folded in until stable
        i = 0
        while i < len(gens):
            t = gens[i]
            for s in self.generators:
                c = mul(s, t, inverse(s))
                if c not in els:
                    self._extend_closure(els, order_list, gens, c)
            i += 1
        return els

    def _extend_closure(self, els, order_list, gens, t):
        # incremental product closure after adjoining t: every existing element
        # is multiplied by t once, then the new tail is closed under all gens
        gens.append(t)
        tables = [_table(u) for u in gens]
        n0 = len(order_list)
        for idx in range(n0):
            y = order_list[idx].translate(tables[-1])
            if y not in els:
                els.add(y)
                order_list.append(y)
        j = n0
        while j < len(order_list):
            x = order_list[j]
            for u in tables:
                y = x.translate(u)
                if y not in els:
                    if len(els) >= DEFAULT_CAP:
                        raise CapExceeded("closure passed cap")
                    els.add(y)
                    order_list.append(y)
            j += 1


class StabiliserChain:
    """A verified base and strong generating set of a FiniteGroup (Sims; Holt,
    Eick and O'Brien, Handbook of Computational Group Theory, 2005, 4.4).

    Elements act on the right, p -> x[p] (the stored inverse), padded to
    MAX_POINTS points.  ``levels[i]`` is (b_i, transversal): each point p of
    the orbit of b_i under G^(i), the group of the strong generators of depth
    >= i, maps to (u_p, the table of u_p^-1, the word of u_p), b_i u_p = p,
    u_{b_i} = 1.  A word is the tuple of exponent sums of g's generators.
    ``strong`` lists the strong generators as (element, word, depth).

    ``_schreier_sims`` builds the chain and sifts each Schreier generator
    u_p s u_{ps}^-1 of the final chain to 1 once, through the levels below
    its own, or raises GroupCheckFailed.  So G^(i+1) is the stabiliser of b_i
    in G^(i) (Schreier's lemma), and the order is the product of the orbit
    lengths.  The words these sifts leave, with those of the generators of g
    that sift to 1 (the others are strong generators), are relators that
    present the abelianisation of g.
    """

    __slots__ = ("ngens", "levels", "strong", "relators", "order")

    def __init__(self, g: FiniteGroup):
        self.ngens = len(g.generators)
        self.levels, self.strong, self.relators = _schreier_sims(g)
        self.order = math.prod(len(trans) for _, trans in self.levels)
        if g.known_order is not None and g.known_order != self.order:
            label = g.name or "group"
            raise GroupCheckFailed(f"{label}: chain order {self.order} != {g.known_order}")

    def word(self, x):
        """The word of an element of the group, from a sift from the top."""
        y, w, _ = _sift(self.levels, _table(x), (0,) * self.ngens, 0)
        if y != _ID:
            raise GroupCheckFailed("an element does not sift through the stabiliser chain")
        return tuple(-a for a in w)

    def hom_basis(self, l):
        """Basis of Hom(G, F_l), l prime, as values on the generators: the null
        space of the relators mod l."""
        rows = sorted({tuple(a % l for a in r) for r in self.relators})
        return fp.kernel_basis(rows, self.ngens, l)


def _unit(j, k):
    return tuple(int(a == j) for a in range(k))


def _close(trans, gens, todo):
    """Extend a transversal to the orbit of its points under gens: apply each
    generator to each point of todo, and to each point found."""
    for p in todo:
        u, uinv, w = trans[p]
        for s, sinv, ws in gens:
            q = s[p]
            if q not in trans:
                trans[q] = (u.translate(s), sinv.translate(uinv), tuple(map(add, w, ws)))
                todo.append(q)


def _schreier(trans, gens, done):
    """((p, index of s), u_p s u_{ps}^-1, its word) for each point p of a
    level's orbit and each generator s of the level, but the pairs in done."""
    for p, (u, _, wu) in trans.items():
        for n, (s, _, ws) in enumerate(gens):
            if (p, n) not in done:
                _, vinv, wv = trans[s[p]]
                h = u.translate(s).translate(vinv)
                yield (p, n), h, tuple(map(sub, map(add, wu, ws), wv))


def _sift(levels, x, w, i):
    """(residue, residual word, level reached) of x with word w from level i."""
    for b, trans in levels[i:]:
        if x[b] != b:
            entry = trans.get(x[b])
            if entry is None:
                break
            x = x.translate(entry[1])
            w = tuple(map(sub, w, entry[2]))
        i += 1
    return x, w, i


def _schreier_sims(g: FiniteGroup):
    """Levels, strong generators and relators of g, by deterministic
    Schreier-Sims: a residue that fixes b_0 .. b_{j-1} is a strong generator
    of depth j, with a new base point (the first point it moves) if j is past
    the base.  Levels are completed deepest first.  When a Schreier generator
    sifts to 1 its pair (p, s) is marked and the word it leaves kept as a
    relator; one that leaves a residue is sifted again once the residue is a
    strong generator.  Transversal entries are never replaced and levels only
    grow, so a sift to 1 stays one in the final chain, and each Schreier
    generator of the final chain is sifted to 1 once.  GroupCheckFailed is
    raised unless every level marks |orbit| x |level generators| pairs."""
    k = len(g.generators)
    levels, level_gens, marked, strong, relators = [], [], [], [], set()

    def add_strong(y, w, depth):
        if depth == len(levels):
            b = next(p for p in range(MAX_POINTS) if y[p] != p)
            levels.append((b, {b: (_ID, _ID, (0,) * k)}))
            level_gens.append([])
            marked.append(set())
        strong.append((y, w, depth))
        gen = (y, bytes.maketrans(y, _ID), w)
        for (_, trans), gens in zip(levels[: depth + 1], level_gens):
            gens.append(gen)
            todo = list(trans)
            n = len(todo)
            _close(trans, [gen], todo)
            _close(trans, gens, todo[n:])

    def residue(i):
        for key, h, w in _schreier(levels[i][1], level_gens[i], marked[i]):
            y, w, depth = _sift(levels, h, w, i + 1)
            if y != _ID:
                return y, w, depth
            marked[i].add(key)
            relators.add(w)
        return None

    for j, x in enumerate(g.generators):
        y, w, depth = _sift(levels, _table(x), _unit(j, k), 0)
        if y != _ID:
            add_strong(y, w, depth)
        else:
            relators.add(w)
    i = len(levels) - 1
    while i >= 0:
        found = residue(i)
        if found:
            add_strong(*found)
        i = found[2] if found else i - 1
    for (_, trans), gens, pairs in zip(levels, level_gens, marked):
        if len(pairs) != len(trans) * len(gens):
            raise GroupCheckFailed("a Schreier generator of the chain was never sifted to 1")
    return levels, strong, relators


def stabiliser_chain(g: FiniteGroup) -> StabiliserChain:
    """The verified stabiliser chain of g, built on the first call and kept
    on g; a build that raised keeps nothing."""
    if g.chain is None:
        if g.degree > MAX_POINTS:
            raise CapExceeded(f"{g.name or 'group'} acts on {g.degree} > {MAX_POINTS} points")
        g.chain = StabiliserChain(g)
    return g.chain


def elementary_l_quotient_kernel(g: FiniteGroup, l: int):
    """Normal closure K of generator commutators and l-th powers of generators.

    g/K is the maximal elementary abelian l-quotient; returns the element set
    of K.  The verdict path reads Hom(G, F_l) off ``stabiliser_chain``; this
    closure stays as the oracle the tests compare it with.
    """
    g.enumerate()
    gens = g.generators
    seeds = [
        mul(s1, s2, inverse(s1), inverse(s2))
        for i, s1 in enumerate(gens)
        for s2 in gens[i + 1 :]
    ]
    seeds += [mul(*[s] * l) for s in gens]
    k = g.normal_closure(seeds)
    if len(g.elements) % len(k):
        raise GroupCheckFailed(f"closure order {len(k)} does not divide {len(g.elements)}")
    return k


def has_index_l_normal_subgroup(g: FiniteGroup, l: int) -> bool:
    """True iff there is a surjection g -> Z/l, l prime: Hom(g, F_l) != 0."""
    return bool(stabiliser_chain(g).hom_basis(l))


def semidirect(module) -> FiniteGroup:
    """Semidirect product F_2^dim x| G of an F_2 G-module (its ``dim``,
    ``group`` and ``bit_rows()``).  Generators of the result are the basis
    translations followed by the lifted generators of G.
    """
    dim, g = module.dim, module.group
    idrows = tuple(1 << i for i in range(dim))
    gens = [(1 << i, g.identity(), idrows) for i in range(dim)]
    gens += [(0, s, rows) for s, rows in zip(g.generators, module.bit_rows())]
    order = g.known_order * (1 << dim) if g.known_order else None
    if g.elements is not None and order is None:
        order = len(g.elements) * (1 << dim)
    return affine_extension(g, dim, gens, order, f"2^{dim} x| {g.name or 'G'}")


def affine_extension(g: FiniteGroup, dim: int, gens, known_order, name) -> FiniteGroup:
    """Group generated by affine maps (v, s, rows): w -> rows.w + v on F_2^dim
    with s an element of g; it acts on the 2^dim points of F_2^dim followed by
    g's own points, on which s acts as in g."""
    n = 1 << dim
    els = [
        permutation([gf2.matvec(rows, w) ^ v for w in range(n)] + [n + y for y in images(s)])
        for v, s, rows in gens
    ]
    return FiniteGroup(els, known_order=known_order, name=name, blocks=[(0, dim, 2)])


def direct_product(*groups) -> FiniteGroup:
    """Direct product on the disjoint union of the factors' points; generators
    are the factor generators, each fixing the other factors' points."""
    total = sum(g.degree for g in groups)
    gens = []
    blocks = []
    off = 0
    for g in groups:
        for s in g.generators:
            img = list(range(total))
            img[off : off + g.degree] = [off + y for y in images(s)]
            gens.append(permutation(img))
        blocks += [(off + o, d, l) for o, d, l in g.blocks]
        off += g.degree
    order = None
    if all(g.known_order or g.elements is not None for g in groups):
        order = 1
        for g in groups:
            order *= g.known_order if g.known_order else len(g.elements)
    name = " x ".join(g.name or "G" for g in groups)
    return FiniteGroup(gens, known_order=order, name=name, blocks=blocks)


# ---------------------------------------------------------------------------
# standard construction fixtures


@lru_cache(maxsize=None)
def symmetric_group(d) -> FiniteGroup:
    """S_d from the transposition (0 1) and the d-cycle."""
    gens = [from_cycles(d, [(0, 1)]), from_cycles(d, [tuple(range(d))])]
    return FiniteGroup(gens, known_order=math.factorial(d), name=f"S{d}")


@lru_cache(maxsize=None)
def alternating_group(d) -> FiniteGroup:
    """A_d for odd d, from a 3-cycle and the (even) d-cycle."""
    if d % 2 == 0 or d < 3:
        raise EvenDegree(f"A_d is built for odd d >= 3, got {d}")
    if d == 3:
        gens = [from_cycles(3, [(0, 1, 2)])]
    else:
        gens = [from_cycles(d, [(0, 1, 2)]), from_cycles(d, [tuple(range(d))])]
    return FiniteGroup(gens, known_order=math.factorial(d) // 2, name=f"A{d}")


def group_order_formula(family: str, n: int, l: int) -> int:
    """Closed-form orders of Sp(n, F_l), GSp(n, F_l), PSp(n, F_l); n even."""
    if n % 2 or n < 2:
        raise InputError(f"symplectic groups need an even n >= 2, got {n}")
    if family not in ("Sp", "GSp", "PSp"):
        raise InputError(f"unknown family {family!r}")
    m = n // 2
    sp = l ** (m * m)
    for i in range(1, m + 1):
        sp *= l ** (2 * i) - 1
    if family == "Sp":
        return sp
    if family == "GSp":
        return sp * (l - 1)
    return sp // math.gcd(2, l - 1)


def symplectic_form(n):
    """Standard alternating form: antidiag(1, -1) blocks on (e_i, f_i) pairs."""
    j = [[0] * n for _ in range(n)]
    for i in range(0, n, 2):
        j[i][i + 1] = 1
        j[i + 1][i] = -1
    return j


def transvection(v, l, n):
    """Symplectic transvection x -> x + <x, v> v as matrix rows (column action)."""
    j = symplectic_form(n)
    vj = [sum(v[a] * j[a][b] for a in range(n)) % l for b in range(n)]
    m = [[((1 if i == k else 0) + v[i] * vj[k]) % l for k in range(n)] for i in range(n)]
    _check_form(m, j, l, 1)
    return m


def _check_form(m, j, l, mu):
    """Raise unless <Mx, My> = mu <x, y>, i.e. M^T J M = mu J."""
    n = len(m)
    mt = list(zip(*m))
    mtj = [[sum(mt[i][a] * j[a][b] for a in range(n)) % l for b in range(n)] for i in range(n)]
    mtjm = [[sum(mtj[i][a] * m[a][b] for a in range(n)) % l for b in range(n)] for i in range(n)]
    if any(mtjm[i][k] != (mu * j[i][k]) % l for i in range(n) for k in range(n)):
        raise GroupCheckFailed(f"matrix does not scale the symplectic form by {mu}")


def _linear_action(m, l):
    """The element acting on the l^n vectors of F_l^n, point sum(v_i l^i) <-> v."""
    n = len(m)
    out = []
    for x in range(l**n):
        v = [x // l**i % l for i in range(n)]
        out.append(sum(sum(a * b for a, b in zip(row, v)) % l * l**r for r, row in enumerate(m)))
    return permutation(out)


# transvection directions that generate Sp(4, F_l) for small l; verified by
# comparing the BFS order with the closed formula in the test suite
_SP4_DIRECTIONS = [
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (1, 0, 1, 0),
    (0, 1, 0, 1),
]


@lru_cache(maxsize=None)
def symplectic_group(n, l) -> FiniteGroup:
    """Sp(n, F_l) generated by symplectic transvections (n = 4 supported)."""
    if n != 4:
        raise DimensionMismatch(f"only Sp(4, F_l) is wired up, not n = {n}")
    gens = [_linear_action(transvection(v, l, n), l) for v in _SP4_DIRECTIONS]
    return FiniteGroup(
        gens,
        known_order=group_order_formula("Sp", n, l),
        name=f"Sp({n},F{l})",
        blocks=[(0, n, l)],
    )


@lru_cache(maxsize=None)
def general_symplectic_group(n, l) -> FiniteGroup:
    """GSp(n, F_l): Sp generators plus one similitude of factor a primitive root."""
    if n != 4:
        raise DimensionMismatch(f"only GSp(4, F_l) is wired up, not n = {n}")
    nu = _primitive_root(l)
    d = [[0] * n for _ in range(n)]
    for i in range(0, n, 2):
        d[i][i] = nu
        d[i + 1][i + 1] = 1
    _check_form(d, symplectic_form(n), l, nu)
    gens = list(symplectic_group(n, l).generators) + [_linear_action(d, l)]
    return FiniteGroup(
        gens,
        known_order=group_order_formula("GSp", n, l),
        name=f"GSp({n},F{l})",
        blocks=[(0, n, l)],
    )


def _primitive_root(l):
    for g in range(2, l):
        seen = set()
        x = 1
        for _ in range(l - 1):
            x = x * g % l
            seen.add(x)
        if len(seen) == l - 1:
            return g
    if l != 2:
        raise GroupCheckFailed(f"no primitive root mod {l}: l must be prime")
    return 1
