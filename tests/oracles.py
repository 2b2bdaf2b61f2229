"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive: exhaustive enumeration, cofactor
expansion, per-element cocycle solving.  None of it shares the code path it
checks; where an oracle reuses a smaller engine helper (one vector's
spin-up, the chain's sift), its docstring says so.
"""

from __future__ import annotations

import math
from itertools import product


def exhaustive_f2_kernel(rows, ncols):
    """All vectors v in F_2^ncols with M v = 0, by trying every one (ncols <= 12)."""
    assert ncols <= 16
    kernel = []
    for bits in range(1 << ncols):
        if all((r & bits).bit_count() % 2 == 0 for r in rows):
            kernel.append(bits)
    return kernel


def cofactor_det(mat):
    """Determinant by recursive cofactor expansion (exact, exponential)."""
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    rest = mat[1:]
    for j, a in enumerate(mat[0]):
        if a == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rest]
        total += (-1) ** j * a * cofactor_det(minor)
    return total


def sylvester_matrix(f, g):
    """Sylvester matrix of two polynomials given low-degree-first."""
    df, dg = len(f) - 1, len(g) - 1
    n = df + dg
    rows = []
    frev = list(reversed(f))
    grev = list(reversed(g))
    for i in range(dg):
        rows.append([0] * i + frev + [0] * (n - df - 1 - i))
    for i in range(df):
        rows.append([0] * i + grev + [0] * (n - dg - 1 - i))
    return rows


def resultant_by_cofactor(f, g):
    return cofactor_det(sylvester_matrix(f, g))


def unimodular_2x2_snf_search(mat, bound=3):
    """Search small unimodular U, V putting a 2x2 integer matrix into SNF.

    Returns the diagonal (d1, d2) of the best U*m*V found with d1 | d2,
    d_i >= 0, by exhausting all U, V with entries in [-bound, bound].
    """
    vals = range(-bound, bound + 1)
    unimods = []
    for a, b, c, d in product(vals, repeat=4):
        if a * d - b * c in (1, -1):
            unimods.append(((a, b), (c, d)))

    def mul(x, y):
        return (
            (
                x[0][0] * y[0][0] + x[0][1] * y[1][0],
                x[0][0] * y[0][1] + x[0][1] * y[1][1],
            ),
            (
                x[1][0] * y[0][0] + x[1][1] * y[1][0],
                x[1][0] * y[0][1] + x[1][1] * y[1][1],
            ),
        )

    m = (tuple(mat[0]), tuple(mat[1]))
    for u in unimods:
        um = mul(u, m)
        for v in unimods:
            umv = mul(um, v)
            if umv[0][1] == 0 and umv[1][0] == 0:
                d1, d2 = abs(umv[0][0]), abs(umv[1][1])
                if d1 and d2 % d1 == 0:
                    return (d1, d2)
                if d1 == 0 and d2 == 0:
                    return (0, 0)
    return None


def brute_force_h1(group, gen_mats, dim, l):
    """Cocycle space dims with one unknown module vector per group element.

    Returns (z1_dim, b1_dim).  Constraints are c(x*s) = c(x) + x.c(s) for all
    x in G and generators s over F_2 (all pairs when the group is tiny), which
    pins down every cocycle; over odd primes generator pairs are used to keep
    the echelon tractable.
    """
    group.enumerate()
    n = group.order()
    els = group.elements
    k = len(group.generators)
    nunk = n * dim  # unknown c(x) per element

    # representation matrix per element, propagated along products
    mats = _element_matrices(group, gen_mats, dim, l)

    rows = []

    def add_constraint(xi, yi, zi):
        # c(z) - c(x) - mat(x) c(y) = 0, rows indexed by module coordinate
        mx = mats[xi]
        for r in range(dim):
            row = [0] * nunk
            row[zi * dim + r] = (row[zi * dim + r] + 1) % l
            row[xi * dim + r] = (row[xi * dim + r] - 1) % l
            for cidx in range(dim):
                if mx[r][cidx]:
                    row[yi * dim + cidx] = (row[yi * dim + cidx] - mx[r][cidx]) % l
            rows.append(row)

    index = {e: i for i, e in enumerate(els)}
    if n * n * dim <= 2500:
        pairs = ((x, y) for x in range(n) for y in range(n))
    else:
        # constraints over (x, generator) pairs pin down the same space
        pairs = ((x, index[g]) for x in range(n) for g in group.generators)
    for xi, yi in pairs:
        z = compose_stored(els[xi], els[yi])
        add_constraint(xi, yi, index[z])
    # identity normalisation c(e) = 0
    eid = index[group.identity()]
    for r in range(dim):
        row = [0] * nunk
        row[eid * dim + r] = 1
        rows.append(row)

    z1 = nunk - _modp_rank(rows, l)

    # coboundaries: c_v(x) = x.v - v
    cob = []
    for t in range(dim):
        row = [0] * nunk
        for xi in range(n):
            mx = mats[xi]
            for r in range(dim):
                row[xi * dim + r] = (mx[r][t] - (1 if r == t else 0)) % l
        cob.append(row)
    b1 = _modp_rank(cob, l)
    return z1, b1


def _element_matrices(group, gen_mats, dim, l):
    mats = [None] * group.order()
    idmat = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    index = {e: i for i, e in enumerate(group.elements)}
    mats[index[group.identity()]] = idmat
    k = len(group.generators)
    for xi in range(group.order()):
        mx = mats[xi]
        assert mx is not None
        for j in range(k):
            yi = group.edges[xi * k + j]
            if mats[yi] is None:
                a, b = mx, gen_mats[j]
                mats[yi] = [
                    [sum(a[r][t] * b[t][c] for t in range(dim)) % l for c in range(dim)]
                    for r in range(dim)
                ]
    return mats


def _modp_rank(rows, p):
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col] % p:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


# ---------------------------------------------------------------------------
# naive group elements: the engine's former element types, kept as the oracle
# for its bytes-encoded permutations


def compose_stored(x, y):
    """Product x * y of two engine elements, each stored as the bytes of its
    inverse permutation: (x y)^-1 = y^-1 x^-1, composed index by index."""
    return bytes(y[x[i]] for i in range(len(x)))


class Perm:
    """Permutation of {0..n-1}, stored as the tuple of images."""

    def __init__(self, images):
        self.images = tuple(images)

    @classmethod
    def identity(cls, n):
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n, cycles):
        img = list(range(n))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                img[a] = b
        return cls(img)

    def __mul__(self, other):
        # (self * other)(x) = self(other(x))
        return Perm(self.images[y] for y in other.images)

    def key(self):
        return ("p", self.images)

    def __eq__(self, other):
        return self.key() == other.key()


class FpMat:
    """Invertible square matrix over F_p (column vectors, left action)."""

    def __init__(self, p, rows):
        self.p = p
        self.rows = tuple(tuple(x % p for x in r) for r in rows)

    @classmethod
    def identity(cls, p, n):
        return cls(p, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __mul__(self, other):
        cols = list(zip(*other.rows))
        return FpMat(
            self.p,
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows],
        )

    def inverse(self):
        """The last power before the identity (the group is finite)."""
        one = FpMat.identity(self.p, len(self.rows))
        prev, power = one, self
        while power != one:
            prev, power = power, power * self
        return prev

    def key(self):
        return ("m", self.p, self.rows)

    def __eq__(self, other):
        return self.key() == other.key()


def _bit_matvec(rows, v):
    """0/1 matrix rows times a packed F_2 column vector."""
    return sum((sum(a & (v >> c) for c, a in enumerate(row)) & 1) << r for r, row in enumerate(rows))


def _bit_matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[r][t] & b[t][c] for t in range(n)) & 1 for c in range(n)) for r in range(n)
    )


class SemidirectElement:
    """Pair (v, g) in V x| G with V = F_2^dim, mat the 0/1 action rows of g:
    (v1, g1) (v2, g2) = (v1 + g1.v2, g1 g2)."""

    def __init__(self, v, g, mat):
        self.v = v
        self.g = g
        self.mat = tuple(tuple(r) for r in mat)

    def __mul__(self, other):
        return SemidirectElement(
            self.v ^ _bit_matvec(self.mat, other.v), self.g * other.g, _bit_matmul(self.mat, other.mat)
        )

    def key(self):
        return ("sd", self.v, self.g.key())


class DirectElement:
    """Tuple of factor elements with componentwise multiplication."""

    def __init__(self, parts):
        self.parts = tuple(parts)

    def __mul__(self, other):
        return DirectElement(a * b for a, b in zip(self.parts, other.parts))

    def key(self):
        return ("x",) + tuple(a.key() for a in self.parts)


def oracle_bfs(generators, identity):
    """Cayley BFS over naive elements: (element keys, edges, parents) in the
    engine's layout, edges[i*k + j] = index of elements[i] * generators[j]."""
    elements = [identity]
    index = {identity.key(): 0}
    edges = []
    parents = [-1]
    k = len(generators)
    i = 0
    while i < len(elements):
        for j, s in enumerate(generators):
            y = elements[i] * s
            yi = index.setdefault(y.key(), len(elements))
            if yi == len(elements):
                elements.append(y)
                parents.append(i * k + j)
            edges.append(yi)
        i += 1
    return [e.key() for e in elements], edges, parents


# ---------------------------------------------------------------------------
# per-edge Z^1 harvest: the engine's former constraint harvest, which
# recomputes rho on every Cayley edge, kept as the oracle for its image walk


def per_edge_harvest_f2(m):
    """(rows, ncols): one F_2 block-row per non-tree Cayley edge, pushed
    through an F2Echelon; rho(x) is recomputed on every edge and checked on
    the non-tree ones."""
    from kummer import gf2
    from kummer.errors import EngineError

    g = m.group.enumerate()
    gens_rows = m.bit_rows()
    dim = m.dim
    k = len(g.generators)
    n_unknowns = dim * k
    rowmask = (1 << n_unknowns) - 1
    order = len(g.elements)

    def embed(rho_rows, j):
        acc = 0
        for i, r in enumerate(rho_rows):
            acc |= r << (i * n_unknowns + j * dim)
        return acc

    rho = [None] * order
    coef = [None] * order
    rho[0] = tuple(1 << i for i in range(dim))
    coef[0] = 0
    ech = gf2.F2Echelon(n_unknowns)
    for x in range(order):
        for j in range(k):
            y = g.edges[x * k + j]
            t = coef[x] ^ embed(rho[x], j)
            ry = tuple(gf2.matmul_rows(rho[x], gens_rows[j]))
            if rho[y] is None:
                rho[y] = ry
                coef[y] = t
                assert g.parents[y] == x * k + j
            else:
                diff = t ^ coef[y]
                for i in range(dim):
                    row = (diff >> (i * n_unknowns)) & rowmask
                    if row:
                        ech.add(row)
                if ry != rho[y]:
                    raise EngineError("generator matrices do not extend to the group")
    return ech.basis_rows(), n_unknowns


# ---------------------------------------------------------------------------
# dense lattice layer: the engine's former Nikulin construction (Hermite
# reduction over every generator), membership by the SNF row solver, and the
# index as the product of a Smith diagonal


def dense_nikulin_lattices(g):
    """(Z[T], Pi_1, Pi) from hermite_rows over 2 e_j plus the half-sums."""
    from kummer.lattice import Lattice

    n = 1 << (2 * g)
    unit_rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    half_sums = [
        [1 if ((L & x).bit_count() & 1) == c else 0 for x in range(n)]
        for L in range(n)
        for c in (0, 1)
    ]
    zt = Lattice(n, unit_rows, den=2)
    pi1 = Lattice(n, unit_rows + [[1] * n], den=2)
    pi = Lattice(n, unit_rows + half_sums, den=2)
    return zt, pi1, pi


def solver_coords(lat, num, den=1):
    """Coordinates of num/den in lat's basis by RowSolver, or None."""
    from kummer.smith import RowSolver

    scaled = []
    for v in num:
        q, r = divmod(v * lat.den, den)
        if r:
            return None
        scaled.append(q)
    return RowSolver([list(r) for r in lat.basis], lat.ambient_dim).solve(scaled)


def snf_index(sub, sup):
    """[sup : sub] for lattices of equal rank, as the product of the Smith
    diagonal of sub's basis in solver coordinates of sup."""
    from kummer.smith import ZMatrix, _snf

    coords = [solver_coords(sup, row, sub.den) for row in sub.basis]
    assert all(c is not None for c in coords)
    idx = 1
    for d in _snf(ZMatrix(coords)).D.diagonal():
        idx *= d
    return abs(idx)


# ---------------------------------------------------------------------------
# stages 5 and 6 over the enumerated product group


def full_product_equivariant_stage(case, modules):
    """Checks 5 and 6 the direct way: enumerate P = prod P_i, act on the
    dense Pi_1 model (H^1 as rank_Q - rank_F2 of the stacked [M_s - I]), and
    harvest each V_i over all of P.  Returns the pipeline stage's
    ((passed, details), (passed, details)).  It shares torsor_factor_group
    and the cohomology harvest with the stage; what it checks is the
    Schreier-graph H^1(P, Pi_1) and the factor-by-factor H^1(P, V_i)."""
    from kummer.cohomology import cocycle_class_is_nonzero, h1_dim
    from kummer.groups import direct_product
    from kummer.picard import build_nikulin_lattice, equivariant_lattice, torsor_factor_group

    flags = [f.torsor_nontrivial for f in case.factors]
    p_group = direct_product(*[torsor_factor_group(m, flag) for m, flag in zip(modules, flags)])
    eq = equivariant_lattice(build_nikulin_lattice(case.g), p_group, flags)
    h1_pi1 = eq.h1_pi1_two_torsion()
    perm_basis = permutation_basis_exists(eq)
    all_trivial = not any(flags)
    pi1_ok = h1_pi1 == 0 and (perm_basis if all_trivial else True)
    pi1_details = {
        "group_order": p_group.order(),
        "h1_pi1": h1_pi1,
        "pi1_permutation_basis": perm_basis,
        "all_torsors_trivial": all_trivial,
    }
    lines = []
    for i, (vmod, flag) in enumerate(zip(eq.factor_modules, flags)):
        hv = h1_dim(vmod)
        line = {
            "factor": i,
            "torsor_nontrivial": flag,
            "h1_torsor_group_module": hv,
            "expected": 1 if flag else 0,
            "h1_pic_factor_model": hv,
        }
        if flag:
            nonzero = cocycle_class_is_nonzero(vmod, eq.tau_cocycles[i])
            line["torsor_class_nonzero"] = nonzero
            line["h1_pic_factor_model"] = hv - (1 if nonzero else 0)
        lines.append(line)
    assembled = h1_pi1 + sum(line["h1_pic_factor_model"] for line in lines)
    pic_ok = pi1_ok and assembled == 0 and all(
        line["h1_torsor_group_module"] == line["expected"] and line["h1_pic_factor_model"] == 0
        for line in lines
    )
    pic_details = {"factors": lines, "h1_pic_model_assembled": assembled}
    return (pi1_ok, pi1_details), (pic_ok, pic_details)


# ---------------------------------------------------------------------------
# distinct-degree factorisation mod p, one full powmod per degree


def _ptrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _ptrim(out)


def _pdivmod(a, b, p):
    a = list(a)
    binv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * binv % p
        if c:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % p
    return q, _ptrim(a[: len(b) - 1])


def _pgcd(a, b, p):
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [x * inv % p for x in a]
    return a


def _ppowmod(base, e, mod, p):
    result = [1]
    b = _pdivmod(base, mod, p)[1] if len(base) >= len(mod) else list(base)
    while e:
        if e & 1:
            result = _pdivmod(_pmul(result, b, p), mod, p)[1]
        e >>= 1
        if e:
            b = _pdivmod(_pmul(b, b, p), mod, p)[1]
    return result


def _monic_mod_p(coeffs, p):
    fb = _ptrim([c % p for c in coeffs])
    inv = pow(fb[-1], -1, p)
    return [c * inv % p for c in fb]


def is_ramified_by_gcd(coeffs, p):
    """Is f mod p not squarefree, by gcd(f, f') over F_p (p must not divide lc)?"""
    fb = _monic_mod_p(coeffs, p)
    deriv = _ptrim([(i * c) % p for i, c in enumerate(fb)][1:])
    return not deriv or len(_pgcd(fb, deriv, p)) > 1


def ddf_cycle_type(coeffs, p):
    """Degrees of the irreducible factors of f mod p (sorted tuple), or
    kummer.galois.RAMIFIED: gcd(f, f') for ramification, then
    gcd(rem, x^{p^k} - x) with x^{p^k} from a fresh powmod at every k."""
    from kummer.galois import RAMIFIED

    if coeffs[-1] % p == 0:
        raise ValueError(f"{p} divides the leading coefficient")
    if is_ramified_by_gcd(coeffs, p):
        return RAMIFIED
    degrees = []
    rem = _monic_mod_p(coeffs, p)
    h = [0, 1]  # x
    k = 0
    while len(rem) - 1 > 0:
        k += 1
        if 2 * k > len(rem) - 1:
            degrees.append(len(rem) - 1)
            break
        h = _ppowmod(h, p, rem, p)
        hx = list(h) + [0] * max(0, 2 - len(h))
        hx[1] = (hx[1] - 1) % p  # h(x) - x
        g = _pgcd(rem, _ptrim(hx), p)
        if len(g) > 1:
            dk = len(g) - 1
            assert dk % k == 0
            degrees.extend([k] * (dk // k))
            rem, r = _pdivmod(rem, g, p)
            assert not r
            h = _pdivmod(h, rem, p)[1] if len(h) >= len(rem) else h
    return tuple(sorted(degrees))


# ---------------------------------------------------------------------------
# small helpers that only tests call: the engine's former methods and
# functions that no verdict reads


def witness_for(cert, role):
    """(prime, cycle type) of the certificate's first witness with this role."""
    for p, t, r in cert.witnesses:
        if r == role:
            return p, t
    return None


def f2_from_rows(rows, ncols=None):
    """An F2Matrix from an iterable of 0/1 sequences."""
    from kummer.errors import DimensionMismatch
    from kummer.gf2 import F2Matrix

    rows = [list(r) for r in rows]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    packed = []
    for r in rows:
        if len(r) != ncols:
            raise DimensionMismatch(f"a row of length {len(r)} in a matrix of {ncols} columns")
        acc = 0
        for j, v in enumerate(r):
            if v & 1:
                acc |= 1 << j
        packed.append(acc)
    return F2Matrix(len(rows), ncols, packed)


def mat_inverse(rows):
    """Inverse of an invertible packed-row F_2 matrix."""
    n = len(rows)
    work = list(rows)
    inv = [1 << i for i in range(n)]
    for c in range(n):
        mask = 1 << c
        src = None
        for i in range(c, n):
            if work[i] & mask:
                src = i
                break
        if src is None:
            raise ValueError("matrix is singular over F_2")
        work[c], work[src] = work[src], work[c]
        inv[c], inv[src] = inv[src], inv[c]
        for i in range(n):
            if i != c and work[i] & mask:
                work[i] ^= work[c]
                inv[i] ^= inv[c]
    return inv


def element_orders(group):
    """Sorted orders of a group's elements, by powering each element."""
    from kummer.groups import mul

    orders = []
    for x in group.enumerate().elements:
        n, y = 1, x
        while y != group.identity():
            y, n = mul(y, x), n + 1
        orders.append(n)
    return sorted(orders)


def scan_cycle_type(f, p):
    """The cycle type of f mod p, p not dividing lc(f), as frobenius_scan yields it."""
    from kummer.galois import discriminant, frobenius_scan

    return next(frobenius_scan(f, discriminant(f), (p,)))[1]


def poly_mul(f, g):
    """f * g for IntPolynomials, by schoolbook convolution."""
    out = [0] * (f.degree + g.degree + 1)
    for (i, x), (j, y) in product(enumerate(f.coefficients), enumerate(g.coefficients)):
        out[i + j] += x * y
    return type(f)(out)


def shifted(f, k):
    """f(x + k) for an IntPolynomial, by the binomial theorem."""
    c, n = f.coefficients, range(len(f.coefficients))
    return type(f)([sum(c[i] * math.comb(i, j) * k ** (i - j) for i in n[j:]) for j in n])


def exceptional_intersections(g):
    """Pairing of exceptional classes against their ruling curves: -2 I."""
    from kummer.errors import GTooLarge
    from kummer.picard import EQUIVARIANT_G_CAP

    if g < 2:
        raise GTooLarge("the model needs g >= 2")
    if g > EQUIVARIANT_G_CAP:
        raise GTooLarge(f"intersection table capped at g <= {EQUIVARIANT_G_CAP}")
    n = 1 << (2 * g)
    return [[-2 if i == j else 0 for j in range(n)] for i in range(n)]


def permutation_basis_exists(eq):
    """Is {e_x : x != 0} + {half the full sum} stable under every generator of
    an EquivariantModel's group."""
    return all(perm[0] == 0 for perm in eq.point_perms)


def trivial_module(group, dim=1, l=2):
    """The trivial module F_l^dim of a group."""
    from kummer.reps import GModule

    eye = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    return GModule(group, dim, l, tuple(eye for _ in group.generators))


def twisted_torsor_group(module, cocycle):
    """V x| G with the translation by e_0 first, then each generator s_j of G
    lifted with the translation cocycle[j] (0/1 tuples): the group a
    nontrivial torsor factor would have if its lifts carried a cocycle twist.
    Built directly through groups.affine_extension."""
    from kummer.groups import affine_extension

    g, dim = module.group, module.dim
    gens = [(1, g.identity(), tuple(1 << i for i in range(dim)))]
    gens += [
        (sum(b << i for i, b in enumerate(c)), s, rows)
        for c, s, rows in zip(cocycle, g.generators, module.bit_rows())
    ]
    return affine_extension(g, dim, gens, g.order() << dim, f"2^{dim} x| {g.name or 'G'}")


def invariant_alternating_form(m):
    """A nonzero G-invariant alternating bilinear form of a module, or None.

    Witnesses embeddings into the symplectic group of the form.
    """
    from kummer.fp import kernel_basis

    dim, l = m.dim, m.l
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    rows = []
    for a in m.generator_matrices:
        # B(Mx, My) = B(x, y) with B alternating: unknowns B_ij (i<j)
        for i, j in pairs:
            row = [0] * len(pairs)
            for k, t in pairs:
                coeff = (a[k][i] * a[t][j] - a[t][i] * a[k][j]) % l
                row[pairs.index((k, t))] = (
                    row[pairs.index((k, t))] + coeff - (1 if (k, t) == (i, j) else 0)
                ) % l
            rows.append(row)
    basis = kernel_basis(rows, len(pairs), l)
    if not basis:
        return None
    b = basis[0]
    form = [[0] * dim for _ in range(dim)]
    for (i, j), x in zip(pairs, b):
        form[i][j] = x
        form[j][i] = (-x) % l
    return form


def is_diagonal(zmat):
    """Is every off-diagonal entry of a ZMatrix zero."""
    return all(
        zmat.data[i][j] == 0 for i in range(zmat.nrows) for j in range(zmat.ncols) if i != j
    )


# ---------------------------------------------------------------------------
# simplicity by exhaustive spin-up, and the stabiliser chain's verifying
# second pass: the engine's former paths, kept as oracles for the orbit
# representatives of reps.is_simple and the one-pass chain


def exhaustive_is_simple(m):
    """Every one of the l^dim - 1 nonzero vectors spins up to the module
    (``reps._spins_to_full``, one vector at a time)."""
    from kummer.reps import _spins_to_full

    if m.dim == 0:
        return False
    l, dim = m.l, m.dim
    return all(
        _spins_to_full(list(v), m.generator_matrices, dim, l)
        for v in product(range(l), repeat=dim)
        if any(v)
    )


class TwoPassChain:
    """A stabiliser chain rebuilt from a base and strong generators (element,
    word, depth): the transversals closed again under S^(i) = every strong
    generator of depth >= i, then every generator of g and every Schreier
    generator sifted again through them.  A residue raises; the words the
    sifts leave are the relators.  It shares ``_close``, ``_schreier`` and
    ``_sift`` with the engine, not the bookkeeping of marked pairs."""

    def __init__(self, g, base, strong):
        from kummer.groups import _ID, _close, _schreier, _table, _unit

        k = self.ngens = len(g.generators)
        self.levels = [(b, {b: (_ID, _ID, (0,) * k)}) for b in base]
        tables = [(d, (y, bytes.maketrans(y, _ID), w)) for y, w, d in strong]
        level_gens = [[s for d, s in tables if d >= i] for i in range(len(base))]
        for (b, trans), gens in zip(self.levels, level_gens):
            _close(trans, gens, [b])
        sift = self._sift_to_one
        self.relators = {sift(_table(x), _unit(j, k), 0) for j, x in enumerate(g.generators)}
        for i, (_, trans) in enumerate(self.levels):
            self.relators.update(
                sift(h, w, i + 1) for _, h, w in _schreier(trans, level_gens[i], ())
            )
        self.order = math.prod(len(trans) for _, trans in self.levels)

    def _sift_to_one(self, x, w, i):
        from kummer.errors import GroupCheckFailed
        from kummer.groups import _ID, _sift

        x, w, _ = _sift(self.levels, x, w, i)
        if x != _ID:
            raise GroupCheckFailed("an element does not sift through the stabiliser chain")
        return w

    def word(self, x):
        from kummer.groups import _table

        return tuple(-a for a in self._sift_to_one(_table(x), (0,) * self.ngens, 0))

    def hom_basis(self, l):
        from kummer.fp import kernel_basis

        rows = sorted({tuple(a % l for a in r) for r in self.relators})
        return kernel_basis(rows, self.ngens, l)


# ---------------------------------------------------------------------------
# Hom dimensions: the engine's former row builders for End, H^0 and the
# wedge-square invariants, each its own linear system, kept as oracles for
# reps.hom_module_dim's one system, and a count of every candidate map


def end_dim_by_rows(m):
    """Dimension over F_l of {E : E rho(s) = rho(s) E for all generators}."""
    from kummer import fp

    dim, l = m.dim, m.l
    rows = []
    for a in m.generator_matrices:
        # unknown E (dim x dim), flattened row-major: E a - a E = 0
        for i in range(dim):
            for j in range(dim):
                row = [0] * (dim * dim)
                for k in range(dim):
                    row[i * dim + k] = (row[i * dim + k] + a[k][j]) % l
                    row[k * dim + j] = (row[k * dim + j] - a[i][k]) % l
                rows.append(row)
    return dim * dim - fp.rank(rows, l) if rows else dim * dim


def wedge2_invariants_by_rows(m):
    """dim of G-invariants of Hom(wedge^2 m, chi) for the stored character chi."""
    from kummer import fp
    from kummer.errors import MissingCharacter
    from kummer.reps import wedge_square_matrices

    if m.character is None:
        raise MissingCharacter("module carries no character for the twist")
    if m.dim <= 1:
        return 0
    l = m.l
    pairs, wedge = wedge_square_matrices(m)
    nw = len(pairs)
    rows = []
    for chi_s, w in zip(m.character, wedge):
        # invariant functional f: f(W x) = chi f(x)  <=>  (W^T - chi I) f = 0
        for i in range(nw):
            row = [(w[k][i] - (chi_s if k == i else 0)) % l for k in range(nw)]
            rows.append(row)
    return nw - fp.rank(rows, l) if rows else nw


def h0_by_rows(m):
    """Dimension of the simultaneous fixed space of the generator matrices."""
    from kummer import fp

    dim, l = m.dim, m.l
    rows = []
    for a in m.generator_matrices:
        for i in range(dim):
            rows.append([(a[i][j] - (1 if i == j else 0)) % l for j in range(dim)])
    return dim - fp.rank(rows, l) if rows else dim


def _count_to_dim(count, l):
    k = 0
    while l**k < count:
        k += 1
    if l**k != count:
        raise ValueError(f"{count} solutions is no power of {l}")
    return k


def brute_force_hom_dim(m, n):
    """log_l of the number of F in F_l^{dn x dm} with F a = b F for each pair
    (a, b) of generator matrices, by trying every F."""
    l, dm, dn = m.l, m.dim, n.dim
    count = 0
    for entries in product(range(l), repeat=dn * dm):
        f = [entries[i * dm : (i + 1) * dm] for i in range(dn)]
        count += all(
            all(
                sum(f[i][k] * a[k][j] for k in range(dm)) % l
                == sum(b[i][k] * f[k][j] for k in range(dn)) % l
                for i in range(dn)
                for j in range(dm)
            )
            for a, b in zip(m.generator_matrices, n.generator_matrices)
        )
    return _count_to_dim(count, l)


def brute_force_wedge2_invariants_dim(m):
    """log_l of the number of alternating forms B on F_l^dim with
    B(a x, a y) = chi(s) B(x, y) for each generator matrix a of s, by trying
    every B: a form is a functional on wedge^2, so this counts
    Hom(wedge^2 m, chi) without the wedge-square matrices."""
    l, dim = m.l, m.dim
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    count = 0
    for entries in product(range(l), repeat=len(pairs)):
        b = [[0] * dim for _ in range(dim)]
        for (i, j), x in zip(pairs, entries):
            b[i][j], b[j][i] = x, -x % l
        count += all(
            all(
                sum(a[k][i] * b[k][t] * a[t][j] for k in range(dim) for t in range(dim)) % l
                == chi * b[i][j] % l
                for i in range(dim)
                for j in range(dim)
            )
            for a, chi in zip(m.generator_matrices, m.character)
        )
    return _count_to_dim(count, l)


# ---------------------------------------------------------------------------
# the verdict report as one plain dict: the engine's former run_case, which
# built every report from fresh dicts, kept as the oracle for the reports the
# pipeline now assembles from memoized fragments


def unmemoized_report(case, force_fail=None):
    """The report dict of ``run_case(case, force_fail)``, from the stage
    functions called directly: ``certify_galois``, ``disc_class``,
    ``certify_family_disjoint`` and the fill's ``_module_stage``,
    ``_h1_stage`` and ``_equivariant_stage``, with none of the pipeline's
    memos and no Fragment.  The strict torsor-count rule is left out: no
    input it is run on breaks it."""
    from kummer.disjoint import certify_family_disjoint, disc_class
    from kummer.errors import FactorBudgetExceeded
    from kummer.galois import certify_galois
    from kummer.picard import numerology
    from kummer.pipeline import CITATIONS, HYPOTHESIS_CHECKS, _equivariant_stage, _h1_stage
    from kummer.pipeline import _module_stage

    certs = [certify_galois(f.poly, case.prime_bound) for f in case.factors]
    galois = [
        {
            "poly": [str(c) for c in f.poly.coefficients],
            "degree": cert.degree,
            "verdict": cert.verdict,
            "discriminant": str(cert.discriminant),
            "disc_square": cert.disc_square,
            "witnesses": [[p, list(t), role] for p, t, role in cert.witnesses],
            "accepted": cert.verdict == "SymmetricGroup"
            or (cert.verdict == "AlternatingGroup" and cert.degree != 3),
        }
        for f, cert in zip(case.factors, certs)
    ]
    outcomes = [(all(e["accepted"] for e in galois), galois)]
    audit = None
    if not outcomes[0][0]:
        skip = {"skipped": "galois certification failed"}
        outcomes += [(False, skip), (False, [skip]), (False, [skip]), (False, skip), (False, skip)]
    else:
        try:
            classes = [disc_class(cert.discriminant) for cert in certs]
            out = certify_family_disjoint(certs, classes)
        except FactorBudgetExceeded as exc:
            disjoint = False, {"verdict": "HeuristicOnly", "reason": str(exc)}
        else:
            details = {
                "verdict": out.verdict,
                "reason": out.reason,
                "classes": [{"support": list(c.squarefree_support), "sign": c.sign} for c in classes],
            }
            disjoint = out.verdict == "Certified", details
        sigs = tuple(
            (cert.degree, "S" if cert.verdict == "SymmetricGroup" else "A", f.torsor_nontrivial)
            for cert, f in zip(certs, case.factors)
        )
        structure_ok, structure, modules = _module_stage(sigs)
        pi1, pic = _equivariant_stage(sigs, modules)
        outcomes += [disjoint, (structure_ok, structure), _h1_stage(modules), pi1, pic]
        if "skipped" not in pi1[1]:
            audit = {**pi1[1], **pic[1]}
    hypotheses = []
    for name, (ok, details) in zip(HYPOTHESIS_CHECKS, outcomes):
        entry = {"name": name, "passed": bool(ok), "details": details}
        if force_fail == name:
            entry["passed"] = False
            entry["fault_injected"] = True
        hypotheses.append(entry)
    failing = [h["name"] for h in hypotheses if not h["passed"]]
    asserted = not failing
    conclusions = {"asserted": asserted, "withheld_because": failing or None}
    for key in ("picard_rank", "br2_algebraic", "br1_equals_br0", "br_bar_2_invariants_zero"):
        value = True if asserted else None
        if asserted and key == "picard_rank":
            value = numerology(case.g, len(certs))["picard_rank"]
        conclusions[key] = {
            "value": value,
            "source": "COMPUTED" if asserted else "WITHHELD",
            "citation": CITATIONS[key],
        }
    conclusions["odd_part_unobstructed_note"] = {
        "value": CITATIONS["odd_part_unobstructed_note"],
        "source": "CITED(odd-order-unobstructed)",
        "citation": CITATIONS["odd_part_unobstructed_note"],
    }
    echo = [
        {"poly": [str(c) for c in f.poly.coefficients], "torsor_nontrivial": f.torsor_nontrivial}
        for f in case.factors
    ]
    return {
        "case": {
            "factors": echo,
            "prime_bound": case.prime_bound,
            "mode": "certify",
            "g": case.g,
            "n": len(case.factors),
        },
        "hypotheses": hypotheses,
        "equivariant_audit": audit,
        "conclusions": conclusions,
        "citations": sorted(set(CITATIONS.values())),
    }
