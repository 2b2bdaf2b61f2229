"""Galois group certification for separable odd-degree integer polynomials.

The certificate route is one-sided: reduction cycle types (Dedekind) supply a
transitivity witness and a cycle type forcing the alternating group, then the
discriminant square test separates S_d from A_d.  The tool never claims a
group smaller than A_d; it answers Unknown instead.

Cycle types come from one scan of the primes (``frobenius_scan``).  Primes
p > d = deg f that divide neither lc(f) nor disc(f) go in batches, computed
together in (Z/M)[x]/(f) with M the product of a batch's primes (CRT lanes).
In each lane, Q is the matrix of Frobenius on F_p[x]/(f) = prod F_{p^n_j};
Frob^k on F_{p^n} permutes a normal basis cyclically, so its trace is n if
n | k and 0 otherwise, and tr(Q^k) = sum_{n | k} n a_n is the number of roots
of f in F_{p^k} (a_n factors of degree n).  That number is at most d < p, so
tr(Q^k) mod p is exact, and Moebius inversion over k <= d/2 gives the a_k;
the rest of the degree is one factor.  A count that is negative, not a
multiple of k, or a rest in (0, d/2] raises GaloisCheckFailed.  The identity
needs p > d, so a prime p <= d gets the gcd distinct-degree factorisation
instead.
"""

from __future__ import annotations

import bisect
import math
import operator
from functools import lru_cache

from .errors import EvenDegree, GaloisCheckFailed, Inseparable, InputError, ZeroInput
from .frozen import Frozen
from .smith import bareiss_det


class IntPolynomial(Frozen):
    """Univariate polynomial over Z, coefficients constant-first; the last
    one is nonzero unless it is the only one."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = tuple(coefficients)
        for c in coeffs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise InputError(f"coefficient {c!r} is not an integer")
        if not coeffs:
            raise InputError("a polynomial needs at least one coefficient")
        if len(coeffs) > 1 and coeffs[-1] == 0:
            raise InputError(f"leading coefficient 0 in {coeffs}")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self):
        return len(self.coefficients) - 1

    @property
    def leading(self):
        return self.coefficients[-1]

    def derivative(self):
        return IntPolynomial(
            tuple(i * c for i, c in enumerate(self.coefficients))[1:] or (0,)
        )

    def __repr__(self):
        return f"IntPolynomial{self.coefficients}"


def resultant(f: IntPolynomial, g: IntPolynomial):
    """Res(f, g) as the Sylvester determinant (exact, Bareiss)."""
    df, dg = f.degree, g.degree
    if df == 0:
        return f.coefficients[0] ** dg
    if dg == 0:
        return g.coefficients[0] ** df
    n = df + dg
    rows = []
    frev = list(reversed(f.coefficients))
    grev = list(reversed(g.coefficients))
    for i in range(dg):
        rows.append([0] * i + frev + [0] * (n - df - 1 - i))
    for i in range(df):
        rows.append([0] * i + grev + [0] * (n - dg - 1 - i))
    return bareiss_det(rows)


def discriminant(f: IntPolynomial):
    """disc(f) = (-1)^{d(d-1)/2} Res(f, f') / lc(f); zero iff f is inseparable."""
    d = f.degree
    if d < 1:
        raise InputError(f"a polynomial of degree {d} has no discriminant")
    res = resultant(f, f.derivative())
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    q, r = divmod(sign * res, f.leading)
    if r:
        raise GaloisCheckFailed("Res(f, f') is not divisible by lc(f)")
    return q


def disc_is_square(n) -> bool:
    """Exact perfect-square test in Z."""
    if n == 0:
        raise ZeroInput("discriminant zero")
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


# ---------------------------------------------------------------------------
# arithmetic mod p: distinct-degree factorisation

_sieved_to = 3  # _primes holds every prime <= _sieved_to
_primes = [2, 3]


def primes_up_to(bound):
    """The primes <= bound, in increasing order, sliced from one shared sieve
    that grows (at least doubling) when a larger bound is asked for."""
    global _sieved_to, _primes
    if bound > _sieved_to:
        n = max(bound, 2 * _sieved_to)
        sieve = bytearray([1]) * (n + 1)
        sieve[0:2] = b"\x00\x00"
        for i in range(2, math.isqrt(n) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
        _sieved_to, _primes = n, [i for i, v in enumerate(sieve) if v]
    return _primes[: bisect.bisect_right(_primes, bound)]


class Ramified:
    """Sentinel: f mod p is not squarefree.  Its one instance is RAMIFIED,
    compared by identity."""

    def __repr__(self):
        return "Ramified"


RAMIFIED = Ramified()


def _ptrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _pdivmod(a, b, p):
    """(quotient, remainder) of a by b over F_p; each step leaves alone the
    top coefficient it cancels, as no later step reads it."""
    a = list(a)
    n = len(b) - 1
    binv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - n)
    for i in range(len(a) - 1 - n, -1, -1):
        c = a[i + n] * binv % p
        if c:
            q[i] = c
            for j in range(n):
                a[i + j] = (a[i + j] - c * b[j]) % p
    return q, _ptrim(a[:n])


def _pgcd(a, b, p):
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [x * inv % p for x in a]
    return a


def _mulmod(u, v, fold, p):
    """u * v mod f over Z/p, for u, v of length d = deg f; p is a prime or,
    for the CRT lanes of a batch, a product of primes.

    The product accumulates unreduced integers; its coefficients of x^d and
    up are reduced mod p (for a wide p this halves the width of each fold
    product) and folded back through the rows x^{d+j} mod f, and each of the
    d low coefficients is reduced mod p once."""
    d = len(u)
    c = [0] * (2 * d - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v, i):
                c[j] += ui * vj
    low = c[:d]
    for ch, row in zip(c[d:], fold):
        ch %= p
        if ch:
            low = [x + ch * t for x, t in zip(low, row)]
    return [x % p for x in low]


def _times_x(h, xd, p):
    """x * h mod f over Z/p, given xd = x^d mod f: a shift plus one fold."""
    top = h[-1]
    return [(lo + top * t) % p for lo, t in zip([0] + h[:-1], xd)]


def _fold_rows(monic, m):
    """fold[j] = x^{d+j} mod f over Z/m, j = 0 .. d-2, for monic f given by
    its d coefficients below the leading 1."""
    fold = [[-c % m for c in monic]]
    while len(fold) < len(monic) - 1:
        fold.append(_times_x(fold[-1], fold[0], m))
    return fold


def _frobenius_matrix(coeffs, lanes):
    """Q over Z/M for f of degree d with the given coefficients, where M is
    the product of the distinct primes in lanes, none dividing lc(f): in
    each prime p's CRT lane, Q is the matrix of Frobenius on F_p[x]/(f), and
    its rows are x^{ip} mod f, i = 0 .. d - 1.

    Every operation is on (Z/M)[x]/(f), so one big-int product serves all the
    lanes.  x^p comes from one left-to-right ladder over the bits of the
    longest prime; at bit j the lanes whose prime has that bit set multiply by
    x, through h + E_j (x h - h) with E_j the sum of their CRT idempotents
    (1 mod their own prime, 0 mod the others)."""
    d = len(coeffs) - 1
    m = math.prod(lanes)
    inv = pow(coeffs[-1], -1, m)
    fold = _fold_rows([c * inv % m for c in coeffs[:-1]], m)
    idempotents = [m // p * pow(m // p, -1, p) for p in lanes]
    h = [1] + [0] * (d - 1)
    for j in range(max(lanes).bit_length() - 1, -1, -1):
        h = _mulmod(h, h, fold, m)
        e = sum(ei for ei, p in zip(idempotents, lanes) if p >> j & 1) % m
        if e:
            xh = _times_x(h, fold[0], m)
            h = [(a + e * (b - a)) % m for a, b in zip(h, xh)]
    q = [[1] + [0] * (d - 1), h][:d]
    while len(q) < d:
        q.append(_mulmod(q[-1], h, fold, m))
    return q


def _frobenius_traces(coeffs, lanes):
    """[tr(Q^k) mod M for k = 1 .. d // 2], with Q and M as in
    _frobenius_matrix."""
    m = math.prod(lanes)
    q = _frobenius_matrix(coeffs, lanes)
    d = len(coeffs) - 1
    # tr(Q^k) = sum_ij (Q^a)_ij (Q^b)_ji, a = ceil(k/2), b = floor(k/2)
    powers = [None, q]
    traces = []
    for k in range(1, d // 2 + 1):
        a, b = k - k // 2, k // 2
        if a == len(powers):
            cols = list(zip(*powers[-1]))
            powers.append([[sum(map(operator.mul, r, c)) % m for c in cols] for r in q])
        if b:
            cols = zip(*powers[b])
            traces.append(sum(sum(map(operator.mul, r, c)) for r, c in zip(powers[a], cols)) % m)
        else:
            traces.append(sum(r[i] for i, r in enumerate(q)) % m)
    return traces


def _cycle_type(coeffs, p):
    """Distinct-degree factorisation over F_p of f, given by its coefficients,
    squarefree mod p with p not dividing lc(f); returns the sorted degrees.

    Q, whose rows are x^{ip} mod f, is _frobenius_matrix with the one lane
    p, the ladder that the trace batches run.  Frobenius is F_p-linear, so
    x^{p^k} = x^{p^{k-1}} Q: one vector-matrix product per degree, not one
    powmod.  gcd(rem, x^{p^k} - x) peels off the product of the degree-k
    factors (rem divides f, so reducing mod f is enough); cycle types only
    need degrees, so no equal-degree splitting."""
    cols = list(zip(*_frobenius_matrix(coeffs, [p])))
    rem = [c % p for c in coeffs]
    h = [0, 1] + [0] * (len(coeffs) - 3)  # x
    degrees = []
    k = 0
    while len(rem) > 1:
        k += 1
        n = len(rem) - 1
        if 2 * k > n:
            degrees.append(n)
            break
        h = [sum(map(operator.mul, h, col)) % p for col in cols]
        hx = list(h)
        hx[1] = (hx[1] - 1) % p  # h(x) - x
        g = _pgcd(rem, hx, p)
        if len(g) > 1:
            dk = len(g) - 1
            if dk % k:
                raise GaloisCheckFailed(f"degree-{k} part of degree {dk} mod {p}")
            degrees.extend([k] * (dk // k))
            rem, r = _pdivmod(rem, g, p)
            if r:
                raise GaloisCheckFailed(f"gcd does not divide the remaining factor mod {p}")
    return tuple(sorted(degrees))


def _cycle_type_from_traces(traces, p, d):
    """Sorted factor degrees of a squarefree f of degree d over F_p, p > d,
    from traces[k-1] = tr(Q^k), k = 1 .. d // 2, known modulo a multiple of p.

    Frob^k on F_{p^n} is a cyclic shift of a normal basis, so its trace is n
    if n | k and 0 otherwise: tr(Q^k) = sum_{n | k} n a_n, the number of roots
    of f in F_{p^k}, where a_n counts the factors of degree n.  That number is
    at most d < p, so tr(Q^k) mod p is it exactly.  Moebius inversion, done
    degree by degree, gives k a_k as the roots in F_{p^k} less those in its
    proper subfields; what the factors of degree <= d/2 leave is one factor."""
    degrees = []
    for k, t in enumerate(traces, 1):
        s = t % p - sum(n for n in degrees if k % n == 0)
        if s < 0 or s % k:
            raise GaloisCheckFailed(f"{s} roots of exact degree {k} mod {p}")
        degrees += [k] * (s // k)
    left = d - sum(degrees)
    if left < 0 or 0 < left <= d // 2:
        raise GaloisCheckFailed(f"factor degrees leave {left} of {d} mod {p}")
    return tuple(degrees + [left] if left else degrees)


# lanes per batch: a small first batch, since certify_galois usually finds its
# witnesses among the first few primes and a batch of 4 costs about what two
# primes cost one at a time, then doubling to the width past which a wider
# modulus costs more per lane than it saves
_BATCH_LANES = (4, 8, 16, 32)


def _scan_batch(coeffs, disc, batch, lanes):
    """Yield (p, cycle type) for the primes in batch, in order; those in
    lanes share one _frobenius_traces, and each one's type is read off the
    traces only when it is yielded."""
    d = len(coeffs) - 1
    if lanes:
        traces = _frobenius_traces(coeffs, list(dict.fromkeys(lanes)))
    for p in batch:
        if disc % p == 0:
            yield p, RAMIFIED
        elif p <= d:
            yield p, _cycle_type(coeffs, p)
        else:
            yield p, _cycle_type_from_traces(traces, p, d)


def frobenius_scan(f: IntPolynomial, disc: int, primes):
    """Yield (p, cycle type of f mod p) for each p in primes, in their order,
    that does not divide lc(f); the type is RAMIFIED when p divides
    disc = disc(f).

    For p not dividing lc(f), f mod p is squarefree exactly when p does not
    divide disc(f), so ramification costs one remainder.  The unramified
    primes p > d go in batches of 4, 8, 16, then 32, whose cycle types come
    from the traces of Frobenius computed for the whole batch at once in CRT
    lanes (_frobenius_traces, _cycle_type_from_traces).  The trace identity
    needs p > d; a prime p <= d gets the gcd distinct-degree factorisation
    (_cycle_type).  Primes that are not in a batch are yielded as soon as no
    earlier prime waits for its batch."""
    coeffs = f.coefficients
    lead = coeffs[-1]
    d = f.degree
    widths = iter(_BATCH_LANES)
    width = next(widths)
    batch, lanes = [], []
    for p in primes:
        if lead % p == 0:
            continue
        batch.append(p)
        if p > d and disc % p:
            lanes.append(p)
            if len(lanes) < width:
                continue
            width = next(widths, width)
        elif lanes:
            continue
        # a full batch, or primes of which none waits for a batch
        yield from _scan_batch(coeffs, disc, batch, lanes)
        batch, lanes = [], []
    yield from _scan_batch(coeffs, disc, batch, lanes)


# ---------------------------------------------------------------------------
# certification


class GaloisCertificate(Frozen):
    """verdict is "SymmetricGroup", "AlternatingGroup" or "Unknown";
    witnesses are (prime, cycle_type, role) triples in ascending prime order."""

    __slots__ = (
        "degree",
        "verdict",
        "witnesses",
        "disc_square",
        "prime_bound_used",
        "discriminant",
    )

    def __init__(self, degree, verdict, witnesses, disc_square, prime_bound_used, discriminant):
        init = object.__setattr__
        init(self, "degree", degree)
        init(self, "verdict", verdict)
        init(self, "witnesses", witnesses)
        init(self, "disc_square", disc_square)
        init(self, "prime_bound_used", prime_bound_used)
        init(self, "discriminant", discriminant)


def _power_cycle_types(t):
    """Cycle types of all powers of a permutation with cycle type t."""
    out = set()
    order = math.lcm(*t)
    for k in range(1, order + 1):
        parts = []
        for c in t:
            g = math.gcd(c, k)
            parts.extend([c // g] * g)
        out.add(tuple(sorted(parts)))
    return out


@lru_cache(maxsize=None)
def _forces_alternating(t, d):
    """Does an element of cycle type t force the group to contain A_d?

    Per-degree sufficient tables for transitive groups of prime degree
    d in {3, 5, 7} (prime degree makes transitive imply primitive):

    d=3: any transitive group of degree 3 already contains A_3.
    d=5: an element some power of which is a single 3-cycle; the transitive
         subgroups of S_5 are C5, D5, F20, A5, S5, and only the last two
         contain 3-cycles.
    d=7: a power equal to a single 3-cycle or a single transposition
         (Jordan's criterion for primitive groups), or any element of order
         divisible by 5 (no proper transitive subgroup of S_7 has order
         divisible by 5: |C7|=7, |D7|=14, |F21|=21, |F42|=42, |PSL(3,2)|=168).
    """
    if d == 3:
        return True
    powers = _power_cycle_types(t)
    three_cycle = tuple(sorted([3] + [1] * (d - 3)))
    if three_cycle in powers:
        return True
    if d == 7:
        transposition = tuple(sorted([2] + [1] * (d - 2)))
        if transposition in powers:
            return True
        if any(c % 5 == 0 for c in t):
            return True
    return False


def _is_odd_type(t, d):
    """Parity of a permutation with the given cycle type."""
    return (d - len(t)) % 2 == 1


def certify_galois(f: IntPolynomial, prime_bound: int = 1000) -> GaloisCertificate:
    """Certify Galois group in {S_d, A_d} for odd d in {3, 5, 7}, else Unknown.

    A non-Unknown verdict always carries: an unramified prime with f
    irreducible (transitivity), a prime whose cycle type forces A_d
    containment, and, for the symmetric verdict, an odd cycle type.
    """
    d = f.degree
    if d % 2 == 0:
        raise EvenDegree(f"degree {d} is even")
    if d < 3:
        raise InputError(f"degree {d} is below 3")
    disc = discriminant(f)
    if disc == 0:
        raise Inseparable("zero discriminant")
    if d not in (3, 5, 7):
        return GaloisCertificate(d, "Unknown", (), disc_is_square(disc), prime_bound, disc)
    square = disc_is_square(disc)
    irred = None
    jordan = None
    odd_wit = None
    witnesses = []
    for p, t in frobenius_scan(f, disc, primes_up_to(prime_bound)):
        if t is RAMIFIED:
            continue
        if irred is None and t == (d,):
            irred = (p, t, "irreducible")
            witnesses.append(irred)
        if jordan is None and _forces_alternating(t, d):
            jordan = (p, t, "alternating-containment")
            witnesses.append(jordan)
        if odd_wit is None and _is_odd_type(t, d):
            if square:
                raise GaloisCheckFailed(
                    "square discriminant with an odd Frobenius cycle type"
                )
            odd_wit = (p, t, "odd-permutation")
            witnesses.append(odd_wit)
        if irred and jordan and (square or odd_wit):
            verdict = "AlternatingGroup" if square else "SymmetricGroup"
            return GaloisCertificate(
                d,
                verdict,
                tuple(sorted(witnesses)),
                square,
                prime_bound,
                disc,
            )
    return GaloisCertificate(d, "Unknown", tuple(sorted(witnesses)), square, prime_bound, disc)


# ---------------------------------------------------------------------------
# integer factorisation helpers (for discriminant classes)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
RHO_BUDGET = 400_000


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases 2 .. 41, deterministic below
    psi_13 = 3,317,044,064,679,887,385,961,981 (Sorenson and Webster, Math.
    Comp. 86, 2017) and probabilistic from psi_13 up."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def pollard_rho(n: int):
    """Floyd cycle-finding on x -> x^2 + c mod n (x one step, y two steps a
    round, from x = y = 2) for c = 1, 3, 5, 7, 11 in turn; None when unlucky.

    Each c gets RHO_BUDGET rounds when n has at most 128 bits, and
    RHO_BUDGET * (128 / bits)^2 rounds (at least 1) past that, since a round
    costs about the square of n's width: the budget bounds the work, not only
    the rounds."""
    if n % 2 == 0:
        return 2
    bits = n.bit_length()
    budget = RHO_BUDGET if bits <= 128 else max(1, RHO_BUDGET * 128**2 // bits**2)
    for c in (1, 3, 5, 7, 11):
        x = y = 2
        d = 1
        steps = 0
        while d == 1 and steps < budget:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
            steps += 1
        if 1 < d < n:
            return d
    return None
