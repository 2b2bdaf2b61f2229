"""Linear disjointness certification for families of splitting fields.

Supported Galois groups are exactly S_d and A_d.  Pairs involving an
alternating factor are discharged by quotient analysis (distinct nonabelian
simple socles share no quotient); the symmetric-type family reduces to
F_2-independence of discriminant classes in Q*/Q*^2, which detects the
(Z/2)^n quotient once the commutator subgroups force the product of
alternating groups.
"""

from __future__ import annotations

from .errors import FactorBudgetExceeded, InputError, InputMismatch, ZeroInput
from .frozen import Frozen
from .galois import (
    RAMIFIED,
    RHO_BUDGET,
    IntPolynomial,
    discriminant,
    frobenius_scan,
    is_probable_prime,
    pollard_rho,
    primes_up_to,
)
from .gf2 import F2Matrix

TRIAL_BOUND = 100_000


class DiscClass(Frozen):
    """Class of a discriminant in Q*/Q*^2: squarefree prime support and sign."""

    __slots__ = ("squarefree_support", "sign")

    def __init__(self, squarefree_support, sign):
        if sign not in (1, -1):
            raise InputError(f"sign must be +1 or -1, got {sign!r}")
        if list(squarefree_support) != sorted(set(squarefree_support)):
            raise InputError("squarefree support must be sorted and without repeats")
        object.__setattr__(self, "squarefree_support", squarefree_support)
        object.__setattr__(self, "sign", sign)


def squarefree_kernel(n: int):
    """Prime support of the squarefree part of n (n != 0), plus the sign.

    Trial division up to TRIAL_BOUND, then Pollard-rho passes of RHO_BUDGET
    steps each; raises FactorBudgetExceeded when a composite cofactor refuses
    to split.
    """
    if n == 0:
        raise ZeroInput("the squarefree kernel of 0 is undefined")
    sign = 1 if n > 0 else -1
    n = abs(n)
    support = set()

    def toggle(p):
        if p in support:
            support.remove(p)
        else:
            support.add(p)

    for p in primes_up_to(min(TRIAL_BOUND, max(2, n))):
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            toggle(p)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            toggle(m)
            continue
        d = pollard_rho(m)
        if d is None:
            raise FactorBudgetExceeded(f"cannot split cofactor {m}")
        stack.append(d)
        stack.append(m // d)
    return tuple(sorted(support)), sign


def disc_class(d: int) -> DiscClass:
    """Squarefree kernel of a discriminant d as a class in Q*/Q*^2."""
    if d == 0:
        raise ZeroInput("zero discriminant has no class in Q*/Q*^2")
    support, sign = squarefree_kernel(d)
    return DiscClass(support, sign)


class DisjointnessCertificate(Frozen):
    """verdict is "Certified", "HeuristicOnly" or "Failed"."""

    __slots__ = ("verdict", "reason")

    def __init__(self, verdict, reason):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "reason", reason)


def certify_family_disjoint(certs, classes) -> DisjointnessCertificate:
    """Rule engine over pairwise quotient analysis plus class independence.

    Certified requires every alternating-involving pair discharged and the
    symmetric-type discriminant classes jointly F_2-independent; pairwise
    checks alone are insufficient (the independence matrix is global).
    """
    certs = list(certs)
    classes = list(classes)
    if len(certs) != len(classes):
        raise InputMismatch("one discriminant class per certificate required")
    for c in certs:
        if c.verdict == "Unknown":
            raise InputMismatch("every certificate must name its group")

    # (i) pairs with at least one alternating factor
    undecided_pairs = []
    for i in range(len(certs)):
        for j in range(i + 1, len(certs)):
            a, b = certs[i], certs[j]
            if "AlternatingGroup" in (a.verdict, b.verdict):
                if (
                    a.verdict == b.verdict == "AlternatingGroup"
                    and a.degree == b.degree
                ):
                    undecided_pairs.append((i, j))
                # otherwise: non-isomorphic simple socles, no common quotient

    # (ii) symmetric-type family: F_2-independence of the disc classes
    sym = [
        (i, cl)
        for i, (c, cl) in enumerate(zip(certs, classes))
        if c.verdict == "SymmetricGroup"
    ]
    all_primes = sorted({p for _, cl in sym for p in cl.squarefree_support})
    col = {p: k + 1 for k, p in enumerate(all_primes)}  # column 0 = sign
    rows = []
    for _, cl in sym:
        r = 1 if cl.sign < 0 else 0
        for p in cl.squarefree_support:
            r |= 1 << col[p]
        rows.append(r)
    if F2Matrix(len(rows), len(all_primes) + 1, rows).rank() < len(rows):
        return DisjointnessCertificate(
            "Failed",
            "discriminant classes of the symmetric-type factors are F_2-dependent",
        )
    if undecided_pairs:
        return DisjointnessCertificate(
            "HeuristicOnly",
            f"alternating factors of equal degree at positions {undecided_pairs}; "
            "field equality is not decided exactly",
        )
    return DisjointnessCertificate("Certified", "all pairwise rules discharged")


def frobenius_joint_statistics(
    f1: IntPolynomial, f2: IntPolynomial, prime_bound: int
) -> float:
    """Total-variation distance between the joint cycle-type distribution and
    the product of marginals over unramified primes below the bound.

    No verdict, report or audit reads it: it stays only because the benchmark's
    span table (``bench/spans.py``, ``LAYERS``) wraps it by name.
    """
    joint = {}
    m1 = {}
    m2 = {}
    total = 0
    primes = [p for p in primes_up_to(prime_bound) if f1.leading % p and f2.leading % p]
    scan1 = frobenius_scan(f1, discriminant(f1), primes)
    scan2 = frobenius_scan(f2, discriminant(f2), primes)
    for (_, t1), (_, t2) in zip(scan1, scan2):
        if t1 is RAMIFIED or t2 is RAMIFIED:
            continue
        total += 1
        joint[(t1, t2)] = joint.get((t1, t2), 0) + 1
        m1[t1] = m1.get(t1, 0) + 1
        m2[t2] = m2.get(t2, 0) + 1
    if total == 0:
        return 1.0
    keys = set(joint)
    keys.update((a, b) for a in m1 for b in m2)
    tv = 0.0
    for a, b in keys:
        pj = joint.get((a, b), 0) / total
        pm = (m1.get(a, 0) / total) * (m2.get(b, 0) / total)
        tv += abs(pj - pm)
    return tv / 2.0
