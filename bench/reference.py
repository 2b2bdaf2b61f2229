"""Independent verdict reference for the benchmark.

Every expectation here comes from sympy (exact discriminants, integer
factorisation, factorisation mod p, Galois groups up to degree 6) and from
the mathematics the engine implements, never from the engine itself: this
module must not import ``kummer``.  ``expect_case`` predicts a case file's
verdict, ``check_case`` and ``check_audit`` compare a report against the
prediction and return the list of disagreements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from sympy import Poly, discriminant, factorint, primerange, symbols
from sympy.polys.numberfields.galoisgroups import galois_group

X = symbols("x")
SYMMETRIC = "SymmetricGroup"
ALTERNATING = "AlternatingGroup"
UNKNOWN = "Unknown"


class Unpredictable(Exception):
    """The reference cannot say what the engine must answer for this input."""


@dataclass(frozen=True)
class FactorExpectation:
    degree: int
    discriminant: int
    verdict: str
    # (p, cycle type, role) triples the engine must report, or None when the
    # verdict is Unknown by theory and only each reported witness is checked
    witnesses: frozenset | None
    disc_class: tuple  # (sorted squarefree support, sign)


@dataclass(frozen=True)
class Expectation:
    exit_code: int
    withheld_at: str | None
    picard_rank: int | None
    g: int
    factors: tuple


def _poly(coeffs) -> Poly:
    return Poly([int(c) for c in reversed(coeffs)], X)


def cycle_type(coeffs, p: int):
    """Sorted degrees of the irreducible factors of f mod p; None when f mod p
    is not squarefree or p divides the leading coefficient."""
    if int(coeffs[-1]) % p == 0:
        return None
    _, factors = Poly([int(c) for c in reversed(coeffs)], X, modulus=p).factor_list()
    if any(e > 1 for _, e in factors):
        return None
    return tuple(sorted(fac.degree() for fac, _ in factors))


def forces_alternating(t, d: int) -> bool:
    """Does a Frobenius element of cycle type t, inside a transitive group of
    prime degree d in {3, 5, 7}, force that group to contain A_d?

    d = 3: every transitive subgroup of S_3 contains A_3.  d = 5, 7: a power
    of the element is a 3-cycle (Jordan: a primitive group with a 3-cycle
    contains A_d).  d = 7 also: a power is a transposition (then the group is
    S_7), or 5 divides the element's order (no proper transitive subgroup of
    S_7 has order divisible by 5).
    """
    if d == 3:
        return True
    powers = set()
    for k in range(1, math.lcm(*t) + 1):
        parts = []
        for c in t:  # the k-th power splits a c-cycle into gcd(c, k) cycles
            g = math.gcd(c, k)
            parts += [c // g] * g
        powers.add(tuple(sorted(parts)))
    if tuple(sorted([3] + [1] * (d - 3))) in powers:
        return True
    if d == 7:
        return tuple(sorted([2] + [1] * 5)) in powers or any(c % 5 == 0 for c in t)
    return False


def is_odd(t, d: int) -> bool:
    return (d - len(t)) % 2 == 1


def disc_class(disc: int):
    """(squarefree support, sign) of disc in Q*/Q*^2, by sympy.factorint."""
    support = tuple(sorted(p for p, e in factorint(abs(disc)).items() if e % 2))
    return support, (1 if disc > 0 else -1)


def _role_holds(role: str, t, d: int, square: bool) -> bool:
    if role == "irreducible":
        return t == (d,)
    if role == "alternating-containment":
        return forces_alternating(t, d)
    if role == "odd-permutation":
        return is_odd(t, d) and not square
    return False


def predict_certificate(coeffs, prime_bound: int, square: bool):
    """The engine's certificate, derived independently: the first prime of each
    witness role, scanning primes in ascending order up to the bound."""
    d = len(coeffs) - 1
    found = {}
    for p in primerange(2, prime_bound + 1):
        t = cycle_type(coeffs, p)
        if t is None:
            continue
        for role in ("irreducible", "alternating-containment", "odd-permutation"):
            if role not in found and _role_holds(role, t, d, square):
                found[role] = (p, t, role)
        if "irreducible" in found and "alternating-containment" in found and (
            square or "odd-permutation" in found
        ):
            return (ALTERNATING if square else SYMMETRIC), frozenset(found.values())
    return UNKNOWN, frozenset(found.values())


def _sympy_group(coeffs):
    """(verdict name, is the group S_d or A_d) by sympy, degrees 3 and 5."""
    group, _ = galois_group(_poly(coeffs), by_name=True)
    name = group.name
    if name in ("S3", "S5"):
        return SYMMETRIC
    if name in ("A3", "A5"):
        return ALTERNATING
    return name


def is_binomial(coeffs) -> bool:
    """x^d - a with a not a d-th power (d prime): its Galois group lies in
    the affine group AGL(1, d) of order d(d - 1) < |A_d|, so no certificate of
    S_d or A_d can exist."""
    d = len(coeffs) - 1
    a = -int(coeffs[0])
    if any(int(c) for c in coeffs[1:-1]) or int(coeffs[-1]) != 1 or a == 0:
        return False
    root = round(abs(a) ** (1 / d))
    return all((sign * r) ** d != a for r in range(max(root - 1, 0), root + 2) for sign in (1, -1))


def expect_factor(coeffs, prime_bound: int) -> FactorExpectation:
    d = len(coeffs) - 1
    if d not in (3, 5, 7):
        raise Unpredictable(f"degree {d}")
    disc = int(discriminant(_poly(coeffs)))
    if disc == 0:
        raise Unpredictable("inseparable")
    square = disc > 0 and math.isqrt(disc) ** 2 == disc
    if is_binomial(coeffs):
        verdict, witnesses = UNKNOWN, None
    else:
        verdict, witnesses = predict_certificate(coeffs, prime_bound, square)
        if d in (3, 5) and verdict != UNKNOWN and _sympy_group(coeffs) != verdict:
            raise RuntimeError(f"certificate for {coeffs} disagrees with sympy's Galois group")
    return FactorExpectation(d, disc, verdict, witnesses, disc_class(disc))


def _f2_independent(vectors) -> bool:
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if not v:
            return False
        basis.append(v)
    return True


def expect_case(case: dict) -> Expectation:
    """Predicted verdict of a case file.  Raises Unpredictable when a verdict
    depends on checks this reference does not model (alternating factors that
    pass disjointness, or g > 3)."""
    if case.get("mode", "certify") != "certify":
        raise Unpredictable("only certify mode is modelled")
    prime_bound = case["prime_bound"]
    factors = tuple(expect_factor(f["poly"], prime_bound) for f in case["factors"])
    n = len(factors)
    g = sum((f.degree - 1) // 2 for f in factors)

    def withheld(stage):
        return Expectation(2, stage, None, g, factors)

    if any(f.verdict == UNKNOWN or (f.degree == 3 and f.verdict == ALTERNATING) for f in factors):
        return withheld("galois_certification")
    # disjointness: symmetric-type discriminant classes must be F_2-independent
    primes = sorted({p for f in factors if f.verdict == SYMMETRIC for p in f.disc_class[0]})
    col = {p: i + 1 for i, p in enumerate(primes)}
    vectors = [
        (f.disc_class[1] < 0) | sum(1 << col[p] for p in f.disc_class[0])
        for f in factors
        if f.verdict == SYMMETRIC
    ]
    if not _f2_independent(vectors):
        return withheld("linear_disjointness")
    alt_degrees = [f.degree for f in factors if f.verdict == ALTERNATING]
    if len(alt_degrees) != len(set(alt_degrees)):
        return withheld("linear_disjointness")
    if alt_degrees or g > 3:
        raise Unpredictable("alternating factors or g > 3")
    # every factor S_d with d in {3, 5, 7}: the module, H^1 and lattice
    # hypotheses hold, so the Picard rank is 2^(2g) + n
    return Expectation(0, None, 2 ** (2 * g) + n, g, factors)


def check_case(report: dict, exit_code: int, expected: Expectation) -> list:
    """Disagreements between an engine report and the prediction (empty when
    the report is right)."""
    problems = []
    if exit_code != expected.exit_code:
        problems.append(f"exit code {exit_code}, expected {expected.exit_code}")
    if report is None:
        return problems + ["no report written"]
    conclusions = report["conclusions"]
    if conclusions["asserted"] != (expected.exit_code == 0):
        problems.append(f"asserted = {conclusions['asserted']}")
    if report["case"]["g"] != expected.g:
        problems.append(f"g = {report['case']['g']}, expected {expected.g}")
    rank = conclusions["picard_rank"]["value"]
    if rank != expected.picard_rank:
        problems.append(f"picard_rank {rank}, expected {expected.picard_rank}")
    withheld = conclusions["withheld_because"]
    first = withheld[0] if withheld else None
    if first != expected.withheld_at:
        problems.append(f"withheld first at {first}, expected {expected.withheld_at}")
    hyps = {h["name"]: h for h in report["hypotheses"]}
    galois = hyps["galois_certification"]["details"]
    if len(galois) != len(expected.factors):
        return problems + ["one galois entry per factor expected"]
    for i, (entry, exp) in enumerate(zip(galois, expected.factors)):
        problems += [f"factor {i}: {p}" for p in _check_galois(entry, exp)]
    classes = hyps["linear_disjointness"]["details"].get("classes")
    if classes is not None:
        for i, (cl, exp) in enumerate(zip(classes, expected.factors)):
            if (tuple(cl["support"]), cl["sign"]) != exp.disc_class:
                problems.append(f"factor {i}: disc class {cl}, expected {exp.disc_class}")
    return problems


def _check_galois(entry: dict, exp: FactorExpectation) -> list:
    problems = []
    if entry["degree"] != exp.degree:
        problems.append(f"degree {entry['degree']}")
    if int(entry["discriminant"]) != exp.discriminant:
        problems.append(f"discriminant {entry['discriminant']}, expected {exp.discriminant}")
    if entry["verdict"] != exp.verdict:
        problems.append(f"verdict {entry['verdict']}, expected {exp.verdict}")
    reported = frozenset((p, tuple(t), role) for p, t, role in entry["witnesses"])
    if exp.witnesses is not None:
        if reported != exp.witnesses:
            problems.append(f"witnesses {sorted(reported)}, expected {sorted(exp.witnesses)}")
        return problems
    coeffs = entry["poly"]
    square = exp.discriminant > 0 and math.isqrt(exp.discriminant) ** 2 == exp.discriminant
    for p, t, role in reported:
        if cycle_type(coeffs, p) != t or not _role_holds(role, t, exp.degree, square):
            problems.append(f"witness {(p, t, role)} does not hold")
    return problems


# ---------------------------------------------------------------------------
# bundled audits: values fixed by the mathematics


def sp_order(n: int, q: int) -> int:
    """|Sp(n, F_q)| = q^(m^2) * prod_{i=1..m} (q^(2i) - 1), n = 2m."""
    m = n // 2
    return q ** (m * m) * math.prod(q ** (2 * i) - 1 for i in range(1, m + 1))


def expect_audit(name: str) -> dict:
    """Expected audit record entries (a subset of the record's keys)."""
    sp = sp_order(4, 3)
    if name == "example1":
        return {
            "l": 3,
            "sp4_order_enumerated": sp,
            "sp4_order_formula": sp,
            "psp4_order_formula": sp // 2,  # the centre {+-1}
            "has_index_l_normal_subgroup": False,  # Sp(4, F_3) is perfect
            "tautological_module_absolutely_simple": True,
            "supports_hypotheses": True,
        }
    if name == "example2":
        # S_6 and GSp(4, F_3) have abelianisation Z/2: one index-2 subgroup
        # each, A_6 and Sp(4, F_3) (index q - 1 = 2 in GSp)
        sextic = disc_class(int(discriminant(_poly([5, -8, 4, 0, 4, -8, 4]))))
        return {
            "s6": {
                "order": math.factorial(6),
                "index2_normal_subgroup_count": 1,
                "kernel_order": math.factorial(6) // 2,
                "kernel_is_alternating": True,
            },
            "gsp4_f3": {
                "order": 2 * sp,
                "index2_normal_subgroup_count": 1,
                "kernel_order": sp,
                "kernel_contains_sp_and_square_scalars": True,
            },
            "sextic_disc_class": {"support": list(sextic[0]), "sign": sextic[1]},
        }
    if name == "example3":
        return {
            "standard_s7_absolutely_simple": True,
            "standard_a7_absolutely_simple": True,
            "h1_s7_standard": 0,
            "h1_a7_standard": 0,
            "torsor_group_order": 2**6 * math.factorial(7),
            "h1_semidirect_standard": 1,  # End_{S_7}(V) = F_2, hit by the torsor
            "torsor_class_nonzero": True,
            "h1_pi1_two_torsion": 0,
            "picard_prediction": 2**6 + 1,
            "canonical_class_effective": True,
        }
    raise ValueError(f"unknown audit {name!r}")


def check_audit(report: dict, exit_code: int, name: str) -> list:
    problems = [] if exit_code == 0 else [f"exit code {exit_code}, expected 0"]
    if report is None:
        return problems + ["no report written"]
    if report.get("audit") != name:
        problems.append(f"audit name {report.get('audit')!r}")
    record = report.get("record", {})
    for key, value in expect_audit(name).items():
        if record.get(key) != value:
            problems.append(f"{key} = {record.get(key)!r}, expected {value!r}")
    return problems
