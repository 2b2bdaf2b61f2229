"""Seeded candidate inputs for the benchmark's workloads.

Every function here is a pure function of its arguments: the same seed gives
the same candidates in the same order, and nothing here touches the engine or
sympy.  ``run.py`` keeps, slot by slot, the first candidate whose verdict the
independent reference (``reference.py``) can predict and that has the verdict
the slot asks for, so the engine only ever sees generated case files.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("cases", "audits", "rejects")
BUNDLED_AUDITS = ("example1", "example2", "example3")
# The audits workload leaves out example2: it repeats example1's Sp/GSp(4, F_3)
# closures on a group twice the size, and at 20-30 s it would take the
# workload past the time all of the benchmark's runs may take together.
# ``run.py --baseline`` still times it.
AUDITS = ("example1", "example3")
# Whole rounds a run makes at least, whatever its seconds: three repetitions
# of every input check that its report repeats, and keep the cases tail
# inside the g = 3 inputs.  An audits round takes 30-45 s on its own.
MIN_ROUNDS = {"cases": 3, "rejects": 3, "audits": 1}
BUNDLED_CASES = ("example1.json", "two_jacobians.json")

# Factor layouts: (degree, torsor_nontrivial) per factor.
SHAPES = {
    "quintic": ((5, False),),
    "quintic-twisted": ((5, True),),
    "cubic+cubic": ((3, False), (3, False)),
    "cubic+cubic-twisted": ((3, True), (3, True)),
    "quintic+cubic": ((5, False), (3, False)),
    "septic": ((7, False),),
}

# One pass over the cases cycle: four g = 2 slots, which take 0.02-0.15 s,
# and two g = 3 slots, which take about 1 s.  The slowest g = 2 shape fills
# the middle third, so the median falls inside one shape rather than on the
# edge between two, and the g = 3 third holds the tail.  Three passes give
# seven g = 3 inputs a round with the bundled one, so that the tail, the
# eleventh slowest of 21 g = 3 calls in three rounds, is their median and not
# the second cheapest of a few.
CASES_CYCLE = (
    "cubic+cubic",
    "quintic-twisted",
    "quintic+cubic",
    "cubic+cubic-twisted",
    "quintic-twisted",
    "septic",
)
CASES_PASSES = 3
CASES_COEFF_BOUND = 10
CASES_PRIME_BOUNDS = (200, 1000)

# One pass over the rejects cycle.  The x^d - a slots scan every prime up to
# their bound (the galois layer) and fill two thirds of the pass, so both the
# median and the tail fall among them; the shifted pairs and the large
# quintics factor discriminants of 20-30 digits (the disjoint layer).
REJECTS_CYCLE = (
    "frobenius-5",
    "shifted-cubics",
    "frobenius-7",
    "frobenius-5",
    "large-quintic",
    "frobenius-7",
)
REJECTS_PASSES = 3
FROBENIUS_PRIME_BOUNDS = (5000, 10000)
LARGE_QUINTIC_COEFF_BOUND = 10**3
LARGE_CUBIC_COEFF_BOUND = 10**5

# What each reject slot must be withheld at (None: asserted).
REJECT_STAGES = {
    "frobenius-5": "galois_certification",
    "frobenius-7": "galois_certification",
    "shifted-cubics": "linear_disjointness",
    "large-quintic": None,
}


def slot_rng(workload: str, seed: int, slot: int) -> random.Random:
    """Independent stream per slot, so a rejected candidate in one slot does
    not shift the inputs of the next."""
    return random.Random(f"{workload}:{seed}:{slot}")


def monic(rng: random.Random, degree: int, bound: int) -> list:
    """Monic integer polynomial, constant-first, lower coefficients in
    [-bound, bound] and a nonzero constant term."""
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)] + [1]
    while coeffs[0] == 0:
        coeffs[0] = rng.randint(-bound, bound)
    return coeffs


def shift(coeffs, k: int) -> list:
    """Coefficients of f(x + k), constant-first."""
    out = [0] * len(coeffs)
    for i, c in enumerate(coeffs):
        for j in range(i + 1):
            out[j] += c * math.comb(i, j) * k ** (i - j)
    return out


def _case(factors, prime_bound: int) -> dict:
    return {
        "factors": [
            {"poly": [str(c) for c in poly], "torsor_nontrivial": flag}
            for poly, flag in factors
        ],
        "prime_bound": prime_bound,
        "mode": "certify",
    }


def _squarefree(n: int) -> bool:
    return all(n % (p * p) for p in range(2, math.isqrt(n) + 1))


def spread_evenly(lo: int, hi: int, index: int, count: int) -> int:
    """The midpoint of the index-th of count equal strata of [lo, hi].

    The slots of one kind together cover the whole range with the same
    values at every seed, so the per-input work, and with it the median call,
    stays the same from seed to seed; only the polynomials change."""
    return int(lo + (hi - lo) * (index + 0.5) / count)


def case_candidate(rng: random.Random, shape: str) -> dict:
    factors = [
        (monic(rng, degree, CASES_COEFF_BOUND), flag) for degree, flag in SHAPES[shape]
    ]
    return _case(factors, rng.randint(*CASES_PRIME_BOUNDS))


def reject_candidate(rng: random.Random, kind: str, index: int, count: int) -> dict:
    """index / count place the candidate among the slots of its kind."""
    if kind.startswith("frobenius-"):
        degree = int(kind.split("-")[1])
        a = rng.randint(2, 999)
        while not _squarefree(a):
            a = rng.randint(2, 999)
        a *= rng.choice((1, -1))
        bound = spread_evenly(*FROBENIUS_PRIME_BOUNDS, index, count)
        return _case([([-a] + [0] * (degree - 1) + [1], False)], bound)
    if kind == "shifted-cubics":
        f = monic(rng, 3, LARGE_CUBIC_COEFF_BOUND)
        return _case([(f, False), (shift(f, rng.randint(1, 50)), False)], 1000)
    if kind == "large-quintic":
        return _case([(monic(rng, 5, LARGE_QUINTIC_COEFF_BOUND), False)], 1000)
    raise ValueError(f"unknown reject kind {kind!r}")


def candidates(workload: str, seed: int, slot: int):
    """Endless candidate stream for one slot of a workload's pool.

    Yields (kind, case) pairs.  The bundled case files that open the
    ``cases`` pool are not slots and are not generated here.
    """
    rng = slot_rng(workload, seed, slot)
    if workload == "cases":
        shape = CASES_CYCLE[slot % len(CASES_CYCLE)]
        while True:
            yield shape, case_candidate(rng, shape)
    elif workload == "rejects":
        kind = REJECTS_CYCLE[slot % len(REJECTS_CYCLE)]
        same = [i for i in range(pool_size(workload)) if REJECTS_CYCLE[i % len(REJECTS_CYCLE)] == kind]
        while True:
            yield kind, reject_candidate(rng, kind, same.index(slot), len(same))
    else:
        raise ValueError(f"workload {workload!r} has no generated slots")


def pool_size(workload: str) -> int:
    """Number of generated slots in a workload's pool."""
    if workload == "cases":
        return CASES_PASSES * len(CASES_CYCLE)
    if workload == "rejects":
        return REJECTS_PASSES * len(REJECTS_CYCLE)
    return 0
