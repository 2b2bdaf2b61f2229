import math
import random

import pytest

from kummer import galois
from kummer.errors import EvenDegree, Inseparable, InputError, ZeroInput
from kummer.galois import (
    RAMIFIED,
    IntPolynomial,
    certify_galois,
    disc_is_square,
    discriminant,
    frobenius_scan,
    is_probable_prime,
    pollard_rho,
    primes_up_to,
    resultant,
)

from oracles import poly_mul, resultant_by_cofactor, scan_cycle_type, witness_for

X5 = IntPolynomial((1, -1, 0, 0, 0, 1))  # x^5 - x + 1
X3 = IntPolynomial((-1, -1, 0, 1))  # x^3 - x - 1


@pytest.mark.parametrize("bad", [1.7, "12", True])
def test_polynomial_refuses_non_integer_coefficients(bad):
    # 1.7 must not truncate to 1, "12" must not parse, True must not read as 1
    with pytest.raises(InputError):
        IntPolynomial((bad, 1))


def test_disc_x5_frozen_against_cofactor_oracle():
    # oracle: 9x9 Sylvester determinant by exact cofactor expansion
    f = list(X5.coefficients)
    fp = [i * c for i, c in enumerate(f)][1:]
    res = resultant_by_cofactor(f, fp)
    d = 5
    assert discriminant(X5) == (-1) ** (d * (d - 1) // 2) * res
    assert discriminant(X5) == 2869
    assert 2869 == 19 * 151


def test_disc_x3_frozen_against_cofactor_oracle():
    f = list(X3.coefficients)
    fp = [i * c for i, c in enumerate(f)][1:]
    res = resultant_by_cofactor(f, fp)
    assert discriminant(X3) == -res  # (-1)^3
    assert discriminant(X3) == -23


def test_disc_quadratic():
    assert discriminant(IntPolynomial((-1, 0, 1))) == 4


def test_resultant_matches_cofactor_oracle_random():
    rng = random.Random(77)
    for _ in range(25):
        f = [rng.randint(-5, 5) for _ in range(rng.randrange(2, 5))] + [rng.randrange(1, 4)]
        g = [rng.randint(-5, 5) for _ in range(rng.randrange(2, 5))] + [rng.randrange(1, 4)]
        assert resultant(IntPolynomial(tuple(f)), IntPolynomial(tuple(g))) == resultant_by_cofactor(f, g)


def test_disc_product_relation():
    # disc(fg) = disc(f) disc(g) Res(f, g)^2 on random separable smalls
    rng = random.Random(101)
    done = 0
    while done < 12:
        f = IntPolynomial(tuple([rng.randint(-4, 4) for _ in range(rng.randrange(1, 4))] + [rng.randrange(1, 3)]))
        g = IntPolynomial(tuple([rng.randint(-4, 4) for _ in range(rng.randrange(1, 4))] + [rng.randrange(1, 3)]))
        if f.degree < 1 or g.degree < 1:
            continue
        df, dg, dfg = discriminant(f), discriminant(g), discriminant(poly_mul(f, g))
        if df == 0 or dg == 0:
            continue
        assert dfg == df * dg * resultant(f, g) ** 2
        done += 1


def test_cycle_type_x5_mod_2():
    # computed: x^5 + x + 1 = (x^2 + x + 1)(x^3 + x^2 + 1) over F_2
    assert scan_cycle_type(X5, 2) == (2, 3)


def test_cycle_type_x5_mod2_oracle():
    # oracle: trial gcd with x^{2^k} - x for k <= 5 says there is no linear or
    # quintic factor pattern other than {2,3}; verify by explicit multiplication
    a = IntPolynomial((1, 1, 1))  # x^2+x+1
    b = IntPolynomial((1, 0, 1, 1))  # x^3+x^2+1
    prod = poly_mul(a, b)
    assert tuple(c % 2 for c in prod.coefficients) == tuple(
        c % 2 for c in X5.coefficients
    )


def test_cycle_type_roots():
    assert scan_cycle_type(IntPolynomial((1, 0, 1)), 5) == (1, 1)  # x^2+1 mod 5


def test_cycle_type_ramified():
    assert scan_cycle_type(IntPolynomial((1, 0, 1)), 2) is RAMIFIED


def test_certify_x5_is_s5():
    cert = certify_galois(X5, 200)
    assert cert.verdict == "SymmetricGroup"
    assert cert.disc_square is False
    assert witness_for(cert, "irreducible") is not None
    assert witness_for(cert, "alternating-containment") is not None
    assert witness_for(cert, "odd-permutation") is not None


def test_certificate_replays():
    cert = certify_galois(X5, 200)
    for p, t, role in cert.witnesses:
        assert scan_cycle_type(X5, p) == t


def test_certify_x3_is_s3():
    cert = certify_galois(X3, 50)
    assert cert.verdict == "SymmetricGroup"
    assert cert.discriminant == -23
    # oracle for the S3 claim: no rational root (so irreducible at degree 3)
    # and non-square discriminant force the full symmetric group
    assert all(sum(c * x**i for i, c in enumerate(X3.coefficients)) for x in (1, -1))
    assert not disc_is_square(-23)


def test_certify_rejects_even_degree():
    sextic = IntPolynomial((5, -8, 4, 0, 4, -8, 4))
    with pytest.raises(EvenDegree):
        certify_galois(sextic, 100)


def test_certify_rejects_inseparable():
    with pytest.raises(Inseparable):
        certify_galois(poly_mul(IntPolynomial((1, 2, 1)), IntPolynomial((0, 1))), 100)


def test_certify_unknown_degree():
    # degree 9 is outside the supported table
    f = IntPolynomial((1, 1, 0, 0, 0, 0, 0, 0, 0, 1))
    cert = certify_galois(f, 100)
    assert cert.verdict == "Unknown"
    assert cert.witnesses == ()


def test_disc_is_square():
    assert disc_is_square(2869) is False
    assert disc_is_square(4) is True
    assert disc_is_square(-23) is False
    with pytest.raises(ZeroInput):
        disc_is_square(0)


def test_alternating_quintic():
    # x^5 + 20x + 16 is a classical A5 quintic (square discriminant)
    f = IntPolynomial((16, 20, 0, 0, 0, 1))
    assert disc_is_square(discriminant(f)) is True
    cert = certify_galois(f, 500)
    assert cert.verdict == "AlternatingGroup"
    assert cert.disc_square is True


def test_chebotarev_smoke_x5():
    # statistical, non-acceptance: observed class frequencies near S5 proportions
    from collections import Counter

    counts = Counter()
    total = 0
    for _, t in frobenius_scan(X5, discriminant(X5), primes_up_to(10_000)):
        if t is RAMIFIED:
            continue
        counts[t] += 1
        total += 1
    s5_classes = {
        (1, 1, 1, 1, 1): 1 / 120,
        (1, 1, 1, 2): 10 / 120,
        (1, 2, 2): 15 / 120,
        (1, 1, 3): 20 / 120,
        (2, 3): 20 / 120,
        (1, 4): 30 / 120,
        (5,): 24 / 120,
    }
    for t, expected in s5_classes.items():
        assert abs(counts[t] / total - expected) < 0.1


def test_primality_and_rho():
    assert is_probable_prime(151)
    assert not is_probable_prime(1)
    assert not is_probable_prime(2869)
    d = pollard_rho(19 * 151)
    assert d in (19, 151)
    assert pollard_rho(2 * 100_003) == 2 and pollard_rho(3 * 100_003) in (3, 100_003)
    # the first seed's cycle closes mod both primes at once (gcd = n), so
    # the second seed splits it
    assert pollard_rho(100_043 * 100_361) == 100_361


@pytest.mark.parametrize(
    "n, per_seed",
    [
        # 1128 bits: RHO_BUDGET * (128 / 1128)^2 rounds
        ((2**521 - 1) * (2**607 - 1), 5150),
        # 83,360 bits: the formula rounds down to 0, and a seed still gets one round
        ((2**521 - 1) ** 160, 1),
    ],
    ids=["1128-bits", "83360-bits"],
)
def test_rho_rounds_shrink_with_the_square_of_the_width(monkeypatch, n, per_seed):
    # n splits far out of rho's reach, so each of the five seeds spends its
    # whole budget; one gcd per round, so the count stops the first round past
    rounds = 0
    real_gcd = math.gcd

    def counting_gcd(a, b):
        nonlocal rounds
        rounds += 1
        assert rounds <= 5 * per_seed, "more rounds than the width allows"
        return real_gcd(a, b)

    monkeypatch.setattr(galois.math, "gcd", counting_gcd)
    assert pollard_rho(n) is None
    assert rounds == 5 * per_seed


def test_psi12_is_composite_and_splits_into_its_two_primes():
    from kummer.disjoint import squarefree_kernel

    # psi_12 is the least strong pseudoprime to the twelve prime bases 2 .. 37
    # (Sorenson and Webster, Math. Comp. 86, 2017); base 41 exposes it
    psi12 = 318_665_857_834_031_151_167_461
    p, q = 399_165_290_221, 798_330_580_441
    assert p * q == psi12
    assert not is_probable_prime(psi12)
    assert is_probable_prime(p) and is_probable_prime(q)
    assert squarefree_kernel(psi12) == ((p, q), 1)
    # a base that is also a trial divisor is prime, not a witness against itself
    assert [n for n in range(2, 60) if is_probable_prime(n)] == primes_up_to(59)


def test_a_wide_cofactor_hides_a_30_bit_prime_and_withholds():
    from kummer.disjoint import squarefree_kernel
    from kummer.errors import FactorBudgetExceeded

    # 2^30 - 35 is prime and seed c = 1 first meets it at round 32,676, well
    # inside RHO_BUDGET; next to the 970-bit prime 2^970 + 459 the cofactor
    # has 1,000 bits, so each seed gets 6,553 rounds and none reaches it
    p, wide = 2**30 - 35, 2**970 + 459
    assert is_probable_prime(p) and is_probable_prime(wide)
    # the rho sequence mod p is the same whatever the other factor, so a
    # 119-bit cofactor splits where the 1,000-bit one withholds
    assert pollard_rho(p * (2**89 + 29)) == p
    assert pollard_rho(p * wide) is None
    with pytest.raises(FactorBudgetExceeded):
        squarefree_kernel(p * wide)


def test_soundness_unknown_when_bound_tiny():
    cert = certify_galois(X5, 2)
    assert cert.verdict == "Unknown"


def test_square_discriminant_with_odd_cycle_type_is_an_engine_error(monkeypatch, tmp_path, capsys):
    import json

    from kummer import galois
    from kummer.cli import main
    from kummer.errors import EngineError

    # x^3 - 2 has Galois group S_3, and its first unramified prime 5 gives
    # the odd cycle type (1, 2), which contradicts a square discriminant
    cubic = IntPolynomial((-2, 0, 0, 1))
    assert scan_cycle_type(cubic, 5) == (1, 2)
    monkeypatch.setattr(galois, "disc_is_square", lambda n: True)
    with pytest.raises(EngineError):
        certify_galois(cubic, 50)
    case = tmp_path / "cubic.json"
    factors = [{"poly": ["-2", "0", "0", "1"]}, {"poly": ["1", "-1", "0", "0", "0", "1"]}]
    case.write_text(json.dumps({"factors": factors, "prime_bound": 50}))
    assert main(["--input", str(case), "--report", str(tmp_path / "out.json")]) == 3
    assert not (tmp_path / "out.json").exists()
    assert "engine error: square discriminant" in capsys.readouterr().err
