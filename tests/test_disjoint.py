import itertools

import pytest

from kummer import disjoint
from kummer.disjoint import (
    DiscClass,
    certify_family_disjoint,
    disc_class,
    frobenius_joint_statistics,
    squarefree_kernel,
)
from kummer.errors import InputMismatch
from kummer.galois import GaloisCertificate, IntPolynomial, certify_galois, disc_is_square, discriminant

X5 = IntPolynomial((1, -1, 0, 0, 0, 1))
X3 = IntPolynomial((-1, -1, 0, 1))


def _cert(verdict, degree, disc=1):
    return GaloisCertificate(degree, verdict, (), disc_is_square(disc) if disc else False, 100, disc)


def test_disc_classes():
    assert disc_class(discriminant(X5)) == DiscClass((19, 151), 1)
    assert disc_class(discriminant(X3)) == DiscClass((23,), -1)
    assert disc_class(discriminant(IntPolynomial((-2, 0, 1)))) == DiscClass((2,), 1)


def test_squarefree_kernel():
    assert squarefree_kernel(8) == ((2,), 1)
    assert squarefree_kernel(-6417874944) == ((3, 13, 31), -1)
    assert squarefree_kernel(1) == ((), 1)
    assert squarefree_kernel(-4) == ((), -1)


def test_squarefree_kernel_edge_cofactors(monkeypatch):
    # a lone prime 2 left after trial division is still a prime of the support
    assert squarefree_kernel(2) == ((2,), 1) and squarefree_kernel(-2) == ((2,), -1)
    # two primes past TRIAL_BOUND: Pollard rho must split their product
    assert squarefree_kernel(4 * 100003 * 100019) == ((100003, 100019), 1)
    # a square of a prime within trial division never reaches Pollard rho
    monkeypatch.setattr(disjoint, "pollard_rho", None)
    assert squarefree_kernel(9) == ((), 1) and squarefree_kernel(2 * 49) == ((2,), 1)


def test_a_square_discriminant_has_the_trivial_class():
    assert disc_class(1) == DiscClass((), 1)
    assert disc_class(discriminant(IntPolynomial((16, 20, 0, 0, 0, 1)))) == DiscClass((), 1)


def test_family_s5_s3_certified():
    certs = [certify_galois(X5, 200), certify_galois(X3, 200)]
    classes = [disc_class(discriminant(X5)), disc_class(discriminant(X3))]
    out = certify_family_disjoint(certs, classes)
    assert out.verdict == "Certified"
    # oracle: each disc and their product are non-squares
    d1, d2 = 2869, -23
    assert not disc_is_square(d1)
    assert not disc_is_square(d2)
    assert not disc_is_square(d1 * d2)


def test_family_duplicates_failed():
    certs = [certify_galois(X5, 200)] * 2
    classes = [disc_class(discriminant(X5))] * 2
    out = certify_family_disjoint(certs, classes)
    assert out.verdict == "Failed"


def test_family_two_alternating_distinct_degrees_certified():
    # A5 and A7 factors: trivial disc classes, distinct simple socles
    certs = [_cert("AlternatingGroup", 5, 4), _cert("AlternatingGroup", 7, 9)]
    classes = [DiscClass((), 1), DiscClass((), 1)]
    out = certify_family_disjoint(certs, classes)
    assert out.verdict == "Certified"


def test_family_two_alternating_same_degree_heuristic():
    certs = [_cert("AlternatingGroup", 5, 4), _cert("AlternatingGroup", 5, 9)]
    classes = [DiscClass((), 1), DiscClass((), 1)]
    out = certify_family_disjoint(certs, classes)
    assert out.verdict == "HeuristicOnly"


def test_goursat_oracle_a5_a7_no_common_quotient():
    # desk-scale normal-closure search: A5 and A7 are simple, hence their only
    # common quotient is trivial
    from kummer.groups import alternating_group

    for d in (5, 7):
        g = alternating_group(d).enumerate()
        # one closure per conjugacy class representative
        reps = {}
        for x in g.elements:
            t = _cycle_type_of(x)
            reps.setdefault(t, x)
        for t, x in reps.items():
            if x == g.identity():
                continue
            closure = g.normal_closure([x])
            assert len(closure) == g.order(), f"A{d} has a proper normal closure"


def _cycle_type_of(perm):
    n = len(perm)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i]:
            continue
        j, ln = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        out.append(ln)
    return tuple(sorted(out))


def test_pairwise_independent_family_dependent():
    # c1*c2*c3 a square: pairwise fine, family Failed
    certs = [_cert("SymmetricGroup", 5, 3), _cert("SymmetricGroup", 5, 5), _cert("SymmetricGroup", 5, 15)]
    classes = [DiscClass((2, 3), 1), DiscClass((3, 5), 1), DiscClass((2, 5), 1)]
    out = certify_family_disjoint(certs, classes)
    assert out.verdict == "Failed"
    for i, j in itertools.combinations(range(3), 2):
        sub = certify_family_disjoint([certs[i], certs[j]], [classes[i], classes[j]])
        assert sub.verdict == "Certified"


def test_certified_is_order_invariant():
    certs = [certify_galois(X5, 200), certify_galois(X3, 200)]
    classes = [disc_class(discriminant(X5)), disc_class(discriminant(X3))]
    for perm in itertools.permutations(range(2)):
        out = certify_family_disjoint([certs[i] for i in perm], [classes[i] for i in perm])
        assert out.verdict == "Certified"


def test_adding_product_class_flips_verdict():
    certs = [_cert("SymmetricGroup", 5, 3), _cert("SymmetricGroup", 5, 5)]
    classes = [DiscClass((3,), 1), DiscClass((5,), 1)]
    assert certify_family_disjoint(certs, classes).verdict == "Certified"
    certs.append(_cert("SymmetricGroup", 5, 15))
    classes.append(DiscClass((3, 5), 1))
    assert certify_family_disjoint(certs, classes).verdict == "Failed"


def test_sign_participates_in_class_vector():
    # disc -1 and disc -1: dependent through the sign coordinate alone
    certs = [_cert("SymmetricGroup", 5, -1), _cert("SymmetricGroup", 5, -1)]
    classes = [DiscClass((), -1), DiscClass((), -1)]
    assert certify_family_disjoint(certs, classes).verdict == "Failed"


def test_input_mismatch():
    with pytest.raises(InputMismatch):
        certify_family_disjoint([_cert("SymmetricGroup", 5, 3)], [])
    with pytest.raises(InputMismatch):
        certify_family_disjoint([_cert("Unknown", 5, 3)], [DiscClass((3,), 1)])


def test_frobenius_identical_near_one():
    score = frobenius_joint_statistics(X5, X5, 1000)
    assert score > 0.5


def test_frobenius_shift_near_one():
    score = frobenius_joint_statistics(X5, X5.shift(1), 1000)
    assert score > 0.5


def test_frobenius_disjoint_pair_regression():
    score = frobenius_joint_statistics(X5, X3, 10_000)
    assert score < 0.05
    # regression baseline, frozen from a run of the sampler (not ground truth)
    assert abs(score - 0.0278096) < 1e-4
