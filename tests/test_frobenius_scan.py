"""The Frobenius scan (CRT lanes and the gcd fallback for p <= d) against
the one-powmod-per-degree oracle, the shared sieve, the typed soundness
checks of galois and disjoint, and the certificates against sympy's Galois
groups."""

import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kummer import galois
from kummer.disjoint import DiscClass, disc_class, squarefree_kernel
from kummer.errors import GaloisCheckFailed, InputError, ZeroInput
from kummer.galois import (
    RAMIFIED,
    IntPolynomial,
    certify_galois,
    discriminant,
    frobenius_scan,
    primes_up_to,
)

from oracles import _pdivmod, _pgcd, ddf_cycle_type, is_ramified_by_gcd, poly_mul, scan_cycle_type

ROOT = Path(__file__).resolve().parent.parent
SMALL_PRIMES = primes_up_to(60)
PRIMES = primes_up_to(20_000)
NEAR_MILLION = (999_953, 999_959, 999_961, 999_979, 999_983, 1_000_003)


def naive_primes(bound):
    return [n for n in range(2, bound + 1) if all(n % q for q in range(2, int(n**0.5) + 1))]


def test_primes_up_to_matches_naive_sieve_in_any_order():
    # growing, shrinking and repeated bounds all slice the one shared sieve
    for bound in (-3, 0, 1, 2, 3, 4, 10, 97, 1000, 5, 4999, 20_011, 2, 30_000, 1000):
        assert primes_up_to(bound) == naive_primes(bound), bound
    assert len(primes_up_to(10_000)) == 1229
    assert len(primes_up_to(100_000)) == 9592
    assert primes_up_to(100_003)[-1] == 100_003


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 13, 101, 999_983]),
    st.lists(st.integers(0, 10**6), max_size=16),
    st.lists(st.integers(0, 10**6), min_size=1, max_size=9),
)
def test_remainder_step_matches_the_oracle_division(p, a, b):
    a = [x % p for x in a]
    b = [x % p for x in b]
    if b[-1] == 0:
        b[-1] = 1
    # quotient and remainder, and the gcd is the oracle's monic one
    assert galois._pdivmod(a, b, p) == _pdivmod(a, b, p)
    assert galois._pgcd(a, b, p) == _pgcd(a, b, p)


polys = st.integers(1, 7).flatmap(
    lambda d: st.tuples(
        st.lists(st.integers(-60, 60), min_size=d, max_size=d),
        st.sampled_from([1, -1, 2, 3, 4, 5, 6, 9, 10, 12, 25, 30, 49, 210, 1001]),
    )
)


@settings(max_examples=80, deadline=None)
@given(polys, st.lists(st.sampled_from(PRIMES), min_size=1, max_size=12))
def test_cycle_types_match_the_oracle_ddf(poly, sampled):
    low, lead = poly
    f = IntPolynomial(tuple(low) + (lead,))
    for p in SMALL_PRIMES + sorted(set(sampled)) + list(NEAR_MILLION):
        if lead % p == 0:
            continue
        expected = ddf_cycle_type(f.coefficients, p)
        assert scan_cycle_type(f, p) == expected, (f, p)
        # ramification from disc mod p equals the gcd(f, f') test
        assert (discriminant(f) % p == 0) == is_ramified_by_gcd(f.coefficients, p), (f, p)
        assert (expected is RAMIFIED) == is_ramified_by_gcd(f.coefficients, p)


@settings(max_examples=40, deadline=None)
@given(polys)
def test_scan_matches_per_prime_calls(poly):
    low, lead = poly
    f = IntPolynomial(tuple(low) + (lead,))
    primes = primes_up_to(400)
    scanned = list(frobenius_scan(f, discriminant(f), primes))
    assert [p for p, _ in scanned] == [p for p in primes if lead % p]
    assert all(t == ddf_cycle_type(f.coefficients, p) for p, t in scanned)


SMALL_LEADS = [1, -1, 2, -3, 5, 6, 7, 10, 14, 30, 49, 210]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda d: st.tuples(
            st.lists(st.integers(-60, 60), min_size=d, max_size=d),
            st.sampled_from(SMALL_LEADS),
        )
    ),
    st.lists(st.sampled_from(PRIMES), min_size=1, max_size=2),
    st.lists(st.sampled_from(NEAR_MILLION), min_size=1, max_size=2, unique=True),
    st.randoms(use_true_random=False),
)
@example(([1, -1, 0, 0, 0], 1), [11, 11], [999_983], random.Random(0))
def test_one_batch_of_every_kind_of_prime_matches_the_oracle(poly, sampled, near, rng):
    # p <= d, p | lc, p | disc, sampled primes (maybe one twice) and primes
    # near 10^6, in any order; at most 4 of them are lanes, so they share the
    # first batch
    low, lead = poly
    f = IntPolynomial(tuple(low) + (lead,))
    disc = discriminant(f)
    primes = (
        [p for p in (2, 3, 5, 7) if p <= f.degree]
        + [p for p in SMALL_PRIMES if lead % p == 0]
        + [p for p in PRIMES if disc % p == 0][:3]
        + sampled + near
    )
    rng.shuffle(primes)
    with mock.patch.object(galois, "_frobenius_traces", wraps=galois._frobenius_traces) as traces:
        scanned = list(frobenius_scan(f, disc, primes))
    assert scanned == [(p, ddf_cycle_type(f.coefficients, p)) for p in primes if lead % p]
    lanes = list(dict.fromkeys(p for p in primes if p > f.degree and lead % p and disc % p))
    assert [call.args[1] for call in traces.call_args_list] == ([lanes] if lanes else [])


def _corrupt_traces_at(prime):
    """_cycle_type_from_traces, with tr(Q) set to d + 1 roots at the given prime."""
    real = galois._cycle_type_from_traces

    def reconstruct(traces, p, d):
        return real([d + 1] + traces[1:] if p == prime else traces, p, d)

    return reconstruct


@pytest.mark.parametrize(
    "traces, p, d",
    [
        ([6], 7, 3),  # more roots in F_p than the degree
        ([1, 3], 11, 5),  # one linear and one quadratic factor leave 2 <= d/2
        ([0, 1], 11, 5),  # an odd number of roots of exact degree 2
        ([3, 0], 11, 5),  # a negative count of quadratic factors
        ([0, 0, 2], 13, 7),  # two roots of exact degree 3
        ([0, 4], 11, 5),  # two quadratic factors leave 1 <= d/2
    ],
)
def test_inconsistent_traces_raise(traces, p, d):
    with pytest.raises(GaloisCheckFailed):
        galois._cycle_type_from_traces(traces, p, d)


def test_reconstruction_stays_lazy_past_the_last_witness(monkeypatch):
    # x^5 - 3x^2 - 2x + 1 is certified S_5 by witnesses at 2 and 7; 11, 13
    # and 17 share 7's batch, so their traces are computed, but never read
    f = IntPolynomial((1, -2, -3, 0, 0, 1))
    cert = certify_galois(f, 200)
    assert cert.verdict == "SymmetricGroup"
    assert max(p for p, _, _ in cert.witnesses) == 7
    batches = []
    real_traces = galois._frobenius_traces

    def record(coeffs, lanes):
        batches.append(lanes)
        return real_traces(coeffs, lanes)

    monkeypatch.setattr(galois, "_frobenius_traces", record)
    for prime in (11, 13, 17):
        monkeypatch.setattr(galois, "_cycle_type_from_traces", _corrupt_traces_at(prime))
        assert certify_galois(f, 200) == cert
    assert batches == [[7, 11, 13, 17]] * 3
    # the same fault where the scan reads it
    monkeypatch.setattr(galois, "_cycle_type_from_traces", _corrupt_traces_at(7))
    with pytest.raises(GaloisCheckFailed):
        certify_galois(f, 200)


def test_cycle_type_small_inputs_keep_their_answers():
    assert scan_cycle_type(IntPolynomial((1, 0, 1)), 3) == (2,)
    assert scan_cycle_type(IntPolynomial((3, 2)), 7) == (1,)


def _oracle_scan(f, disc, primes):
    for p in primes:
        if f.leading % p:
            yield p, ddf_cycle_type(f.coefficients, p)


@pytest.mark.parametrize(
    "coeffs, bound",
    [
        ((-2, 0, 0, 0, 0, 1), 600),  # x^5 - 2, F20: Unknown
        ((-10, 0, 0, 0, 0, 1), 600),
        ((-32, 0, 0, 0, 0, 1), 300),  # reducible
        ((-10, 0, 0, 0, 0, 0, 0, 1), 600),  # x^7 - 10, F42: Unknown
        ((-3, 0, 0, 0, 0, 0, 0, 1), 600),
        ((1, -1, 0, 0, 0, 1), 200),  # S5
        ((16, 20, 0, 0, 0, 1), 500),  # A5
        ((3, -7, 0, 0, 0, 0, 0, 1), 400),  # PSL(2, 7): Unknown
        ((1, 0, 0, 0, 0, 0, -2, 3), 400),  # non-monic septic
    ],
)
def test_certificate_equals_the_oracle_driven_scan(monkeypatch, coeffs, bound):
    f = IntPolynomial(coeffs)
    cert = certify_galois(f, bound)
    monkeypatch.setattr(galois, "frobenius_scan", _oracle_scan)
    assert certify_galois(f, bound) == cert


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads_readonly", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rejects_slots_certify_as_the_oracle_driven_scan(monkeypatch):
    # the first candidate of the first slot of each kind of the benchmark's
    # rejects workload at seed 401: x^5 - a and x^7 - a scanned to their
    # bound, a shifted cubic pair and a large quintic
    workloads = _bench_workloads()
    polys = []
    for kind in dict.fromkeys(workloads.REJECTS_CYCLE):
        _, case = next(workloads.candidates("rejects", 401, workloads.REJECTS_CYCLE.index(kind)))
        for factor in case["factors"]:
            polys.append((IntPolynomial(tuple(int(c) for c in factor["poly"])), case["prime_bound"]))
    certs = [certify_galois(f, bound) for f, bound in polys]
    assert {cert.degree for cert in certs} == {3, 5, 7}
    monkeypatch.setattr(galois, "frobenius_scan", _oracle_scan)
    assert [certify_galois(f, bound) for f, bound in polys] == certs


def test_ddf_internal_checks_raise_typed_errors(monkeypatch):
    # x^5 - x + 1 = (x^2 + x + 1)(x^3 + x^2 + 1) mod 2
    f = IntPolynomial((1, -1, 0, 0, 0, 1))
    real = galois._pgcd
    calls = []

    def wrong_second_gcd(a, b, p):
        calls.append(p)
        return real(a, b, p) if len(calls) == 1 else [1, 0, 1, 1]  # degree 3 at k = 2

    monkeypatch.setattr(galois, "_pgcd", wrong_second_gcd)
    with pytest.raises(GaloisCheckFailed):
        scan_cycle_type(f, 2)
    monkeypatch.setattr(galois, "_pgcd", lambda a, b, p: [1, 1])  # x + 1 divides nothing here
    with pytest.raises(GaloisCheckFailed):
        scan_cycle_type(f, 2)


def test_soundness_checks_are_typed_errors(monkeypatch):
    with pytest.raises(InputError):
        IntPolynomial(())
    with pytest.raises(InputError):
        discriminant(IntPolynomial((7,)))
    with pytest.raises(InputError):
        DiscClass((3,), 2)
    with pytest.raises(InputError):
        DiscClass((5, 3), 1)
    with pytest.raises(InputError):
        DiscClass((3, 3), -1)
    with pytest.raises(ZeroInput):
        squarefree_kernel(0)
    inseparable = poly_mul(IntPolynomial((1, 2, 1)), IntPolynomial((0, 1)))
    with pytest.raises(ZeroInput):
        disc_class(discriminant(inseparable))
    monkeypatch.setattr(galois, "resultant", lambda f, g: 7)
    with pytest.raises(GaloisCheckFailed):
        discriminant(IntPolynomial((1, 0, 2)))


def test_withheld_verdict_identical_under_optimize_flag(tmp_path):
    # x^7 - 10 has group F42, so every prime up to the bound is scanned and
    # the Galois hypothesis withholds; python -O must change neither the exit
    # code nor a byte of the report
    case = tmp_path / "septic.json"
    case.write_text(json.dumps({"factors": [{"poly": ["-10", "0", "0", "0", "0", "0", "0", "1"]}], "prime_bound": 2000}))
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    reports = []
    for flags in ([], ["-O"]):
        out = subprocess.run(
            [sys.executable, *flags, "-m", "kummer.cli", "--input", str(case)],
            capture_output=True,
            env=env,
        )
        assert out.returncode == 2, out.stderr
        reports.append(out.stdout)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["conclusions"]["withheld_because"][0] == "galois_certification"


SYMPY_NAMES = {"S3": "SymmetricGroup", "A3": "AlternatingGroup", "S5": "SymmetricGroup", "A5": "AlternatingGroup"}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 5]).flatmap(
        lambda d: st.tuples(
            st.lists(st.integers(-12, 12), min_size=d, max_size=d),
            st.sampled_from([1, 1, 1, 2, 3, -4]),
        )
    ),
    st.sampled_from([30, 200]),
)
@example(([-1, -1, 0], 1), 50)  # S3
@example(([1, -1, 0, 0, 0], 1), 200)  # S5
@example(([16, 20, 0, 0, 0], 1), 500)  # A5
def test_certificates_never_contradict_sympy(poly, bound):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.numberfields.galoisgroups import galois_group

    low, lead = poly
    f = IntPolynomial(tuple(low) + (lead,))
    if discriminant(f) == 0:
        return
    cert = certify_galois(f, bound)
    if cert.verdict == "Unknown":
        return
    x = sympy.symbols("x")
    group, _ = galois_group(sympy.Poly(list(reversed(f.coefficients)), x), by_name=True)
    assert SYMPY_NAMES.get(group.name) == cert.verdict, (f, group, cert)
