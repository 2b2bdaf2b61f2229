"""The shape and contract checks of the linear-algebra and lattice layers,
the consistency check of the Frobenius traces, and the checks the value
classes make on construction raise typed errors, not asserts, so they survive
``python -O``.  The read-only value classes compare and hash by value and
refuse assignment."""

import math
import subprocess
import sys
from pathlib import Path

import pytest

from kummer import groups, pipeline
from kummer.cohomology import (
    CocycleSpace,
    cocycle_class_is_nonzero,
    h1,
    is_cocycle,
    validate_module,
)
from kummer.disjoint import DiscClass, DisjointnessCertificate
from kummer.errors import (
    ActionMismatch,
    DimensionMismatch,
    EngineError,
    GaloisCheckFailed,
    GroupCheckFailed,
    GroupMismatch,
    InputError,
    LatticeCheckFailed,
)
from kummer.galois import (
    GaloisCertificate,
    IntPolynomial,
    _cycle_type_from_traces,
    _frobenius_traces,
    certify_galois,
)
from kummer.gf2 import F2Matrix
from kummer.groups import FiniteGroup, from_cycles, stabiliser_chain, symmetric_group
from kummer.lattice import Lattice
from kummer.picard import KummerLatticeModel, numerology, torsor_factor_group
from kummer.pipeline import CaseInput, FactorInput, parse_case
from kummer.reps import GModule, is_simple, permutation_module, standard_module
from kummer.smith import RowSolver, ZMatrix, bareiss_det
from oracles import twisted_torsor_group

ROOT = Path(__file__).resolve().parent.parent


def _b2_off_dim_h2():
    # b_2 = C(2g, 2) + 2^(2g) = dim H^2 for every g, so the check can only be
    # reached through a wrong binomial
    real = math.comb
    math.comb = lambda n, k: real(n, k) + 1
    try:
        numerology(2, 1)
    finally:
        math.comb = real


def _corrupted_trace():
    # the traces of x^5 + 2x + 1 in the lane of 11, with tr(Q^2) off by one:
    # tr(Q^2) - tr(Q) is then odd, not twice a number of quadratic factors
    t1, t2 = _frobenius_traces((1, 2, 0, 0, 0, 1), [11])
    _cycle_type_from_traces([t1, t2 + 1], 11, 5)


def _torsor_factor_of(build):
    # stage 6 reads H^1(P_i, V_i) off stages 3 and 4 only for a P_i that is
    # V x| G as declared; build stands in for torsor_factor_group
    def run():
        real = pipeline.torsor_factor_group
        pipeline.torsor_factor_group = build
        try:
            pipeline._torsor_factor(standard_module(3, "S"), True)
        finally:
            pipeline.torsor_factor_group = real

    return run


def _torsor_line_off_expected(force_fail=None):
    # stages 1 to 4 pass, but stage 6 finds H^1(P_i, V_i) one more than the
    # torsor flag predicts: run_case refuses to reconcile them, unless a
    # forced failure already withholds the verdict
    real = pipeline._torsor_factor

    def off(mod, flag):
        order, line, h1_pi1, fixes0 = real(mod, flag)
        return order, {**line, "h1_torsor_group_module": line["expected"] + 1}, h1_pi1, fixes0

    pipeline._torsor_factor = off
    pipeline._signature_outcomes.cache_clear()
    try:
        return pipeline.run_case(CaseInput((FactorInput(X5, True),)), force_fail)
    finally:
        pipeline._torsor_factor = real
        pipeline._signature_outcomes.cache_clear()


def _chain_without_last_strong_generator():
    # S_5's last strong generator (3 4), the only one of its last level, joins
    # the chain, but no Schreier generator made with it is ever sifted: it is
    # the last of every level's generators, so dropping it keeps the other
    # pairs' keys.  No order is declared, so the count of marked pairs, not
    # the order check, has to catch it
    last = groups._table(from_cycles(5, [(3, 4)]))
    real = groups._schreier
    groups._schreier = lambda trans, gens, done: real(
        trans, [s for s in gens if s[0] != last], done
    )
    try:
        stabiliser_chain(FiniteGroup(symmetric_group(5).generators))
    finally:
        groups._schreier = real


def _on_f3_module(call):
    # cohomology is F_2 only: an F_3 module is refused before any Z^1 rows
    # are cached on it
    def run():
        m = permutation_module(symmetric_group(4), 3)
        try:
            call(m)
        finally:
            if m._z1_rows is not None:
                raise RuntimeError("Z^1 rows cached on a refused module")

    return run


ZERO_COCYCLE = [(0, 0, 0, 0)] * 2
X3 = IntPolynomial((-1, -1, 0, 1))  # x^3 - x - 1
X5 = IntPolynomial((1, -1, 0, 0, 0, 1))  # x^5 - x + 1
S3 = symmetric_group(3)
EYE2 = ((1, 0), (0, 1))


SITES = {
    "f2-row-count": (lambda: F2Matrix(2, 3, [1]), DimensionMismatch),
    "f2-row-width": (lambda: F2Matrix(1, 2, [4]), DimensionMismatch),
    "lattice-denominator": (lambda: Lattice(2, [[1, 0]], den=0), InputError),
    "lattice-row-length": (lambda: Lattice(2, [[1, 0, 0]]), DimensionMismatch),
    "zmatrix-ragged": (lambda: ZMatrix([[1, 2], [3]]), DimensionMismatch),
    "zmatrix-product-shape": (lambda: ZMatrix([[1, 2]]) * ZMatrix([[1, 2]]), DimensionMismatch),
    "bareiss-det-not-square": (lambda: bareiss_det([[1, 2], [3]]), DimensionMismatch),
    "row-solver-dependent-rows": (lambda: RowSolver([[1, 2], [2, 4]], 2), DimensionMismatch),
    "numerology-ns-rank": (lambda: numerology(2, 0), InputError),
    "numerology-b2": (_b2_off_dim_h2, LatticeCheckFailed),
    "galois-corrupted-trace": (_corrupted_trace, GaloisCheckFailed),
    "galois-degree-below-3": (lambda: certify_galois(IntPolynomial((1, 1))), InputError),
    "polynomial-float-coefficient": (lambda: IntPolynomial((1.7, 1)), InputError),
    "polynomial-no-coefficients": (lambda: IntPolynomial(()), InputError),
    "polynomial-zero-leading-coefficient": (lambda: IntPolynomial((1, -1, 0, 0, 0, 1, 0)), InputError),
    "case-no-factors": (lambda: CaseInput(()), InputError),
    "case-unknown-mode": (
        lambda: parse_case({"factors": [{"poly": [1, -1, 0, 0, 0, 1]}], "mode": "heuristic"}),
        InputError,
    ),
    "case-even-degree": (
        lambda: CaseInput((FactorInput(IntPolynomial((1, 0, 1)), False),)),
        InputError,
    ),
    "case-g-below-2": (lambda: CaseInput((FactorInput(X3, False),)), InputError),
    "disc-class-sign": (lambda: DiscClass((3,), 2), InputError),
    "disc-class-unsorted": (lambda: DiscClass((5, 3), 1), InputError),
    "module-matrix-count": (lambda: GModule(S3, 2, 2, (EYE2,)), DimensionMismatch),
    "module-matrix-shape": (lambda: GModule(S3, 2, 2, (EYE2, ((1, 0),))), DimensionMismatch),
    "module-zero-character": (lambda: GModule(S3, 2, 3, (EYE2, EYE2), (1, 3)), GroupMismatch),
    # G's generators carry a translation
    "torsor-group-translated-g-part": (
        _torsor_factor_of(lambda m, flag: twisted_torsor_group(m, [(1, 0), (0, 0)])),
        ActionMismatch,
    ),
    # G's matrices paired with the other generator's action on G's points
    "torsor-group-mismatched-g-part": (
        _torsor_factor_of(
            lambda m, flag: torsor_factor_group(
                GModule(FiniteGroup(S3.generators[::-1]), 2, 2, m.generator_matrices), flag
            )
        ),
        ActionMismatch,
    ),
    # the translation by e_0 spans a line, not V: P_i is Z/2 x S_3
    "torsor-group-translations-short": (
        lambda: pipeline._torsor_factor(GModule(S3, 2, 2, (EYE2, EYE2)), True),
        ActionMismatch,
    ),
    "run-case-torsor-line-off-expected": (_torsor_line_off_expected, EngineError),
    "chain-order-not-known-order": (
        lambda: stabiliser_chain(FiniteGroup(symmetric_group(4).generators, known_order=12)),
        GroupCheckFailed,
    ),
    "chain-strong-generator-dropped": (_chain_without_last_strong_generator, GroupCheckFailed),
    # over F_3, (1, 2; 2, 1) sends (1, 1) to 0: it does not permute the vectors,
    # so an orbit of the generator matrices is no orbit of a group
    "simplicity-singular-generator-matrix": (
        lambda: is_simple(GModule(S3, 2, 3, (EYE2, ((1, 2), (2, 1))))),
        GroupCheckFailed,
    ),
    "cohomology-f3-h1": (_on_f3_module(h1), DimensionMismatch),
    "cohomology-f3-validate-module": (_on_f3_module(validate_module), DimensionMismatch),
    "cohomology-f3-is-cocycle": (
        _on_f3_module(lambda m: is_cocycle(m, ZERO_COCYCLE)),
        DimensionMismatch,
    ),
    "cohomology-f3-cocycle-class": (
        _on_f3_module(lambda m: cocycle_class_is_nonzero(m, ZERO_COCYCLE)),
        DimensionMismatch,
    ),
    "cocycle-space-h1": (
        lambda: CocycleSpace(standard_module(5, "S"), 4, 4, 1, ()),
        GroupCheckFailed,
    ),
}


def test_a_forced_failure_withholds_what_the_torsor_line_would_refuse():
    report = _torsor_line_off_expected("linear_disjointness")
    assert report.conclusions["withheld_because"] == ["linear_disjointness", "pic_model_cohomology"]


def _integral_lattice():
    return Lattice(2, [[1, 0], [0, 1]])


def _half_lattice():
    return Lattice(2, [[1, 1]], den=2)


# each read-only value class: a builder of equal values and one of another
# value; a Lattice field has no hash, so neither has its holder
FROZEN = {
    "IntPolynomial": (lambda: IntPolynomial((1, -1, 0, 0, 0, 1)), lambda: X3),
    "GaloisCertificate": (
        lambda: GaloisCertificate(3, "SymmetricGroup", ((5, (1, 2), "odd"),), False, 100, -23),
        lambda: GaloisCertificate(3, "Unknown", (), False, 100, -23),
    ),
    "DiscClass": (lambda: DiscClass((19, 151), 1), lambda: DiscClass((19, 151), -1)),
    "DisjointnessCertificate": (
        lambda: DisjointnessCertificate("Certified", "ok"),
        lambda: DisjointnessCertificate("Failed", "ok"),
    ),
    "FactorInput": (
        lambda: FactorInput(IntPolynomial(X5.coefficients), True),
        lambda: FactorInput(X5, False),
    ),
    "CaseInput": (
        lambda: CaseInput((FactorInput(X5, True),), 500),
        lambda: CaseInput((FactorInput(X5, True),), 501),
    ),
    "KummerLatticeModel": (
        lambda: KummerLatticeModel(1, 2, _integral_lattice(), _half_lattice(), _half_lattice()),
        lambda: KummerLatticeModel(1, 2, _integral_lattice(), _half_lattice(), Lattice(2, [])),
    ),
}
UNHASHABLE = {"KummerLatticeModel"}


@pytest.mark.parametrize("site", SITES)
def test_contract_checks_raise_typed_errors(site):
    build, error = SITES[site]
    with pytest.raises(error):
        build()


def test_contract_checks_survive_optimize_flag():
    script = (
        "from test_typed_contracts import SITES\n"
        "for site, (build, _) in SITES.items():\n"
        "    try:\n"
        "        build()\n"
        "    except Exception as exc:\n"
        "        print(site, type(exc).__name__)\n"
        "    else:\n"
        "        print(site, 'no error')\n"
    )
    env = {"PYTHONPATH": f"{ROOT / 'src'}:{ROOT / 'tests'}", "PATH": "/usr/bin:/bin"}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    raised = dict(line.split(" ", 1) for line in out.stdout.splitlines())
    assert raised == {site: error.__name__ for site, (_, error) in SITES.items()}
    assert all(issubclass(error, EngineError) for _, error in SITES.values())


@pytest.mark.parametrize("name", FROZEN)
def test_value_classes_compare_by_value_and_refuse_assignment(name):
    build, build_other = FROZEN[name]
    a, b, other = build(), build(), build_other()
    assert a is not b and a == b and not a != b
    assert a != other and a != tuple(getattr(a, f) for f in type(a).__slots__)
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2
    for field in type(a).__slots__:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(other, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b
