"""The shape and contract checks of the linear-algebra and lattice layers,
and the consistency check of the Frobenius traces, raise typed errors, not
asserts, so they survive ``python -O``."""

import math
import subprocess
import sys
from pathlib import Path

import pytest

from kummer.errors import (
    DimensionMismatch,
    EngineError,
    GaloisCheckFailed,
    InputError,
    LatticeCheckFailed,
)
from kummer.galois import IntPolynomial, _cycle_type_from_traces, _frobenius_traces, certify_galois
from kummer.gf2 import F2Matrix
from kummer.lattice import Lattice
from kummer.picard import numerology
from kummer.smith import RowSolver, ZMatrix, bareiss_det

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
}


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
