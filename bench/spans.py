"""Outside-in span recorder for the benchmark's traced run.

The engine is not changed.  ``Recorder.install`` replaces each layer's public
entry points, in every ``kummer`` namespace that holds them, by a wrapper
that records a span (layer, function, parent span, start, end) and a few
counters read from the call's arguments and return value.  Spans stay in
memory until the run ends; ``self_times`` turns the span tree into self time
(a span's duration minus the time of the spans directly inside it).

Only coarse entry points are wrapped.  Per-element helpers such as
``gf2.matmul_rows``, ``F2Echelon.add`` or ``FpMat.__mul__`` run millions of
times per input, and spans around them would time the recorder, not the
engine.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import sys
import time
from collections import defaultdict

MARK = "__bench_span__"

# layer -> (module, wrapped entry points); "Class.method" patches the class
LAYERS = {
    "cli": ("kummer.cli", ("main",)),
    "pipeline": (
        "kummer.pipeline",
        (
            "parse_case",
            "run_case",
            "audit_example_1_odd",
            "audit_example_2_goursat",
            "audit_example_3_desk",
        ),
    ),
    "galois": ("kummer.galois", ("certify_galois", "discriminant")),
    "disjoint": (
        "kummer.disjoint",
        ("disc_class", "certify_family_disjoint", "frobenius_joint_statistics"),
    ),
    "groups": (
        "kummer.groups",
        (
            "symmetric_group",
            "alternating_group",
            "symplectic_group",
            "general_symplectic_group",
            "semidirect",
            "direct_product",
            "elementary_l_quotient_kernel",
            "has_index_l_normal_subgroup",
            "FiniteGroup.enumerate",
            "FiniteGroup.normal_closure",
        ),
    ),
    "reps": (
        "kummer.reps",
        (
            "standard_module",
            "product_factor_module",
            "with_character",
            "is_simple",
            "is_absolutely_simple",
            "endomorphism_algebra_dim",
            "hom_module_dim",
            "wedge2_dual_invariants_dim",
            "h0",
        ),
    ),
    "cohomology": (
        "kummer.cohomology",
        ("h1", "h1_dim", "validate_module", "is_cocycle", "cocycle_class_is_nonzero"),
    ),
    "picard": (
        "kummer.picard",
        (
            "build_nikulin_lattice",
            "torsor_factor_group",
            "equivariant_lattice",
            "point_permutations",
            "lattice_action_matrices",
            "h1_two_torsion_dim",
        ),
    ),
    "lattice": ("kummer.lattice", ("Lattice.__init__", "Lattice.coords", "lattice_index", "saturate")),
    "smith": (
        "kummer.smith",
        (
            "_snf",
            "smith_normal_form",
            "hermite_rows",
            "bareiss_rank",
            "RowSolver.__init__",
            "RowSolver.solve",
        ),
    ),
    "gf2": ("kummer.gf2", ("f2_rank_kernel", "F2Matrix.rank")),
    "fp": ("kummer.fp", ("kernel_basis", "rank")),
}


def kummer_modules():
    return [m for name, m in list(sys.modules.items()) if name == "kummer" or name.startswith("kummer.")]


def installed_wrappers() -> list:
    """Names of every recorder wrapper still reachable from a kummer namespace;
    an untraced run must find none."""
    found = []
    for mod in kummer_modules():
        for attr, value in vars(mod).items():
            if callable(value) and getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found += [
                    f"{mod.__name__}.{attr}.{a}"
                    for a, v in vars(value).items()
                    if callable(v) and getattr(v, MARK, False)
                ]
    return found


def self_times(spans) -> dict:
    """Per key: [calls, total seconds, self seconds] from (id, parent id, key,
    start, end) spans; parent id -1 marks a root span."""
    inside = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            inside[parent] += end - start
    out = {}
    for sid, _, key, start, end in spans:
        row = out.setdefault(key, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - inside.get(sid, 0.0)
    return out


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.keys = []  # (layer, function) per key index
        self.spans = []  # (id, parent id, key index, start, end)
        self.counters = defaultdict(int)
        self._stack = []
        self._undo = []
        self._primes = [2]
        self._last_discriminant = 0

    # -- wrapping ---------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, before=None, after=None):
        """Wrapper recording one span per call.  before(args) runs first and
        its value goes to after(args, result, exc, value)."""
        key = len(self.keys)
        self.keys.append((layer, name))
        stack, spans, clock = self._stack, self.spans, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else -1
            value = before(args) if before else None
            result = error = None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, key, start, end))
                if after:
                    after(args, result, error, value)

        setattr(wrapper, MARK, True)
        return wrapper

    def install(self):
        """Wrap every entry point of LAYERS wherever a kummer module holds it."""
        for modname, _ in LAYERS.values():
            importlib.import_module(modname)
        modules = kummer_modules()
        hooks = self._hooks()
        for layer, (modname, names) in LAYERS.items():
            home = sys.modules[modname]
            for name in names:
                before, after = hooks.get(name, (None, None))
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name)
                    orig = vars(cls)[attr]
                    setattr(cls, attr, self.wrap(layer, name, orig, before, after))
                    self._undo.append((cls, attr, orig))
                    continue
                orig = getattr(home, name)
                wrapper = self.wrap(layer, name, orig, before, after)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- counters read from arguments and return values --------------------

    def prime_count(self, x: int) -> int:
        """Number of primes <= x."""
        if x > self._primes[-1]:
            sieve = bytearray([1]) * (2 * x + 1)
            sieve[:2] = b"\x00\x00"
            for i in range(2, int((2 * x) ** 0.5) + 1):
                if sieve[i]:
                    sieve[i * i :: i] = bytes(len(sieve[i * i :: i]))
            self._primes = [i for i, v in enumerate(sieve) if v]
        return bisect.bisect_right(self._primes, x)

    def _hooks(self):
        c = self.counters

        def certified(args, cert, exc, _):
            if exc is not None:
                return
            ok = cert.verdict in ("SymmetricGroup", "AlternatingGroup")
            c["galois.certified"] += ok
            top = max(p for p, _, _ in cert.witnesses) if ok else cert.prime_bound_used
            c["galois.primes_scanned"] += self.prime_count(top)

        def discriminant(args, value, exc, _):
            if exc is None:
                self._last_discriminant = value

        def disc_class(args, value, exc, _):
            # disc_class calls discriminant first, so its value is the last one
            c["disjoint.disc_digits"] += len(str(abs(self._last_discriminant)))
            if exc is None:
                c["disjoint.factored"] += 1
            elif type(exc).__name__ == "FactorBudgetExceeded":
                c["disjoint.budget_exceeded"] += 1

        def enumerated(args, group, exc, fresh):
            if fresh and exc is None:
                c["groups.enumerations"] += 1
                c["groups.elements"] += len(group.elements)
                c["groups.cayley_edges"] += len(group.edges)

        def harvested(args, value, exc, fresh):
            if fresh and exc is None:
                group = args[0].group
                c["cohomology.harvests"] += 1
                c["cohomology.harvested_edges"] += len(group.elements) * len(group.generators)

        def model(args, value, exc, _):
            if exc is None:
                c["picard.models_built"] += 1
                c["picard.ambient_dim"] += value.ambient_dim

        def snf(args, value, exc, _):
            c["smith.snf_entries"] += args[0].nrows * args[0].ncols

        def always(args):
            return True

        return {
            "certify_galois": (None, certified),
            "discriminant": (None, discriminant),
            "disc_class": (None, disc_class),
            "FiniteGroup.enumerate": (lambda args: args[0].elements is None, enumerated),
            "h1": (always, harvested),
            "is_cocycle": (always, harvested),
            "validate_module": (lambda args: not args[0]._validated, harvested),
            "build_nikulin_lattice": (None, model),
            "_snf": (None, snf),
        }

    def per_span_cost(self, calls: int = 20000) -> float:
        """Seconds one span adds to a call, measured on a no-op function."""

        def noop():
            return None

        probe = Recorder(self.clock)
        wrapped = probe.wrap("calibration", "noop", noop)
        t0 = self.clock()
        for _ in range(calls):
            noop()
        t1 = self.clock()
        for _ in range(calls):
            wrapped()
        t2 = self.clock()
        return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)
