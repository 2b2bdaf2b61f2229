"""End-to-end verdict pipeline: Galois certification, disjointness, module
and cohomology hypotheses, the equivariant lattice audit, and the final
conclusions with COMPUTED / CITED provenance tags.

Conclusions are asserted only when every hypothesis check passes; a single
failure (genuine or fault-injected) withholds all of them.

``run_case`` calls one stage function per check: Galois certification,
disjointness, module structure, H^1 vanishing, and one equivariant stage for
the two lattice checks.  Each stage returns ``(passed, details)``, plus
what later stages need.  ``run_case`` alone handles fault injection, the
skips after a failed Galois certification, the strict torsor-count rule and
the conclusions.  No stage builds a product group's points or elements:
stage 3 reads it through generator matrices, and stages 5 and 6 sum facts of
each P_i on its own 2^dim points, read off stages 3 and 4 (no V x| G is
enumerated).  So every input past the lattice cap gets a withheld report.

Stages 3 to 6 depend only on the Galois-module type of each factor: the
degree d, S_d or A_d, and whether the 2-covering is a nontrivial torsor.  So
``run_case`` reads the tuple of those signatures, in factor order, off the
certificates and the case, and their outcomes are computed once per tuple in
a process (``_signature_outcomes``).  Within one computation each distinct
factor module is built and validated once, each distinct P_i once, and the
lattice model once, and a fill that raised keeps no entry.  Fault
injection, the skips after a failed Galois certification and the strict
torsor-count rule stay per call.  The bundled audits reuse each group's
verified stabiliser chain, and recompute the rest.

Stages 1 and 2 read each factor's Galois certificate and discriminant class
through two more memos, ``_certificate`` keyed by (polynomial, prime bound)
and ``_disc_class`` keyed by the discriminant, so a process certifies each
polynomial once per bound and factors each discriminant once.  Their keys
come from outside input, so each keeps at most MEMO_SIZE entries, the least
recently used evicted.  Neither keeps a raise, and the audits bypass both.

Each memo keeps its report fragments encoded, as Fragments: the stage
details and the equivariant audit beside the outcomes, each factor's Galois
detail beside its certificate, each class entry beside its class, and the
conclusions and citations in memos of their own.  So a warm report is one
``report_json`` of the case echo and the hypothesis entries, with each
Fragment indented into place, and no memo entry holds a dict a caller could
change.
"""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote

from . import fp
from .cohomology import cocycle_class_is_nonzero, h1_dim, validate_module
from .disjoint import certify_family_disjoint, disc_class
from .errors import ActionMismatch, EngineError, FactorBudgetExceeded, InputError
from .frozen import Frozen
from .galois import IntPolynomial, certify_galois, discriminant
from .groups import (
    affine,
    alternating_group,
    general_symplectic_group,
    group_order_formula,
    has_index_l_normal_subgroup,
    images,
    is_even,
    stabiliser_chain,
    symmetric_group,
    symplectic_group,
)
from .picard import (
    EQUIVARIANT_G_CAP,
    build_nikulin_lattice,
    canonical_class,
    canonical_class_in_pi1,
    equivariant_lattice,
    h1_pi1_from_points,
    numerology,
    point_permutations,
    torsor_factor_group,
)
from .reps import (
    GModule,
    _spins_to_full,
    endomorphism_algebra_dim,
    h0,
    hom_module_dim,
    is_absolutely_simple,
    is_simple,
    product_factor_module,
    standard_module,
    wedge2_dual_invariants_dim,
    with_character,
)

HYPOTHESIS_CHECKS = (
    "galois_certification",
    "linear_disjointness",
    "module_structure",
    "h1_vanishing",
    "pi1_cohomology",
    "pic_model_cohomology",
)

CITATIONS = {
    "picard_rank": "free geometric Picard group of rank 2^(2g) + n for the Kummer "
    "variety of a 2-covering (rank formula)",
    "br2_algebraic": "2-primary Brauer classes are algebraic once the 2-torsion "
    "fields are pairwise disjoint with absolutely simple actions (m = 1 layer "
    "computed; higher 2-power layers by the inductive lifting argument, cited)",
    "br1_equals_br0": "H^1(P, Pic) = 0 forces the algebraic Brauer group down to "
    "the constant classes",
    "br_bar_2_invariants_zero": "no Galois-invariant 2-torsion in the geometric "
    "Brauer group: alternating subgroups act absolutely simply and admit no "
    "index-2 quotient",
    "odd_part_unobstructed_note": "elements of odd order in the Brauer group "
    "never obstruct the Hasse principle on these Kummer varieties (cited, not "
    "computed); combined with the computed triviality of the 2-part this "
    "leaves the Brauer-Manin set of an everywhere locally soluble case "
    "nonempty (cited consequence)",
}


class FactorInput(Frozen):
    __slots__ = ("poly", "torsor_nontrivial")

    def __init__(self, poly: IntPolynomial, torsor_nontrivial: bool):
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "torsor_nontrivial", torsor_nontrivial)


class CaseInput(Frozen):
    __slots__ = ("factors", "prime_bound")

    def __init__(self, factors: tuple, prime_bound: int = 1000):
        if not factors:
            raise InputError("at least one factor is required")
        g = 0
        for f in factors:
            d = f.poly.degree
            if d % 2 == 0 or d < 3:
                raise InputError(f"factor degrees must be odd and >= 3, got {d}")
            g += (d - 1) // 2
        if g < 2:
            raise InputError("total abelian dimension g must be at least 2")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "prime_bound", prime_bound)

    @property
    def g(self):
        return sum((f.poly.degree - 1) // 2 for f in self.factors)


PRIME_BOUND_MAX = 10**6
CASE_KEYS = {"factors", "prime_bound", "mode"}
FACTOR_KEYS = {"poly", "torsor_nontrivial"}
_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _check_keys(obj: dict, allowed: set, where: str):
    unknown = sorted(str(k) for k in obj if k not in allowed)
    if unknown:
        raise InputError(f"unknown key(s) {unknown} in {where}")


def _coefficient(c) -> int:
    """A JSON integer or a decimal string; floats and bools are refused."""
    if isinstance(c, int) and not isinstance(c, bool):
        return c
    if isinstance(c, str) and _DECIMAL.fullmatch(c):
        try:
            return int(c)
        except ValueError as exc:  # beyond the interpreter's digit limit
            raise InputError(f"bad coefficient {c[:20]!r}...: {exc}") from exc
    raise InputError(f"coefficient {c!r} is not an integer or a decimal string")


def parse_case(obj) -> CaseInput:
    """Case file schema: {"factors": [{"poly": [c0, ...], "torsor_nontrivial": b}],
    "prime_bound": N, "mode": "certify"}; coefficients are JSON integers or
    decimal strings, the last (leading) one nonzero, b is a JSON bool,
    2 <= N <= PRIME_BOUND_MAX, "mode" may be omitted and takes no other value,
    and no other keys are accepted."""
    if not isinstance(obj, dict):
        raise InputError("case file must contain a JSON object")
    _check_keys(obj, CASE_KEYS, "the case")
    raw_factors = obj.get("factors")
    if not isinstance(raw_factors, list) or not raw_factors:
        raise InputError('"factors" must be a non-empty list')
    factors = []
    for rf in raw_factors:
        if not isinstance(rf, dict) or "poly" not in rf:
            raise InputError('every factor needs a "poly" coefficient list')
        _check_keys(rf, FACTOR_KEYS, "a factor")
        coeffs = rf["poly"]
        if not isinstance(coeffs, list) or not coeffs:
            raise InputError('"poly" must be a non-empty coefficient list')
        coeffs = tuple(_coefficient(c) for c in coeffs)
        if coeffs[-1] == 0:
            raise InputError('the last "poly" coefficient, the leading one, must not be 0')
        flag = rf.get("torsor_nontrivial", False)
        if not isinstance(flag, bool):
            raise InputError(f'"torsor_nontrivial" must be true or false, got {flag!r}')
        factors.append(FactorInput(IntPolynomial(coeffs), flag))
    prime_bound = obj.get("prime_bound", 1000)
    if (
        not isinstance(prime_bound, int)
        or isinstance(prime_bound, bool)
        or not 2 <= prime_bound <= PRIME_BOUND_MAX
    ):
        raise InputError(f'"prime_bound" must be an integer in [2, {PRIME_BOUND_MAX}]')
    if obj.get("mode", "certify") != "certify":
        raise InputError(f'"mode" must be "certify", got {obj["mode"]!r}')
    return CaseInput(tuple(factors), prime_bound)


class Fragment(str):
    """JSON text that ``report_json`` wrote at depth 0, less its last newline.
    ``_encode`` embeds it at any depth by indenting each of its lines: this is
    exact because ``_quote`` escapes every control character, so each newline
    in the text is structural."""

    __slots__ = ()


def _fragment(value) -> Fragment:
    return Fragment(report_json(value)[:-1])


def report_json(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2) + "\\n"``, byte for byte,
    for what a report or an audit record holds: dicts with str keys, lists,
    tuples, str, int, bool and None, with each Fragment written as the value
    it encodes.  A key that is not a str and a value of any other type, a
    float included, raise TypeError where json.dumps would coerce them or
    write something that is not exact JSON.  With an indent,
    json.dumps runs its general encoder in pure Python; this is only the
    dict, list and scalar cases a report needs."""
    out = []
    _encode(value, "\n", out)
    out.append("\n")
    return "".join(out)


def _encode(value, newline, out):
    if isinstance(value, str):
        out.append(value.replace("\n", newline) if type(value) is Fragment else _quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"a report key must be a str, not {type(key).__name__}")
            out.append(sep + _quote(key) + ": ")
            _encode(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _encode(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"a report holds no {type(value).__name__}")


class VerdictReport:
    """A verdict report as the JSON text ``to_json`` returns, and whether it
    asserts its conclusions.  The dict attributes are a view this report
    decodes from its own text on first read, so changing one reaches neither
    the text nor a memo."""

    __slots__ = ("_text", "asserted", "_view")

    def __init__(self, text: str, asserted: bool):
        self._text, self.asserted, self._view = text, asserted, None

    def to_json(self):
        return self._text

    def to_dict(self):
        if self._view is None:
            self._view = json.loads(self._text)
        return self._view

    case = property(lambda self: self.to_dict()["case"])
    hypotheses = property(lambda self: self.to_dict()["hypotheses"])
    equivariant_audit = property(lambda self: self.to_dict()["equivariant_audit"])
    conclusions = property(lambda self: self.to_dict()["conclusions"])
    citations = property(lambda self: self.to_dict()["citations"])


_CONCLUSION_KEYS = ("picard_rank", "br2_algebraic", "br1_equals_br0", "br_bar_2_invariants_zero")


def _check(name, passed, details, force_fail=None):
    entry = {"name": name, "passed": bool(passed), "details": details}
    if force_fail == name:
        entry["passed"] = False
        entry["fault_injected"] = True
    return entry


def run_case(case: CaseInput, force_fail=None) -> VerdictReport:
    """Run every hypothesis check and emit the verdict report.

    force_fail names one check whose outcome is flipped to failed after the
    computation (fault injection for the soundness tests).
    """
    if force_fail is not None and force_fail not in HYPOTHESIS_CHECKS:
        raise InputError(f"unknown check {force_fail!r}")
    galois_ok, galois_details, certs = _galois_stage(case)
    outcomes = [(galois_ok, galois_details)]
    audit = None
    if not galois_ok:
        skip = {"skipped": "galois certification failed"}
        outcomes += [(False, skip), (False, [skip]), (False, [skip]), (False, skip), (False, skip)]
    else:
        outcomes.append(_disjointness_stage(certs))
        sigs = tuple(
            (cert.degree, "S" if cert.verdict == "SymmetricGroup" else "A", f.torsor_nontrivial)
            for cert, f in zip(certs, case.factors)
        )
        stages, audit, lines = _signature_outcomes(sigs)
        outcomes += stages[:2]
        strict = force_fail is None and all(ok for ok, _ in outcomes)
        outcomes += stages[2:]
        for factor, hv, expected in lines:
            if strict and hv != expected:
                raise EngineError(
                    f"H^1(P, V_{factor}) = {hv} but the hypothesis chain "
                    f"predicts {expected}; refusing to reconcile silently"
                )
    hypotheses = [
        _check(name, ok, details, force_fail)
        for name, (ok, details) in zip(HYPOTHESIS_CHECKS, outcomes)
    ]
    failing = tuple(h["name"] for h in hypotheses if not h["passed"])
    report = {
        "case": _case_echo(case),
        "hypotheses": hypotheses,
        "equivariant_audit": audit,
        "conclusions": _conclusions(case.g, len(case.factors), failing),
        "citations": _CITATIONS,
    }
    return VerdictReport(report_json(report), not failing)


MEMO_SIZE = 1024


@lru_cache(maxsize=MEMO_SIZE)
def _certificate(poly, prime_bound):
    """``certify_galois(poly, prime_bound)``, whether stage 1 accepts it, and
    its stage 1 detail as a Fragment, once per (polynomial, bound) in a
    process.  The bound is part of the key: a larger bound can find witnesses
    a smaller one misses.  A raise (GaloisCheckFailed, Inseparable) is not
    kept.  ``certify_galois`` is looked up at each fill, so a wrapper put on
    the module name sees the fills only."""
    cert = certify_galois(poly, prime_bound)
    accepted = cert.verdict == "SymmetricGroup" or (
        cert.verdict == "AlternatingGroup" and cert.degree != 3
    )
    return cert, accepted, _fragment(
        {
            "poly": [str(c) for c in poly.coefficients],
            "degree": cert.degree,
            "verdict": cert.verdict,
            "discriminant": str(cert.discriminant),
            "disc_square": cert.disc_square,
            "witnesses": [[p, list(t), role] for p, t, role in cert.witnesses],
            "accepted": accepted,
        }
    )


@lru_cache(maxsize=MEMO_SIZE)
def _disc_class(d):
    """``disc_class(d)`` and its stage 2 class entry as a Fragment, once per
    discriminant in a process, so a polynomial and its shift f(x + k) share
    one factoring.  A raise (FactorBudgetExceeded) is not kept;
    ``disc_class`` is looked up at each fill, as in ``_certificate``."""
    c = disc_class(d)
    return c, _fragment({"support": list(c.squarefree_support), "sign": c.sign})


def _galois_stage(case):
    """(1) Galois certification: S_d or A_d, and S_3 only at degree 3.
    Returns (passed, details, certificates)."""
    memo = [_certificate(f.poly, case.prime_bound) for f in case.factors]
    return all(ok for _, ok, _ in memo), [d for _, _, d in memo], [c for c, _, _ in memo]


def _disjointness_stage(certs):
    """(2) Linear disjointness of the splitting fields: passed only when
    certified exactly, so an undecided (HeuristicOnly) family withholds."""
    try:
        memo = [_disc_class(cert.discriminant) for cert in certs]
        out = certify_family_disjoint(certs, [c for c, _ in memo])
    except FactorBudgetExceeded as exc:
        return False, {"verdict": "HeuristicOnly", "reason": str(exc)}
    details = {"verdict": out.verdict, "reason": out.reason, "classes": [e for _, e in memo]}
    return out.verdict == "Certified", details


@lru_cache(maxsize=None)
def _signature_outcomes(sigs):
    """Stages 3 to 6 once per tuple of factor signatures ((degree, "S" or
    "A", torsor flag), ...) in factor order in a process: their (passed,
    details as a Fragment) pairs, the equivariant audit as a Fragment (None
    when stage 5 is skipped), and stage 6's (factor, H^1, expected) lines for
    the strict torsor-count rule.  Those stages read nothing of a case but
    its signatures, and lru_cache keeps no entry for a fill that raised."""
    structure_ok, structure_details, modules = _module_stage(sigs)
    outcomes = [(structure_ok, structure_details), _h1_stage(modules)]
    outcomes += _equivariant_stage(sigs, modules)
    (_, pi1), (_, pic) = outcomes[2:]
    audit = None if "skipped" in pi1 else _fragment({**pi1, **pic})
    lines = tuple(
        (x["factor"], x["h1_torsor_group_module"], x["expected"]) for x in pic.get("factors", ())
    )
    return tuple((ok, _fragment(details)) for ok, details in outcomes), audit, lines


def _module_stage(sigs):
    """(3) Module structure: each distinct factor module is built and
    validated once, then absolute simplicity, the alternating restriction,
    and the wedge-square decomposition audit for the product.

    The product module is read only through its generator matrices: a
    product of homomorphisms is a homomorphism, so the product of the factor
    groups is never enumerated.  Returns (passed, details, the factor modules
    in factor order).
    """
    built = {}
    for d, kind, _ in sigs:
        if (d, kind) not in built:
            mod = standard_module(d, kind)
            validate_module(mod)
            built[d, kind] = mod, _factor_structure(mod, d, kind)
    modules = [built[d, kind][0] for d, kind, _ in sigs]
    details = [built[d, kind][1] for d, kind, _ in sigs]
    prod = product_factor_module(modules)
    prod = with_character(prod, [1] * len(prod.group.generators))
    wedge_total = wedge2_dual_invariants_dim(prod)
    cross = _cross_hom_dims(modules, prod.group)
    decomposition = {
        "wedge2_invariants_total": wedge_total,
        "expected_total": len(sigs),
        "cross_hom_dims": cross,
    }
    ok = wedge_total == len(sigs) and all(v == 0 for v in cross.values())
    details.append({"decomposition_audit": decomposition, "accepted": ok})
    return all(e["accepted"] for e in details), details, modules


def _factor_structure(mod, d, kind):
    """Stage 3's checks of S_d or A_d on its validated standard module; the
    spin-up of is_simple runs once per distinct module."""
    end_dim, simple = endomorphism_algebra_dim(mod), is_simple(mod)
    if kind == "A":
        alt_end, alt_simple = end_dim, simple
    else:
        alt = standard_module(d, "A")
        alt_end, alt_simple = endomorphism_algebra_dim(alt), is_simple(alt)
    abs_simple = simple and end_dim == 1
    fixed_dim = h0(mod)
    alt_abs = alt_simple and alt_end == 1 if d >= 5 else None
    alt_no_index2 = not has_index_l_normal_subgroup(alternating_group(d), 2)
    ok = abs_simple and fixed_dim == 0 and alt_simple and alt_no_index2
    return {
        "degree": d,
        "group": kind,
        "dim": mod.dim,
        "endomorphism_dim": end_dim,
        "absolutely_simple": abs_simple,
        "fixed_space_dim": fixed_dim,
        "alternating_restriction_simple": alt_simple,
        "alternating_restriction_absolutely_simple": alt_abs,
        "alternating_has_no_index_2_quotient": alt_no_index2,
        "accepted": ok and alt_abs if d >= 5 else ok,
    }


def _h1_stage(modules):
    """(4) H^1(G_i, V_i) = 0 per factor, from the harvest stage 3 cached."""
    details = [{"group": m.group.name, "dim": m.dim, "h1": h1_dim(m)} for m in modules]
    return all(e["h1"] == 0 for e in details), details


def _torsor_factor(mod, flag):
    """P_i = ``torsor_factor_group(V_i, flag)``'s order, stage 6 line less
    the index, H^1(P_i, Pi_1) on its 2^dim points, and whether it fixes 0.

    P_i's generators must be the translation by e_0 if the flag is set, then
    G_i's generators with their matrices, no translation and their action on
    G_i's points; and e_0 must spin up to V_i.  Then P_i = V_i x| G_i (or G_i),
    |P_i| = 2^dim |G_i|, and inflation-restriction gives H^1(P_i, V_i) =
    H^1(G_i, V_i) + End_{G_i}(V_i), as V_i acts trivially on V_i and G_i
    splits P_i, so the transgression vanishes (Brown, Cohomology of Groups,
    ch. VII).  The torsor cocycle restricts on V_i to the identity, and every
    coboundary to 0, so its class is nonzero."""
    p_i = torsor_factor_group(mod, flag)
    dim, n, g = mod.dim, 1 << mod.dim, mod.group
    e0 = [1] + [0] * (dim - 1)
    lifts = [(m, (0,) * dim, s) for m, s in zip(mod.generator_matrices, g.generators)]
    if flag:
        eye = tuple(tuple(int(r == c) for c in range(dim)) for r in range(dim))
        lifts.insert(0, (eye, tuple(e0), g.identity()))
    expected = [(m, v, tuple(n + y for y in images(s))) for m, v, s in lifts]
    found = [(*affine(x, p_i.blocks[0]), images(x)[n:]) for x in p_i.generators]
    if found != expected or not _spins_to_full(e0, mod.generator_matrices, dim, 2):
        raise ActionMismatch(f"the torsor group of {g.name} is not V x| G as declared")
    hv = h1_dim(mod) + (endomorphism_algebra_dim(mod) if flag else 0)
    line = {"torsor_nontrivial": flag, "h1_torsor_group_module": hv, "expected": int(flag)}
    line["h1_pic_factor_model"] = hv - int(flag)
    if flag:
        line["torsor_class_nonzero"] = True
    perms = point_permutations(p_i)
    fixes0 = all(perm[0] == 0 for perm in perms)
    return g.order() << (dim if flag else 0), line, h1_pi1_from_points(perms), fixes0


def _equivariant_stage(sigs, modules):
    """(5)+(6) Equivariant audit over the torsor Galois group P = prod P_i,
    P_i = ``torsor_factor_group(V_i, flag_i)``: H^1(P, Pi_1) and the assembled
    H^1 of the Picard model, for the factor signatures ``sigs`` and their
    modules in factor order, as two (passed, details) pairs.  P is never
    built: each fact of a factor is ``_torsor_factor``'s.

    P acts coordinate-wise on prod F_2^{dim V_i}, so Stab_P(x) = prod
    Stab_{P_i}(x_i) and Hom(P, Z/2) = + Hom(P_i, Z/2): a character vanishes on
    every point stabiliser iff each chi_i does on every Stab_{P_i}(x_i).  So
    H^1(P, Pi_1) sums H^1(P_i, Pi_1) over the factors, once per occurrence,
    and P fixes the point 0 iff every P_i fixes its own.  For P = P_i x P',
    inflation-restriction gives H^1(P, V_i) = H^1(P_i, V_i) + Hom(P',
    V_i^{P_i}) (Brown, Cohomology of Groups, ch. III); V_i^{P_i} = V_i^{G_i},
    which stage 3 finds 0, and with more than one factor a nonzero one raises.
    Inflation is injective on H^1, so the torsor class is read on P_i.

    Beyond EQUIVARIANT_G_CAP both checks fail closed unrun, and every
    conclusion stays withheld.  Below it the lattice model is built only to
    check that P acts on its ambient_dim points.
    """
    g = sum((d - 1) // 2 for d, _, _ in sigs)
    if g > EQUIVARIANT_G_CAP:
        skip = f"total dimension g = {g} beyond the lattice cap g <= {EQUIVARIANT_G_CAP}"
        return (False, {"skipped": skip}), (False, {"skipped": skip})
    torsors = {sig: _torsor_factor(mod, sig[2]) for sig, mod in dict(zip(sigs, modules)).items()}
    orders, lines, h1s, fixes0 = zip(*(torsors[sig] for sig in sigs))
    points, ambient = 1 << sum(mod.dim for mod in modules), build_nikulin_lattice(g).ambient_dim
    if points != ambient:
        raise ActionMismatch(f"P permutes {points} points, not {ambient}")
    # {e_x : x != 0} + {half the full sum} is P-stable iff P fixes the point 0
    h1_pi1, perm_basis = sum(h1s), all(fixes0)
    all_trivial = not any(flag for _, _, flag in sigs)
    pi1_ok = h1_pi1 == 0 and (perm_basis if all_trivial else True)
    pi1_details = {
        "group_order": math.prod(orders),
        "h1_pi1": h1_pi1,
        "pi1_permutation_basis": perm_basis,
        "all_torsors_trivial": all_trivial,
    }
    for i, mod in enumerate(modules):
        if len(modules) > 1 and h0(mod) != 0:
            raise EngineError(f"V_{i} has invariants: H^1(P, V_{i}) is not H^1(P_{i}, V_{i})")
    lines = [{"factor": i, **line} for i, line in enumerate(lines)]
    assembled = h1_pi1 + sum(line["h1_pic_factor_model"] for line in lines)
    pic_ok = pi1_ok and assembled == 0 and all(
        line["h1_torsor_group_module"] == line["expected"] and line["h1_pic_factor_model"] == 0
        for line in lines
    )
    pic_details = {"factors": lines, "h1_pic_model_assembled": assembled}
    return (pi1_ok, pi1_details), (pic_ok, pic_details)


@lru_cache(maxsize=MEMO_SIZE)
def _conclusions(g, n, failing):
    """The four conclusions as a Fragment, asserted only when no check
    failed, plus the cited odd-part note, once per (g, number of factors,
    failing checks) in a process."""
    asserted = not failing
    values = dict.fromkeys(_CONCLUSION_KEYS, True if asserted else None)
    if asserted:
        values["picard_rank"] = numerology(g, n)["picard_rank"]
    conclusions = {"asserted": asserted, "withheld_because": list(failing) or None}
    for key in _CONCLUSION_KEYS:
        conclusions[key] = {
            "value": values[key],
            "source": "COMPUTED" if asserted else "WITHHELD",
            "citation": CITATIONS[key],
        }
    conclusions["odd_part_unobstructed_note"] = {
        "value": CITATIONS["odd_part_unobstructed_note"],
        "source": "CITED(odd-order-unobstructed)",
        "citation": CITATIONS["odd_part_unobstructed_note"],
    }
    return _fragment(conclusions)


_CITATIONS = _fragment(sorted(set(CITATIONS.values())))


def _case_echo(case):
    factors = [
        {"poly": [str(c) for c in f.poly.coefficients], "torsor_nontrivial": f.torsor_nontrivial}
        for f in case.factors
    ]
    return {
        "factors": factors,
        "prime_bound": case.prime_bound,
        "mode": "certify",
        "g": case.g,
        "n": len(case.factors),
    }


def _cross_hom_dims(modules, prod_group):
    """Hom dims between distinct factors viewed as modules of the product:
    factor i acts by its own matrices, the other factors' generators fix it."""
    lifted = []
    for i, m in enumerate(modules):
        eye = tuple(tuple(int(a == b) for b in range(m.dim)) for a in range(m.dim))
        mats = []
        for j, other in enumerate(modules):
            mats += m.generator_matrices if j == i else [eye] * len(other.generator_matrices)
        lifted.append(GModule(prod_group, m.dim, m.l, tuple(mats)))
    n = len(modules)
    return {
        f"{i},{j}": hom_module_dim(lifted[i], lifted[j]) for i in range(n) for j in range(i + 1, n)
    }


# ---------------------------------------------------------------------------
# bundled audits


def audit_example_1_odd() -> dict:
    """Odd-prime slice of the first bundled case: Sp(4, F_l) hypotheses at l = 3,
    the desk-bounded slice.  The order and Hom(Sp, F_l) come from one
    stabiliser chain."""
    l = 3
    sp = symplectic_group(4, l)
    chain = stabiliser_chain(sp)
    taut = GModule(sp, 4, l, tuple(affine(s, sp.blocks[0])[0] for s in sp.generators))
    record = {
        "l": l,
        "sp4_order_enumerated": chain.order,
        "sp4_order_formula": group_order_formula("Sp", 4, l),
        "psp4_order_formula": group_order_formula("PSp", 4, l),
        "has_index_l_normal_subgroup": bool(chain.hom_basis(l)),
        "tautological_module_absolutely_simple": is_absolutely_simple(taut),
        "higher_power_note": "l^m layers for m > 1 follow from the m = 1 "
        "computation by the inductive lifting argument (CITED)",
        "larger_primes_note": "primes l > 3 are covered by the full mod-l "
        "image statement (CITED); only the l = 3 slice is recomputed here",
    }
    record["supports_hypotheses"] = (
        record["sp4_order_enumerated"] == record["sp4_order_formula"]
        and record["psp4_order_formula"] == 25920
        and record["has_index_l_normal_subgroup"] is False
        and record["tautological_module_absolutely_simple"] is True
    )
    return record


def audit_example_2_goursat() -> dict:
    """Common-quotient analysis for S_6 x GSp(4, F_3) plus the sextic disc class.

    With r = dim Hom(G, F_2) off G's stabiliser chain, G has 2^r - 1 index-2
    subgroups and the kernel K of all of them has order |G| / 2^r.  K lies in
    A_6 iff the sign character is in the span of Hom(S_6, F_2), and Sp(4, F_3)
    lies in K iff every homomorphism vanishes on Sp's generators."""
    s6 = stabiliser_chain(symmetric_group(6))
    h6 = s6.hom_basis(2)
    sign = [int(not is_even(s)) for s in symmetric_group(6).generators]
    kernel_even = fp.rank(h6 + [sign], 2) == len(h6)
    k6 = s6.order >> len(h6)

    gsp = stabiliser_chain(general_symplectic_group(4, 3))
    hg = gsp.hom_basis(2)
    words = [gsp.word(t) for t in symplectic_group(4, 3).generators]
    sp_inside = all(sum(a * b for a, b in zip(phi, w)) % 2 == 0 for phi in hg for w in words)

    sextic = IntPolynomial((5, -8, 4, 0, 4, -8, 4))
    cls = disc_class(discriminant(sextic))

    return {
        "s6": {
            "order": s6.order,
            "index2_normal_subgroup_count": 2 ** len(h6) - 1,
            "kernel_order": k6,
            "kernel_is_alternating": kernel_even and k6 == 360,
        },
        "gsp4_f3": {
            "order": gsp.order,
            "index2_normal_subgroup_count": 2 ** len(hg) - 1,
            "kernel_order": gsp.order >> len(hg),
            "kernel_contains_sp_and_square_scalars": sp_inside,
        },
        "sextic_disc_class": {
            "support": list(cls.squarefree_support),
            "sign": cls.sign,
        },
        "goursat_note": "a subgroup of the product surjecting onto both factors "
        "is the whole product or the graph of the unique common Z/2 quotient; "
        "either way it contains A_6 x Sp(4, F_3)",
    }


def audit_example_3_desk() -> dict:
    """Kummer threefold audit: S_7 / A_7 modules and the 2^6 x| S_7 torsor group."""
    m_s7 = standard_module(7, "S")
    m_a7 = standard_module(7, "A")
    rec = {
        "standard_s7_absolutely_simple": is_absolutely_simple(m_s7),
        "standard_a7_absolutely_simple": is_absolutely_simple(m_a7),
        "h1_s7_standard": h1_dim(m_s7),
        "h1_a7_standard": h1_dim(m_a7),
    }
    model = build_nikulin_lattice(3)
    p_group = torsor_factor_group(m_s7, True)
    eq = equivariant_lattice(model, p_group, [True])
    vmod = eq.factor_modules[0]
    rec["torsor_group_order"] = p_group.order()
    rec["h1_semidirect_standard"] = h1_dim(vmod)
    rec["torsor_class_nonzero"] = cocycle_class_is_nonzero(vmod, eq.tau_cocycles[0])
    rec["h1_pi1_two_torsion"] = eq.h1_pi1_two_torsion()
    rec["picard_prediction"] = numerology(3, 1)["picard_rank"]
    nums, den = canonical_class(3)
    rec["canonical_class_effective"] = any(nums) and canonical_class_in_pi1(3)
    rec["full_adelic_image_note"] = (
        "the full adelic symplectic image is cited, not recomputed; the F_2 "
        "slice above is the computed part"
    )
    return rec
