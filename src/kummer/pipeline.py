"""End-to-end verdict pipeline: Galois certification, disjointness, module
and cohomology hypotheses, the equivariant lattice audit, and the final
conclusions with COMPUTED / CITED provenance tags.

Conclusions are asserted only when every hypothesis check passes; a single
failure (genuine or fault-injected) withholds all of them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .cohomology import cocycle_class_is_nonzero, h1_dim, validate_module
from .disjoint import certify_family_disjoint, disc_class, frobenius_joint_statistics
from .errors import EngineError, FactorBudgetExceeded, GroupCheckFailed, InputError
from .galois import IntPolynomial, certify_galois
from .groups import (
    affine,
    alternating_group,
    direct_product,
    elementary_l_quotient_kernel,
    general_symplectic_group,
    group_order_formula,
    has_index_l_normal_subgroup,
    is_even,
    symmetric_group,
    symplectic_group,
)
from .picard import (
    build_nikulin_lattice,
    canonical_class,
    canonical_class_in_pi1,
    equivariant_lattice,
    numerology,
    torsor_factor_group,
)
from .reps import (
    GModule,
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


@dataclass(frozen=True)
class FactorInput:
    poly: IntPolynomial
    torsor_nontrivial: bool


@dataclass(frozen=True)
class CaseInput:
    factors: tuple
    prime_bound: int = 1000
    mode: str = "certify"

    def __post_init__(self):
        if not self.factors:
            raise InputError("at least one factor is required")
        if self.mode not in ("certify", "heuristic"):
            raise InputError(f"unknown mode {self.mode!r}")
        g = 0
        for f in self.factors:
            d = f.poly.degree
            if d % 2 == 0 or d < 3:
                raise InputError(f"factor degrees must be odd and >= 3, got {d}")
            g += (d - 1) // 2
        if g < 2:
            raise InputError("total abelian dimension g must be at least 2")

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
    decimal strings, b is a JSON bool, 2 <= N <= PRIME_BOUND_MAX, and no other
    keys are accepted."""
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
        poly = IntPolynomial(tuple(_coefficient(c) for c in coeffs))
        flag = rf.get("torsor_nontrivial", False)
        if not isinstance(flag, bool):
            raise InputError(f'"torsor_nontrivial" must be true or false, got {flag!r}')
        factors.append(FactorInput(poly, flag))
    prime_bound = obj.get("prime_bound", 1000)
    if (
        not isinstance(prime_bound, int)
        or isinstance(prime_bound, bool)
        or not 2 <= prime_bound <= PRIME_BOUND_MAX
    ):
        raise InputError(f'"prime_bound" must be an integer in [2, {PRIME_BOUND_MAX}]')
    mode = obj.get("mode", "certify")
    return CaseInput(tuple(factors), prime_bound, mode)


@dataclass
class VerdictReport:
    case: dict
    hypotheses: list
    equivariant_audit: dict | None
    conclusions: dict
    citations: list

    def to_dict(self):
        return {
            "case": self.case,
            "hypotheses": self.hypotheses,
            "equivariant_audit": self.equivariant_audit,
            "conclusions": self.conclusions,
            "citations": self.citations,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @property
    def asserted(self):
        return self.conclusions.get("asserted", False)


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
    hypotheses = []
    n = len(case.factors)
    g = case.g

    # (1) Galois certification: S_d or A_d, and S_3 only at degree 3
    certs = []
    galois_details = []
    galois_ok = True
    for f in case.factors:
        cert = certify_galois(f.poly, case.prime_bound)
        certs.append(cert)
        ok = cert.verdict in ("SymmetricGroup", "AlternatingGroup")
        if cert.degree == 3 and cert.verdict == "AlternatingGroup":
            ok = False
        galois_ok = galois_ok and ok
        galois_details.append(
            {
                "poly": [str(c) for c in f.poly.coefficients],
                "degree": cert.degree,
                "verdict": cert.verdict,
                "discriminant": str(cert.discriminant),
                "disc_square": cert.disc_square,
                "witnesses": [[p, list(t), role] for p, t, role in cert.witnesses],
                "accepted": ok,
            }
        )
    hypotheses.append(
        _check("galois_certification", galois_ok, galois_details, force_fail)
    )

    # (2) linear disjointness of the splitting fields
    disjoint_details = {}
    disjoint_ok = False
    classes = None
    if galois_ok:
        try:
            classes = [disc_class(f.poly) for f in case.factors]
            out = certify_family_disjoint(certs, classes)
            disjoint_details = {
                "verdict": out.verdict,
                "reason": out.reason,
                "classes": [
                    {"support": list(c.squarefree_support), "sign": c.sign}
                    for c in classes
                ],
            }
            disjoint_ok = out.verdict == "Certified" or (
                case.mode == "heuristic" and out.verdict == "HeuristicOnly"
            )
            if out.verdict == "HeuristicOnly" and case.mode == "heuristic" and n >= 2:
                scores = {}
                for i in range(n):
                    for j in range(i + 1, n):
                        scores[f"{i},{j}"] = frobenius_joint_statistics(
                            case.factors[i].poly, case.factors[j].poly, case.prime_bound
                        )
                disjoint_details["frobenius_scores"] = scores
        except FactorBudgetExceeded as exc:
            disjoint_details = {"verdict": "HeuristicOnly", "reason": str(exc)}
            disjoint_ok = case.mode == "heuristic"
    else:
        disjoint_details = {"skipped": "galois certification failed"}
    hypotheses.append(
        _check("linear_disjointness", disjoint_ok, disjoint_details, force_fail)
    )

    # (3) module structure: absolute simplicity, alternating restriction,
    #     and the wedge-square decomposition audit for the product
    modules = []
    structure_ok = galois_ok
    structure_details = []
    if galois_ok:
        for f, cert in zip(case.factors, certs):
            kind = "S" if cert.verdict == "SymmetricGroup" else "A"
            d = cert.degree
            mod = standard_module(d, kind)
            alt = standard_module(d, "A")
            end_dim = endomorphism_algebra_dim(mod)
            abs_simple = is_simple(mod) and end_dim == 1
            fixed_dim = h0(mod)
            alt_simple = is_simple(alt)
            alt_abs = is_absolutely_simple(alt) if d >= 5 else None
            alt_no_index2 = not has_index_l_normal_subgroup(alternating_group(d), 2)
            entry = {
                "degree": d,
                "group": kind,
                "dim": mod.dim,
                "endomorphism_dim": end_dim,
                "absolutely_simple": abs_simple,
                "fixed_space_dim": fixed_dim,
                "alternating_restriction_simple": alt_simple,
                "alternating_restriction_absolutely_simple": alt_abs,
                "alternating_has_no_index_2_quotient": alt_no_index2,
            }
            ok = abs_simple and fixed_dim == 0 and alt_simple and alt_no_index2
            if d >= 5:
                ok = ok and alt_abs
            entry["accepted"] = ok
            structure_ok = structure_ok and ok
            structure_details.append(entry)
            modules.append(mod)
        prod = product_factor_module(modules)
        prod = with_character(prod, [1] * len(prod.group.generators))
        validate_module(prod)
        wedge_total = wedge2_dual_invariants_dim(prod)
        cross = _cross_hom_dims(modules, prod.group)
        decomposition = {
            "wedge2_invariants_total": wedge_total,
            "expected_total": n,
            "cross_hom_dims": cross,
        }
        ok = wedge_total == n and all(v == 0 for v in cross.values())
        structure_ok = structure_ok and ok
        structure_details.append({"decomposition_audit": decomposition, "accepted": ok})
    else:
        structure_details = [{"skipped": "galois certification failed"}]
        structure_ok = False
    hypotheses.append(
        _check("module_structure", structure_ok, structure_details, force_fail)
    )

    # (4) H^1(G_i, V_i) = 0 per factor
    h1_ok = galois_ok
    h1_details = []
    if galois_ok:
        for mod in modules:
            val = h1_dim(mod)
            h1_details.append({"group": mod.group.name, "dim": mod.dim, "h1": val})
            h1_ok = h1_ok and val == 0
    else:
        h1_details = [{"skipped": "galois certification failed"}]
        h1_ok = False
    hypotheses.append(_check("h1_vanishing", h1_ok, h1_details, force_fail))

    # (5)+(6) equivariant audit over the torsor Galois group
    audit = None
    pi1_ok = False
    pic_ok = False
    pi1_details = {}
    pic_details = {}
    if galois_ok and g > 3:
        # the lattice model is desk-bounded; the audit cannot be run, so the
        # checks fail closed and every conclusion stays withheld
        skip = {"skipped": f"total dimension g = {g} beyond the lattice cap g <= 3"}
        pi1_details = dict(skip)
        pic_details = dict(skip)
    elif galois_ok:
        model = build_nikulin_lattice(g)
        factor_groups = [
            torsor_factor_group(mod, f.torsor_nontrivial)
            for mod, f in zip(modules, case.factors)
        ]
        p_group = direct_product(*factor_groups)
        flags = [f.torsor_nontrivial for f in case.factors]
        eq = equivariant_lattice(model, p_group, flags)
        h1_pi1 = eq.h1_pi1_two_torsion()
        perm_basis = eq.permutation_basis_exists()
        all_trivial = not any(flags)
        pi1_ok = h1_pi1 == 0 and (perm_basis if all_trivial else True)
        pi1_details = {
            "group_order": p_group.order(),
            "h1_pi1": h1_pi1,
            "pi1_permutation_basis": perm_basis,
            "all_torsors_trivial": all_trivial,
        }

        upstream_ok = galois_ok and disjoint_ok and structure_ok and h1_ok
        factor_lines = []
        pic_ok = pi1_ok
        assembled = h1_pi1
        for i, (mod, f) in enumerate(zip(modules, case.factors)):
            vmod = eq.factor_modules[i]
            hv = h1_dim(vmod)
            expected = 1 if f.torsor_nontrivial else 0
            if hv != expected and upstream_ok and force_fail is None:
                raise EngineError(
                    f"H^1(P, V_{i}) = {hv} but the hypothesis chain predicts "
                    f"{expected}; refusing to reconcile silently"
                )
            line = {
                "factor": i,
                "torsor_nontrivial": f.torsor_nontrivial,
                "h1_torsor_group_module": hv,
                "expected": expected,
            }
            pic_factor = hv
            if f.torsor_nontrivial:
                tau_nonzero = cocycle_class_is_nonzero(vmod, eq.tau_cocycles[i])
                line["torsor_class_nonzero"] = tau_nonzero
                pic_factor = hv - (1 if tau_nonzero else 0)
            line["h1_pic_factor_model"] = pic_factor
            assembled += pic_factor
            pic_ok = pic_ok and hv == expected and pic_factor == 0
            factor_lines.append(line)
        pic_details = {
            "factors": factor_lines,
            "h1_pic_model_assembled": assembled,
        }
        pic_ok = pic_ok and assembled == 0
        audit = {**pi1_details, **pic_details}
    else:
        pi1_details = {"skipped": "galois certification failed"}
        pic_details = {"skipped": "galois certification failed"}
    hypotheses.append(_check("pi1_cohomology", pi1_ok, pi1_details, force_fail))
    hypotheses.append(_check("pic_model_cohomology", pic_ok, pic_details, force_fail))

    # conclusions
    all_ok = all(h["passed"] for h in hypotheses)
    failing = [h["name"] for h in hypotheses if not h["passed"]]
    conclusions = {"asserted": all_ok, "withheld_because": failing or None}
    if all_ok:
        num = numerology(g, n)
        conclusions["picard_rank"] = {
            "value": num["picard_rank"],
            "source": "COMPUTED",
            "citation": CITATIONS["picard_rank"],
        }
        conclusions["br2_algebraic"] = {
            "value": True,
            "source": "COMPUTED",
            "citation": CITATIONS["br2_algebraic"],
        }
        conclusions["br1_equals_br0"] = {
            "value": True,
            "source": "COMPUTED",
            "citation": CITATIONS["br1_equals_br0"],
        }
        conclusions["br_bar_2_invariants_zero"] = {
            "value": True,
            "source": "COMPUTED",
            "citation": CITATIONS["br_bar_2_invariants_zero"],
        }
    else:
        for key in (
            "picard_rank",
            "br2_algebraic",
            "br1_equals_br0",
            "br_bar_2_invariants_zero",
        ):
            conclusions[key] = {"value": None, "source": "WITHHELD", "citation": CITATIONS[key]}
    conclusions["odd_part_unobstructed_note"] = {
        "value": CITATIONS["odd_part_unobstructed_note"],
        "source": "CITED(odd-order-unobstructed)",
        "citation": CITATIONS["odd_part_unobstructed_note"],
    }

    case_echo = {
        "factors": [
            {
                "poly": [str(c) for c in f.poly.coefficients],
                "torsor_nontrivial": f.torsor_nontrivial,
            }
            for f in case.factors
        ],
        "prime_bound": case.prime_bound,
        "mode": case.mode,
        "g": g,
        "n": n,
    }
    return VerdictReport(
        case=case_echo,
        hypotheses=hypotheses,
        equivariant_audit=audit,
        conclusions=conclusions,
        citations=sorted(set(CITATIONS.values())),
    )


def _cross_hom_dims(modules, prod_group):
    """Hom dims between distinct factors viewed as modules of the product."""
    out = {}
    n = len(modules)
    offsets_k = []
    k = 0
    for m in modules:
        offsets_k.append(k)
        k += len(m.group.generators)
    total_gens = k

    def lifted(i):
        m = modules[i]
        eye = tuple(tuple(1 if a == b else 0 for b in range(m.dim)) for a in range(m.dim))
        mats = []
        for j in range(total_gens):
            lo = offsets_k[i]
            hi = lo + len(m.group.generators)
            mats.append(m.generator_matrices[j - lo] if lo <= j < hi else eye)
        return GModule(prod_group, m.dim, m.l, tuple(mats))

    for i in range(n):
        for j in range(i + 1, n):
            out[f"{i},{j}"] = hom_module_dim(lifted(i), lifted(j))
    return out


# ---------------------------------------------------------------------------
# bundled audits


def audit_example_1_odd(l: int) -> dict:
    """Odd-prime slice of the first bundled case: Sp(4, F_l) hypotheses at l = 3."""
    if l != 3:
        raise InputError("the odd audit is desk-bounded to l = 3")
    sp = symplectic_group(4, l)
    sp.enumerate()
    order = sp.order()
    taut = GModule(sp, 4, l, tuple(affine(s, sp.blocks[0])[0] for s in sp.generators))
    record = {
        "l": l,
        "sp4_order_enumerated": order,
        "sp4_order_formula": group_order_formula("Sp", 4, l),
        "psp4_order_formula": group_order_formula("PSp", 4, l),
        "has_index_l_normal_subgroup": has_index_l_normal_subgroup(sp, l),
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
    """Common-quotient analysis for S_6 x GSp(4, F_3) plus the sextic disc class."""
    from .disjoint import disc_class as _dc

    s6 = symmetric_group(6)
    s6.enumerate()
    k6 = elementary_l_quotient_kernel(s6, 2)
    count_s6 = 2 ** _two_rank(s6.order(), len(k6)) - 1
    kernel_even = all(is_even(e) for e in k6)

    gsp = general_symplectic_group(4, 3)
    gsp.enumerate()
    kg = elementary_l_quotient_kernel(gsp, 2)
    count_gsp = 2 ** _two_rank(gsp.order(), len(kg)) - 1
    sp = symplectic_group(4, 3)
    sp_inside = all(t in kg for t in sp.generators)

    sextic = IntPolynomial((5, -8, 4, 0, 4, -8, 4))
    cls = _dc(sextic)

    return {
        "s6": {
            "order": s6.order(),
            "index2_normal_subgroup_count": count_s6,
            "kernel_order": len(k6),
            "kernel_is_alternating": kernel_even and len(k6) == 360,
        },
        "gsp4_f3": {
            "order": gsp.order(),
            "index2_normal_subgroup_count": count_gsp,
            "kernel_order": len(kg),
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


def _two_rank(order, kernel_order):
    """r with order / kernel_order = 2^r; any other index fails closed."""
    idx, rem = divmod(order, kernel_order)
    if rem or idx < 1 or idx & (idx - 1):
        raise GroupCheckFailed(f"index {order}/{kernel_order} is not a power of 2")
    return idx.bit_length() - 1


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
    p = torsor_factor_group(m_s7, True)
    p_group = direct_product(p)
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
