"""Command-line entry point.

    verify --input case.json --report out.json [--prime-bound N] [--force-fail CHECK]
    verify --audit example1|example2|example3 --report out.json

There is no --mode: a hypothesis passes only on an exact check.

Exit codes: 0 = all conclusions asserted (and --help), 2 = conclusions
withheld, 3 = a soundness check of the engine failed (GroupCheckFailed,
GaloisCheckFailed, LatticeCheckFailed: the engine met contradictory evidence
and asserts nothing), 1 = input error (including a command line argparse
rejects, and a --report path that cannot be written) or any other engine
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .errors import (
    EngineError,
    GaloisCheckFailed,
    GroupCheckFailed,
    InputError,
    LatticeCheckFailed,
)
from .pipeline import (
    HYPOTHESIS_CHECKS,
    audit_example_1_odd,
    audit_example_2_goursat,
    audit_example_3_desk,
    parse_case,
    report_json,
    run_case,
)


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line as an InputError (exit 1), not by
    argparse's own exit 2, which is the withheld-verdict code."""

    def error(self, message):
        raise InputError(message)


@lru_cache(maxsize=None)
def build_parser():
    """The command-line parser, built on first use and then reused: parsing
    leaves it unchanged, so one parser serves every call of ``main``."""
    p = _Parser(
        prog="verify",
        description="Verify Picard/Brauer hypotheses and conclusions for Kummer "
        "varieties attached to 2-coverings of products of hyperelliptic Jacobians.",
    )
    p.add_argument("--input", help="case file (JSON)")
    p.add_argument("--report", help="write the report JSON here (default: stdout)")
    p.add_argument("--prime-bound", type=int, default=None, help="override the case prime bound")
    p.add_argument(
        "--audit",
        choices=["example1", "example2", "example3"],
        help="run a bundled audit instead of a case",
    )
    p.add_argument(
        "--force-fail",
        choices=list(HYPOTHESIS_CHECKS),
        help="flip one hypothesis check to failed (fault-injection testing)",
    )
    return p


def _emit(payload: str, path):
    if not path:
        sys.stdout.write(payload)
        return
    try:
        with open(path, "w") as fh:
            fh.write(payload)
    except OSError as exc:
        raise InputError(f"cannot write report {path}: {exc.strerror or exc}") from exc


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.audit:
            case_flags = ("input", "prime_bound", "force_fail")
            given = [f"--{k.replace('_', '-')}" for k in case_flags if getattr(args, k) is not None]
            if given:
                raise InputError(f"--audit takes no case options, got {', '.join(given)}")
            record = {
                "example1": lambda: audit_example_1_odd(3),
                "example2": audit_example_2_goursat,
                "example3": audit_example_3_desk,
            }[args.audit]()
            _emit(report_json({"audit": args.audit, "record": record}), args.report)
            return 0
        if not args.input:
            raise InputError("--input is required unless --audit is given")
        try:
            with open(args.input, encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read case file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"case file is not valid JSON: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            # bytes that are not UTF-8, an integer past Python's digit limit,
            # or nesting deeper than the decoder's recursion
            raise InputError(f"case file cannot be decoded: {exc}") from exc
        if isinstance(obj, dict) and args.prime_bound is not None:
            obj["prime_bound"] = args.prime_bound  # parse_case refuses a non-object
        case = parse_case(obj)
        report = run_case(case, force_fail=args.force_fail)
        _emit(report.to_json(), args.report)
        return 0 if report.asserted else 2
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (GroupCheckFailed, GaloisCheckFailed, LatticeCheckFailed)) else 1


if __name__ == "__main__":
    sys.exit(main())
