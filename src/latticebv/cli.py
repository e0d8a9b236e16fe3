"""Command line interface.

Subcommands:

    check       run named verification checks and emit a report
    nf          reduce an expression to its window normal form
    star        star-multiply two degree-0 expressions
    cohomology  truncated cohomology dimensions via the exact oracle
    parse       parse an expression and print its canonical form
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .checks import CheckConfig, CHECK_IDS, emit_report, run_suite, suite_exit_code
from .complexes import ModelParams
from .operad import Interval
from .oracle import TruncationSpec, cohomology_oracle
from .parser import ParseError, parse_cochain
from .reduction import Window, normal_form, verify_certificate
from .weyl import GEOMETRIES, StarAlgebra


def _fraction(text: str) -> Fraction:
    """A rational p/q; a zero denominator is a ValueError like any bad input."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _fraction_or_none(text: str) -> Fraction | None:
    """'sym' means the symbolic variable; anything else is a rational p/q."""
    if text == "sym":
        return None
    return _fraction(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticebv",
        description="Exact lattice field observables: reductions, star products, cohomology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run verification checks")
    group = check.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="run the full suite (default)")
    group.add_argument(
        "--id",
        action="append",
        dest="ids",
        metavar="NAME",
        help="run one named check (repeatable); see --list",
    )
    check.add_argument("--list", action="store_true", help="list known check ids and exit")
    check.add_argument("--alpha", default="sym", help="rational p/q or 'sym' (default)")
    check.add_argument("--hbar", default="sym", help="rational p/q or 'sym' (default)")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--format", choices=("json", "text"), default="text")

    nf = sub.add_parser("nf", help="window normal form with homotopy certificate")
    nf.add_argument("expr")
    nf.add_argument("--interval", default="-4,4", help="ambient interval a,b")
    nf.add_argument("--window", type=int, default=0, help="window base w (sites {w, w+1})")
    nf.add_argument("--alpha", default="sym")
    nf.add_argument("--hbar", default="sym")

    star = sub.add_parser("star", help="star product of two degree-0 expressions")
    star.add_argument("left")
    star.add_argument("right")
    star.add_argument("--geometry", choices=sorted(GEOMETRIES), default="default")
    star.add_argument("--alpha", default="sym")
    star.add_argument("--hbar", default="sym")

    cohomology = sub.add_parser("cohomology", help="truncated cohomology dimensions")
    cohomology.add_argument("--interval", required=True, help="interval a,b")
    cohomology.add_argument("--maxdeg", type=int, required=True)
    cohomology.add_argument("--hbar", default="1", help="rational p/q (default 1)")
    cohomology.add_argument("--alpha", default="1", help="rational p/q (default 1)")

    parse_cmd = sub.add_parser("parse", help="parse and canonically re-render")
    parse_cmd.add_argument("expr")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            if args.list:
                for check_id in CHECK_IDS:
                    print(check_id)
                return 0
            params = ModelParams.at(_fraction_or_none(args.hbar), _fraction_or_none(args.alpha))
            config = CheckConfig(seed=args.seed, params=params)
            results = run_suite(args.ids, config)
            print(emit_report(results, args.format), end="")
            return suite_exit_code(results)

        if args.command == "nf":
            params = ModelParams.at(_fraction_or_none(args.hbar), _fraction_or_none(args.alpha))
            cert = normal_form(
                parse_cochain(args.expr),
                Interval.parse(args.interval),
                Window(args.window),
                params,
            )
            payload = cert.as_dict()
            payload["verified"] = verify_certificate(cert, params)
            print(json.dumps(payload, indent=2))
            return 0 if payload["verified"] else 1

        if args.command == "star":
            params = ModelParams.at(_fraction_or_none(args.hbar), _fraction_or_none(args.alpha))
            algebra = StarAlgebra(params, args.geometry)
            x = algebra.class_of(parse_cochain(args.left))
            y = algebra.class_of(parse_cochain(args.right))
            print(str(algebra.star(x, y).canonical_form))
            return 0

        if args.command == "cohomology":
            spec = TruncationSpec(
                Interval.parse(args.interval),
                args.maxdeg,
                _fraction(args.hbar),
                _fraction(args.alpha),
            )
            dims = cohomology_oracle(spec)
            print(json.dumps({str(k): v for k, v in sorted(dims.items())}, indent=2))
            return 0

        if args.command == "parse":
            print(str(parse_cochain(args.expr)))
            return 0
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
