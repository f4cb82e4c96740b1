"""Command-line interface: tally an election or run the property suites.

Exit codes: 0 success, 2 input could not be parsed, 3 the turnout program
was infeasible, 4 the candidate order was not admissible, 5 a verification
suite reported failures, 6 the floating-point step failed: the turnout solver
hit its iteration cap, or the projected intervals or scores broke a law.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .ballots import InterpretationRules, Listed, Unlisted, read_ballot_file, read_fraction
from .closures import Variant
from .errors import (
    BallotError,
    Infeasible,
    LawViolation,
    LlullError,
    MatrixFormatError,
    MaxIterations,
    NotAdmissible,
)
from .pipeline import RunConfig, parse_variant, run
from .rates import RateFormula

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_NOT_ADMISSIBLE = 4
EXIT_VERIFY = 5
EXIT_NUMERICAL = 6

# The keys of ``verify.SUITES``, which is imported only by ``llull verify``.
SUITES = (
    "single-choice", "order-independence", "idempotence", "condorcet-smith",
    "clone-consistency", "monotonicity", "decomposition", "approval-agreement",
    "continuity", "duplication-renaming", "paths", "qp-agreement",
)

# The exit status and message prefix of each error a tally ends in, the
# first class that matches deciding; "{input}" is the input file's path.
RUN_ERRORS = (
    ((BallotError, MatrixFormatError), EXIT_PARSE, "{input}: "),
    (Infeasible, EXIT_INFEASIBLE, ""),
    (NotAdmissible, EXIT_NOT_ADMISSIBLE, ""),
    (MaxIterations, EXIT_NUMERICAL, "turnout program failed to converge: "),
    (LawViolation, EXIT_NUMERICAL, "projection check failed: "),
    (LlullError, EXIT_PARSE, ""),
)


def nonnegative_int(text: str) -> int:
    """An argparse type; argparse names it in the error for a bad value."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llull",
        description="Continuous rating of preferential votes with incomplete ballots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="tally a ballot file or a score matrix")
    runp.add_argument("input", help="ballot file, or matrix CSV with --matrix")
    runp.add_argument(
        "--variant",
        default="main",
        choices=[v.value for v in Variant],
    )
    runp.add_argument(
        "--listed-vs-unlisted",
        default="preferred",
        choices=[v.value for v in Listed],
        help="how a listed/unlisted pair counts",
    )
    runp.add_argument(
        "--unlisted-pair",
        default="noinfo",
        choices=[v.value for v in Unlisted],
        help="how a pair absent from a ballot counts",
    )
    runp.add_argument(
        "--total-voters",
        default=None,
        help="voter denominator; defaults to the sum of ballot weights",
    )
    runp.add_argument("--formula", default="main", choices=[v.value for v in RateFormula])
    runp.add_argument("--json", action="store_true", help="emit JSON instead of text")
    runp.add_argument(
        "--intermediates",
        action="store_true",
        help="include every intermediate matrix in the (JSON) report",
    )
    runp.add_argument(
        "--matrix",
        action="store_true",
        help="input is a pairwise score matrix, not ballots",
    )

    verp = sub.add_parser("verify", help="run the property suites")
    verp.add_argument(
        "--suite", default="all", choices=["all", *SUITES]
    )
    verp.add_argument("--cases", type=nonnegative_int, default=100)
    verp.add_argument("--seed", type=int, default=0)
    verp.add_argument(
        "--input",
        default=None,
        help="optional ballot file checked as an extra fixture case",
    )
    return parser


def _cmd_run(args) -> int:
    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        total_voters = None if args.total_voters is None else read_fraction(args.total_voters)
    except ValueError:
        print(f"error: cannot read the voter total {args.total_voters!r}", file=sys.stderr)
        return EXIT_PARSE
    config = RunConfig(
        variant=parse_variant(args.variant),
        rules=InterpretationRules(Listed(args.listed_vs_unlisted), Unlisted(args.unlisted_pair)),
        total_voters=total_voters,
        formula=RateFormula(args.formula),
        json_output=args.json,
        intermediates=args.intermediates,
        matrix_input=args.matrix,
    )
    try:
        sys.stdout.write(run(text, config))
    except LlullError as exc:
        status, prefix = next(row[1:] for row in RUN_ERRORS if isinstance(exc, row[0]))
        print(f"error: {prefix.format(input=args.input)}{exc}", file=sys.stderr)
        return status
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_all, run_suite

    fixture = None
    if args.input is not None:
        try:
            candidates, table = read_ballot_file(Path(args.input).read_text(encoding="utf-8"))
            fixture = (candidates, table.ballots())
        except (OSError, UnicodeDecodeError, BallotError) as exc:
            print(f"error: {args.input}: {exc}", file=sys.stderr)
            return EXIT_PARSE
    if args.suite == "all":
        reports = run_all(args.cases, args.seed, fixture)
    else:
        reports = [run_suite(args.suite, args.cases, args.seed, fixture)]

    failed = False
    for report in reports:
        if not report.outcomes:
            print(f"{report.suite}: skipped, does not apply to the file")
            continue
        n_failed = len(report.failures)
        status = "ok" if report.passed else f"{n_failed} FAILED"
        print(f"{report.suite}: {len(report.outcomes)} cases, {status}")
        for outcome in report.outcomes:
            if outcome.passed and outcome.detail:
                print(f"  note case {outcome.case}: {outcome.detail}")
        for outcome in report.failures:
            failed = True
            print(f"  case {outcome.case}: {outcome.detail}")
            if outcome.replay:
                print("  replay:")
                for line in outcome.replay.rstrip().splitlines():
                    print(f"    {line}")
    return EXIT_VERIFY if failed else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.cases == 0 and args.input is None:
        parser.error("argument --cases: 0 runs no case without --input")
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
