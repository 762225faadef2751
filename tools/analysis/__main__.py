"""``python -m tools.analysis`` — run the project-invariant linter.

Exit status is the contract CI gates on: ``0`` when every finding is
suppressed (or there are none), ``1`` when unsuppressed findings
remain, ``2`` on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from tools.analysis.reprolint import (
    RULES,
    render_json,
    render_text,
    run_lint,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.analysis",
        description="Project-invariant linter (rules REP001-REP007).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="REP00X[,REP00Y]",
        help="run only these rule codes",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include suppressed findings in the text report",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "--pickle-check",
        action="store_true",
        help="also round-trip every registered cross-process payload type",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.code}  {rule.summary}")
        return 0

    select = None
    if args.select:
        select = [code.strip().upper() for code in args.select.split(",") if code.strip()]
        known = {rule.code for rule in RULES}
        unknown = sorted(set(select) - known)
        if unknown:
            print(f"unknown rule code(s): {', '.join(unknown)}", file=sys.stderr)
            return 2

    findings = run_lint(args.paths, select=select)
    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings, show_suppressed=args.show_suppressed))

    status = 1 if any(not f.suppressed for f in findings) else 0

    if args.pickle_check:
        from tools.analysis.pickle_check import PickleCheckError, check_payloads

        try:
            verified = check_payloads()
        except PickleCheckError as error:
            print(f"pickle-check FAILED: {error}", file=sys.stderr)
            return 1
        if args.format == "text":
            print(f"pickle-check: {len(verified)} payload types verified")

    return status


if __name__ == "__main__":
    sys.exit(main())
