"""The ``python -m repro.lint`` command line.

Exit codes: 0 = clean (or every finding suppressed),
1 = new findings, 2 = usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .runner import LintResult, lint_paths
from .rules import all_rules, get_rule


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="PaxLint: determinism & contract static analysis "
                    "for the ParallAX engine.")
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src/repro if it "
             "exists, else the repro package this tool lives in)")
    parser.add_argument(
        "--select", action="append", default=None, metavar="CODES",
        help="comma-separated rule codes or prefixes (e.g. "
             "'PAX1' for the determinism family, 'PAX201')")
    parser.add_argument(
        "--explain", metavar="CODE",
        help="print the rationale for a rule (or 'all') and exit")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)")
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="also list inline-suppressed findings (text format)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.explain:
        return _explain(args.explain)

    paths = args.paths or _default_paths()
    if not paths:
        print("paxlint: no paths given and no src/repro found",
              file=sys.stderr)
        return 2

    selectors = None
    if args.select:
        selectors = [c for chunk in args.select
                     for c in chunk.split(",") if c.strip()]

    try:
        result = lint_paths(paths, select=selectors)
    except (FileNotFoundError, KeyError, SyntaxError) as exc:
        print(f"paxlint: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(_to_json(result), indent=2, sort_keys=True))
    else:
        _print_text(result, show_suppressed=args.show_suppressed)
    return result.exit_code


def _default_paths() -> List[str]:
    if os.path.isdir(os.path.join("src", "repro")):
        return [os.path.join("src", "repro")]
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [here] if os.path.isdir(here) else []


def _explain(code: str) -> int:
    if code.lower() == "all":
        for rule in all_rules():
            print(f"{rule.code} [{rule.name}] ({rule.kind})")
            print(_indent(rule.rationale))
            print()
        return 0
    try:
        rule = get_rule(code.upper())
    except KeyError as exc:
        print(f"paxlint: {exc}", file=sys.stderr)
        return 2
    print(f"{rule.code} [{rule.name}] ({rule.kind})")
    print(_indent(rule.rationale))
    return 0


def _indent(text: str) -> str:
    return "\n".join(f"  {line}" for line in text.splitlines())


def _print_text(result: LintResult, show_suppressed: bool) -> None:
    for finding in result.active:
        print(finding.render())
    if show_suppressed:
        for finding in result.suppressed:
            print(f"{finding.render()}  [suppressed: "
                  f"{finding.suppress_reason}]")
    active = len(result.active)
    print(f"paxlint: {result.files} file(s), "
          f"{len(result.rules)} rule(s): "
          f"{active} new finding(s), "
          f"{len(result.suppressed)} suppressed")


def _to_json(result: LintResult) -> dict:
    return {
        "schema": "paxlint-report/1",
        "files": result.files,
        "rules": [r.code for r in result.rules],
        "findings": [f.to_dict() for f in result.findings],
        "counts": {
            "new": len(result.active),
            "suppressed": len(result.suppressed),
            "by_rule": result.counts_by_rule(),
        },
    }
