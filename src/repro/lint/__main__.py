"""The ``python -m repro.lint [PATH ...] [--explain CODE|all]`` command.

Exit codes: 0 = clean (or every finding suppressed),
1 = new findings, 2 = usage or input error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import RULES, Rule, lint_paths


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="PaxLint: determinism & contract static analysis "
                    "for the ParallAX engine.")
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src/repro if it "
             "exists, else the repro package this tool lives in)")
    parser.add_argument(
        "--explain", metavar="CODE",
        help="print the rationale for a rule (or 'all') and exit")
    args = parser.parse_args(argv)

    if args.explain:
        return _explain(args.explain)

    paths = args.paths or _default_paths()
    if not paths:
        print("paxlint: no paths given and no src/repro found",
              file=sys.stderr)
        return 2

    try:
        result = lint_paths(paths)
    except (FileNotFoundError, SyntaxError) as exc:
        print(f"paxlint: {exc}", file=sys.stderr)
        return 2

    active = [f for f in result.findings if not f.suppressed]
    for finding in active:
        print(finding.render())
    print(f"paxlint: {result.files} file(s), "
          f"{len(RULES)} rule(s): "
          f"{len(active)} new finding(s), "
          f"{len(result.findings) - len(active)} suppressed")
    return 1 if active else 0


def _default_paths() -> List[str]:
    if os.path.isdir(os.path.join("src", "repro")):
        return [os.path.join("src", "repro")]
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [here] if os.path.isdir(here) else []


def _explain(code: str) -> int:
    if code.lower() == "all":
        for rule in RULES:
            _print_rule(rule)
            print()
        return 0
    for rule in RULES:
        if rule.code == code.upper():
            _print_rule(rule)
            return 0
    print(f"paxlint: unknown rule {code.upper()!r}; known: "
          f"{', '.join(rule.code for rule in RULES)}", file=sys.stderr)
    return 2


def _print_rule(rule: Rule) -> None:
    print(f"{rule.code} [{rule.name}]")
    print("\n".join(f"  {line}" for line in rule.rationale.splitlines()))


if __name__ == "__main__":
    sys.exit(main())
