"""Orchestration: files -> rules -> suppressions -> result."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .findings import Finding
from .rules import Rule, all_codes, all_rules, select_rules
from .sources import SourceFile, collect_files, load_source
from .suppressions import apply_suppressions, parse_suppressions


class LintResult:
    """Everything one lint run produced."""

    def __init__(self, findings: List[Finding], files: int,
                 rules: List[Rule]):
        #: every finding, including suppressed ones
        self.findings = sorted(findings, key=Finding.sort_key)
        self.files = files
        self.rules = rules

    @property
    def active(self) -> List[Finding]:
        """Findings not suppressed inline."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    def counts_by_rule(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.findings:
            out[finding.rule] = out.get(finding.rule, 0) + 1
        return out

    @property
    def exit_code(self) -> int:
        return 1 if self.active else 0


def lint_paths(paths: Sequence[str],
               select: Optional[Sequence[str]] = None) -> LintResult:
    """Lint ``paths`` (files and/or directories) and return the result.

    ``select`` holds ``--select`` patterns (exact codes or prefixes
    like ``PAX1``).
    """
    rules = select_rules(select) if select else all_rules()
    files = [load_source(path) for path in collect_files(list(paths))]
    findings = run_rules(rules, files)
    return LintResult(findings, len(files), rules)


def run_rules(rules: List[Rule],
              files: List[SourceFile]) -> List[Finding]:
    """Run rules over parsed files and apply inline suppressions."""
    codes = all_codes()
    selected = {rule.code for rule in rules}
    findings: List[Finding] = []
    suppression_maps = {}
    for src in files:
        by_line, problems = parse_suppressions(src, codes)
        suppression_maps[src.path] = by_line
        if "PAX001" in selected:
            findings.extend(problems)
        for rule in rules:
            if rule.kind == "file":
                findings.extend(rule.check(src))
    for rule in rules:
        if rule.kind == "project":
            findings.extend(rule.check(files))
    by_path: Dict[str, List[Finding]] = {}
    for finding in findings:
        by_path.setdefault(finding.path, []).append(finding)
    for path, group in by_path.items():
        sup = suppression_maps.get(path)
        if sup:
            apply_suppressions(group, sup)
    return findings
