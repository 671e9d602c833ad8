"""Parsed source files, the findings rules emit, and inline suppressions.

A :class:`SourceFile` bundles everything a rule needs about one module:
its AST, raw lines, comments (via :mod:`tokenize`, so strings that
merely *contain* ``#`` don't confuse suppression parsing), and its
dotted module name under the ``repro`` package root, which decides
whether it belongs to the simulation core the PAX1xx determinism rules
police.

Inline suppressions read ``# pax: ignore[PAXNNN]: reason``.  One
silences one or more rule codes on the line it occupies, or — when it
is a standalone comment line — on the next code line (hand-wrapped
79-column code can't always fit a justification at the end of the
offending statement).  The reason string is **mandatory and
non-empty**: an unexcused suppression is itself a finding (PAX001), so
every exception to the determinism rules carries its rationale in the
diff forever.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from typing import Collection, Dict, List, NamedTuple, Optional, Tuple

#: Packages whose code runs inside (or mutates state read by) the
#: deterministic step path.  The PAX1xx rules apply only here; analysis
#: / profiling / workload-builder code may freely use clocks and RNGs.
SIM_PACKAGES = (
    "collision",
    "dynamics",
    "engine",
    "cloth",
    "fastpath",
    "resilience",
    "serve",
)


class Finding:
    """One rule violation, anchored to a file and line.

    ``line`` is where a ``# pax: ignore[...]`` suppression must sit
    (same line or the standalone comment line directly above).
    """

    __slots__ = ("rule", "path", "line", "message", "suppressed",
                 "suppress_reason")

    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message
        self.suppressed = False
        self.suppress_reason: Optional[str] = None

    @property
    def rel_path(self) -> str:
        """Path relative to the cwd, for stable report text."""
        try:
            rel = os.path.relpath(self.path)
        except ValueError:  # different drive (windows)
            return self.path.replace(os.sep, "/")
        if rel.startswith(".."):
            return self.path.replace(os.sep, "/")
        return rel.replace(os.sep, "/")

    def sort_key(self) -> Tuple[str, int, str]:
        return (self.rel_path, self.line, self.rule)

    def render(self) -> str:
        return (f"{self.rel_path}:{self.line}: {self.rule} "
                f"{self.message}")

    def __repr__(self) -> str:
        return f"Finding({self.render()!r})"


class SourceFile:
    """One parsed Python file plus derived lint metadata."""

    def __init__(self, path: str, text: str):
        self.path = os.path.abspath(path)
        self.lines: List[str] = text.splitlines()
        self.tree: ast.Module = ast.parse(text, filename=path)
        #: line number -> comment text (including the leading ``#``).
        self.comments: Dict[int, str] = _extract_comments(text)
        self.module = _module_name(self.path, _find_repro_root(self.path))

    def is_sim_module(self) -> bool:
        """True for files in the deterministic simulation core."""
        parts = self.module.split(".") if self.module else []
        return len(parts) >= 2 and parts[0] == "repro" \
            and parts[1] in SIM_PACKAGES


def _extract_comments(text: str) -> Dict[int, str]:
    comments: Dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                comments[tok.start[0]] = tok.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # the ast parse already succeeded; comments best-effort
    return comments


def _find_repro_root(path: str) -> Optional[str]:
    """Absolute path of the ``repro`` package directory above ``path``.

    Identified by walking up until a directory literally named
    ``repro`` containing an ``__init__.py``; gives every file its
    dotted module name even when only a sub-package was passed on the
    command line.
    """
    cur = os.path.dirname(path)
    while True:
        if os.path.basename(cur) == "repro" and \
                os.path.isfile(os.path.join(cur, "__init__.py")):
            return cur
        nxt = os.path.dirname(cur)
        if nxt == cur:
            return None
        cur = nxt


def _module_name(path: str, repro_root: Optional[str]) -> str:
    """Dotted module name (``repro.engine.world``) for ``path``."""
    if repro_root is None:
        stem = os.path.splitext(os.path.basename(path))[0]
        return stem if stem != "__init__" else ""
    rel = os.path.relpath(path, os.path.dirname(repro_root))
    parts = rel.replace(os.sep, "/").split("/")
    parts[-1] = os.path.splitext(parts[-1])[0]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def load_source(path: str) -> SourceFile:
    with open(path, encoding="utf-8") as fh:
        return SourceFile(path, fh.read())


def collect_files(paths: List[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d != "__pycache__" and not d.startswith("."))
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        out.append(os.path.join(dirpath, name))
        elif path.endswith(".py"):
            out.append(path)
        else:
            raise FileNotFoundError(
                f"not a Python file or directory: {path}")
    seen = set()
    unique: List[str] = []
    for path in out:
        ap = os.path.abspath(path)
        if ap not in seen:
            seen.add(ap)
            unique.append(path)
    return unique


# -- suppressions -------------------------------------------------------

#: ``# pax: ignore[PAX101]: reason`` / ``# pax: ignore[PAX101, PAX105]: ...``
_PAX_RE = re.compile(
    r"#\s*pax:\s*ignore\s*\[(?P<codes>[^\]]*)\]\s*(?::\s*(?P<reason>.*))?$")
_CODE_RE = re.compile(r"^PAX\d{3}$")


class Suppression(NamedTuple):
    """One parsed suppression comment."""

    codes: List[str]
    reason: str


def parse_suppressions(
        src: SourceFile,
        known_codes: Collection[str],
) -> Tuple[Dict[int, Suppression], List[Finding]]:
    """Map *effective* line -> suppression, plus PAX001 findings.

    The effective line of a standalone suppression comment is the next
    non-comment line, so rationales can sit above wrapped statements.
    """
    by_line: Dict[int, Suppression] = {}
    problems: List[Finding] = []
    for lineno in sorted(src.comments):
        match = _PAX_RE.search(src.comments[lineno])
        if match is None:
            continue
        codes = [c.strip() for c in match.group("codes").split(",")
                 if c.strip()]
        reason = (match.group("reason") or "").strip()
        bad = [c for c in codes if not _CODE_RE.match(c)]
        unknown = [c for c in codes
                   if _CODE_RE.match(c) and c not in known_codes]
        if not codes:
            problems.append(Finding(
                "PAX001", src.path, lineno,
                "suppression lists no rule codes"))
            continue
        if bad:
            problems.append(Finding(
                "PAX001", src.path, lineno,
                f"malformed rule code(s) {', '.join(sorted(bad))} in "
                f"suppression (expected PAXNNN)"))
            continue
        if unknown:
            problems.append(Finding(
                "PAX001", src.path, lineno,
                f"unknown rule code(s) {', '.join(sorted(unknown))} "
                f"in suppression"))
            continue
        if not reason:
            problems.append(Finding(
                "PAX001", src.path, lineno,
                f"suppression of {', '.join(codes)} has no reason; "
                f"write '# pax: ignore[CODE]: why it is safe'"))
            continue
        effective = lineno
        if src.lines[lineno - 1].lstrip().startswith("#"):
            effective = _next_code_line(src, lineno)
        by_line[effective] = Suppression(codes, reason)
    return by_line, problems


def _next_code_line(src: SourceFile, lineno: int) -> int:
    total = len(src.lines)
    cur = lineno + 1
    while cur <= total:
        stripped = src.lines[cur - 1].strip()
        if stripped and not stripped.startswith("#"):
            return cur
        cur += 1
    return lineno


def apply_suppressions(
        findings: List[Finding],
        by_line: Dict[int, Suppression],
) -> None:
    """Mark findings covered by a suppression on their anchor line."""
    for finding in findings:
        sup = by_line.get(finding.line)
        if sup is not None and finding.rule in sup.codes:
            finding.suppressed = True
            finding.suppress_reason = sup.reason
