"""Parsed source files and their classification.

A :class:`SourceFile` bundles everything a rule needs about one module:
its AST, raw lines, comments (via :mod:`tokenize`, so strings that
merely *contain* ``#`` don't confuse suppression parsing), its dotted
module name under the ``repro`` package root, and whether it belongs to
the simulation core that the PAX1xx determinism rules police.
"""

from __future__ import annotations

import ast
import io
import os
import tokenize
from typing import Dict, List, Optional

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


class SourceFile:
    """One parsed Python file plus derived lint metadata."""

    def __init__(self, path: str, text: str):
        self.path = os.path.abspath(path)
        self.text = text
        self.lines: List[str] = text.splitlines()
        self.tree: ast.Module = ast.parse(text, filename=path)
        #: line number -> comment text (including the leading ``#``).
        self.comments: Dict[int, str] = _extract_comments(text)
        #: lines that hold *only* a comment (suppressions there apply
        #: to the next code line).
        self.standalone_comment_lines = {
            lineno for lineno, _ in self.comments.items()
            if self._line_is_only_comment(lineno)
        }
        self.repro_root = _find_repro_root(self.path)
        self.module = _module_name(self.path, self.repro_root)

    def _line_is_only_comment(self, lineno: int) -> bool:
        if not 1 <= lineno <= len(self.lines):
            return False
        return self.lines[lineno - 1].lstrip().startswith("#")

    # -- classification -------------------------------------------------
    @property
    def package_parts(self) -> List[str]:
        return self.module.split(".") if self.module else []

    def is_sim_module(self) -> bool:
        """True for files in the deterministic simulation core."""
        parts = self.package_parts
        return len(parts) >= 2 and parts[0] == "repro" \
            and parts[1] in SIM_PACKAGES

    def in_package(self, package: str) -> bool:
        parts = self.package_parts
        return len(parts) >= 2 and parts[0] == "repro" \
            and parts[1] == package

    def __repr__(self) -> str:
        return f"SourceFile({self.module or self.path!r})"


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
