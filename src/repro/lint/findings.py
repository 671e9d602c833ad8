"""The :class:`Finding` record every PaxLint rule emits."""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Tuple


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

    # -- identity -------------------------------------------------------
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

    # -- rendering ------------------------------------------------------
    def render(self) -> str:
        return (f"{self.rel_path}:{self.line}: {self.rule} "
                f"{self.message}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.rel_path,
            "line": self.line,
            "message": self.message,
            "suppressed": self.suppressed,
            "suppress_reason": self.suppress_reason,
        }

    def __repr__(self) -> str:
        return f"Finding({self.render()!r})"
