"""Rule registry.

Rules come in two kinds:

* ``file`` rules get one :class:`~repro.lint.sources.SourceFile` at a
  time (the PAX1xx determinism family);
* ``project`` rules get the whole parsed file set at once (the PAX2xx
  contract family — snapshot completeness spans several modules).

Each rule owns a ``rationale``: the paragraph ``--explain PAXNNN``
prints, stating *why* the pattern threatens bit-identical replay and
what to do instead.  Shipping a rule without a rationale is a bug —
the CLI refuses to register one.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Tuple

from ..findings import Finding
from ..sources import SourceFile

FileCheck = Callable[[SourceFile], List[Finding]]
ProjectCheck = Callable[[List[SourceFile]], List[Finding]]


class Rule:
    """One registered PAX rule."""

    __slots__ = ("code", "name", "kind", "rationale", "check")

    def __init__(self, code: str, name: str, kind: str, rationale: str,
                 check: Callable[..., List[Finding]]):
        self.code = code
        self.name = name
        self.kind = kind  # "file" | "project" | "meta"
        self.rationale = rationale
        self.check = check


_REGISTRY: Dict[str, Rule] = {}


def register(code: str, name: str, kind: str,
             rationale: str) -> Callable[[Callable[..., List[Finding]]],
                                         Callable[..., List[Finding]]]:
    def deco(fn: Callable[..., List[Finding]]
             ) -> Callable[..., List[Finding]]:
        if code in _REGISTRY:
            raise ValueError(f"duplicate rule code {code}")
        if kind not in ("file", "project", "meta"):
            raise ValueError(f"bad rule kind {kind!r} for {code}")
        if not rationale.strip():
            raise ValueError(f"rule {code} has no rationale")
        _REGISTRY[code] = Rule(code, name, kind, rationale.strip(), fn)
        return fn
    return deco


def all_rules() -> List[Rule]:
    _ensure_loaded()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def all_codes() -> Tuple[str, ...]:
    return tuple(rule.code for rule in all_rules())


def get_rule(code: str) -> Rule:
    _ensure_loaded()
    try:
        return _REGISTRY[code]
    except KeyError:
        raise KeyError(f"unknown rule {code!r}; known: "
                       f"{', '.join(sorted(_REGISTRY))}") from None


def select_rules(selectors: Iterable[str]) -> List[Rule]:
    """Resolve ``--select`` patterns: exact codes or prefixes.

    ``PAX1`` selects the whole determinism family, ``PAX105`` exactly
    one rule.  Unknown selectors raise so typos can't silently lint
    nothing.
    """
    _ensure_loaded()
    chosen: Dict[str, Rule] = {}
    for selector in selectors:
        sel = selector.strip().upper()
        matches = [r for code, r in _REGISTRY.items()
                   if code.startswith(sel)]
        if not matches:
            raise KeyError(f"--select {selector!r} matches no rule")
        for rule in matches:
            chosen[rule.code] = rule
    return [chosen[code] for code in sorted(chosen)]


# PAX001 has no checker function: the suppression parser emits it
# directly.  Registered here so --explain / --select know it.
register(
    "PAX001", "malformed-suppression", "meta",
    """\
Every '# pax: ignore[PAXNNN]: reason' must name known rule codes and
carry a non-empty reason.  Suppressions are the pressure valve that
keeps the determinism rules strict — an unexplained one hides exactly
the information a reviewer (or the next PR's author) needs to judge
whether the exception is still safe, so PaxLint treats it as a
violation in its own right.""",
)(lambda _src: [])


def _ensure_loaded() -> None:
    from . import contracts, determinism  # noqa: F401


__all__ = [
    "FileCheck",
    "ProjectCheck",
    "Rule",
    "all_codes",
    "all_rules",
    "get_rule",
    "register",
    "select_rules",
]
