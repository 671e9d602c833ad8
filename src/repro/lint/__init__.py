"""PaxLint: the engine's determinism & contract static analyzer.

The whole reproduction rests on one invariant: the scalar engine, the
``repro.fastpath`` NumPy backend, and ``WorldSnapshot`` restore must
replay **bit-identically** (trajectory divergence exactly 0.0).  That
identity is the differential-test oracle, the resilience rollback
primitive, and the precondition for sharding worlds across processes
(checkpoint -> migrate -> replay).  Nothing *runtime* prevents a change
from silently breaking it — an unordered ``set`` iteration, an
``id()``-keyed sort, a new ``Body`` field missing from the snapshot —
so PaxLint proves the cheap half of the invariant at lint time.

Two rule families (see ``repro.lint.rules``):

* **PAX1xx — determinism / numeric safety**, scoped to the simulation
  modules (``collision``, ``dynamics``, ``engine``, ``cloth``,
  ``fastpath``, ``resilience``): unordered iteration, ``id()``,
  unseeded RNGs, wall-clock reads, unordered float accumulation,
  swallowed exceptions, mutable module/default-arg state.
* **PAX2xx — cross-module contracts**, read from several files' ASTs
  at once: snapshot completeness (``Body``/``World`` state vs
  ``WorldSnapshot``).

Findings are suppressed inline with ``# pax: ignore[PAXNNN]: reason``
(the reason is mandatory).  Run ``python -m repro.lint --explain
PAXNNN`` for any rule's rationale, or see ``docs/lint.md``.
"""

from __future__ import annotations

from .findings import Finding
from .runner import LintResult, lint_paths
from .rules import Rule, all_rules, get_rule

__all__ = [
    "Finding",
    "LintResult",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_paths",
]
