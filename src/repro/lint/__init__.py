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

Two rule families, one table (:data:`RULES`):

* **PAX1xx — determinism / numeric safety**, scoped to the simulation
  modules (``collision``, ``dynamics``, ``engine``, ``cloth``,
  ``fastpath``, ``resilience``, ``serve``): unordered iteration,
  ``id()``, unseeded RNGs, wall-clock reads, unordered float
  accumulation, swallowed exceptions, mutable module/default-arg state.
* **PAX2xx — cross-module contracts**, read from several files' ASTs
  at once: snapshot completeness (``Body``/``World`` state vs
  ``WorldSnapshot``).

Findings are suppressed inline with ``# pax: ignore[PAXNNN]: reason``
(the reason is mandatory).  Run ``python -m repro.lint --explain
PAXNNN`` for any rule's rationale, or see ``docs/lint.md``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Sequence

from . import contracts, determinism
from .sources import (Finding, SourceFile, apply_suppressions,
                      collect_files, load_source, parse_suppressions)

Check = Callable[[List[SourceFile]], List[Finding]]


class Rule(NamedTuple):
    """One PAX rule: ``rationale`` is what ``--explain`` prints, stating
    *why* the pattern threatens bit-identical replay and what to do
    instead."""

    code: str
    name: str
    rationale: str
    check: Check


def _sim_files(check: Callable[[SourceFile], List[Finding]]) -> Check:
    """Run a one-file check over every simulation-core file."""
    def run(files: List[SourceFile]) -> List[Finding]:
        return [finding for src in files if src.is_sim_module()
                for finding in check(src)]
    return run


def _no_check(files: List[SourceFile]) -> List[Finding]:
    """PAX001 findings come from the suppression parser itself."""
    return []


RULES = (
    Rule("PAX001", "malformed-suppression", """\
Every '# pax: ignore[PAXNNN]: reason' must name known rule codes and
carry a non-empty reason.  Suppressions are the pressure valve that
keeps the determinism rules strict — an unexplained one hides exactly
the information a reviewer (or the next PR's author) needs to judge
whether the exception is still safe, so PaxLint treats it as a
violation in its own right.""", _no_check),
    Rule("PAX101", "unordered-iteration", """\
Iterating a set (or anything set-typed in this file) visits elements
in hash order, which varies with insertion history and, for str keys,
across interpreter runs (PYTHONHASHSEED).  Any state mutation, contact
generation, or list built inside such a loop therefore breaks
bit-identical replay — the oracle the differential tests, checkpoint
rollback, and shard migration all rely on.  Iterate a list, or wrap
the iterable in sorted(...) with a deterministic key.  Order-free
reductions (len/min/max/any/all/sorted itself) are exempt.""",
         _sim_files(determinism.check_pax101)),
    Rule("PAX102", "id-as-key-or-order", """\
id() returns a memory address, which differs between runs, between the
scalar and numpy backends, and after a checkpoint restore respawns
objects.  Using it in a sort key, a hash/dict key, or any comparison
makes behavior depend on the allocator, not the simulation.  Engine
objects carry a deterministic creation-ordered .uid for exactly this
purpose — key and sort on that instead.""",
         _sim_files(determinism.check_pax102)),
    Rule("PAX103", "unseeded-rng", """\
The process-global RNGs (random.*, numpy.random.* legacy functions)
and unseeded generator constructors (random.Random(),
numpy.random.default_rng() with no argument) draw from OS entropy or
shared hidden state, so two runs — or two worlds in one process —
see different streams.  Everything stochastic in the engine must flow
from an explicit seed threaded through the call (random.Random(seed),
default_rng(seed)), the pattern every scene builder in
repro.workloads.benchmarks uses.""", _sim_files(determinism.check_pax103)),
    Rule("PAX104", "wall-clock-in-step-path", """\
Wall-clock reads (time.time, perf_counter, datetime.now, ...) differ
every run, so any value derived from them inside the step path makes
trajectories non-replayable — and sneaks real time into code that
must behave identically on a live shard and on its migrated replica
replaying a checkpoint.  Simulation time is world.time/step_index,
advanced by fixed dt.  Timing *measurement* belongs in
repro.profiling or the benchmark harnesses, which are out of scope
for this rule.""", _sim_files(determinism.check_pax104)),
    Rule("PAX105", "unordered-float-accumulation", """\
Float addition is not associative: summing the same values in a
different order changes the last ulp, and one ulp is all it takes to
break the engine's divergence==0.0 oracle.  sum()/accumulation over a
set (or generator drawing from one) therefore silently varies run to
run even though the *mathematical* result is order-free.  Accumulate
over a list or sorted(...) sequence; math.fsum (correctly rounded,
order-independent) is exempt.""", _sim_files(determinism.check_pax105)),
    Rule("PAX106", "silent-exception-swallow", """\
A bare 'except:' (or a broad 'except Exception: pass') inside the
step path converts a corrupted simulation state into a silently
wrong one: the step completes, the divergence only surfaces frames
later, and the watchdog's rollback ladder never fires because nothing
raised.  The engine's failure policy is the opposite — validate,
raise, and let repro.resilience.StepWatchdog roll back to the last
good snapshot.  Catch specific exceptions and either re-raise or
leave a visible trace in the world's health signals.""",
         _sim_files(determinism.check_pax106)),
    Rule("PAX107", "mutable-shared-state", """\
Mutable module-level containers and mutable default arguments are
process-global state: two worlds stepping in one process (a
SessionGroup, a repro.serve shard's residents) would observe each
other through them, and a world's behavior would depend on what ran
before it — the exact coupling that makes replay-from-checkpoint
diverge.  Keep per-world state on the World, pass explicit arguments,
and reserve module level for immutable constants (ALL_CAPS names are
treated as such and are exempt; write-once registries qualify).""",
         _sim_files(determinism.check_pax107)),
    Rule("PAX201", "snapshot-completeness", """\
WorldSnapshot restore replaying bit-identically is the resilience
layer's rollback primitive and the planned shard-migration primitive
(checkpoint -> move -> replay).  That only holds while the snapshot is
*complete*: every mutable field Body.__init__ or World.__init__
creates must appear in Body.snapshot_state AND Body.restore_state
(for bodies) or be read by WorldSnapshot.capture AND written by
WorldSnapshot.restore (for world state).  This rule diffs those
ASTs, so adding a field without wiring it through checkpointing is a
lint error at the line that declared it.  Derived caches and
construction-time structure are legitimately excluded — suppress at
the declaring line with the reason.""", contracts.check_pax201),
)


class LintResult(NamedTuple):
    """Every finding of one run, suppressed ones included, sorted by
    path, line and rule; plus how many files were read."""

    findings: List[Finding]
    files: int


def lint_paths(paths: Sequence[str]) -> LintResult:
    """Lint ``paths`` (files and/or directories) against every rule."""
    files = [load_source(path) for path in collect_files(list(paths))]
    codes = {rule.code for rule in RULES}
    findings = [finding for rule in RULES for finding in rule.check(files)]
    by_path: Dict[str, List[Finding]] = {}
    for finding in findings:
        by_path.setdefault(finding.path, []).append(finding)
    for src in files:
        by_line, problems = parse_suppressions(src, codes)
        findings.extend(problems)
        apply_suppressions(by_path.get(src.path, []) + problems, by_line)
    return LintResult(sorted(findings, key=Finding.sort_key), len(files))


__all__ = ["Finding", "LintResult", "RULES", "Rule", "lint_paths"]
