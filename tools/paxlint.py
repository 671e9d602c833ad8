"""PaxLint: ``python tools/paxlint.py [PATH ...]`` (default ``src/repro``).

Static checks for hazards to bit-identical replay in the simulation
packages (:data:`SIM_PACKAGES`): unordered iteration, ``id()``,
unseeded RNGs, wall-clock reads, unordered float accumulation and
swallowed exceptions.  Each rule's rationale
is its checker's docstring.  The tool reads only syntax trees; it
never imports the code it lints.

A finding is suppressed in place with ``# pax: ignore[PAXNNN]: reason``
on its line, or alone on the comment line(s) above it.  Exit codes:
0 clean (every finding fixed or suppressed), 1 new findings, 2 a path
that is neither a directory nor a ``.py`` file.
"""

from __future__ import annotations

import ast
import io
import os
import re
import sys
import tokenize
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)

#: Packages whose code runs inside, or mutates state read by, the
#: deterministic step path.  The PAX1xx rules apply only here.
SIM_PACKAGES = ("collision", "dynamics", "engine", "cloth", "fastpath",
                "resilience", "serve")


class Finding:
    """One rule violation, anchored to the line a suppression covers."""

    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message
        self.suppressed = False
        self.suppress_reason: Optional[str] = None

    def sort_key(self) -> Tuple[str, int, str]:
        return (self.path, self.line, self.rule)

    def render(self) -> str:
        rel = os.path.relpath(self.path)
        path = self.path if rel.startswith("..") else rel
        return f"{path}:{self.line}: {self.rule} {self.message}"

    def __repr__(self) -> str:
        return f"Finding({self.render()!r})"


class SourceFile:
    """One parsed file: its tree, lines, comments and dotted module."""

    def __init__(self, path: str):
        self.path = os.path.abspath(path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=path)
        self.comments = {tok.start[0]: tok.string for tok in
                         tokenize.generate_tokens(io.StringIO(text).readline)
                         if tok.type == tokenize.COMMENT}
        self.module = _module_name(self.path)

    def is_sim_module(self) -> bool:
        parts = self.module.split(".")
        return len(parts) >= 2 and parts[0] == "repro" \
            and parts[1] in SIM_PACKAGES


def _module_name(path: str) -> str:
    """``repro.engine.world`` for ``.../repro/engine/world.py``: the
    nearest ancestor package named ``repro`` is the root."""
    parts = os.path.splitext(path)[0].split(os.sep)
    for i in range(len(parts) - 2, -1, -1):
        root = os.sep.join(parts[:i + 1])
        if parts[i] == "repro" \
                and os.path.isfile(os.path.join(root, "__init__.py")):
            names = parts[i:]
            return ".".join(names[:-1] if names[-1] == "__init__"
                            else names)
    return ""


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files and directories into ``.py`` files, in order."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d !=
                                     "__pycache__" and d[0] != ".")
                out += [os.path.join(dirpath, name)
                        for name in sorted(filenames)
                        if name.endswith(".py")]
        elif path.endswith(".py"):
            out.append(path)
        else:
            raise FileNotFoundError(
                f"not a Python file or directory: {path}")
    seen: Set[str] = set()
    unique = []
    for path in out:
        if os.path.abspath(path) not in seen:
            seen.add(os.path.abspath(path))
            unique.append(path)
    return unique


# -- suppressions -------------------------------------------------------

_PAX_RE = re.compile(
    r"#\s*pax:\s*ignore\s*\[(?P<codes>[^\]]*)\]\s*(?::\s*(?P<reason>.*))?$")
_CODE_RE = re.compile(r"^PAX\d{3}$")


def _suppressions(
        src: SourceFile,
) -> Tuple[Dict[int, Tuple[List[str], str]], List[Finding]]:
    """Well-formed suppressions by the line they cover, and a PAX001
    finding per malformed one."""
    by_line: Dict[int, Tuple[List[str], str]] = {}
    problems: List[Finding] = []
    for lineno in sorted(src.comments):
        match = _PAX_RE.search(src.comments[lineno])
        if match is None:
            continue
        codes = [c.strip() for c in match.group("codes").split(",")
                 if c.strip()]
        reason = (match.group("reason") or "").strip()
        bad = sorted(c for c in codes if not _CODE_RE.match(c))
        unknown = sorted(c for c in codes
                         if _CODE_RE.match(c) and c not in RULES)
        problem = None
        if not codes:
            problem = "suppression lists no rule codes"
        elif bad:
            problem = (f"malformed rule code(s) {', '.join(bad)} in "
                       f"suppression (expected PAXNNN)")
        elif unknown:
            problem = (f"unknown rule code(s) {', '.join(unknown)} in "
                       f"suppression")
        elif not reason:
            problem = (f"suppression of {', '.join(codes)} has no reason; "
                       f"write '# pax: ignore[CODE]: why it is safe'")
        if problem is not None:
            problems.append(Finding("PAX001", src.path, lineno, problem))
            continue
        line = lineno
        if src.lines[lineno - 1].lstrip().startswith("#"):
            # a standalone comment covers the next code line
            line = next((n for n in range(lineno + 1, len(src.lines) + 1)
                         if src.lines[n - 1].strip()
                         and not src.lines[n - 1].lstrip().startswith("#")),
                        lineno)
        by_line[line] = (codes, reason)
    return by_line, problems


def check_pax001(src: SourceFile) -> List[Finding]:
    """Every '# pax: ignore[PAXNNN]: reason' must name known rule codes
    and carry a non-empty reason.  Suppressions keep the determinism
    rules strict; an unexplained one hides exactly what a reviewer
    needs to judge whether the exception is still safe."""
    return _suppressions(src)[1]


# -- AST helpers ----------------------------------------------------------

def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted origin: ``np -> numpy``, ``pc ->
    time.perf_counter``."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                head = item.name.split(".")[0]
                aliases[item.asname or head] = \
                    item.name if item.asname else head
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            for item in node.names:
                if item.name != "*":
                    aliases[item.asname or item.name] = \
                        f"{prefix}.{item.name}" if prefix else item.name
    return aliases


def _call_origin(node: ast.expr,
                 aliases: Dict[str, str]) -> Optional[str]:
    """Dotted origin of a callable: ``np.random.rand`` ->
    ``numpy.random.rand``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


def _func_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


_SET_METHODS = ("union", "intersection", "difference",
                "symmetric_difference", "copy")


class SetTypes:
    """Names and attribute names assigned a set anywhere in the file:
    the local, syntactic evidence a reviewer would use."""

    def __init__(self, tree: ast.Module):
        self.names: Set[str] = set()
        self.attrs: Set[str] = set()
        for node in ast.walk(tree):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value:
                targets = [node.target]
            value = getattr(node, "value", None)
            if not targets or value is None or not self.is_set(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    self.names.add(target.id)
                elif isinstance(target, ast.Attribute):
                    # any receiver: world._pairs set elsewhere counts
                    self.attrs.add(target.attr)

    def is_set(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            fn = node.func
            return (isinstance(fn, ast.Name)
                    and fn.id in ("set", "frozenset")) or (
                isinstance(fn, ast.Attribute)
                and fn.attr in _SET_METHODS and self.is_set(fn.value))
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return self.is_set(node.left) or self.is_set(node.right)
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Attribute):
            return node.attr in self.attrs
        return False


def _describe(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set display"
    if isinstance(node, ast.Call):
        return f"{_func_name(node)}(...)"
    return ast.dump(node)


# -- PAX1xx: determinism rules --------------------------------------------

#: Consumers whose result does not depend on their argument's order;
#: a sum's does in the last ulp, and PAX105 judges sums.
_ORDER_FREE = ("sorted", "min", "max", "any", "all", "set", "frozenset",
               "len", "sum", "fsum")


def check_pax101(src: SourceFile) -> List[Finding]:
    """Iterating a set visits elements in hash order, which varies with
    insertion history and, for str keys, across interpreter runs
    (PYTHONHASHSEED).  Any state mutation, contact generation or list
    built inside such a loop breaks bit-identical replay, the oracle of
    the differential tests, checkpoint rollback and shard migration.
    Iterate a list, or sorted(...) with a deterministic key.  Order-free
    reductions (len/min/max/any/all/sorted) are exempt."""
    sets = SetTypes(src.tree)
    consumers = {id(arg): _func_name(node) for node in ast.walk(src.tree)
                 if isinstance(node, ast.Call) for arg in node.args}
    findings: List[Finding] = []
    for node in ast.walk(src.tree):
        if isinstance(node, ast.For) and sets.is_set(node.iter):
            findings.append(Finding(
                "PAX101", src.path, node.lineno,
                f"for-loop iterates unordered set "
                f"'{_describe(node.iter)}'; iterate a list or "
                f"sorted(...) instead"))
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                               ast.DictComp)):
            hits = [gen for gen in node.generators if sets.is_set(gen.iter)]
            if hits and consumers.get(id(node)) not in _ORDER_FREE:
                kind = ("dict" if isinstance(node, ast.DictComp)
                        else "sequence")
                findings.append(Finding(
                    "PAX101", src.path, node.lineno,
                    f"{kind} comprehension draws from unordered set "
                    f"'{_describe(hits[0].iter)}'; its element order is "
                    f"not reproducible"))
    return findings


def check_pax102(src: SourceFile) -> List[Finding]:
    """id() returns a memory address, which differs between runs,
    between the scalar and numpy backends, and after a checkpoint
    restore respawns objects.  In a sort key, a dict key or any
    comparison it makes behaviour depend on the allocator, not the
    simulation.  Engine objects carry a deterministic creation-ordered
    .uid for exactly this purpose: key and sort on that instead."""
    return [Finding("PAX102", src.path, node.lineno,
                    "id() is address-dependent and varies across runs; "
                    "use the object's deterministic .uid")
            for node in ast.walk(src.tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "id"]


def check_pax103(src: SourceFile) -> List[Finding]:
    """The process-global RNGs (random.*, numpy.random.* legacy
    functions) and unseeded generator constructors (random.Random(),
    numpy.random.default_rng() with no argument) draw from OS entropy
    or shared hidden state, so two runs, or two worlds in one process,
    see different streams.  Everything stochastic in the engine flows
    from an explicit seed threaded through the call (random.Random(seed),
    default_rng(seed)), as every scene builder in
    repro.workloads.benchmarks does."""
    aliases = _import_aliases(src.tree)
    findings: List[Finding] = []
    for node in ast.walk(src.tree):
        if isinstance(node, ast.Call):
            origin = _call_origin(node.func, aliases)
            message = origin and _rng_violation(
                origin, bool(node.args or node.keywords))
            if message:
                findings.append(Finding("PAX103", src.path, node.lineno,
                                        message))
    return findings


def _rng_violation(origin: str, has_args: bool) -> Optional[str]:
    if origin == "random.SystemRandom":
        return ("random.SystemRandom draws OS entropy and can never "
                "replay; use random.Random(seed)")
    if origin in ("random.Random", "numpy.random.default_rng",
                  "numpy.random.RandomState", "numpy.random.SeedSequence"):
        return None if has_args else (
            f"{origin}() without a seed draws OS entropy; pass an "
            f"explicit seed")
    if origin in ("random.seed", "numpy.random.seed"):
        return None if has_args else (
            f"{origin}() with no argument reseeds from OS entropy")
    if origin.startswith("random.") and origin.count(".") == 1:
        return (f"{origin}() uses the hidden process-global RNG; thread "
                f"an explicit random.Random(seed) instead")
    if origin.startswith("numpy.random.") and origin.split(".")[-1] not in (
            "Generator", "BitGenerator", "Philox", "PCG64"):
        return (f"{origin}() uses numpy's hidden global RNG; use a seeded "
                f"numpy.random.default_rng(seed)")
    return None


_WALL_CLOCK = (
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns", "time.clock",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
)


def check_pax104(src: SourceFile) -> List[Finding]:
    """Wall-clock reads (time.time, perf_counter, datetime.now, ...)
    differ every run, so any value derived from them inside the step
    path makes trajectories non-replayable, and sneaks real time into
    code that must behave identically on a live shard and on its
    migrated replica replaying a checkpoint.  Simulation time is
    world.time/step_index, advanced by a fixed dt.  Timing measurement
    belongs in repro.profiling or the benchmark harness, which are out
    of scope for this rule."""
    aliases = _import_aliases(src.tree)
    return [Finding("PAX104", src.path, node.lineno,
                    f"wall-clock call {origin}() in the step path; use "
                    f"world.time / step_index (fixed-dt simulation time)")
            for node in ast.walk(src.tree) if isinstance(node, ast.Call)
            for origin in [_call_origin(node.func, aliases)]
            if origin in _WALL_CLOCK]


def check_pax105(src: SourceFile) -> List[Finding]:
    """Float addition is not associative: summing the same values in
    another order changes the last ulp, and one ulp is all it takes to
    break the engine's divergence == 0.0 oracle.  sum() or accumulation
    over a set (or a generator drawing from one) therefore varies run
    to run although the mathematical result is order-free.  Accumulate
    over a list or a sorted(...) sequence; math.fsum (correctly rounded,
    order-independent) is exempt."""
    sets = SetTypes(src.tree)
    findings: List[Finding] = []
    for node in ast.walk(src.tree):
        if isinstance(node, ast.Call) and _func_name(node) == "sum" \
                and node.args:
            arg = node.args[0]
            if sets.is_set(arg) or (
                    isinstance(arg, (ast.GeneratorExp, ast.ListComp,
                                     ast.SetComp))
                    and any(sets.is_set(gen.iter)
                            for gen in arg.generators)):
                findings.append(Finding(
                    "PAX105", src.path, node.lineno,
                    "sum() over an unordered iterable: float addition "
                    "is order-sensitive in the last ulp"))
        elif isinstance(node, ast.For) and sets.is_set(node.iter):
            findings += [Finding(
                "PAX105", src.path, sub.lineno,
                "accumulation inside a loop over an unordered set: "
                "result depends on hash order")
                for sub in ast.walk(node) if isinstance(sub, ast.AugAssign)
                and isinstance(sub.op, (ast.Add, ast.Sub, ast.Mult))]
    return findings


def check_pax106(src: SourceFile) -> List[Finding]:
    """A broad 'except Exception: pass' inside the step path turns a
    corrupted simulation state into a silently wrong one: the step
    completes, the divergence surfaces frames later, and the watchdog's
    rollback ladder never fires because nothing raised.  The engine's
    failure policy is the opposite: validate, raise, and let
    repro.resilience.StepWatchdog roll back to the last good snapshot.
    Catch specific exceptions and either re-raise or leave a visible
    trace.  (A bare 'except:' is ruff's E722.)"""
    findings: List[Finding] = []
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        types = (node.type.elts if isinstance(node.type, ast.Tuple)
                 else [node.type])
        broad = any(isinstance(t, ast.Name)
                    and t.id in ("Exception", "BaseException")
                    for t in types)
        silent = all(isinstance(stmt, (ast.Pass, ast.Continue)) or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)) for stmt in node.body)
        if broad and silent:
            findings.append(Finding(
                "PAX106", src.path, node.lineno,
                "broad exception handler silently swallows errors in "
                "the step path"))
    return findings


Check = Callable[[SourceFile], List[Finding]]
#: Every rule; PAX001 runs on every file, the rest on simulation files.
RULES: Dict[str, Check] = {
    "PAX001": check_pax001,
    "PAX101": check_pax101,
    "PAX102": check_pax102,
    "PAX103": check_pax103,
    "PAX104": check_pax104,
    "PAX105": check_pax105,
    "PAX106": check_pax106,
}


class LintResult(NamedTuple):
    """Every finding, suppressed ones included, sorted by path, line and
    rule; plus how many files were read."""

    findings: List[Finding]
    files: int


def lint_paths(paths: Sequence[str]) -> LintResult:
    """Lint ``paths`` (files and/or directories) against every rule."""
    files = [SourceFile(path) for path in collect_files(paths)]
    findings: List[Finding] = []
    for src in files:
        by_line, problems = _suppressions(src)
        found = [finding for code, check in RULES.items()
                 if code != "PAX001" and src.is_sim_module()
                 for finding in check(src)]
        for finding in found:
            codes, reason = by_line.get(finding.line, ([], ""))
            if finding.rule in codes:
                finding.suppressed = True
                finding.suppress_reason = reason
        findings += found + problems
    return LintResult(sorted(findings, key=Finding.sort_key), len(files))


def main(argv: Optional[List[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    try:
        result = lint_paths(paths or [os.path.join("src", "repro")])
    except (FileNotFoundError, SyntaxError) as exc:
        print(f"paxlint: {exc}", file=sys.stderr)
        return 2
    active = [f for f in result.findings if not f.suppressed]
    for finding in active:
        print(finding.render())
    print(f"paxlint: {result.files} file(s), {len(RULES)} rule(s): "
          f"{len(active)} new finding(s), "
          f"{len(result.findings) - len(active)} suppressed")
    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main())
