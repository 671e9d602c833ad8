"""PAX1xx: determinism / numeric-safety rules for the simulation core.

Each check reads one file; the rule table runs it over the simulation
packages only (``collision``, ``dynamics``, ``engine``, ``cloth``,
``fastpath``, ``resilience``, ``serve`` — see
:data:`repro.lint.sources.SIM_PACKAGES`): code there runs inside the
deterministic step path, where bit-identical replay is the contract
the differential oracle, checkpoint rollback, and shard migration all
stand on.  Analysis, profiling, and workload builders are deliberately
out of scope.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from .sources import Finding, SourceFile
from ._astutil import (
    SetTypes,
    build_parents,
    call_arg_of,
    func_name_of_call,
    import_aliases,
    resolve_call_name,
)

#: Consumers that reduce an iterable order-insensitively, so feeding
#: them an unordered iterable is fine (sum is handled by PAX105: float
#: addition is order-*sensitive* in the last ulp).
_ORDER_FREE_CONSUMERS = ("sorted", "min", "max", "any", "all", "set",
                        "frozenset", "len")

_WALL_CLOCK = (
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns", "time.clock",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
)

_MUTABLE_CALLS = ("list", "dict", "set", "bytearray", "defaultdict",
                  "deque", "OrderedDict", "Counter")


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in _MUTABLE_CALLS:
        return True
    return False


# -- PAX101 / PAX105: unordered iteration & accumulation ----------------

def check_pax101(src: SourceFile) -> List[Finding]:
    sets = SetTypes(src)
    parents = build_parents(src.tree)
    findings: List[Finding] = []

    def describe(node: ast.expr) -> str:
        text = ast.dump(node)
        if isinstance(node, ast.Name):
            text = node.id
        elif isinstance(node, ast.Attribute):
            text = node.attr
        elif isinstance(node, (ast.Set, ast.SetComp)):
            text = "a set display"
        elif isinstance(node, ast.Call):
            text = f"{func_name_of_call(node)}(...)"
        return text

    for node in ast.walk(src.tree):
        if isinstance(node, ast.For):
            if sets.is_set_expr(node.iter):
                findings.append(Finding(
                    "PAX101", src.path, node.lineno,
                    f"for-loop iterates unordered set "
                    f"'{describe(node.iter)}'; iterate a list or "
                    f"sorted(...) instead"))
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                               ast.DictComp)):
            hits = [gen for gen in node.generators
                    if sets.is_set_expr(gen.iter)]
            if not hits:
                continue
            consumer = call_arg_of(parents, node)
            if consumer is not None:
                name = func_name_of_call(consumer)
                if name in _ORDER_FREE_CONSUMERS:
                    continue
                if name in ("sum", "fsum"):
                    continue  # PAX105 owns the accumulation case
            kind = ("dict" if isinstance(node, ast.DictComp)
                    else "sequence")
            findings.append(Finding(
                "PAX101", src.path, node.lineno,
                f"{kind} comprehension draws from unordered set "
                f"'{describe(hits[0].iter)}'; its element order is "
                f"not reproducible"))
    return findings


def check_pax105(src: SourceFile) -> List[Finding]:
    sets = SetTypes(src)
    findings: List[Finding] = []

    def genexp_over_set(node: ast.expr) -> bool:
        if isinstance(node, (ast.GeneratorExp, ast.ListComp,
                             ast.SetComp)):
            return any(sets.is_set_expr(gen.iter)
                       for gen in node.generators)
        return False

    for node in ast.walk(src.tree):
        if isinstance(node, ast.Call):
            name = func_name_of_call(node)
            if name != "sum" or not node.args:
                continue
            arg = node.args[0]
            if sets.is_set_expr(arg) or genexp_over_set(arg):
                findings.append(Finding(
                    "PAX105", src.path, node.lineno,
                    "sum() over an unordered iterable: float addition "
                    "is order-sensitive in the last ulp"))
        elif isinstance(node, ast.For) and sets.is_set_expr(node.iter):
            for sub in ast.walk(node):
                if isinstance(sub, ast.AugAssign) and isinstance(
                        sub.op, (ast.Add, ast.Sub, ast.Mult)):
                    findings.append(Finding(
                        "PAX105", src.path, sub.lineno,
                        "accumulation inside a loop over an unordered "
                        "set: result depends on hash order"))
    return findings


# -- PAX102: id() -------------------------------------------------------

def check_pax102(src: SourceFile) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(src.tree):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Name) \
                and node.func.id == "id":
            findings.append(Finding(
                "PAX102", src.path, node.lineno,
                "id() is address-dependent and varies across runs; "
                "use the object's deterministic .uid"))
    return findings


# -- PAX103: unseeded randomness ----------------------------------------

def check_pax103(src: SourceFile) -> List[Finding]:
    aliases = import_aliases(src.tree)
    findings: List[Finding] = []
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.Call):
            continue
        origin = resolve_call_name(node.func, aliases)
        if origin is None:
            continue
        message = _rng_violation(origin, bool(node.args or
                                              node.keywords))
        if message is not None:
            findings.append(Finding(
                "PAX103", src.path, node.lineno, message))
    return findings


def _rng_violation(origin: str, has_args: bool) -> Optional[str]:
    if origin == "random.SystemRandom":
        return "random.SystemRandom draws OS entropy and can never " \
               "replay; use random.Random(seed)"
    if origin in ("random.Random", "numpy.random.default_rng",
                  "numpy.random.RandomState",
                  "numpy.random.SeedSequence"):
        if not has_args:
            return f"{origin}() without a seed draws OS entropy; " \
                   f"pass an explicit seed"
        return None
    if origin == "random.seed" or origin == "numpy.random.seed":
        if not has_args:
            return f"{origin}() with no argument reseeds from OS " \
                   f"entropy"
        return None
    if origin.startswith("random.") and origin.count(".") == 1:
        return f"{origin}() uses the hidden process-global RNG; " \
               f"thread an explicit random.Random(seed) instead"
    if origin.startswith("numpy.random.") \
            and origin.split(".")[-1] not in ("Generator",
                                              "BitGenerator",
                                              "Philox", "PCG64"):
        return f"{origin}() uses numpy's hidden global RNG; use a " \
               f"seeded numpy.random.default_rng(seed)"
    return None


# -- PAX104: wall clock in the step path --------------------------------

def check_pax104(src: SourceFile) -> List[Finding]:
    aliases = import_aliases(src.tree)
    findings: List[Finding] = []
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.Call):
            continue
        origin = resolve_call_name(node.func, aliases)
        if origin in _WALL_CLOCK:
            findings.append(Finding(
                "PAX104", src.path, node.lineno,
                f"wall-clock call {origin}() in the step path; use "
                f"world.time / step_index (fixed-dt simulation time)"))
    return findings


# -- PAX106: swallowed exceptions ---------------------------------------

def check_pax106(src: SourceFile) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            findings.append(Finding(
                "PAX106", src.path, node.lineno,
                "bare 'except:' in the step path hides corrupted "
                "state from the watchdog"))
            continue
        if _is_broad(node.type) and _body_is_silent(node.body):
            findings.append(Finding(
                "PAX106", src.path, node.lineno,
                "broad exception handler silently swallows errors in "
                "the step path"))
    return findings


def _is_broad(type_node: ast.expr) -> bool:
    names = []
    if isinstance(type_node, ast.Name):
        names = [type_node.id]
    elif isinstance(type_node, ast.Tuple):
        names = [e.id for e in type_node.elts
                 if isinstance(e, ast.Name)]
    return any(n in ("Exception", "BaseException") for n in names)


def _body_is_silent(body: List[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant):
            continue  # docstring / Ellipsis
        return False
    return True


# -- PAX107: mutable module/default-arg state ---------------------------

def check_pax107(src: SourceFile) -> List[Finding]:
    findings: List[Finding] = []
    findings.extend(_module_level_mutables(src))
    for node in ast.walk(src.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if _is_mutable_literal(default):
                    findings.append(Finding(
                        "PAX107", src.path, node.lineno,
                        f"function '{node.name}' has a mutable "
                        f"default argument; it is shared across every "
                        f"call in the process"))
    return findings


def _module_level_mutables(src: SourceFile) -> List[Finding]:
    findings: List[Finding] = []

    def scan(stmts: List[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.If, ast.Try)):
                for block in _blocks_of(stmt):
                    scan(block)
                continue
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = list(stmt.targets), stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value:
                targets, value = [stmt.target], stmt.value
            if value is None or not _is_mutable_literal(value):
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                if name.startswith("__") and name.endswith("__"):
                    continue
                if name == name.upper():
                    continue  # ALL_CAPS: write-once constant/registry
                findings.append(Finding(
                    "PAX107", src.path, stmt.lineno,
                    f"module-level mutable '{name}' is process-global "
                    f"state shared by every world"))

    scan(src.tree.body)
    return findings


def _blocks_of(stmt: ast.stmt) -> List[List[ast.stmt]]:
    blocks: List[List[ast.stmt]] = []
    for field in ("body", "orelse", "finalbody"):
        block = getattr(stmt, field, None)
        if block:
            blocks.append(block)
    handlers = getattr(stmt, "handlers", None)
    if handlers:
        for handler in handlers:
            blocks.append(handler.body)
    return blocks
