"""Shared AST plumbing for the rule implementations.

Everything here is deliberately *syntactic*: PaxLint never imports the
code under analysis (importing `repro.engine` to lint it would execute
module-level state — the very thing PAX107 polices).  Type knowledge
is therefore heuristic: "set-typed" means *assigned a set display /
``set()`` call / set comprehension somewhere in this file*, which is
exactly the local evidence a reviewer would use.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Set, Tuple

from .sources import SourceFile


def build_parents(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    """Child -> parent map for one module tree."""
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted origin for every import in the module.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    perf_counter as pc`` maps ``pc -> time.perf_counter``.  Relative
    imports keep their leading dots (callers only match absolute
    stdlib/numpy names, so relative origins simply never match).
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".")[0]
                origin = item.name if item.asname else \
                    item.name.split(".")[0]
                aliases[local] = origin
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            for item in node.names:
                if item.name == "*":
                    continue
                local = item.asname or item.name
                aliases[local] = f"{prefix}.{item.name}" if prefix \
                    else item.name
    return aliases


def resolve_call_name(node: ast.expr,
                      aliases: Dict[str, str]) -> Optional[str]:
    """Dotted origin of a callable expression, or None.

    ``np.random.rand`` with ``np -> numpy`` resolves to
    ``numpy.random.rand``; a bare name resolves through the alias map
    (``pc`` -> ``time.perf_counter``) or to itself.
    """
    parts = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    root = aliases.get(cur.id, cur.id)
    parts.append(root)
    return ".".join(reversed(parts))


# -- set-typed inference ------------------------------------------------

_SET_CALLS = ("set", "frozenset")
_SET_METHODS = ("union", "intersection", "difference",
                "symmetric_difference", "copy")


class SetTypes:
    """Names / attribute names assigned a set anywhere in the file."""

    def __init__(self, src: SourceFile):
        self.names: Set[str] = set()
        self.attrs: Set[str] = set()
        self._collect(src.tree)

    def _collect(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            targets: Tuple[ast.expr, ...] = ()
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = tuple(node.targets), node.value
            elif isinstance(node, ast.AnnAssign) and node.value:
                targets, value = (node.target,), node.value
            if value is None or not self.is_set_expr(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    self.names.add(target.id)
                elif isinstance(target, ast.Attribute):
                    # keyed by attribute name regardless of receiver:
                    # 'world._no_collide_pairs' in another module still
                    # counts.  Aggressive, but suppressible.
                    self.attrs.add(target.attr)

    def is_set_expr(self, node: ast.expr) -> bool:
        """Syntactic evidence that ``node`` evaluates to a set."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id in _SET_CALLS:
                return True
            if isinstance(fn, ast.Attribute) \
                    and fn.attr in _SET_METHODS \
                    and self.is_set_expr(fn.value):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return self.is_set_expr(node.left) \
                or self.is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Attribute):
            return node.attr in self.attrs
        return False


# -- misc ---------------------------------------------------------------

def call_arg_of(parents: Dict[ast.AST, ast.AST],
                node: ast.AST) -> Optional[ast.Call]:
    """The Call whose *direct* argument list contains ``node``."""
    parent = parents.get(node)
    if isinstance(parent, ast.Call) and node in parent.args:
        return parent
    return None


def func_name_of_call(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def dict_literal_keys(node: ast.AST) -> Set[str]:
    """All constant string keys of dict displays under ``node``."""
    keys: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Dict):
            for key in sub.keys:
                if isinstance(key, ast.Constant) \
                        and isinstance(key.value, str):
                    keys.add(key.value)
        elif isinstance(sub, ast.Assign):
            # d["k"] = ... also publishes key "k"
            for target in sub.targets:
                if isinstance(target, ast.Subscript):
                    keys |= _const_str_slice(target)
    return keys


def subscript_str_keys(node: ast.AST) -> Set[str]:
    """Constant string subscripts (``state["x"]``) under ``node``,
    plus ``.get("x")`` calls."""
    keys: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Subscript):
            keys |= _const_str_slice(sub)
        elif isinstance(sub, ast.Call) \
                and isinstance(sub.func, ast.Attribute) \
                and sub.func.attr == "get" and sub.args:
            arg = sub.args[0]
            if isinstance(arg, ast.Constant) \
                    and isinstance(arg.value, str):
                keys.add(arg.value)
    return keys


def _const_str_slice(sub: ast.Subscript) -> Set[str]:
    sl = sub.slice
    if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
        return {sl.value}
    return set()


def self_assigned_fields(func: ast.FunctionDef) -> Dict[str, int]:
    """``self.X = ...`` targets in ``func`` -> first assignment line."""
    fields: Dict[str, int] = {}
    for node in ast.walk(func):
        targets: Tuple[ast.expr, ...] = ()
        if isinstance(node, ast.Assign):
            targets = tuple(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = (node.target,)
        for target in targets:
            if isinstance(target, ast.Attribute) \
                    and isinstance(target.value, ast.Name) \
                    and target.value.id == "self":
                fields.setdefault(target.attr, node.lineno)
    return fields


def find_class(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def find_method(cls: ast.ClassDef,
                name: str) -> Optional[ast.FunctionDef]:
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def attr_names_on(node: ast.AST, receiver: str) -> Set[str]:
    """Attribute names accessed on the name ``receiver`` under node."""
    out: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) \
                and isinstance(sub.value, ast.Name) \
                and sub.value.id == receiver:
            out.add(sub.attr)
    return out
