"""PAX2xx: cross-module contract rules.

These rules read *several* files' ASTs at once.  One so far, encoding
the contract that keeps the engine's bit-identical-replay guarantee
from rotting:

* **PAX201** — snapshot completeness.  Every mutable field a
  ``Body.__init__`` or ``World.__init__`` creates must be captured by
  ``Body.snapshot_state``/``restore_state`` and by
  ``WorldSnapshot.capture``/``restore`` respectively.  Add a field
  without snapshotting it and checkpoint rollback (and the future
  checkpoint->migrate->replay shard move) silently loses state.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from ..findings import Finding
from ..sources import SourceFile
from . import register
from ._astutil import (
    attr_names_on,
    dict_literal_keys,
    find_class,
    find_method,
    self_assigned_fields,
    subscript_str_keys,
)


# -- PAX201 -------------------------------------------------------------

@register(
    "PAX201", "snapshot-completeness", "project",
    """\
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
the declaring line with the reason.""",
)
def check_pax201(files: List[SourceFile]) -> List[Finding]:
    findings: List[Finding] = []
    body_src, body_cls = _find_one(files, "Body",
                                   ("__init__", "snapshot_state",
                                    "restore_state"))
    if body_src is not None and body_cls is not None:
        findings.extend(_check_body(body_src, body_cls))

    world_src, world_cls = _find_one(files, "World", ("__init__",))
    snap_src, snap_cls = _find_one(files, "WorldSnapshot",
                                   ("capture", "restore"))
    if None not in (world_src, world_cls, snap_src, snap_cls):
        findings.extend(_check_world(
            world_src, world_cls, snap_src, snap_cls))
    return findings


def _find_one(
        files: List[SourceFile], class_name: str,
        methods: Tuple[str, ...],
) -> Tuple[Optional[SourceFile], Optional[ast.ClassDef]]:
    """First class named ``class_name`` defining all ``methods``."""
    for src in sorted(files, key=lambda s: s.path):
        cls = find_class(src.tree, class_name)
        if cls is None:
            continue
        if all(find_method(cls, m) is not None for m in methods):
            return src, cls
    return None, None


def _check_body(src: SourceFile,
                cls: ast.ClassDef) -> List[Finding]:
    init = find_method(cls, "__init__")
    snapshot = find_method(cls, "snapshot_state")
    restore = find_method(cls, "restore_state")
    assert init and snapshot and restore
    fields = self_assigned_fields(init)
    snap_keys = dict_literal_keys(snapshot)
    restore_keys = subscript_str_keys(restore)
    findings: List[Finding] = []
    for name, lineno in sorted(fields.items()):
        missing = []
        if name not in snap_keys:
            missing.append("snapshot_state")
        if name not in restore_keys:
            missing.append("restore_state")
        if missing:
            findings.append(Finding(
                "PAX201", src.path, lineno,
                f"Body field '{name}' is not covered by "
                f"{' or '.join(missing)}; checkpoint restore would "
                f"lose it"))
    return findings


def _check_world(world_src: SourceFile, world_cls: ast.ClassDef,
                 snap_src: SourceFile,
                 snap_cls: ast.ClassDef) -> List[Finding]:
    init = find_method(world_cls, "__init__")
    capture = find_method(snap_cls, "capture")
    restore = find_method(snap_cls, "restore")
    assert init and capture and restore
    fields = self_assigned_fields(init)
    captured = attr_names_on(capture, _world_param(capture, 1))
    restored = attr_names_on(restore, _world_param(restore, 1))
    findings: List[Finding] = []
    for name, lineno in sorted(fields.items()):
        missing = []
        if name not in captured:
            missing.append("WorldSnapshot.capture")
        if name not in restored:
            missing.append("WorldSnapshot.restore")
        if missing:
            findings.append(Finding(
                "PAX201", world_src.path, lineno,
                f"World field '{name}' is not touched by "
                f"{' or '.join(missing)}; checkpoint/rollback would "
                f"lose it"))
    return findings


def _world_param(func: ast.FunctionDef, index: int) -> str:
    """Name of the world parameter (skipping cls/self at slot 0)."""
    args = func.args.args
    if len(args) > index:
        return args[index].arg
    return args[-1].arg if args else "world"
