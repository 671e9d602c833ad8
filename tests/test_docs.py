"""The documents may only name code, files and tests that exist."""

import ast
import glob
import os
import pkgutil
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_DOCS_DIR = tuple(sorted(os.path.join("docs", name)
                         for name in os.listdir(os.path.join(ROOT, "docs"))
                         if name.endswith(".md")))
# The documents that describe today's code. EXPERIMENTS.md is a log:
# its history names code that has since been deleted.
DOCS = ("README.md", "DESIGN.md") + _DOCS_DIR
PATH_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md") + _DOCS_DIR

# `repro.pkg.module.attr`, optionally followed by a call's "(".
_DOTTED = re.compile(r"`(repro(?:\.\w+)+)[`(]")
# `dir/sub/file.ext`, `dir/`, `dir/*.txt`, `tests/test_x.py::Class::test`.
_PATH = re.compile(r"`([\w.*-]+/[\w./*-]*)((?:::\w+)*)(?:\[[^`]*\])?`")
_FILE_SUFFIX = re.compile(r"\.(py|md|txt|json|toml|yml)$")
# Module paths are also written relative to the source tree.
_BASES = ("", "src", os.path.join("src", "repro"))
_TOP_DIRS = {name for name in os.listdir(ROOT)
             if os.path.isdir(os.path.join(ROOT, name))
             and not name.startswith(".")}


def _read(doc):
    with open(os.path.join(ROOT, doc), encoding="utf-8") as fh:
        return fh.read()


def _dotted_names():
    for doc in DOCS:
        for name in sorted(set(_DOTTED.findall(_read(doc)))):
            yield pytest.param(name, id=f"{doc}:{name}")


@pytest.mark.parametrize("name", _dotted_names())
def test_documented_name_resolves(name):
    try:
        pkgutil.resolve_name(name)
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"`{name}` is documented but does not exist: {exc}")


def _resolve(path):
    """Existing files matching a documented repo path (globs allowed)."""
    return [hit for base in _BASES
            for hit in glob.glob(os.path.join(ROOT, base, path))]


def _test_id_exists(source_path, names):
    """``names`` (``Class``, ``test``) nest as defs in ``source_path``."""
    with open(source_path, encoding="utf-8") as fh:
        body = ast.parse(fh.read()).body
    for name in names:
        node = next((n for n in body
                     if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


@pytest.mark.parametrize("doc", PATH_DOCS)
def test_documented_paths_and_test_ids_exist(doc):
    """A backticked path under a top-level directory (or any slashed
    file name) exists; a ``tests/...::test_id`` resolves."""
    missing = []
    for path, test_id in sorted(set(_PATH.findall(_read(doc)))):
        if path.split("/")[0] not in _TOP_DIRS \
                and not _FILE_SUFFIX.search(path):
            continue  # `Geom.friction/restitution`, `a/b` prose
        hits = _resolve(path)
        if not hits:
            missing.append(path)
        elif test_id and not _test_id_exists(
                hits[0], test_id.split("::")[1:]):
            missing.append(path + test_id)
    assert not missing, f"{doc} names what does not exist: {missing}"
