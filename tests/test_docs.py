"""The design documents may only name code that exists."""

import os
import pkgutil
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ("DESIGN.md", os.path.join("docs", "MODELING.md"))

# `repro.pkg.module.attr`, optionally followed by a call's "(".
_DOTTED = re.compile(r"`(repro(?:\.\w+)+)[`(]")


def _dotted_names():
    for doc in DOCS:
        with open(os.path.join(ROOT, doc)) as fh:
            for name in sorted(set(_DOTTED.findall(fh.read()))):
                yield pytest.param(name, id=f"{doc}:{name}")


@pytest.mark.parametrize("name", _dotted_names())
def test_documented_name_resolves(name):
    try:
        pkgutil.resolve_name(name)
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"`{name}` is documented but does not exist: {exc}")
