"""Unified feature-ablation framework (ROADMAP item 4).

One registry of every toggleable engine/arch feature, one runner that
expands the baseline-plus-one-off matrix, executes it in parallel with
memoized per-config results, and scores per-feature importance (Δfps,
Δsolver-row-updates, Δdeterminism-digest) per Table 3 workload::

    PYTHONPATH=src python -m repro.ablation \\
        --features all --workloads table3 --scale 0.03

prints the per-feature scores and writes a schema-versioned
``ablation.json``.  The fps columns are indicative only: performance
claims rest on ``python bench/run.py`` (see ``bench/README.md``); the
deterministic columns (digest, row updates, validation) are asserted
in ``tests/test_ablation.py``.  :mod:`repro.ablation.studies` holds the
four focused single-mechanism scenes behind ``results/ablation_*.txt``.
"""

from .features import Feature, FeatureRegistry, default_registry
from .runner import (
    SCHEMA,
    TABLE3_WORKLOADS,
    AblationConfig,
    AblationRunner,
    make_report,
)

__all__ = [
    "AblationConfig",
    "AblationRunner",
    "Feature",
    "FeatureRegistry",
    "SCHEMA",
    "TABLE3_WORKLOADS",
    "default_registry",
    "make_report",
]
