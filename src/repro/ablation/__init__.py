"""Unified feature-ablation framework.

One registry of every toggleable engine/arch feature, one runner that
expands the baseline-plus-one-off matrix, executes it in parallel with
memoized per-config results, and scores per-feature importance
(Δmodeled-fps on the paper's machine, Δsolver-row-updates,
Δdeterminism-digest) per Table 3 workload::

    PYTHONPATH=src python -m repro.ablation \\
        --features all --workloads table3 --scale 0.03

prints the per-feature scores and writes a schema-versioned
``ablation.json``.  No column reads a clock — every score is a pure
function of (features, workloads, scale, frames, seed), asserted in
``tests/test_ablation.py``; host speed is ``python bench/run.py``'s
question (see ``bench/README.md``).  :mod:`repro.ablation.studies`
holds the four focused single-mechanism scenes behind
``results/ablation_*.txt``.
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
