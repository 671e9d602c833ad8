"""Figure/table regeneration: experiment drivers + CLI.

``python -m repro.analysis`` re-simulates the eight benchmarks and
rewrites every figure and table file under ``results/``. The
individual drivers live in :mod:`.experiments` (paper figures),
:mod:`.extensions` (beyond-the-paper studies), :mod:`.tables`
(Table 3/4) and :mod:`.calibrate`.
"""

from .calibrate import calibration, power_law_fit
from .tables import (
    PAPER_TABLE3_MINST,
    PAPER_TABLE4,
    format_table,
    table3,
    table4,
)

__all__ = [
    "PAPER_TABLE3_MINST",
    "PAPER_TABLE4",
    "calibration",
    "format_table",
    "power_law_fit",
    "table3",
    "table4",
]
