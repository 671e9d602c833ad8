"""Benchmarks, scene builders, run harness, and validation."""

from . import scenes
from .benchmarks import (
    BENCHMARKS,
    Benchmark,
    BenchmarkRun,
    get_benchmark,
    run_all,
)
from .validation import ValidationReport, validate_world

__all__ = [
    "scenes",
    "BENCHMARKS",
    "Benchmark",
    "BenchmarkRun",
    "get_benchmark",
    "run_all",
    "ValidationReport",
    "validate_world",
]
