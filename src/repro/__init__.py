"""ParallAX reproduction: real-time physics workload + architecture simulator.

The package splits into two halves mirroring the paper's methodology:

* the *workload* — a from-scratch constraint-based rigid-body + cloth
  engine (``repro.math3d``, ``repro.geometry``, ``repro.collision``,
  ``repro.dynamics``, ``repro.cloth``, ``repro.engine``), the benchmark
  scenes of Table 3 (``repro.workloads``), and the per-phase
  instrumentation the architecture study consumes (``repro.profiling``);
* the *architecture model* (``repro.arch``, ``repro.analysis``) — the
  cache/core/interconnect timing models, rebuilt in a follow-up PR.

Cross-cutting: ``repro.resilience`` hardens long-running simulations —
deterministic checkpoints and a per-step watchdog with
rollback-and-degrade recovery.
"""

__version__ = "1.0.0"
