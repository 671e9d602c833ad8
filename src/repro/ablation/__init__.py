"""Ablation studies: :mod:`repro.ablation.studies`.

Five studies, one command: ``python -m repro.analysis`` writes
``results/ablation_*.txt`` with every other table and
``tests/test_paper_shapes.py`` pins them byte for byte.  Four isolate
one mechanism in a purpose-built scene; ``ablation_matrix`` toggles
each engine/arch feature once on the eight Table 3 workloads and
scores it in modeled fps.  See ``docs/ablation.md``.
"""
