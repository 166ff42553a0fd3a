"""Experiment harness: one driver per paper figure/table.

Every driver exposes ``run(preset=...) -> report`` returning a
structured report object whose ``render()`` prints the same rows/series
the paper reports, plus a module-level ``main()`` for CLI use.  The
``"bench"`` preset is CPU-sized (reduced resolution / population /
horizon); ``"paper"`` matches the paper's §IV-A.2 settings and is
correspondingly slow on a pure-numpy substrate.
The package imports none of its modules (so ``python -m
repro.experiments.runner`` imports the runner once).
"""
