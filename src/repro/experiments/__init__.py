"""Regeneration harness: one module per paper figure.

Each ``figN_*`` module exposes ``run(fast=True) -> ExperimentResult`` (or
a list of results for multi-panel figures).  The figures that evaluate
through an engine (fig5–fig11, ``heuristics``, ``workload``) also take
``executor=``, the :class:`~repro.parallel.SweepExecutor` whose engine,
cache, jobs and resilience settings they run under (none given: see
:func:`~repro.experiments.runner.default_executor`).  ``fast=True``
uses reduced iteration counts and sparser sweeps so the whole battery
finishes in minutes; ``fast=False`` runs the paper's full geometry.
Results render as ASCII tables carrying the same series the paper
plots, plus programmatic ``checks`` encoding the figure's qualitative
claims.

Run everything from the command line::

    python -m repro.experiments [--full] [fig5 fig6 ...]
"""

from repro.experiments.runner import Check, ExperimentResult, Series

__all__ = ["Check", "ExperimentResult", "Series"]
