"""Fixtures for the paper-findings golden-shape suite.

Each figure runs once per session and engine, in fast mode under a
scoped registry; the tests then assert the paper's findings F1–F10
(DESIGN.md §1) from the recorded ``experiment.value`` gauges alone —
the same data a run manifest carries.  That indirection is the point:
if the metrics stop being sufficient to reconstruct a figure, the suite
fails even when the underlying simulation is still correct.

The figure fixtures evaluate under the ``engine`` fixture's engine,
through one executor per engine shared by every figure (as the CLI
shares one per invocation).  ``engine`` is ``sim`` here;
``test_findings_engines`` overrides it to run the same tests under the
other engines.
"""

import functools

import pytest

from repro.experiments import (
    fig5_transfers,
    fig6_overlap,
    fig7_partitions,
    fig8_apps,
    fig9_partition_sweep,
    fig10_tile_sweep,
    fig11_multimic,
)
from repro.metrics import load_manifest, scoped_registry
from repro.parallel import SweepExecutor, shared_cache

FIGURES = {
    "fig5": fig5_transfers.run,
    "fig6": fig6_overlap.run,
    "fig7": fig7_partitions.run,
    "fig8": fig8_apps.run,
    "fig9": fig9_partition_sweep.run,
    "fig10": fig10_tile_sweep.run,
    "fig11": fig11_multimic.run,
}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "finding(id): tags a test with the paper finding (F1-F10) it "
        "re-asserts",
    )


@functools.cache
def engine_executor(engine):
    """The one executor every figure evaluates through under ``engine``."""
    return SweepExecutor(cache=shared_cache(), engine=engine)


@functools.cache
def figure_snapshot(figure, engine):
    """Run one figure driver under ``engine`` and return the metrics it
    recorded."""
    with scoped_registry() as registry:
        outcome = FIGURES[figure](
            fast=True, executor=engine_executor(engine)
        )
        results = outcome if isinstance(outcome, list) else [outcome]
        for result in results:
            result.record_metrics(registry)
        return registry.snapshot()


def series(snapshot, experiment, label):
    """One figure series as an ``x -> value`` dict (from gauges)."""
    out = snapshot.series(
        "experiment.value", "x", experiment=experiment, series=label
    )
    assert out, f"no {label!r} series recorded for {experiment}"
    return out


@pytest.fixture
def engine():
    return "sim"


@pytest.fixture
def fig5(engine):
    return figure_snapshot("fig5", engine)


@pytest.fixture
def fig6(engine):
    return figure_snapshot("fig6", engine)


@pytest.fixture
def fig7(engine):
    return figure_snapshot("fig7", engine)


@pytest.fixture
def fig8(engine):
    return figure_snapshot("fig8", engine)


@pytest.fixture
def fig9(engine):
    return figure_snapshot("fig9", engine)


@pytest.fixture
def fig10(engine):
    return figure_snapshot("fig10", engine)


@pytest.fixture
def fig11(engine):
    return figure_snapshot("fig11", engine)


@pytest.fixture(scope="session")
def fig9_mm_manifest(tmp_path_factory):
    """The acceptance-criterion invocation, loaded back from disk.

    Runs the documented command line end to end —
    ``python -m repro.experiments fig9 --app mm --jobs 2`` — against a
    temporary results directory and returns the manifest it wrote.
    """
    from repro.experiments.__main__ import main

    # a real CLI invocation starts with a cold cache; earlier tests in
    # this process may have primed the shared one, which would turn
    # executed points into cache hits and change the counters
    shared_cache().clear()
    results_dir = tmp_path_factory.mktemp("results")
    code = main(
        ["fig9", "--app", "mm", "--jobs", "2",
         "--results-dir", str(results_dir)]
    )
    assert code == 0
    return load_manifest(results_dir / "fig9-mm")
