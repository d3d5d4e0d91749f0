"""Command-line entry point: regenerate the paper's figures as tables.

Usage::

    python -m repro.experiments                 # all figures, fast mode
    python -m repro.experiments --full fig9     # one figure, full geometry
    python -m repro.experiments fig9 --app mm --jobs 2   # one panel

Every invocation records its measurements into a scoped metrics
registry and writes a schema-versioned run manifest
(``results/<run>/manifest.json`` + the raw ``metrics.json``) — the
artefact the ``tests/findings`` golden-shape suite re-asserts the
paper's findings from.  ``--profile`` additionally embeds cProfile's
top-N hot functions.  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time

from repro.experiments import fig5_transfers, fig6_overlap, fig7_partitions
from repro.experiments import fig8_apps, fig9_partition_sweep
from repro.experiments import fig10_tile_sweep, fig11_multimic
from repro.experiments import energy, future_overlap, heuristics_search
from repro.experiments import microprobes, protocol, streams_per_place
from repro.experiments import workload_sweep
from repro.metrics import (
    RunManifest,
    git_describe,
    profile_capture,
    scoped_registry,
)

EXPERIMENTS = {
    "fig5": fig5_transfers.run,
    "fig6": fig6_overlap.run,
    "fig7": fig7_partitions.run,
    "fig8": fig8_apps.run,
    "fig9": fig9_partition_sweep.run,
    "fig10": fig10_tile_sweep.run,
    "fig11": fig11_multimic.run,
    "heuristics": heuristics_search.run,
    "future-overlap": future_overlap.run,
    "energy": energy.run,
    "streams-per-place": streams_per_place.run,
    "protocol": protocol.run,
    "microprobes": microprobes.run,
    "workload": workload_sweep.run,
}


EPILOG = """\
resilience options (see docs/RELIABILITY.md):
  --jobs N        fan sweep points over N worker processes; parallel
                  results are bit-identical to serial ones (0 = all
                  cores, default 1)
  --retries N     re-execute a failed sweep point up to N times before
                  giving up (worker crashes and hangs are recovered,
                  the pool is rebuilt)
  --checkpoint F  persist completed sweep points to F; re-running the
                  same command after an interrupt resumes where it
                  left off, re-executing only the missing points
  --fault-plan S  inject deterministic faults, e.g.
                  'seed=7;worker.crash:at=3' or 'transfer.h2d:p=0.01'
                  (for testing the recovery machinery)
  --on-error record
                  render failed points as gaps instead of aborting

example:
  python -m repro.experiments --jobs 8 --retries 2 \\
      --checkpoint results/fig9.ckpt fig9
"""


def _build_executor(args):
    """The invocation's one executor.

    Every engine-aware figure evaluates through it, so ``--jobs``, the
    engine (with ``--engine-store``), retries, the checkpoint, the fault
    plan and ``--on-error`` reach each figure alike, and its stats and
    checkpoint file span the whole invocation.
    """
    from repro.faults import FaultPlan
    from repro.parallel import (
        RetryPolicy,
        SweepCheckpoint,
        SweepExecutor,
        shared_cache,
    )

    return SweepExecutor(
        jobs=args.jobs,
        cache=shared_cache(),
        retry=(
            RetryPolicy(max_retries=args.retries)
            if args.retries is not None
            else None
        ),
        checkpoint=(
            SweepCheckpoint(args.checkpoint) if args.checkpoint else None
        ),
        fault_plan=(
            FaultPlan.parse(args.fault_plan) if args.fault_plan else None
        ),
        on_error=args.on_error,
        engine=args.engine,
        engine_store=args.engine_store,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures on the simulated platform.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "figures",
        nargs="*",
        choices=[[], *EXPERIMENTS],
        help="which figures to run (default: all)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the paper's full geometry instead of the fast presets",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="also render each figure as an ASCII chart",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for sweep-style figures "
        "(0 = all cores; default: 1, serial)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retry failed sweep points up to N times "
        "(default: no retries, first failure aborts the sweep)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="FILE",
        help="checkpoint completed sweep points to FILE and resume "
        "from it on the next run",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="SPEC",
        help="inject deterministic faults, e.g. 'seed=7;worker.crash:at=3' "
        "(exercises the recovery machinery)",
    )
    parser.add_argument(
        "--on-error",
        choices=["raise", "record"],
        default="raise",
        help="what to do when a sweep point exhausts recovery: abort "
        "(raise, default) or render it as a gap (record)",
    )
    parser.add_argument(
        "--engine",
        choices=["sim", "model", "hybrid", "learned"],
        default="sim",
        help="evaluation engine for sweep-style figures: the "
        "discrete-event simulation (sim, default), the analytic "
        "model (model), the model certified per sweep "
        "family against simulated calibration points with simulation "
        "fallback (hybrid), or the corpus-trained model behind an "
        "uncertainty gate (learned); see docs/PERF.md and "
        "docs/LEARNED.md",
    )
    parser.add_argument(
        "--engine-store",
        default=None,
        metavar="PATH",
        help="persist hybrid-engine certification verdicts to PATH (a "
        "JSON file or directory); a repeat invocation answers "
        "already-certified sweep families with zero DES calibration "
        "runs (see docs/PERF.md)",
    )
    parser.add_argument(
        "--app",
        action="append",
        default=None,
        metavar="NAME",
        dest="apps",
        help="restrict per-app figures (fig8/fig9/fig10) to one panel "
        "(mm, cf, kmeans, hotspot, nn, srad); repeatable",
    )
    parser.add_argument(
        "--workload",
        default=None,
        metavar="FILE",
        help="workload-spec JSON file for the 'workload' experiment "
        "(see docs/WORKLOADS.md; default: a generated scenario)",
    )
    parser.add_argument(
        "--results-dir",
        default="results",
        metavar="DIR",
        help="directory the run manifest is written under "
        "(default: results)",
    )
    parser.add_argument(
        "--run-name",
        default=None,
        metavar="NAME",
        help="manifest subdirectory name (default: the figure names, "
        "joined with '-')",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the whole invocation with cProfile and embed the "
        "top hot functions in the manifest",
    )
    args = parser.parse_args(argv)

    names = args.figures or list(EXPERIMENTS)
    with scoped_registry() as registry:
        executor = _build_executor(args)
        failed = 0
        experiments: list[dict] = []
        with profile_capture(enabled=args.profile) as profiled:
            for name in names:
                run_fn = EXPERIMENTS[name]
                params = inspect.signature(run_fn).parameters
                kwargs: dict[str, object] = {"fast": not args.full}
                if "executor" in params:
                    kwargs["executor"] = executor
                if args.apps and "apps" in params:
                    kwargs["apps"] = args.apps
                if args.workload and "workload" in params:
                    kwargs["workload"] = args.workload
                start = time.perf_counter()
                outcome = run_fn(**kwargs)
                elapsed = time.perf_counter() - start
                results = (
                    outcome if isinstance(outcome, list) else [outcome]
                )
                registry.histogram("experiment.figure_seconds").observe(
                    elapsed
                )
                for result in results:
                    result.record_metrics(registry)
                    experiments.append(
                        {
                            "experiment": result.experiment,
                            "title": result.title,
                            "checks_passed": sum(
                                1 for c in result.checks if c.passed
                            ),
                            "checks_failed": sum(
                                1 for c in result.checks if not c.passed
                            ),
                        }
                    )
                    print(result.report(plot=args.plot))
                    print()
                    if not result.all_checks_pass:
                        failed += 1
                print(f"[{name} finished in {elapsed:.1f}s]\n")
        print(f"[executor: {executor.stats.summary()}]")
        manifest_path = _write_manifest(
            args, names, registry, experiments, profiled.get("profile")
        )
        print(f"[manifest: {manifest_path}]")
    if failed:
        print(f"{failed} experiment panel(s) had failing checks")
        return 1
    return 0


def _write_manifest(args, names, registry, experiments, profile):
    """Assemble and write this invocation's run manifest."""
    from repro.device.calibration import model_fingerprint
    from repro.device.spec import PHI_31SP

    seed = None
    if args.fault_plan:
        from repro.faults import FaultPlan

        seed = FaultPlan.parse(args.fault_plan).seed
    run_name = args.run_name or "-".join(names)
    if args.apps:
        run_name += "-" + "-".join(args.apps)
    manifest = RunManifest(
        name=run_name,
        figures=list(names),
        fast=not args.full,
        jobs=args.jobs,
        engine=args.engine,
        config_fingerprint=model_fingerprint(PHI_31SP),
        metrics=registry.snapshot(),
        seed=seed,
        argv=list(sys.argv[1:]),
        experiments=experiments,
        profile=profile,
        git_describe=git_describe(),
    )
    import os

    return manifest.write(os.path.join(args.results_dir, run_name))


if __name__ == "__main__":
    sys.exit(main())
