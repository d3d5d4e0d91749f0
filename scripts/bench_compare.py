#!/usr/bin/env python
"""Benchmark-throughput regression gate.

Runs one benchmark suite under pytest-benchmark with
``--benchmark-autosave``, then compares the fresh save against the
previous one (or against the checked-in baseline when no previous save
exists) and fails when any benchmark's mean time regresses by more
than the threshold.

Suites (``--suite``):

* ``engine`` (default) — ``benchmarks/bench_engine.py`` against
  ``BENCH_engine.json`` (DES core throughput canaries);
* ``model`` — ``benchmarks/bench_model.py`` against
  ``BENCH_model.json`` (sim vs model vs hybrid over the fig9-mm full
  grid; the committed baseline records the hybrid speedup);
* ``grid`` — ``benchmarks/bench_grid.py`` against ``BENCH_grid.json``
  (warm and cold hybrid sweeps and the pure grid evaluation of the
  fig9-mm full grid; the bench checks the grid's answers against the
  pinned model answers);
* ``calibration`` — ``benchmarks/bench_calibration.py`` against
  ``BENCH_calibration.json`` (cold vs store-warm hybrid certification
  on the fig9-mm full grid; the committed baseline records the
  calibration speedup and the zero-DES-runs warm contract);
* ``serve`` — ``benchmarks/bench_serve.py`` against
  ``BENCH_serve.json`` (batched-wave vs sequential serving over the
  fig9-mm grid on a warm backend; the committed baseline records the
  batched speedup, p50/p99 latencies and requests per second);
* ``learned`` — ``benchmarks/bench_learned.py`` against
  ``BENCH_learned.json`` (the learned tier's headline gates: within-5%
  autotune picks at <= 1/8 the pruned search's DES evaluations, and
  >= 10x faster cold uncertified point answers vs hybrid's DES
  fallback; see ``docs/LEARNED.md``).

Multi-CPU benchmarks (the ones recording a ``cpu_count`` in their
``extra_info``, e.g. ``test_serve_multiworker_scaling``) are only
meaningful on multi-core machines: when either side of a comparison
ran with ``cpu_count < 2`` the entry is *skipped with a printed note*
rather than silently passed or failed, and the baseline should be
re-recorded on multi-CPU CI (``--rebaseline``).

Usage::

    python scripts/bench_compare.py                  # run + compare
    python scripts/bench_compare.py --fail-above 10  # stricter gate
    python scripts/bench_compare.py --suite model    # engine comparison
    python scripts/bench_compare.py --rebaseline     # refresh baseline

Every suite's baseline JSON is committed at the repo root.  If the
named suite's baseline is missing, the gate exits non-zero immediately
(before spending minutes benchmarking) and tells you to record one
with ``--rebaseline`` — a silent pass against no reference is not a
gate.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
STORAGE = REPO_ROOT / ".benchmarks"

#: Suite name -> (benchmark file, committed baseline).
SUITES = {
    "engine": ("bench_engine.py", "BENCH_engine.json"),
    "model": ("bench_model.py", "BENCH_model.json"),
    "grid": ("bench_grid.py", "BENCH_grid.json"),
    "calibration": ("bench_calibration.py", "BENCH_calibration.json"),
    "serve": ("bench_serve.py", "BENCH_serve.json"),
    "learned": ("bench_learned.py", "BENCH_learned.json"),
}


def run_bench(bench_file: str) -> Path:
    """Run one bench suite with autosave; return the new save file."""
    before = set(STORAGE.rglob("*.json")) if STORAGE.exists() else set()
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        str(REPO_ROOT / "benchmarks" / bench_file),
        "--benchmark-only",
        "--benchmark-autosave",
        f"--benchmark-storage={STORAGE}",
        "-q",
    ]
    env_path = str(REPO_ROOT / "src")
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = env_path + (
        ":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
    if result.returncode != 0:
        sys.exit(f"benchmark run failed (exit {result.returncode})")
    after = set(STORAGE.rglob("*.json"))
    new = sorted(after - before)
    if not new:
        sys.exit("pytest-benchmark produced no autosave file")
    return new[-1]


def load_means(path: Path) -> dict[str, float]:
    data = json.loads(path.read_text(encoding="utf-8"))
    return {
        bench["name"]: bench["stats"]["mean"]
        for bench in data["benchmarks"]
    }


def load_cpu_counts(path: Path) -> dict[str, int]:
    """Per-benchmark ``cpu_count`` from ``extra_info``, where recorded
    (only benchmarks whose numbers depend on having real cores record
    one, e.g. the multiworker scaling bench)."""
    data = json.loads(path.read_text(encoding="utf-8"))
    counts = {}
    for bench in data["benchmarks"]:
        cpu_count = bench.get("extra_info", {}).get("cpu_count")
        if cpu_count is not None:
            counts[bench["name"]] = int(cpu_count)
    return counts


def previous_save(current: Path) -> Path | None:
    saves = sorted(p for p in STORAGE.rglob("*.json") if p != current)
    return saves[-1] if saves else None


def compare(
    reference: Path, current: Path, threshold_pct: float
) -> int:
    ref_means = load_means(reference)
    cur_means = load_means(current)
    ref_cpus = load_cpu_counts(reference)
    cur_cpus = load_cpu_counts(current)
    print(f"reference: {reference}")
    print(f"current:   {current}\n")
    failures = []
    for name, cur_mean in sorted(cur_means.items()):
        ref_mean = ref_means.get(name)
        if ref_mean is None:
            print(f"  {name}: NEW (no reference)")
            continue
        ref_cpu = ref_cpus.get(name)
        cur_cpu = cur_cpus.get(name)
        if (ref_cpu is not None and ref_cpu < 2) or (
            cur_cpu is not None and cur_cpu < 2
        ):
            # A multiworker number measured without multiple cores is
            # vacuous (speedup ~1 by construction): say so out loud
            # instead of silently passing, and rebaseline on real CI.
            print(
                f"  {name}: SKIPPED — needs >= 2 CPUs "
                f"(baseline cpu_count={ref_cpu}, "
                f"current cpu_count={cur_cpu}); rebaseline on "
                f"multi-CPU CI with --rebaseline"
            )
            continue
        # Throughput ratio: >1 is faster than the reference.
        speedup = ref_mean / cur_mean
        change = 100.0 * (cur_mean - ref_mean) / ref_mean
        status = "ok"
        if change > threshold_pct:
            status = "REGRESSION"
            failures.append((name, change))
        print(
            f"  {name}: mean {cur_mean * 1e3:.2f} ms "
            f"(ref {ref_mean * 1e3:.2f} ms, {change:+.1f}% time, "
            f"{speedup:.2f}x throughput) {status}"
        )
    if failures:
        print(
            f"\n{len(failures)} benchmark(s) regressed more than "
            f"{threshold_pct:.0f}%:"
        )
        for name, change in failures:
            print(f"  {name}: {change:+.1f}%")
        return 1
    print("\nno regressions beyond threshold")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--threshold",
        "--fail-above",
        dest="threshold",
        type=float,
        default=20.0,
        metavar="PCT",
        help="fail when any benchmark's mean time regresses by more "
        "than PCT percent (default 20)",
    )
    parser.add_argument(
        "--suite",
        choices=sorted(SUITES),
        default="engine",
        help="which benchmark suite to run (default: engine)",
    )
    parser.add_argument(
        "--rebaseline",
        action="store_true",
        help="overwrite the suite's committed baseline with this run",
    )
    args = parser.parse_args()

    bench_file, baseline_name = SUITES[args.suite]
    baseline = REPO_ROOT / baseline_name
    if not baseline.exists() and not args.rebaseline:
        print(
            f"error: no baseline for suite '{args.suite}': "
            f"{baseline} does not exist.\n"
            f"Record one first with:\n"
            f"  python scripts/bench_compare.py --suite {args.suite} "
            f"--rebaseline",
            file=sys.stderr,
        )
        return 2
    current = run_bench(bench_file)
    if args.rebaseline:
        shutil.copyfile(current, baseline)
        print(f"baseline recorded: {baseline}")
    reference = previous_save(current) or baseline
    return compare(reference, current, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
