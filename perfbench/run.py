"""The repository benchmark: one workload, one seed, one JSON result.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figures|tune|serve --seed N \
        --seconds S --trace 0|1

With ``--trace 0`` the workload runs its set-up three times, each in a
fresh interpreter, then its timed phase, checks every answer, and
prints every end-to-end metric.  With ``--trace 1`` it runs one
untraced pass and one pass with span wrappers installed in the process
under test, and prints every per-layer metric plus the tracing
overhead; the spans are kept as Chrome-trace JSON under ``.perfbench/``.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a readable report and a ``record`` line (git sha, source digest,
cpu count, Python version, seed, per-metric sample counts).  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
HARNESS = os.path.join(HERE, "harness")
sys.path.insert(0, HARNESS)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: A run that is still going after this many seconds (or that receives
#: SIGTERM) is abandoned: every child is stopped on the way out and no
#: result is printed.
DEADLINE_S = 170

#: The end-to-end metric that carries the tracing overhead per workload.
OVERHEAD_BASIS = {"figures": "wall_ref_s", "tune": "wall_ref_s",
                  "serve": "cpu_ref_ms_per_op"}


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, _dirs, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _git_sha(root: str) -> "str | None":
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _record(root, args, samples, notes) -> dict:
    return {
        "git_sha": _git_sha(root),
        "src_digest": _source_digest(root),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
        "notes": notes,
    }


def _untraced(workload, setups: int):
    p = workload.measure(setups)
    return p, p.metrics()


def run(args, root: str) -> "tuple[dict, dict]":
    # References and checks use the program's own DES, imported here
    # only after every timed phase has ended.
    sys.path.insert(1, os.path.join(root, "src"))
    from workloads import WORKLOADS, Context

    cache = os.path.join(root, ".perfbench")
    os.makedirs(cache, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=cache)
    ctx = Context(root, HARNESS, work, cache,
                  os.path.join(HERE, "refs"))
    try:
        workload = WORKLOADS[args.workload](ctx, args.seed, args.seconds)
        if not args.trace:
            p, e2e = _untraced(workload, SETUPS)
            print(f"perfbench {args.workload} seed={args.seed}: "
                  f"end-to-end metrics (tracing off; *_ref_* at the "
                  f"reference host speed)")
            for name, (value, unit, n) in e2e.items():
                print(f"  {name:<20} {value:>14.6g} {unit:<6} n={n}")
            print("as measured, before rescaling (not compared):")
            for name, (value, unit, n) in p.raw().items():
                print(f"  {name:<20} {value:>14.6g} {unit:<6} n={n}")
            result = {
                "correct": p.failed == 0,
                "attempted": p.attempted,
                "failed": p.failed,
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u, _n) in e2e.items()},
            }
            samples = {k: n for k, (_v, _u, n) in e2e.items()}
            notes = dict(p.notes, raw={k: v for k, (v, _u, _n)
                                       in p.raw().items()})
            return result, _record(root, args, samples, notes)
        return _traced(args, ctx, workload, cache)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _traced(args, ctx, workload, cache) -> "tuple[dict, dict]":
    import layers
    import spans

    base, base_e2e = _untraced(workload, 1)
    trace_path = os.path.join(
        cache, f"trace-{args.workload}-{args.seed}.json"
    )
    p = workload.measure(1, trace=trace_path)
    e2e = p.metrics()
    span_list, events, meta = spans.load(trace_path)
    per_layer = layers.analyze(span_list, events, meta, p.window,
                               p.setup_window)
    for key in ("lag_p50_ms", "lag_p90_ms", "connects"):
        if key in p.notes:
            per_layer[f"loadgen.{key}"] = p.notes[key]
    basis = OVERHEAD_BASIS[args.workload]
    per_layer["trace.overhead_pct"] = 100.0 * (
        e2e[basis][0] / base_e2e[basis][0] - 1.0
    )
    print(f"perfbench {args.workload} seed={args.seed}: tracing overhead "
          "(traced - untraced)")
    for name, (value, unit, _n) in e2e.items():
        before = base_e2e[name][0]
        print(f"  {name:<20} {before:>12.6g} -> {value:>12.6g} {unit:<6} "
              f"({value - before:+.6g})")
    print("per-layer metrics (timed phase unless named setup.*):")
    units = layers.METRICS
    for name in units:
        print(f"  {name:<24} {per_layer[name]:>14.6g} {units[name]}")
    print(f"  spans: {len(span_list)} in {trace_path}")
    result = {
        "correct": p.failed == 0 and base.failed == 0,
        "attempted": p.attempted + base.attempted,
        "failed": p.failed + base.failed,
        "metrics": {k: {"value": per_layer[k], "unit": u}
                    for k, u in units.items()},
    }
    samples = {"spans": len(span_list), "events": len(events)}
    return result, _record(ctx.root, args, samples, p.notes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=["figures", "tune", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from a checkout root holding src/repro",
              file=sys.stderr)
        return 2

    def abandon(signum, _frame):
        raise TimeoutError(f"run abandoned ({signal.Signals(signum).name})")

    signal.signal(signal.SIGALRM, abandon)
    signal.signal(signal.SIGTERM, abandon)
    signal.alarm(DEADLINE_S)
    result, record = run(args, root)
    signal.alarm(0)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
