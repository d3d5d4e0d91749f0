"""The process under test for ``figures`` and ``tune``, and the server
entry point for ``serve``.

Run from the checkout root with ``src`` and this directory on
``PYTHONPATH``::

    python3 perfbench/harness/child.py figures --inputs IN.json \
        --role run --out OUT.json [--trace TRACE.json]
    python3 perfbench/harness/child.py serve --out SLICES.json \
        [--trace TRACE.json] -- serve --engine-store STORE --port 0

Each ``figures``/``tune`` process starts from a fresh interpreter, sets
up, prints ``READY`` on stdout, and (with ``--role run``) runs the timed
phase, with reference slices (:mod:`speed`) between its operations, and
writes its measurements to ``--out``.  ``serve`` runs the program's own
CLI in-process and writes its reference slices to ``--out`` at exit.
With ``--trace`` the span wrappers of :mod:`layers` are installed right
after ``import repro`` and the spans are written, as Chrome-trace JSON,
when the process exits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
from time import perf_counter

from gen import APP_NAMES, APPS, P_VALUES, hot_d
from speed import Slices
from spans import Tracer
from stats import peak_rss_mb


def _import_repro(tracer) -> None:
    t0 = perf_counter()
    import repro  # noqa: F401  (timed: the start-up layer)

    if tracer is not None:
        tracer.meta["import_repro_s"] = perf_counter() - t0


def _ready() -> None:
    print("READY", flush=True)


def _runs_executed() -> float:
    from repro.metrics.registry import get_registry

    return sum(
        c["value"]
        for c in get_registry().snapshot().to_dict()["counters"]
        if c["name"] == "executor.runs_executed"
    )


def figures(inputs: dict, role: str) -> "dict | None":
    """The fast-preset battery, run as ``python -m repro.experiments``
    runs it (default engine, ``--jobs 1``).  Its operation is one DES
    event: each simulated app run reports its start, host time and DES
    events.  Reference slices run between app runs (see :mod:`speed`)."""
    import repro.experiments.__main__ as cli
    import repro.hstreams.context as context
    from repro.apps.base import StreamedApp

    events = [0]
    record_environment = context.record_environment

    def count_events(env):
        events[0] += env.events_processed
        return record_environment(env)

    context.record_environment = count_events
    slices = Slices()
    app_runs: list = []  # [start, seconds, events]
    run = StreamedApp.run

    def timed_run(self, *args, **kwargs):
        slices.maybe()
        e0, t0 = events[0], perf_counter()
        try:
            return run(self, *args, **kwargs)
        finally:
            n = events[0] - e0
            if n:
                app_runs.append([t0, perf_counter() - t0, n])

    StreamedApp.run = timed_run
    _ready()
    if role == "setup":
        return None
    argv = ["--results-dir", inputs["results_dir"], "--run-name", "battery",
            "--workload", inputs["scenario_file"]]
    slices.warm()
    with open(inputs["stdout_file"], "w", encoding="utf-8") as fh:
        with contextlib.redirect_stdout(fh):
            slices.take()
            rc = cli.main(argv)
            slices.take()
    return {"rc": rc, "slices": slices.marks, "app_runs": app_runs,
            "ops": events[0], "peak_rss_mb": peak_rss_mb()}


def tune(inputs: dict, role: str) -> "dict | None":
    """One in-process caller of ``PredictionBackend`` in a closed loop:
    certify the six app families through the DES (on each app's
    smallest tiling, where a calibration run is cheapest), then answer
    the seeded queries one after another."""
    from repro.serve.api import APP_PROFILES
    from repro.serve.backend import PredictionBackend

    backend = PredictionBackend(engine="hybrid", store=inputs["store"])
    for app in APP_NAMES:
        t = APPS[app][1][0]
        d = hot_d(app, [t], 1.0)
        backend.evaluate(
            [APP_PROFILES[app].spec(p, t, d) for p in P_VALUES]
        )
    _ready()
    if role == "setup":
        return None

    answers, queries = [], []  # queries: [start, seconds]
    slices = Slices()
    slices.warm()
    runs_before = _runs_executed()
    slices.take()
    for q in inputs["queries"]:
        slices.maybe()
        profile = APP_PROFILES[q["app"]]
        start = perf_counter()
        try:
            if q["kind"] == "autotune":
                best = backend.autotune({
                    "profile": profile, "d": q["D"], "p_values": q["P"],
                    "t_values": q["T"], "verify_top_k": 3,
                })
                answer = {"P": best["best"]["P"], "T": best["best"]["T"],
                          "s": best["best_seconds"]}
            else:
                runs = backend.evaluate([
                    profile.spec(p, t, q["D"]) for p in q["P"] for t in q["T"]
                ])
                answer = {"s": [r.elapsed for r in runs]}
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            answer = {"error": f"{type(exc).__name__}: {exc}"}
        queries.append([start, perf_counter() - start])
        answers.append(answer)
    slices.take()
    return {"slices": slices.marks, "queries": queries,
            "answers": answers, "peak_rss_mb": peak_rss_mb(),
            "des_runs_timed": _runs_executed() - runs_before}


def serve(argv: list, slices_path: str, trace_path: "str | None") -> int:
    """``python -m repro`` run in-process, with a reference slice on
    every SIGUSR1 (the load generator sends one only while no request is
    in flight or due) and, with ``trace_path``, the span wrappers."""
    slices = Slices()
    slices.warm()
    signal.signal(signal.SIGUSR1, lambda _signum, _frame: slices.take())
    tracer = Tracer() if trace_path else None
    _import_repro(tracer)
    from repro.__main__ import main

    if tracer is not None:
        import layers

        layers.install(tracer, serve=True)
    try:
        return main(argv)
    finally:
        with open(slices_path, "w", encoding="utf-8") as fh:
            json.dump(slices.marks, fh)
        if tracer is not None:
            tracer.write(trace_path)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    rest = []
    if "--" in argv:
        cut = argv.index("--")
        argv, rest = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(prog="perfbench child")
    parser.add_argument("workload", choices=["figures", "tune", "serve"])
    parser.add_argument("--inputs")
    parser.add_argument("--role", choices=["setup", "run"], default="run")
    parser.add_argument("--out")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)
    if args.workload == "serve":
        return serve(rest, args.out, args.trace)

    tracer = Tracer() if args.trace else None
    _import_repro(tracer)
    if tracer is not None:
        import layers

        layers.install(tracer, experiments=args.workload == "figures",
                       backend=args.workload == "tune")
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    run = figures if args.workload == "figures" else tune
    result = run(inputs, args.role)
    if result is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    if tracer is not None and args.role == "run":
        tracer.write(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
