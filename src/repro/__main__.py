"""Top-level CLI.

Subcommands::

    python -m repro info           # device spec + calibration table
    python -m repro demo           # streamed pipeline + Gantt + report
    python -m repro serve          # prediction-as-a-service HTTP server
    python -m repro experiments    # repro.experiments, argv untouched
"""

from __future__ import annotations

import argparse
import sys


def cmd_info() -> int:
    from repro.device.calibration import (
        calibration_report,
        fast_partition_counts,
    )
    from repro.device.spec import PHI_31SP

    spec = PHI_31SP
    print(f"device:  {spec.name}")
    print(
        f"  cores: {spec.num_cores} ({spec.usable_cores} usable, "
        f"{spec.threads_per_core} threads/core -> "
        f"{spec.total_threads} threads)"
    )
    print(f"  clock: {spec.clock_ghz} GHz, peak {spec.peak_gflops:.0f} GFLOP/s")
    print(
        f"  link:  {spec.link.bandwidth / 1e9:.1f} GB/s, "
        f"{spec.link.latency * 1e6:.0f} us latency, "
        f"{'full' if spec.link.full_duplex else 'half'}-duplex"
    )
    print(f"  memory: {spec.memory_bytes >> 30} GB")
    print(
        "  recommended partition counts: "
        f"{fast_partition_counts(spec)}"
    )
    print()
    print(calibration_report(spec))
    return 0


def cmd_demo() -> int:
    import numpy as np

    from repro import KernelWork, StreamContext
    from repro.metrics import scoped_registry
    from repro.trace import render_gantt, run_report

    with scoped_registry() as registry:
        ctx = StreamContext(places=4)
        n = 1 << 22
        data = ctx.buffer(np.ones(n, dtype=np.float32))
        out = ctx.buffer(np.zeros(n, dtype=np.float32))
        chunk = n // 4
        for i in range(4):
            stream = ctx.stream(i)
            lo = i * chunk
            stream.h2d(data, offset=lo, count=chunk)
            out.instantiate(stream.place.device)

            def fn(lo=lo, d=stream.place.device.index):
                out.instance(d)[lo : lo + chunk] = (
                    data.instance(d)[lo : lo + chunk] * 2
                )

            stream.invoke(
                KernelWork(
                    name=f"scale{i}",
                    flops=4.0 * chunk,
                    bytes_touched=8.0 * chunk,
                    thread_rate=0.2e9,
                ),
                fn=fn,
            )
            stream.d2h(out, offset=lo, count=chunk)
        ctx.sync_all()
        assert np.all(out.host == 2.0)

        print(render_gantt(ctx.trace))
        print()
        print(run_report(ctx.trace).to_table())
        ctx.record_metrics()
        block = registry.snapshot().format_block(prefix="hstreams.")
        if block:
            print()
            print("metrics:")
            for line in block.splitlines():
                print(f"  {line}")
    return 0


def cmd_serve(args) -> int:
    import asyncio
    import os

    from repro.serve import (
        HttpConfig,
        PredictionBackend,
        PredictionService,
        ServeConfig,
        run_prefork,
        run_server,
    )

    config = ServeConfig(
        batch_window=args.window_ms / 1e3,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        default_deadline=(
            None if args.deadline_ms == 0 else args.deadline_ms / 1e3
        ),
    )
    http_config = HttpConfig(
        keep_alive=not args.no_keep_alive,
        idle_timeout=args.idle_timeout,
        max_requests=args.max_requests_per_conn,
    )
    backend_kwargs = dict(
        engine=args.engine,
        store=args.engine_store,
        jobs=args.jobs if args.jobs is not None else 1,
    )
    workers = args.workers
    if workers == 0:
        workers = os.cpu_count() or 1

    def banner(host, port) -> None:
        print(f"repro.serve listening on http://{host}:{port}", flush=True)
        print(
            f"  engine={args.engine} workers={workers} "
            f"window={config.batch_window * 1e3:.1f}ms "
            f"max_batch={config.max_batch} "
            f"queue_limit={config.queue_limit}",
            flush=True,
        )

    if workers > 1:
        def prefork_ready(addr, plan) -> None:
            banner(addr[0], addr[1])
            print(
                f"  prefork: {plan.workers} workers, "
                f"socket mode {plan.mode}",
                flush=True,
            )

        rc = run_prefork(
            workers=workers,
            host=args.host,
            port=args.port,
            backend_kwargs=backend_kwargs,
            serve_config=config,
            http_config=http_config,
            drain_grace=args.drain_grace,
            ready=prefork_ready,
        )
        if rc == 0:
            print("repro.serve: drained, bye", flush=True)
        return rc

    backend = PredictionBackend(**backend_kwargs)
    service = PredictionService(backend, config)

    def ready(addr) -> None:
        banner(addr[0], addr[1])

    try:
        asyncio.run(
            run_server(
                service,
                host=args.host,
                port=args.port,
                ready=ready,
                drain_grace=args.drain_grace,
                http_config=http_config,
            )
        )
    except KeyboardInterrupt:  # pragma: no cover - signal path varies
        pass
    print("repro.serve: drained, bye", flush=True)
    return 0


def add_serve_parser(sub) -> None:
    """The ``serve`` subcommand flags (shared with ``repro.serve.__main__``)."""
    srv = sub.add_parser(
        "serve",
        help="run the prediction-as-a-service HTTP server",
        epilog="Request schemas, batching/deadline tuning and capacity "
        "notes: docs/SERVING.md.",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8351)
    srv.add_argument(
        "--window-ms",
        type=float,
        default=5.0,
        metavar="MS",
        help="longest a point request waits for batch-mates while a "
        "batch is being evaluated; with none in flight it dispatches "
        "at once (default 5)",
    )
    srv.add_argument(
        "--max-batch",
        type=int,
        default=64,
        metavar="N",
        help="specs per dispatched batch (default 64)",
    )
    srv.add_argument(
        "--queue-limit",
        type=int,
        default=1024,
        metavar="N",
        help="admitted-but-undispatched request bound; beyond it "
        "requests are shed with 429 (default 1024)",
    )
    srv.add_argument(
        "--deadline-ms",
        type=float,
        default=2000.0,
        metavar="MS",
        help="default per-request deadline; 0 disables (default 2000)",
    )
    srv.add_argument(
        "--engine",
        choices=["sim", "model", "hybrid", "learned"],
        default="hybrid",
        help="evaluation engine behind the batcher (default hybrid); "
        "'learned' answers confident points from the corpus-trained "
        "model with zero DES (see docs/LEARNED.md)",
    )
    srv.add_argument(
        "--engine-store",
        default=None,
        metavar="PATH",
        help="persistent certified-family store: a warm server answers "
        "certified families with zero DES calibration runs",
    )
    srv.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for simulation fallbacks (0 = all cores)",
    )
    srv.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="on SIGINT/SIGTERM, finish in-flight work for up to this "
        "long before exiting (default 10)",
    )
    srv.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="prefork worker processes sharing the listening socket; "
        "1 = single process (default), 0 = one per CPU core",
    )
    srv.add_argument(
        "--idle-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="close keep-alive connections idle for this long "
        "(default 30)",
    )
    srv.add_argument(
        "--max-requests-per-conn",
        type=int,
        default=1000,
        metavar="N",
        help="requests served per connection before the server closes "
        "it (default 1000)",
    )
    srv.add_argument(
        "--no-keep-alive",
        action="store_true",
        help="close every connection after one response "
        "(pre-keep-alive behaviour)",
    )


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["experiments"]:
        from repro.experiments.__main__ import main as experiments_main

        return experiments_main(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m repro")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="device spec and calibration anchors")
    sub.add_parser("demo", help="run a streamed pipeline, show Gantt+report")
    add_serve_parser(sub)
    # Listed for --help only: main() hands everything after
    # "experiments" to repro.experiments before parsing.
    sub.add_parser(
        "experiments",
        help="regenerate paper figures (see: experiments --help)",
    )
    args = parser.parse_args(argv)

    if args.command == "info":
        return cmd_info()
    if args.command == "demo":
        return cmd_demo()
    return cmd_serve(args)


if __name__ == "__main__":
    sys.exit(main())
