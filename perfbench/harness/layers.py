"""Span wrappers around each layer's public entry points, and the
per-layer metrics computed from the spans they record.

:func:`install` patches the program's classes and module attributes in
the running process only; nothing under ``src/`` changes.  Each wrapper
opens a span around the original call and, where the layer has a count
worth keeping, stores it on the span.

Layers and the spans that stand for them:

============  ===============================================================
DES           ``sim.run`` (``StreamedApp.run``; its DES events and hStreams
              actions are counted onto it), ``runspec.execute``
              (``RunSpec.execute``)
cache         ``cache.get`` / ``cache.get_many`` (``SimulationCache``)
executor      ``executor.map`` (``SweepExecutor.map``), ``executor.map_sim``
              (the simulation pass engines call back into)
hybrid/store  ``hybrid.map`` (``HybridEngine.map``), ``store.get``
grid          ``grid.build`` (``GridPlan.build``; lowers a family on a
              family-cache miss), ``grid.lower_point`` (the per-P schedule
              a new (family, P) point needs), ``grid.predict_runs``
autotune      ``autotune.search`` (``run_search``)
workload      ``workload.parse`` (``WorkloadSpec.from_dict``)
experiments   ``experiments.figure`` (each figure driver)
serve         ``http.handle`` (``handle_request``), ``serve.submit``
              (``PredictionService.submit``), ``serve.dispatch``
              (``dispatch_batch`` in the worker thread); ``serve.admit`` and
              ``serve.batch`` instant events from ``Batcher.submit`` /
              ``Batcher.poll``
backend       ``backend.evaluate`` (``PredictionBackend.evaluate``)
============  ===============================================================
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import sys

from spans import covered, self_times
from stats import median

#: Per-layer metric names and units, in report order.
METRICS = {
    "import.repro_s": "s",
    "setup.sim_runs": "count",
    "setup.sim_busy_s": "s",
    "setup.calibration_runs": "count",
    "sim.runs": "count",
    "sim.busy_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "hstreams.actions": "count",
    "cache.lookups": "count",
    "cache.hit_ratio": "ratio",
    "executor.calls": "count",
    "executor.points": "count",
    "executor.self_s": "s",
    "executor.retries": "count",
    "hybrid.self_s": "s",
    "hybrid.model_ratio": "ratio",
    "hybrid.calibration_runs": "count",
    "store.hits": "count",
    "store.misses": "count",
    "grid.build_s": "s",
    "grid.eval_s": "s",
    "grid.points_array": "count",
    "grid.points_scalar": "count",
    "autotune.queries": "count",
    "autotune.self_s": "s",
    "autotune.des_runs": "count",
    "workload.parse_s": "s",
    "experiments.self_s": "s",
    "http.requests": "count",
    "http.self_s": "s",
    "serve.window_wait_ms": "ms",
    "serve.handoff_wait_ms": "ms",
    "serve.batch_size": "count",
    "serve.coalesced_ratio": "ratio",
    "serve.shed": "count",
    "backend.evaluate_s": "s",
    "loadgen.lag_p50_ms": "ms",
    "loadgen.lag_p90_ms": "ms",
    "loadgen.connects": "count",
    "trace.overhead_pct": "%",
}

DES_SPANS = ("sim.run", "runspec.execute")

_request_id: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None
)


def _span(tracer, name, fn, annotate=None, before=None):
    """Wrap a plain callable in a span.  ``before(attrs, args, kwargs)``
    runs at entry, ``annotate(attrs, args, kwargs, result)`` on return."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        handle = tracer.begin(name)
        try:
            if before is not None:
                before(handle[3], args, kwargs)
            result = fn(*args, **kwargs)
            if annotate is not None:
                annotate(handle[3], args, kwargs, result)
            return result
        finally:
            tracer.end(handle)

    return wrapper


def _span_async(tracer, name, fn, before=None):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        handle = tracer.begin(name)
        try:
            if before is not None:
                before(handle[3], args, kwargs)
            return await fn(*args, **kwargs)
        finally:
            tracer.end(handle)

    return wrapper


def _actions() -> float:
    """``hstreams.actions`` so far in the active metrics registry (a run
    records into its own scoped registry, so a delta across one
    ``StreamedApp.run`` is that run's action count)."""
    from repro.metrics.registry import get_registry

    return sum(
        c["value"] for c in get_registry().snapshot().to_dict()["counters"]
        if c["name"] == "hstreams.actions"
    )


def _replace_everywhere(original, replacement) -> None:
    """Point every loaded ``repro`` module attribute bound to
    ``original`` (including ``from ... import`` copies) at
    ``replacement``."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_method(tracer, cls, attr, name, **hooks):
    setattr(cls, attr, _span(tracer, name, getattr(cls, attr), **hooks))


def _patch_classmethod(tracer, cls, attr, name, **hooks):
    func = vars(cls)[attr].__func__
    setattr(cls, attr, classmethod(_span(tracer, name, func, **hooks)))


def install(tracer, experiments: bool = False, backend: bool = False,
            serve: bool = False) -> None:
    """Install the span wrappers (call after ``import repro``).  The
    figure drivers, the prediction backend and the serve layers are
    wrapped only when asked for, so a workload imports nothing extra."""
    import repro.autotune.search as search
    import repro.engine.engines as engines
    import repro.engine.grid as grid
    import repro.engine.store as store
    import repro.hstreams.context as context
    import repro.parallel.cache as cache
    import repro.parallel.executor as executor
    import repro.workload.spec as wspec
    from repro.apps.base import StreamedApp
    from repro.parallel.runspec import RunSpec

    # -- DES -------------------------------------------------------------
    def actions_before(attrs, args, kwargs):
        attrs["_a"] = _actions()

    def actions_after(attrs, args, kwargs, result):
        attrs["actions"] = _actions() - attrs.pop("_a")

    _patch_method(tracer, StreamedApp, "run", "sim.run",
                  before=actions_before, annotate=actions_after)
    _patch_method(tracer, RunSpec, "execute", "runspec.execute")
    record_environment = context.record_environment

    def record_env(env):
        tracer.bump("sim.run", "events", getattr(env, "events_processed", 0))
        return record_environment(env)

    context.record_environment = record_env

    # -- cache -----------------------------------------------------------
    def cache_before(attrs, args, kwargs):
        stats = args[0].stats
        attrs["_h"], attrs["_m"] = stats.hits, stats.misses

    def cache_after(attrs, args, kwargs, result):
        stats = args[0].stats
        hits = stats.hits - attrs.pop("_h")
        attrs["lookups"] = hits + stats.misses - attrs.pop("_m")
        attrs["hits"] = hits

    for attr in ("get", "get_many"):
        _patch_method(tracer, cache.SimulationCache, attr, f"cache.{attr}",
                      before=cache_before, annotate=cache_after)

    # -- executor --------------------------------------------------------
    def map_before(attrs, args, kwargs):
        attrs["_r"] = args[0].stats.retries

    def map_after(attrs, args, kwargs, result):
        attrs["points"] = len(result)
        attrs["retries"] = args[0].stats.retries - attrs.pop("_r")

    _patch_method(tracer, executor.SweepExecutor, "map", "executor.map",
                  before=map_before, annotate=map_after)

    def map_sim_before(attrs, args, kwargs):
        attrs["calibration"] = bool(kwargs.get("inline")) and (
            tracer.enclosing("hybrid.map") is not None
        )

    _patch_method(tracer, executor.SweepExecutor, "_map_sim",
                  "executor.map_sim", before=map_sim_before)

    # -- hybrid engine and store -----------------------------------------
    def hybrid_after(attrs, args, kwargs, result):
        attrs["points"] = len(result)
        attrs["model_points"] = sum(
            1 for r in result if getattr(r, "engine", "sim") == "model"
        )

    _patch_method(tracer, engines.HybridEngine, "map", "hybrid.map",
                  annotate=hybrid_after)
    _patch_method(
        tracer, store.EngineStore, "get", "store.get",
        annotate=lambda attrs, a, k, r: attrs.update(hit=r is not None),
    )

    # -- grid ------------------------------------------------------------
    _patch_classmethod(tracer, grid.GridPlan, "build", "grid.build")
    _patch_method(tracer, grid._CompiledFamily, "_build_point",
                  "grid.lower_point")

    def predict_after(attrs, args, kwargs, result):
        plan = args[0]
        for fam in plan.families:
            key = "array" if fam.route == "array" else "scalar"
            attrs[key] = attrs.get(key, 0) + len(fam.indices)

    _patch_method(tracer, grid.GridPlan, "predict_runs", "grid.predict_runs",
                  annotate=predict_after)

    # -- autotune and workload specs -------------------------------------
    _replace_everywhere(
        search.run_search, _span(tracer, "autotune.search", search.run_search)
    )
    _patch_classmethod(tracer, wspec.WorkloadSpec, "from_dict",
                       "workload.parse")

    if experiments:
        import repro.experiments.__main__ as cli

        for key, fn in list(cli.EXPERIMENTS.items()):
            cli.EXPERIMENTS[key] = _span(tracer, "experiments.figure", fn)
    if backend or serve:
        import repro.serve.backend as serve_backend

        _patch_method(tracer, serve_backend.PredictionBackend, "evaluate",
                      "backend.evaluate")
    if serve:
        _install_serve(tracer)


def _install_serve(tracer) -> None:
    import repro.serve.core as core
    import repro.serve.http as http
    import repro.serve.service as service

    requests = itertools.count(1)
    batches = itertools.count(1)

    def tag_request(attrs, args, kwargs):
        attrs["req"] = next(requests)
        _request_id.set(attrs["req"])

    http.handle_request = _span_async(
        tracer, "http.handle", http.handle_request, before=tag_request
    )
    service.PredictionService.submit = _span_async(
        tracer, "serve.submit", service.PredictionService.submit,
        before=lambda attrs, a, k: attrs.update(req=_request_id.get()),
    )

    batcher_submit = core.Batcher.submit

    def submit(self, kind, specs, *args, **kwargs):
        try:
            ticket = batcher_submit(self, kind, specs, *args, **kwargs)
        except core.Shed:
            tracer.event("serve.shed")
            raise
        tracer.event("serve.admit", ticket=ticket.id, kind=kind,
                     req=_request_id.get())
        return ticket

    core.Batcher.submit = submit
    batcher_poll = core.Batcher.poll

    def poll(self, now):
        batch_list, shed = batcher_poll(self, now)
        for _ in shed:
            tracer.event("serve.shed")
        for batch in batch_list:
            batch.perfbench_id = next(batches)
            tracer.event(
                "serve.batch", batch=batch.perfbench_id,
                tickets=[t.id for t in batch.tickets],
                kinds=[t.kind for t in batch.tickets],
                specs=len(batch.specs),
            )
        return batch_list, shed

    core.Batcher.poll = poll

    def dispatch_before(attrs, args, kwargs):
        batch = args[0]
        attrs["batch"] = getattr(batch, "perfbench_id", None)
        attrs["links"] = [t.id for t in batch.tickets]

    service.dispatch_batch = _span(
        tracer, "serve.dispatch", service.dispatch_batch,
        before=dispatch_before,
    )


# -- analysis -----------------------------------------------------------------


def analyze(spans, events, meta, window, setup_window=None) -> dict:
    """Per-layer metrics over the spans that start inside ``window``
    (``(start, end)`` seconds); the ``setup.*`` trio covers
    ``setup_window``.  Layers that did not run read 0."""
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)

    def ancestors(span):
        parent = span[4]
        while parent is not None and parent in by_id:
            span = by_id[parent]
            yield span
            parent = span[4]

    def inside(span, win):
        return win is not None and win[0] <= span[2] <= win[1]

    def named(name, win=window):
        return [s for s in spans if s[1] == name and inside(s, win)]

    def total(name, key=None, win=window):
        picked = named(name, win)
        if key is None:
            return sum(s[3] - s[2] for s in picked)
        return sum(s[6].get(key, 0) for s in picked)

    def self_sum(*names):
        return sum(selfs[s[0]] for n in names for s in named(n))

    def busy(win):
        intervals = [(s[2], s[3]) for n in DES_SPANS for s in named(n, win)]
        return covered(intervals, win[0], win[1]) if intervals else 0.0

    def under(span, name, **attrs):
        return any(
            a[1] == name and all(a[6].get(k) == v for k, v in attrs.items())
            for a in ancestors(span)
        )

    def ratio(num, den):
        return num / den if den else 0.0

    out = dict.fromkeys(METRICS, 0.0)
    out["import.repro_s"] = meta.get("import_repro_s", 0.0)
    if setup_window is not None:
        out["setup.sim_runs"] = len(named("sim.run", setup_window))
        out["setup.sim_busy_s"] = busy(setup_window)
        out["setup.calibration_runs"] = sum(
            1 for s in named("sim.run", setup_window)
            if under(s, "executor.map_sim", calibration=True)
        )
    runs = named("sim.run")
    out["sim.runs"] = len(runs)
    out["sim.busy_s"] = busy(window)
    out["sim.events"] = total("sim.run", "events")
    out["sim.events_per_s"] = ratio(out["sim.events"], out["sim.busy_s"])
    out["hstreams.actions"] = total("sim.run", "actions")
    lookups = total("cache.get", "lookups") + total("cache.get_many", "lookups")
    hits = total("cache.get", "hits") + total("cache.get_many", "hits")
    out["cache.lookups"] = lookups
    out["cache.hit_ratio"] = ratio(hits, lookups)
    out["executor.calls"] = len(named("executor.map"))
    out["executor.points"] = total("executor.map", "points")
    out["executor.self_s"] = self_sum("executor.map", "executor.map_sim")
    out["executor.retries"] = total("executor.map", "retries")
    out["hybrid.self_s"] = self_sum("hybrid.map")
    out["hybrid.model_ratio"] = ratio(
        total("hybrid.map", "model_points"), total("hybrid.map", "points")
    )
    out["hybrid.calibration_runs"] = sum(
        1 for s in runs if under(s, "executor.map_sim", calibration=True)
    )
    gets = named("store.get")
    out["store.hits"] = sum(1 for s in gets if s[6].get("hit"))
    out["store.misses"] = len(gets) - out["store.hits"]
    out["grid.build_s"] = total("grid.build") + total("grid.lower_point")
    out["grid.eval_s"] = self_sum("grid.predict_runs")
    out["grid.points_array"] = total("grid.predict_runs", "array")
    out["grid.points_scalar"] = total("grid.predict_runs", "scalar")
    out["autotune.queries"] = len(named("autotune.search"))
    out["autotune.self_s"] = self_sum("autotune.search")
    out["autotune.des_runs"] = sum(
        1 for s in runs if under(s, "autotune.search")
    )
    out["workload.parse_s"] = total("workload.parse")
    out["experiments.self_s"] = self_sum("experiments.figure")
    out["http.requests"] = len(named("http.handle"))
    out["http.self_s"] = self_sum("http.handle")
    out["backend.evaluate_s"] = total("backend.evaluate")
    out.update(_serve_waits(spans, events, window))
    return out


def _serve_waits(spans, events, window) -> dict:
    """Batching metrics: admission -> dispatch (window wait), dispatch ->
    worker-thread entry (handoff wait), batch sizes, coalescing, sheds."""
    lo, hi = window
    admitted = {}
    batch_at = {}
    window_waits, sizes = [], []
    predict_tickets = coalesced = shed = 0
    for t, name, attrs in sorted(events, key=lambda e: e[0]):
        if name == "serve.admit":
            admitted[attrs["ticket"]] = t
        elif name == "serve.shed" and lo <= t <= hi:
            shed += 1
        elif name == "serve.batch":
            batch_at[attrs["batch"]] = t
            if not lo <= t <= hi:
                continue
            sizes.append(attrs["specs"])
            for ticket, kind in zip(attrs["tickets"], attrs["kinds"]):
                if ticket in admitted:
                    window_waits.append(t - admitted[ticket])
                if kind == "predict":
                    predict_tickets += 1
                    coalesced += len(attrs["tickets"]) > 1
    handoffs = [
        s[2] - batch_at[s[6]["batch"]]
        for s in spans
        if s[1] == "serve.dispatch" and lo <= s[2] <= hi
        and s[6].get("batch") in batch_at
    ]
    return {
        "serve.window_wait_ms": 1e3 * median(window_waits) if window_waits
        else 0.0,
        "serve.handoff_wait_ms": 1e3 * median(handoffs) if handoffs else 0.0,
        "serve.batch_size": sum(sizes) / len(sizes) if sizes else 0.0,
        "serve.coalesced_ratio": (
            coalesced / predict_tickets if predict_tickets else 0.0
        ),
        "serve.shed": shed,
    }
