"""Warm prediction backend: engine registry + cache behind the batcher.

One :class:`PredictionBackend` lives for the whole server process and
owns the evaluation stack the batches are dispatched into:

* a :class:`~repro.parallel.SweepExecutor` wired with the configured
  engine (``hybrid`` by default) and a
  :class:`~repro.parallel.SimulationCache`, so cold and
  model-unsupported points ride the executor's normal cached DES path;
* a persistent :class:`~repro.engine.store.EngineStore` (the PR 6
  ``--engine-store`` file) seeding the hybrid engine's certification
  verdicts — a warm server answers a certified family with **zero**
  DES calibration runs, because the verdict (and the calibration
  spread justifying it) is already on disk;
* a *warm-family registry*: every family the server has answered, with
  its route (``model`` vs ``sim``) and hit count — surfaced on
  ``/healthz`` so operators can see which app profiles are certified-
  warm before pointing traffic at the instance;
* the autotune path: "best (P, T) for app + D" via
  :func:`repro.autotune.run_search`'s model-ranked pruned search (one
  grid evaluation scores the whole space; only the top-k are
  simulated).

The backend is synchronous and thread-safe-by-convention: the service
layer dispatches batches through a single consumer, so ``evaluate``
never runs concurrently with itself (the executor's own worker pool
provides the parallelism).
"""

from __future__ import annotations

from time import perf_counter

from repro.autotune import ConfigSpace, run_search
from repro.engine import resolve_engine
from repro.engine.engines import _family_label
from repro.engine.store import resolve_store
from repro.metrics.registry import get_registry
from repro.parallel import SimulationCache, SweepExecutor


class PredictionBackend:
    """The evaluation stack one server process keeps warm."""

    def __init__(
        self,
        engine: str = "hybrid",
        store=None,
        jobs: int = 1,
        cache: "SimulationCache | None" = None,
    ) -> None:
        self.store = resolve_store(store)
        self.engine_name = engine if isinstance(engine, str) else engine.name
        self.jobs = jobs
        self.cache = cache if cache is not None else SimulationCache()
        self.executor = SweepExecutor(
            jobs=jobs,
            cache=self.cache,
            engine=resolve_engine(engine, store=self.store),
        )
        #: family label -> {"points": int, "routes": {engine: count}}
        self.families: "dict[str, dict]" = {}

    # -- batch evaluation --------------------------------------------------

    def evaluate(self, specs: list) -> list:
        """Answer one dispatched batch (certified points in-process via
        the grid path, everything else through the cached DES)."""
        t0 = perf_counter()
        runs = self.executor.map(list(specs))
        get_registry().histogram("serve.dispatch_seconds").observe(
            perf_counter() - t0
        )
        for spec, run in zip(specs, runs):
            entry = self.families.setdefault(
                _family_label(spec), {"points": 0, "routes": {}}
            )
            entry["points"] += 1
            route = getattr(run, "engine", "sim")
            entry["routes"][route] = entry["routes"].get(route, 0) + 1
        return runs

    # -- autotune ----------------------------------------------------------

    def autotune(self, query: dict) -> dict:
        """Best (P, T) for one app + dataset (model-ranked search).

        ``query`` is the dict :func:`repro.serve.api.parse_autotune`
        builds.  Uses the pruned ``hybrid`` search when the backend
        engine supports ranking, the uncertainty-gated learned search
        under ``learned`` (usually zero DES evaluations — see
        ``docs/LEARNED.md``), the exhaustive cached path under ``sim``.
        """
        profile = query["profile"]
        d = query["d"]
        space = ConfigSpace(
            p_values=list(query["p_values"]),
            t_values=list(query["t_values"]),
        )
        if self.engine_name == "learned":
            # Hand the executor's own learned engine over so the search
            # reuses the warm trained model (and feeds its observations).
            search_engine = self.executor._engine_impl
        elif self.engine_name in ("model", "hybrid"):
            search_engine = self.engine_name
        else:
            search_engine = None
        t0 = perf_counter()
        outcome = run_search(
            spec_fn=lambda c: profile.spec(c.places, c.tiles, d),
            space=space,
            executor=self.executor,
            engine=search_engine,
            verify_top_k=query["verify_top_k"],
        )
        get_registry().histogram("serve.autotune_seconds").observe(
            perf_counter() - t0
        )
        return {
            "app": profile.name,
            "D": d if d is not None else profile.default_d,
            "best": {"P": outcome.best.places, "T": outcome.best.tiles},
            "best_seconds": outcome.best_time,
            "evaluations": outcome.evaluations,
            "space_size": space.size,
        }

    # -- introspection -----------------------------------------------------

    def health(self) -> dict:
        """The ``/healthz`` payload body (minus service-level fields)."""
        info = {
            "engine": self.engine_name,
            "jobs": self.jobs,
            "cache_entries": len(self.cache),
            "warm_families": self.families,
        }
        if self.store is not None:
            info["store"] = {
                "path": str(self.store.path),
                "families": len(self.store),
                "hits": self.store.stats.hits,
                "misses": self.store.stats.misses,
            }
        return info
