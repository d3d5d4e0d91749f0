"""Fan independent simulation runs out over a process pool.

Every figure sweep and every exhaustive (P, T) search evaluates
*independent* :class:`~repro.parallel.runspec.RunSpec`\\ s — the classic
embarrassingly-parallel shape.  :class:`SweepExecutor` runs them through
one drain loop over *tasks* — one submission of one or more specs — to
a ``ProcessPoolExecutor`` or, in-process, one task at a time, while
guaranteeing:

* **deterministic ordering** — results come back in submission order no
  matter which worker finishes first, so parallel sweeps are
  bit-identical to serial ones;
* **in-process execution** — ``jobs=1`` (the default), an unpicklable
  spec, a pool that fails to start, and small latency-sensitive subsets
  run through the same loop in the calling process, with the same
  results;
* **cache integration** — hits are served before anything is submitted,
  and misses are written back, so overlapping sweeps (fig8's config
  search, fig9, the heuristics grid) pay for each configuration once;
* **progress** — an optional ``progress(done, total, spec)`` callback
  fires exactly once per spec as it completes (in completion order),
  with ``total`` always the full batch size — chunked dispatch and
  engine routing (model-answered points, calibration subsets) report
  against the same scale as the plain path;
* **fault tolerance** — a failing spec never silently discards the rest
  of the batch.  Without a :class:`~repro.parallel.RetryPolicy` the
  failure raises :class:`~repro.parallel.SweepError` *carrying every
  completed result*; with one, attempts are retried per spec, also
  inside a multi-spec task (bounded, with backoff and per-attempt
  deadlines), crashed worker processes are reaped and the pool rebuilt,
  and — under ``on_error="record"`` — a spec that exhausts recovery
  yields a NaN-metric :class:`~repro.parallel.FailedRun` placeholder
  instead of aborting;
* **checkpoint/resume** — an optional
  :class:`~repro.parallel.SweepCheckpoint` persists completed points
  under their cache-fingerprint keys, so an interrupted sweep restarts
  where it left off (see ``docs/RELIABILITY.md``);
* **fault injection** — a seeded :class:`~repro.faults.FaultPlan` can
  deterministically crash/hang workers or fail runtime operations, for
  testing exactly this machinery.
"""

from __future__ import annotations

import heapq
import os
import pickle
import time
from collections import deque
from collections.abc import Callable, Iterable
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING

from repro.errors import (
    ConfigurationError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.faults import FaultPlan
from repro.faults.plan import InjectedWorkerCrash, InjectedWorkerTimeout
from repro.metrics.registry import get_registry
from repro.parallel.cache import SimulationCache
from repro.parallel.checkpoint import SweepCheckpoint
from repro.parallel.resilience import (
    ExecutorStats,
    FailedRun,
    RetryPolicy,
    SweepError,
)
from repro.parallel.runspec import (
    RunResult,
    RunSpec,
    decompress_snapshot,
    execute_spec_batch,
    execute_spec_batch_slim,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.apps.base import AppRun
    from repro.parallel.budget import DesBudget

#: ``progress(done, total, spec)`` — called after each completed run.
ProgressFn = Callable[[int, int, RunSpec], None]


def resolve_jobs(jobs: "int | None") -> int:
    """Normalize a ``--jobs`` value: None/0 means "all cores"."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _picklable(spec: RunSpec) -> bool:
    try:
        pickle.dumps(spec)
        return True
    except Exception:
        return False


def _execute_inline(
    specs: "list[RunSpec]",
    plan: "FaultPlan | None" = None,
    faults: "list[tuple[int, str | None]] | None" = None,
) -> list:
    """The in-process task: :func:`execute_spec_batch` with worker
    faults degraded to synchronous stand-ins.  A "crash" fails with
    :class:`WorkerCrashError` (this process must survive), a "hang"
    fails at once with :class:`WorkerTimeoutError` (in-process
    execution cannot be preempted), and "unpicklable" is a no-op
    (nothing crosses a process boundary)."""
    if faults is None:
        return execute_spec_batch(specs)
    outcomes: list = []
    for spec, (attempt, directive) in zip(specs, faults):
        if directive == "crash":
            outcomes.append(("err", InjectedWorkerCrash(
                "injected worker crash (in-process)"), 0.0))
        elif directive == "hang":
            outcomes.append(("err", InjectedWorkerTimeout(
                "injected worker hang (in-process)"), 0.0))
        else:
            outcomes += execute_spec_batch([spec], plan, [(attempt, None)])
    return outcomes


class _InlinePool:
    """Stand-in for a process pool: ``submit`` runs the task at once, in
    the calling process, and returns its finished future."""

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False):
        pass


def _stop(pool, kill: bool) -> None:
    """Shut a pool down.  A drained pool's workers are idle, so a
    blocking shutdown is cheap (and tearing the queues down without
    waiting races the pool's feeder thread).  After a crash, a missed
    deadline, or an error leaving the loop, ``kill`` terminates the
    workers first: a hung or dead worker never finishes its task."""
    try:
        if kill:
            processes = getattr(pool, "_processes", None) or {}
            for proc in list(processes.values()):
                proc.terminate()
        pool.shutdown(wait=not kill, cancel_futures=True)
    except Exception:
        pass


class SweepExecutor:
    """Execute batches of :class:`RunSpec` with caching, parallelism,
    and (optionally) retries, checkpointing and fault injection."""

    def __init__(
        self,
        jobs: "int | None" = 1,
        cache: SimulationCache | None = None,
        progress: ProgressFn | None = None,
        retry: RetryPolicy | None = None,
        checkpoint: SweepCheckpoint | None = None,
        fault_plan: FaultPlan | None = None,
        on_error: str = "raise",
        engine: "str | object" = "sim",
        chunksize: int | None = None,
        keep_traces: bool = False,
        engine_store: "str | object | None" = None,
        des_budget: "DesBudget | None" = None,
    ) -> None:
        from repro.engine.engines import resolve_engine

        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.progress = progress
        self.retry = retry
        self.checkpoint = checkpoint
        self.fault_plan = fault_plan
        if on_error not in ("raise", "record"):
            raise ConfigurationError(
                f"on_error must be 'raise' or 'record', got {on_error!r}"
            )
        self.on_error = on_error
        #: ``True`` restores full-object result transport (whole
        #: ``AppRun`` pickles) instead of the default slim
        #: :class:`~repro.parallel.runspec.RunResult` wire records —
        #: the CLIs' ``--keep-traces``.  Specs with ``keep_timeline``
        #: always ship their full run either way.
        self.keep_traces = keep_traces
        #: Evaluation engine (see :mod:`repro.engine`): ``None`` for the
        #: native simulation path, else an object whose ``map`` decides
        #: per spec between analytic prediction and simulation.
        #: ``engine_store`` optionally attaches a persistent
        #: certified-family store (see :mod:`repro.engine.store`).
        self._engine_impl = resolve_engine(engine, store=engine_store)
        self.engine = getattr(self._engine_impl, "name", "sim")
        if chunksize is not None and chunksize < 1:
            raise ConfigurationError(
                f"chunksize must be >= 1, got {chunksize}"
            )
        #: Specs submitted per pool task (None: derived from grid size
        #: and jobs).  Batching amortizes process spawn and per-result
        #: metrics-snapshot pickling on large grids.
        self.chunksize = chunksize
        #: Optional :class:`~repro.parallel.budget.DesBudget` charged
        #: for every simulator execution that survives the cache and
        #: checkpoint passes (hits are free).  Accounting only — the
        #: executor never refuses mandatory work; budget-aware callers
        #: (``run_search --engine learned``) consult it before
        #: scheduling optional verification runs.
        self.des_budget = des_budget
        self.stats = ExecutorStats()
        #: Active progress scope: the batch-level total every completion
        #: reports against.  ``map`` opens it over the *whole* batch, so
        #: engine-routed subsets (model-answered points, calibration
        #: sims, DES fallbacks) all count toward one ``total`` instead
        #: of each subset restarting at ``done=1``.
        self._progress_total: "int | None" = None
        self._progress_done = 0
        #: When set, completed runs buffer here instead of writing the
        #: cache point-by-point; ``_map_sim`` flushes via ``put_many``
        #: (one disk write per fingerprint, not one per run).
        self._put_buffer: "list | None" = None

    # -- public API --------------------------------------------------------

    def map(self, specs: Iterable[RunSpec]) -> "list[AppRun]":
        """Run every spec, returning results in submission order.

        With a non-default engine the batch is routed through it (the
        engine calls back into :meth:`_map_sim` for the points it wants
        simulated); otherwise this is the native simulation path.

        Failure semantics: see the module docstring (``retry`` /
        ``on_error``).  When a :class:`SweepError` is raised, completed
        results ride along on the exception and the checkpoint (if any)
        has been flushed — nothing finished is lost.
        """
        specs = list(specs)
        prev_total, prev_done = self._progress_total, self._progress_done
        self._progress_total, self._progress_done = len(specs), 0
        try:
            if self._engine_impl is not None:
                return self._engine_impl.map(self, specs)
            return self._map_sim(specs)
        finally:
            self._progress_total, self._progress_done = prev_total, prev_done

    def _notify_progress(self, spec: RunSpec) -> None:
        """Fire the user's progress callback for one completed spec,
        numbered against the active batch scope.  Every completion path
        — cache hit, checkpoint resume, executed run, recorded failure,
        dedup alias, engine-answered model point — funnels through here
        exactly once per spec."""
        if self.progress is None:
            return
        self._progress_done += 1
        total = self._progress_total
        self.progress(
            self._progress_done,
            total if total is not None else self._progress_done,
            spec,
        )

    def _map_sim(
        self, specs: "list[RunSpec]", inline: bool = False
    ) -> "list[AppRun]":
        """The native path: every spec through the simulator (cache,
        checkpoint, pool).  Engines call this for their DES subsets;
        ``inline=True`` marks a small latency-sensitive subset (hybrid
        calibration) worth running in-process instead of paying pool
        spawn for a handful of cached-next-time points."""
        total = len(specs)
        results: "list[AppRun | None]" = [None] * total
        done = 0
        owns_scope = self._progress_total is None
        if owns_scope:
            self._progress_total, self._progress_done = total, 0
        prev_buffer = self._put_buffer
        buffer: "list | None" = [] if self.cache is not None else None
        self._put_buffer = buffer

        try:
            # Cache pass (one batched lookup): serve hits, collect
            # misses, and deduplicate repeated specs inside the batch
            # (only the first occurrence is simulated; the rest resolve
            # after it completes — get_many already counted duplicates
            # as a single cache miss).
            hits = (
                self.cache.get_many(specs)
                if self.cache is not None
                else [None] * total
            )
            misses: list[int] = []
            first_miss: dict[RunSpec, int] = {}
            aliases: dict[int, int] = {}
            for i, spec in enumerate(specs):
                try:
                    representative = first_miss.get(spec)
                except TypeError:  # unhashable ctor argument: never dedup
                    representative = None
                if representative is not None:
                    aliases[i] = representative
                    continue
                hit = hits[i]
                if hit is not None:
                    self.stats.cache_hits += 1
                    get_registry().counter("executor.cache_hits").inc()
                    results[i] = hit
                    done += 1
                    self._notify_progress(spec)
                else:
                    misses.append(i)
                    try:
                        first_miss[spec] = i
                    except TypeError:
                        pass

            # Checkpoint pass: a resumed sweep serves every point the
            # interrupted run already finished, re-executing the rest.
            if self.checkpoint is not None and misses:
                remaining: list[int] = []
                for i in misses:
                    run = self.checkpoint.lookup(specs[i])
                    if run is None:
                        remaining.append(i)
                        continue
                    self.stats.checkpoint_hits += 1
                    get_registry().counter(
                        "executor.checkpoint_resumed"
                    ).inc()
                    if buffer is not None:
                        buffer.append((specs[i], run))
                    results[i] = run
                    done += 1
                    self._notify_progress(specs[i])
                misses = remaining

            if self.des_budget is not None and misses:
                # Only actual simulator executions cost budget: cache
                # hits, checkpoint resumes and dedup aliases were all
                # served above without touching the DES.
                self.des_budget.charge(len(misses))

            try:
                if misses:
                    pooled: list[int] = []
                    if self.jobs > 1 and not self._inline_eligible(
                        inline, len(misses)
                    ):
                        pooled = [i for i in misses if _picklable(specs[i])]
                    if pooled:
                        done = self._drain(specs, pooled, results, done)
                    if len(pooled) < len(misses):
                        local = sorted(set(misses).difference(pooled))
                        done = self._drain(
                            specs, local, results, done, in_process=True
                        )
            finally:
                if buffer:
                    self.cache.put_many(buffer)
                    buffer.clear()
                if self.checkpoint is not None:
                    self.checkpoint.flush()

            for i, representative in aliases.items():
                # Served from the cache when one is configured (so
                # hit/miss accounting reflects the dedup), else shared
                # directly.
                run = (
                    self.cache.get(specs[i])
                    if self.cache is not None
                    else None
                )
                results[i] = run if run is not None else results[representative]
                done += 1
                self._notify_progress(specs[i])

            assert done == total
            return results  # type: ignore[return-value]
        finally:
            self._put_buffer = prev_buffer
            if owns_scope:
                self._progress_total, self._progress_done = None, 0

    def _inline_eligible(self, inline: bool, n_misses: int) -> bool:
        """Whether an ``inline``-flagged subset should skip the pool.
        Retries and fault plans stay on the pool, where worker faults
        are acted out for real and deadlines can be enforced; otherwise
        a subset no larger than one pool round is cheaper in-process
        than a worker spawn."""
        return (
            inline
            and self.retry is None
            and self.fault_plan is None
            and n_misses <= max(4, self.jobs)
        )

    def run_one(self, spec: RunSpec) -> "AppRun":
        """Convenience: execute a single spec through the cache."""
        return self.map([spec])[0]

    # -- the drain loop ----------------------------------------------------

    def _effective_chunksize(self, n: int) -> int:
        """Specs per pool task.  Attempts are accounted per spec inside
        a task, so retries and fault plans batch like the plain path;
        only a per-attempt deadline forces one spec per task, because a
        deadline can only be enforced on a whole task.  The default
        keeps at least ``4 * jobs`` tasks so the pool stays balanced,
        capped at 8 specs per task."""
        if self.retry is not None and self.retry.timeout is not None:
            return 1
        if self.chunksize is not None:
            return self.chunksize
        return max(1, min(8, n // (4 * self.jobs)))

    def _drain(
        self, specs, indices, results, done, in_process: bool = False
    ) -> int:
        """Run ``indices`` to completion: the only code that submits,
        retries, charges or shuts down.

        Specs wait in ``ready`` (or, backing off before a retry, in the
        ``backoff`` heap) until a task takes them.  A process pool holds
        up to ``4 * jobs`` tasks of :meth:`_effective_chunksize` specs;
        in-process, :class:`_InlinePool` runs one single-spec task at a
        time, so each outcome is handled before the next spec starts.
        Each spec's outcome inside a task is handled on its own.  A
        task lost whole — its worker died and broke the pool, or its
        result would not pickle — charges only the specs the fault plan
        directed to cause that loss and requeues the rest uncharged;
        when the plan directed none of them (or there is no plan), every
        lost spec is charged.  A pool is shut down cleanly once the loop
        drains, and its workers are terminated only after a crash, a
        missed deadline, or an error leaving the loop.
        """
        plan = self.fault_plan
        pool = None
        if in_process:
            pool, chunk, limit, task = _InlinePool(), 1, 1, _execute_inline
            deadline = None
        else:
            chunk = self._effective_chunksize(len(indices))
            limit = 4 * self.jobs
            task = (
                execute_spec_batch
                if self.keep_traces
                else execute_spec_batch_slim
            )
            deadline = self.retry.timeout if self.retry is not None else None
            workers = min(self.jobs, -(-len(indices) // chunk))
        ready: deque = deque((i, 0) for i in indices)
        #: (eligible-at, spec index, attempt): retries waiting out their
        #: backoff without blocking other completions.
        backoff: list = []
        #: future -> ([(spec index, attempt, directive)], submitted-at)
        inflight: dict = {}
        #: Specs of tasks lost with a broken pool, charged once the
        #: pool's last task has resolved.
        lost: list = []
        broken = False
        drained = False
        try:
            while ready or backoff or inflight or broken:
                now = time.monotonic()
                while backoff and backoff[0][0] <= now:
                    _, i, attempt = heapq.heappop(backoff)
                    ready.appendleft((i, attempt))
                while ready and not broken and len(inflight) < limit:
                    entries = [
                        ready.popleft() for _ in range(min(chunk, len(ready)))
                    ]
                    if pool is None:
                        try:
                            pool = ProcessPoolExecutor(max_workers=workers)
                        except OSError:
                            # Sandboxes without process-spawn rights:
                            # run the rest in-process.
                            pool, chunk, limit = _InlinePool(), 1, 1
                            task, deadline = _execute_inline, None
                            ready.extendleft(reversed(entries))
                            continue
                    tagged = [
                        (i, a, plan.worker_directive(i, a) if plan else None)
                        for i, a in entries
                    ]
                    try:
                        future = pool.submit(
                            task,
                            [specs[i] for i, _ in entries],
                            plan,
                            [(a, d) for _, a, d in tagged] if plan else None,
                        )
                    except (BrokenProcessPool, RuntimeError, OSError):
                        ready.extendleft(reversed(entries))
                        broken = True
                        break
                    inflight[future] = (tagged, now)

                if not inflight:
                    if broken:
                        # The broken pool's last task has resolved:
                        # charge the loss, then rebuild on next submit.
                        done = self._lose(
                            specs, results, ready, backoff, lost,
                            WorkerCrashError(
                                "a worker process died with this spec "
                                "in flight"
                            ),
                            "crash", done,
                        )
                        lost = []
                        _stop(pool, kill=True)
                        pool, broken = None, False
                    elif backoff:
                        time.sleep(max(0.0, backoff[0][0] - time.monotonic()))
                    continue

                wakeups = [backoff[0][0]] if backoff else []
                if deadline is not None:
                    wakeups.append(
                        min(t0 for _, t0 in inflight.values()) + deadline
                    )
                completed, _ = wait(
                    inflight,
                    timeout=(
                        max(0.01, min(wakeups) - now) if wakeups else None
                    ),
                    return_when=FIRST_COMPLETED,
                )
                for future in completed:
                    tagged, _ = inflight.pop(future)
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        # Every other task of this pool resolves the
                        # same way; the loss is charged once they have.
                        broken = True
                        lost += tagged
                    except Exception as exc:
                        # The result would not pickle: the whole task is
                        # lost, but the pool survives.
                        done = self._lose(
                            specs, results, ready, backoff, tagged, exc,
                            "unpicklable", done,
                        )
                    else:
                        done = self._deliver(
                            specs, results, backoff, tagged, payload, done
                        )

                now = time.monotonic()
                if deadline is not None and any(
                    now - t0 > deadline for _, t0 in inflight.values()
                ):
                    # A hung worker still occupies its process: charge
                    # the expired attempts, requeue the rest uncharged,
                    # and rebuild the pool.
                    for tagged, t0 in inflight.values():
                        if now - t0 <= deadline:
                            ready.extend((i, a) for i, a, _ in tagged)
                            continue
                        for i, attempt, _ in tagged:
                            done = self._attempt_failed(
                                specs, results, backoff, i, attempt,
                                WorkerTimeoutError(
                                    f"spec {i} exceeded its {deadline}s "
                                    "deadline"
                                ),
                                done,
                            )
                    inflight.clear()
                    _stop(pool, kill=True)
                    pool = None
            drained = True
        finally:
            if pool is not None:
                _stop(pool, kill=not drained)
        return done

    def _deliver(self, specs, results, backoff, tagged, payload, done) -> int:
        """Handle one finished task's per-spec outcomes."""
        if isinstance(payload, tuple):
            # Slim transport: the worker merged its batch's metrics
            # snapshots into one compressed delta.  Merging it once here
            # is exactly equivalent to per-run merges (associative and
            # commutative), so parent totals are unchanged.
            outcomes, metrics_z = payload
            if metrics_z is not None:
                get_registry().merge_snapshot(decompress_snapshot(metrics_z))
        else:
            outcomes = payload
        for (i, attempt, _), (status, value, seconds) in zip(
            tagged, outcomes
        ):
            if status == "ok":
                if isinstance(value, RunResult):
                    value = value.to_run()
                done = self._attempt_ok(
                    specs, results, i, value, seconds, done
                )
            else:
                done = self._attempt_failed(
                    specs, results, backoff, i, attempt, value, done
                )
        return done

    def _lose(
        self, specs, results, ready, backoff, tagged, exc, cause, done
    ) -> int:
        """Charge a loss that took several specs at once: only the specs
        the fault plan directed to ``cause`` it, else (a real failure has
        no known culprit) every lost spec.  The rest are requeued
        uncharged."""
        culprits = any(directive == cause for _, _, directive in tagged)
        for i, attempt, directive in tagged:
            if culprits and directive != cause:
                ready.append((i, attempt))
            else:
                done = self._attempt_failed(
                    specs, results, backoff, i, attempt, exc, done
                )
        return done

    def _attempt_ok(self, specs, results, i, run, seconds, done) -> int:
        self.stats.attempts += 1
        self.stats.executed += 1
        # The *only* place worker metrics enter the parent registry:
        # cache hits and checkpoint resumes carry ``metrics=None`` (see
        # repro.parallel.cache.decode_run), so a resumed sweep never
        # double-counts a restored point.  Worker snapshots hold only
        # counters and histograms, whose merge is commutative, so the
        # parallel completion order cannot change the merged totals.
        registry = get_registry()
        registry.counter("executor.runs_executed").inc()
        registry.histogram("executor.run_seconds").observe(seconds)
        metrics = getattr(run, "metrics", None)
        if metrics is not None:
            registry.merge_snapshot(metrics)
        if self._put_buffer is not None:
            self._put_buffer.append((specs[i], run))
        elif self.cache is not None:
            self.cache.put(specs[i], run)
        if self.checkpoint is not None:
            self.checkpoint.record(specs[i], run)
        results[i] = run
        self._notify_progress(specs[i])
        return done + 1

    def _attempt_failed(
        self, specs, results, backoff, i, attempt, exc, done
    ) -> int:
        """Charge one failed attempt: retry it after its backoff, or
        record a placeholder / abort once recovery is exhausted
        (carrying every completed result on the exception)."""
        self.stats.attempts += 1
        if isinstance(exc, WorkerTimeoutError):
            self.stats.timeouts += 1
            get_registry().counter("executor.timeouts").inc()
        elif isinstance(exc, WorkerCrashError):
            self.stats.worker_crashes += 1
            get_registry().counter("executor.worker_crashes").inc()
        retry = self.retry
        if (
            retry is not None
            and attempt < retry.max_retries
            and retry.retryable(exc)
        ):
            self.stats.retries += 1
            get_registry().counter("executor.retries").inc()
            heapq.heappush(
                backoff,
                (time.monotonic() + retry.delay(attempt), i, attempt + 1),
            )
            return done
        self.stats.failures += 1
        get_registry().counter("executor.failures").inc()
        spec = specs[i]
        if self.on_error == "record":
            results[i] = FailedRun(
                app=getattr(spec.app_cls, "name", spec.app_cls.__name__),
                places=spec.places,
                tiles=0,
                error=str(exc),
                error_type=type(exc).__name__,
                attempts=attempt + 1,
            )
            self._notify_progress(spec)
            return done + 1
        raise SweepError(
            f"spec {i} failed after {attempt + 1} attempt(s): {exc} "
            f"[{sum(1 for r in results if r is not None)}/{len(specs)} "
            f"completed results preserved on this error]",
            results=list(results),
            spec=spec,
        ) from exc


def run_sweep(
    specs: Iterable[RunSpec],
    jobs: "int | None" = 1,
    cache: SimulationCache | None = None,
    progress: ProgressFn | None = None,
    retry: RetryPolicy | None = None,
    checkpoint: SweepCheckpoint | None = None,
    fault_plan: FaultPlan | None = None,
    on_error: str = "raise",
    engine: "str | object" = "sim",
    chunksize: int | None = None,
    keep_traces: bool = False,
    engine_store: "str | object | None" = None,
) -> "list[AppRun]":
    """One-shot helper: ``SweepExecutor(...).map(specs)``."""
    return SweepExecutor(
        jobs=jobs,
        cache=cache,
        progress=progress,
        retry=retry,
        checkpoint=checkpoint,
        fault_plan=fault_plan,
        on_error=on_error,
        engine=engine,
        chunksize=chunksize,
        keep_traces=keep_traces,
        engine_store=engine_store,
    ).map(specs)
