"""Parallel sweep execution, caching, and resilience.

The evaluation path of the reproduction — figure sweeps (Figs. 8/9/10)
and the Sec. V-C tuning searches — is a stream of independent,
deterministic simulation runs.  This package makes that path cheap and
hard to kill:

* :class:`RunSpec` — a picklable description of one run;
* :class:`SweepExecutor` / :func:`run_sweep` — fan specs over a process
  pool with deterministic result ordering and serial fallback;
* :class:`SimulationCache` / :func:`shared_cache` — content-addressed
  memoization of run timings, keyed on the app configuration and the
  device model's calibration fingerprint;
* :class:`RetryPolicy` / :class:`FailedRun` / :class:`SweepError` —
  bounded retries with backoff and deadlines, NaN-metric placeholders,
  and partial-result-preserving aborts (see ``docs/RELIABILITY.md``);
* :class:`SweepCheckpoint` — periodic JSON checkpointing so interrupted
  sweeps resume where they left off;
* :class:`DesBudget` — spend accounting for simulator executions, so
  budget-aware callers (the learned engine tier's searches) can ration
  DES work explicitly.
"""

from repro.parallel.budget import DesBudget
from repro.parallel.cache import (
    CacheStats,
    SimulationCache,
    decode_run,
    encode_run,
    shared_cache,
)
from repro.parallel.checkpoint import CHECKPOINT_VERSION, SweepCheckpoint
from repro.parallel.executor import SweepExecutor, resolve_jobs, run_sweep
from repro.parallel.resilience import (
    ExecutorStats,
    FailedRun,
    RetryPolicy,
    SweepError,
    is_failed,
    value_or_nan,
)
from repro.parallel.runspec import (
    RunResult,
    RunSpec,
    compress_snapshot,
    decompress_snapshot,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CacheStats",
    "DesBudget",
    "ExecutorStats",
    "FailedRun",
    "RetryPolicy",
    "RunResult",
    "RunSpec",
    "SimulationCache",
    "SweepCheckpoint",
    "SweepError",
    "SweepExecutor",
    "compress_snapshot",
    "decode_run",
    "decompress_snapshot",
    "encode_run",
    "is_failed",
    "resolve_jobs",
    "run_sweep",
    "shared_cache",
    "value_or_nan",
]
