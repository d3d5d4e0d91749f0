"""Prediction-as-a-service: async batching server over the engines.

``python -m repro serve`` stands up a long-running asyncio HTTP/JSON
service answering point predictions (``predict(app, P, T, D)``),
whole-sweep queries, and autotune ("best config for app + D") queries
— the online query loop the ML-tuning follow-on papers assume, backed
by the repo's own evaluation stack:

* admission/batching (:mod:`repro.serve.core`) — a sans-IO state
  machine that coalesces concurrent point requests within a short
  window into grid-family batches, with per-request deadlines, a
  bounded queue with load shedding, and graceful drain;
* runtime drivers (:mod:`repro.serve.service`) — the asyncio
  production pump and a simulated-time :class:`SyncDriver` for tests
  (no sleeps or sockets in the batching/dispatch tests);
* a warm backend (:mod:`repro.serve.backend`) — certified hybrid
  engine seeded from a persistent ``--engine-store``, simulation
  cache for cold/fallback points, and the pruned autotune search;
* the HTTP front-end (:mod:`repro.serve.http`) — stdlib asyncio,
  HTTP/1.1 keep-alive + pipelining, chunked/NDJSON sweep streaming,
  ``/metrics`` + ``/healthz``;
* multi-process serving (:mod:`repro.serve.prefork`) — ``--workers N``
  forks a kernel-balanced pool over one listening address, sharing
  certification verdicts through the persistent engine store and
  aggregating ``/metrics`` across workers.

See ``docs/SERVING.md`` for architecture, schemas, and tuning.
"""

from repro.serve.api import (
    APP_PROFILES,
    AppProfile,
    BadRequest,
    parse_autotune,
    parse_predict,
    parse_sweep,
    run_to_json,
)
from repro.serve.backend import PredictionBackend
from repro.serve.core import (
    Batch,
    Batcher,
    ServeConfig,
    Shed,
    Ticket,
)
from repro.serve.http import (
    HttpConfig,
    StreamBody,
    handle_request,
    run_server,
    serve_http,
)
from repro.serve.prefork import (
    MetricsHub,
    RespawnPolicy,
    SocketPlan,
    plan_sockets,
    run_prefork,
)
from repro.serve.service import PredictionService, SyncDriver

__all__ = [
    "APP_PROFILES",
    "AppProfile",
    "BadRequest",
    "Batch",
    "Batcher",
    "HttpConfig",
    "MetricsHub",
    "PredictionBackend",
    "PredictionService",
    "RespawnPolicy",
    "ServeConfig",
    "Shed",
    "SocketPlan",
    "StreamBody",
    "SyncDriver",
    "Ticket",
    "handle_request",
    "parse_autotune",
    "parse_predict",
    "parse_sweep",
    "plan_sockets",
    "run_prefork",
    "run_server",
    "run_to_json",
    "serve_http",
]
