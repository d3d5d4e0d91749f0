"""Seeded input generators for the three workloads.

Every function here is a pure function of its arguments: the same seed
gives the same inputs, byte for byte, and every input is valid for the
program (no query is built that the program would refuse).  The module
imports nothing from ``repro``; the program under test only ever sees
what these functions return.

Validity rule: a query's dataset size D is a positive multiple of the
tile grid of every T in its tile set.  MatMul and Cholesky tile a square
matrix, so their grid is ``isqrt(T)`` (T must be a perfect square); the
row-tiled apps split D rows into T tiles, so their grid is T itself.
"""

from __future__ import annotations

import json
import math
import random

#: The partition counts the serve API's autotune defaults to (the Fig. 9
#: usable-core divisor band); every query here draws P from them.
P_VALUES = (1, 2, 4, 7, 8, 14, 16, 28, 56)

#: app -> (figure-default D, tile menu, tiling kind, largest D as a
#: multiple of the default).  The tile menus stay at or below the Fig. 9
#: defaults so a DES reference costs < 0.5 s; the largest D keeps every
#: dataset inside the device's 8 GB.
APPS = {
    "mm": (6000, (64, 100, 144, 225), "square", 2.0),
    "cf": (9600, (64, 100, 144), "square", 1.5),
    "kmeans": (1120000, (28, 56, 112), "rows", 1.5),
    "hotspot": (16384, (64, 128, 256), "rows", 1.5),
    "nn": (5242880, (128, 256, 512), "rows", 1.5),
    "srad": (10000, (100, 200, 400), "rows", 2.0),
}
APP_NAMES = tuple(APPS)

#: Serve's hot datasets sit at these fractions of the default D; tune's
#: pool datasets are drawn from half the default D up to the app's largest.
HOT_SCALES = (0.75, 1.0, 1.25)

#: Tune mix: share of queries that repeat the hot set, and pool size.
TUNE_HOT_SHARE = 0.75
TUNE_POOL_PER_APP = 100
#: Serve mix: shares of scenario /predict and of /sweep requests (the
#: rest are app /predict requests).
SERVE_SCENARIO_SHARE = 0.15
SERVE_SWEEP_SHARE = 0.10


def tile_grid(app: str, t: int) -> int:
    """The number D must be a multiple of for tile count ``t``."""
    kind = APPS[app][2]
    if kind == "square":
        grid = math.isqrt(t)
        if grid * grid != t:
            raise ValueError(f"{app} needs a square tile count, got {t}")
        return grid
    return t


def d_step(app: str, ts) -> int:
    """Smallest D step valid for every tile count in ``ts``."""
    return math.lcm(*(tile_grid(app, t) for t in ts))


def is_valid(app: str, d: int, ts) -> bool:
    return d >= max(ts) and d % d_step(app, ts) == 0


def _snap(app: str, ts, target: float) -> int:
    step = d_step(app, ts)
    return max(1, round(target / step)) * step


def hot_d(app: str, ts, scale: float) -> int:
    """The hot-pool dataset nearest ``scale`` x the default D."""
    return _snap(app, ts, APPS[app][0] * scale)


def fresh_d(app: str, ts, rng: random.Random, taken: set) -> "int | None":
    """A valid D in the fresh range, not in ``taken`` (which it joins);
    ``None`` once every such D is taken."""
    step = d_step(app, ts)
    d0, _menu, _kind, largest = APPS[app]
    lo = math.ceil(0.5 * d0 / step)
    hi = math.floor(largest * d0 / step)
    free = [k * step for k in range(lo, hi + 1) if k * step not in taken]
    if not free:
        return None
    d = rng.choice(free)
    taken.add(d)
    return d


def _tile_set(app: str, rng: random.Random, k: int) -> list:
    menu = APPS[app][1]
    return sorted(rng.sample(menu, min(k, len(menu))))


def tune_pool() -> dict:
    """The fixed pool of tune datasets: per app, ``(D, tile set)``
    entries with distinct D, the same for every seed.  A run starts
    with empty program caches, so every entry is fresh to it; a fixed
    pool lets the DES references of one run serve the next."""
    rng = random.Random("tune-pool")
    pool = {}
    for app in APP_NAMES:
        taken: set = set()
        entries = []
        for _ in range(TUNE_POOL_PER_APP):
            ts = _tile_set(app, rng, 3)
            d = fresh_d(app, ts, rng, taken)
            if d is not None:
                entries.append({"app": app, "D": d, "T": ts})
        pool[app] = entries
    return pool


def tune_queries(seed: int, count: int) -> list:
    """The ``tune`` workload: ``count`` queries in timed order.

    Each query is ``{"kind", "app", "D", "P": [...], "T": [...]}``.
    ``kind`` is ``autotune`` (best (P, T) over P x T) or ``sweep``
    (every point of P x T).  The hot set holds one autotune and one
    sweep query per app; ``TUNE_HOT_SHARE`` of the queries repeat it.
    The rest are autotune queries on pool datasets not used before in
    the run, so their grid families must be lowered.
    """
    rng = random.Random(f"tune:{seed}")
    pool = tune_pool()
    fresh = {app: rng.sample(entries, len(entries))
             for app, entries in pool.items()}
    hot = []
    for app in APP_NAMES:
        entry = fresh[app].pop()
        hot.append({"kind": "autotune", "app": app, "D": entry["D"],
                    "P": list(P_VALUES), "T": entry["T"]})
        entry = fresh[app].pop()
        hot.append({"kind": "sweep", "app": app, "D": entry["D"],
                    "P": sorted(rng.sample(P_VALUES, 5)),
                    "T": sorted(rng.sample(entry["T"], 2))})
    # An exact fresh share, and fresh datasets taken from the apps in turn,
    # keep the mix of lowering costs the same from seed to seed.
    n_fresh = round((1 - TUNE_HOT_SHARE) * count)
    is_fresh = [True] * n_fresh + [False] * (count - n_fresh)
    rng.shuffle(is_fresh)
    turn = rng.sample(APP_NAMES, len(APP_NAMES))
    queries = []
    for fresh_query in is_fresh:
        if not fresh_query:
            queries.append(dict(rng.choice(hot)))
            continue
        for _ in turn:
            app, turn = turn[0], turn[1:] + turn[:1]
            if fresh[app]:
                break
        else:
            raise ValueError("tune dataset pool exhausted")
        entry = fresh[app].pop()
        queries.append({"kind": "autotune", "app": entry["app"],
                        "D": entry["D"], "P": list(P_VALUES),
                        "T": entry["T"]})
    return queries


def _kernel(rng: random.Random, idx: int) -> dict:
    return {
        "name": f"k{idx}",
        "flops": float(f"{rng.uniform(1e6, 5e8):.6g}"),
        "bytes_touched": rng.randrange(1, 1 << 20),
        "thread_rate": float(f"{rng.uniform(1e8, 1e9):.6g}"),
        "serial_time": float(f"{rng.uniform(0.0, 1e-5):.6g}"),
        "temp_alloc_bytes": rng.choice((0, 4096, 65536)),
        "temp_alloc_per_thread": True,
        "cache_sensitive": rng.random() < 0.25,
        "efficiency": float(f"{rng.uniform(0.5, 1.0):.6g}"),
        "parallel_width": None,
    }


def scenario(seed: int, index: int) -> dict:
    """One workload-spec scenario (the ``repro.workload`` JSON schema,
    version 1): either an MM-like pipeline (per tile an upload, a chain
    of kernels, a download) or a Kmeans-like iterated phase between an
    upload and a download phase."""
    rng = random.Random(f"scenario:{seed}:{index}")
    kernels = [_kernel(rng, i) for i in range(rng.randint(2, 3))]
    tiles = rng.randint(2, 8)
    phases = []
    if rng.random() < 0.5:
        ops = []
        for t in range(tiles):
            prev = f"up{t}"
            ops.append({"kind": "h2d", "tile": t, "name": prev,
                        "nbytes": rng.randrange(1, 1 << 20)})
            for s in range(rng.randint(1, 3)):
                name = f"exe{t}_{s}"
                ops.append({"kind": "exe", "tile": t, "name": name,
                            "kernel": rng.randrange(len(kernels)),
                            "deps": [prev]})
                prev = name
            ops.append({"kind": "d2h", "tile": t, "deps": [prev],
                        "nbytes": rng.randrange(1, 1 << 18)})
        phases.append({"ops": ops, "sync": rng.random() < 0.5})
    else:
        phases.append({"ops": [
            {"kind": "h2d", "tile": t, "nbytes": rng.randrange(1, 1 << 20)}
            for t in range(tiles)], "sync": True})
        phases.append({"ops": [
            {"kind": "exe", "tile": t, "kernel": rng.randrange(len(kernels))}
            for t in range(tiles)], "sync": True,
            "repeat": rng.randint(2, 4)})
        phases.append({"ops": [
            {"kind": "d2h", "tile": t, "nbytes": rng.randrange(1, 1 << 18)}
            for t in range(tiles)], "sync": False})
    return {"schema": "repro.workload", "schema_version": 1,
            "name": f"bench-{seed}-{index}", "kernels": kernels,
            "phases": phases}


def serve_hot_families(seed: int) -> list:
    """One hot (app, D, T) family per app for the ``serve`` workload.

    T is the middle entry of the app's tile menu, so the grid work per
    request is the same for every seed; the seed picks the dataset."""
    rng = random.Random(f"serve-hot:{seed}")
    out = []
    for app in APP_NAMES:
        menu = APPS[app][1]
        t = menu[len(menu) // 2]
        out.append({"app": app, "D": hot_d(app, [t], rng.choice(HOT_SCALES)),
                    "T": t})
    return out


def serve_requests(seed: int, count: int, families: list,
                   scenarios: list) -> list:
    """The ``serve`` traffic: ``count`` ``(path, payload)`` requests.

    ``families`` come from :func:`serve_hot_families`; ``scenarios``
    are workload-spec dicts.  Every request names a hot family: app
    points and scenario points go to ``/predict``, whole-P sweeps of an
    app family to ``/sweep``.  The shares are exact (half of the sweeps
    streamed) and the seed sets their order and targets, so every seed
    asks the same amount of work.
    """
    rng = random.Random(f"serve:{seed}")
    n_sweep = round(SERVE_SWEEP_SHARE * count)
    n_scenario = round(SERVE_SCENARIO_SHARE * count)
    kinds = (["stream"] * (n_sweep // 2) + ["sweep"] * (n_sweep - n_sweep // 2)
             + ["scenario"] * n_scenario
             + ["app"] * (count - n_sweep - n_scenario))
    rng.shuffle(kinds)
    out = []
    for kind in kinds:
        if kind in ("sweep", "stream"):
            fam = rng.choice(families)
            payload = {"app": fam["app"], "D": fam["D"], "T": [fam["T"]],
                       "P": list(P_VALUES)}
            if kind == "stream":
                payload["stream"] = True
            out.append(("/sweep", payload))
        elif kind == "scenario":
            out.append(("/predict", {"workload": rng.choice(scenarios),
                                     "P": rng.choice(P_VALUES)}))
        else:
            fam = rng.choice(families)
            out.append(("/predict", {"app": fam["app"], "D": fam["D"],
                                     "T": fam["T"],
                                     "P": rng.choice(P_VALUES)}))
    return out


def arrival_gaps(seed: int, count: int, rate: float,
                 min_gap: float = 0.0) -> list:
    """Seeded open-loop arrivals at ``rate``/s: ``count`` gaps, each
    ``min_gap`` plus an exponential part, scaled so that they add up to
    exactly ``count / rate`` seconds (every seed offers the same load
    over the same time).  ``min_gap = 0`` gives Poisson arrivals."""
    if not 0.0 <= min_gap < 1.0 / rate:
        raise ValueError(f"min_gap must lie in [0, 1/rate), got {min_gap}")
    rng = random.Random(f"arrivals:{seed}")
    free = [rng.expovariate(1.0) for _ in range(count)]
    scale = count * (1.0 / rate - min_gap) / sum(free)
    return [min_gap + f * scale for f in free]


def encode(payload: dict) -> bytes:
    """The request body exactly as sent (always well-formed JSON)."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")
