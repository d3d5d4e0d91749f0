"""The three workloads: inputs, the measured passes, and output checks.

Each workload class offers ``measure(setups, trace_path)``, which runs
``setups`` set-ups (each in a fresh interpreter; the last one goes on to
the timed phase), checks every answer against the DES references, and
returns a :class:`Pass`.  Nothing here runs the DES inside a timed
phase: references are computed after it (and cached on disk).
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import math
import os
import re
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import gen
import refs
from loadgen import OpenLoop, request_bytes
from speed import Scale
from stats import median, nearest_rank, peak_rss_mb, within

#: Seconds any one child process may take before the run is abandoned.
CHILD_TIMEOUT = 170.0

#: ``tune``: queries per second of ``--seconds`` (fixed work per run; the
#: dataset pool covers up to 56 seconds).  A 30 s run asks 990 queries,
#: which support p90 (the middle of the lowering cost of fresh datasets)
#: but not p99 (the few heaviest lowerings, which moved by 0.4 of the
#: median from run to run at 1500 queries).
TUNE_QUERIES_PER_S = 33
#: ``serve``: the fixed open-loop arrival rate, requests per second, and
#: requests per second of ``--seconds`` (a 30 s run sends 990 requests
#: over 33 s, which support p90 but not p99).  The GIL handoff between
#: the event loop and the dispatch thread adds 5 ms steps that about 1%
#: of requests take once or twice, so on a 2-core shared VM the p99 of
#: 1200 requests jumped between steps from run to run (12 to 23 ms at
#: 30/s, 16 to 72 ms at 50/s; a quarter-to-three-quarter spread of 0.4
#: of the median over ten seeds).
SERVE_RATE = 30.0
SERVE_REQUESTS_PER_S = 33
#: ``serve``: the least gap between two arrivals.  A request that
#: arrives while the server is still working on the one before makes one
#: of them wait for the GIL in 5 ms steps; with Poisson gaps about 9% of
#: requests did, right at the p90, so a slower host that made more of
#: them moved the p90 by half of its median.  Past a 15 ms gap the
#: server (5 ms window plus a few ms of work) is idle again.
SERVE_MIN_GAP_S = 0.015


@dataclass
class Pass:
    """One measured pass of a workload.

    Times come in pairs: as measured, and rescaled to the reference host
    speed by the reference slices that ran beside the work (see
    :mod:`speed`).  The end-to-end metrics are the rescaled ones.
    """

    setup_s: list
    setup_raw_s: list
    wall_s: float
    wall_ref_s: float
    op_s: list  # per-operation latency samples (inf = failed)
    op_ref_s: list
    cpu_s: float
    cpu_ref_s: float
    ops: int
    peak_rss_mb: float
    attempted: int
    failed: int
    window: tuple
    setup_window: tuple
    slice_ms: float
    slices: int
    notes: dict = field(default_factory=dict)
    #: Operations each latency sample stands for (``None``: one each).
    op_weight: "list | None" = None

    def metrics(self) -> dict:
        """End-to-end metrics: name -> (value, unit, sample count)."""
        p50, n = nearest_rank(self.op_ref_s, 0.5, self.op_weight)
        p90, _ = nearest_rank(self.op_ref_s, 0.9, self.op_weight)
        ok = self.attempted - self.failed
        return {
            "setup_s": (median(self.setup_s), "s", len(self.setup_s)),
            "wall_ref_s": (self.wall_ref_s, "s", 1),
            "latency_p50_ref_ms": (1e3 * p50, "ms", n),
            "latency_p90_ref_ms": (1e3 * p90, "ms", n),
            "cpu_ref_ms_per_op": (1e3 * self.cpu_ref_s / self.ops, "ms",
                                  self.ops),
            "success_ratio": (ok / self.attempted, "ratio", self.attempted),
            "peak_rss_mb": (self.peak_rss_mb, "MB", 1),
        }

    def raw(self) -> dict:
        """The same times as measured, before rescaling (report only)."""
        p50, n = nearest_rank(self.op_s, 0.5, self.op_weight)
        p90, _ = nearest_rank(self.op_s, 0.9, self.op_weight)
        return {
            "setup_s": (median(self.setup_raw_s), "s", len(self.setup_raw_s)),
            "wall_s": (self.wall_s, "s", 1),
            "latency_p50_ms": (1e3 * p50, "ms", n),
            "latency_p90_ms": (1e3 * p90, "ms", n),
            "cpu_ms_per_op": (1e3 * self.cpu_s / self.ops, "ms", self.ops),
            "slice_ms": (self.slice_ms, "ms", self.slices),
        }


class Context:
    """Paths shared by the workloads of one run."""

    def __init__(self, root: str, harness: str, work: str, cache: str,
                 committed_refs: str) -> None:
        self.root, self.harness = root, harness
        self.work, self.cache = work, cache
        self.committed_refs = committed_refs
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), harness]
        )
        self._files = 0

    def path(self, stem: str) -> str:
        self._files += 1
        return os.path.join(self.work, f"{self._files:03d}-{stem}")

    def write_json(self, stem: str, data) -> str:
        path = self.path(stem)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path


def _child(ctx: Context, workload: str, inputs: dict, role: str,
           trace: "str | None" = None) -> "tuple[float, float, dict | None]":
    """Run one child process; returns ``(spawn time, setup seconds,
    result)``.  Set-up is timed from spawn to the child's READY line."""
    out = ctx.path(f"{workload}-out.json")
    cmd = [sys.executable, os.path.join(ctx.harness, "child.py"), workload,
           "--inputs", ctx.write_json(f"{workload}-in.json", inputs),
           "--role", role, "--out", out]
    if trace:
        cmd += ["--trace", trace]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ctx.root, env=ctx.env,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
        rc = proc.wait(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "READY" or rc != 0:
        raise RuntimeError(f"{workload} child failed (exit {rc})")
    setup = t1 - t0
    if role == "setup":
        return t0, setup, None
    with open(out, encoding="utf-8") as fh:
        return t0, setup, json.load(fh)


def _pass(scale: Scale, setup_s: list, spawned: float, ops: int, rss: float,
          op_s: list, op_ref_s: list, attempted: int, failed: int,
          notes: dict, wall=None, op_weight=None) -> Pass:
    """A :class:`Pass` whose timed phase runs from the first reference
    slice to the last; ``wall`` overrides the (raw, rescaled) wall time.

    Set-up times are rescaled by the host speed of the timed phase that
    follows them: a set-up is short and starts in a fresh process, and
    bursts of slices at its two ends followed it less well than this,
    while the host's drift between runs, which this removes, moved the
    raw median by up to a quarter between two sets of runs."""
    window = (scale.marks[0][0], scale.marks[-1][1])
    factor = scale.mean_wall_factor()
    wall_s, wall_ref_s = wall or scale.work_wall()
    cpu_s, cpu_ref_s = scale.work_cpu()
    return Pass(
        setup_s=[s * factor for s in setup_s], setup_raw_s=setup_s,
        wall_s=wall_s, wall_ref_s=wall_ref_s, op_s=op_s,
        op_ref_s=op_ref_s, cpu_s=cpu_s, cpu_ref_s=cpu_ref_s, ops=ops,
        peak_rss_mb=rss, attempted=attempted, failed=failed, window=window,
        setup_window=(spawned, window[0]), slice_ms=scale.slice_ms(),
        slices=len(scale.marks), notes=notes, op_weight=op_weight,
    )


# -- figures -------------------------------------------------------------------


class Figures:
    """The fast-preset battery of every figure driver."""

    name = "figures"

    def __init__(self, ctx: Context, seed: int, seconds: int) -> None:
        self.ctx = ctx
        self.scenario = gen.scenario(seed, 0)

    def _inputs(self) -> dict:
        ctx = self.ctx
        return {
            "results_dir": ctx.path("results"),
            "scenario_file": ctx.write_json("scenario.json", self.scenario),
            "stdout_file": ctx.path("figures-stdout.txt"),
        }

    def _battery(self, setups: int, trace=None):
        setup_s = []
        for _ in range(setups - 1):
            setup_s.append(_child(self.ctx, "figures", self._inputs(),
                                  "setup")[1])
        inputs = self._inputs()
        spawned, setup, result = _child(self.ctx, "figures", inputs, "run",
                                        trace)
        setup_s.append(setup)
        path = os.path.join(inputs["results_dir"], "battery", "manifest.json")
        manifest = None
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        return setup_s, spawned, result, manifest

    def measure(self, setups: int, trace=None) -> Pass:
        setup_s, spawned, result, manifest = self._battery(setups, trace)
        attempted, failed, notes = self.check(manifest)
        scale = Scale(result["slices"])
        runs = result["app_runs"]
        return _pass(
            scale, setup_s, spawned, result["ops"], result["peak_rss_mb"],
            [d / n for _t, d, n in runs],
            [scale.wall(t, d) / n for t, d, n in runs],
            attempted, failed, notes, op_weight=[n for _t, _d, n in runs],
        )

    def check(self, manifest) -> "tuple[int, int, dict]":
        """Every panel: its paper checks pass, and every series value
        equals the reference exactly.  One panel is one operation."""
        reference = refs.figures_reference(
            self.ctx.committed_refs, self.ctx.cache,
            record=lambda: self._battery(1)[3],
        )
        panels = sorted(reference["checks"])
        if manifest is None:
            return len(panels), len(panels), {"missing": "manifest"}
        checks = refs.manifest_checks(manifest)
        values = refs.manifest_values(manifest)
        wrong = {
            panel for panel in panels
            if checks.get(panel) != (reference["checks"][panel], 0)
        }
        for key, expected in reference["values"].items():
            if values.get(key) != expected:
                wrong.add(key.split("|", 1)[0])
        for key in set(values) - set(reference["values"]):
            wrong.add(key.split("|", 1)[0])
        if not self._workload_panel_ok(manifest):
            wrong.add("workload")
        notes = {
            "panels": len(panels),
            "checks_passed": sum(p for p, _ in checks.values()),
            "wrong_panels": sorted(wrong),
        }
        return len(panels), len(wrong), notes

    def _workload_panel_ok(self, manifest) -> bool:
        """The seeded scenario's panel: the DES series equals the DES
        reference and the model series equals the model, exactly."""
        got = {}
        for gauge in manifest["metrics"]["gauges"]:
            labels = gauge["labels"]
            if (gauge["name"] == "experiment.value"
                    and labels["experiment"] == "workload"):
                got[(labels["series"], str(labels["x"]))] = gauge["value"]
        specs = [refs.scenario_spec(self.scenario, p)
                 for p in refs.WORKLOAD_PANEL_P]
        des = refs.des_elapsed(specs, self.ctx.cache)
        expected = {}
        for p, spec, d in zip(refs.WORKLOAD_PANEL_P, specs, des):
            expected[("elapsed", str(p))] = d
            model = spec.predict().elapsed
            expected[("model", str(p))] = model
            expected[("grid", str(p))] = model
        return got == expected


# -- tune ----------------------------------------------------------------------


class Tune:
    """Closed-loop autotune and sweep queries on a warm hybrid backend."""

    name = "tune"

    def __init__(self, ctx: Context, seed: int, seconds: int) -> None:
        self.ctx = ctx
        self.queries = gen.tune_queries(seed, TUNE_QUERIES_PER_S * seconds)

    def _inputs(self, with_queries: bool) -> dict:
        return {"store": self.ctx.path("store.json"),
                "queries": self.queries if with_queries else []}

    def measure(self, setups: int, trace=None) -> Pass:
        setup_s = [
            _child(self.ctx, "tune", self._inputs(False), "setup")[1]
            for _ in range(setups - 1)
        ]
        spawned, setup, result = _child(
            self.ctx, "tune", self._inputs(True), "run", trace
        )
        setup_s.append(setup)
        ok = self.check(result["answers"])
        scale = Scale(result["slices"])
        queries = result["queries"]
        return _pass(
            scale, setup_s, spawned, len(queries), result["peak_rss_mb"],
            [d if good else math.inf for (_t, d), good in zip(queries, ok)],
            [scale.wall(t, d) if good else math.inf
             for (t, d), good in zip(queries, ok)],
            len(ok), ok.count(False),
            {"des_runs_timed": result["des_runs_timed"]},
        )

    def check(self, answers: list) -> list:
        """Each answer is error-free and every time it names is within
        the engine's tolerance of the DES time of that configuration."""
        points = []  # (answer index, returned seconds, spec)
        ok = [True] * len(answers)
        for i, (q, ans) in enumerate(zip(self.queries, answers)):
            if "error" in ans:
                ok[i] = False
            elif q["kind"] == "autotune":
                if ans["P"] not in q["P"] or ans["T"] not in q["T"]:
                    ok[i] = False
                else:
                    points.append((i, ans["s"], refs.app_spec(
                        q["app"], ans["P"], ans["T"], q["D"])))
            else:
                grid = [(p, t) for p in q["P"] for t in q["T"]]
                if len(ans["s"]) != len(grid):
                    ok[i] = False
                    continue
                for (p, t), s in zip(grid, ans["s"]):
                    points.append((i, s, refs.app_spec(q["app"], p, t, q["D"])))
        des = refs.des_elapsed([spec for _, _, spec in points], self.ctx.cache)
        for (i, got, _spec), want in zip(points, des):
            if not within(got, want, refs.TOLERANCE):
                ok[i] = False
        return ok


# -- serve ---------------------------------------------------------------------

_LISTENING = re.compile(r"repro\.serve listening on http://([^:]+):(\d+)")
_WINDOW = re.compile(r"window=([0-9.]+)ms")
_RUNS_EXECUTED = re.compile(r"^executor\.runs_executed: (\S+)$", re.M)


class Serve:
    """A warm ``python -m repro serve`` driven open-loop at a fixed rate."""

    name = "serve"

    def __init__(self, ctx: Context, seed: int, seconds: int) -> None:
        self.ctx = ctx
        self.families = gen.serve_hot_families(seed)
        self.scenarios = [gen.scenario(seed, i) for i in range(3)]
        count = SERVE_REQUESTS_PER_S * seconds
        self.requests = gen.serve_requests(seed, count, self.families,
                                           self.scenarios)
        gaps = gen.arrival_gaps(seed, count, SERVE_RATE, SERVE_MIN_GAP_S)
        self.offsets = _cumulative(gaps)

    # -- server lifecycle --------------------------------------------------

    def _boot(self, trace=None):
        """Start the server and warm it; returns the process, its
        address, its slices file, spawn time and set-up seconds."""
        store = self.ctx.path("store.json")
        slices = self.ctx.path("slices.json")
        cmd = [sys.executable, os.path.join(self.ctx.harness, "child.py"),
               "serve", "--out", slices]
        if trace:
            cmd += ["--trace", trace]
        cmd += ["--", "serve", "--engine-store", store, "--port", "0"]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.ctx.root, env=self.ctx.env,
                                stdout=subprocess.PIPE, text=True)
        try:
            while True:
                line = proc.stdout.readline()
                if not line:
                    raise RuntimeError("server exited before listening")
                match = _LISTENING.search(line)
                if match:
                    break
            addr = (match.group(1), int(match.group(2)))
            self.window_s = float(_WINDOW.search(proc.stdout.readline())
                                  .group(1)) / 1e3
            self._warm(addr)
        except BaseException:
            _stop(proc)
            raise
        return proc, addr, slices, t0, perf_counter() - t0

    def _warm(self, addr) -> None:
        """Certify every hot family (one whole-P sweep each, which runs
        the DES calibration), then one pass over every hot point."""
        conn = http.client.HTTPConnection(*addr, timeout=CHILD_TIMEOUT)
        try:
            bodies = []
            for fam in self.families:
                bodies.append(("/sweep", {"app": fam["app"], "D": fam["D"],
                                          "T": [fam["T"]],
                                          "P": list(gen.P_VALUES)}))
            for sc in self.scenarios:
                bodies.append(("/sweep", {"workload": sc,
                                          "P": list(gen.P_VALUES)}))
            for p in gen.P_VALUES:
                for fam in self.families:
                    bodies.append(("/predict", {"app": fam["app"],
                                                "D": fam["D"], "T": fam["T"],
                                                "P": p}))
                for sc in self.scenarios:
                    bodies.append(("/predict", {"workload": sc, "P": p}))
            for path, payload in bodies:
                conn.request("POST", path, body=gen.encode(payload),
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                resp.read()
                if resp.status != 200:
                    raise RuntimeError(f"warm-up {path} answered {resp.status}")
        finally:
            conn.close()

    @staticmethod
    def _runs_executed(addr) -> float:
        conn = http.client.HTTPConnection(*addr, timeout=30)
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()
        match = _RUNS_EXECUTED.search(text)
        return float(match.group(1)) if match else 0.0

    # -- measurement -------------------------------------------------------

    def measure(self, setups: int, trace=None) -> Pass:
        # The server (which inherits the affinity) and this process, the
        # load generator, share one CPU.  Arrivals 15 ms apart keep them
        # from running at once, and a request or a response then wakes a
        # process on a CPU that is already running rather than a sleeping
        # virtual CPU, whose wake-up waits on the host.
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            (setup_s, spawned, rss, des_runs, gen_load,
             slices_path) = self._serve(setups, trace)
        finally:
            os.sched_setaffinity(0, cpus)
        with open(slices_path, encoding="utf-8") as fh:
            scale = Scale(json.load(fh))
        ok = self.check(gen_load)
        raw = [
            lat if good else math.inf
            for lat, good in zip(gen_load.latencies(), ok)
        ]
        ref = [self._rescale(scale, path, due, lat)
               for (path, _p), due, lat in zip(self.requests, gen_load.due,
                                               raw)]
        first = gen_load.due[0]
        done = [d + lat for d, lat in zip(gen_load.due, raw)
                if math.isfinite(lat)]
        done_ref = [d + lat for d, lat in zip(gen_load.due, ref)
                    if math.isfinite(lat)]
        wall = ((max(done) - first, max(done_ref) - first) if done
                else (math.inf, math.inf))
        lags = gen_load.lags()
        return _pass(
            scale, setup_s, spawned, len(raw), rss, raw, ref, len(ok),
            ok.count(False),
            {"des_runs_timed": des_runs,
             "lag_p50_ms": 1e3 * nearest_rank(lags, 0.5)[0],
             "lag_p90_ms": 1e3 * nearest_rank(lags, 0.9)[0],
             "connects": gen_load.connects},
            wall=wall,
        )

    def _serve(self, setups: int, trace):
        """The set-ups and the timed phase; stops every server it starts."""
        setup_s = []
        for _ in range(setups - 1):
            proc, _addr, _slices, _t0, setup = self._boot()
            setup_s.append(setup)
            _stop(proc)
        proc, addr, slices_path, spawned, setup = self._boot(trace)
        setup_s.append(setup)
        try:
            runs_before = self._runs_executed(addr)
            gen_load = OpenLoop(
                addr[0], addr[1],
                [request_bytes(path, gen.encode(payload), addr[0])
                 for path, payload in self.requests],
                self.offsets, connections=2,
                quiet=lambda: os.kill(proc.pid, signal.SIGUSR1),
            )
            # The generator's own collector pauses would show up as lag.
            gc.disable()
            try:
                asyncio.run(gen_load.run())
            finally:
                gc.enable()
            rss = peak_rss_mb(proc.pid)
            des_runs = self._runs_executed(addr) - runs_before
        finally:
            _stop(proc)
        return setup_s, spawned, rss, des_runs, gen_load, slices_path

    def _rescale(self, scale: Scale, path: str, due: float,
                 latency: float) -> float:
        """A request's latency at the reference speed.  The batching
        window, a timer, is not rescaled: the first ``window_s`` of a
        ``/predict`` latency stays as measured and only the rest, the
        server's work, is rescaled by the server's speed at that time."""
        if not math.isfinite(latency):
            return latency
        timer = min(latency, self.window_s) if path == "/predict" else 0.0
        return timer + scale.wall(due, latency - timer)

    def check(self, load: OpenLoop) -> list:
        """HTTP 200, a well-formed body, and every returned time within
        the engine's tolerance of the DES time of the point it names."""
        points = []  # (request index, returned seconds, spec)
        ok = [True] * len(self.requests)
        for i, (path, payload) in enumerate(self.requests):
            if load.status[i] != 200:
                ok[i] = False
                continue
            try:
                got = _parse_answer(path, payload, load.body[i])
            except (ValueError, KeyError, TypeError):
                ok[i] = False
                continue
            for p, seconds in got:
                if "workload" in payload:
                    spec = refs.scenario_spec(payload["workload"], p)
                else:
                    spec = refs.app_spec(payload["app"], p, _one_t(payload),
                                         payload["D"])
                points.append((i, seconds, spec))
        des = refs.des_elapsed([spec for _, _, spec in points], self.ctx.cache)
        for (i, got, _spec), want in zip(points, des):
            if not within(got, want, refs.TOLERANCE):
                ok[i] = False
        return ok


def _cumulative(gaps: list) -> list:
    out, t = [], 0.0
    for gap in gaps:
        t += gap
        out.append(t)
    return out


def _one_t(payload: dict) -> int:
    t = payload["T"]
    return t[0] if isinstance(t, list) else t


def _parse_answer(path: str, payload: dict, body: bytes) -> list:
    """``[(P, elapsed seconds), ...]`` from one response body; raises
    ``ValueError`` when the body does not answer the request."""
    if path == "/predict":
        ans = json.loads(body)
        if ans["P"] != payload["P"]:
            raise ValueError("answer names another partition count")
        return [(ans["P"], ans["elapsed_seconds"])]
    if payload.get("stream"):
        lines = [json.loads(line) for line in body.decode().splitlines()]
        tail = lines.pop()
        if tail != {"done": True, "results": len(payload["P"])}:
            raise ValueError(f"stream ended with {tail!r}")
        results = lines
    else:
        results = json.loads(body)["results"]
    got = [(r["P"], r["elapsed_seconds"]) for r in results]
    if [p for p, _ in got] != list(payload["P"]):
        raise ValueError("sweep answered other partition counts")
    return got


def _stop(proc: subprocess.Popen) -> None:
    """SIGTERM (the server drains), then wait; kill if it hangs."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.read()
        proc.stdout.close()


WORKLOADS = {cls.name: cls for cls in (Figures, Tune, Serve)}
