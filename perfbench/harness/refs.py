"""Correctness references, computed with the DES and kept on disk.

The DES is deterministic, so a reference computed once stays valid for
as long as the device model is unchanged.  Point references live in one
JSON file per device-model fingerprint (``des-<fingerprint>.json``
under the cache directory), keyed by each spec's cache key, which
already names the app, its arguments, the run geometry and the
fingerprint.  They are computed outside every timed phase, in this
process, through the program's own sweep executor.

The figure battery's reference is committed (``perfbench/refs``) for
the fingerprint it was recorded at.  A program with another device
model has no committed reference; for it, one battery run is recorded
into the cache directory the first time and reused after.
"""

from __future__ import annotations

import json
import os

#: Relative tolerance of the hybrid engine's certification (the program's
#: ``repro.engine.DEFAULT_TOLERANCE``); answers must be this close to
#: the DES.
TOLERANCE = 0.05

#: The figure battery runs the ``workload`` panel over these partitions
#: in its fast preset.
WORKLOAD_PANEL_P = (1, 2, 4, 8)


def fingerprint() -> str:
    from repro.device.calibration import model_fingerprint
    from repro.device.spec import PHI_31SP

    return model_fingerprint(PHI_31SP)


def _read_json(path: str, default):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return default


def _write_json(path: str, data) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)
    os.replace(tmp, path)


def app_spec(app: str, p: int, t: int, d: int):
    from repro.serve.api import APP_PROFILES

    return APP_PROFILES[app].spec(p, t, d)


def scenario_spec(scenario: dict, p: int):
    from repro.parallel.runspec import RunSpec

    return RunSpec.for_workload(scenario, places=p)


def des_elapsed(specs: list, cache_dir: str, jobs: int = 2) -> list:
    """DES elapsed seconds per spec (``nan`` where the DES failed),
    simulating only specs missing from the on-disk reference file."""
    from repro.parallel import run_sweep

    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"des-{fingerprint()}.json")
    table = _read_json(path, {})
    keys = [spec.cache_key() for spec in specs]
    missing = {}
    for key, spec in zip(keys, specs):
        if key not in table:
            missing.setdefault(key, spec)
    if missing:
        runs = run_sweep(
            list(missing.values()), jobs=min(jobs, os.cpu_count() or 1),
            on_error="record",
        )
        for key, run in zip(missing, runs):
            table[key] = float(getattr(run, "elapsed", float("nan")))
        _write_json(path, table)
    return [table[key] for key in keys]


def manifest_values(manifest: dict, skip=("workload",)) -> dict:
    """``"panel|series|x" -> value`` for every figure series point in a
    run manifest, without the seed-dependent panels in ``skip``."""
    out = {}
    for gauge in manifest["metrics"]["gauges"]:
        labels = gauge["labels"]
        if gauge["name"] != "experiment.value":
            continue
        if labels["experiment"] in skip:
            continue
        key = f"{labels['experiment']}|{labels['series']}|{labels['x']}"
        out[key] = gauge["value"]
    return out


def manifest_checks(manifest: dict) -> dict:
    """Panel -> (checks passed, checks failed)."""
    return {
        e["experiment"]: (e["checks_passed"], e["checks_failed"])
        for e in manifest["experiments"]
    }


def figures_reference(committed_dir: str, cache_dir: str,
                      record=None) -> dict:
    """The battery reference for the current device model: the committed
    one when its fingerprint matches, else a cached recording, else one
    recorded now by ``record()`` (a callable returning a manifest)."""
    fp = fingerprint()
    for path in (os.path.join(committed_dir, "figures.json"),
                 os.path.join(cache_dir, f"figures-{fp}.json")):
        ref = _read_json(path, None)
        if ref is not None and ref["fingerprint"] == fp:
            return ref
    if record is None:
        raise RuntimeError(f"no figure reference for device model {fp}")
    ref = make_figures_reference(record())
    os.makedirs(cache_dir, exist_ok=True)
    _write_json(os.path.join(cache_dir, f"figures-{fp}.json"), ref)
    return ref


def make_figures_reference(manifest: dict) -> dict:
    return {
        "fingerprint": manifest["config"]["fingerprint"],
        "checks": {k: v[0] for k, v in manifest_checks(manifest).items()},
        "values": manifest_values(manifest),
    }
