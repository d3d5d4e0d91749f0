#!/usr/bin/env python
"""Dump the grid model's answers over one fixed grid, or compare two dumps.

Usage::

    PYTHONPATH=src python scripts/grid_parity.py --out F [--limit N]
    python scripts/grid_parity.py --compare A B

``--out`` evaluates the grid below with cold caches and writes ``{point:
float.hex of the predicted seconds, or the refusal text}`` as JSON:

* the benchmark's ``tune`` dataset pool (``perfbench/harness/gen.py``'s
  ``tune_pool()``, read through ``sys.path`` and left untouched), each
  entry at each of its tilings and every ``gen.P_VALUES``, built as the
  serve API builds them (``APP_PROFILES[app].spec(p, t, d)``).  Entries
  alternate between one ``predict_runs`` batch and point-by-point
  ``predict_run`` calls, so both surfaces are covered;
* the 2-device MatMul and Cholesky geometries of
  ``tests/engine/test_model_pins.py``, plus MatMul (6000, 64) and
  Cholesky (4800, 100), at P 2, 3, 4, 5 and 8;
* Hotspot (256, 8, ``iterations=3``) with a first-invocation cost on
  one and two cards at P 2 to 56;
* ``settles``: the phases the pool's points settled per walk, the
  ``engine.grid.settles`` routes.

``--limit N`` keeps the first ``N`` pool entries (apps interleaved), a
quick slice.  ``--compare`` lists every key that is missing on one side
or differs, and exits 1 if there is any.  Run ``--out`` in two
checkouts (each with its own ``src`` on ``PYTHONPATH``) and compare the
files to check that a change to the model leaves every answer's bits.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench" / "harness"))

import gen  # noqa: E402  (perfbench/harness/gen.py)

#: 2-device geometries: the pinned ones and two more the eager settle
#: found ties in.
TWO_DEVICE = [
    ("MatMulApp", 600, 16),
    ("MatMulApp", 6000, 144),
    ("CholeskyApp", 720, 9),
    ("CholeskyApp", 4800, 36),
    ("MatMulApp", 6000, 64),
    ("CholeskyApp", 4800, 100),
]
TWO_DEVICE_PLACES = (2, 3, 4, 5, 8)
FIRST_INVOCATION_PLACES = (2, 3, 4, 5, 7, 8, 13, 14, 16, 28, 32, 56)


def _pool_entries(limit: "int | None") -> list:
    """The tune pool's entries, apps interleaved, first ``limit``."""
    pool = gen.tune_pool()
    columns = [pool[app] for app in gen.APP_NAMES]
    entries = [
        column[i]
        for i in range(max(map(len, columns)))
        for column in columns
        if i < len(column)
    ]
    return entries if limit is None else entries[:limit]


def _answer(thunk) -> str:
    from repro.errors import ModelUnsupportedError

    try:
        return float(thunk()).hex()
    except ModelUnsupportedError as exc:
        return f"refused: {exc}"


def dump(limit: "int | None") -> dict:
    from repro import apps
    from repro.device.spec import PHI_31SP, RuntimeOverheads
    from repro.engine import grid
    from repro.errors import ModelUnsupportedError
    from repro.metrics.registry import scoped_registry
    from repro.parallel import RunSpec
    from repro.serve.api import APP_PROFILES

    grid.clear_grid_caches()
    out: dict = {}
    settles = [0] * len(grid._SETTLE_ROUTES)
    batch: list = []  # (key, spec)
    for n, entry in enumerate(_pool_entries(limit)):
        app, d = entry["app"], entry["D"]
        points = [
            (f"tune|{app}|{d}|{t}|P{p}", APP_PROFILES[app].spec(p, t, d))
            for t in entry["T"]
            for p in gen.P_VALUES
        ]
        if n % 2 == 0:
            batch += points
            continue
        for key, spec in points:
            out[key] = _answer(lambda: grid.predict_run(spec).elapsed)
        # Point-by-point answers reach no registry: read the families'
        # own running totals (each entry's families are new here).
        for t in entry["T"]:
            try:
                family = grid._compiled_for(APP_PROFILES[app].spec(1, t, d))
            except ModelUnsupportedError:
                continue
            for route, count in enumerate(family.settles):
                settles[route] += count
    with scoped_registry() as registry:
        runs = grid.GridPlan.build([s for _, s in batch]).predict_runs(
            strict=False
        )
        snapshot = registry.snapshot()
    for (key, spec), run in zip(batch, runs):
        out[key] = (
            run.elapsed.hex() if run is not None
            else _answer(lambda: grid.predict_run(spec).elapsed)
        )
    for route, name in enumerate(grid._SETTLE_ROUTES):
        settles[route] += int(
            snapshot.counter_value("engine.grid.settles", route=name)
        )

    for cls, d, t in TWO_DEVICE:
        for p in TWO_DEVICE_PLACES:
            spec = RunSpec.for_app(
                getattr(apps, cls), d, t, places=p, num_devices=2
            )
            out[f"two_device|{cls}|{d}|{t}|P{p}"] = _answer(
                lambda: grid.predict_run(spec).elapsed
            )
    first = PHI_31SP.with_overrides(
        overheads=RuntimeOverheads(first_invoke_extra=1.5e-3)
    )
    for devices in (1, 2):
        for p in FIRST_INVOCATION_PLACES:
            spec = RunSpec.for_app(
                apps.HotspotApp, 256, 8, places=p, num_devices=devices,
                spec=first, iterations=3,
            )
            out[f"first_invocation|D{devices}|P{p}"] = _answer(
                lambda: grid.predict_run(spec).elapsed
            )
    out["settles"] = dict(zip(grid._SETTLE_ROUTES, settles))
    grid.clear_grid_caches()
    return out


def compare(a: dict, b: dict) -> list:
    """Keys missing on one side or whose values differ, sorted."""
    return sorted(
        key for key in a.keys() | b.keys()
        if key not in a or key not in b or a[key] != b[key]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", metavar="F", help="write the dump to F")
    mode.add_argument(
        "--compare", nargs=2, metavar=("A", "B"), help="compare two dumps"
    )
    parser.add_argument(
        "--limit", type=int, metavar="N",
        help="only the first N tune pool entries",
    )
    args = parser.parse_args(argv)
    if args.out:
        result = dump(args.limit)
        Path(args.out).write_text(json.dumps(result, indent=0, sort_keys=True))
        points = len(result) - 1
        refused = sum(
            isinstance(v, str) and v.startswith("refused")
            for v in result.values()
        )
        print(
            f"{points} points ({refused} refused), settles "
            f"{result['settles']} -> {args.out}"
        )
        return 0
    a, b = (json.loads(Path(f).read_text()) for f in args.compare)
    differ = compare(a, b)
    for key in differ:
        print(f"{key}: {a.get(key, '<missing>')} != {b.get(key, '<missing>')}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} keys differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
