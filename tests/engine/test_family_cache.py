"""The compiled-family cache keeps a tuner's hot set.

A tuning loop revisits a few hot (app, D, T) families between datasets
it sees once.  The LRU bound on compiled families (``grid._FAMILY_CAP``)
must hold the hot set through that traffic; an evicted hot family pays
its columns and every point again on its next visit.
"""

from __future__ import annotations

from collections import Counter

from repro.apps import NNApp
from repro.engine import grid
from repro.engine.grid import clear_grid_caches
from repro.parallel import RunSpec

HOT, ONE_OFF, CYCLES = 30, 40, 3


def _nn(d: int) -> RunSpec:
    # One tiling, so every family shares one lowering: cheap to compile.
    return RunSpec.for_app(NNApp, d, 16, places=4)


def test_one_off_families_do_not_evict_the_hot_set(monkeypatch):
    hot = [_nn(20000 + i) for i in range(HOT)]
    traffic = list(hot)
    for cycle in range(CYCLES):
        traffic += [_nn(40000 + ONE_OFF * cycle + j) for j in range(ONE_OFF)]
        traffic += hot
    compiles: Counter = Counter()
    compile_family = grid._compile_family

    def counted(spec):
        compiles[spec.app_args] += 1
        return compile_family(spec)

    monkeypatch.setattr(grid, "_compile_family", counted)
    clear_grid_caches()
    answers = [grid.predict_run(spec).elapsed.hex() for spec in traffic]
    assert len(compiles) == HOT + CYCLES * ONE_OFF
    assert set(compiles.values()) == {1}

    cold = {}
    for spec in traffic:
        if spec.app_args not in cold:
            clear_grid_caches()
            cold[spec.app_args] = grid.predict_run(spec).elapsed.hex()
    clear_grid_caches()
    assert answers == [cold[spec.app_args] for spec in traffic]
