"""The eager settle against the heap walk, phase by phase.

``grid._settle_eager`` settles a single-card phase ordering only the
link lane, and refuses wherever it cannot prove ``grid._eval_phase``'s
grant order; ``_eval_phase`` then settles the phase from the same entry
state.  These tests wrap the eager walk so that every phase it sees is
also settled by the heap walk, and demand the same per-stream tails,
compared with ``float.hex``, wherever the eager walk does not refuse.
The deterministic cases pin the tie-breaks and refusals of the
exactness rule (``docs/PERF.md``, *Vectorized grid path*), and the
route counter that reports them.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import CholeskyApp, MatMulApp, NNApp
from repro.device.spec import PHI_31SP, RuntimeOverheads
from repro.engine import grid, predict_runs
from repro.engine.grid import clear_grid_caches
from repro.errors import ModelUnsupportedError
from repro.metrics.registry import scoped_registry
from repro.parallel import RunSpec
from tests.strategies import ONE_CARD_SPEC_STRATEGIES, workload_run_specs

#: The default card, one whose dispatch costs nothing, and one whose
#: link has no setup latency: the last two remove the progress the
#: eager walk's discovery argument rests on.
DEVICES = {
    "default": PHI_31SP,
    "dispatch0": PHI_31SP.with_overrides(
        overheads=RuntimeOverheads(dispatch=0.0)
    ),
    "latency0": PHI_31SP.with_overrides(
        link=replace(PHI_31SP.link, latency=0.0)
    ),
}


def _on(spec: RunSpec, device) -> RunSpec:
    kwargs = dict(spec.app_kwargs)
    kwargs["spec"] = device
    return replace(spec, app_kwargs=tuple(sorted(kwargs.items())))


class Walks:
    """Every phase the eager walk was offered at one point: its tails
    (``None`` where it refused) beside the heap walk's, and every
    idle-lane tie it met, as ``(tied, winner, activating completions)``
    (winner ``None`` where it refused)."""

    def __init__(self, monkeypatch):
        self.phases: list = []
        self.ties: list = []
        eager, first = grid._settle_eager, grid._first_activated

        def both(sp, laneq, cost, tails, floor, fam):
            entry = tails[:]
            out = eager(sp, laneq, cost, tails, floor, fam)
            assert tails == entry, "the eager walk wrote its entry tails"
            grid._eval_phase(sp, laneq, cost, entry, floor, None, fam)
            self.phases.append((out, entry))
            return out

        def record(tied, kinds, pdone, act):
            k = first(tied, kinds, pdone, act)
            self.ties.append((list(tied), k, [act[x] for x in tied]))
            return k

        monkeypatch.setattr(grid, "_settle_eager", both)
        monkeypatch.setattr(grid, "_first_activated", record)

    def point(self, spec: RunSpec) -> float:
        clear_grid_caches()
        return spec.predict().elapsed

    @property
    def refused(self) -> int:
        return sum(out is None for out, _ in self.phases)

    def mismatches(self) -> list:
        return [
            (i, out, heap)
            for i, (out, heap) in enumerate(self.phases)
            if out is not None
            and [t.hex() for t in out] != [t.hex() for t in heap]
        ]


@pytest.fixture
def walks(monkeypatch):
    yield Walks(monkeypatch)
    clear_grid_caches()


def _app(cls, d, t, p, device=PHI_31SP):
    return RunSpec.for_app(cls, d, t, places=p, spec=device)


# -- differential property ----------------------------------------------------


@settings(deadline=None)
@given(
    spec=st.one_of(*ONE_CARD_SPEC_STRATEGIES, workload_run_specs()),
    device=st.sampled_from(sorted(DEVICES)),
)
def test_eager_walk_refuses_or_equals_the_heap_walk(spec, device):
    with pytest.MonkeyPatch.context() as patch:
        walks = Walks(patch)
        try:
            walks.point(_on(spec, DEVICES[device]))
        except ModelUnsupportedError:
            pass
        assert not walks.mismatches()
        if device == "dispatch0":
            assert walks.refused == len(walks.phases)
    clear_grid_caches()


# -- the exactness rule, case by case -----------------------------------------


def test_four_way_idle_lane_tie_is_decided_by_provenance(walks):
    # Four uploads request the idle lane at one time, each activated by
    # its own kernel, and those kernels finished at one time too: the
    # order comes from the kernels' own activations.
    walks.point(_app(MatMulApp, 6000, 64, 4))
    assert walks.refused == 0 and walks.phases and not walks.mismatches()
    assert any(
        len(tied) == 4 and k is not None and len(set(acts)) == 4
        and min(acts) >= 0
        for tied, k, acts in walks.ties
    )


def test_first_grant_need_not_be_the_lowest_index(walks):
    # The heap walk grants action 283 before 260: the two uploads tie at
    # one request time, and 283's kernel was activated first.  An issue
    # index order leaves two streams with different tails here even
    # though the point's answer happens to coincide, so compare tails.
    walks.point(_app(CholeskyApp, 10080, 100, 7))
    assert ([260, 283], 283) in [(tied, k) for tied, k, _ in walks.ties]
    assert walks.refused == 0
    assert walks.phases and not walks.mismatches()


@pytest.mark.parametrize(
    "cls, d, t, p",
    [
        # Two uploads tie; their kernels' activations trace back, four
        # completions deep, to a kernel and a lane release that finished
        # together, which the heap walk orders by push order alone.
        (CholeskyApp, 4800, 100, 7),
        # Two requests arrive exactly at the lane's release time.
        (MatMulApp, 3360, 64, 16),
    ],
)
def test_unproven_orders_are_refused(walks, cls, d, t, p):
    walks.point(_app(cls, d, t, p))
    assert walks.refused >= 1
    assert not walks.mismatches()


def test_no_dispatch_progress_refuses(walks):
    walks.point(_app(NNApp, 200000, 16, 4, DEVICES["dispatch0"]))
    assert walks.phases and walks.refused == len(walks.phases)


def test_a_release_at_its_grant_refuses():
    # One upload on a link with no latency: with nothing to move, the
    # lane would be released at its grant.
    upload = grid._SchedulePhase(
        [1], np.zeros(1, dtype=np.int64), [0], [()], [1], [0], None
    )
    link = SimpleNamespace(dispatch=4e-6, lat=0.0)
    assert grid._settle_eager(upload, [0.0], [0.0], [0.0], 0.0, link) is None
    assert grid._settle_eager(upload, [1e-3], [0.0], [0.0], 0.0, link) == [
        4e-6 + 1e-3
    ]


# -- engine.grid.settles -----------------------------------------------------


def _settles(specs) -> dict:
    clear_grid_caches()
    with scoped_registry() as registry:
        predict_runs(specs)
        snapshot = registry.snapshot()
    clear_grid_caches()
    return {
        route: snapshot.counter_value("engine.grid.settles", route=route)
        for route in ("eager", "refused", "heap")
    }


def test_an_nn_point_settles_eagerly():
    counts = _settles([_app(NNApp, 20000, 16, 4)])
    assert counts["eager"] >= 1
    assert counts["refused"] == counts["heap"] == 0


def test_a_two_card_point_settles_on_the_heap_walk():
    counts = _settles(
        [RunSpec.for_app(MatMulApp, 600, 16, places=4, num_devices=2)]
    )
    assert counts["heap"] >= 1
    assert counts["eager"] == counts["refused"] == 0


def test_a_refused_settle_is_counted():
    assert _settles([_app(CholeskyApp, 4800, 100, 7)])["refused"] >= 1


def test_memoized_points_settle_nothing():
    spec = _app(NNApp, 20000, 16, 4)
    clear_grid_caches()
    predict_runs([spec])
    with scoped_registry() as registry:
        predict_runs([spec])
        snapshot = registry.snapshot()
    clear_grid_caches()
    assert snapshot.counter_value("engine.grid.settles", route="eager") == 0
