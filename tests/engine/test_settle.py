"""The eager settle against the heap walk, phase by phase.

``grid._settle_eager`` settles a single-card phase ordering only the
link lane, and refuses wherever it cannot prove ``grid._eval_phase``'s
grant order; ``_eval_phase`` then settles the phase from the same entry
state.  A phase with no explicit deps takes the chain form,
``grid._settle_chains``, which must give ``_settle_eager``'s result on
the same phase: the same refusal or the same bits.  These tests wrap
both walks so that every phase they see is also settled by the heap
walk, and demand the same per-stream tails, compared with ``float.hex``,
wherever the walk does not refuse.  The deterministic cases pin the
tie-breaks and refusals of the exactness rule (``docs/PERF.md``,
*Vectorized grid path*), and the route counter that reports them.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import CholeskyApp, HotspotApp, MatMulApp, NNApp
from repro.device.spec import PHI_31SP, RuntimeOverheads
from repro.engine import grid, predict_runs
from repro.engine.grid import clear_grid_caches
from repro.errors import ModelUnsupportedError
from repro.metrics.registry import scoped_registry
from repro.parallel import RunSpec
from repro.workload import PhaseSpec, WorkloadSpec
from tests.strategies import (
    ONE_CARD_SPEC_STRATEGIES,
    places,
    workload_run_specs,
    workload_specs,
)

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


def _dep_form(sp):
    """A chain-form phase in the form ``_settle_eager`` walks: each
    action's FIFO successor as its one dependent."""
    return grid._SchedulePhase(
        sp.kind,
        sp.stream,
        sp.device_of,
        [() if d < 0 else (d,) for d in sp.nxt],
        [1] * len(sp.nxt),
        sp.init,
        None,
    )


class Walks:
    """Every phase an eager walk was offered at one point: its tails
    (``None`` where it refused) beside the heap walk's; for each
    chain-form phase, the chain walk's result beside ``_settle_eager``'s
    on the same phase; and every idle-lane tie either walk met, as
    ``(tied, winner, activating completions)`` (winner ``None`` where it
    refused)."""

    def __init__(self, monkeypatch):
        self.phases: list = []
        self.forms: list = []
        self.ties: list = []
        eager, chains = grid._settle_eager, grid._settle_chains
        first = grid._first_activated

        def both(walk, sp, laneq, cost, tails, floor, fam):
            entry = tails[:]
            out = walk(sp, laneq, cost, tails, floor, fam)
            assert tails == entry, "the eager walk wrote its entry tails"
            grid._eval_phase(sp, laneq, cost, entry, floor, None, fam)
            self.phases.append((out, entry))
            return out

        def on_deps(sp, laneq, cost, tails, floor, fam):
            assert sp.nxt is None
            return both(eager, sp, laneq, cost, tails, floor, fam)

        def on_chains(sp, laneq, cost, tails, floor, fam):
            assert sp.deps is None
            out = both(chains, sp, laneq, cost, tails, floor, fam)
            self.forms.append(
                (out, eager(_dep_form(sp), laneq, cost, tails, floor, fam))
            )
            return out

        def record(tied, kinds, pdone, act):
            k = first(tied, kinds, pdone, act)
            self.ties.append((list(tied), k, [act[x] for x in tied]))
            return k

        monkeypatch.setattr(grid, "_settle_eager", on_deps)
        monkeypatch.setattr(grid, "_settle_chains", on_chains)
        monkeypatch.setattr(grid, "_first_activated", record)

    def point(self, spec: RunSpec) -> float:
        clear_grid_caches()
        return spec.predict().elapsed

    @property
    def refused(self) -> int:
        return sum(out is None for out, _ in self.phases)

    def mismatches(self) -> list:
        """Phases whose walk disagrees with the heap walk, and chain-form
        phases whose two walks disagree."""
        return [
            (i, out, heap)
            for i, (out, heap) in enumerate(self.phases)
            if out is not None and _hex(out) != _hex(heap)
        ] + [
            (i, out, via_deps)
            for i, (out, via_deps) in enumerate(self.forms)
            if (out is None) != (via_deps is None)
            or out is not None and _hex(out) != _hex(via_deps)
        ]


def _hex(tails) -> list:
    return [t.hex() for t in tails]


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


def _without_deps(workload: WorkloadSpec) -> WorkloadSpec:
    return WorkloadSpec(
        name=workload.name,
        kernels=workload.kernels,
        phases=tuple(
            PhaseSpec(
                ops=tuple(replace(op, deps=()) for op in phase.ops),
                sync=phase.sync,
                repeat=phase.repeat,
            )
            for phase in workload.phases
        ),
    )


#: Single-card specs whose phases have no explicit deps: NN, Kmeans,
#: Hotspot and SRAD, and scenarios with their deps dropped.
DEP_FREE_SPECS = st.one_of(
    *ONE_CARD_SPEC_STRATEGIES[1:5],
    st.builds(
        lambda w, p: RunSpec.for_workload(_without_deps(w), places=p),
        workload_specs(),
        places,
    ),
)


@settings(deadline=None)
@given(spec=DEP_FREE_SPECS, device=st.sampled_from(sorted(DEVICES)))
def test_chain_form_equals_the_eager_and_heap_walks(spec, device):
    with pytest.MonkeyPatch.context() as patch:
        walks = Walks(patch)
        try:
            walks.point(_on(spec, DEVICES[device]))
        except ModelUnsupportedError:
            pass
        # Every settled phase took the chain form.
        assert len(walks.forms) == len(walks.phases)
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


@pytest.mark.parametrize(
    "cls, d, t, p, kwargs, chained",
    [
        (NNApp, 20000, 16, 4, {}, True),
        (HotspotApp, 256, 8, 4, {"iterations": 3}, True),
        (MatMulApp, 600, 16, 4, {}, False),
        (CholeskyApp, 720, 9, 4, {}, False),
    ],
)
def test_the_phase_structure_selects_the_walk(
    walks, cls, d, t, p, kwargs, chained
):
    # The chain form takes exactly the phases without explicit deps.
    walks.point(RunSpec.for_app(cls, d, t, places=p, **kwargs))
    assert walks.phases and walks.refused == 0 and not walks.mismatches()
    assert len(walks.forms) == (len(walks.phases) if chained else 0)


def test_a_refused_chain_phase_settles_on_the_heap_walk(monkeypatch):
    # The heap walk rebuilds the chain form's dependents for a phase the
    # chain walk refused, and lands on the answer the eager walk gives.
    spec = _app(NNApp, 20000, 16, 4)
    clear_grid_caches()
    expected = spec.predict().elapsed
    monkeypatch.setattr(grid, "_settle_chains", lambda *args: None)
    clear_grid_caches()
    with scoped_registry() as registry:
        assert predict_runs([spec])[0].elapsed.hex() == expected.hex()
        snapshot = registry.snapshot()
    clear_grid_caches()
    assert snapshot.counter_value("engine.grid.settles", route="refused") >= 1
    assert snapshot.counter_value("engine.grid.settles", route="eager") == 0


def _chained(kinds, streams):
    """A chain-form phase: one action per entry, in issue order."""
    n = len(kinds)
    nxt, pred, last = [-1] * n, [-1] * n, {}
    for k, s in enumerate(streams):
        if s in last:
            nxt[last[s]], pred[k] = k, last[s]
        last[s] = k
    heads = [k for k in range(n) if pred[k] < 0]
    stream = np.array(streams, dtype=np.int64)
    return grid._SchedulePhase(
        list(kinds), stream, [0] * n, None, None, heads, None, nxt, pred
    )


def test_a_release_at_its_grant_refuses():
    # One upload on a link with no latency: with nothing to move, the
    # lane would be released at its grant.
    upload = grid._SchedulePhase(
        [1], np.zeros(1, dtype=np.int64), [0], [()], [1], [0], None
    )
    link = SimpleNamespace(dispatch=4e-6, lat=0.0)
    for walk, sp in [
        (grid._settle_eager, upload),
        (grid._settle_chains, _chained([1], [0])),
    ]:
        assert walk(sp, [0.0], [0.0], [0.0], 0.0, link) is None
        assert walk(sp, [1e-3], [0.0], [0.0], 0.0, link) == [4e-6 + 1e-3]


#: A card whose times stay exact in binary: every sum below is exact,
#: so requests tie by construction.
EXACT = SimpleNamespace(
    dispatch=1.0, lat=1.0, cross_sync=0.0, first_extra=0.0, num_devices=1
)


def _settle_exact(form, sp, laneq, cost):
    """``sp`` (chain form) settled on the ``EXACT`` card by the chain
    walk, or by ``_settle_eager`` on its dependency form."""
    tails = [0.0] * (max(sp.stream_of) + 1)
    walk = grid._settle_chains
    if form == "deps":
        sp, walk = _dep_form(sp), grid._settle_eager
    return walk(sp, laneq, cost, tails, 0.0, EXACT)


@pytest.mark.parametrize("form", ["chains", "deps"])
def test_an_idle_lane_tie_goes_to_the_first_activated(form):
    # Two kernels finish at one time, each releasing its stream's upload
    # to the idle lane at t=3; the heap walk activated the kernel issued
    # first (action 0, stream 1), so upload 3 goes before upload 2.
    sp = _chained([2, 2, 1, 1], [1, 0, 0, 1])
    laneq, cost = [0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]
    heap = [0.0, 0.0]
    grid._eval_phase(sp, laneq, cost, heap, 0.0, None, EXACT)
    assert heap == [7.0, 5.0]
    assert _settle_exact(form, sp, laneq, cost) == heap


@pytest.mark.parametrize("form", ["chains", "deps"])
def test_two_requests_at_the_lane_release_refuse(form):
    # Upload 0 holds the lane over [1, 3]; uploads 3 and 4 both request
    # it at exactly 3.
    sp = _chained([1, 2, 2, 1, 1], [0, 1, 2, 1, 2])
    laneq, cost = [1.0, 0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 0.0, 0.0]
    assert _settle_exact(form, sp, laneq, cost) is None


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
