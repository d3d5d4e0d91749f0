"""Shared Hypothesis strategies for the property suites.

One home for every strategy that more than one suite draws from: the
run-spec space of the six paper apps (the grid's batch-vs-point
property), the overlap-model stage-time regime, and the declarative
workload-spec space of :mod:`repro.workload` (including the iterated
kernel phases the model advances in closed form).  Import from here rather
than re-declaring — the differential suites are only as strong as the
space they share.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.apps import (
    CholeskyApp,
    HotspotApp,
    KmeansApp,
    MatMulApp,
    NNApp,
    SradApp,
)
from repro.parallel import RunSpec
from repro.workload import KernelSpec, OpSpec, PhaseSpec, WorkloadSpec

#: Partition counts within the modeled card's 56 usable cores.
places = st.integers(min_value=1, max_value=56)

#: Stage times from 1 us to 10 s: the whole regime the figures exercise.
stage_times = st.floats(
    min_value=1e-6, max_value=10.0, allow_nan=False, allow_infinity=False
)


def _build(app_cls, p, args, kwargs=None):
    return RunSpec.for_app(app_cls, *args, places=p, **(kwargs or {}))


#: One strategy per app profile on one card: (P, T, D) draws sized so a
#: single example stays fast while still varying the tile/dataset
#: geometry.
#: MM and Cholesky need a perfect-square tile count with the matrix a
#: multiple of its grid side; the banded apps need tiles <= rows.
ONE_CARD_SPEC_STRATEGIES = [
    st.builds(
        lambda p, g, block: _build(MatMulApp, p, (g * block, g * g)),
        places,
        st.integers(min_value=1, max_value=4),
        st.sampled_from([150, 300, 600]),
    ),
    st.builds(
        lambda p, recs, t: _build(NNApp, p, (recs, t)),
        places,
        st.integers(min_value=1000, max_value=200000),
        st.integers(min_value=1, max_value=64),
    ),
    st.builds(
        lambda p, n, t, it: _build(
            KmeansApp, p, (n, t), {"iterations": it}
        ),
        places,
        st.integers(min_value=10000, max_value=100000),
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=1, max_value=5),
    ),
    st.builds(
        lambda p, d, t, it: _build(
            HotspotApp, p, (64 * d, t), {"iterations": it}
        ),
        places,
        st.integers(min_value=4, max_value=32),
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=1, max_value=4),
    ),
    st.builds(
        lambda p, d, t, it: _build(
            SradApp, p, (100 * d, t), {"iterations": it}
        ),
        places,
        st.integers(min_value=2, max_value=24),
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=1, max_value=3),
    ),
    st.builds(
        lambda p, g, block: _build(CholeskyApp, p, (g * block, g * g)),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=2, max_value=6),
        st.sampled_from([240, 300, 480]),
    ),
]

#: The one-card strategies plus 2-device MatMul and Cholesky, the two
#: apps whose ports depend on P over several cards.
SPEC_STRATEGIES = ONE_CARD_SPEC_STRATEGIES + [
    st.builds(
        lambda p, g, block: _build(
            MatMulApp, p, (g * block, g * g), {"num_devices": 2}
        ),
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([150, 300, 600]),
    ),
    st.builds(
        lambda p, g, block: _build(
            CholeskyApp, p, (g * block, g * g), {"num_devices": 2}
        ),
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=2, max_value=6),
        st.sampled_from([240, 300, 480]),
    ),
]

spec_grids = st.lists(st.one_of(SPEC_STRATEGIES), min_size=1, max_size=6)


def _datasets(draw, values) -> list:
    return draw(st.lists(values, min_size=2, max_size=3, unique=True))


@st.composite
def shared_shape_grids(draw) -> list:
    """Two or three datasets of one app at one tiling and one set of
    other arguments (so one shape), each at one to three partition
    counts, in a drawn order.  MatMul and Cholesky also run on two
    cards, where every dataset shares the per-P lowerings."""
    app = draw(
        st.sampled_from(("mm", "nn", "kmeans", "hotspot", "srad", "cf"))
    )
    kwargs: dict = {}
    if app in ("mm", "cf"):
        g = draw(st.integers(min_value=1 if app == "mm" else 2, max_value=4))
        app_cls, tiles = (MatMulApp if app == "mm" else CholeskyApp), g * g
        blocks = _datasets(draw, st.sampled_from([60, 150, 240, 300]))
        datasets = [g * b for b in blocks]
        kwargs["num_devices"] = draw(st.sampled_from([1, 2]))
    elif app == "nn":
        app_cls, tiles = NNApp, draw(st.integers(min_value=1, max_value=64))
        datasets = _datasets(
            draw, st.integers(min_value=1000, max_value=200000)
        )
    else:
        app_cls, rows, max_iterations = {
            "kmeans": (KmeansApp, st.integers(10000, 100000), 5),
            "hotspot": (HotspotApp, st.integers(4, 32).map(lambda d: 64 * d), 4),
            "srad": (SradApp, st.integers(2, 24).map(lambda d: 100 * d), 3),
        }[app]
        tiles = draw(st.integers(min_value=1, max_value=32))
        datasets = _datasets(draw, rows)
        kwargs["iterations"] = draw(
            st.integers(min_value=1, max_value=max_iterations)
        )
    lowest = kwargs.get("num_devices", 1)
    specs = [
        _build(app_cls, p, (d, tiles), kwargs)
        for d in datasets
        for p in draw(
            st.lists(
                st.integers(min_value=lowest, max_value=56),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
    ]
    return draw(st.permutations(specs))


# -- workload-spec space ------------------------------------------------------

#: Transfer sizes: markers (0), tiny, page-ish, and large-but-bounded —
#: the four regimes the link model distinguishes.
transfer_sizes = st.sampled_from([0, 1, 512, 4096, 65536, 1 << 20])


@st.composite
def kernel_specs(draw, index: int = 0) -> KernelSpec:
    """One valid kernel over the cost model's whole input surface."""
    return KernelSpec(
        name=f"k{index}",
        flops=draw(st.floats(min_value=1e3, max_value=1e9)),
        bytes_touched=draw(st.integers(min_value=0, max_value=1 << 20)),
        thread_rate=draw(st.floats(min_value=1e7, max_value=1e9)),
        serial_time=draw(st.floats(min_value=0.0, max_value=1e-5)),
        temp_alloc_bytes=draw(st.sampled_from([0, 4096, 65536])),
        cache_sensitive=draw(st.booleans()),
        efficiency=draw(st.floats(min_value=0.3, max_value=1.0)),
    )


@st.composite
def phase_specs(draw, n_kernels: int) -> PhaseSpec:
    """One valid phase: ops over random tiles, with dependencies drawn
    only from *earlier named ops of the same phase* (the DSL's dep
    scoping rule), repeat counts, and either sync discipline."""
    n_ops = draw(st.integers(min_value=1, max_value=10))
    ops = []
    names: list[str] = []
    for i in range(n_ops):
        kind = draw(st.sampled_from(("h2d", "d2h", "exe")))
        tile = draw(st.integers(min_value=0, max_value=15))
        deps: tuple = ()
        if names and draw(st.booleans()):
            deps = tuple(
                draw(
                    st.lists(
                        st.sampled_from(names),
                        min_size=1,
                        max_size=min(2, len(names)),
                        unique=True,
                    )
                )
            )
        name = None
        if draw(st.booleans()):
            name = f"op{i}"
            names.append(name)
        if kind == "exe":
            ops.append(
                OpSpec(
                    "exe",
                    tile,
                    kernel=draw(
                        st.integers(min_value=0, max_value=n_kernels - 1)
                    ),
                    name=name,
                    deps=deps,
                )
            )
        else:
            ops.append(
                OpSpec(kind, tile, draw(transfer_sizes), name=name, deps=deps)
            )
    return PhaseSpec(
        ops=tuple(ops),
        sync=draw(st.booleans()),
        repeat=draw(st.integers(min_value=1, max_value=3)),
    )


@st.composite
def iterated_kernel_phases(draw, n_kernels: int, repeats=(2, 5)) -> PhaseSpec:
    """A synced ``exe``-only phase whose deps stay on their own tile,
    repeated: the shape the model advances in closed form."""
    n_ops = draw(st.integers(min_value=1, max_value=8))
    ops = []
    names_on: dict[int, list[str]] = {}
    for i in range(n_ops):
        tile = draw(st.integers(min_value=0, max_value=15))
        same_tile = names_on.get(tile, [])
        deps: tuple = ()
        if same_tile and draw(st.booleans()):
            deps = (draw(st.sampled_from(same_tile)),)
        name = None
        if draw(st.booleans()):
            name = f"it{i}"
            names_on.setdefault(tile, []).append(name)
        ops.append(
            OpSpec(
                "exe",
                tile,
                kernel=draw(st.integers(min_value=0, max_value=n_kernels - 1)),
                name=name,
                deps=deps,
            )
        )
    return PhaseSpec(
        ops=tuple(ops),
        sync=True,
        repeat=draw(st.integers(min_value=repeats[0], max_value=repeats[1])),
    )


@st.composite
def iterated_segments(draw, n_kernels: int) -> list:
    """Phases the closed-repeat rule must close: one iterated kernel
    phase (``repeat`` 2-5), or an alternating pair of single-shot
    kernel phases unrolled 2-5 times (SRAD's statistics/update loop)."""
    if draw(st.booleans()):
        return [draw(iterated_kernel_phases(n_kernels))]
    pair = [
        draw(iterated_kernel_phases(n_kernels, repeats=(1, 1)))
        for _ in range(2)
    ]
    return pair * draw(st.integers(min_value=2, max_value=5))


@st.composite
def workload_specs(draw) -> WorkloadSpec:
    """Arbitrary valid workload scenarios over the full DSL space, each
    holding one iterated segment at a random position, so every
    example exercises the closed-repeat path."""
    n_kernels = draw(st.integers(min_value=1, max_value=3))
    kernels = tuple(
        draw(kernel_specs(index=i)) for i in range(n_kernels)
    )
    phases = [
        draw(phase_specs(n_kernels))
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    at = draw(st.integers(min_value=0, max_value=len(phases)))
    phases[at:at] = draw(iterated_segments(n_kernels))
    return WorkloadSpec(name="hyp", kernels=kernels, phases=tuple(phases))


@st.composite
def workload_run_specs(draw) -> RunSpec:
    """A workload scenario pinned to a partition count."""
    return RunSpec.for_workload(
        draw(workload_specs()), places=draw(places)
    )
