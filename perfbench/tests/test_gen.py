"""Seeded input generators: determinism and validity."""

import json

import pytest

import gen


def test_same_seed_same_inputs():
    for seed in (0, 7):
        assert gen.tune_queries(seed, 300) == gen.tune_queries(seed, 300)
        assert gen.serve_hot_families(seed) == gen.serve_hot_families(seed)
        assert gen.scenario(seed, 1) == gen.scenario(seed, 1)
        assert gen.arrival_gaps(seed, 50, 40.0) == gen.arrival_gaps(
            seed, 50, 40.0
        )
        fams = gen.serve_hot_families(seed)
        scen = [gen.scenario(seed, i) for i in range(3)]
        assert gen.serve_requests(seed, 200, fams, scen) == \
            gen.serve_requests(seed, 200, fams, scen)


def test_other_seed_other_inputs():
    assert gen.tune_queries(1, 100) != gen.tune_queries(2, 100)
    assert gen.scenario(1, 0) != gen.scenario(2, 0)


def test_tile_grid_rule():
    # MatMul with T=64 tiles an 8x8 grid: 4500 is not a multiple of 8.
    assert not gen.is_valid("mm", 4500, [64])
    assert gen.is_valid("mm", 4800, [64, 100])
    assert not gen.is_valid("mm", 4800, [64, 49])  # 4800 % 7 != 0
    assert gen.is_valid("srad", 10000, [100, 200, 400])
    with pytest.raises(ValueError):
        gen.tile_grid("cf", 50)


@pytest.mark.parametrize("seed", range(8))
def test_tune_queries_are_valid(seed):
    queries = gen.tune_queries(seed, 400)
    assert len(queries) == 400
    shapes = {}
    for q in queries:
        app = q["app"]
        assert set(q["T"]) <= set(gen.APPS[app][1])
        assert set(q["P"]) <= set(gen.P_VALUES)
        assert gen.is_valid(app, q["D"], q["T"])
        shapes.setdefault((app, q["D"], q["kind"]), set()).add(
            json.dumps(q, sort_keys=True)
        )
    # Hot queries repeat verbatim and every fresh dataset appears once.
    assert all(len(s) == 1 for s in shapes.values())
    repeats = len(queries) - len(shapes)
    assert 0.6 < repeats / len(queries) < 0.85


@pytest.mark.parametrize("seed", range(4))
def test_inputs_are_accepted_by_the_program(seed):
    from repro.serve.api import APP_PROFILES, parse_predict, parse_sweep
    from repro.workload import WorkloadSpec

    for q in gen.tune_queries(seed, 300):
        for t in q["T"]:
            APP_PROFILES[q["app"]].spec(1, t, q["D"]).build_app()
    fams = gen.serve_hot_families(seed)
    scen = [gen.scenario(seed, i) for i in range(3)]
    for sc in scen:
        WorkloadSpec.from_dict(sc)
    for path, payload in gen.serve_requests(seed, 300, fams, scen):
        body = json.loads(gen.encode(payload))
        assert body == payload
        if path == "/predict":
            parse_predict(body)
        else:
            assert parse_sweep(body)


def test_tune_pool_is_fixed_valid_and_large_enough():
    pool = gen.tune_pool()
    assert pool == gen.tune_pool()
    for app, entries in pool.items():
        ds = [e["D"] for e in entries]
        assert len(ds) == len(set(ds))  # every entry is a new family
        for e in entries:
            assert gen.is_valid(app, e["D"], e["T"])
    # 50 queries per second of the 30 s run, a quarter of them fresh.
    for seed in range(5):
        gen.tune_queries(seed, 1500)


def test_serve_mix_shares():
    fams = gen.serve_hot_families(3)
    scen = [gen.scenario(3, i) for i in range(3)]
    reqs = gen.serve_requests(3, 2000, fams, scen)
    sweeps = [p for path, p in reqs if path == "/sweep"]
    streamed = [p for p in sweeps if p.get("stream")]
    scenario = [p for p in reqs if "workload" in p[1]]
    assert len(sweeps) == 200 and len(streamed) == 100
    assert len(scenario) == 300
    apps = {p["app"] for path, p in reqs if "app" in p}
    assert apps == set(gen.APP_NAMES)


def test_arrivals_fill_a_fixed_time():
    for seed in range(5):
        for min_gap in (0.0, 0.015):
            gaps = gen.arrival_gaps(seed, 990, 30.0, min_gap)
            assert len(gaps) == 990 and min(gaps) >= min_gap
            assert abs(sum(gaps) - 33.0) < 1e-9
