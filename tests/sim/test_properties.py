"""Property-based tests (hypothesis) for the DES engine invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=50))
def test_timeouts_fire_in_sorted_order(delays):
    """Whatever the creation order, callbacks observe sorted times."""
    env = Environment()
    fired = []
    for d in delays:
        env.timeout(d).callbacks.append(lambda e: fired.append(env.now))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=30))
def test_clock_ends_at_max_delay(delays):
    env = Environment()
    for d in delays:
        env.timeout(d)
    env.run()
    assert env.now == (max(delays) if delays else 0.0)


@given(
    holds=st.lists(
        st.floats(min_value=0.001, max_value=10.0), min_size=1, max_size=20
    ),
    capacity=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=50, deadline=None)
def test_resource_never_exceeds_capacity(holds, capacity):
    """At no instant do more than `capacity` processes hold the resource."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    active = [0]
    peak = [0]

    def worker(hold):
        with res.request() as req:
            yield req
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            yield env.timeout(hold)
            active[0] -= 1

    for hold in holds:
        env.process(worker(hold))
    env.run()
    assert peak[0] <= capacity
    assert active[0] == 0
    # Work conservation: everyone eventually ran.
    assert res.count == 0 and res.queued == 0


@given(
    holders=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5.0),  # arrival
            st.floats(min_value=0.001, max_value=10.0),  # hold
            # what a holder still queued after its patience does
            st.sampled_from(["stay", "cancel", "close"]),
            st.floats(min_value=0.0, max_value=5.0),  # patience
        ),
        min_size=1,
        max_size=20,
    ),
    capacity=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=50, deadline=None)
def test_resource_grants_in_request_order(holders, capacity):
    """Requests are granted in request order, skipping each one withdrawn
    while still queued (by ``cancel()`` or by closing its holder's
    generator), and never more than ``capacity`` are held at once."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    requested, granted, withdrawn = [], [], []
    held = [0]

    def grant(i):
        granted.append(i)
        held[0] += 1
        assert held[0] <= capacity

    def process_holder(i, hold):
        with res.request() as req:
            requested.append(i)
            yield req
            grant(i)
            yield env.timeout(hold)
            held[0] -= 1

    def closable_holder(i):
        with res.request() as req:
            requested.append(i)
            yield req

    def arrive(i, hold, fate, patience):
        if fate == "stay":
            env.process(process_holder(i, hold))
            return
        if fate == "cancel":
            req = res.request()
            requested.append(i)
            withdraw = req.cancel

            def release():
                res.release(req)

        else:  # driven by hand; closing it releases or withdraws
            gen = closable_holder(i)
            req = next(gen)
            withdraw = release = gen.close

        def on_grant(event):
            if event.ok:
                grant(i)
                env.timeout(hold).callbacks.append(on_hold_end)

        def on_hold_end(_):
            held[0] -= 1
            release()

        def give_up(_):
            if not req.triggered:
                withdrawn.append(i)
                withdraw()

        req.callbacks.append(on_grant)
        env.timeout(patience).callbacks.append(give_up)

    for i, (at, hold, fate, patience) in enumerate(holders):
        env.timeout(at).callbacks.append(
            lambda _, a=(i, hold, fate, patience): arrive(*a)
        )
    env.run()
    assert granted == [i for i in requested if i not in withdrawn]
    assert held[0] == 0
    assert res.count == 0 and res.queued == 0


@given(
    holds=st.lists(
        st.floats(min_value=0.001, max_value=10.0), min_size=1, max_size=20
    )
)
@settings(max_examples=50, deadline=None)
def test_capacity1_resource_serialises_total_time(holds):
    """With capacity 1, the makespan equals the sum of hold times."""
    env = Environment()
    res = Resource(env, capacity=1)

    def worker(hold):
        with res.request() as req:
            yield req
            yield env.timeout(hold)

    for hold in holds:
        env.process(worker(hold))
    env.run()
    assert env.now == sum(holds)


@given(seed_order=st.permutations(list(range(8))))
@settings(max_examples=30, deadline=None)
def test_determinism_independent_of_python_hash(seed_order):
    """Two identical programs produce identical event traces."""

    def build_and_run():
        env = Environment()
        trace = []
        res = Resource(env, capacity=2)

        def worker(i):
            yield env.timeout(i * 0.5)
            with res.request() as req:
                yield req
                trace.append((env.now, i))
                yield env.timeout(1.0)

        for i in range(8):
            env.process(worker(i))
        env.run()
        return trace

    assert build_and_run() == build_and_run()
