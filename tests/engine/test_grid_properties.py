"""Property test: a batch answers exactly what each point answers alone.

``predict_runs`` evaluates a heterogeneous batch through shared family
lowerings and per-P point caches.  Any state that leaks between points
shows up as a bitwise inequality somewhere in the (P, T, D) space: a
lane or first-invocation set carried across evaluations, a point
schedule cached under the wrong partition count, or one P's lowering
reused for another P of a multi-device family.  Hypothesis walks that
space across all six app profiles, plus 2-device MatMul and Cholesky,
and demands exact float equality (``==``, never ``approx``) with each
point evaluated alone from cleared caches.  A second property draws
several datasets of one shape, which share a lowering and its per-P
schedules, so each example is a run of shape hits.
"""

from hypothesis import given, settings

from repro.engine import predict_run, predict_runs
from repro.engine.grid import clear_grid_caches
from tests.strategies import shared_shape_grids, spec_grids


@settings(max_examples=30, deadline=None)
@given(specs=spec_grids)
def test_predict_grid_is_elementwise_identical_to_predict_run(specs):
    clear_grid_caches()
    grid_runs = predict_runs(specs)
    for spec, grid_run in zip(specs, grid_runs):
        clear_grid_caches()
        alone = predict_run(spec)
        assert grid_run.elapsed == alone.elapsed
        assert grid_run.gflops == alone.gflops
        assert grid_run.app == alone.app
        assert grid_run.places == alone.places
        assert grid_run.tiles == alone.tiles
        assert grid_run.engine == alone.engine == "model"
    clear_grid_caches()


@settings(max_examples=40, deadline=None)
@given(specs=shared_shape_grids())
def test_datasets_sharing_a_shape_answer_as_each_alone(specs):
    # Datasets of one shape share its lowering and per-P schedules:
    # whatever one dataset leaves in them must not reach another's
    # answer, in one batch or one point after another.
    clear_grid_caches()
    batch = predict_runs(specs)
    clear_grid_caches()
    in_turn = [predict_run(spec) for spec in specs]
    for spec, grid_run, turn_run in zip(specs, batch, in_turn):
        clear_grid_caches()
        alone = predict_run(spec)
        assert grid_run.elapsed == turn_run.elapsed == alone.elapsed
        assert grid_run.gflops == alone.gflops
    clear_grid_caches()
