"""The output checks flag wrong answers (references from the DES)."""

import json
import os

import pytest

import gen
import refs
from workloads import Context, Figures, Tune

HERE = os.path.dirname(os.path.abspath(__file__))
COMMITTED = os.path.join(os.path.dirname(HERE), "refs")


@pytest.fixture
def ctx(tmp_path):
    root = os.path.dirname(os.path.dirname(HERE))
    return Context(root, os.path.join(root, "perfbench", "harness"),
                   str(tmp_path), str(tmp_path / "cache"), COMMITTED)


def _manifest_from(reference):
    gauges = []
    for key, value in reference["values"].items():
        panel, series, x = key.split("|")
        gauges.append({"name": "experiment.value", "labels": {
            "experiment": panel, "series": series, "x": x}, "value": value})
    experiments = [{"experiment": panel, "checks_passed": n,
                    "checks_failed": 0}
                   for panel, n in reference["checks"].items()]
    return {"metrics": {"gauges": gauges}, "experiments": experiments}


def test_figures_check_flags_a_changed_value_and_a_failed_check(
        ctx, monkeypatch):
    with open(os.path.join(COMMITTED, "figures.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    if reference["fingerprint"] != refs.fingerprint():
        pytest.skip("committed reference is for another device model")
    figures = Figures(ctx, seed=1, seconds=30)
    monkeypatch.setattr(Figures, "_workload_panel_ok", lambda self, m: True)

    manifest = _manifest_from(reference)
    attempted, failed, _ = figures.check(manifest)
    assert (attempted, failed) == (len(reference["checks"]), 0)

    changed = _manifest_from(reference)
    changed["metrics"]["gauges"][0]["value"] *= 1.0 + 1e-12
    panel = changed["metrics"]["gauges"][0]["labels"]["experiment"]
    assert figures.check(changed)[2]["wrong_panels"] == [panel]

    failing = _manifest_from(reference)
    failing["experiments"][0]["checks_failed"] = 1
    assert figures.check(failing)[1] == 1
    assert figures.check(None)[1] == len(reference["checks"])


def test_tune_check_uses_the_des_tolerance(ctx):
    tune = Tune.__new__(Tune)
    tune.ctx = ctx
    t = gen.APPS["mm"][1][0]
    d = gen.hot_d("mm", [t], 1.0)
    tune.queries = [
        {"kind": "sweep", "app": "mm", "D": d, "P": [1, 4], "T": [t]},
        {"kind": "sweep", "app": "mm", "D": d, "P": [1, 4], "T": [t]},
        {"kind": "autotune", "app": "mm", "D": d, "P": [1, 4], "T": [t]},
        {"kind": "autotune", "app": "mm", "D": d, "P": [1, 4], "T": [t]},
    ]
    des = refs.des_elapsed(
        [refs.app_spec("mm", p, t, d) for p in (1, 4)], ctx.cache
    )
    answers = [
        {"s": [des[0] * 1.04, des[1]]},  # within 5%
        {"s": [des[0], des[1] * 1.06]},  # one point 6% off
        {"P": 4, "T": t, "s": des[1]},
        {"P": 2, "T": t, "s": des[1]},  # names a P outside the query
    ]
    assert tune.check(answers) == [True, False, True, False]
    assert tune.check([{"error": "boom"}] + answers[1:]) == [
        False, False, True, False]
