"""``python -m repro.experiments`` builds one executor per invocation,
and every engine-aware figure evaluates through it."""

import json

import pytest

from repro.experiments.__main__ import main
from repro.parallel import shared_cache


def test_checkpoint_holds_every_point_heuristics_and_fig11_execute(
    tmp_path, capsys
):
    # A cold cache, as a fresh CLI process has: heuristics executes its
    # 70-point exhaustive MM grid (the pruned grid is a subset, served
    # from the cache) and fig11 its 4 Cholesky runs.
    shared_cache().clear()
    checkpoint = tmp_path / "sweep.ckpt"
    rc = main(
        [
            "--checkpoint", str(checkpoint),
            "--results-dir", str(tmp_path / "results"),
            "heuristics",
            "fig11",
        ]
    )
    assert rc == 0
    runs = json.loads(checkpoint.read_text(encoding="utf-8"))["runs"]
    assert len(runs) == 74
    assert "[executor: executed=74 " in capsys.readouterr().out


def test_checkpoint_holds_every_probe_point(tmp_path, capsys):
    # The hBench probes are run specs: fig5's 36 probes are 24 distinct
    # points (the batch dedups the rest), fig6 runs 5 and fig7 9.
    shared_cache().clear()
    checkpoint = tmp_path / "probes.ckpt"
    rc = main(
        [
            "--checkpoint", str(checkpoint),
            "--results-dir", str(tmp_path / "results"),
            "fig5",
            "fig6",
            "fig7",
        ]
    )
    assert rc == 0
    runs = json.loads(checkpoint.read_text(encoding="utf-8"))["runs"]
    assert len(runs) == 38
    assert "[executor: executed=38 " in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["--engine", "hybrid", "--engine-store", "{store}"],
        ["--engine", "learned"],
    ],
    ids=["hybrid-store", "learned"],
)
def test_probe_figures_run_from_the_cli(argv, tmp_path):
    argv = [a.format(store=tmp_path / "store") for a in argv]
    rc = main([*argv, "--results-dir", str(tmp_path / "results"), "fig5"])
    assert rc == 0
