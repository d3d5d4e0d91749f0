"""``python -m repro.experiments`` builds one executor per invocation,
and every engine-aware figure evaluates through it."""

import json

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
