"""Tests for run reports and the top-level CLI."""

import numpy as np
import pytest

from repro.device import KernelWork
from repro.errors import ReproError
from repro.hstreams import StreamContext
from repro.trace import run_report


@pytest.fixture(scope="module")
def pipeline_trace():
    ctx = StreamContext(places=2)
    buf = ctx.buffer(shape=(1 << 23,), dtype=np.uint8)
    for i in range(2):
        s = ctx.stream(i)
        s.h2d(buf, offset=i * (1 << 22), count=1 << 22)
        s.invoke(
            KernelWork(
                name=f"k{i}", flops=2e9, bytes_touched=0.0, thread_rate=1e9
            )
        )
        s.d2h(buf, offset=i * (1 << 22), count=1 << 22)
    ctx.sync_all()
    return ctx.trace


class TestRunReport:
    def test_empty_trace_rejected(self):
        with pytest.raises(ReproError):
            run_report([])

    def test_quantities_consistent(self, pipeline_trace):
        report = run_report(pipeline_trace)
        assert report.makespan > 0
        assert report.bytes_moved == 4 * (1 << 22)
        assert 0.0 <= report.overlap_fraction <= 1.0
        assert 0.0 < report.link_utilization <= 1.0
        assert report.overlap <= report.transfer_busy
        assert report.overlap <= report.kernel_busy

    def test_per_stream_busy(self, pipeline_trace):
        report = run_report(pipeline_trace)
        assert set(report.stream_busy) == {0, 1}
        # The two identical kernels were equally busy.
        assert report.stream_busy[0] == pytest.approx(
            report.stream_busy[1]
        )

    def test_overlap_detected_in_pipeline(self, pipeline_trace):
        # Stream 1's transfers run while stream 0's kernel computes.
        assert run_report(pipeline_trace).overlap > 0

    def test_table_renders(self, pipeline_trace):
        text = run_report(pipeline_trace).to_table()
        assert "makespan" in text
        assert "overlap fraction" in text
        assert "stream 0" in text


class TestCli:
    def test_info(self, capsys):
        from repro.__main__ import main

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Xeon Phi 31SP" in out
        assert "[2, 4, 7, 8, 14, 28, 56]" in out
        assert "A1" in out

    def test_demo(self, capsys):
        from repro.__main__ import main

        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "run report" in out
        assert "#" in out  # the Gantt chart

    def test_experiments_forwarding(self, capsys, tmp_path):
        from repro.__main__ import main

        assert main(
            ["experiments", "--results-dir", str(tmp_path), "fig5"]
        ) == 0
        out = capsys.readouterr().out
        assert "fig5" in out

    @pytest.mark.parametrize(
        "rest",
        [
            ["--app", "mm", "--app", "nn", "fig9"],
            ["--full", "--plot", "fig9"],
            ["--jobs", "0", "--full"],
        ],
    )
    def test_experiments_argv_forwarded_verbatim(self, monkeypatch, rest):
        from repro.__main__ import main

        received = []
        monkeypatch.setattr(
            "repro.experiments.__main__.main",
            lambda argv: received.append(argv) or 0,
        )
        assert main(["experiments", *rest]) == 0
        assert received == [rest]


class TestSecondDeviceGeneration:
    def test_7120_recommended_set_is_divisors_of_60(self):
        from repro.device.calibration import fast_partition_counts
        from repro.device.spec import PHI_7120

        assert fast_partition_counts(PHI_7120) == [
            2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60,
        ]

    def test_apps_run_on_the_bigger_card(self):
        from repro.apps import MatMulApp
        from repro.device.spec import PHI_7120

        run = MatMulApp(3000, 36, spec=PHI_7120).run(places=4)
        assert run.gflops > 0
