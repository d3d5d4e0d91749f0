"""Unit tests for the PCIe link model — the Fig. 5 mechanism."""

import pytest

from repro.device import PHI_31SP, LinkSpec, PcieLink, TransferDirection
from repro.sim import Environment
from repro.util.units import MB


def run_transfers(link_spec, jobs):
    """Run `jobs` = [(direction, nbytes, start_delay)]; return makespan."""
    env = Environment()
    link = PcieLink(env, link_spec)

    def issue(direction, nbytes, delay):
        yield env.timeout(delay)
        yield env.process(link.transfer(direction, nbytes))

    for direction, nbytes, delay in jobs:
        env.process(issue(direction, nbytes, delay))
    env.run()
    return env.now, link


class TestSerialLink:
    def test_single_transfer_time(self):
        spec = LinkSpec(bandwidth=1e9, latency=0.0)
        makespan, _ = run_transfers(
            spec, [(TransferDirection.H2D, 1_000_000, 0.0)]
        )
        assert makespan == pytest.approx(1e-3)

    def test_same_direction_serialises(self):
        spec = LinkSpec(bandwidth=1e9, latency=0.0)
        makespan, _ = run_transfers(
            spec,
            [(TransferDirection.H2D, 1_000_000, 0.0)] * 4,
        )
        assert makespan == pytest.approx(4e-3)

    def test_opposite_directions_serialise_on_phi(self):
        # Paper Fig. 5: H2D and D2H cannot overlap.
        spec = LinkSpec(bandwidth=1e9, latency=0.0, full_duplex=False)
        makespan, _ = run_transfers(
            spec,
            [
                (TransferDirection.H2D, 1_000_000, 0.0),
                (TransferDirection.D2H, 1_000_000, 0.0),
            ],
        )
        assert makespan == pytest.approx(2e-3)

    def test_opposite_directions_overlap_when_full_duplex(self):
        spec = LinkSpec(bandwidth=1e9, latency=0.0, full_duplex=True)
        makespan, _ = run_transfers(
            spec,
            [
                (TransferDirection.H2D, 1_000_000, 0.0),
                (TransferDirection.D2H, 1_000_000, 0.0),
            ],
        )
        assert makespan == pytest.approx(1e-3)

    def test_transfer_returns_its_occupancy(self):
        # Each transfer process returns its (start, end) on the lane;
        # time spent queueing behind the other direction is excluded.
        spec = LinkSpec(bandwidth=1e9, latency=0.0)
        env = Environment()
        link = PcieLink(env, spec)
        first = env.process(link.transfer(TransferDirection.H2D, 1000))
        second = env.process(link.transfer(TransferDirection.D2H, 500))
        env.run()
        assert first.value == (0.0, spec.transfer_time(1000))
        start, end = second.value
        assert start == spec.transfer_time(1000)
        assert end - start == pytest.approx(spec.transfer_time(500))

    def test_fig5_cc_anchor(self):
        # 16 blocks out + 16 blocks back ~ 5.2 ms on the paper's machine.
        jobs = [(TransferDirection.H2D, 1 * MB, 0.0)] * 16
        jobs += [(TransferDirection.D2H, 1 * MB, 0.0)] * 16
        makespan, _ = run_transfers(PHI_31SP.link, jobs)
        assert makespan == pytest.approx(5.2e-3, rel=0.1)
