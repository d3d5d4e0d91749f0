"""The heterogeneous platform: one host plus one or more MIC cards.

Sec. VI of the paper runs Cholesky on two Phis through hStreams' unified
resource view; :class:`HeteroPlatform` is the simulated equivalent.  Each
card has its own PCIe link (transfers to different cards can proceed
concurrently; both directions on *one* card serialise), its own memory and
partitions.  Cross-device data movement goes through the host, paying both
links — the mechanism behind Fig. 11's below-linear scaling.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.device.mic import MicDevice
from repro.device.spec import DeviceSpec, HostSpec, PHI_31SP
from repro.errors import ConfigurationError
from repro.sim import Environment


def place_layout(places: int, num_devices: int) -> list[int]:
    """Places per card under hStreams' device-major layout.

    Each card takes ``places // num_devices`` places and the first
    ``places % num_devices`` cards one more; places (and the streams on
    them) are numbered card by card.  The runtime's
    :class:`~repro.hstreams.context.StreamContext` lays its places out
    this way, and the model prices each stream on the same card and
    partition.
    """
    if num_devices < 1:
        raise ConfigurationError(
            f"need at least one device, got {num_devices}"
        )
    if places < num_devices:
        raise ConfigurationError(
            f"need at least one place per device ({places} < {num_devices})"
        )
    base, extra = divmod(places, num_devices)
    return [base + 1] * extra + [base] * (num_devices - extra)


class HeteroPlatform:
    """A host CPU plus ``n`` MIC coprocessors on one simulation clock."""

    def __init__(
        self,
        num_devices: int = 1,
        device_spec: DeviceSpec | Sequence[DeviceSpec] = PHI_31SP,
        host_spec: HostSpec | None = None,
        env: Environment | None = None,
        seed: int | None = None,
    ) -> None:
        if num_devices < 1:
            raise ConfigurationError(
                f"need at least one device, got {num_devices}"
            )
        self.env = env if env is not None else Environment()
        self.host = host_spec if host_spec is not None else HostSpec()
        if isinstance(device_spec, DeviceSpec):
            specs = [device_spec] * num_devices
        else:
            specs = list(device_spec)
            if len(specs) != num_devices:
                raise ConfigurationError(
                    f"{num_devices} devices but {len(specs)} specs"
                )
        from repro.config import DEFAULT_SEED

        seed = DEFAULT_SEED if seed is None else seed
        self.devices = [
            MicDevice(self.env, spec, index=i, seed=seed)
            for i, spec in enumerate(specs)
        ]

    def __repr__(self) -> str:
        return f"<HeteroPlatform devices={len(self.devices)}>"

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    def device(self, index: int) -> MicDevice:
        if not 0 <= index < len(self.devices):
            raise ConfigurationError(
                f"device {index} outside [0, {len(self.devices)})"
            )
        return self.devices[index]

    def run(self, until: object = None) -> object:
        """Advance the shared simulation clock (see ``Environment.run``)."""
        return self.env.run(until)  # type: ignore[arg-type]

    @property
    def now(self) -> float:
        return self.env.now
