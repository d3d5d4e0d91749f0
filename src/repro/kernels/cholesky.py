"""Tile kernels for blocked right-looking Cholesky factorisation.

The factorisation of an ``N x N`` SPD matrix in ``b x b`` tiles runs, for
each diagonal step ``j``:

* ``POTRF``  — factor the diagonal tile ``A[j][j] = L[j][j] L[j][j]^T``;
* ``TRSM``   — solve the panel ``L[i][j] = A[i][j] L[j][j]^-T`` for i > j;
* ``SYRK``   — update diagonal tiles ``A[i][i] -= L[i][j] L[i][j]^T``;
* ``GEMM``   — update off-diagonal tiles ``A[i][k] -= L[i][j] L[k][j]^T``.

These are the kernels the hStreams-SDK Cholesky sample enqueues; the
dependency structure is what exercises inter-stream synchronisation.
"""

from __future__ import annotations

import numpy as np

from repro.device.compute import KernelWork
from repro.device.spec import DeviceSpec, PHI_31SP
from repro.errors import KernelError
from repro.kernels.cost import DENSE_EFFICIENCY, dense_thread_rate, tile_efficiency


def potrf(tile: np.ndarray) -> np.ndarray:
    """In-place lower Cholesky factor of an SPD tile."""
    if tile.ndim != 2 or tile.shape[0] != tile.shape[1]:
        raise KernelError(f"potrf needs a square tile, got {tile.shape}")
    tile[:] = np.linalg.cholesky(tile)
    return tile


def trsm(panel: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Solve ``panel := panel @ diag^-T`` (lower-triangular ``diag``)."""
    if diag.shape[0] != diag.shape[1] or panel.shape[1] != diag.shape[0]:
        raise KernelError(
            f"trsm shape mismatch: panel {panel.shape}, diag {diag.shape}"
        )
    # Imported here so that ``import repro`` does not load scipy, which
    # only Cholesky's functional kernels use.
    from scipy.linalg import solve_triangular

    # X L^T = P  <=>  L X^T = P^T.
    panel[:] = solve_triangular(diag, panel.T, lower=True).T
    return panel


def _la_work(name: str, flops: float, nbytes: float, block: int,
             spec: DeviceSpec) -> KernelWork:
    return KernelWork(
        name=name,
        flops=flops,
        bytes_touched=nbytes,
        thread_rate=dense_thread_rate(spec),
        efficiency=DENSE_EFFICIENCY * tile_efficiency(block),
        parallel_width=float(block),  # tile rows
    )


#: Panel-boundedness knee of the factorisation kernel: a ``b x b`` POTRF
#: runs at ``POTRF_PANEL_HALF / (POTRF_PANEL_HALF + b)`` of the dense
#: rate.  Column-by-column panel factorisation has O(b) dependent steps,
#: so a monolithic full-matrix POTRF (the paper's non-streamed baseline)
#: achieves a small fraction of peak — the reason tiled+streamed Cholesky
#: wins by the largest margin of all six applications (Fig. 8(b)).
POTRF_PANEL_HALF = 12000.0


def potrf_work(b: int, itemsize: int = 8, spec: DeviceSpec = PHI_31SP) -> KernelWork:
    """Work for a ``b x b`` Cholesky factorisation (b^3/3 flops)."""
    if b < 1:
        raise KernelError(f"tile size must be >= 1, got {b}")
    base = _la_work("potrf", b**3 / 3.0, 2.0 * b * b * itemsize, b, spec)
    from dataclasses import replace

    panel = POTRF_PANEL_HALF / (POTRF_PANEL_HALF + b)
    return replace(
        base,
        serial_time=5e-9 * b,
        efficiency=base.efficiency * panel,
    )


def trsm_work(b: int, itemsize: int = 8, spec: DeviceSpec = PHI_31SP) -> KernelWork:
    """Work for a ``b x b`` triangular solve (b^3 flops)."""
    if b < 1:
        raise KernelError(f"tile size must be >= 1, got {b}")
    return _la_work("trsm", float(b) ** 3, 3.0 * b * b * itemsize, b, spec)


def syrk_update_work(b: int, itemsize: int = 8, spec: DeviceSpec = PHI_31SP) -> KernelWork:
    """Work for a ``b x b`` symmetric rank-b update (b^3 flops)."""
    if b < 1:
        raise KernelError(f"tile size must be >= 1, got {b}")
    return _la_work("syrk", float(b) ** 3, 3.0 * b * b * itemsize, b, spec)


def gemm_update_work(b: int, itemsize: int = 8, spec: DeviceSpec = PHI_31SP) -> KernelWork:
    """Work for a ``b x b`` GEMM trailing update (2 b^3 flops)."""
    if b < 1:
        raise KernelError(f"tile size must be >= 1, got {b}")
    return _la_work("gemm_update", 2.0 * float(b) ** 3, 4.0 * b * b * itemsize, b, spec)
