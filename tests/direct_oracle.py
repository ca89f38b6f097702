"""The direct (singular-integral) half-Laplacian: a principal-value lattice
sum, an oracle independent of the spectral multiplier.

Kept for tests/test_acceptance.py, tests/test_operators.py and
tests/test_kernels.py, which check ``fractional_laplacian_spectral``
(tests/spectral_operators.py) and the correlation it is applied by
against it; no command, suite or library code calls it.
"""

from __future__ import annotations

import numpy as np

from driftlab._kernels import periodic_correlation
from driftlab.grids import GridSpec, ScalarField

TWO_PI = 2.0 * np.pi

DEFAULT_CELL_RADIUS = {1: 100, 2: 20}

_calibration_cache: dict = {}


def singular_kernel_apply(values: np.ndarray, K: np.ndarray, cellvol: float) -> np.ndarray:
    """cellvol * sum_z K[z] * (f[x] - f[x+z]) at every node x.

    K is a periodized lattice kernel indexed by grid offsets (K[0] and
    excluded offsets are 0); the sum over z is one circular correlation.
    """
    f = np.asarray(values, dtype=np.float64)
    K = np.asarray(K, dtype=np.float64)
    return cellvol * (K.sum() * f - periodic_correlation(f, K))


def _lattice_kernel(grid: GridSpec, eps: float, cell_radius: int):
    """Periodized kernel K[z] = sum_n |z*h - n|^{-(d+1)} with offsets inside
    eps excluded, plus the second-moment tensor of the excluded regular cells
    (used for the principal-value core correction)."""
    N, d = grid.N, grid.d
    h = grid.h
    delta = np.arange(N) * h
    per1 = np.minimum(delta, 1.0 - delta)
    shifts = np.arange(-cell_radius, cell_radius + 1)
    if d == 1:
        dm = delta[:, None] - shifts[None, :]
        with np.errstate(divide="ignore"):
            K = np.sum(np.where(dm != 0, np.abs(dm), 1.0) ** -2.0, axis=1)
        excl = per1 < eps - 1e-15
        K[excl] = 0.0
        # each regular excluded cell contributes exactly h to int y^2/|y|^2
        M = np.array([[(int(excl.sum()) - 1) * h]])
        return K, M
    di = delta[:, None, None, None] - shifts[None, None, :, None]
    dj = delta[None, :, None, None] - shifts[None, None, None, :]
    r2 = di**2 + dj**2
    with np.errstate(divide="ignore"):
        K = np.sum(np.where(r2 > 0, r2, 1.0) ** -1.5, axis=(2, 3))
    per = np.sqrt(per1[:, None] ** 2 + per1[None, :] ** 2)
    excl = per < eps - 1e-15
    K[excl] = 0.0
    # second moments int_cell y_i y_j / |y|^3 over excluded off-center cells
    M = np.zeros((2, 2))
    sub = (np.arange(16) + 0.5) / 16.0 - 0.5
    si, sj = np.meshgrid(sub, sub, indexing="ij")
    zi, zj = np.nonzero(excl)
    for a, b in zip(zi, zj):
        if a == 0 and b == 0:
            continue
        da = (a * h if a <= N // 2 else (a - N) * h) + si * h
        db = (b * h if b <= N // 2 else (b - N) * h) + sj * h
        r3 = (da**2 + db**2) ** 1.5
        w = (h / 16.0) ** 2
        M[0, 0] += np.sum(da * da / r3) * w
        M[0, 1] += np.sum(da * db / r3) * w
        M[1, 1] += np.sum(db * db / r3) * w
    M[1, 0] = M[0, 1]
    return K, M


def _core_correction(f: ScalarField, M: np.ndarray) -> np.ndarray:
    """-(1/2) sum_ij M_ij d_i d_j f, with centered finite differences."""
    h = f.grid.h
    v = f.values
    if f.grid.d == 1:
        d2 = (np.roll(v, -1) + np.roll(v, 1) - 2 * v) / h**2
        return -0.5 * M[0, 0] * d2
    d11 = (np.roll(v, -1, axis=0) + np.roll(v, 1, axis=0) - 2 * v) / h**2
    d22 = (np.roll(v, -1, axis=1) + np.roll(v, 1, axis=1) - 2 * v) / h**2
    d12 = (
        np.roll(v, (-1, -1), axis=(0, 1))
        - np.roll(v, (-1, 1), axis=(0, 1))
        - np.roll(v, (1, -1), axis=(0, 1))
        + np.roll(v, (1, 1), axis=(0, 1))
    ) / (4 * h**2)
    return -0.5 * (M[0, 0] * d11 + 2 * M[0, 1] * d12 + M[1, 1] * d22)


def _raw_apply(f: ScalarField, K: np.ndarray, M: np.ndarray) -> np.ndarray:
    out = singular_kernel_apply(f.values, K, f.grid.cell_volume)
    return out + _core_correction(f, M)


def fractional_laplacian_direct(
    f: ScalarField,
    eps: float,
    cell_radius: int | None = None,
) -> ScalarField:
    """Principal-value lattice-sum quadrature for (-Laplace)^{1/2}.

    The lattice kernel is applied by one FFT correlation; the kernel itself
    is the real-space lattice sum, not the spectral multiplier.  The overall
    constant is calibrated once per (d, N, eps, cell_radius) by matching the
    operator on cos(2*pi*x1) against the multiplier 2*pi.
    """
    grid = f.grid
    if cell_radius is None:
        cell_radius = DEFAULT_CELL_RADIUS[grid.d]
    if cell_radius < 1:
        raise ValueError("cell_radius must be >= 1")
    if eps < grid.h - 1e-15:
        raise ValueError(f"eps={eps} is below the grid spacing {grid.h}")
    K, M = _lattice_kernel(grid, eps, cell_radius)
    key = (grid.d, grid.N, round(eps * grid.N * 16), cell_radius)
    if key not in _calibration_cache:
        x1 = grid.coords()[0]
        probe = ScalarField(grid, np.cos(TWO_PI * x1))
        raw = _raw_apply(probe, K, M)
        target = TWO_PI * probe.values
        _calibration_cache[key] = float(np.sum(target * raw) / np.sum(raw * raw))
    c = _calibration_cache[key]
    return ScalarField.adopt(grid, c * _raw_apply(f, K, M))
