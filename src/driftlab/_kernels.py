"""Hot numeric kernels, one numpy implementation each.

* ``ball_deviation`` / ``bmo_oscillation``: the ball means and oscillations
  behind the BMO norm and the L2 oscillation ratio of the concentration
  suite.
* ``singular_kernel_apply``: the lattice sum of the direct (singular-integral)
  fractional Laplacian, as one real-FFT correlation.
* ``holder_pair_max``: the Holder quotient maximized over all grid pairs.

The element-by-element loop versions of these kernels are kept in
``tests/kernel_reference.py`` as test references.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# ---------------------------------------------------------------------------
# periodic offsets


def offset_distance(d: int, N: int) -> np.ndarray:
    """Periodic distance from a node to each grid offset z, shape (N,) * d."""
    o = np.arange(N)
    dist1 = np.minimum(o, N - o) * (1.0 / N)
    if d == 1:
        return dist1
    return np.sqrt(dist1[:, None] ** 2 + dist1[None, :] ** 2)


def periodic_correlation(f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_z w[z] f(x + z) at every node x, from one real-FFT product."""
    spectrum = np.fft.rfftn(f) * np.conj(np.fft.rfftn(w))
    return np.fft.irfftn(spectrum, s=f.shape, axes=tuple(range(f.ndim)))


# ---------------------------------------------------------------------------
# ball means and oscillations at strided centers

_WINDOW_ELEMENTS = 1 << 17  # elements (1 MiB of float64) in one window temporary


def ball_offsets(d: int, N: int, radius: float):
    """Grid offsets within periodic distance <= radius of a node."""
    mask = offset_distance(d, N) <= radius + 1e-15
    return tuple(idx.astype(np.int64) for idx in np.nonzero(mask))


def ball_deviation(values: np.ndarray, offsets, stride: int, n_centers: int, dev) -> np.ndarray:
    """Mean over the ball c + offsets of dev(f - mean_ball f), at the centers
    c = stride * k, 0 <= k < n_centers along each axis.

    ``offsets`` is one index array per axis, as from ``ball_offsets``;
    ``dev`` is a ufunc such as ``np.abs`` or ``np.square``.  The ball means
    come from one real-FFT correlation with the ball indicator at every
    node.  The deviations are summed only at the requested centers, one row
    offset of the ball at a time, from strided windows over the rows it
    touches: in each row the ball's column offsets are one periodic run
    around 0, as for any periodic ball.
    """
    # oscillations are shift invariant; centering makes a constant field
    # exactly zero through the transforms
    f = np.asarray(values, dtype=np.float64)
    f = f - f.flat[0]
    d, N = f.ndim, f.shape[0]
    m = offsets[0].size
    ball = np.zeros(f.shape)
    ball[tuple(offsets)] = 1.0
    sums = periodic_correlation(f, ball)
    centers = np.arange(n_centers) * stride
    means = (sums[np.ix_(*[centers] * d)] / m).reshape(-1, n_centers)
    # a 1-d field is one row; its centers are the columns of that row
    rows = f.reshape(-1, N)
    row_centers = centers if d == 2 else np.zeros(1, dtype=np.int64)
    row_offs = offsets[0] if d == 2 else np.zeros(m, dtype=np.int64)
    col_offs = offsets[-1]
    out = np.zeros_like(means)
    for oi in np.unique(row_offs):
        run = col_offs[row_offs == oi]
        start, k = int(np.min((run + N // 2) % N - N // 2)), run.size
        cols_per = max(1, min(n_centers, _WINDOW_ELEMENTS // k))
        rows_per = max(1, _WINDOW_ELEMENTS // (cols_per * k))
        for j0 in range(0, n_centers, cols_per):
            j1 = min(j0 + cols_per, n_centers)
            cols = (start + j0 * stride + np.arange((j1 - j0 - 1) * stride + k)) % N
            for i0 in range(0, row_centers.size, rows_per):
                i1 = min(i0 + rows_per, row_centers.size)
                seg = rows[np.ix_((row_centers[i0:i1] + oi) % rows.shape[0], cols)]
                win = sliding_window_view(seg, k, axis=1)[:, ::stride]
                t = win - means[i0:i1, j0:j1, None]
                out[i0:i1, j0:j1] += dev(t, out=t).sum(axis=2)
    return (out / m).reshape((n_centers,) * d)


def bmo_oscillation(values: np.ndarray, radius: float, stride: int = 1) -> float:
    """Max over the ball centers 0, stride, 2*stride, ... < N (per axis) of
    the mean oscillation at one radius."""
    f = np.asarray(values, dtype=np.float64)
    offsets = ball_offsets(f.ndim, f.shape[0], radius)
    n_centers = -(-f.shape[0] // stride)
    return float(ball_deviation(f, offsets, stride, n_centers, np.abs).max())


# ---------------------------------------------------------------------------
# direct (singular-integral) fractional Laplacian application


def singular_kernel_apply(values: np.ndarray, K: np.ndarray, cellvol: float) -> np.ndarray:
    """cellvol * sum_z K[z] * (f[x] - f[x+z]) at every node x.

    K is a periodized lattice kernel indexed by grid offsets (K[0] and
    excluded offsets are 0); the sum over z is one circular correlation.
    """
    f = np.asarray(values, dtype=np.float64)
    K = np.asarray(K, dtype=np.float64)
    return cellvol * (K.sum() * f - periodic_correlation(f, K))


# ---------------------------------------------------------------------------
# Holder seminorm by pair enumeration (offset formulation)


def holder_pair_max(values: np.ndarray, beta: float) -> float:
    """max over grid pairs of |f(x)-f(y)| / dist(x,y)^beta.

    Visits one offset z of each pair {z, -z mod N}: the max over x of
    |f(x) - f(x+z)| is the same for z and -z, and so is dist(0, z).  A
    1-d field is one row.  Each row offset rolls the rows once; every
    column offset is then a slice of that rolled copy extended by its
    first columns.
    """
    f = np.asarray(values, dtype=np.float64)
    N = f.shape[0]
    dist = offset_distance(f.ndim, N)
    dist_pow = np.where(dist > 0, dist, 1.0) ** (-beta)
    rows = f.reshape(-1, N)
    dist_pow = dist_pow.reshape(rows.shape)
    n_rows = rows.shape[0]
    best = 0.0
    for zi in range(n_rows // 2 + 1):
        shifted = np.roll(rows, -zi, axis=0)
        # rows 0 and n_rows/2 are their own partners: half their columns do
        n_cols = N // 2 + 1 if zi == 0 or 2 * zi == n_rows else N
        ext = np.concatenate((shifted, shifted[:, : n_cols - 1]), axis=1)
        for zj in range(1 if zi == 0 else 0, n_cols):
            q = np.abs(rows - ext[:, zj : zj + N]).max() * dist_pow[zi, zj]
            if q > best:
                best = q
    return float(best)
