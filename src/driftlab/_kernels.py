"""Hot numeric kernels.

The ball means and oscillations behind the BMO norm (and the L2 oscillation
ratio of the concentration suite) have one numpy implementation.  The
singular-integral fractional Laplacian and the Holder pair max come in two
flavors:

* a loop version compiled with ``numba.njit`` (default when numba is
  available and DRIFTLAB_DISABLE_NUMBA is unset), and
* a vectorized numpy fallback.

Their ``backend`` arguments accept "numba" or "numpy" to override the default.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .backend import HAVE_NUMBA, USE_NUMBA, njit

# ---------------------------------------------------------------------------
# dispatch plumbing

_jit_cache: dict = {}


def _jitted(func):
    if func.__name__ not in _jit_cache:
        if not HAVE_NUMBA:
            raise RuntimeError("numba backend requested but numba is unavailable")
        _jit_cache[func.__name__] = njit(cache=True)(func)
    return _jit_cache[func.__name__]


def _resolve(backend):
    if backend is None:
        return "numba" if USE_NUMBA else "numpy"
    if backend not in ("numba", "numpy"):
        raise ValueError(f"unknown kernel backend {backend!r}")
    return backend


# ---------------------------------------------------------------------------
# ball means and oscillations at strided centers

_WINDOW_ELEMENTS = 1 << 17  # elements (1 MiB of float64) in one window temporary


def ball_offsets(d: int, N: int, radius: float):
    """Grid offsets within periodic distance <= radius of a node."""
    h = 1.0 / N
    o = np.arange(N)
    dist1 = np.minimum(o, N - o) * h
    if d == 1:
        offs = np.nonzero(dist1 <= radius + 1e-15)[0].astype(np.int64)
        return (offs,)
    di, dj = np.meshgrid(dist1, dist1, indexing="ij")
    mask = np.sqrt(di**2 + dj**2) <= radius + 1e-15
    ii, jj = np.nonzero(mask)
    return ii.astype(np.int64), jj.astype(np.int64)


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
    spectrum = np.fft.rfftn(f) * np.conj(np.fft.rfftn(ball))
    sums = np.fft.irfftn(spectrum, s=f.shape, axes=tuple(range(d)))
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
#
# out[x] = cellvol * sum_z K[z] * (f[x] - f[x+z])  with K a periodized
# lattice kernel indexed by grid offsets (K[0] and excluded offsets are 0).


def _kernel_apply_1d(f, K, cellvol):
    N = f.shape[0]
    S = 0.0
    for z in range(N):
        S += K[z]
    out = np.empty_like(f)
    for x in range(N):
        acc = 0.0
        for z in range(N):
            acc += K[z] * f[(x + z) % N]
        out[x] = cellvol * (S * f[x] - acc)
    return out


def _kernel_apply_2d(f, K, cellvol):
    N = f.shape[0]
    S = 0.0
    for zi in range(N):
        for zj in range(N):
            S += K[zi, zj]
    out = np.empty_like(f)
    for xi in range(N):
        for xj in range(N):
            acc = 0.0
            for zi in range(N):
                for zj in range(N):
                    acc += K[zi, zj] * f[(xi + zi) % N, (xj + zj) % N]
            out[xi, xj] = cellvol * (S * f[xi, xj] - acc)
    return out


def _kernel_apply_1d_numpy(f, K, cellvol):
    S = K.sum()
    corr = np.zeros_like(f)
    nz = np.nonzero(K)[0]
    for z in nz:
        corr += K[z] * np.roll(f, -z)
    return cellvol * (S * f - corr)


def _kernel_apply_2d_numpy(f, K, cellvol):
    S = K.sum()
    corr = np.zeros_like(f)
    nzi, nzj = np.nonzero(K)
    for zi, zj in zip(nzi, nzj):
        corr += K[zi, zj] * np.roll(f, (-zi, -zj), axis=(0, 1))
    return cellvol * (S * f - corr)


def singular_kernel_apply(values: np.ndarray, K: np.ndarray, cellvol: float, backend=None):
    backend = _resolve(backend)
    f = np.ascontiguousarray(values, dtype=np.float64)
    K = np.ascontiguousarray(K, dtype=np.float64)
    if f.ndim == 1:
        if backend == "numba":
            return _jitted(_kernel_apply_1d)(f, K, cellvol)
        return _kernel_apply_1d_numpy(f, K, cellvol)
    if backend == "numba":
        return _jitted(_kernel_apply_2d)(f, K, cellvol)
    return _kernel_apply_2d_numpy(f, K, cellvol)


# ---------------------------------------------------------------------------
# Holder seminorm by pair enumeration (offset formulation)


def _holder_1d(f, dist_pow):
    N = f.shape[0]
    best = 0.0
    for z in range(1, N):
        w = dist_pow[z]
        for x in range(N):
            q = abs(f[x] - f[(x + z) % N]) * w
            if q > best:
                best = q
    return best


def _holder_2d(f, dist_pow):
    N = f.shape[0]
    best = 0.0
    for zi in range(N):
        for zj in range(N):
            if zi == 0 and zj == 0:
                continue
            w = dist_pow[zi, zj]
            for xi in range(N):
                for xj in range(N):
                    q = abs(f[xi, xj] - f[(xi + zi) % N, (xj + zj) % N]) * w
                    if q > best:
                        best = q
    return best


# The numpy kernels visit one offset of each pair {z, -z mod N}: the max over
# x of |f(x) - f(x+z)| is the same for z and -z, and so is dist_pow.


def _holder_1d_numpy(f, dist_pow):
    best = 0.0
    N = f.shape[0]
    for z in range(1, N // 2 + 1):
        q = np.abs(f - np.roll(f, -z)).max() * dist_pow[z]
        if q > best:
            best = q
    return float(best)


def _holder_2d_numpy(f, dist_pow):
    best = 0.0
    N = f.shape[0]
    for zi in range(N // 2 + 1):
        # rows 0 and N/2 are their own partners, so they need only half their columns
        self_paired = zi == 0 or 2 * zi == N
        for zj in range(N // 2 + 1 if self_paired else N):
            if zi == 0 and zj == 0:
                continue
            q = np.abs(f - np.roll(f, (-zi, -zj), axis=(0, 1))).max() * dist_pow[zi, zj]
            if q > best:
                best = q
    return float(best)


def holder_pair_max(values: np.ndarray, beta: float, backend=None) -> float:
    """max over grid pairs of |f(x)-f(y)| / dist(x,y)^beta."""
    backend = _resolve(backend)
    f = np.ascontiguousarray(values, dtype=np.float64)
    N = f.shape[0]
    h = 1.0 / N
    o = np.arange(N)
    dist1 = np.minimum(o, N - o) * h
    if f.ndim == 1:
        with np.errstate(divide="ignore"):
            dist_pow = np.where(dist1 > 0, dist1, 1.0) ** (-beta)
        dist_pow[0] = 0.0
        if backend == "numba":
            return float(_jitted(_holder_1d)(f, dist_pow))
        return _holder_1d_numpy(f, dist_pow)
    di, dj = np.meshgrid(dist1, dist1, indexing="ij")
    dist = np.sqrt(di**2 + dj**2)
    with np.errstate(divide="ignore"):
        dist_pow = np.where(dist > 0, dist, 1.0) ** (-beta)
    dist_pow[0, 0] = 0.0
    if backend == "numba":
        return float(_jitted(_holder_2d)(f, dist_pow))
    return _holder_2d_numpy(f, dist_pow)
