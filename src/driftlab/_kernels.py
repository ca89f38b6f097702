"""Hot numeric kernels with numba and pure-numpy implementations.

Every kernel comes in two flavors:

* a loop version compiled with ``numba.njit`` (default when numba is
  available and DRIFTLAB_DISABLE_NUMBA is unset), and
* a vectorized numpy fallback.

``backend`` arguments accept "numba" or "numpy" to override the default.
"""

from __future__ import annotations

import numpy as np

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
# BMO ball-oscillation scan


def _bmo_osc_1d(f, offs, stride):
    N = f.shape[0]
    m = offs.shape[0]
    best = 0.0
    for c in range(0, N, stride):
        s = 0.0
        for t in range(m):
            s += f[(c + offs[t]) % N]
        mean = s / m
        osc = 0.0
        for t in range(m):
            osc += abs(f[(c + offs[t]) % N] - mean)
        osc /= m
        if osc > best:
            best = osc
    return best


def _bmo_osc_2d(f, offs_i, offs_j, stride):
    N = f.shape[0]
    m = offs_i.shape[0]
    best = 0.0
    for ci in range(0, N, stride):
        for cj in range(0, N, stride):
            s = 0.0
            for t in range(m):
                s += f[(ci + offs_i[t]) % N, (cj + offs_j[t]) % N]
            mean = s / m
            osc = 0.0
            for t in range(m):
                osc += abs(f[(ci + offs_i[t]) % N, (cj + offs_j[t]) % N] - mean)
            osc /= m
            if osc > best:
                best = osc
    return best


def _bmo_osc_1d_numpy(f, offs, stride):
    N = f.shape[0]
    centers = np.arange(0, N, stride)
    idx = (centers[:, None] + offs[None, :]) % N
    window = f[idx]
    means = window.mean(axis=1)
    osc = np.abs(window - means[:, None]).mean(axis=1)
    return float(osc.max())


def _bmo_osc_2d_numpy(f, offs_i, offs_j, stride):
    N = f.shape[0]
    m = offs_i.shape[0]
    sums = np.zeros_like(f)
    for t in range(m):
        sums += np.roll(f, (-offs_i[t], -offs_j[t]), axis=(0, 1))
    means = sums / m
    osc = np.zeros_like(f)
    for t in range(m):
        osc += np.abs(np.roll(f, (-offs_i[t], -offs_j[t]), axis=(0, 1)) - means)
    osc /= m
    return float(osc[::stride, ::stride].max())


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


def bmo_oscillation(values: np.ndarray, radius: float, stride: int = 1, backend=None) -> float:
    """Max over (strided) ball centers of the mean oscillation at one radius."""
    backend = _resolve(backend)
    f = np.ascontiguousarray(values, dtype=np.float64)
    if f.ndim == 1:
        (offs,) = ball_offsets(1, f.shape[0], radius)
        if backend == "numba":
            return float(_jitted(_bmo_osc_1d)(f, offs, stride))
        return _bmo_osc_1d_numpy(f, offs, stride)
    offs_i, offs_j = ball_offsets(2, f.shape[0], radius)
    if backend == "numba":
        return float(_jitted(_bmo_osc_2d)(f, offs_i, offs_j, stride))
    return _bmo_osc_2d_numpy(f, offs_i, offs_j, stride)


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


def _holder_1d_numpy(f, dist_pow):
    best = 0.0
    N = f.shape[0]
    for z in range(1, N):
        q = np.abs(f - np.roll(f, -z)).max() * dist_pow[z]
        if q > best:
            best = q
    return float(best)


def _holder_2d_numpy(f, dist_pow):
    best = 0.0
    N = f.shape[0]
    for zi in range(N):
        for zj in range(N):
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
