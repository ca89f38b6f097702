"""Hot numeric kernels, one numpy implementation each.

* ``ball_deviation`` / ``bmo_oscillation``: the ball means and oscillations
  behind the BMO norm and the L2 oscillation ratio of the concentration
  suite.  The means are one FFT correlation; the deviations are summed one
  ball offset at a time over all sampled centers, and a ball that covers
  most of the torus is summed over its complement.
* ``holder_pair_max``: the Holder quotient maximized over all grid pairs,
  one offset of each pair {z, -z} at a time, nearest first; the scan
  stops once the field's oscillation times the next offset's weight
  cannot beat the best quotient found, which leaves the float unchanged.

The element-by-element loop versions of these kernels are kept in
``tests/kernel_reference.py`` as test references.  The direct
(singular-integral) half-Laplacian, an oracle that only tests use, lives
in ``tests/direct_oracle.py`` and applies its lattice sum with
``periodic_correlation``.
"""

from __future__ import annotations

import numpy as np

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


def ball_offsets(d: int, N: int, radius: float):
    """Grid offsets within periodic distance <= radius of a node."""
    mask = offset_distance(d, N) <= radius + 1e-15
    return tuple(idx.astype(np.int64) for idx in np.nonzero(mask))


def ball_deviation(values: np.ndarray, offsets, stride: int, dev) -> np.ndarray:
    """Mean over the ball c + offsets of dev(f - mean_ball f), at the centers
    c = stride * k, 0 <= k < ceil(N / stride) along each axis.

    ``offsets`` is one index array per axis, as from ``ball_offsets``;
    ``dev`` is a ufunc such as ``np.abs`` or ``np.square``.  The ball means
    come from one real-FFT correlation with the ball indicator.  The
    deviations are summed one ball offset at a time: each offset reads one
    strided view of a periodically padded copy of f, which holds that
    offset's value for every center.  For dev = |.| a ball that holds more
    than half of the nodes is summed over its complement instead:
    sum_x |f(x) - a| over the whole torus, for every center mean a, comes
    from one sort of f and its prefix sums, and the complement's
    deviations are subtracted from it.
    """
    # oscillations are shift invariant; centering makes a constant field
    # exactly zero through the transforms
    f = np.asarray(values, dtype=np.float64)
    f = f - f.flat[0]
    d, N = f.ndim, f.shape[0]
    m = offsets[0].size
    ball = np.zeros(f.shape)
    ball[tuple(offsets)] = 1.0
    last = (-(-N // stride) - 1) * stride
    means = periodic_correlation(f, ball)[(slice(0, last + 1, stride),) * d] / m
    total = np.zeros_like(means)
    accumulate = np.add
    if dev is np.abs and 2 * m > f.size:
        values_sorted = np.sort(f, axis=None)
        # extended-precision prefix sums: a float64 running sum of ~N^d
        # same-signed values loses ~1e-13 of the total
        prefix = np.concatenate(([0.0], np.cumsum(values_sorted, dtype=np.longdouble)))
        below = np.searchsorted(values_sorted, means)
        total = (prefix[-1] - 2.0 * prefix[below] + means * (2 * below - f.size)).astype(np.float64)
        offsets = np.nonzero(ball == 0.0)
        accumulate = np.subtract
    padded = np.pad(f, [(0, last)] * d, mode="wrap")
    t = np.empty_like(means)
    views = ([slice(o, o + last + 1, stride) for o in axis.tolist()] for axis in offsets)
    for view in zip(*views):
        np.subtract(padded[view], means, out=t)
        accumulate(total, dev(t, out=t), out=total)
    return total / m


def bmo_oscillation(values: np.ndarray, radius: float, stride: int = 1) -> float:
    """Max over the ball centers 0, stride, 2*stride, ... < N (per axis) of
    the mean oscillation at one radius."""
    f = np.asarray(values, dtype=np.float64)
    offsets = ball_offsets(f.ndim, f.shape[0], radius)
    return float(ball_deviation(f, offsets, stride, np.abs).max())


# ---------------------------------------------------------------------------
# Holder seminorm by pair enumeration (offset formulation)


def holder_pair_max(values: np.ndarray, beta: float) -> float:
    """max over grid pairs of |f(x)-f(y)| / dist(x,y)^beta.

    Visits one offset z of each pair {z, -z mod N}: the max over x of
    |f(x) - f(x+z)| is the same for z and -z, and so is dist(0, z).  A
    1-d field is one row.  Each row offset rolls the rows once, the first
    time one of its offsets is visited; every column offset is then a
    slice of that rolled copy extended by its first columns.

    The offsets are visited nearest first (weight dist^-beta descending,
    ties in row-major order), and the scan stops at the first offset
    whose weight w has osc * w <= best, osc = max f - min f: rounding is
    monotone, so every difference of that offset or a farther one has
    |fl(f(x) - f(y))| <= fl(osc) and a quotient fl(m * w) <= fl(osc * w)
    that cannot beat best.  A max does not depend on the order of its
    terms, so the result is the float of the full scan.
    """
    f = np.asarray(values, dtype=np.float64)
    N = f.shape[0]
    dist = offset_distance(f.ndim, N)
    dist_pow = np.where(dist > 0, dist, 1.0) ** (-beta)
    rows = f.reshape(-1, N)
    dist_pow = dist_pow.reshape(rows.shape)
    n_rows = rows.shape[0]
    # row offsets 0..n_rows/2; rows 0 and n_rows/2 are their own partners:
    # half their columns do.  Flat index 0 is z = 0.
    row, col = np.divmod(np.arange(rows.size), N)
    own = (row == 0) | (2 * row == n_rows)
    visit = np.flatnonzero((row <= n_rows // 2) & ~(own & (col > N // 2)))[1:]
    visit = visit[np.argsort(-dist_pow.flat[visit], kind="stable")]
    osc = f.max() - f.min()
    exts = {}
    best = 0.0
    for k in visit.tolist():
        w = dist_pow.flat[k]
        if osc * w <= best:
            break
        zi, zj = divmod(k, N)
        ext = exts.get(zi)
        if ext is None:
            shifted = np.roll(rows, -zi, axis=0)
            ext = exts[zi] = np.concatenate((shifted, shifted[:, :-1]), axis=1)
        q = np.abs(rows - ext[:, zj : zj + N]).max() * w
        if q > best:
            best = q
    return float(best)
