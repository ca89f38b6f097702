"""Hot numeric kernels, one numpy implementation each.

* ``ball_deviation`` / ``ball_deviation_max``: the ball means and
  oscillations behind the BMO norm and the L2 oscillation ratio of the
  concentration suite.  The means are one FFT correlation; a ball's
  deviations are gathered and summed offset by offset, and a ball that
  covers most of the torus is summed over its complement.  The max over
  radii and centers sums only the balls whose Cauchy-Schwarz bound (the
  L2 oscillation, from one more correlation) can beat the best value
  found, largest bound first, which leaves the float unchanged.  A
  ball's offsets and indicator spectrum are built on its first use and
  kept (``_ball_kernel``).
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

import functools

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
    return correlate(f, correlation_weight(w))


def correlation_weight(w: np.ndarray) -> np.ndarray:
    """The conjugate ``rfftn`` of a correlation weight w, as ``correlate``
    takes it: a weight that is correlated with many fields is transformed
    once."""
    return np.conj(np.fft.rfftn(w))


def correlate(f: np.ndarray, w_conj: np.ndarray) -> np.ndarray:
    """``periodic_correlation`` of f with the weight of ``w_conj``, its
    ``correlation_weight``."""
    return _correlate(np.fft.rfftn(f), w_conj, f.shape)


def _correlate(spectrum: np.ndarray, w_conj: np.ndarray, shape) -> np.ndarray:
    """``periodic_correlation`` from the ``rfftn`` of f and the conjugate
    ``rfftn`` of w, which callers that correlate one of them more than once
    transform once."""
    return np.fft.irfftn(spectrum * w_conj, s=shape, axes=tuple(range(len(shape))))


# ---------------------------------------------------------------------------
# ball means and oscillations at strided centers

# center-offset terms gathered at once by ball_deviation, and the first
# batch of ball_deviation_max
_GATHER_ELEMENTS = 1 << 13


def ball_offsets(d: int, N: int, radius: float):
    """Grid offsets within periodic distance <= radius of a node."""
    mask = offset_distance(d, N) <= radius + 1e-15
    return tuple(idx.astype(np.int64) for idx in np.nonzero(mask))


def _ball_indicator(shape, offsets) -> np.ndarray:
    ball = np.zeros(shape)
    ball[tuple(offsets)] = 1.0
    return ball


@functools.lru_cache(maxsize=32)
def _ball_kernel(d: int, N: int, radius: float):
    """(offsets, ball_conj): the ``ball_offsets`` of a ball and the
    ``correlation_weight`` of its indicator, built on the first use of the
    ball and kept read-only."""
    offsets = ball_offsets(d, N, radius)
    ball_conj = correlation_weight(_ball_indicator((N,) * d, offsets))
    for a in (*offsets, ball_conj):
        a.setflags(write=False)
    return offsets, ball_conj


def _ball_means(spectrum: np.ndarray, ball_conj: np.ndarray, shape, m: int, stride: int):
    """Ball means at the strided centers, from one correlation."""
    last = (-(-shape[0] // stride) - 1) * stride
    return _correlate(spectrum, ball_conj, shape)[(slice(0, last + 1, stride),) * len(shape)] / m


def _sums_complement(dev, m: int, size: int) -> bool:
    return dev is np.abs and 2 * m > size


def _centered(values) -> np.ndarray:
    """f - f.flat[0] in float64: oscillations are shift invariant, and
    centering makes a constant field exactly zero through the transforms.
    Centering a centered field changes no bit."""
    f = np.asarray(values, dtype=np.float64)
    return f - f.flat[0]


def ball_deviation(values: np.ndarray, offsets, stride: int, dev, centers=None, means=None):
    """Mean over the ball c + offsets of dev(f - mean_ball f), at the centers
    c = stride * k, 0 <= k < ceil(N / stride) along each axis, as an array
    of that center grid; or, given ``centers`` (flat indices into the
    center grid), at those centers only, as a 1-d array.

    ``offsets`` is one index array per axis, as from ``ball_offsets``;
    ``dev`` is a ufunc such as ``np.abs`` or ``np.square``.  The ball means
    come from one real-FFT correlation with the ball indicator, unless the
    caller passes them (``means``, on the whole center grid, as computed
    here).  The centers' terms are gathered from a periodically padded
    copy of f into tables of about 2^13 terms (at least one center's row),
    whose rows ``accumulate`` sums: each center's deviations are added one
    ball offset at a time, in the order of ``offsets``, so a center's float
    depends only on f, the ball and its mean.  For dev = |.| a ball that holds more than half of the
    nodes is summed over its complement instead: sum_x |f(x) - a| over the
    whole torus, for every center mean a, comes from one sort of f and its
    prefix sums, and the complement's deviations are subtracted from it.
    """
    f = _centered(values)
    m = offsets[0].size
    if means is None:
        ball_conj = correlation_weight(_ball_indicator(f.shape, offsets))
        means = _ball_means(np.fft.rfftn(f), ball_conj, f.shape, m, stride)
    a = means.reshape(-1) if centers is None else means.reshape(-1)[centers]
    total = np.zeros_like(a)
    accumulate = np.add
    if _sums_complement(dev, m, f.size):
        values_sorted = np.sort(f, axis=None)
        # extended-precision prefix sums: a float64 running sum of ~N^d
        # same-signed values loses ~1e-13 of the total
        prefix = np.concatenate(([0.0], np.cumsum(values_sorted, dtype=np.longdouble)))
        below = np.searchsorted(values_sorted, a)
        total = (prefix[-1] - 2.0 * prefix[below] + a * (2 * below - f.size)).astype(np.float64)
        offsets = np.nonzero(_ball_indicator(f.shape, offsets) == 0.0)
        accumulate = np.subtract
    last = (means.shape[0] - 1) * stride
    padded = np.pad(f, [(0, last)] * f.ndim, mode="wrap")
    # flat indices into the padded copy: a center's node plus an offset
    at = np.arange(a.size) if centers is None else centers
    center_index = np.ravel_multi_index(np.unravel_index(at, means.shape), padded.shape) * stride
    offset_index = np.ravel_multi_index(offsets, padded.shape)
    padded = padded.reshape(-1)
    rows = max(1, _GATHER_ELEMENTS // max(1, offset_index.size))
    for lo in range(0, a.size, rows):
        part = slice(lo, lo + rows)
        # column 0 holds the start of each running sum
        terms = np.empty((center_index[part].size, offset_index.size + 1))
        terms[:, 0] = total[part]
        body = terms[:, 1:]
        np.subtract(padded[center_index[part, None] + offset_index], a[part, None], out=body)
        dev(body, out=body)
        total[part] = accumulate.accumulate(terms, axis=1)[:, -1]
    total /= m
    return total.reshape(means.shape) if centers is None else total


# the bound's allowance for rounding on the scale max|f| = 1, before its
# summation term (see ball_deviation_bounds)
_BOUND_ETA = 1e-10


def ball_deviation_bounds(values: np.ndarray, radii, stride: int, dev) -> list:
    """Per radius, (m, means, bound): the ball size, the ball means at the
    strided centers as ``ball_deviation`` computes them, and an upper
    bound of its value at every center, for dev = np.abs or np.square.

    With f centered as in ``ball_deviation``, M = max|f| and g = f / M,
    the means a_c of f and the ball means of g^2 come from two
    correlations per radius; the transforms of f and g^2 are made once.
    Cauchy-Schwarz gives, at every center,

        mean_B |f - a_c|  <=  sqrt(mean_B (f - a_c)^2)  <=  U_c,
        U_c = M * sqrt(max(mean_B g^2 - (a_c / M)^2, 0) + eta),

    and U_c^2 bounds mean_B (f - a_c)^2; the bound is U_c for |.| and U_c^2
    for squares.  The exact mean_B (g - a_c/M)^2 is
    mean_B g^2 - (a_c/M)^2 - 2 (a_c/M)(mean_B g - a_c/M), and
    eta = 1e-10 + 8 n eps (n nodes) covers what rounding moves: the
    correlations err by about eps log2(n) sqrt(n) on the scale |g| <= 1
    (5e-12 at n = 2^20), and a summed value, a left-to-right sum of at
    most n terms (or the complement's prefix-sum form), by at most 4 n eps
    of that scale.  So a computed value never exceeds its computed bound.
    That argument needs M (for |.|) or M^2 (for squares) in
    [2^-900, 2^900 / n], where every term, sum and bound is a normal float
    far from overflow; outside it, and for a field that is not finite,
    every bound is +inf.
    """
    f = _centered(values)
    d, N = f.ndim, f.shape[0]
    scale = float(np.max(np.abs(f)))
    unit = scale if dev is np.abs else scale * scale
    bounded = 2.0**-900 <= unit <= 2.0**900 / f.size
    eta = _BOUND_ETA + 8 * f.size * np.finfo(float).eps
    spectrum = np.fft.rfftn(f)
    spectrum_sq = np.fft.rfftn(np.square(f / scale)) if bounded else None
    out = []
    for radius in radii:
        offsets, ball_conj = _ball_kernel(d, N, radius)
        m = offsets[0].size
        means = _ball_means(spectrum, ball_conj, f.shape, m, stride)
        if bounded:
            second = _ball_means(spectrum_sq, ball_conj, f.shape, m, stride)
            excess = np.maximum(second - np.square(means / scale), 0.0) + eta
            bound = scale * np.sqrt(excess) if dev is np.abs else unit * excess
        else:
            bound = np.full(means.shape, np.inf)
        out.append((m, means, bound))
    return out


def ball_deviation_max(values: np.ndarray, radii, stride: int, dev) -> float:
    """max over ``radii`` and the centers 0, stride, 2*stride, ... < N (per
    axis) of ``ball_deviation`` with dev = np.abs or np.square, or 0.0 if
    no value is positive: the float of the full scan, from the sums of
    only the balls that can hold it.

    The (radius, center) pairs are visited in decreasing order of their
    ``ball_deviation_bounds``: the pair of the largest bound alone, then
    batches of 2^13 center-offset terms, twice as many each time, so that
    a field whose bound prunes little is summed in a few calls.  The scan
    stops at the first pair whose bound is <= the best value found, since
    no later pair can beat it.  A max does not depend on the order of its
    terms, and each value is ``ball_deviation``'s with the bound's means,
    so the result is the float of the full scan.  A constant field gives
    0.0 without ball sums.
    """
    if dev is not np.abs and dev is not np.square:
        raise ValueError("dev must be np.abs or np.square")
    f = _centered(values)
    radii = list(radii)
    if not f.any() or not radii:  # every deviation of a constant field is +0.0
        return 0.0
    d, N = f.ndim, f.shape[0]
    sizes, means, bounds = zip(*ball_deviation_bounds(f, radii, stride, dev))
    n_centers = means[0].size
    bounds = np.concatenate([b.reshape(-1) for b in bounds])
    best = 0.0

    def visit(r, centers):
        nonlocal best
        offsets = _ball_kernel(d, N, radii[r])[0]
        value = ball_deviation(f, offsets, stride, dev, centers=centers, means=means[r])
        best = max(best, float(value.max()))

    first = int(np.argmax(bounds))
    visit(first // n_centers, np.array([first % n_centers]))
    bounds[first] = -np.inf
    pairs = np.flatnonzero(bounds > best)
    pairs = pairs[np.argsort(-bounds[pairs], kind="stable")]
    ranked = bounds[pairs]
    radius_of = pairs // n_centers
    work = np.array([f.size - m if _sums_complement(dev, m, f.size) else m for m in sizes])
    before = np.cumsum(work[radius_of]) - work[radius_of]  # terms ahead of each pair
    pos, budget = 0, _GATHER_ELEMENTS
    while pos < pairs.size and ranked[pos] > best:
        end = max(pos + 1, int(np.searchsorted(before, before[pos] + budget)))
        batch = np.arange(pos, end)[ranked[pos:end] > best]
        for r in np.unique(radius_of[batch]).tolist():
            visit(r, pairs[batch[radius_of[batch] == r]] % n_centers)
        pos, budget = end, 2 * budget
    return best


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
