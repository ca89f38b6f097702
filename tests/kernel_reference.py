"""Frozen diagnostic kernels: the BMO ball scans, the L2 oscillation ratio,
the Holder pair max and the Littlewood-Paley band fit as they were before
the FFT ball means, the offset-pair halving and the one-transform bands;
the smooth cutoff as it was before its bridge was evaluated in chunks;
the windowed BMO kernel as it was before the per-offset sums and the
complement of large balls; the per-offset kernel as it was before the
gathered sums and the pruned max, with its scan over every radius and
center; the element-by-element loops of the singular lattice sum and
the Holder pair max; and the band multipliers and band fields as they were
before the cutoff bridge was evaluated once per distinct argument and each
band was transformed over its nonzero columns only.

Kept only as numerical references for tests/test_kernels.py,
tests/test_operators.py, tests/test_spaces.py and tests/test_verification.py;
the library does not use them.  Do not update them to follow library changes.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from driftlab._kernels import ball_offsets, periodic_correlation
from driftlab.grids import half_spectrum
from driftlab.spaces import max_band_level
from fullspectrum_reference import band_multiplier

# ---------------------------------------------------------------------------
# BMO: every ball summed element by element


def bmo_osc_1d(f, offs, stride):
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


def bmo_osc_2d(f, offs_i, offs_j, stride):
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


# ---------------------------------------------------------------------------
# BMO: FFT ball means, deviations summed from strided windows over the rows
# each ball touches (one periodic run of columns per row offset)

_WINDOW_ELEMENTS = 1 << 17


def ball_deviation_windows(values, offsets, stride: int, n_centers: int, dev):
    f = np.asarray(values, dtype=np.float64)
    f = f - f.flat[0]
    d, N = f.ndim, f.shape[0]
    m = offsets[0].size
    ball = np.zeros(f.shape)
    ball[tuple(offsets)] = 1.0
    sums = periodic_correlation(f, ball)
    centers = np.arange(n_centers) * stride
    means = (sums[np.ix_(*[centers] * d)] / m).reshape(-1, n_centers)
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


# ---------------------------------------------------------------------------
# BMO: FFT ball means, deviations summed one ball offset at a time over all
# centers (a strided view of a padded copy per offset), large balls over
# their complement; every radius and center scanned


def ball_deviation_offsets(values, offsets, stride: int, dev):
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


def ball_deviation_full_max(values, radii, stride: int, dev) -> float:
    """max(0, every radius's largest ``ball_deviation_offsets``), radius by
    radius, as bmo_norm and the L2 oscillation ratio took it."""
    f = np.asarray(values, dtype=np.float64)
    best = 0.0
    for rho in radii:
        offsets = ball_offsets(f.ndim, f.shape[0], rho)
        best = max(best, float(ball_deviation_offsets(f, offsets, stride, dev).max()))
    return best


# ---------------------------------------------------------------------------
# verification._l2_oscillation_ratio: a Python loop over the centers


def l2_oscillation_ratio(u, radii, stride: int) -> float:
    grid = u.grid
    worst = 0.0
    o = np.arange(grid.N)
    d1 = np.minimum(o, grid.N - o) * grid.h
    for comp in u.components:
        v = comp.values
        for rho in radii:
            if grid.d == 1:
                mask = d1 <= rho + 1e-15
            else:
                mask = d1[:, None] ** 2 + d1[None, :] ** 2 <= rho**2 + 1e-15
            offs = np.argwhere(mask)
            for c in np.ndindex(*[grid.N // stride] * grid.d):
                base = tuple(ci * stride for ci in c)
                idx = tuple((offs[:, k] + base[k]) % grid.N for k in range(grid.d))
                ball = v[idx]
                worst = max(worst, float(np.sqrt(np.mean((ball - ball.mean()) ** 2))))
    return worst


# ---------------------------------------------------------------------------
# direct fractional Laplacian lattice sum, element by element:
# out[x] = cellvol * sum_z K[z] * (f[x] - f[x+z])


def kernel_apply_1d(f, K, cellvol):
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


def kernel_apply_2d(f, K, cellvol):
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


# ---------------------------------------------------------------------------
# Holder pair max, element by element


def holder_1d(f, dist_pow):
    N = f.shape[0]
    best = 0.0
    for z in range(1, N):
        w = dist_pow[z]
        for x in range(N):
            q = abs(f[x] - f[(x + z) % N]) * w
            if q > best:
                best = q
    return best


def holder_2d(f, dist_pow):
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


# ---------------------------------------------------------------------------
# Holder pair max, numpy path: every nonzero offset z visited


def holder_1d_numpy(f, dist_pow):
    best = 0.0
    N = f.shape[0]
    for z in range(1, N):
        q = np.abs(f - np.roll(f, -z)).max() * dist_pow[z]
        if q > best:
            best = q
    return float(best)


def holder_2d_numpy(f, dist_pow):
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


# ---------------------------------------------------------------------------
# smooth cutoff: the bridge evaluated at every bridge radius in one
# (radii x nodes) Gauss-Legendre array

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(96)


def _bump(t):
    out = np.zeros_like(t)
    interior = np.abs(t) < 1.0
    ti = t[interior]
    out[interior] = np.exp(1.0 - 1.0 / (1.0 - ti**2))
    return out


_BUMP_TOTAL = float(np.sum(_GL_WEIGHTS * _bump(_GL_NODES)))


def smooth_cutoff_oneshot(xi):
    a = np.abs(np.asarray(xi, dtype=float))
    out = np.where(a <= 1.0, 1.0, 0.0)
    bridge = (a > 1.0) & (a < 2.0)
    if np.any(bridge):
        t = 2.0 * (a[bridge] - 1.0) - 1.0
        half = (1.0 - t) / 2.0
        s = half[:, None] * (_GL_NODES[None, :] + 1.0) + t[:, None]
        vals = np.sum(_GL_WEIGHTS[None, :] * _bump(s), axis=1) * half
        out[bridge] = vals / _BUMP_TOTAL
    return out


# ---------------------------------------------------------------------------
# Littlewood-Paley fit: one transform of f and two cutoffs over all modes
# per band (``band_multiplier``, from fullspectrum_reference.py)


def lp_sups(f) -> list:
    """Band sup norms at the levels 0..max_band_level."""
    sups = []
    for j in range(max_band_level(f.grid) + 1):
        ch = np.fft.fftn(f.values, norm="forward") * band_multiplier(f.grid, j)
        band = np.fft.ifftn(ch, norm="forward").real
        sups.append(float(np.max(np.abs(band))))
    return sups


def holder_from_lp(f, noise_floor_factor: float = 1e-12):
    """(beta, levels, sups) of the band-decay fit."""
    floor = noise_floor_factor * float(np.max(np.abs(f.values)))
    usable = [(j, s) for j, s in enumerate(lp_sups(f)) if s > floor]
    js = np.array([j for j, _ in usable], dtype=float)
    slope, _ = np.polyfit(js, np.log([s for _, s in usable]), 1)
    return float(-slope / math.log(2.0)), tuple(j for j, _ in usable), tuple(s for _, s in usable)


# ---------------------------------------------------------------------------
# Littlewood-Paley bands on the half spectrum: one smooth_cutoff call per
# level (its bridge in chunks of 256 radii, the bump by gather and
# scatter), every band inverted over all N/2 + 1 last-axis columns

_BRIDGE_CHUNK = 256


def smooth_cutoff_chunked(xi):
    a = np.abs(np.asarray(xi, dtype=float))
    out = np.where(a <= 1.0, 1.0, 0.0)
    bridge = (a > 1.0) & (a < 2.0)
    if np.any(bridge):
        t = 2.0 * (a[bridge] - 1.0) - 1.0
        vals = np.empty_like(t)
        for lo in range(0, t.size, _BRIDGE_CHUNK):
            tc = t[lo : lo + _BRIDGE_CHUNK]
            half = (1.0 - tc) / 2.0
            s = half[:, None] * (_GL_NODES[None, :] + 1.0) + tc[:, None]
            vals[lo : lo + _BRIDGE_CHUNK] = np.sum(_GL_WEIGHTS[None, :] * _bump(s), axis=1) * half
        out[bridge] = vals / _BUMP_TOTAL
    return out


def band_multipliers_per_level(grid, j_min: int, j_max: int) -> list:
    """Half-spectrum multipliers of the bands j_min..j_max, in order."""
    spec = half_spectrum(grid)
    radii, inverse = np.unique(spec.radius, return_inverse=True)
    inverse = inverse.reshape(spec.shape)
    out = []
    lower = smooth_cutoff_chunked(radii / 2.0 ** (j_min - 1))
    for j in range(j_min, j_max + 1):
        upper = smooth_cutoff_chunked(radii / 2.0**j)
        out.append((upper - lower)[inverse])
        lower = upper
    return out


def band_fields_full_columns(f, j_min: int, j_max: int) -> list:
    """(j, band values, band sup) of the bands j_min..j_max, each inverted
    from the whole half spectrum."""
    spec = half_spectrum(f.grid)
    ch = spec.forward(f.values)
    out = []
    for j, mult in zip(range(j_min, j_max + 1), band_multipliers_per_level(f.grid, j_min, j_max)):
        band = spec.inverse(ch * mult)
        out.append((j, band, float(np.max(np.abs(band)))))
    return out


def holder_from_lp_full_columns(f, noise_floor_factor: float = 1e-12):
    """(beta, log_constant, levels, sups) of the band-decay fit."""
    floor = noise_floor_factor * float(np.max(np.abs(f.values)))
    bands = band_fields_full_columns(f, 0, max_band_level(f.grid))
    usable = [(j, s) for j, _, s in bands if s > floor]
    js = np.array([j for j, _ in usable], dtype=float)
    slope, intercept = np.polyfit(js, np.log([s for _, s in usable]), 1)
    return (float(-slope / math.log(2.0)), float(intercept),
            tuple(int(j) for j, _ in usable), tuple(float(s) for _, s in usable))
