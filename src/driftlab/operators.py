"""Spectral and singular-integral operators on torus fields."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .grids import (
    GridSpec,
    ScalarField,
    SpectralField,
    VelocityField,
    _check_same_grid,
    half_spectrum,
    to_physical,
    to_spectral,
)

TWO_PI = 2.0 * np.pi


def inner(f: ScalarField, g: ScalarField) -> float:
    """Grid quadrature of the L2 pairing <f, g>."""
    _check_same_grid(f.grid, g.grid)
    return float(np.sum(f.values * g.values) * f.grid.cell_volume)


@dataclass(frozen=True)
class NormRecord:
    l1: float
    l2: float
    linf: float


def norms(f: ScalarField) -> NormRecord:
    vol = f.grid.cell_volume
    v = f.values
    a = np.abs(v)
    return NormRecord(
        l1=float(a.sum() * vol),
        l2=float(np.sqrt((v**2).sum() * vol)),
        linf=float(a.max()),
    )


def fractional_laplacian_spectral(f: ScalarField, alpha: float = 1.0) -> ScalarField:
    """(-Laplace)^{alpha/2} f via the multiplier |2*pi*n|^alpha."""
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    spec = half_spectrum(f.grid)
    ch = spec.forward(f.values) * (TWO_PI * spec.radius) ** alpha
    return ScalarField.adopt(f.grid, spec.inverse(ch))


def gradient(f: ScalarField) -> tuple:
    """Spectral gradient; returns d ScalarFields."""
    spec = half_spectrum(f.grid)
    ch = spec.forward(f.values)
    return tuple(
        ScalarField.adopt(f.grid, spec.inverse(spec.odd(j, ikj) * ch))
        for j, ikj in enumerate(spec.ik)
    )


def riesz_transform(f: ScalarField, j: int) -> ScalarField:
    """R_j f with multiplier -i k_j / |k| (d=2 only)."""
    if f.grid.d != 2:
        raise ValueError("Riesz transforms require d=2")
    if j not in (1, 2):
        raise ValueError(f"component index must be 1 or 2, got {j}")
    ch = f.half_coefficients() * _riesz_multipliers(f.grid)[j - 1]
    return ScalarField.adopt_half_spectrum(f.grid, ch)


@functools.lru_cache(maxsize=8)
def _riesz_multipliers(grid: GridSpec) -> tuple:
    """-i n_j / |n| on the half spectrum, 0 at n = 0 and on both Nyquist
    lines (|n_1| = N/2 or |n_2| = N/2).

    A mode on the Nyquist line of axis j is its own mirror in n_j, so the
    real field cancels R_j there but keeps the other transform.  Zeroing
    both on both lines leaves u = (-R_2 theta, R_1 theta) no content there,
    which keeps it divergence-free.
    """
    spec = half_spectrum(grid)
    nr = np.where(spec.radius > 0, spec.radius, 1.0)
    nyquist = np.logical_or.reduce([np.abs(m) == grid.N // 2 for m in spec.modes])
    out = []
    for m in spec.modes:
        mult = np.where(nyquist, 0.0, -1j * m / nr)
        mult.setflags(write=False)
        out.append(mult)
    return tuple(out)


def dealias_cutoff(N: int) -> int:
    """Largest kept |n| under the 2/3 rule (strictly below N/3)."""
    cut = N // 3
    if 3 * cut == N:
        cut -= 1
    return cut


def dealias_mask(grid: GridSpec, modes: tuple) -> np.ndarray:
    """2/3-rule mask (Orszag 1971) over the spectral layout of ``modes``,
    the full one of ``grid.modes()`` or a half spectrum."""
    cut = dealias_cutoff(grid.N)
    return np.logical_and.reduce([np.abs(nj) <= cut for nj in modes])


class AdvectionTendency:
    """The dealiased advection term sign * (u.grad)f on the rfftn half
    spectrum: the one advection of the library.  ``advect`` applies it once;
    ``evolution.SpectralPlan`` extends it to the steppers' plan.

    The dealiasing mask is folded into the derivative multipliers and, with
    the advection sign and the mean mode removed, into the mask applied to
    the product.
    """

    def __init__(self, grid: GridSpec, adv_sign: float):
        spec = half_spectrum(grid)
        self.grid = grid
        self.forward = spec.forward
        self.inverse = spec.inverse
        mask = dealias_mask(grid, spec.modes)
        self.ik = tuple(ikj * mask for ikj in spec.ik)
        self.mask = adv_sign * mask
        self.mask.flat[0] = 0.0
        for a in (self.mask,) + self.ik:
            a.setflags(write=False)  # shared by every caller of a cached plan

    def nonlinear(self, ch: np.ndarray, u_phys: tuple) -> np.ndarray:
        """Spectral tendency of half-spectrum coefficients ``ch`` under the
        velocity arrays ``u_phys``; a velocity that is zero everywhere costs
        no transform."""
        if not any(uj.any() for uj in u_phys):
            return self.zero_tendency
        prod = sum(uj * self.inverse(ikj * ch) for ikj, uj in zip(self.ik, u_phys))
        return self.forward(prod) * self.mask

    @functools.cached_property
    def zero_tendency(self) -> np.ndarray:
        """Tendency of a zero velocity for any finite field: the transform
        of the zero product that the full path forms, made once.  Its signed
        zeros keep a zero-velocity step bit-identical to the full path."""
        z = self.forward(np.zeros(self.grid.shape)) * self.mask
        z.setflags(write=False)
        return z


def advect(u: VelocityField, f: ScalarField) -> ScalarField:
    """(u . grad) f: the steppers' dealiased advection tendency, on the grid."""
    _check_same_grid(u.grid, f.grid)
    adv = AdvectionTendency(f.grid, 1.0)
    ch = adv.nonlinear(adv.forward(f.values), tuple(c.values for c in u.components))
    return ScalarField.adopt(f.grid, adv.inverse(ch))


# ---------------------------------------------------------------------------
# direct singular-integral route for (-Laplace)^{1/2}

DEFAULT_CELL_RADIUS = {1: 100, 2: 20}

_calibration_cache: dict = {}


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
    out = _kernels.singular_kernel_apply(f.values, K, f.grid.cell_volume)
    return out + _core_correction(f, M)


def fractional_laplacian_direct(
    f: ScalarField,
    eps: float,
    cell_radius: int | None = None,
) -> ScalarField:
    """Principal-value lattice-sum quadrature for (-Laplace)^{1/2}.

    Serves as an independent oracle for ``fractional_laplacian_spectral``.
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


# ---------------------------------------------------------------------------
# deterministic random fields

def random_band_limited(
    grid: GridSpec,
    band: int,
    seed: int,
    amplitude: float = 1.0,
    mean_zero: bool = True,
) -> ScalarField:
    """Band-limited field from seeded PCG64 white noise.

    Algorithm (frozen for reproducibility): draw standard-normal grid
    noise from ``np.random.Generator(PCG64(seed))``, keep modes with
    |n_j| <= band on every axis, drop the mean mode when requested, and
    rescale to the requested sup norm.
    """
    if band < 1 or band > grid.N // 2 - 1:
        raise ValueError(f"band must be in [1, N/2-1], got {band}")
    rng = np.random.Generator(np.random.PCG64(seed))
    noise = ScalarField.adopt(grid, rng.standard_normal(grid.shape))
    mask = np.ones(grid.shape, dtype=bool)
    for nj in grid.modes():
        mask &= np.abs(nj) <= band
    ch = to_spectral(noise).coefficients * mask
    if mean_zero:
        ch.flat[0] = 0.0
    vals = to_physical(SpectralField(grid, ch)).values
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals = vals * (amplitude / peak)
    return ScalarField.adopt(grid, vals)


def near_delta_bump(grid: GridSpec, width: float) -> ScalarField:
    """L1-normalized approximate identity: the width-scale dissipation
    semigroup applied to the unit Dirac comb mode; positive, mean one."""
    if width <= 0:
        raise ValueError("width must be positive")
    return to_physical(SpectralField(grid, np.exp(-TWO_PI * width * grid.mode_radius())))
