"""Operators on torus fields: the spectral fractional Laplacian, gradient
and Riesz transforms, the dealiased advection tendency, and the seeded
fields.  Their multipliers come from ``grids.half_spectrum(grid)``."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grids import (
    TWO_PI,
    GridSpec,
    ScalarField,
    VelocityField,
    _check_same_grid,
    half_spectrum,
    to_physical,
    to_spectral,
)


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
    ch = spec.forward(f.values) * spec.symbol(alpha)
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
    ch = f.half_coefficients() * half_spectrum(f.grid).riesz[j - 1]
    return ScalarField.adopt_half_spectrum(f.grid, ch)


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
        mask = spec.dealias_mask()
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
    rescale to the requested sup norm.  It runs on the complex full
    spectrum (``to_spectral``/``to_physical``): the half-spectrum form of
    the same filter differs in the last bits, and every seeded scenario
    starts from these.
    """
    if band < 1 or band > grid.N // 2 - 1:
        raise ValueError(f"band must be in [1, N/2-1], got {band}")
    rng = np.random.Generator(np.random.PCG64(seed))
    noise = ScalarField.adopt(grid, rng.standard_normal(grid.shape))
    mask = np.ones(grid.shape, dtype=bool)
    for nj in grid.modes():
        mask &= np.abs(nj) <= band
    ch = to_spectral(noise) * mask
    if mean_zero:
        ch.flat[0] = 0.0
    vals = to_physical(grid, ch).values
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals = vals * (amplitude / peak)
    return ScalarField.adopt(grid, vals)


def near_delta_bump(grid: GridSpec, width: float) -> ScalarField:
    """L1-normalized approximate identity: the width-scale dissipation
    semigroup applied to the unit Dirac comb mode; positive, mean one."""
    if width <= 0:
        raise ValueError("width must be positive")
    spec = half_spectrum(grid)
    return ScalarField.adopt(grid, spec.inverse(np.exp(-TWO_PI * width * spec.radius)))
