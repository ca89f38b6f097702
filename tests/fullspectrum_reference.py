"""Frozen full-spectrum code on complex ``fftn``/``ifftn`` transforms: the
forward, SQG and dual stepping as it was before the half-spectrum plan, and
the operators and correlations as they were before they moved onto the
half-spectrum core (``gradient``, ``fractional_laplacian_spectral``,
``advect``, ``concentration_all_centers``, ``shifted_pairings``; the
half-spectrum gradient and fractional Laplacian are test code too, in
tests/spectral_operators.py), and the fields built from a spectral
multiplier as they were before it (``band_kernel``, ``near_delta_bump``).  ``mode_radius`` gives |n|
over the full spectrum, and ``band_multiplier`` the Littlewood-Paley
multipliers over it, also to tests/kernel_reference.py's band fit.

Kept only as a numerical reference for the tests; the library does not
use it.  Do not update it to follow library changes.
"""

from __future__ import annotations

import numpy as np

from driftlab.evolution import REVERSED_SIGN, VelocityHistory
from driftlab.grids import GridSpec
from driftlab.spaces import smooth_cutoff

TWO_PI = 2.0 * np.pi


def mode_radius(grid: GridSpec) -> np.ndarray:
    """|n| over the full spectral grid."""
    return np.sqrt(sum(nj**2 for nj in grid.modes()))


def _dealias_mask(grid: GridSpec) -> np.ndarray:
    cut = grid.N // 3
    if 3 * cut == grid.N:
        cut -= 1
    mask = np.ones(grid.shape, dtype=bool)
    for nj in grid.modes():
        mask &= np.abs(nj) <= cut
    return mask


class Stepper:
    """Integrating-factor midpoint RK2 on full complex spectra."""

    def __init__(self, grid: GridSpec, dt: float, alpha: float, adv_sign: float):
        self.grid = grid
        self.dt = dt
        self.adv_sign = adv_sign
        lam = (TWO_PI * mode_radius(grid)) ** alpha
        lam.flat[0] = 0.0
        self.E = np.exp(-lam * dt)
        self.E_half = np.exp(-lam * (0.5 * dt))
        self.mask = _dealias_mask(grid)
        self.ik = tuple(2j * np.pi * nj for nj in grid.modes())

    def nonlinear(self, ch, u_phys):
        chm = ch * self.mask
        prod = np.zeros(self.grid.shape)
        for ikj, uj in zip(self.ik, u_phys):
            dj = np.fft.ifftn(ikj * chm, norm="forward").real
            prod += uj * dj
        ph = np.fft.fftn(prod, norm="forward") * self.mask
        ph.flat[0] = 0.0
        return self.adv_sign * ph

    def predictor(self, ch, u0_phys):
        return self.E_half * (ch + 0.5 * self.dt * self.nonlinear(ch, u0_phys))

    def step(self, ch, u0_phys, umid_phys):
        mid = self.predictor(ch, u0_phys)
        a2 = self.nonlinear(mid, umid_phys)
        return self.E * ch + self.dt * self.E_half * a2


def riesz(values: np.ndarray, grid: GridSpec, j: int) -> np.ndarray:
    ns = grid.modes()
    nr = mode_radius(grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        mult = np.where(nr > 0, -1j * ns[j - 1] / np.where(nr > 0, nr, 1.0), 0.0)
    ch = np.fft.fftn(values, norm="forward") * mult
    return np.fft.ifftn(ch, norm="forward").real


def sqg_velocity(values: np.ndarray, grid: GridSpec) -> tuple:
    """u = (-R2 theta, R1 theta) as a tuple of arrays."""
    return (-riesz(values, grid, 2), riesz(values, grid, 1))


def divergence_max(components: tuple, grid: GridSpec) -> float:
    div = np.zeros(grid.shape, dtype=complex)
    for nj, comp in zip(grid.modes(), components):
        div += 2j * np.pi * nj * np.fft.fftn(comp, norm="forward")
    return float(np.max(np.abs(div)))


def run_forward(cfg, theta0: np.ndarray) -> np.ndarray:
    """Final field of a forward run with a fixed ``cfg.dt``."""
    grid = cfg.grid
    sign = 1.0 if cfg.sign == REVERSED_SIGN else -1.0
    stepper = Stepper(grid, cfg.dt, cfg.alpha, sign)
    vf = None if cfg.kind == "sqg" else VelocityHistory.prescribed(cfg.velocity, grid).velocity_at
    theta, t = np.asarray(theta0, dtype=float), 0.0
    u = sqg_velocity(theta, grid) if vf is None else tuple(c.values for c in vf(0.0).components)
    for _ in range(int(round(cfg.t_end / cfg.dt))):
        ch = np.fft.fftn(theta, norm="forward")
        if vf is None:
            mid = np.fft.ifftn(stepper.predictor(ch, u), norm="forward").real
            u0, umid = u, sqg_velocity(mid, grid)
        else:
            u0 = tuple(c.values for c in vf(t).components)
            umid = tuple(c.values for c in vf(t + 0.5 * cfg.dt).components)
        theta = np.fft.ifftn(stepper.step(ch, u0, umid), norm="forward").real
        t += cfg.dt
        if vf is None:
            u = sqg_velocity(theta, grid)
    return theta


def run_dual(cfg, phi: np.ndarray, horizon: float, history) -> np.ndarray:
    """Final field of a dual run with a fixed ``cfg.dt``."""
    grid = cfg.grid
    sign = -1.0 if cfg.sign == REVERSED_SIGN else 1.0
    stepper = Stepper(grid, cfg.dt, cfg.alpha, sign)
    ch = np.fft.fftn(np.asarray(phi, dtype=float), norm="forward")
    s = 0.0
    for _ in range(int(round(horizon / cfg.dt))):
        u0 = tuple(c.values for c in history.velocity_at(horizon - s).components)
        umid = tuple(c.values for c in history.velocity_at(horizon - s - 0.5 * cfg.dt).components)
        ch = stepper.step(ch, u0, umid)
        s += cfg.dt
    return np.fft.ifftn(ch, norm="forward").real


# ---------------------------------------------------------------------------
# operators and correlations, on arrays


def gradient(values: np.ndarray, grid: GridSpec) -> tuple:
    ch = np.fft.fftn(values, norm="forward")
    return tuple(np.fft.ifftn(2j * np.pi * nj * ch, norm="forward").real for nj in grid.modes())


def fractional_laplacian(values: np.ndarray, grid: GridSpec, alpha: float) -> np.ndarray:
    mult = (TWO_PI * mode_radius(grid)) ** alpha
    mult.flat[0] = 0.0
    return np.fft.ifftn(np.fft.fftn(values, norm="forward") * mult, norm="forward").real


def advect(u_phys: tuple, values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """(u . grad) f with the velocity, the field and the product dealiased."""
    mask = _dealias_mask(grid)
    fh = np.fft.fftn(values, norm="forward") * mask
    prod = np.zeros(grid.shape)
    for nj, comp in zip(grid.modes(), u_phys):
        uh = np.fft.fftn(comp, norm="forward") * mask
        dj = np.fft.ifftn(2j * np.pi * nj * fh, norm="forward").real
        uj = np.fft.ifftn(uh, norm="forward").real
        prod += uj * dj
    ph = np.fft.fftn(prod, norm="forward") * mask
    return np.fft.ifftn(ph, norm="forward").real


def concentration_all_centers(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    o = np.arange(grid.N)
    d1 = np.minimum(o, grid.N - o) / grid.N
    dist = d1 if grid.d == 1 else np.sqrt(d1[:, None] ** 2 + d1[None, :] ** 2)
    w = np.where(dist < 0.5, np.sqrt(dist), 1.0 / np.sqrt(2.0))
    corr = np.fft.ifftn(np.conj(np.fft.fftn(w)) * np.fft.fftn(np.abs(values))).real
    return corr * grid.cell_volume


def shifted_pairings(f: np.ndarray, phi: np.ndarray) -> np.ndarray:
    fh = np.fft.fftn(f, norm="forward")
    ph = np.fft.fftn(phi, norm="forward")
    return np.fft.ifftn(fh * np.conj(ph), norm="forward").real


# ---------------------------------------------------------------------------
# fields of a spectral multiplier, on arrays


def band_multiplier(grid: GridSpec, j: int) -> np.ndarray:
    """Level-j Littlewood-Paley multiplier over the full spectrum."""
    nr = mode_radius(grid)
    return smooth_cutoff(nr / 2.0**j) - smooth_cutoff(nr / 2.0 ** (j - 1))


def band_kernel(grid: GridSpec, j: int) -> np.ndarray:
    """The level-j band kernel that ``make_test_function`` rescales."""
    return np.fft.ifftn(band_multiplier(grid, j).astype(complex), norm="forward").real


def near_delta_bump(grid: GridSpec, width: float) -> np.ndarray:
    return np.fft.ifftn(np.exp(-TWO_PI * width * mode_radius(grid)), norm="forward").real
