"""Frozen half-spectrum stepper: the forward, SQG and dual stepping as they
were before a zero-velocity stage or component skipped its transforms, a
dual step skipped an unread predictor and a time-modulated drift was built
once per run.  An SQG field keeps the half-spectrum coefficients it is
built from, in the form the inverse transform realises, and each SQG step
starts from theta's kept coefficients.  The SQG velocity, its Riesz
transforms and that Hermitian form are frozen here too (as copies made
before their output coefficients were fixed in place), without the
divergence check, which changes no value.

Kept only as a numerical reference for tests/test_stepper_exact.py; the
library does not use it.  Do not update it to follow library changes.
"""

from __future__ import annotations

import numpy as np

from driftlab.evolution import REVERSED_SIGN, VelocityHistory
from driftlab.grids import GridSpec, half_spectrum
from driftlab.operators import TWO_PI


def _dealias_mask(spec) -> np.ndarray:
    """2/3-rule mask on the half spectrum: |n_j| < N/3 on every axis."""
    cut = spec.grid.N // 3
    if 3 * cut == spec.grid.N:
        cut -= 1
    return np.logical_and.reduce([np.abs(m) <= cut for m in spec.modes])


class Plan:
    """Integrating-factor midpoint RK2 on the rfftn half spectrum; every
    stage runs the full dealiased advection term."""

    def __init__(self, grid: GridSpec, alpha: float, dt: float, adv_sign: float):
        spec = half_spectrum(grid)
        self.dt = dt
        self.forward = spec.forward
        self.inverse = spec.inverse
        lam = (TWO_PI * spec.radius) ** alpha
        lam.flat[0] = 0.0
        self.E = np.exp(-lam * dt)
        self.E_half = np.exp(-lam * (0.5 * dt))
        mask = _dealias_mask(spec)
        self.ik = tuple(ikj * mask for ikj in spec.ik)
        self.mask = adv_sign * mask
        self.mask.flat[0] = 0.0

    def nonlinear(self, ch, u_phys):
        prod = sum(uj * self.inverse(ikj * ch) for ikj, uj in zip(self.ik, u_phys))
        return self.forward(prod) * self.mask

    def predictor(self, ch, u0_phys):
        return self.E_half * (ch + 0.5 * self.dt * self.nonlinear(ch, u0_phys))

    def corrector(self, ch, mid, umid_phys):
        return self.E * ch + self.dt * self.E_half * self.nonlinear(mid, umid_phys)


def _phys(u) -> tuple:
    return tuple(c.values for c in u.components)


def _hermitian(grid: GridSpec, ch: np.ndarray) -> np.ndarray:
    """A new array of the coefficients that the inverse transform realises:
    the self-conjugate columns hold (c_n + conj(c_{-n})) / 2."""
    out = np.array(ch, dtype=complex)
    cols = [0, grid.N // 2]
    c = out[..., cols]
    mirror = c[(-np.arange(grid.N)) % grid.N] if grid.d == 2 else c
    out[..., cols] = 0.5 * (c + np.conj(mirror))
    return out


def _riesz_multipliers(grid: GridSpec) -> tuple:
    """-i n_j / |n|, 0 at n = 0 and on both Nyquist lines."""
    spec = half_spectrum(grid)
    nr = np.where(spec.radius > 0, spec.radius, 1.0)
    nyquist = np.logical_or.reduce([np.abs(m) == grid.N // 2 for m in spec.modes])
    return tuple(np.where(nyquist, 0.0, -1j * m / nr) for m in spec.modes)


def _sqg_velocity(grid: GridSpec, half: np.ndarray) -> tuple:
    """u = (-R2 theta, R1 theta) from theta's kept coefficients: each Riesz
    transform is the inverse of the Hermitian form of its product."""
    inverse = half_spectrum(grid).inverse
    r1, r2 = (inverse(_hermitian(grid, half * m)) for m in _riesz_multipliers(grid))
    return (-r2, r1)


def run_forward(cfg, theta0: np.ndarray) -> np.ndarray:
    """Final field of a forward run with a fixed ``cfg.dt``; a modulated
    drift is built again on every step."""
    grid, dt = cfg.grid, cfg.dt
    sign = 1.0 if cfg.sign == REVERSED_SIGN else -1.0
    plan = Plan(grid, cfg.alpha, dt, sign)
    sqg = cfg.kind == "sqg"
    theta = np.asarray(theta0, dtype=float)
    half = plan.forward(theta)  # theta's coefficients, kept by an SQG run
    if sqg:
        u = _sqg_velocity(grid, half)
    else:
        u = _phys(VelocityHistory.prescribed(cfg.velocity, grid).velocity_at(0.0))
    t = 0.0
    for _ in range(int(round(cfg.t_end / dt))):
        vf = None
        if not sqg and cfg.velocity.omega != 0.0:
            vf = VelocityHistory.prescribed(cfg.velocity, grid).velocity_at
        u0 = u if vf is None else _phys(vf(t))
        ch = half if sqg else plan.forward(theta)
        mid = plan.predictor(ch, u0)
        if sqg:
            umid = _sqg_velocity(grid, _hermitian(grid, mid))
        elif vf is not None:
            umid = _phys(vf(t + 0.5 * dt))
        else:
            umid = u0
        ch = plan.corrector(ch, mid, umid)
        if sqg:
            half = _hermitian(grid, ch)
            ch = half
        theta = plan.inverse(ch)
        t = t + dt
        if sqg:
            u = _sqg_velocity(grid, half)
        elif vf is not None:
            u = _phys(vf(t))
    return theta


def run_dual(cfg, phi: np.ndarray, horizon: float, history) -> np.ndarray:
    """Final field of a dual run with a fixed ``cfg.dt``."""
    grid, dt = cfg.grid, cfg.dt
    sign = -1.0 if cfg.sign == REVERSED_SIGN else 1.0
    plan = Plan(grid, cfg.alpha, dt, sign)
    ch = plan.forward(np.asarray(phi, dtype=float))
    s = 0.0
    for _ in range(int(round(horizon / dt))):
        u0 = history.velocity_at(horizon - s)
        umid = history.velocity_at(horizon - s - 0.5 * dt)
        ch = plan.corrector(ch, plan.predictor(ch, _phys(u0)), _phys(umid))
        s += dt
    return plan.inverse(ch)
