"""Frozen half-spectrum stepper: the forward, SQG and dual stepping as they
were before a zero-velocity stage skipped its transforms and a time-modulated
drift was built once per run.  An SQG field keeps the half-spectrum
coefficients it is built from (``ScalarField.from_half_spectrum``), and each
SQG step starts from theta's kept coefficients.

Kept only as a numerical reference for tests/test_stepper_exact.py; the
library does not use it.  Do not update it to follow library changes.
"""

from __future__ import annotations

import numpy as np

from driftlab.evolution import REVERSED_SIGN, VelocityHistory, sqg_velocity
from driftlab.grids import GridSpec, ScalarField, half_spectrum
from driftlab.operators import TWO_PI, dealias_mask


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
        mask = dealias_mask(grid, spec.modes)
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


def run_forward(cfg, theta0: np.ndarray) -> np.ndarray:
    """Final field of a forward run with a fixed ``cfg.dt``; a modulated
    drift is built again on every step."""
    grid, dt = cfg.grid, cfg.dt
    sign = 1.0 if cfg.sign == REVERSED_SIGN else -1.0
    plan = Plan(grid, cfg.alpha, dt, sign)
    sqg = cfg.kind == "sqg"
    theta = ScalarField(grid, theta0)
    u = sqg_velocity(theta) if sqg else VelocityHistory.prescribed(cfg.velocity, grid).velocity_at(0.0)
    t = 0.0
    for _ in range(int(round(cfg.t_end / dt))):
        vf = None
        if not sqg and cfg.velocity.omega != 0.0:
            vf = VelocityHistory.prescribed(cfg.velocity, grid).velocity_at
        u0 = u if vf is None else vf(t)
        ch = theta.half_coefficients() if sqg else plan.forward(theta.values)
        mid = plan.predictor(ch, _phys(u0))
        if sqg:
            umid = sqg_velocity(ScalarField.from_half_spectrum(grid, mid))
        elif vf is not None:
            umid = vf(t + 0.5 * dt)
        else:
            umid = u0
        ch = plan.corrector(ch, mid, _phys(umid))
        if sqg:
            theta = ScalarField.from_half_spectrum(grid, ch)
        else:
            theta = ScalarField(grid, plan.inverse(ch))
        t = t + dt
        if sqg:
            u = sqg_velocity(theta)
        elif vf is not None:
            u = vf(t)
    return theta.values


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
