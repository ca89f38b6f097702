"""The half-spectrum plan against the full-spectrum code it replaced.

The frozen full-complex stepper lives in fullspectrum_reference.py; final
fields must agree with it to 1e-12 relative to the field's sup norm.
"""

import numpy as np
import pytest

import fullspectrum_reference as ref
from driftlab.evolution import (
    REVERSED_SIGN,
    STANDARD_SIGN,
    SimConfig,
    VelocityHistory,
    VelocitySpec,
    run_dual,
    run_forward,
    spectral_plan,
    velocity_function,
)
from driftlab.grids import GridSpec, ScalarField, spectral_divergence_max
from driftlab.operators import random_band_limited, riesz_transform

RTOL = 1e-12
SIGNS = (REVERSED_SIGN, STANDARD_SIGN)
SHEAR = VelocitySpec(kind="shear", amplitude=1.5)
MODULATED = VelocitySpec(kind="shear", amplitude=1.5, omega=7.0)


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize(
    "name, grid, kind, velocity",
    [
        ("shear", GridSpec(d=2, N=32), "drift", SHEAR),
        ("modulated", GridSpec(d=2, N=32), "drift", MODULATED),
        ("modulated_d1", GridSpec(d=1, N=64), "drift", VelocitySpec(kind="constant", omega=5.0)),
        ("sqg", GridSpec(d=2, N=32), "sqg", VelocitySpec()),
    ],
)
def test_forward_matches_full_spectrum(name, grid, kind, velocity, sign):
    cfg = SimConfig(grid=grid, kind=kind, sign=sign, velocity=velocity, dt=2e-3, t_end=0.06)
    theta0 = random_band_limited(grid, band=6, seed=11)
    got = run_forward(cfg, theta0).states[-1].theta.values
    assert _rel(got, ref.run_forward(cfg, theta0.values)) <= RTOL


@pytest.mark.parametrize("sign", SIGNS)
def test_dual_matches_full_spectrum(sign):
    grid = GridSpec(d=2, N=32)
    cfg = SimConfig(grid=grid, sign=sign, velocity=MODULATED, dt=2e-3)
    history = VelocityHistory.from_callable(grid, velocity_function(MODULATED, grid))
    phi = random_band_limited(grid, band=6, seed=12)
    got = run_dual(cfg, phi, horizon=0.06, history=history).states[-1].phi.values
    assert _rel(got, ref.run_dual(cfg, phi.values, 0.06, history)) <= RTOL


def test_sqg_final_field_of_longer_run():
    grid = GridSpec(d=2, N=64)
    cfg = SimConfig(grid=grid, kind="sqg", dt=1e-3, t_end=0.1)
    theta0 = random_band_limited(grid, band=8, seed=3)
    got = run_forward(cfg, theta0).states[-1].theta.values
    assert _rel(got, ref.run_forward(cfg, theta0.values)) <= RTOL


def _white_noise(grid: GridSpec, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(grid.shape)


@pytest.mark.parametrize("grid", [GridSpec(d=1, N=8), GridSpec(d=2, N=8), GridSpec(d=2, N=32)])
@pytest.mark.parametrize("seed", range(4))
def test_divergence_max_equals_full_spectrum(grid, seed):
    comps = tuple(_white_noise(grid, seed + 100 * j) for j in range(grid.d))
    fields = tuple(ScalarField(grid, c) for c in comps)
    full = ref.divergence_max(comps, grid)
    assert spectral_divergence_max(fields) == pytest.approx(full, rel=RTOL)


def test_divergence_max_on_the_nyquist_row():
    # (N/2, 3) and (N/2, -3) both lie on the Nyquist row; the half spectrum
    # stores only the first, on which this divergence vanishes
    grid = GridSpec(d=2, N=16)
    x1, x2 = grid.coords()
    wave = np.cos(np.pi * grid.N * x1 + 2 * np.pi * 3 * x2)
    comps = (wave, wave * (grid.N / 2) / 3)
    full = ref.divergence_max(comps, grid)
    assert full > 1.0
    got = spectral_divergence_max(tuple(ScalarField(grid, c) for c in comps))
    assert got == pytest.approx(full, rel=RTOL)


@pytest.mark.parametrize("seed", range(4))
def test_riesz_equals_full_spectrum(seed):
    grid = GridSpec(d=2, N=16)
    f = _white_noise(grid, seed)
    for j in (1, 2):
        got = riesz_transform(ScalarField(grid, f), j).values
        assert _rel(got, ref.riesz(f, grid, j)) <= RTOL


def test_one_plan_per_run():
    spectral_plan.cache_clear()
    grid = GridSpec(d=2, N=16)
    cfg = SimConfig(grid=grid, kind="sqg", dt=1e-3, t_end=0.01)
    run_forward(cfg, random_band_limited(grid, band=3, seed=1))
    info = spectral_plan.cache_info()
    assert (info.misses, info.hits) == (1, 9)
