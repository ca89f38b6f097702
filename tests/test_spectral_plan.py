"""The half-spectrum core against the full-spectrum code it replaced.

The frozen full-complex stepper, operators and correlations live in
fullspectrum_reference.py; results must agree with them to 1e-12 relative
to the reference's sup norm.
"""

import numpy as np
import pytest

import fullspectrum_reference as ref
from spectral_operators import fractional_laplacian_spectral, gradient
from driftlab.evolution import (
    REVERSED_SIGN,
    STANDARD_SIGN,
    SimConfig,
    VelocityHistory,
    VelocitySpec,
    run_dual,
    run_forward,
    spectral_plan,
)
from driftlab.grids import (
    GridSpec,
    ScalarField,
    VelocityField,
    half_spectrum,
    spectral_divergence_max,
)
from driftlab.operators import (
    TWO_PI,
    advect,
    random_band_limited,
    riesz_transform,
)
from driftlab.spaces import concentration_all_centers, shifted_pairings

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
    history = VelocityHistory.prescribed(MODULATED, grid)
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


def _coefficients(grid: GridSpec, kind: str, seed: int) -> np.ndarray:
    """Random complex half-spectrum coefficients, not Hermitian on the
    self-conjugate columns: everywhere, or only on the Nyquist row
    n_1 = -N/2."""
    spec = half_spectrum(grid)
    rng = np.random.default_rng(seed)
    ch = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    if kind == "nyquist":
        ch[: grid.N // 2] = ch[grid.N // 2 + 1 :] = 0.0
    return ch


@pytest.mark.parametrize("grid", [GridSpec(d=2, N=32), GridSpec(d=2, N=64)], ids=["n32", "n64"])
@pytest.mark.parametrize("kind", ["white", "nyquist"])
def test_divergence_from_kept_coefficients(grid, kind):
    # the check on the coefficients a field keeps gives the check on the
    # forward transform of its values
    kept = tuple(
        ScalarField.adopt_half_spectrum(grid, _coefficients(grid, kind, seed)) for seed in (1, 2)
    )
    plain = tuple(ScalarField(grid, f.values) for f in kept)
    full = spectral_divergence_max(plain)
    assert full > 1.0
    assert spectral_divergence_max(kept) == pytest.approx(full, rel=RTOL)


@pytest.mark.parametrize("seed", range(4))
def test_riesz_equals_full_spectrum(seed):
    # equal off the Nyquist lines n_1 = -N/2 and n_2 = N/2; on them both
    # transforms are zero, so that the SQG velocity stays divergence-free
    grid = GridSpec(d=2, N=16)
    f = _white_noise(grid, seed)
    off = np.ones((grid.N, grid.N // 2 + 1), dtype=bool)
    off[grid.N // 2, :] = off[:, grid.N // 2] = False
    for j in (1, 2):
        got = np.fft.rfftn(riesz_transform(ScalarField(grid, f), j).values, norm="forward")
        want = np.fft.rfftn(ref.riesz(f, grid, j), norm="forward")
        assert _rel(got[off], want[off]) <= RTOL
        assert np.max(np.abs(got[~off])) <= RTOL * np.max(np.abs(want))
        assert np.max(np.abs(want[~off])) > 0.1 * np.max(np.abs(want))


def test_one_plan_per_run():
    spectral_plan.cache_clear()
    grid = GridSpec(d=2, N=16)
    cfg = SimConfig(grid=grid, kind="sqg", dt=1e-3, t_end=0.01)
    run_forward(cfg, random_band_limited(grid, band=3, seed=1))
    info = spectral_plan.cache_info()
    assert (info.misses, info.hits) == (1, 9)


OPERATOR_GRIDS = [GridSpec(d=1, N=32), GridSpec(d=2, N=32)]


def _datum(grid: GridSpec, kind: str) -> np.ndarray:
    """White noise, or a wave on the Nyquist line n_1 = -N/2 (plus a low
    mode at d=1, where that line is a single mode with zero gradient)."""
    if kind == "white":
        return _white_noise(grid, 7)
    x = grid.coords()
    if grid.d == 1:
        return np.cos(np.pi * grid.N * x[0]) + np.sin(TWO_PI * x[0])
    return np.cos(np.pi * grid.N * x[0] + TWO_PI * 3 * x[1])


@pytest.mark.parametrize("grid", OPERATOR_GRIDS, ids=["d1", "d2"])
@pytest.mark.parametrize("kind", ["white", "nyquist"])
def test_gradient_equals_full_spectrum(grid, kind):
    f = _datum(grid, kind)
    got = np.stack([c.values for c in gradient(ScalarField(grid, f))])
    assert _rel(got, np.stack(ref.gradient(f, grid))) <= RTOL


@pytest.mark.parametrize("grid", OPERATOR_GRIDS, ids=["d1", "d2"])
@pytest.mark.parametrize("kind", ["white", "nyquist"])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_fractional_laplacian_equals_full_spectrum(grid, kind, alpha):
    f = _datum(grid, kind)
    got = fractional_laplacian_spectral(ScalarField(grid, f), alpha).values
    assert _rel(got, ref.fractional_laplacian(f, grid, alpha)) <= RTOL


@pytest.mark.parametrize("grid", OPERATOR_GRIDS, ids=["d1", "d2"])
def test_advect_equals_full_spectrum(grid):
    # a divergence-free velocity band-limited inside the 2/3 cutoff, which
    # the reference's dealiasing of the velocity leaves as it is
    if grid.d == 1:
        u = VelocityField.constant(grid, (1.7,))
    else:
        d1, d2 = ref.gradient(random_band_limited(grid, band=6, seed=5).values, grid)
        u = VelocityField(grid, (ScalarField(grid, -d2), ScalarField(grid, d1)), divergence_free=True)
    f = _white_noise(grid, 8)
    got = advect(u, ScalarField(grid, f)).values
    assert _rel(got, ref.advect(tuple(c.values for c in u.components), f, grid)) <= RTOL


@pytest.mark.parametrize("grid", [GridSpec(d=1, N=64), GridSpec(d=2, N=32)], ids=["d1", "d2"])
def test_correlations_equal_full_spectrum(grid):
    f, phi = _white_noise(grid, 9), _white_noise(grid, 10)
    got = concentration_all_centers(ScalarField(grid, f))
    assert _rel(got, ref.concentration_all_centers(f, grid)) <= RTOL
    got = shifted_pairings(ScalarField(grid, f), ScalarField(grid, phi))
    assert _rel(got, ref.shifted_pairings(f, phi)) <= RTOL
