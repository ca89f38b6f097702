import numpy as np
import pytest
from hypothesis import given, strategies as st

import direct_oracle
import kernel_reference
from direct_oracle import fractional_laplacian_direct
from driftlab.grids import GridSpec, ScalarField, VelocityField, dealias_cutoff, to_spectral
from driftlab.operators import (
    advect,
    fractional_laplacian_spectral,
    gradient,
    inner,
    norms,
    random_band_limited,
    riesz_transform,
)

TWO_PI = 2 * np.pi


def _cos_field(grid, n=1):
    x1 = grid.coords()[0]
    return ScalarField(grid, np.cos(TWO_PI * n * x1))


def _loop_direct_1d(f, eps):
    """The 1-D direct oracle rebuilt from the plain loop kernel, with its
    own calibration against the multiplier 2*pi on cos(2*pi*x1)."""
    g = f.grid
    K, M = direct_oracle._lattice_kernel(g, eps, direct_oracle.DEFAULT_CELL_RADIUS[1])

    def raw(field):
        out = kernel_reference.kernel_apply_1d(field.values, K, g.cell_volume)
        return out + direct_oracle._core_correction(field, M)

    probe = _cos_field(g)
    p = raw(probe)
    c = np.sum(TWO_PI * probe.values * p) / np.sum(p * p)
    return c * raw(f)


class TestSpectralLaplacian:
    def test_cos_eigenvalue(self):
        g = GridSpec(d=1, N=64)
        f = _cos_field(g)
        out = fractional_laplacian_spectral(f)
        assert np.max(np.abs(out.values - TWO_PI * f.values)) < 1e-12

    def test_alpha_two_is_laplacian(self):
        g = GridSpec(d=1, N=64)
        f = _cos_field(g, n=3)
        out = fractional_laplacian_spectral(f, alpha=2.0)
        assert np.max(np.abs(out.values - (TWO_PI * 3) ** 2 * f.values)) < 1e-9

    def test_kills_constants(self):
        g = GridSpec(d=2, N=16)
        out = fractional_laplacian_spectral(ScalarField.constant(g, 5.0))
        assert np.max(np.abs(out.values)) < 1e-13

    def test_alpha_validation(self):
        g = GridSpec(d=1, N=16)
        for alpha in (0.0, -1.0, 2.5):
            with pytest.raises(ValueError):
                fractional_laplacian_spectral(_cos_field(g), alpha=alpha)

    @given(st.integers(0, 10_000))
    def test_self_adjoint(self, seed):
        g = GridSpec(d=1, N=64)
        f = random_band_limited(g, band=10, seed=seed)
        h = random_band_limited(g, band=10, seed=seed + 1)
        lhs = inner(fractional_laplacian_spectral(f), h)
        rhs = inner(f, fractional_laplacian_spectral(h))
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestGradientRiesz:
    def test_gradient_cos(self):
        g = GridSpec(d=1, N=64)
        (df,) = gradient(_cos_field(g))
        x = g.axis_coords()
        assert np.max(np.abs(df.values + TWO_PI * np.sin(TWO_PI * x))) < 1e-11

    def test_riesz_requires_d2(self):
        with pytest.raises(ValueError):
            riesz_transform(_cos_field(GridSpec(d=1, N=16)), 1)

    def test_riesz_component_index(self):
        g = GridSpec(d=2, N=16)
        with pytest.raises(ValueError):
            riesz_transform(_cos_field(g), 3)

    def test_riesz_squares_sum_to_minus_identity(self):
        g = GridSpec(d=2, N=32)
        f = random_band_limited(g, band=6, seed=3)
        rr = riesz_transform(riesz_transform(f, 1), 1) + riesz_transform(
            riesz_transform(f, 2), 2
        )
        assert np.max(np.abs(rr.values + f.values)) < 1e-11


class TestAdvection:
    def test_dealias_cutoff(self):
        assert dealias_cutoff(128) == 42
        assert dealias_cutoff(96) == 31  # 3*32 == 96 must drop to strict < N/3
        assert dealias_cutoff(64) == 21

    def test_skew_symmetry_divergence_free(self):
        g = GridSpec(d=2, N=64)
        x1, _ = g.coords()
        u = VelocityField(
            g,
            (
                ScalarField.constant(g, 0.0),
                ScalarField(g, np.sin(TWO_PI * x1)),
            ),
            divergence_free=True,
        )
        f = random_band_limited(g, band=8, seed=9)
        assert abs(inner(advect(u, f), f)) < 1e-12 * norms(f).l2 ** 2

    def test_constant_velocity_is_derivative(self):
        g = GridSpec(d=1, N=64)
        u = VelocityField.constant(g, (2.0,))
        f = _cos_field(g, n=3)
        out = advect(u, f)
        x = g.axis_coords()
        exact = -2.0 * TWO_PI * 3 * np.sin(TWO_PI * 3 * x)
        assert np.max(np.abs(out.values - exact)) < 1e-10

    def test_mean_mode_untouched(self):
        g = GridSpec(d=2, N=32)
        x1, _ = g.coords()
        u = VelocityField(
            g,
            (ScalarField.constant(g, 0.0), ScalarField(g, np.sin(TWO_PI * x1))),
            divergence_free=True,
        )
        f = random_band_limited(g, band=4, seed=2)
        assert abs(advect(u, f).mean()) < 1e-14


class TestDirectOracle:
    def test_matches_spectral_d1(self):
        g = GridSpec(d=1, N=128)
        x = g.axis_coords()
        f = ScalarField(g, np.cos(TWO_PI * x) + 0.3 * np.sin(3 * TWO_PI * x))
        direct = fractional_laplacian_direct(f, eps=2 * g.h)
        spect = fractional_laplacian_spectral(f)
        err = norms(direct - spect).l2 / norms(spect).l2
        assert err < 2e-2

    def test_matches_spectral_d2(self):
        errs = []
        for N in (32, 64):
            g = GridSpec(d=2, N=N)
            x1, x2 = g.coords()
            f = ScalarField(g, np.cos(TWO_PI * x1) + 0.5 * np.cos(TWO_PI * (x1 + x2)))
            direct = fractional_laplacian_direct(f, eps=2 * g.h)
            spect = fractional_laplacian_spectral(f)
            errs.append(norms(direct - spect).l2 / norms(spect).l2)
        assert max(errs) < 5e-2
        # the oracle converges under refinement
        assert errs[0] / errs[1] >= 1.5

    def test_eps_below_spacing_rejected(self):
        g = GridSpec(d=1, N=64)
        with pytest.raises(ValueError, match="eps"):
            fractional_laplacian_direct(_cos_field(g), eps=0.5 * g.h)

    def test_backends_agree(self, monkeypatch):
        # an empty cache makes the oracle calibrate its own constant here
        monkeypatch.setattr(direct_oracle, "_calibration_cache", {})
        g = GridSpec(d=1, N=64)
        f = _cos_field(g, n=2)
        ref = _loop_direct_1d(f, eps=2 * g.h)
        b = fractional_laplacian_direct(f, eps=2 * g.h)
        assert np.max(np.abs(ref - b.values)) < 1e-10


class TestRandomBandLimited:
    def test_deterministic(self):
        g = GridSpec(d=2, N=32)
        a = random_band_limited(g, band=5, seed=42)
        b = random_band_limited(g, band=5, seed=42)
        assert np.array_equal(a.values, b.values)
        c = random_band_limited(g, band=5, seed=43)
        assert not np.array_equal(a.values, c.values)

    def test_band_support_and_normalization(self):
        g = GridSpec(d=1, N=64)
        f = random_band_limited(g, band=4, seed=1, amplitude=2.5)
        ch = to_spectral(f)
        (n,) = g.modes()
        assert np.max(np.abs(ch[np.abs(n) > 4])) < 1e-14
        assert norms(f).linf == pytest.approx(2.5)
        assert abs(f.mean()) < 1e-14

    def test_band_validation(self):
        g = GridSpec(d=1, N=16)
        for band in (0, 8):
            with pytest.raises(ValueError):
                random_band_limited(g, band=band, seed=0)
