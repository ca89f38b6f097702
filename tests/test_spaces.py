import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fullspectrum_reference
import kernel_reference
from fullspectrum_reference import mode_radius
import driftlab
from driftlab import _kernels, spaces
from driftlab.grids import GridSpec, ScalarField
from driftlab.operators import inner, near_delta_bump, norms, random_band_limited
from driftlab.spaces import (
    ClassParams,
    OMEGA_PLATEAU,
    band_multiplier,
    bmo_norm,
    check_class_membership,
    concentration_all_centers,
    default_bmo_radii,
    holder_from_classes,
    holder_from_lp,
    holder_seminorm_direct,
    lp_bands,
    make_test_function,
    max_band_level,
    omega_weighted_mass,
    set_diagnostics_sink,
    shifted_pairings,
    smooth_cutoff,
)

TWO_PI = 2 * np.pi


def _rand_field(grid, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return ScalarField(grid, rng.standard_normal(grid.shape))


def weierstrass(grid, beta, levels=8):
    """sum_k 2^{-beta k} cos(2 pi 2^k x); C^beta and no better."""
    x = grid.coords()[0]
    vals = np.zeros(grid.shape)
    for k in range(levels):
        vals += 2.0 ** (-beta * k) * np.cos(TWO_PI * 2**k * x)
    return ScalarField(grid, vals)


class TestOmega:
    def test_all_centers_matches_pointwise(self):
        g = GridSpec(d=2, N=16)
        f = _rand_field(g, 0)
        conc = concentration_all_centers(f)
        for idx in [(0, 0), (3, 11), (8, 8)]:
            center = (idx[0] * g.h, idx[1] * g.h)
            assert conc[idx] == pytest.approx(omega_weighted_mass(f, center), rel=1e-12)

    def test_off_grid_center(self):
        g = GridSpec(d=1, N=32)
        f = ScalarField.constant(g, 1.0)
        # for constant |f| the weighted mass is the mean of Omega offsets
        got = omega_weighted_mass(f, (0.5 * g.h,))
        assert 0 < got < OMEGA_PLATEAU


class TestBMO:
    def _brute(self, f, radii):
        """All centers, all given radii, direct mean-oscillation scan."""
        g = f.grid
        best = 0.0
        x = g.axis_coords()
        for rho in radii:
            for c in range(g.N):
                dist = np.minimum(np.abs(x - x[c]), 1 - np.abs(x - x[c]))
                ball = f.values[dist <= rho + 1e-15]
                best = max(best, float(np.mean(np.abs(ball - ball.mean()))))
        return best

    def test_matches_brute_force(self):
        g = GridSpec(d=1, N=32)
        f = _rand_field(g, 3)
        radii = [0.5, 0.25, 0.125]
        assert bmo_norm(f, radii=radii) == pytest.approx(self._brute(f, radii), rel=1e-12)

    def test_constant_is_zero(self):
        assert bmo_norm(ScalarField.constant(GridSpec(d=2, N=16), 4.0)) == 0.0

    @pytest.mark.parametrize("d", [1, 2])
    def test_constant_makes_no_ball_sums(self, d, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("ball sums of a constant field")

        monkeypatch.setattr(_kernels, "ball_deviation", unexpected)
        records = []
        set_diagnostics_sink(records.append)
        try:
            for value in (0.0, -0.0, 4.0, -1e300):
                f = ScalarField.constant(GridSpec(d=d, N=16), value)
                got = bmo_norm(f, stride=2)
                assert got == 0.0 and math.copysign(1.0, got) == 1.0
                for bad in ([0.7], [], [0.25, 0.0]):
                    with pytest.raises(ValueError, match="radii"):
                        bmo_norm(f, radii=bad)
        finally:
            set_diagnostics_sink(None)
        assert [json.loads(r)["value"] for r in records] == [0.0] * 4

    @staticmethod
    def _full_scan(f, radii, stride):
        return kernel_reference.ball_deviation_full_max(f.values, radii, stride, np.abs)

    @pytest.mark.parametrize("seed", [0, 7, 102])
    def test_equals_full_scan_on_diagnose_inputs(self, seed):
        # the BMO inputs of the diagnose benchmark, at its stride N // 64
        g2, g1 = GridSpec(d=2, N=128), GridSpec(d=1, N=1024)
        shift = tuple(int(s) for s in np.random.default_rng(seed).integers(0, 128, size=2))
        bump = np.roll(near_delta_bump(g2, 0.02).values, shift, axis=(0, 1))
        for f in (random_band_limited(g2, 8, seed=seed), ScalarField(g2, bump),
                  random_band_limited(g1, 16, seed=seed)):
            stride = f.grid.N // 64
            want = self._full_scan(f, default_bmo_radii(f.grid), stride)
            assert bmo_norm(f, stride=stride) == want

    @pytest.mark.parametrize("d,N,stride", [(1, 64, 1), (1, 256, 4), (2, 32, 1), (2, 64, 2), (2, 128, 4)])
    def test_log_shear_equals_full_scan(self, d, N, stride):
        # the lab's drift with a BMO bound and no sup bound grows a log spike
        # as eps falls; its L2 bound is loose, so whole radii are summed
        g = GridSpec(d=d, N=N)
        x = g.coords()[-1]
        for eps in (2.0**-2, 2.0**-6):
            f = ScalarField(g, np.log(np.abs(np.sin(np.pi * x)) + eps) + np.zeros(g.shape))
            for radii in (default_bmo_radii(g), [0.5, 0.3, 1.0 / N]):
                assert bmo_norm(f, radii=radii, stride=stride) == self._full_scan(f, radii, stride)

    def test_sums_few_of_the_balls(self, monkeypatch):
        # the diagnose benchmark's random d=2, N=128 field at stride 2: the
        # bound leaves under 5% of the full scan's center-offset pairs
        f = random_band_limited(GridSpec(d=2, N=128), 8, seed=0)
        radii, stride = default_bmo_radii(f.grid), 2
        sums = []
        ball_deviation = _kernels.ball_deviation

        def counted(values, offsets, stride, dev, centers=None, means=None):
            n_centers = (128 // stride) ** 2 if centers is None else len(centers)
            sums.append(n_centers * offsets[0].size)
            return ball_deviation(values, offsets, stride, dev, centers=centers, means=means)

        monkeypatch.setattr(_kernels, "ball_deviation", counted)
        got = bmo_norm(f, stride=stride)
        full = sum((128 // stride) ** 2 * _kernels.ball_offsets(2, 128, r)[0].size for r in radii)
        assert 0 < sum(sums) < 0.05 * full
        monkeypatch.undo()
        assert got == self._full_scan(f, radii, stride)

    @given(st.integers(0, 500))
    def test_shift_and_scale_invariance(self, seed):
        g = GridSpec(d=1, N=64)
        f = _rand_field(g, seed)
        base = bmo_norm(f)
        shifted = ScalarField(g, np.roll(f.values, 7))
        assert bmo_norm(shifted) == pytest.approx(base, rel=1e-12)
        assert bmo_norm(ScalarField(g, 3.0 * f.values)) == pytest.approx(3 * base, rel=1e-12)
        assert bmo_norm(f + 2.0) == pytest.approx(base, rel=1e-12)

    def test_radius_validation(self):
        g = GridSpec(d=1, N=16)
        with pytest.raises(ValueError):
            bmo_norm(_rand_field(g, 0), radii=[0.7])
        with pytest.raises(ValueError):
            bmo_norm(_rand_field(g, 0), radii=[])

    def test_default_radii(self):
        assert default_bmo_radii(GridSpec(d=1, N=64)) == [0.5, 0.25, 0.125, 0.0625]


class TestHolderDirect:
    def _brute(self, f, beta):
        g = f.grid
        x = g.axis_coords()
        best = 0.0
        for i in range(g.N):
            for j in range(g.N):
                if i == j:
                    continue
                dist = min(abs(x[i] - x[j]), 1 - abs(x[i] - x[j]))
                best = max(best, abs(f.values[i] - f.values[j]) / dist**beta)
        return best

    def test_matches_brute_force(self):
        g = GridSpec(d=1, N=32)
        f = _rand_field(g, 11)
        assert holder_seminorm_direct(f, 0.3) == pytest.approx(self._brute(f, 0.3), rel=1e-12)

    def test_scaling(self):
        g = GridSpec(d=1, N=64)
        f = _rand_field(g, 12)
        assert holder_seminorm_direct(2.0 * f, 0.25) == pytest.approx(
            2 * holder_seminorm_direct(f, 0.25), rel=1e-12
        )

    def test_beta_range(self):
        f = _rand_field(GridSpec(d=1, N=16), 0)
        for beta in (0.0, 0.5, 0.7):
            with pytest.raises(ValueError):
                holder_seminorm_direct(f, beta)

    def test_pair_guard(self):
        f = ScalarField.constant(GridSpec(d=2, N=512), 0.0)
        with pytest.raises(ValueError, match="pair enumeration"):
            holder_seminorm_direct(f, 0.3)


class TestLittlewoodPaley:
    def test_cutoff_plateaus(self):
        assert smooth_cutoff([0.0, 0.5, 1.0]).tolist() == [1.0, 1.0, 1.0]
        assert np.all(smooth_cutoff([2.0, 3.0, 10.0]) == 0.0)

    def test_cutoff_bridge_monotone_and_continuous(self):
        xi = np.linspace(1.0, 2.0, 201)
        eta = smooth_cutoff(xi)
        assert np.all(np.diff(eta) <= 1e-12)
        assert eta[0] == pytest.approx(1.0, abs=1e-9)
        assert eta[-1] == pytest.approx(0.0, abs=1e-9)
        # smooth at the endpoints: derivative vanishes to high order
        assert 1.0 - smooth_cutoff(1.01) < 1e-6
        assert smooth_cutoff(1.99) < 1e-6

    def test_cutoff_chunks_keep_every_bit(self):
        # the N = 256 distinct mode radii put up to 3159 radii in the bridge
        # at one level, many chunks' worth
        g = GridSpec(d=2, N=256)
        radii = np.unique(mode_radius(g))
        for level in range(9):
            xi = radii / 2.0**level
            assert smooth_cutoff(xi).tobytes() == kernel_reference.smooth_cutoff_oneshot(xi).tobytes()
        for xi in (mode_radius(GridSpec(d=2, N=64)) / 16.0, np.float64(1.01), 1.5):
            got, ref = smooth_cutoff(xi), kernel_reference.smooth_cutoff_oneshot(xi)
            assert got.shape == ref.shape == np.shape(xi)
            assert got.tobytes() == ref.tobytes()

    def test_cutoff_builds_its_rule_on_first_use(self):
        # the Gauss-Legendre rule is built by the first bridge evaluation and
        # gives the bytes of the rule that kernel_reference builds at import
        spaces._gauss_legendre_bump.cache_clear()
        xi = np.linspace(0.5, 2.5, 1001)
        first = smooth_cutoff(xi)
        assert spaces._gauss_legendre_bump.cache_info().misses == 1
        assert first.tobytes() == kernel_reference.smooth_cutoff_oneshot(xi).tobytes()
        assert smooth_cutoff(xi).tobytes() == first.tobytes()
        assert spaces._gauss_legendre_bump.cache_info().misses == 1
        nodes, weights = np.polynomial.legendre.leggauss(96)
        cached = spaces._gauss_legendre_bump()
        assert cached[0].tobytes() == nodes.tobytes()
        assert cached[1].tobytes() == weights.tobytes()
        assert cached[2] == kernel_reference._BUMP_TOTAL

    def test_importing_the_cli_builds_no_quadrature(self):
        src = str(Path(driftlab.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys, driftlab.cli; print('numpy.polynomial' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == "False"

    def test_bands_telescope_to_identity(self):
        g = GridSpec(d=1, N=128)
        f = random_band_limited(g, band=30, seed=8)
        total = sum((b.field.values for b in lp_bands(f)), np.zeros(g.shape))
        assert np.max(np.abs(total - f.values)) < 1e-12

    def test_band_level_cap(self):
        g = GridSpec(d=1, N=64)
        assert max_band_level(g) == 5
        with pytest.raises(ValueError):
            lp_bands(random_band_limited(g, band=4, seed=0), 6, 6)

    def test_single_mode_lands_in_band(self):
        g = GridSpec(d=1, N=128)
        x = g.axis_coords()
        f = ScalarField(g, np.cos(TWO_PI * 8 * x))
        bands = lp_bands(f)
        sups = [b.sup for b in bands]
        assert int(np.argmax(sups)) == 3  # |n| = 8 = 2^3

    def test_holder_from_lp_weierstrass(self):
        g = GridSpec(d=1, N=1024)
        fit = holder_from_lp(weierstrass(g, 0.3))
        assert fit.beta == pytest.approx(0.3, abs=0.05)

    @pytest.mark.parametrize("d,N,kind", [
        (2, 128, "random"), (2, 128, "delta"), (1, 1024, "random"), (2, 256, "random"),
    ])
    def test_holder_from_lp_matches_band_loop(self, d, N, kind):
        # the half-spectrum bands give the per-band loop's levels exactly and
        # its sups and beta at rounding level; their multipliers are the
        # loop's, cut to the half spectrum, bit for bit
        g = GridSpec(d=d, N=N)
        if kind == "random":
            f = random_band_limited(g, band=8 if d == 2 else 16, seed=5)
        else:
            bump = near_delta_bump(g, width=0.02).values
            f = ScalarField(g, np.roll(bump, (17, 90), axis=(0, 1)))
        fit = holder_from_lp(f)
        beta, levels, sups = kernel_reference.holder_from_lp(f)
        assert fit.levels == levels
        assert fit.sups == pytest.approx(sups, rel=1e-12, abs=0.0)
        assert fit.beta == pytest.approx(beta, rel=1e-12, abs=0.0)
        for j in range(max_band_level(g) + 1):
            full = kernel_reference.band_multiplier(g, j)
            assert np.array_equal(band_multiplier(g, j), full[..., : N // 2 + 1])

    def test_holder_from_lp_needs_usable_bands(self):
        g = GridSpec(d=1, N=64)
        with pytest.raises(ValueError):
            holder_from_lp(ScalarField.constant(g, 1.0))


class TestClassMembership:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            ClassParams(r=0.0, A=4.0)
        with pytest.raises(ValueError):
            ClassParams(r=0.5, A=1.0)

    def test_constant_rejected_by_mean(self):
        g = GridSpec(d=1, N=64)
        rep = check_class_membership(ScalarField.constant(g, 0.1), ClassParams(r=0.5, A=4.0))
        assert not rep.member
        assert rep.minimal_scale is None

    def test_minimal_scale_is_linear(self):
        g = GridSpec(d=1, N=256)
        f = make_test_function(3, g).field
        params = ClassParams(r=2.0**-3, A=4.0)
        a1 = check_class_membership(f, params).minimal_scale
        a2 = check_class_membership(0.5 * f, params).minimal_scale
        assert a2 == pytest.approx(0.5 * a1, rel=1e-10)

    def test_generator_family(self):
        g = GridSpec(d=1, N=512)
        for j in range(0, 5):
            tf = make_test_function(j, g)
            assert tf.report.member, f"level {j} not a member"
            assert tf.c > 0.5

    @pytest.mark.parametrize("d,N,j", [(1, 256, 3), (1, 512, 0), (2, 64, 2), (2, 128, 4)])
    def test_base_matches_full_spectrum_kernel(self, d, N, j):
        g = GridSpec(d=d, N=N)
        tf = make_test_function(j, g)
        want = tf.c * fullspectrum_reference.band_kernel(g, j)
        assert np.max(np.abs(tf.field.values - want)) <= 1e-12 * np.max(np.abs(want))

    def test_unresolved_level_rejected(self):
        with pytest.raises(ValueError, match="not resolved"):
            make_test_function(5, GridSpec(d=1, N=64))

    def test_best_center_is_exact_minimum(self):
        g = GridSpec(d=1, N=128)
        f = make_test_function(2, g).field
        rep = check_class_membership(f, ClassParams(r=0.25, A=4.0))
        conc = concentration_all_centers(f)
        assert rep.concentration_best == pytest.approx(float(conc.min()), rel=1e-12)


class TestPairings:
    def test_shifted_pairings_match_inner(self):
        g = GridSpec(d=1, N=32)
        f = _rand_field(g, 21)
        phi = _rand_field(g, 22)
        table = shifted_pairings(f, phi)
        for shift in (0, 5, 17):
            rolled = ScalarField(g, np.roll(phi.values, shift))
            assert table[shift] == pytest.approx(inner(f, rolled), rel=1e-10)

    def test_holder_from_classes_weierstrass(self):
        g = GridSpec(d=1, N=1024)
        fit = holder_from_classes(weierstrass(g, 0.3), [2.0**-j for j in range(6)])
        assert 0.2 <= fit.beta <= 0.4

    def test_dyadic_radii_required(self):
        g = GridSpec(d=1, N=256)
        with pytest.raises(ValueError, match="dyadic"):
            holder_from_classes(_rand_field(g, 0), [0.3])


class TestDiagnosticsSink:
    def test_records_are_json(self):
        records = []
        set_diagnostics_sink(records.append)
        try:
            bmo_norm(_rand_field(GridSpec(d=1, N=32), 5))
        finally:
            set_diagnostics_sink(None)
        assert len(records) == 1
        doc = json.loads(records[0])
        assert doc["operation"] == "bmo_norm"
        assert "value" in doc and "input_digest" in doc
