import numpy as np
import pytest
from hypothesis import given, strategies as st

from pathlib import Path

from driftlab.grids import (
    GridSpec,
    ScalarField,
    VelocityField,
    half_spectrum,
    periodic_delta,
    spectral_divergence_max,
    to_physical,
    to_spectral,
)
from driftlab.evolution import shear_velocity, sqg_velocity
from driftlab.operators import norms, random_band_limited, riesz_transform


def periodic_distance(x, y) -> np.ndarray:
    """Periodic Euclidean distance between points of [0,1)^d: the oracle of
    GridSpec.distance2."""
    dx = periodic_delta(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    if dx.ndim == 0:
        return np.abs(dx)
    return np.sqrt(np.sum(dx**2, axis=-1))


def _divergence_max_ik(components) -> float:
    """spectral_divergence_max as written with the multipliers i*2*pi*n_j,
    frozen: the real wave numbers must give its float."""
    spec = half_spectrum(components[0].grid)
    nyq = spec.grid.N // 2
    ik_mirror = [2j * np.pi * np.where(m == -nyq, nyq, m) for m in spec.modes]
    uh = [comp.half_coefficients() for comp in components]
    div = sum(ikj * u for ikj, u in zip(spec.ik, uh))
    peak = float(np.max(np.abs(div)))
    for row in spec.nyquist_rows:
        mirrored = sum(ikj[row] * u[row] for ikj, u in zip(ik_mirror, uh))
        peak = max(peak, float(np.max(np.abs(mirrored))))
    return peak


def _random_field(grid, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return ScalarField(grid, rng.standard_normal(grid.shape))


class TestGridSpec:
    def test_valid(self):
        g = GridSpec(d=2, N=64)
        assert g.h == 1.0 / 64
        assert g.shape == (64, 64)
        assert g.size == 64**2
        assert g.cell_volume == g.h**2

    @pytest.mark.parametrize("d,N", [(3, 64), (0, 64), (1, 100), (1, 4), (2, 7)])
    def test_invalid(self, d, N):
        with pytest.raises(ValueError):
            GridSpec(d=d, N=N)

    def test_coords_and_modes(self):
        g = GridSpec(d=1, N=8)
        assert np.allclose(g.axis_coords(), np.arange(8) / 8)
        (n,) = g.modes()
        assert sorted(n.tolist()) == [-4, -3, -2, -1, 0, 1, 2, 3]
        assert half_spectrum(g).radius.max() == 4


class TestPeriodicDistance:
    def test_wraparound(self):
        assert periodic_distance(0.9, 0.1) == pytest.approx(0.2)
        assert periodic_distance(0.0, 0.5) == pytest.approx(0.5)

    def test_vector(self):
        d = periodic_distance(np.array([0.9, 0.0]), np.array([0.1, 0.0]))
        assert d == pytest.approx(0.2)

    @pytest.mark.parametrize("d", [1, 2])
    def test_node_distance2(self, d):
        g = GridSpec(d=d, N=16)
        point = np.array([0.97, 0.3])[:d]
        nodes = np.stack(g.coords(), axis=-1) if d == 2 else g.axis_coords()[:, None]
        expected = periodic_distance(nodes, point) ** 2
        assert np.allclose(g.distance2(point), expected, rtol=0, atol=1e-15)


class TestScalarField:
    def test_rejects_nonfinite(self):
        g = GridSpec(d=1, N=8)
        with pytest.raises(ValueError):
            ScalarField(g, np.full(8, np.inf))
        for bad in (np.inf, -np.inf, np.nan):
            v = np.zeros(8)
            v[5] = bad
            with pytest.raises(ValueError, match="finite"):
                ScalarField.adopt(g, v)

    def test_values_read_only(self):
        f = ScalarField.constant(GridSpec(d=1, N=8), 1.0)
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_arithmetic(self):
        g = GridSpec(d=1, N=8)
        f = ScalarField.constant(g, 2.0)
        assert np.all((f + f).values == 4.0)
        assert np.all((f - f).values == 0.0)
        assert np.all((3.0 * f).values == 6.0)
        assert f.mean() == pytest.approx(2.0)

    def test_mean_zero_predicate(self):
        g = GridSpec(d=1, N=16)
        x = g.axis_coords()
        assert ScalarField(g, np.cos(2 * np.pi * x)).is_mean_zero()
        assert not ScalarField.constant(g, 0.5).is_mean_zero()

    @pytest.mark.parametrize("d", [1, 2])
    def test_writing_the_source_array_leaves_the_field(self, d):
        g = GridSpec(d=d, N=8)
        a = np.ones(g.shape)
        f = ScalarField(g, a)
        u = VelocityField(g, (f,) * d)
        assert u.max_norm() == pytest.approx(np.sqrt(d))
        a[...] = 5.0
        assert np.all(f.values == 1.0)
        assert VelocityField(g, u.components).max_norm() == pytest.approx(np.sqrt(d))

    def test_writing_the_source_coefficients_leaves_the_field(self):
        g = GridSpec(d=2, N=8)
        ch = half_spectrum(g).forward(_random_field(g, 1).values)
        f = ScalarField.adopt_half_spectrum(g, np.array(ch, dtype=complex))
        kept, values = f.half_coefficients().copy(), f.values.copy()
        ch[...] = 7.0
        assert np.array_equal(f.half_coefficients(), kept)
        assert np.array_equal(f.values, values)
        with pytest.raises(ValueError):
            f.half_coefficients()[0, 0] = 1.0

    def test_adopted_coefficients_are_kept_without_a_copy(self):
        g = GridSpec(d=2, N=8)
        ch = half_spectrum(g).forward(_random_field(g, 1).values)
        copied = ScalarField.adopt_half_spectrum(g, np.array(ch, dtype=complex))
        f = ScalarField.adopt_half_spectrum(g, ch)
        assert f.half_coefficients() is ch and not ch.flags.writeable
        assert f.values.tobytes() == copied.values.tobytes()
        assert ch.tobytes() == copied.half_coefficients().tobytes()

    def test_values_of_coefficients_are_computed_once_on_first_read(self, monkeypatch):
        g = GridSpec(d=2, N=8)
        ch = half_spectrum(g).forward(_random_field(g, 4).values)
        want = half_spectrum(g).inverse(ch.copy())
        calls = []
        irfftn = np.fft.irfftn

        def counted(*args, **kwargs):
            calls.append(1)
            return irfftn(*args, **kwargs)

        monkeypatch.setattr(np.fft, "irfftn", counted)
        f = ScalarField.adopt_half_spectrum(g, np.array(ch, dtype=complex))
        assert calls == []
        v = f.values
        assert len(calls) == 1 and v.tobytes() == want.tobytes()
        assert f.values is v and not v.flags.writeable
        plain = f.without_coefficients()
        assert len(calls) == 1 and plain.values is v
        assert plain.without_coefficients() is plain
        lazy = ScalarField.adopt_half_spectrum(g, np.array(ch, dtype=complex))
        assert lazy.without_coefficients().values.tobytes() == want.tobytes()
        assert len(calls) == 2

    def test_with_coefficients_keeps_one_forward_transform(self, monkeypatch):
        g = GridSpec(d=2, N=8)
        f = _random_field(g, 5)
        want = half_spectrum(g).forward(f.values)
        calls = []
        rfftn = np.fft.rfftn

        def counted(*args, **kwargs):
            calls.append(1)
            return rfftn(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfftn", counted)
        kept = f.with_coefficients()
        assert len(calls) == 1 and kept.values is f.values
        for _ in range(2):
            assert kept.half_coefficients().tobytes() == want.tobytes()
        assert kept.half_coefficients() is kept.half_coefficients()
        assert not kept.half_coefficients().flags.writeable
        assert kept.with_coefficients() is kept and len(calls) == 1
        assert f.half_coefficients() is not f.half_coefficients() and len(calls) == 3

    def test_coefficients_are_checked_when_kept_and_values_when_computed(self):
        g = GridSpec(d=2, N=8)
        ch = np.zeros(half_spectrum(g).shape, dtype=complex)
        ch[1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ScalarField.adopt_half_spectrum(g, np.array(ch, dtype=complex))
        # finite coefficients whose values overflow: the node x = 0 sums
        # c_(0,1) and its mirror, 2 Re c_(0,1) = 2e308
        ch[1, 1] = 0.0
        ch[0, 1] = 1e308
        f = ScalarField.adopt_half_spectrum(g, np.array(ch, dtype=complex))
        assert f.half_coefficients()[0, 1] == 1e308
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="finite"):
                f.values
            with pytest.raises(ValueError, match="finite"):
                f.without_coefficients()

    def test_read_only_values_are_shared(self):
        f = _random_field(GridSpec(d=2, N=8), 2)
        assert np.shares_memory(ScalarField(f.grid, f.values).values, f.values)

    def test_negation_keeps_the_coefficients(self):
        g = GridSpec(d=2, N=8)
        f = ScalarField.adopt_half_spectrum(g, half_spectrum(g).forward(_random_field(g, 3).values))
        assert np.array_equal((-f).values, -f.values)
        assert np.array_equal((-f).half_coefficients(), -f.half_coefficients())

    def test_negation_of_coefficients_makes_no_transform(self, monkeypatch):
        g = GridSpec(d=2, N=16)
        f = ScalarField.adopt_half_spectrum(g, half_spectrum(g).forward(_random_field(g, 6).values))
        calls = []
        irfftn = np.fft.irfftn

        def counted(*args, **kwargs):
            calls.append(1)
            return irfftn(*args, **kwargs)

        monkeypatch.setattr(np.fft, "irfftn", counted)
        neg = -f
        assert calls == [] and "values" not in f.__dict__
        assert neg.half_coefficients().tobytes() == (-f.half_coefficients()).tobytes()
        assert not neg.half_coefficients().flags.writeable
        v = neg.values
        assert len(calls) == 1 and neg.values is v and not v.flags.writeable
        # -irfftn(h) and irfftn(-h) may differ only in the sign of a zero
        assert np.array_equal(v, -f.values)
        assert np.abs(v).tobytes() == np.abs(f.values).tobytes()

    def test_negation_of_values_keeps_their_bytes(self):
        plain = _random_field(GridSpec(d=2, N=16), 7)
        neg = -plain
        assert neg.values.tobytes() == (-plain.values).tobytes()
        assert neg._half is None and not neg.values.flags.writeable

    def test_negation_of_read_coefficients_realises_the_negated_ones(self):
        g = GridSpec(d=2, N=16)
        plain = _random_field(g, 7)
        read = ScalarField.adopt_half_spectrum(g, plain.half_coefficients().copy())
        read.values  # realised before the negation
        for f in (read, plain.with_coefficients()):
            neg = -f
            assert neg.half_coefficients().tobytes() == (-f.half_coefficients()).tobytes()
            assert neg.values.tobytes() == half_spectrum(g).inverse(-f.half_coefficients()).tobytes()
            assert not neg.values.flags.writeable
        # values computed from the coefficients: -f.values but in the sign of a zero
        assert np.array_equal((-read).values, -read.values)
        assert np.abs((-read).values).tobytes() == np.abs(read.values).tobytes()

    def test_negated_coefficients_check_their_values_when_computed(self):
        # the overflow case of test_coefficients_are_checked_when_kept_and_
        # values_when_computed, negated before any read
        g = GridSpec(d=2, N=8)
        ch = np.zeros(half_spectrum(g).shape, dtype=complex)
        ch[0, 1] = 1e308
        neg = -ScalarField.adopt_half_spectrum(g, np.array(ch, dtype=complex))
        assert neg.half_coefficients()[0, 1] == -1e308
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="finite"):
                neg.values

    def test_identity_equality_and_hash(self):
        g = GridSpec(d=2, N=8)
        f, h = ScalarField.constant(g, 1.0), ScalarField.constant(g, 1.0)
        u, v = VelocityField.constant(g, (1.0, 2.0)), VelocityField.constant(g, (1.0, 2.0))
        for a, b in ((f, h), (u, v)):
            assert a == a and a != b
            assert len({a, b, a}) == 2


class TestSpectral:
    def test_roundtrip(self):
        f = _random_field(GridSpec(d=2, N=32), 5)
        back = to_physical(f.grid, to_spectral(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-13

    def test_constant_is_zero_mode(self):
        fh = to_spectral(ScalarField.constant(GridSpec(d=1, N=16), 3.5))
        assert fh[0] == pytest.approx(3.5)
        assert np.max(np.abs(fh[1:])) < 1e-14

    @given(st.integers(min_value=0, max_value=10_000))
    def test_parseval(self, seed):
        f = _random_field(GridSpec(d=1, N=64), seed)
        energy_phys = norms(f).l2 ** 2
        energy_spec = float(np.sum(np.abs(to_spectral(f)) ** 2))
        assert energy_phys == pytest.approx(energy_spec, rel=1e-12)


class TestHalfSpectrum:
    @pytest.mark.parametrize("d", [1, 2])
    def test_hermitian_is_what_the_inverse_realises(self, d):
        # random coefficients, not Hermitian on the self-conjugate columns
        g = GridSpec(d=d, N=16)
        spec = half_spectrum(g)
        rng = np.random.default_rng(4)
        ch = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
        herm = ch.copy()
        assert spec.make_hermitian(herm) is herm
        assert np.max(np.abs(spec.inverse(herm) - spec.inverse(ch))) < 1e-14
        assert np.max(np.abs(spec.forward(spec.inverse(ch)) - herm)) < 1e-14
        assert np.max(np.abs(herm - ch)) > 0.1

    @pytest.mark.parametrize("d, N", [(1, 64), (2, 16), (2, 32)])
    def test_multipliers_are_the_expressions_they_replace(self, d, N):
        # bit for bit, as the operators and the steppers formed them
        spec = half_spectrum(GridSpec(d=d, N=N))
        for alpha in (0.5, 1.0, 1.5, 2.0):
            assert spec.symbol(alpha).tobytes() == ((2.0 * np.pi * spec.radius) ** alpha).tobytes()
        cut = N // 3
        mask = np.ones(spec.shape, dtype=bool)
        for m in spec.modes:
            mask &= np.abs(m) <= cut
        assert np.array_equal(spec.dealias_mask(), mask)
        nr = np.where(spec.radius > 0, spec.radius, 1.0)
        nyquist = np.logical_or.reduce([np.abs(m) == N // 2 for m in spec.modes])
        riesz = spec.riesz
        assert len(riesz) == d and spec.riesz is riesz
        for mult, m in zip(riesz, spec.modes):
            assert mult.tobytes() == np.where(nyquist, 0.0, -1j * m / nr).tobytes()
            assert not mult.flags.writeable


class TestVelocityField:
    def test_component_count(self):
        g = GridSpec(d=2, N=16)
        with pytest.raises(ValueError):
            VelocityField(g, (ScalarField.constant(g, 1.0),))

    def test_divergence_assertion(self):
        g = GridSpec(d=2, N=16)
        x1, _ = g.coords()
        # u = (sin(2 pi x1), 0) has nonzero divergence
        bad = (ScalarField(g, np.sin(2 * np.pi * x1)), ScalarField.constant(g, 0.0))
        with pytest.raises(ValueError, match="divergence"):
            VelocityField(g, bad, divergence_free=True)
        ok = (ScalarField.constant(g, 0.0), ScalarField(g, np.sin(2 * np.pi * x1)))
        v = VelocityField(g, ok, divergence_free=True)
        assert spectral_divergence_max(v.components) < 1e-12

    @pytest.mark.parametrize("d,N", [(1, 16), (2, 16), (2, 64)])
    def test_divergence_max_is_the_float_of_the_ik_form(self, d, N):
        # the real wave numbers give the float that the i*2*pi*n_j form gave:
        # on SQG velocities (kept coefficients), a shear (a zero component),
        # white noise, and a wave on the Nyquist row
        g = GridSpec(d=d, N=N)
        cases = [tuple(_random_field(g, seed + 10 * j) for j in range(d)) for seed in (1, 2)]
        if d == 2:
            theta = random_band_limited(g, band=4, seed=3).with_coefficients()
            cases.append((-riesz_transform(theta, 2), riesz_transform(theta, 1)))
            cases.append(sqg_velocity(theta).components)  # values only, once checked
            cases.append(shear_velocity(g, 1.5).components)
            x1, x2 = g.coords()
            wave = np.cos(np.pi * N * x1 + 2 * np.pi * 3 * x2)
            cases.append((ScalarField(g, wave), ScalarField(g, wave * (N / 2) / 3)))
        for comps in cases:
            assert spectral_divergence_max(comps) == _divergence_max_ik(comps)

    def test_norms(self):
        g = GridSpec(d=2, N=16)
        v = VelocityField.constant(g, (3.0, 4.0))
        assert v.max_norm() == pytest.approx(5.0)
        assert v.l2_norm() == pytest.approx(5.0)


def test_only_the_spectral_core_calls_numpy_fft():
    # grids owns the transforms and _kernels the correlations built on them
    src = Path(__file__).resolve().parents[1] / "src" / "driftlab"
    offenders = [
        p.name
        for p in sorted(src.glob("*.py"))
        if p.name not in ("grids.py", "_kernels.py")
        and any(s in p.read_text() for s in ("np.fft.", "numpy.fft"))
    ]
    assert offenders == []
