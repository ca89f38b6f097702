import math

import numpy as np
import pytest

from fullspectrum_reference import mode_radius
from driftlab import evolution, grids
from driftlab.grids import GridSpec, ScalarField, VelocityField, to_spectral
from driftlab.operators import norms, random_band_limited
from driftlab.evolution import (
    CFLAbort,
    CFLViolation,
    NumericalAbort,
    SimConfig,
    VelocityHistory,
    VelocitySpec,
    ball_average_velocity,
    build_prescribed_velocity,
    cfl_admissible_dt,
    default_dt,
    run_dual,
    run_forward,
    sqg_velocity,
    step_forward,
    track_center,
)
from driftlab.spaces import make_test_function

TWO_PI = 2 * np.pi


class TestConfig:
    def test_validation(self):
        g = GridSpec(d=1, N=16)
        with pytest.raises(ValueError):
            SimConfig(grid=g, kind="euler")
        with pytest.raises(ValueError):
            SimConfig(grid=g, sign="backward")
        with pytest.raises(ValueError):
            SimConfig(grid=g, kind="sqg")  # needs d=2
        with pytest.raises(ValueError):
            SimConfig(grid=g, dt=-1.0)

    def test_sqg_velocity_needs_the_sqg_equation(self):
        g = GridSpec(d=2, N=16)
        with pytest.raises(ValueError, match="velocity.kind"):
            SimConfig(grid=g, velocity=VelocitySpec(kind="sqg"))
        SimConfig(grid=g, kind="sqg", velocity=VelocitySpec(kind="sqg"))

    @pytest.mark.parametrize(
        "spec,key",
        [
            (VelocitySpec(kind="shear", amplitude=5.0), "velocity.kind"),
            (VelocitySpec(amplitude=5.0), "velocity.amplitude"),
            (VelocitySpec(kind="sqg", omega=3.0), "velocity.omega"),
            (VelocitySpec(constant=(1.0, 0.0)), "velocity.constant"),
            (VelocitySpec(paths=("u1.tf", "u2.tf")), "velocity.file"),
        ],
    )
    def test_sqg_equation_rejects_a_prescribed_drift(self, spec, key):
        # the SQG velocity is computed from theta, so these keys would be ignored
        g = GridSpec(d=2, N=16)
        with pytest.raises(ValueError, match=key):
            SimConfig(grid=g, kind="sqg", velocity=spec)

    def test_velocity_spec(self):
        with pytest.raises(ValueError):
            VelocitySpec(kind="vortex")

    def test_default_dt_guard(self):
        g = GridSpec(d=1, N=128)
        assert default_dt(g, 0.0) == pytest.approx(0.25 / (math.pi * 128))
        assert cfl_admissible_dt(g, 2.0) == pytest.approx(0.5 / (2.0 * 128))
        assert cfl_admissible_dt(g, 0.0) == math.inf


class TestExactSemigroup:
    def test_per_mode_decay(self):
        g = GridSpec(d=1, N=128)
        theta0 = random_band_limited(g, band=10, seed=4)
        cfg = SimConfig(grid=g, dt=1e-3, t_end=0.2)
        result = run_forward(cfg, theta0)
        final = to_spectral(result.states[-1].theta)
        start = to_spectral(theta0)
        decay = np.exp(-TWO_PI * mode_radius(g) * 0.2)
        assert np.max(np.abs(final - start * decay)) < 1e-12


class TestStepping:
    def test_cfl_violation(self):
        g = GridSpec(d=1, N=128)
        cfg = SimConfig(
            grid=g, dt=0.1, t_end=0.1, velocity=VelocitySpec(kind="constant", constant=(1.0,))
        )
        with pytest.raises(CFLViolation) as exc:
            run_forward(cfg, random_band_limited(g, 4, seed=0))
        assert exc.value.admissible_dt == pytest.approx(0.5 / 128)

    def test_constant_velocity_translates(self):
        g = GridSpec(d=1, N=64)
        theta0 = random_band_limited(g, band=2, seed=6)
        c, T = 0.3, 0.1
        cfg = SimConfig(
            grid=g, dt=1e-4, t_end=T, velocity=VelocitySpec(kind="constant", constant=(c,))
        )
        final = run_forward(cfg, theta0).states[-1].theta
        (n,) = g.modes()
        # reversed sign: theta_t = +(u.grad)theta shifts the profile by -c t
        exact = to_spectral(theta0) * np.exp(
            -TWO_PI * np.abs(n) * T + 2j * np.pi * n * c * T
        )
        got = to_spectral(final)
        assert np.max(np.abs(got - exact)) < 1e-6

    def test_both_signs_conserve_invariants(self):
        g = GridSpec(d=2, N=32)
        theta0 = random_band_limited(g, band=4, seed=7)
        for sign in ("reversed", "standard"):
            cfg = SimConfig(
                grid=g, t_end=0.1, sign=sign, velocity=VelocitySpec(kind="shear", amplitude=0.5)
            )
            res = run_forward(cfg, theta0)
            maxs = [float(np.max(s.theta.values)) for s in res.states]
            means = [s.theta.mean() for s in res.states]
            assert max(maxs) <= maxs[0] + 1e-9
            assert max(abs(m - means[0]) for m in means) < 1e-13

    def test_numerical_abort_attributes(self):
        err = NumericalAbort(step=17, t=0.25)
        assert err.step == 17 and err.t == 0.25

    def test_forward_blowup_aborts_at_step_1(self):
        # the advection term of a nonzero velocity overflows on this datum
        g = GridSpec(d=2, N=32)
        theta0 = random_band_limited(g, 4, seed=0, amplitude=1e307)
        cfg = SimConfig(grid=g, dt=1e-3, t_end=0.01, velocity=VelocitySpec(kind="constant"))
        with np.errstate(all="ignore"), pytest.raises(NumericalAbort) as exc:
            run_forward(cfg, theta0)
        assert exc.value.step == 1
        assert exc.value.t == pytest.approx(1e-3)

    def test_dual_blowup_aborts_at_step_1(self):
        g = GridSpec(d=2, N=32)
        phi = random_band_limited(g, 4, seed=0, amplitude=1e307)
        history = VelocityHistory.prescribed(VelocitySpec(kind="constant"), g)
        with np.errstate(all="ignore"), pytest.raises(NumericalAbort) as exc:
            run_dual(SimConfig(grid=g, dt=1e-3), phi, horizon=0.01, history=history)
        assert exc.value.step == 1

    @pytest.mark.parametrize("stage", ["predictor", "corrector"])
    @pytest.mark.parametrize("value", [np.nan, 1e308], ids=["nan", "overflow"])
    def test_a_poisoned_sqg_stage_aborts_at_its_step(self, stage, value, poison_stage):
        # the midpoint theta's values are never computed and the end theta's
        # only when stored: their coefficients are checked, and the values
        # of their velocities, which overflow from a finite 1e308 at (0, 1)
        g = GridSpec(d=2, N=32)
        poison_stage(stage, 4, value)
        cfg = SimConfig(grid=g, kind="sqg", dt=1e-3, t_end=0.01, cadence=5)
        with np.errstate(all="ignore"), pytest.raises(NumericalAbort) as exc:
            run_forward(cfg, random_band_limited(g, 4, seed=0))
        assert exc.value.step == 4
        assert exc.value.t == pytest.approx(4e-3)

    def test_a_stored_sqg_theta_that_overflows_aborts_at_its_step(self, poison_stage):
        # 1e308 at mode (1, 1): theta's values overflow (2e308 at x = 0),
        # its velocity's do not (2e308 / sqrt(2)); step 5 is stored
        g = GridSpec(d=2, N=32)
        poison_stage("corrector", 5, 1e308, (1, 1))
        cfg = SimConfig(grid=g, kind="sqg", dt=1e-3, t_end=0.01, cadence=5)
        with np.errstate(all="ignore"), pytest.raises(NumericalAbort) as exc:
            run_forward(cfg, random_band_limited(g, 4, seed=0))
        assert exc.value.step == 5

    def test_zero_velocity_on_the_blowup_datum_is_pure_dissipation(self):
        # no advection term is formed, so nothing overflows: each forward
        # step is one exact semigroup step, and the dual run applies E ten times
        g = GridSpec(d=2, N=32)
        datum = random_band_limited(g, 4, seed=0, amplitude=1e307)
        cfg = SimConfig(grid=g, dt=1e-3, t_end=0.01)
        plan = evolution.spectral_plan(g, cfg.alpha, cfg.dt, 1.0)
        theta = datum.values
        for _ in range(10):
            theta = plan.inverse(plan.E * plan.forward(theta))
        ch = plan.forward(datum.values)
        for _ in range(10):
            ch = plan.E * ch
        history = VelocityHistory.prescribed(VelocitySpec(), g)
        # the sums behind the diagnostics' norms and means overflow on this datum
        with np.errstate(over="ignore", invalid="ignore"):
            fwd = run_forward(cfg, datum).states[-1].theta.values
            dual = run_dual(cfg, datum, horizon=0.01, history=history).states[-1].phi.values
        assert np.all(np.isfinite(fwd)) and np.max(np.abs(fwd)) > 1e306
        assert np.array_equal(fwd, theta)
        assert np.array_equal(dual, plan.inverse(ch))

    def test_velocity_growing_past_the_cfl_bound_aborts(self):
        # dual time s sees u = 1000 s: admissible at step 1, not from step 9
        g = GridSpec(d=1, N=64)
        history = VelocityHistory.from_callable(
            g, lambda t: VelocityField.constant(g, (1000.0 * (0.05 - t),))
        )
        phi = random_band_limited(g, 4, seed=0)
        with pytest.raises(CFLAbort) as exc:
            run_dual(SimConfig(grid=g, dt=1e-3), phi, horizon=0.05, history=history)
        assert isinstance(exc.value, NumericalAbort)
        assert exc.value.step == 9
        assert exc.value.t == pytest.approx(9e-3)
        assert exc.value.admissible_dt == pytest.approx(cfl_admissible_dt(g, 8.0))
        assert "at step 9 " in str(exc.value)


class TestSQG:
    def test_velocity_divergence_free(self):
        g = GridSpec(d=2, N=32)
        u = sqg_velocity(random_band_limited(g, 5, seed=1))
        assert u.divergence_free

    @pytest.mark.parametrize("N", [32, 64])
    def test_velocity_costs_two_riesz_transforms_and_two_inverse_ffts(self, N, monkeypatch):
        # the calls that the traced benchmark counts, and the bits of the
        # route that realised R2 theta before negating it
        g = GridSpec(d=2, N=N)
        theta = random_band_limited(g, band=5, seed=N).with_coefficients()
        r2, r1 = (evolution.riesz_transform(theta, j).values for j in (2, 1))
        log = []

        def counted(name, func):
            def call(*args, **kwargs):
                log.append(name)
                return func(*args, **kwargs)
            return call

        for name in ("rfft", "irfft", "rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        for module, name in ((evolution, "riesz_transform"), (grids, "spectral_divergence_max")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        u = sqg_velocity(theta)
        # the divergence check reads the coefficients; then each component's
        # values take one inverse transform
        assert log == ["riesz_transform"] * 2 + ["spectral_divergence_max"] + ["irfftn"] * 2
        u1, u2 = (c.values for c in u.components)
        assert u2.tobytes() == r1.tobytes()
        nonzero = r2 != 0
        assert u1[nonzero].tobytes() == (-r2)[nonzero].tobytes() and not u1[~nonzero].any()

    def test_requires_d2(self):
        with pytest.raises(ValueError):
            sqg_velocity(random_band_limited(GridSpec(d=1, N=32), 5, seed=1))

    def test_cosine_column_decays_exactly(self):
        # u = (0, sin) but grad theta has no x2 component: pure decay
        g = GridSpec(d=2, N=32)
        x1, _ = g.coords()
        theta0 = ScalarField(g, np.cos(TWO_PI * x1))
        cfg = SimConfig(grid=g, kind="sqg", dt=1e-3, t_end=0.1)
        final = run_forward(cfg, theta0).states[-1].theta
        assert np.max(np.abs(final.values - math.exp(-TWO_PI * 0.1) * theta0.values)) < 1e-12

    def test_forward_self_convergence(self):
        # midpoint RK2: halving dt divides the change in the final field by ~4
        g = GridSpec(d=2, N=32)
        theta0 = random_band_limited(g, band=4, seed=5)
        finals = [
            run_forward(SimConfig(grid=g, kind="sqg", dt=dt, t_end=0.1), theta0).states[-1]
            for dt in (4e-3, 2e-3, 1e-3)
        ]
        assert all(s.t == pytest.approx(0.1) for s in finals)
        a, b, c = (s.theta.values for s in finals)
        ratio = np.max(np.abs(a - b)) / np.max(np.abs(b - c))
        assert ratio >= 3.5

    def test_history_memory_cap(self, monkeypatch):
        g = GridSpec(d=2, N=32)
        cfg = SimConfig(grid=g, kind="sqg", dt=1e-3, t_end=0.1, store_history=True)
        monkeypatch.setattr(evolution, "HISTORY_MEMORY_CAP", 1024)
        with pytest.raises(MemoryError, match="cap"):
            run_forward(cfg, random_band_limited(g, 4, seed=2))

    def test_history_opt_out(self):
        g = GridSpec(d=2, N=32)
        cfg = SimConfig(grid=g, kind="sqg", dt=1e-3, t_end=0.01)
        res = run_forward(cfg, random_band_limited(g, 4, seed=2))
        with pytest.raises(ValueError, match="not stored"):
            res.history.velocity_at(0.0)


class TestVelocityHistory:
    def test_linear_interpolation_exact(self):
        g = GridSpec(d=1, N=16)
        mk = lambda a: (np.full(16, a),)
        hist = VelocityHistory.from_samples(g, [0.0, 1.0], [mk(0.0), mk(2.0)])
        u = hist.velocity_at(0.25)
        assert np.allclose(u.components[0].values, 0.5)

    def test_coverage(self):
        g = GridSpec(d=1, N=16)
        hist = VelocityHistory.from_samples(g, [0.0, 0.5], [(np.zeros(16),), (np.zeros(16),)])
        assert hist.covers(0.0, 0.5)
        assert not hist.covers(0.0, 0.6)

    def test_prescribed_modulated_drift(self):
        g = GridSpec(d=2, N=16)
        spec = VelocitySpec(kind="shear", amplitude=1.0, omega=TWO_PI)
        hist = VelocityHistory.prescribed(spec, g)
        base = build_prescribed_velocity(spec, g)
        half = hist.velocity_at(0.5)  # cos(pi) = -1
        assert np.allclose(half.components[1].values, -base.components[1].values)

    def test_modulated_file_drift_checked_when_built(self, tmp_path):
        # a divergent profile is rejected once, when its history is built
        from driftlab.fieldio import save_field

        g = GridSpec(d=2, N=16)
        x1, _ = g.coords()
        paths = (str(tmp_path / "u1.tf"), str(tmp_path / "u2.tf"))
        save_field(ScalarField(g, np.sin(TWO_PI * x1)), paths[0])
        save_field(ScalarField.constant(g, 0.0), paths[1])
        spec = VelocitySpec(kind="file", paths=paths, omega=3.0)
        with pytest.raises(ValueError, match="divergence"):
            VelocityHistory.prescribed(spec, g)


class TestDual:
    def test_horizon_zero_identity(self):
        g = GridSpec(d=1, N=64)
        phi = random_band_limited(g, 4, seed=3)
        cfg = SimConfig(grid=g, dt=1e-3)
        hist = VelocityHistory.prescribed(VelocitySpec(), g)
        res = run_dual(cfg, phi, horizon=0.0, history=hist)
        assert np.array_equal(res.states[-1].phi.values, phi.values)

    def test_l1_contraction_mean_zero(self):
        g = GridSpec(d=1, N=256)
        phi = make_test_function(3, g).field
        cfg = SimConfig(grid=g, dt=1e-4)
        hist = VelocityHistory.prescribed(VelocitySpec(), g)
        res = run_dual(cfg, phi, horizon=0.02, history=hist)
        assert np.all(np.diff(res.series["l1"]) <= 1e-6)
        assert np.max(np.abs(res.series["mean"])) < 1e-13

    def test_result_carries_the_resolved_dt(self):
        g = GridSpec(d=2, N=32)
        u = VelocityField.constant(g, (1.0, 1.0))
        res = run_dual(SimConfig(grid=g), random_band_limited(g, 4, seed=0), horizon=0.01,
                       history=VelocityHistory.from_callable(g, lambda t: u))
        assert res.config.dt == default_dt(g, u.max_norm())

    def test_uncovered_history_rejected(self):
        g = GridSpec(d=1, N=64)
        hist = VelocityHistory.from_samples(g, [0.0, 0.1], [(np.zeros(64),)] * 2)
        cfg = SimConfig(grid=g, dt=1e-3)
        with pytest.raises(ValueError, match="does not cover"):
            run_dual(cfg, random_band_limited(g, 4, seed=0), horizon=0.5, history=hist)

    def test_duality_pairing_transfer(self):
        from driftlab.operators import inner

        g = GridSpec(d=2, N=32)
        theta0 = random_band_limited(g, 3, seed=10)
        phi = random_band_limited(g, 3, seed=11)
        t = 0.2
        cfg = SimConfig(grid=g, dt=1e-3, t_end=t, velocity=VelocitySpec(kind="shear", amplitude=0.5))
        fwd = run_forward(cfg, theta0)
        dual = run_dual(cfg, phi, horizon=t, history=fwd.history)
        lhs = inner(fwd.states[-1].theta, phi)
        rhs = inner(theta0, dual.states[-1].phi)
        assert abs(lhs - rhs) < 1e-7 * norms(theta0).l2 * norms(phi).l2


class TestTrajectory:
    def test_constant_flow(self):
        g = GridSpec(d=2, N=32)
        hist = VelocityHistory.prescribed(VelocitySpec(kind="constant", constant=(0.5, -0.25)), g)
        times, traj = track_center((0.1, 0.9), 0.1, hist, t_span=0.4, dt=0.01)
        assert traj[-1][0] == pytest.approx((0.1 + 0.5 * 0.4) % 1.0, abs=1e-12)
        assert traj[-1][1] == pytest.approx((0.9 - 0.25 * 0.4) % 1.0, abs=1e-12)

    def test_ball_average(self):
        g = GridSpec(d=2, N=32)
        u = VelocityField.constant(g, (2.0, 3.0))
        avg = ball_average_velocity(u, (0.5, 0.5), 0.1)
        assert np.allclose(avg, [2.0, 3.0])

    def test_radius_validation(self):
        g = GridSpec(d=1, N=32)
        hist = VelocityHistory.prescribed(VelocitySpec(), g)
        with pytest.raises(ValueError):
            track_center((0.0,), 0.7, hist, 0.1, 0.01)
