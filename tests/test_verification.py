import json
import math

import numpy as np
import pytest

import fullspectrum_reference
import kernel_reference
from driftlab import _kernels
from driftlab.grids import GridSpec, ScalarField, VelocityField
from driftlab.operators import near_delta_bump, norms, random_band_limited
from driftlab.evolution import SimConfig, VelocitySpec, shear_velocity
from driftlab.spaces import (
    default_bmo_radii,
    holder_seminorm_decimated,
    holder_seminorm_direct,
    make_test_function,
)
from driftlab.verification import (
    SUITE_REGISTRY,
    _l2_oscillation_ratio,
    _verdict,
    run_suite,
    scenario_digest,
    verify_class_evolution,
    verify_concentration,
    verify_duality,
    verify_holder_bound,
    verify_invariants,
    verify_l1_decay,
    verify_linfty_decay,
)

TWO_PI = 2 * np.pi


class TestPlumbing:
    def test_verdict_relations(self):
        assert _verdict(1.0, 2.0)["passed"] is True
        assert _verdict(3.0, 2.0)["passed"] is False
        assert _verdict(3.0, 2.0, relation=">=")["passed"] is True
        assert _verdict(0.0, 0.0, relation=">")["passed"] is False
        na = _verdict(0.0, 5.0, applicable=False)
        assert na["passed"] is None and na["threshold"] == 5.0

    def test_verdicts_carry_thresholds(self):
        rep = verify_l1_decay(
            cfg=SimConfig(grid=GridSpec(d=1, N=256)), reference="single_mode", horizon=0.1
        )
        for v in rep.verdicts.values():
            assert "threshold" in v and "relation" in v

    def test_digest_deterministic_and_sensitive(self):
        a = scenario_digest({"N": 128, "d": 2})
        assert a == scenario_digest({"d": 2, "N": 128})
        assert a != scenario_digest({"N": 64, "d": 2})

    def test_registry(self):
        assert set(SUITE_REGISTRY) == {
            "duality",
            "linfty_decay",
            "concentration",
            "l1_decay",
            "l1_single_mode",
            "class_evolution",
            "holder_bound",
            "smoothing",
            "invariants",
        }
        with pytest.raises(KeyError, match="unknown suite"):
            run_suite("nope")

    def test_report_json_roundtrip(self):
        rep = verify_l1_decay(
            cfg=SimConfig(grid=GridSpec(d=1, N=256)), reference="single_mode", horizon=0.05
        )
        doc = json.loads(rep.to_json())
        assert doc["suite"] == "l1_decay"
        assert doc["passed"] is True

    def test_report_determinism(self):
        kwargs = dict(cfg=SimConfig(grid=GridSpec(d=1, N=256)), horizon=0.01)
        a = verify_linfty_decay(psi0=make_test_function(3, GridSpec(d=1, N=256)).field, **kwargs)
        b = verify_linfty_decay(psi0=make_test_function(3, GridSpec(d=1, N=256)).field, **kwargs)
        assert a.to_json() == b.to_json()


class TestDuality:
    def test_zero_velocity_single_mode(self):
        g = GridSpec(d=1, N=64)
        x = g.axis_coords()
        f = ScalarField(g, np.cos(TWO_PI * x))
        cfg = SimConfig(grid=g)
        rep = verify_duality(cfg=cfg, theta0=f, phi=f, t=0.2, dt_list=(1e-3,))
        # both pairings equal (1/2) e^{-2 pi t}
        assert rep.series["discrepancy"][0] < 1e-10
        assert rep.verdicts["pairing_bound"]["passed"]

    def test_constant_velocity(self):
        g = GridSpec(d=1, N=64)
        cfg = SimConfig(grid=g, velocity=VelocitySpec(kind="constant", constant=(0.4,)))
        rep = verify_duality(
            cfg=cfg,
            theta0=random_band_limited(g, 3, seed=1),
            phi=random_band_limited(g, 3, seed=2),
            t=0.2,
            dt_list=(1e-3,),
        )
        assert rep.series["discrepancy"][0] < 1e-8

    def test_shear_second_order(self):
        g = GridSpec(d=2, N=64)
        cfg = SimConfig(grid=g, velocity=VelocitySpec(kind="shear", amplitude=0.5))
        rep = verify_duality(cfg=cfg, t=0.25, dt_list=(2e-3, 1e-3, 5e-4))
        assert rep.passed()
        assert min(rep.series["halving_ratio"]) >= 3.5

    def test_stored_sqg_history(self):
        # the dual run interpolates the forward run's stored SQG velocities
        cfg = SimConfig(grid=GridSpec(d=2, N=32), kind="sqg", store_history=True)
        rep = verify_duality(cfg=cfg, t=0.1, dt_list=(2e-3, 1e-3, 5e-4))
        assert rep.passed()
        assert min(rep.series["halving_ratio"]) >= 3.5


class TestLinftyDecay:
    def test_default_scenario(self):
        rep = verify_linfty_decay()
        assert rep.passed()
        assert rep.digest == "af103e6a291ab7a4"

    def test_zero_velocity(self):
        rep = verify_linfty_decay(cfg=SimConfig(grid=GridSpec(d=1, N=512)), horizon=0.03)
        assert rep.passed()
        assert rep.fitted["C"] > 0

    def test_zero_field_not_applicable(self):
        g = GridSpec(d=1, N=256)
        rep = verify_linfty_decay(psi0=ScalarField.constant(g, 0.0), cfg=SimConfig(grid=g))
        assert rep.verdicts["C_positive"]["passed"] is None
        assert rep.passed()  # not-applicable verdicts do not fail the suite

    def test_shear_same_verdicts(self):
        g = GridSpec(d=2, N=128)
        cfg = SimConfig(grid=g, velocity=VelocitySpec(kind="shear", amplitude=0.25))
        rep = verify_linfty_decay(
            psi0=make_test_function(4, g).field, cfg=cfg, horizon=0.01
        )
        assert rep.passed()
        assert rep.fitted["C"] > 0


class TestConcentration:
    def test_default_scenario(self):
        rep = verify_concentration()
        assert rep.passed()
        assert "B" in rep.fitted
        assert rep.digest == "66b2a9c1684c231a"

    def test_constant_velocity_rides_the_flow(self):
        # the dual profile under constant drift is the translated zero-drift
        # profile; check the fields spectrally, and G up to the quadrature
        # error of the sqrt weight at off-grid centers
        from driftlab.evolution import VelocityHistory, run_dual
        from driftlab.grids import to_spectral

        g = GridSpec(d=1, N=256)
        psi0 = make_test_function(4, g).field
        c, horizon, dt = 0.1, 2.0**-5, 5e-5
        cfg0 = SimConfig(grid=g, dt=dt)
        cfgc = SimConfig(grid=g, dt=dt, velocity=VelocitySpec(kind="constant", constant=(c,)))
        hist0 = VelocityHistory.prescribed(cfg0.velocity, g)
        histc = VelocityHistory.prescribed(cfgc.velocity, g)
        d0 = run_dual(cfg0, psi0, horizon=horizon, history=hist0)
        dc = run_dual(cfgc, psi0, horizon=horizon, history=histc)
        (n,) = g.modes()
        shift = np.exp(-2j * np.pi * n * c * horizon)
        expect = to_spectral(d0.states[-1].phi) * shift
        got = to_spectral(dc.states[-1].phi)
        assert np.max(np.abs(got - expect)) < 1e-5

        rep0 = verify_concentration(psi0=psi0, cfg=cfg0, r=2.0**-4)
        repc = verify_concentration(psi0=psi0, cfg=cfgc, r=2.0**-4)
        assert np.max(np.abs(np.array(rep0.series["G"]) - np.array(repc.series["G"]))) < 5e-3

    def test_shear_rate_monotone_in_amplitude(self):
        # the velocity contribution to the growth rate, isolated against the
        # zero-drift baseline, does not decrease when the shear is scaled up
        g = GridSpec(d=2, N=128)
        psi0 = make_test_function(4, g).field
        r = 2.0**-4
        base = verify_concentration(psi0=psi0, cfg=SimConfig(grid=g, dt=5e-4), r=r)
        G0 = np.array(base.series["G"])
        x = np.array(base.series["s"]) * r**-0.5
        slopes = []
        for a in (0.25, 0.5):
            rep = verify_concentration(
                psi0=psi0,
                cfg=SimConfig(grid=g, dt=5e-4, velocity=VelocitySpec(kind="shear", amplitude=a)),
                r=r,
            )
            excess = np.array(rep.series["G"]) - G0
            slopes.append(float(np.sum(x * excess) / np.sum(x * x)))
        assert slopes[1] >= slopes[0] - 1e-9

    @pytest.mark.parametrize("d,N", [(1, 64), (2, 16), (2, 32)])
    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_l2_oscillation_matches_ball_loop(self, d, N, stride):
        g = GridSpec(d=d, N=N)
        rng = np.random.default_rng(100 * N + stride)
        u = VelocityField(g, tuple(ScalarField(g, rng.standard_normal(g.shape)) for _ in range(d)))
        radii = [0.5, 0.25, 0.3, 1.0 / N]
        expected = kernel_reference.l2_oscillation_ratio(u, radii, stride)
        assert _l2_oscillation_ratio(u, radii, stride) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("d,N,stride", [(1, 256, 1), (2, 32, 1), (2, 64, 2), (2, 128, 4), (2, 128, 16)])
    def test_l2_oscillation_equals_full_scan(self, d, N, stride):
        # the pruned max against every radius and center, by ==: band-limited
        # noise, a shear (one constant component) and a near-delta bump
        g = GridSpec(d=d, N=N)
        bump = near_delta_bump(g, 0.02)
        noise = [random_band_limited(g, 4, seed=s) for s in range(d)]
        fields = [VelocityField(g, tuple(noise)), VelocityField(g, (bump,) * d)]
        if d == 2:
            fields.append(shear_velocity(g, 0.25))
        for radii in (default_bmo_radii(g)[:2], default_bmo_radii(g) + [0.3]):
            for u in fields:
                want = max(
                    float(np.sqrt(kernel_reference.ball_deviation_full_max(c.values, radii, stride, np.square)))
                    for c in u.components
                )
                assert _l2_oscillation_ratio(u, radii, stride) == want

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("N", [8, 16, 32, 64, 128, 256, 512])
    def test_l2_balls_are_the_bmo_balls(self, d, N):
        # at the suite's radii, ball_offsets selects the nodes of the
        # squared-distance test the L2 ratio used before
        d1 = np.minimum(np.arange(N), N - np.arange(N)) * (1.0 / N)
        for rho in default_bmo_radii(GridSpec(d=d, N=N))[:2]:
            if d == 1:
                mask = d1 <= rho + 1e-15
            else:
                mask = d1[:, None] ** 2 + d1[None, :] ** 2 <= rho**2 + 1e-15
            offsets = _kernels.ball_offsets(d, N, rho)
            assert len(offsets) == d
            for got, want in zip(offsets, np.nonzero(mask)):
                assert np.array_equal(got, want)


class TestL1Decay:
    def test_class_scenario(self):
        rep = verify_l1_decay()
        assert rep.passed()
        assert rep.fitted["c"] > 0
        assert rep.digest == "ea292ffd5bdd19ff"

    def test_single_mode_closed_form(self):
        rep = verify_l1_decay(reference="single_mode", cfg=SimConfig(grid=GridSpec(d=1, N=256)))
        assert rep.verdicts["closed_form"]["passed"]

    def test_one_signed_rejected(self):
        g = GridSpec(d=1, N=256)
        with pytest.raises(ValueError, match="mean-zero"):
            verify_l1_decay(psi0=near_delta_bump(g, 0.05), cfg=SimConfig(grid=g))

    def test_unknown_reference(self):
        with pytest.raises(ValueError, match="reference"):
            verify_l1_decay(reference="bessel")


class TestClassEvolution:
    def test_zero_velocity(self):
        g = GridSpec(d=1, N=256)
        rep = verify_class_evolution(cfg=SimConfig(grid=g), r=2.0**-4)
        assert rep.passed()

    def test_shear_default(self):
        rep = verify_class_evolution()
        assert rep.verdicts["membership"]["passed"]
        assert rep.verdicts["exponent_positive"]["passed"]
        assert any("stand-ins" in n for n in rep.notes)

    def test_nonmember_rejected(self):
        g = GridSpec(d=1, N=256)
        with pytest.raises(ValueError, match="not a scale"):
            verify_class_evolution(
                psi0=ScalarField.constant(g, 0.5), cfg=SimConfig(grid=g), r=0.25
            )

    def test_scale_equivariance(self):
        # report series scale linearly with the data (pairing linearity)
        g = GridSpec(d=1, N=256)
        psi0 = make_test_function(4, g).field
        rep1 = verify_class_evolution(psi0=psi0, cfg=SimConfig(grid=g), r=2.0**-4)
        key = next(k for k in rep1.series if k.startswith("a["))
        from driftlab.spaces import ClassParams, check_class_membership

        lam = 0.5
        a_full = check_class_membership(psi0, ClassParams(r=2.0**-4, A=4.0)).minimal_scale
        a_scaled = check_class_membership(lam * psi0, ClassParams(r=2.0**-4, A=4.0)).minimal_scale
        assert a_scaled == pytest.approx(lam * a_full, abs=1e-8)
        assert rep1.series[key][0] == pytest.approx(a_full, rel=1e-9)


class TestHolderBound:
    def test_zero_velocity_smooth_decay(self):
        g = GridSpec(d=1, N=512)
        cfg = SimConfig(grid=g, dt=1e-3, cadence=50)
        rep = verify_holder_bound(cfg=cfg, theta0=random_band_limited(g, 8, seed=5), T=0.2)
        assert rep.passed()
        H = np.array(rep.series["H"])
        assert np.all(np.diff(H) <= 1e-6)  # pure fractional heat flow smooths

    def test_degraded_when_unfittable(self):
        g = GridSpec(d=1, N=512)
        cfg = SimConfig(grid=g, dt=1e-3, cadence=100)
        rep = verify_holder_bound(cfg=cfg, theta0=ScalarField.constant(g, 1.0), T=0.1)
        assert rep.verdicts["H_bounded"]["passed"] is None
        assert any("degraded" in n for n in rep.notes)

    def test_subsampled_holder_matches_direct_when_small(self):
        g = GridSpec(d=1, N=128)
        f = random_band_limited(g, 8, seed=6)
        assert holder_seminorm_decimated(f, 0.3) == holder_seminorm_direct(f, 0.3)

    def test_near_delta_bump(self):
        g = GridSpec(d=1, N=512)
        f = near_delta_bump(g, 0.02)
        assert norms(f).l1 == pytest.approx(1.0, rel=1e-12)
        assert f.mean() == pytest.approx(1.0, rel=1e-12)
        assert np.all(f.values > 0)
        with pytest.raises(ValueError):
            near_delta_bump(g, 0.0)

    @pytest.mark.parametrize(
        "d,N,width", [(1, 512, 0.02), (1, 64, 0.05), (2, 128, 0.02), (2, 32, 0.05)]
    )
    def test_near_delta_bump_matches_full_spectrum(self, d, N, width):
        g = GridSpec(d=d, N=N)
        want = fullspectrum_reference.near_delta_bump(g, width)
        got = near_delta_bump(g, width).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestInvariants:
    def test_small_bundle(self):
        g = GridSpec(d=1, N=128)
        scenarios = [
            ("zero", SimConfig(grid=g), random_band_limited(g, 6, seed=1)),
            (
                "constant",
                SimConfig(grid=g, velocity=VelocitySpec(kind="constant", constant=(0.2,))),
                random_band_limited(g, 6, seed=2),
            ),
        ]
        rep = verify_invariants(scenarios=scenarios, t_end=0.2)
        assert rep.passed()
        assert "max_principle[zero]" in rep.verdicts
