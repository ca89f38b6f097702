"""The stepper against its frozen pre-skip version (stepper_reference.py).

A zero-velocity stage skips its transforms, a step with a zero midpoint
velocity skips its predictor, and a modulated drift is built, and its
divergence checked, once per run; none of these may change a single bit
of a final field, signed zeros included.  An SQG step carries
its half-spectrum coefficients, in the library and in the reference alike,
and the reference keeps its own frozen SQG velocity; test_spectral_plan.py
gates SQG fields against the full-spectrum reference too.  An SQG field
computes its values on their first read, so a step makes 10 transforms
and a run one more per stored state; every stored state of an SQG run is
compared with the reference, not only the last.  The transform counts,
the one build and one divergence check per run and the one velocity norm
per run are checked here too.
"""

from dataclasses import replace

import numpy as np
import pytest

import stepper_reference as ref
from driftlab import evolution
from driftlab.evolution import (
    REVERSED_SIGN,
    STANDARD_SIGN,
    EvolutionState,
    SimConfig,
    VelocityHistory,
    VelocitySpec,
    run_dual,
    run_forward,
    shear_velocity,
    spectral_plan,
    step_forward,
)
from driftlab import grids
from driftlab.grids import GridSpec, VelocityField
from driftlab.operators import random_band_limited

G1 = GridSpec(d=1, N=64)
G2 = GridSpec(d=2, N=32)
ZERO = VelocitySpec()
SHEAR = VelocitySpec(kind="shear", amplitude=1.5)
MODULATED = VelocitySpec(kind="shear", amplitude=1.5, omega=7.0)
# cos(omega t) < 0 for t > pi/80 ~ 0.039: the zero component is -0.0 there
REVERSING = VelocitySpec(kind="shear", amplitude=1.5, omega=40.0)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal arrays, down to the sign of every zero."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "grid, kind, velocity, sign",
    [
        (G1, "drift", ZERO, REVERSED_SIGN),
        (G2, "drift", ZERO, REVERSED_SIGN),
        (G2, "drift", ZERO, STANDARD_SIGN),
        (G2, "drift", VelocitySpec(kind="constant"), REVERSED_SIGN),
        (G2, "drift", SHEAR, REVERSED_SIGN),
        (G2, "drift", SHEAR, STANDARD_SIGN),
        (G2, "drift", MODULATED, REVERSED_SIGN),
        (G2, "drift", MODULATED, STANDARD_SIGN),
        (G2, "drift", REVERSING, REVERSED_SIGN),
        (G1, "drift", VelocitySpec(kind="constant", omega=5.0), REVERSED_SIGN),
        (G2, "sqg", ZERO, REVERSED_SIGN),
    ],
    ids=["zero_d1", "zero_d2", "zero_d2_standard", "constant", "shear", "shear_standard",
         "modulated", "modulated_standard", "modulated_negative", "modulated_constant_d1",
         "sqg"],
)
def test_forward_is_bit_identical(grid, kind, velocity, sign):
    cfg = SimConfig(grid=grid, kind=kind, sign=sign, velocity=velocity, dt=2e-3, t_end=0.06)
    theta0 = random_band_limited(grid, band=6, seed=21)
    got = run_forward(cfg, theta0).states[-1].theta.values
    assert _same_bits(got, ref.run_forward(cfg, theta0.values))


@pytest.mark.parametrize(
    "grid, velocity",
    [
        (G1, ZERO),
        (G2, ZERO),
        (G2, SHEAR),
        (G2, MODULATED),
        (G2, REVERSING),
        (G1, VelocitySpec(kind="constant", omega=5.0)),
    ],
    ids=["zero_d1", "zero_d2", "shear", "modulated", "modulated_negative",
         "modulated_constant_d1"],
)
def test_dual_is_bit_identical(grid, velocity):
    cfg = SimConfig(grid=grid, velocity=velocity, dt=2e-3)
    history = VelocityHistory.prescribed(velocity, grid)
    phi = random_band_limited(grid, band=6, seed=22)
    got = run_dual(cfg, phi, horizon=0.06, history=history).states[-1].phi.values
    assert _same_bits(got, ref.run_dual(cfg, phi.values, 0.06, history))


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts np.fft real-to-complex calls: rfft and irfft (d = 1), rfftn
    and irfftn (d = 2)."""
    calls = []
    for name in ("rfft", "irfft", "rfftn", "irfftn"):
        func = getattr(np.fft, name)

        def counted(*args, _func=func, **kwargs):
            calls.append(1)
            return _func(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def _drift_state(grid: GridSpec, u: VelocityField) -> EvolutionState:
    return EvolutionState(t=0.0, theta=random_band_limited(grid, band=4, seed=0), u=u, step=0)


@pytest.mark.parametrize("grid", [G1, G2], ids=["d1", "d2"])
def test_zero_velocity_forward_step_makes_two_transforms(grid, fft_calls):
    cfg = SimConfig(grid=grid, dt=1e-3)
    state = _drift_state(grid, VelocityField.zero(grid))
    state = step_forward(state, cfg)  # builds the plan and its zero tendency
    fft_calls.clear()
    step_forward(state, cfg)
    assert len(fft_calls) == 2


def test_zero_velocity_dual_step_makes_one_transform(fft_calls, monkeypatch):
    cfg = SimConfig(grid=G2, dt=1e-3)
    history = VelocityHistory.prescribed(ZERO, G2)
    phi = random_band_limited(G2, band=4, seed=0)
    run_dual(cfg, phi, horizon=1e-3, history=history)
    fft_calls.clear()
    predicted = []
    predictor = evolution.SpectralPlan.predictor

    def counted(plan, *args):
        predicted.append(1)
        return predictor(plan, *args)

    monkeypatch.setattr(evolution.SpectralPlan, "predictor", counted)
    run_dual(cfg, phi, horizon=0.01, history=history)
    # the initial forward transform, then one inverse per step; the
    # corrector of a zero midpoint velocity does not read the predictor
    assert len(fft_calls) == 1 + 10
    assert predicted == []


def test_shear_step_keeps_its_eight_transforms(fft_calls):
    # the first component of a shear is zero, the second is not
    cfg = SimConfig(grid=G2, dt=1e-3, velocity=SHEAR)
    state = _drift_state(G2, shear_velocity(G2, SHEAR.amplitude))
    spectral_plan(G2, cfg.alpha, cfg.dt, 1.0)
    fft_calls.clear()
    step_forward(state, cfg)
    assert len(fft_calls) == 8


def test_sqg_step_makes_ten_transforms(fft_calls):
    # 3 per advection tendency, 2 for each of the midpoint and end
    # velocities; no forward transform of theta, and neither field's values
    cfg = SimConfig(grid=G2, kind="sqg", dt=1e-3)
    theta = random_band_limited(G2, band=4, seed=0)
    state = EvolutionState(t=0.0, theta=theta, u=evolution.sqg_velocity(theta), step=0)
    state = step_forward(state, cfg)
    fft_calls.clear()
    for _ in range(3):
        state = step_forward(state, cfg)
    assert len(fft_calls) == 3 * 10
    # the end theta's values: one inverse transform on the first read, kept
    fft_calls.clear()
    values = state.theta.values
    assert len(fft_calls) == 1
    assert state.theta.values is values
    assert len(fft_calls) == 1


def test_sqg_run_transforms_its_stored_states_only(fft_calls):
    # start-up: one forward transform of theta0 serves both Riesz components
    # and the first step (1 + 2 inverse); then 10 per step and 1 per stored
    # state
    cfg = SimConfig(grid=G2, kind="sqg", dt=1e-3, t_end=0.02, cadence=6)
    theta0 = random_band_limited(G2, band=4, seed=0)
    run_forward(cfg, theta0)  # builds the plan
    fft_calls.clear()
    result = run_forward(cfg, theta0)
    assert [s.step for s in result.states] == [0, 6, 12, 18, 20]
    assert len(fft_calls) == 3 + 10 * 20 + 4


def test_every_stored_sqg_state_is_bit_identical():
    cfg = SimConfig(grid=G2, kind="sqg", dt=2e-3, t_end=0.12, cadence=7)
    theta0 = random_band_limited(G2, band=6, seed=23)
    states = run_forward(cfg, theta0).states
    assert [s.step for s in states] == list(range(0, 60, 7)) + [60]
    for s in states:
        want = ref.run_forward(replace(cfg, t_end=s.step * cfg.dt), theta0.values)
        assert _same_bits(s.theta.values, want), s.step


def test_modulated_step_makes_eight_transforms(fft_calls):
    # the drift at the midpoint and at the end is a multiple of the checked
    # profile: no divergence check, so no transform beyond the steady shear's
    cfg = SimConfig(grid=G2, dt=1e-3, velocity=MODULATED)
    history = VelocityHistory.prescribed(MODULATED, G2)
    state = _drift_state(G2, history.velocity_at(0.0))
    spectral_plan(G2, cfg.alpha, cfg.dt, 1.0)
    fft_calls.clear()
    step_forward(state, cfg, history)
    assert len(fft_calls) == 8


def test_modulated_dual_step_makes_seven_transforms(fft_calls):
    cfg = SimConfig(grid=G2, dt=1e-3, velocity=MODULATED)
    history = VelocityHistory.prescribed(MODULATED, G2)
    phi = random_band_limited(G2, band=4, seed=0)
    run_dual(cfg, phi, horizon=1e-3, history=history)
    fft_calls.clear()
    run_dual(cfg, phi, horizon=3e-3, history=history)
    # the initial forward transform, then per step 3 for each of the two
    # tendencies and 1 inverse
    assert len(fft_calls) == 1 + 3 * 7


@pytest.fixture
def divergence_checks(monkeypatch):
    """Counts grids.spectral_divergence_max calls."""
    calls = []
    check = grids.spectral_divergence_max

    def counted(components):
        calls.append(1)
        return check(components)

    monkeypatch.setattr(grids, "spectral_divergence_max", counted)
    return calls


def test_a_modulated_run_checks_divergence_once(divergence_checks):
    cfg = SimConfig(grid=G2, dt=2e-3, t_end=0.02, velocity=MODULATED)
    result = run_forward(cfg, random_band_limited(G2, band=4, seed=0))
    assert result.states[-1].step == 10
    assert len(divergence_checks) == 1
    divergence_checks.clear()
    history = VelocityHistory.prescribed(MODULATED, G2)
    dual = run_dual(cfg, random_band_limited(G2, band=4, seed=0), horizon=0.02, history=history)
    assert dual.states[-1].step == 10
    assert len(divergence_checks) == 1


def test_modulated_run_builds_its_drift_once(monkeypatch):
    built = []
    build = evolution.build_prescribed_velocity

    def counted(spec, grid):
        built.append(spec)
        return build(spec, grid)

    monkeypatch.setattr(evolution, "build_prescribed_velocity", counted)
    cfg = SimConfig(grid=G2, dt=2e-3, t_end=0.02, velocity=MODULATED)
    result = run_forward(cfg, random_band_limited(G2, band=4, seed=0))
    assert result.states[-1].step == 10
    assert len(built) == 1


def test_two_argument_step_rejects_a_modulated_drift():
    # without the run's history the step has only state.u, a steady drift
    cfg = SimConfig(grid=G2, dt=2e-3, t_end=0.02, velocity=MODULATED)
    history = VelocityHistory.prescribed(MODULATED, G2)
    state = _drift_state(G2, history.velocity_at(0.0))
    with pytest.raises(ValueError, match="VelocityHistory"):
        step_forward(state, cfg)


def test_a_run_computes_the_velocity_norm_once(monkeypatch):
    # the CFL check runs on every step; an unmodulated run has one velocity
    computed = []
    norm = VelocityField.__dict__["_max_norm"]
    compute = norm.func

    def counted(u):
        computed.append(u)
        return compute(u)

    monkeypatch.setattr(norm, "func", counted)
    cfg = SimConfig(grid=G2, dt=2e-3, t_end=0.02, velocity=SHEAR)
    result = run_forward(cfg, random_band_limited(G2, band=4, seed=0))
    assert result.states[-1].step == 10
    assert len(computed) == 1 and computed[0] is result.velocity(result.states[-1])
    computed.clear()
    u = shear_velocity(G2, SHEAR.amplitude)
    run_dual(cfg, random_band_limited(G2, band=4, seed=0), horizon=0.02,
             history=VelocityHistory.from_callable(G2, lambda t: u))
    assert len(computed) == 1 and computed[0] is u
