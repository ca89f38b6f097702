"""Stored states of a forward run keep theta and no velocity.

Every stored state's ``u`` is None, and ``RunResult.velocity`` rebuilds,
after the run, the velocity that the same steps produce through
``step_forward``, down to the sign of every zero, the initial state
included; and a run keeps no velocity per stored state, which tracemalloc
bounds.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from driftlab.evolution import (
    EvolutionState,
    SimConfig,
    VelocityHistory,
    VelocitySpec,
    run_forward,
    sqg_velocity,
    step_forward,
)
from driftlab.grids import GridSpec, ScalarField
from driftlab.operators import random_band_limited

G1 = GridSpec(d=1, N=64)
G2 = GridSpec(d=2, N=32)
MODULATED = VelocitySpec(kind="shear", amplitude=1.5, omega=7.0)

RUNS = {
    "steady_shear": SimConfig(grid=G2, dt=2e-3, t_end=0.04, cadence=3,
                              velocity=VelocitySpec(kind="shear", amplitude=1.5)),
    "modulated_shear": SimConfig(grid=G2, dt=2e-3, t_end=0.04, cadence=3, velocity=MODULATED),
    "constant_d1": SimConfig(grid=G1, dt=2e-3, t_end=0.04, cadence=3,
                             velocity=VelocitySpec(kind="constant", constant=(0.7,))),
    "sqg": SimConfig(grid=G2, kind="sqg", dt=2e-3, t_end=0.04, cadence=3),
}


def _stepped_velocities(cfg: SimConfig, theta0: ScalarField) -> dict:
    """step -> the velocity of each state that step_forward makes, as
    run_forward starts and steps the run."""
    if cfg.kind == "sqg":
        history = None
        start = theta0.with_coefficients()
        u = sqg_velocity(start)
    else:
        history = VelocityHistory.prescribed(cfg.velocity, cfg.grid)
        start, u = theta0, history.velocity_at(0.0)
    state = EvolutionState(t=0.0, theta=start, u=u, step=0)
    out = {0: state.u}
    for _ in range(round(cfg.t_end / cfg.dt)):
        state = step_forward(state, cfg, history)
        out[state.step] = state.u
    return out


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stored_velocity_is_the_stepped_one(name):
    cfg = RUNS[name]
    theta0 = random_band_limited(cfg.grid, band=4, seed=11)
    result = run_forward(cfg, theta0)
    assert [st.step for st in result.states] == [0, 3, 6, 9, 12, 15, 18, 20]
    stepped = _stepped_velocities(result.config, theta0)
    for st in result.states:
        assert st.u is None
        for _ in range(2):  # every call rebuilds the same bits
            for got, want in zip(result.velocity(st).components, stepped[st.step].components):
                assert got.values.tobytes() == want.values.tobytes(), (name, st.step)
        assert st.u is None
    if name in ("steady_shear", "constant_d1"):
        # a steady drift is its profile at every time
        assert all(result.velocity(st) is result.history.profile for st in result.states)


def test_stored_sqg_state_keeps_its_coefficients():
    cfg = RUNS["sqg"]
    result = run_forward(cfg, random_band_limited(G2, band=4, seed=11))
    first, *later = result.states
    assert first.theta._half is None  # the initial datum, as given
    for st in later:
        assert st.theta._half is not None
        assert st.theta.half_coefficients() is st.theta.half_coefficients()


# a modulated d = 2 N = 64 run with 49 stored states keeps their theta values
# (32 KiB each) and, fixed here before the run, at most this much more: the
# drift's profile (2 x 32 KiB), the diagnostics rows and the state objects.
# A velocity per stored state would add 64 KiB each, about 3 MiB.
KEPT_SLACK = 192 * 1024


def test_a_run_keeps_no_velocity_per_stored_state():
    grid = GridSpec(d=2, N=64)
    cfg = SimConfig(grid=grid, dt=1e-3, t_end=0.048, cadence=1, velocity=MODULATED)
    theta0 = random_band_limited(grid, band=6, seed=4)
    run_forward(cfg, theta0)  # builds the grid's cached spectrum and plan
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_forward(cfg, theta0)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    stored = result.states[1:]  # state 0 is theta0 itself
    assert len(stored) == 48
    theta_bytes = sum(st.theta.values.nbytes for st in stored)
    assert theta_bytes == 48 * grid.size * np.dtype(float).itemsize
    assert kept <= theta_bytes + KEPT_SLACK, (kept, theta_bytes)
