"""Time evolution: forward drift-diffusion, the dual (time-reversed
velocity) equation, SQG coupling, and the concentration-center trajectory.

Integrator: exact integrating factor for the fractional dissipation plus
a midpoint second-order Runge-Kutta stage for the dealiased advection term.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grids import GridSpec, ScalarField, VelocityField, half_spectrum
from .operators import TWO_PI, AdvectionTendency, norms, riesz_transform

REVERSED_SIGN = "reversed"  # theta_t = +(u.grad)theta - Lambda theta
STANDARD_SIGN = "standard"  # theta_t = -(u.grad)theta - Lambda theta

CFL_LIMIT = 0.5
HISTORY_MEMORY_CAP = 2 * 1024**3  # bytes


class NumericalAbort(RuntimeError):
    """Run failed numerically at ``step``, which ends at time ``t``: by
    default, it produced non-finite values."""

    def __init__(self, step: int, t: float, what: str = "non-finite field values"):
        super().__init__(f"{what} at step {step} (t={t:.6g})")
        self.step = step
        self.t = t


class CFLViolation(ValueError):
    """The configured time step violates the CFL bound of the initial velocity."""

    def __init__(self, dt: float, admissible: float):
        super().__init__(
            f"time step {dt:.3e} violates the advective CFL bound; "
            f"admissible dt <= {admissible:.3e}"
        )
        self.admissible_dt = admissible


class CFLAbort(NumericalAbort):
    """The velocity grew during a run past the CFL bound of its fixed time step."""

    def __init__(self, step: int, t: float, dt: float, admissible: float):
        super().__init__(
            step, t,
            f"time step {dt:.3e} violates the advective CFL bound "
            f"(admissible dt <= {admissible:.3e})",
        )
        self.admissible_dt = admissible


@dataclass(frozen=True)
class VelocitySpec:
    """Prescribed velocity: zero | constant | shear | file | sqg.

    omega != 0 modulates the prescribed profile by cos(omega*t), giving a
    genuinely time-dependent divergence-free drift (with a static profile
    the discrete forward and dual steps are exactly adjoint, which hides
    the integrator's convergence order in duality checks).
    """

    kind: str = "zero"
    amplitude: float = 1.0
    constant: tuple = ()
    paths: tuple = ()
    omega: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "shear", "file", "sqg"):
            raise ValueError(f"unknown velocity kind {self.kind!r}")


def shear_velocity(grid: GridSpec, amplitude: float) -> VelocityField:
    """u = (0, a sin(2 pi x1)); divergence-free by construction (d=2)."""
    if grid.d != 2:
        raise ValueError("shear velocity requires d=2")
    x1 = grid.coords()[0]
    comps = (
        ScalarField.constant(grid, 0.0),
        ScalarField.adopt(grid, amplitude * np.sin(TWO_PI * x1)),
    )
    return VelocityField(grid, comps, divergence_free=True)


def sqg_velocity(theta: ScalarField) -> VelocityField:
    """u = (-R2 theta, R1 theta); divergence-free by the multiplier identity.

    From a theta that keeps its half-spectrum coefficients, the velocity
    and its divergence check cost one inverse transform per component.
    """
    if theta.grid.d != 2:
        raise ValueError("SQG coupling requires d=2")
    u = (-riesz_transform(theta, 2), riesz_transform(theta, 1))
    return VelocityField(theta.grid, u, divergence_free=True)


def build_prescribed_velocity(spec: VelocitySpec, grid: GridSpec) -> VelocityField:
    if spec.kind == "zero":
        return VelocityField.zero(grid)
    if spec.kind == "constant":
        c = spec.constant if spec.constant else (spec.amplitude,) * grid.d
        return VelocityField.constant(grid, c)
    if spec.kind == "shear":
        return shear_velocity(grid, spec.amplitude)
    if spec.kind == "file":
        from .fieldio import load_field

        if len(spec.paths) != grid.d:
            raise ValueError(f"velocity from file needs {grid.d} component paths")
        comps = tuple(load_field(p) for p in spec.paths)
        for c in comps:
            if c.grid != grid:
                raise ValueError("velocity file grid does not match the run grid")
        return VelocityField(grid, comps, divergence_free=True)
    raise ValueError(f"velocity kind {spec.kind!r} is not prescribed (use an SQG run)")


# VelocitySpec fields and the configuration keys that set them
_VELOCITY_KEYS = (
    ("kind", "velocity.kind"),
    ("amplitude", "velocity.amplitude"),
    ("constant", "velocity.constant"),
    ("paths", "velocity.file"),
    ("omega", "velocity.omega"),
)


@dataclass(frozen=True)
class SimConfig:
    grid: GridSpec
    kind: str = "drift"           # drift | sqg
    sign: str = REVERSED_SIGN     # reversed | standard
    alpha: float = 1.0
    dt: float | None = None
    t_end: float = 1.0
    velocity: VelocitySpec = field(default_factory=VelocitySpec)
    cadence: int = 10
    seed: int = 0
    track_bmo: bool = False
    track_beta: bool = False
    store_history: bool = False  # keep per-step SQG velocity for later dual runs

    def __post_init__(self):
        if self.kind not in ("drift", "sqg"):
            raise ValueError(f"unknown equation kind {self.kind!r}")
        if self.sign not in (REVERSED_SIGN, STANDARD_SIGN):
            raise ValueError(f"unknown advection sign {self.sign!r}")
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if self.kind == "sqg" and self.grid.d != 2:
            raise ValueError("SQG runs require d=2")
        if self.velocity.kind == "sqg" and self.kind != "sqg":
            raise ValueError("velocity.kind = sqg needs equation.kind = sqg")
        if self.kind == "sqg":
            # the SQG velocity is computed from theta; a prescribed drift
            # configured beside it would be ignored
            unused = VelocitySpec(kind="sqg" if self.velocity.kind == "sqg" else "zero")
            for name, key in _VELOCITY_KEYS:
                if getattr(self.velocity, name) != getattr(unused, name):
                    raise ValueError(f"{key} is ignored by equation.kind = sqg")
        if self.t_end < 0.0:
            raise ValueError("end time must be nonnegative")
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.cadence < 1:
            raise ValueError("cadence must be >= 1")


def default_dt(grid: GridSpec, umax: float) -> float:
    """Combined advective/dissipative guard 0.25 / (|u|_inf N + pi N)."""
    return 0.25 / (umax * grid.N + math.pi * grid.N)


def cfl_admissible_dt(grid: GridSpec, umax: float) -> float:
    if umax <= 0.0:
        return math.inf
    return CFL_LIMIT / (umax * grid.N)


@dataclass(frozen=True)
class EvolutionState:
    t: float
    theta: ScalarField
    u: VelocityField
    step: int


@dataclass(frozen=True)
class DualState:
    horizon: float
    s: float
    phi: ScalarField
    step: int


class VelocityHistory:
    """Forward velocity u(., t): a prescribed drift, a callable, or stored
    samples with linear interpolation in time.

    ``profile`` is a prescribed drift's profile, whose sup norm bounds the
    drift at every time; it is None for other histories.
    """

    def __init__(self, grid: GridSpec, times=None, samples=None, func=None, profile=None):
        self.grid = grid
        self._func = func
        self.times = None if times is None else np.asarray(times, dtype=float)
        self._samples = samples
        self.profile = profile

    @classmethod
    def prescribed(cls, spec: VelocitySpec, grid: GridSpec) -> "VelocityHistory":
        """u(t) = cos(omega t) * profile.  The profile is built, and its
        divergence checked, once: divergence is linear, so the check covers
        every multiple of it, and a modulated sample needs no transform.
        With omega = 0 every time gives the profile itself."""
        profile = build_prescribed_velocity(spec, grid)
        if spec.omega == 0.0:
            return cls(grid, func=lambda t: profile, profile=profile)

        def at(t: float) -> VelocityField:
            factor = math.cos(spec.omega * t)
            comps = tuple(ScalarField.adopt(grid, factor * c.values) for c in profile.components)
            return VelocityField(grid, comps)

        return cls(grid, func=at, profile=profile)

    @classmethod
    def from_callable(cls, grid: GridSpec, func) -> "VelocityHistory":
        return cls(grid, func=func)

    @classmethod
    def from_samples(cls, grid: GridSpec, times, samples) -> "VelocityHistory":
        if len(times) != len(samples) or len(times) < 1:
            raise ValueError("history needs matching, nonempty times and samples")
        return cls(grid, times=list(times), samples=list(samples))

    def covers(self, t0: float, t1: float) -> bool:
        if self._func is not None:
            return True
        return self.times[0] <= t0 + 1e-12 and t1 <= self.times[-1] + 1e-12

    def velocity_at(self, t: float) -> VelocityField:
        if self._func is not None:
            return self._func(t)
        times = self.times
        if t <= times[0] + 1e-12:
            comps = self._samples[0]
        elif t >= times[-1] - 1e-12:
            comps = self._samples[-1]
        else:
            i = int(np.searchsorted(times, t, side="right")) - 1
            i = min(max(i, 0), len(times) - 2)
            w = (t - times[i]) / (times[i + 1] - times[i])
            comps = tuple(
                (1.0 - w) * a + w * b for a, b in zip(self._samples[i], self._samples[i + 1])
            )
        fields = tuple(ScalarField(self.grid, c) for c in comps)
        return VelocityField(self.grid, fields, divergence_free=False)


class SpectralPlan(AdvectionTendency):
    """Integrating-factor midpoint RK2 core on the rfftn half spectrum.

    The dissipation semigroup is applied exactly; the dealiased advection
    tendency (``AdvectionTendency.nonlinear``) is advanced by the midpoint
    rule (second order).  One plan per (grid, alpha, dt, advection sign) is
    built by ``spectral_plan`` and reused by every step of the forward, SQG
    and dual runs.
    """

    def __init__(self, grid: GridSpec, alpha: float, dt: float, adv_sign: float):
        super().__init__(grid, adv_sign)
        self.dt = dt
        lam = half_spectrum(grid).symbol(alpha)
        self.E = np.exp(-lam * dt)
        self.E_half = np.exp(-lam * (0.5 * dt))
        # the product dt * E_half that the corrector's left-to-right
        # dt * E_half * tendency forms first
        self.dt_E_half = dt * self.E_half
        for a in (self.E, self.E_half, self.dt_E_half):
            a.setflags(write=False)

    def predictor(self, ch: np.ndarray, u0_phys: tuple) -> np.ndarray:
        """Midpoint coefficients, with the velocity at the step start."""
        return self.E_half * (ch + 0.5 * self.dt * self.nonlinear(ch, u0_phys))

    def corrector(self, ch: np.ndarray, mid: np.ndarray, umid_phys: tuple) -> np.ndarray:
        """End of the step from its start ``ch`` and its midpoint ``mid``."""
        return self.E * ch + self.dt_E_half * self.nonlinear(mid, umid_phys)

    def step(self, ch: np.ndarray, u0_phys: tuple, umid_phys: tuple) -> np.ndarray:
        """Midpoint step; stage velocities at the step start and midpoint.
        A midpoint velocity that is zero everywhere skips the predictor,
        which the corrector would not read."""
        moving = any(uj.any() for uj in umid_phys)
        mid = self.predictor(ch, u0_phys) if moving else ch
        return self.corrector(ch, mid, umid_phys)


@functools.lru_cache(maxsize=8)
def spectral_plan(grid: GridSpec, alpha: float, dt: float, adv_sign: float) -> SpectralPlan:
    return SpectralPlan(grid, alpha, dt, adv_sign)


def _u_phys(u: VelocityField) -> tuple:
    return tuple(c.values for c in u.components)


def _check_cfl(grid: GridSpec, dt: float, umax: float, step: int, t: float):
    """CFL bound of ``step`` (ending at ``t``) for the velocity at its start.

    On the first step a violation is a configuration error (CFLViolation);
    later, the velocity has outgrown the run's time step (CFLAbort).
    """
    if umax > 0.0 and dt * umax * grid.N > CFL_LIMIT + 1e-12:
        admissible = cfl_admissible_dt(grid, umax)
        if step == 1:
            raise CFLViolation(dt, admissible)
        raise CFLAbort(step, t, dt, admissible)


def _finite_field(step: int, t: float, build, *args):
    """``build(*args)``: a ScalarField constructor on new values or
    coefficients, the realisation of a field's values, or the SQG velocity
    of a field, whose values it realises; raises NumericalAbort if any
    value or coefficient is not finite."""
    try:
        return build(*args)
    except ValueError:  # the arrays have the grid's shape: they are not finite
        raise NumericalAbort(step, t) from None


def step_forward(
    state: EvolutionState, cfg: SimConfig, velocity: VelocityHistory | None = None
) -> EvolutionState:
    """Advance one step; velocity recomputed from theta for SQG runs.

    A drift step reads its midpoint and end velocities from ``velocity``,
    the run's VelocityHistory; without one, the drift is ``state.u``, so a
    time-modulated drift needs its history.  The step starts from
    ``state.u``.  Reading the history makes no transform.

    An SQG step keeps the coefficients of its midpoint and end fields and
    checks them, and the values of their velocities, so it makes 10
    transforms: 3 for each advection tendency and 2 for each of the two
    velocities.  The midpoint field's values are never computed; the end
    field computes its values on their first read (one more transform),
    which ``run_forward`` makes only for the states it stores.
    """
    sqg = cfg.kind == "sqg"
    if velocity is None and not sqg and cfg.velocity.omega != 0.0:
        raise ValueError("a time-modulated drift is stepped from its VelocityHistory")
    drift = (lambda _t: state.u) if velocity is None else velocity.velocity_at
    grid = cfg.grid
    umax = state.u.max_norm()
    dt = cfg.dt if cfg.dt is not None else default_dt(grid, umax)
    step, t = state.step + 1, state.t + dt
    _check_cfl(grid, dt, umax, step, t)
    sign = 1.0 if cfg.sign == REVERSED_SIGN else -1.0
    plan = spectral_plan(grid, cfg.alpha, dt, sign)
    ch = state.theta.half_coefficients()
    if not sqg:
        ch = plan.step(ch, _u_phys(state.u), _u_phys(drift(state.t + 0.5 * dt)))
        theta_new = _finite_field(step, t, ScalarField.adopt, grid, plan.inverse(ch))
        return EvolutionState(t=t, theta=theta_new, u=drift(t), step=step)
    # the corrector reads the midpoint coefficients: their field keeps a
    # copy, which is freed once its velocity is built
    mid = plan.predictor(ch, _u_phys(state.u))
    umid = _finite_field(step, t, lambda: sqg_velocity(ScalarField.from_half_spectrum(grid, mid)))
    ch = plan.corrector(ch, mid, _u_phys(umid))
    theta_new = _finite_field(step, t, ScalarField.adopt_half_spectrum, grid, ch)
    u_new = _finite_field(step, t, sqg_velocity, theta_new)
    return EvolutionState(t=t, theta=theta_new, u=u_new, step=step)


@dataclass
class RunResult:
    config: SimConfig
    states: list                 # snapshots at cadence (plus initial and final)
    diagnostics: list            # dict rows: step, t, linf, l1, l2, mean, bmo_u, beta_hat
    history: VelocityHistory


def _diag_row(state: EvolutionState, cfg: SimConfig) -> dict:
    rec = norms(state.theta)
    row = {
        "step": state.step,
        "t": state.t,
        "linf": rec.linf,
        "l1": rec.l1,
        "l2": rec.l2,
        "mean": state.theta.mean(),
        "bmo_u": "",
        "beta_hat": "",
    }
    if cfg.track_bmo:
        from .spaces import bmo_norm

        stride = max(1, cfg.grid.N // 64)
        row["bmo_u"] = max(bmo_norm(c, stride=stride) for c in state.u.components)
    if cfg.track_beta:
        from .spaces import holder_from_lp

        try:
            row["beta_hat"] = holder_from_lp(state.theta).beta
        except ValueError:
            row["beta_hat"] = ""
    return row


def run_forward(cfg: SimConfig, theta0: ScalarField) -> RunResult:
    """Loop step_forward to t_end, recording snapshots and diagnostics."""
    grid = cfg.grid
    if theta0.grid != grid:
        raise ValueError("initial field grid does not match the configuration")
    start = theta0
    if cfg.kind == "sqg":
        history = None
        # one forward transform serves both Riesz components and step 1
        start = theta0.with_coefficients()
        u = sqg_velocity(start)
    else:
        history = VelocityHistory.prescribed(cfg.velocity, grid)
        u = history.velocity_at(0.0)
    umax = u.max_norm()
    dt = cfg.dt if cfg.dt is not None else default_dt(grid, umax)
    nsteps = int(round(cfg.t_end / dt)) if cfg.t_end > 0 else 0
    cfg = replace(cfg, dt=dt)

    store_history = cfg.kind == "sqg" and cfg.store_history
    if store_history:
        need = (nsteps + 1) * grid.d * grid.size * 8
        if need > HISTORY_MEMORY_CAP:
            raise MemoryError(
                f"velocity history would need {need / 1024**3:.2f} GiB "
                f"(cap {HISTORY_MEMORY_CAP / 1024**3:.0f} GiB); reduce the run size"
            )
        hist_times = [0.0]
        hist_samples = [_u_phys(u)]

    state = EvolutionState(t=0.0, theta=start, u=u, step=0)
    del start  # the kept coefficients go with the state at step 1
    states = [replace(state, theta=theta0)]  # stored without the transform
    diags = [_diag_row(states[0], cfg)]
    for _ in range(nsteps):
        state = step_forward(state, cfg, history)
        if store_history:
            hist_times.append(state.t)
            hist_samples.append(_u_phys(state.u))
        if state.step % cfg.cadence == 0 or state.step == nsteps:
            # a snapshot keeps its values only, not an SQG step's
            # coefficients; computing them checks them
            theta = _finite_field(state.step, state.t, state.theta.without_coefficients)
            states.append(replace(state, theta=theta))
            diags.append(_diag_row(states[-1], cfg))
    if store_history:
        history = VelocityHistory.from_samples(grid, hist_times, hist_samples)
    elif history is None:
        def _unavailable(t):
            raise ValueError("velocity history was not stored for this run")

        history = VelocityHistory.from_callable(grid, _unavailable)
    return RunResult(config=cfg, states=states, diagnostics=diags, history=history)


@dataclass
class DualRunResult:
    config: SimConfig
    horizon: float
    states: list                 # DualState snapshots at cadence
    series: dict                 # s, l1, linf, mean arrays


def run_dual(
    cfg: SimConfig,
    phi: ScalarField,
    horizon: float,
    history: VelocityHistory,
) -> DualRunResult:
    """Evolve the dual field in s with velocity u(., horizon - s).

    The dual advection sign is the negative of the forward sign, so the
    discrete pairing with the forward run drifts at second order in dt.
    """
    grid = cfg.grid
    if phi.grid != grid:
        raise ValueError("dual field grid does not match the configuration")
    if not history.covers(0.0, horizon):
        raise ValueError(
            f"velocity history does not cover [0, {horizon:.6g}]"
        )
    # a prescribed drift's profile bounds it at every time
    bound = history.profile if history.profile is not None else history.velocity_at(horizon)
    dt = cfg.dt if cfg.dt is not None else default_dt(grid, bound.max_norm())
    nsteps = int(round(horizon / dt)) if horizon > 0 else 0
    sign = -1.0 if cfg.sign == REVERSED_SIGN else 1.0
    plan = spectral_plan(grid, cfg.alpha, dt, sign)

    ch = plan.forward(phi.values)
    s = 0.0
    states = [DualState(horizon=horizon, s=0.0, phi=phi, step=0)]
    svals, l1s, linfs, means = [0.0], [norms(phi).l1], [norms(phi).linf], [phi.mean()]
    for step in range(1, nsteps + 1):
        u0 = history.velocity_at(horizon - s)
        _check_cfl(grid, dt, u0.max_norm(), step, s + dt)
        umid = history.velocity_at(horizon - s - 0.5 * dt)
        ch = plan.step(ch, _u_phys(u0), _u_phys(umid))
        s += dt
        f = _finite_field(step, s, ScalarField.adopt, grid, plan.inverse(ch))
        rec = norms(f)
        svals.append(s)
        l1s.append(rec.l1)
        linfs.append(rec.linf)
        means.append(f.mean())
        if step % cfg.cadence == 0 or step == nsteps:
            states.append(DualState(horizon=horizon, s=s, phi=f, step=step))
    series = {
        "s": np.array(svals),
        "l1": np.array(l1s),
        "linf": np.array(linfs),
        "mean": np.array(means),
    }
    return DualRunResult(config=replace(cfg, dt=dt), horizon=horizon, states=states, series=series)


# ---------------------------------------------------------------------------
# concentration-center trajectory

def ball_average_velocity(u: VelocityField, center, r: float) -> np.ndarray:
    """Plain average of u over grid nodes within periodic distance r."""
    mask = u.grid.distance2(center) <= r**2 + 1e-15
    count = int(np.count_nonzero(mask))
    if count == 0:
        raise ValueError(f"ball of radius {r} contains no grid nodes")
    return np.array([float(np.mean(c.values[mask])) for c in u.components])


def track_center(
    x0,
    r: float,
    history: VelocityHistory,
    t_span: float,
    dt: float,
) -> tuple:
    """RK2 trajectory of x'(s) = ball-averaged velocity, wrapped to the torus."""
    if not 0.0 < r <= 0.5:
        raise ValueError(f"radius must be in (0, 1/2], got {r}")
    if not history.covers(0.0, t_span):
        raise ValueError(f"velocity history does not cover [0, {t_span:.6g}]")
    x = np.atleast_1d(np.asarray(x0, dtype=float)) % 1.0
    nsteps = int(round(t_span / dt)) if t_span > 0 else 0
    times = [0.0]
    traj = [x.copy()]
    s = 0.0
    for _ in range(nsteps):
        k1 = ball_average_velocity(history.velocity_at(s), x, r)
        k2 = ball_average_velocity(history.velocity_at(s + dt), (x + dt * k1) % 1.0, r)
        x = (x + 0.5 * dt * (k1 + k2)) % 1.0
        s += dt
        times.append(s)
        traj.append(x.copy())
    return np.array(times), np.array(traj)
