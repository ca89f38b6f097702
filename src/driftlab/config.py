"""Strict flat-key configuration: `section.key = value` lines, unknown
keys rejected, every error named by its key path."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .grids import GridSpec, ScalarField
from .evolution import SimConfig, VelocitySpec


class ConfigError(ValueError):
    """Malformed or invalid configuration; message names the key path."""


def _as_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _as_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _as_bool(key: str, raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _as_floats(key: str, raw: str) -> tuple:
    return tuple(_as_float(key, part) for part in raw.split(",") if part.strip())


def _as_paths(key: str, raw: str) -> tuple:
    return tuple(p.strip() for p in raw.split(",") if p.strip())


def _as_str(key: str, raw: str) -> str:
    return raw


# key -> (caster, default). None defaults mean "derived later".
_SCHEMA = {
    "grid.d": (_as_int, 1),
    "grid.N": (_as_int, 128),
    "time.dt": (_as_float, None),
    "time.T": (_as_float, 1.0),
    "equation.kind": (_as_str, "drift"),
    "equation.sign": (_as_str, "reversed"),
    "equation.alpha": (_as_float, 1.0),
    "velocity.kind": (_as_str, "zero"),
    "velocity.amplitude": (_as_float, 1.0),
    "velocity.constant": (_as_floats, ()),
    "velocity.file": (_as_paths, ()),
    "velocity.omega": (_as_float, 0.0),
    "initial.kind": (_as_str, "random"),
    "initial.band": (_as_int, 4),
    "initial.amplitude": (_as_float, 1.0),
    "initial.width": (_as_float, 0.02),
    "initial.level": (_as_int, 4),
    "initial.file": (_as_str, ""),
    "output.cadence": (_as_int, 10),
    "seed": (_as_int, 0),
    "suite": (_as_str, "all"),
    "track.bmo": (_as_bool, False),
    "track.beta": (_as_bool, False),
    "dual.horizon": (_as_float, None),
    "dual.r": (_as_float, 2.0**-4),
    "dual.A": (_as_float, 4.0),
    "diagnose.field": (_as_str, ""),
    "diagnose.norms": (_as_paths, ("norms",)),
    "diagnose.beta": (_as_float, 0.3),
}

INITIAL_KINDS = ("random", "cosine", "delta", "band_kernel", "file")


@dataclass
class RunPlan:
    """Parsed configuration: the simulation core plus CLI-level selections."""

    config: SimConfig
    raw: dict
    given: tuple = ()  # the keys the file sets, in file order
    initial: dict = field(default_factory=dict)
    suite: str = "all"
    dual: dict = field(default_factory=dict)
    diagnose: dict = field(default_factory=dict)


def parse_text(text: str) -> dict:
    """Parse `key = value` lines into a raw dict; strict unknown-key mode."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown configuration key {key!r}")
        if key in values:
            raise ConfigError(f"duplicate configuration key {key!r}")
        caster, _ = _SCHEMA[key]
        values[key] = caster(key, raw)
    return values


def _filled(values: dict) -> dict:
    out = {key: default for key, (_, default) in _SCHEMA.items()}
    out.update(values)
    return out


def build_plan(values: dict, seed_override: int | None = None) -> RunPlan:
    v = _filled(values)
    if seed_override is not None:
        v["seed"] = int(seed_override)

    try:
        grid = GridSpec(d=v["grid.d"], N=v["grid.N"])
    except ValueError as exc:
        raise ConfigError(f"grid.d/grid.N: {exc}") from None
    try:
        vel = VelocitySpec(
            kind=v["velocity.kind"],
            amplitude=v["velocity.amplitude"],
            constant=v["velocity.constant"],
            paths=v["velocity.file"],
            omega=v["velocity.omega"],
        )
    except ValueError as exc:
        raise ConfigError(f"velocity.kind: {exc}") from None
    try:
        cfg = SimConfig(
            grid=grid,
            kind=v["equation.kind"],
            sign=v["equation.sign"],
            alpha=v["equation.alpha"],
            dt=v["time.dt"],
            t_end=v["time.T"],
            velocity=vel,
            cadence=v["output.cadence"],
            seed=v["seed"],
            track_bmo=v["track.bmo"],
            track_beta=v["track.beta"],
        )
    except ValueError as exc:
        raise ConfigError(f"equation/time/output: {exc}") from None

    if v["initial.kind"] not in INITIAL_KINDS:
        raise ConfigError(
            f"initial.kind: unknown kind {v['initial.kind']!r}; "
            f"valid: {', '.join(INITIAL_KINDS)}"
        )
    if v["initial.kind"] == "file" and not v["initial.file"]:
        raise ConfigError("initial.file: required when initial.kind = file")
    horizon = v["dual.horizon"] if v["dual.horizon"] is not None else v["time.T"]
    if horizon < 0:
        raise ConfigError("dual.horizon: must be nonnegative")
    if not 0.0 < v["dual.r"] <= 1.0:
        raise ConfigError("dual.r: must be in (0, 1]")
    if not v["dual.A"] > 1.0:
        raise ConfigError(f"dual.A: must be > 1, got {v['dual.A']}")
    if v["initial.level"] < 0:
        raise ConfigError(f"initial.level: must be >= 0, got {v['initial.level']}")
    return RunPlan(
        config=cfg,
        raw=v,
        given=tuple(values),
        initial={
            "kind": v["initial.kind"],
            "band": v["initial.band"],
            "amplitude": v["initial.amplitude"],
            "width": v["initial.width"],
            "level": v["initial.level"],
            "file": v["initial.file"],
        },
        suite=v["suite"],
        dual={"horizon": horizon, "r": v["dual.r"], "A": v["dual.A"]},
        diagnose={
            "field": v["diagnose.field"],
            "norms": list(v["diagnose.norms"]),
            "beta": v["diagnose.beta"],
        },
    )


def parse_config(path, seed_override: int | None = None) -> RunPlan:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file not found: {path}")
    return build_plan(parse_text(path.read_text()), seed_override=seed_override)


def build_initial_field(plan: RunPlan) -> ScalarField:
    """Realize the configured initial datum on the run grid."""
    import numpy as np

    from .operators import TWO_PI, near_delta_bump, random_band_limited
    from .spaces import make_test_function

    grid = plan.config.grid
    kind = plan.initial["kind"]
    if kind == "random":
        band = plan.initial["band"]
        if not 1 <= band <= grid.N // 2 - 1:
            raise ConfigError(f"initial.band: must be in [1, N/2-1], got {band}")
        return random_band_limited(
            grid, band=band, seed=plan.config.seed, amplitude=plan.initial["amplitude"]
        )
    if kind == "cosine":
        x1 = grid.coords()[0]
        return ScalarField.adopt(grid, plan.initial["amplitude"] * np.cos(TWO_PI * x1))
    if kind == "delta":
        if plan.initial["width"] <= 0:
            raise ConfigError("initial.width: must be positive")
        return near_delta_bump(grid, plan.initial["width"])
    if kind == "band_kernel":
        level = plan.initial["level"]
        if 2**level > grid.N // 8:
            raise ConfigError(
                f"initial.level: level {level} not resolved on N={grid.N} (need 2^level <= N/8)"
            )
        return make_test_function(level, grid, A=plan.dual["A"]).field
    from .fieldio import load_field

    f = load_field(plan.initial["file"])
    if f.grid != grid:
        raise ConfigError(
            f"initial.file: snapshot grid (d={f.grid.d}, N={f.grid.N}) "
            f"does not match the run grid (d={grid.d}, N={grid.N})"
        )
    return f
