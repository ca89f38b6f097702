"""Norm and test-class machinery: the concentration weight, BMO and Holder
seminorms, Littlewood-Paley bands, and the mean-zero concentrated classes
used to probe Holder regularity by pairing."""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .grids import GridSpec, ScalarField, half_spectrum
from .operators import inner, norms

MEAN_ZERO_FACTOR = 1e-8  # tolerance factor (times sup norm) for exact mean-zero conditions

# ---------------------------------------------------------------------------
# diagnostics sink (one JSON object per emitted record)

_diagnostics_sink = None


def set_diagnostics_sink(sink):
    """Install a callable receiving one JSON string per diagnostic record."""
    global _diagnostics_sink
    _diagnostics_sink = sink


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()[:16]


def _emit(operation: str, f: ScalarField, outputs: dict):
    if _diagnostics_sink is None:
        return
    record = {"operation": operation, "input_digest": _digest(f.values)}
    record.update(outputs)
    _diagnostics_sink(json.dumps(record, sort_keys=True))


# ---------------------------------------------------------------------------
# concentration weight Omega(z): the square root of the periodic distance
# |z|, capped at 1/sqrt(2) from |z| = 1/2 on

OMEGA_PLATEAU = 1.0 / math.sqrt(2.0)


def omega_offset_array(grid: GridSpec) -> np.ndarray:
    """Omega evaluated at every grid offset (node minus center)."""
    dist = _kernels.offset_distance(grid.d, grid.N)
    return np.where(dist < 0.5, np.sqrt(dist), OMEGA_PLATEAU)


def omega_weighted_mass(f: ScalarField, center) -> float:
    """int Omega(x - center) |f(x)| dx for an arbitrary (off-grid) center."""
    dist = np.sqrt(f.grid.distance2(center))
    w = np.where(dist < 0.5, np.sqrt(dist), OMEGA_PLATEAU)
    return float(np.sum(w * np.abs(f.values)) * f.grid.cell_volume)


def concentration_all_centers(f: ScalarField) -> np.ndarray:
    """int Omega(x - c) |f(x)| dx for every grid center c (FFT correlation)."""
    corr = _kernels.periodic_correlation(np.abs(f.values), omega_offset_array(f.grid))
    return corr * f.grid.cell_volume


# ---------------------------------------------------------------------------
# BMO

def default_bmo_radii(grid: GridSpec) -> list:
    mmax = int(math.log2(grid.N)) - 2
    return [2.0**-m for m in range(1, mmax + 1)]


def bmo_norm(f: ScalarField, radii=None, stride: int = 1) -> float:
    """Max sampled mean oscillation over periodic balls.

    A lower bound of the continuum supremum by construction: centers are
    the grid nodes 0, stride, 2*stride, ... along each axis, radii default
    to the dyadic ladder.  A constant field gives 0.0 without ball sums.

    One call of ``_kernels.ball_deviation_max`` sums only the balls whose
    bound can beat the best value found.  A ball's mean oscillation is at
    most its L2 oscillation M * sqrt(max(mean g^2 - (a/M)^2, 0) + eta),
    M = max|f - f_0|, g = (f - f_0) / M, a the ball mean, which two FFT
    correlations give at every center; eta = 1e-10 + 8 n eps (n nodes)
    covers the rounding of the transforms and of the sums.  The float is
    the one of the scan over every ball.
    """
    if radii is None:
        radii = default_bmo_radii(f.grid)
    radii = list(radii)
    if not radii:
        raise ValueError("radii list must not be empty")
    for rho in radii:
        if not 0.0 < rho <= 0.5:
            raise ValueError(f"radii must lie in (0, 1/2], got {rho}")
    best = 0.0
    if f.values.max() > f.values.min():  # a constant field oscillates nowhere
        best = _kernels.ball_deviation_max(f.values, radii, stride, np.abs)
    _emit("bmo_norm", f, {"value": best, "radii": radii, "stride": stride})
    return best


# ---------------------------------------------------------------------------
# Holder seminorm, direct enumeration

PAIR_GUARD = 2**26


def holder_seminorm_direct(f: ScalarField, beta: float) -> float:
    """Exact max over grid pairs of |f(x)-f(y)| / dist(x,y)^beta."""
    if not 0.0 < beta < 0.5:
        raise ValueError(f"beta must be in (0, 1/2), got {beta}")
    grid = f.grid
    if grid.size**2 > PAIR_GUARD:
        raise ValueError(
            f"pair enumeration needs N^(2d) <= {PAIR_GUARD}; "
            f"got {grid.size**2}; use holder_from_lp instead"
        )
    value = _kernels.holder_pair_max(f.values, beta)
    _emit("holder_seminorm_direct", f, {"value": value, "beta": beta})
    return value


def holder_seminorm_decimated(f: ScalarField, beta: float) -> float:
    """Direct Holder seminorm, decimating the grid when the full pair
    enumeration would exceed the guard (a lower bound of the full value)."""
    grid = f.grid
    stride = 1
    while (grid.size // stride**grid.d) ** 2 > PAIR_GUARD:
        stride *= 2
    if stride == 1:
        return holder_seminorm_direct(f, beta)
    sub = GridSpec(d=grid.d, N=grid.N // stride)
    idx = tuple([slice(None, None, stride)] * grid.d)
    return holder_seminorm_direct(ScalarField(sub, f.values[idx]), beta)


# ---------------------------------------------------------------------------
# Littlewood-Paley bands

def _bump(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    interior = np.abs(t) < 1.0
    ti = t[interior]
    out[interior] = np.exp(1.0 - 1.0 / (1.0 - ti**2))
    return out


@functools.cache
def _gauss_legendre_bump():
    """The 96-node Gauss-Legendre rule on (-1, 1) and the bump's integral
    under it, built on the first ``smooth_cutoff`` call: a command that
    takes no LP band does not import ``numpy.polynomial``."""
    nodes, weights = np.polynomial.legendre.leggauss(96)
    return nodes, weights, float(np.sum(weights * _bump(nodes)))


# bridge radii per Gauss-Legendre evaluation: bounds its (radii x nodes)
# temporaries at 256 x 96 floats
_BRIDGE_CHUNK = 256


def smooth_cutoff(xi) -> np.ndarray:
    """eta: 1 on |xi|<=1, 0 on |xi|>=2, C-infinity bridge in between.

    The bridge is the normalized tail integral of the standard bump
    exp(1 - 1/(1-t^2)) on (-1, 1), with t = 2(|xi|-1) - 1.  It is
    evaluated _BRIDGE_CHUNK radii at a time; each radius is its own row
    sum, so the chunking does not change a bit.
    """
    a = np.abs(np.asarray(xi, dtype=float))
    out = np.where(a <= 1.0, 1.0, 0.0)
    bridge = (a > 1.0) & (a < 2.0)
    if np.any(bridge):
        t = 2.0 * (a[bridge] - 1.0) - 1.0
        nodes, weights, total = _gauss_legendre_bump()
        vals = np.empty_like(t)
        for lo in range(0, t.size, _BRIDGE_CHUNK):
            tc = t[lo : lo + _BRIDGE_CHUNK]
            # integral of the bump over (t, 1), Gauss-Legendre on the mapped interval
            half = (1.0 - tc) / 2.0
            s = half[:, None] * (nodes[None, :] + 1.0) + tc[:, None]
            vals[lo : lo + _BRIDGE_CHUNK] = np.sum(weights[None, :] * _bump(s), axis=1) * half
        out[bridge] = vals / total
    return out


def _band_multipliers(grid: GridSpec, j_min: int, j_max: int):
    """Half-spectrum multipliers of the bands j_min..j_max, in order.

    Each cutoff level eta(|n| / 2^l) is evaluated once, at the distinct
    mode radii of the half spectrum, and spread over its modes by index.
    """
    spec = half_spectrum(grid)
    radii, inverse = np.unique(spec.radius, return_inverse=True)
    inverse = inverse.reshape(spec.shape)
    lower = smooth_cutoff(radii / 2.0 ** (j_min - 1))
    for j in range(j_min, j_max + 1):
        upper = smooth_cutoff(radii / 2.0**j)
        yield (upper - lower)[inverse]
        lower = upper


def band_multiplier(grid: GridSpec, j: int) -> np.ndarray:
    """Half-spectrum multiplier of the level-j band filter."""
    return next(_band_multipliers(grid, j, j))


def max_band_level(grid: GridSpec) -> int:
    return int(math.log2(grid.N)) - 1  # 2^j <= N/2


@dataclass(frozen=True)
class LPBand:
    j: int
    field: ScalarField
    sup: float


def _iter_bands(f: ScalarField, j_min: int, j_max: int):
    """Yield the bands j_min..j_max one at a time, from one transform of f."""
    spec = half_spectrum(f.grid)
    ch = spec.forward(f.values)
    for j, mult in zip(range(j_min, j_max + 1), _band_multipliers(f.grid, j_min, j_max)):
        band = ScalarField.adopt(f.grid, spec.inverse(ch * mult))
        yield LPBand(j=j, field=band, sup=float(np.max(np.abs(band.values))))


def lp_bands(f: ScalarField, j_min: int = 0, j_max: int | None = None) -> list:
    """Band-pass f at the levels j_min..j_max from one transform of f."""
    if j_max is None:
        j_max = max_band_level(f.grid)
    if 2**j_max > f.grid.N // 2:
        raise ValueError(f"band level {j_max} not resolvable on N={f.grid.N}")
    return list(_iter_bands(f, j_min, j_max))


@dataclass(frozen=True)
class HolderFit:
    beta: float
    log_constant: float
    levels: tuple
    sups: tuple


def holder_from_lp(f: ScalarField, noise_floor_factor: float = 1e-12) -> HolderFit:
    """Estimate the Holder exponent from the decay of band sup norms."""
    jmax = max_band_level(f.grid)
    if jmax + 1 < 4:
        raise ValueError("need at least 4 resolvable bands")
    floor = noise_floor_factor * float(np.max(np.abs(f.values)))
    # one band field alive at a time: the fit reads only the sups
    usable = [(b.j, b.sup) for b in _iter_bands(f, 0, jmax) if b.sup > floor]
    if len(usable) < 2:
        raise ValueError(f"only {len(usable)} usable bands; cannot fit a decay rate")
    js = np.array([j for j, _ in usable], dtype=float)
    logs = np.log([s for _, s in usable])
    slope, intercept = np.polyfit(js, logs, 1)
    beta = -slope / math.log(2.0)
    fit = HolderFit(
        beta=float(beta),
        log_constant=float(intercept),
        levels=tuple(int(j) for j, _ in usable),
        sups=tuple(float(s) for _, s in usable),
    )
    _emit("holder_from_lp", f, {"beta": fit.beta, "levels": list(fit.levels)})
    return fit


# ---------------------------------------------------------------------------
# concentrated mean-zero classes

@dataclass(frozen=True)
class ClassParams:
    """Scale r and sup-norm headroom A of the concentrated test class."""

    r: float
    A: float

    def __post_init__(self):
        if not 0.0 < self.r <= 1.0:
            raise ValueError(f"r must be in (0, 1], got {self.r}")
        if self.A <= 1.0:
            raise ValueError(f"A must be > 1, got {self.A}")


@dataclass(frozen=True)
class MembershipReport:
    params: ClassParams
    linf_ratio: float
    mean_abs: float
    mean_tolerance: float
    l1_value: float
    concentration_best: float
    best_center: tuple
    member: bool
    minimal_scale: float | None

    def summary(self) -> dict:
        return {
            "r": self.params.r,
            "A": self.params.A,
            "linf_ratio": self.linf_ratio,
            "mean_abs": self.mean_abs,
            "l1": self.l1_value,
            "concentration_best": self.concentration_best,
            "best_center": list(self.best_center),
            "member": self.member,
            "minimal_scale": self.minimal_scale,
        }


def check_class_membership(f: ScalarField, params: ClassParams) -> MembershipReport:
    """Audit the four class conditions; always returns a report.

    The concentration center is the exact minimizer over all grid nodes
    (ties broken by the lexicographically smallest center).
    """
    rec = norms(f)
    grid = f.grid
    linf_bound = params.A * params.r**-grid.d
    linf_ratio = rec.linf / linf_bound
    mean_abs = abs(f.mean())
    mean_tol = MEAN_ZERO_FACTOR * max(rec.linf, 1e-300)
    conc = concentration_all_centers(f)
    flat_idx = int(np.argmin(conc.reshape(-1)))
    conc_best = float(conc.reshape(-1)[flat_idx])
    idx = np.unravel_index(flat_idx, grid.shape)
    center = tuple(float(i * grid.h) for i in idx)
    mean_ok = mean_abs <= mean_tol
    member = (
        linf_ratio <= 1.0
        and mean_ok
        and rec.l1 <= 1.0
        and conc_best <= math.sqrt(params.r)
    )
    minimal_scale = None
    if mean_ok:
        minimal_scale = max(linf_ratio, rec.l1, conc_best / math.sqrt(params.r))
    report = MembershipReport(
        params=params,
        linf_ratio=float(linf_ratio),
        mean_abs=float(mean_abs),
        mean_tolerance=float(mean_tol),
        l1_value=rec.l1,
        concentration_best=conc_best,
        best_center=center,
        member=bool(member),
        minimal_scale=minimal_scale,
    )
    _emit("check_class_membership", f, report.summary())
    return report


@dataclass(frozen=True)
class TestFunctionResult:
    field: ScalarField
    c: float
    j: int
    report: MembershipReport


DEFAULT_CLASS_A = 4.0


def make_test_function(j: int, grid: GridSpec, A: float = DEFAULT_CLASS_A) -> TestFunctionResult:
    """Canonical member of the scale-2^-j class: the periodized band kernel,
    rescaled by the largest admissible constant."""
    if 2**j > grid.N // 8:
        raise ValueError(f"level {j} profile not resolved on N={grid.N} (need 2^j <= N/8)")
    base = ScalarField.adopt(grid, half_spectrum(grid).inverse(band_multiplier(grid, j)))
    r = 2.0**-j
    base_report = check_class_membership(base, ClassParams(r=r, A=A))
    if base_report.minimal_scale is None or base_report.minimal_scale <= 0.0:
        raise ValueError("degenerate band kernel; cannot normalize")
    c = 1.0 / (base_report.minimal_scale * (1.0 + 1e-9))
    scaled = base * c
    report = check_class_membership(scaled, ClassParams(r=r, A=A))
    return TestFunctionResult(field=scaled, c=float(c), j=j, report=report)


@dataclass(frozen=True)
class ClassPairingFit:
    beta: float
    radii: tuple
    pairings: tuple


def shifted_pairings(f: ScalarField, phi: ScalarField) -> np.ndarray:
    """<f, phi(. - y)> for every grid shift y, by one FFT correlation."""
    return _kernels.periodic_correlation(f.values, phi.values) * f.grid.cell_volume


def holder_from_classes(f: ScalarField, r_list, A: float = DEFAULT_CLASS_A) -> ClassPairingFit:
    """Estimate the Holder exponent from pairing decay against the canonical
    test family (a lower-bound realization of the full class supremum)."""
    r_list = list(r_list)
    if not r_list:
        raise ValueError("r_list must not be empty")
    radii, pairings = [], []
    for r in r_list:
        j = round(-math.log2(r))
        if abs(2.0**-j - r) > 1e-12:
            raise ValueError(f"r values must be dyadic, got {r}")
        tf = make_test_function(j, f.grid, A=A)
        s = float(np.max(np.abs(shifted_pairings(f, tf.field))))
        radii.append(r)
        pairings.append(s)
    if len(radii) >= 2:
        slope, _ = np.polyfit(np.log(radii), np.log(np.maximum(pairings, 1e-300)), 1)
    else:
        slope = float("nan")
    fit = ClassPairingFit(beta=float(slope), radii=tuple(radii), pairings=tuple(pairings))
    _emit("holder_from_classes", f, {"beta": fit.beta, "radii": list(fit.radii)})
    return fit
