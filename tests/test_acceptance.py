"""End-to-end acceptance criteria for the laboratory.

Each test prints a single machine-greppable pass/fail line of the form

    [acceptance NN] <label>: PASS|FAIL

before asserting, so a full run yields one line per criterion.
"""

import math
import time

import numpy as np

from direct_oracle import fractional_laplacian_direct
from fullspectrum_reference import mode_radius
from spectral_operators import fractional_laplacian_spectral
from driftlab.evolution import (
    SimConfig,
    VelocityHistory,
    VelocitySpec,
    run_dual,
    run_forward,
)
from driftlab.grids import GridSpec, ScalarField, to_spectral
from driftlab.operators import norms, random_band_limited
from driftlab.spaces import holder_from_classes, holder_from_lp, make_test_function
from driftlab.verification import (
    verify_class_evolution,
    verify_duality,
    verify_holder_bound,
    verify_invariants,
    verify_l1_decay,
)

TWO_PI = 2 * np.pi


def _check(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {label}: {status}{suffix}")
    assert ok, f"acceptance criterion {num} failed: {label}{suffix}"


def _two_mode(grid):
    x = grid.axis_coords()
    return ScalarField(grid, np.cos(TWO_PI * x) + 0.3 * np.sin(3 * TWO_PI * x))


def weierstrass(grid, beta, levels=8):
    x = grid.coords()[0]
    vals = np.zeros(grid.shape)
    for k in range(levels):
        vals += 2.0 ** (-beta * k) * np.cos(TWO_PI * 2**k * x)
    return ScalarField(grid, vals)


def test_01_direct_oracle_matches_spectral():
    errs = {}
    for N in (128, 256):
        g = GridSpec(d=1, N=N)
        f = _two_mode(g)
        direct = fractional_laplacian_direct(f, eps=2 * g.h)
        spect = fractional_laplacian_spectral(f)
        errs[N] = norms(direct - spect).l2 / norms(spect).l2
    ratio = errs[128] / errs[256]
    ok = errs[128] <= 2e-2 and ratio >= 1.5
    _check(1, "direct vs spectral half-Laplacian",
           ok, f"err128={errs[128]:.3e} err256={errs[256]:.3e} ratio={ratio:.2f}")


def test_02_zero_velocity_exact_semigroup():
    g = GridSpec(d=1, N=128)
    theta0 = random_band_limited(g, band=20, seed=4)
    t = 0.2
    cfg = SimConfig(grid=g, dt=1e-3, t_end=t)
    final = to_spectral(run_forward(cfg, theta0).states[-1].theta)
    exact = to_spectral(theta0) * np.exp(-TWO_PI * mode_radius(g) * t)
    err = float(np.max(np.abs(final - exact)))
    _check(2, "per-mode dissipation semigroup", err < 1e-12, f"max mode error={err:.3e}")


def test_03_duality_agreement_and_order():
    rep = verify_duality()
    assert rep.digest == "e9ffedd0ab9a1a33"  # the bundled scenario
    d = max(rep.series["discrepancy"])
    ratio = min(rep.series["halving_ratio"])
    _check(3, "forward/dual pairing agreement", rep.passed(),
           f"max discrepancy={d:.3e} min halving ratio={ratio:.2f}")


def test_04_invariants_on_bundled_scenarios():
    rep = verify_invariants()
    assert rep.digest == "4aebc1174443e473"  # the bundled scenario
    bad = [k for k, v in rep.verdicts.items() if v["passed"] is False]
    _check(4, "max principle and mean conservation", rep.passed(),
           "all scenarios" if not bad else "failing: " + ", ".join(bad))


def test_05_dual_l1_contraction():
    scenarios = [
        ("zero_d1", SimConfig(grid=GridSpec(d=1, N=256))),
        ("constant_d1", SimConfig(
            grid=GridSpec(d=1, N=256),
            velocity=VelocitySpec(kind="constant", constant=(0.3,)))),
        ("shear_d2", SimConfig(
            grid=GridSpec(d=2, N=128),
            velocity=VelocitySpec(kind="shear", amplitude=0.5))),
        ("modulated_shear_d2", SimConfig(
            grid=GridSpec(d=2, N=128),
            velocity=VelocitySpec(kind="shear", amplitude=0.5, omega=TWO_PI))),
    ]
    worst = -math.inf
    for name, cfg in scenarios:
        psi = make_test_function(4, cfg.grid).field
        hist = VelocityHistory.prescribed(cfg.velocity, cfg.grid)
        res = run_dual(cfg, psi, horizon=0.05, history=hist)
        worst = max(worst, float(np.max(np.diff(res.series["l1"]))))
    closed = verify_l1_decay(reference="single_mode")
    assert closed.digest == "4fc76bdad8ffee2b"  # the bundled l1_single_mode scenario
    err = closed.verdicts["closed_form"]["value"]
    ok = worst <= 1e-6 and closed.verdicts["closed_form"]["passed"]
    _check(5, "dual L1 contraction + single-mode closed form", ok,
           f"max l1 increment={worst:.3e} closed-form error={err:.3e}")


def test_06_holder_estimators_agree():
    g = GridSpec(d=1, N=1024)
    w = weierstrass(g, 0.3)
    b_lp = holder_from_lp(w).beta
    b_cls = holder_from_classes(w, [2.0**-j for j in range(6)]).beta
    ok = 0.2 <= b_lp <= 0.4 and 0.2 <= b_cls <= 0.4 and abs(b_lp - b_cls) <= 0.1
    _check(6, "two Holder estimators on a rough field", ok,
           f"band estimate={b_lp:.3f} class estimate={b_cls:.3f}")


def test_07_test_function_family():
    g = GridSpec(d=1, N=1024)
    cs = []
    ok = True
    for j in range(6):
        tf = make_test_function(j, g)
        ok = ok and tf.report.member
        cs.append(tf.c)
    ok = ok and min(cs) >= 0.5
    _check(7, "generator family class membership", ok,
           f"c range=[{min(cs):.3f}, {max(cs):.3f}]")


def test_08_class_evolution_under_shear():
    rep = verify_class_evolution()
    assert rep.digest == "b25dad8e935046b5"  # the bundled scenario
    ok = (rep.verdicts["membership"]["passed"]
          and rep.verdicts["exponent_positive"]["passed"])
    a_max = rep.verdicts["membership"]["value"]
    slope = rep.verdicts["exponent_positive"]["value"]
    _check(8, "class membership persists along the dual flow", ok,
           f"max scale={a_max:.9f} exponent={slope:.2f}")


def test_09_sqg_runs():
    g = GridSpec(d=2, N=64)
    x1, _ = g.coords()
    theta0 = ScalarField(g, np.cos(TWO_PI * x1))
    cfg = SimConfig(grid=g, kind="sqg", dt=1e-3, t_end=1.0, cadence=1000)
    final = run_forward(cfg, theta0).states[-1].theta
    cos_err = float(np.max(np.abs(final.values - math.exp(-TWO_PI) * theta0.values)))

    g2 = GridSpec(d=2, N=256)
    cfg2 = SimConfig(grid=g2, kind="sqg", dt=5e-4, t_end=2.0, cadence=500)
    start = time.monotonic()
    res = run_forward(cfg2, random_band_limited(g2, band=8, seed=77))
    elapsed = time.monotonic() - start
    linf = np.array([row["linf"] for row in res.diagnostics])
    l2 = np.array([row["l2"] for row in res.diagnostics])
    mean = np.array([row["mean"] for row in res.diagnostics])
    mono = (np.all(np.diff(linf) <= 1e-8)
            and np.all(np.diff(l2) <= 1e-8)
            and float(np.max(np.abs(mean - mean[0]))) < 1e-12)
    ok = cos_err < 1e-6 and mono
    _check(9, "active-scalar runs (exact decay + long random run)", ok,
           f"cos error={cos_err:.3e} long run {elapsed:.0f}s invariants={'ok' if mono else 'violated'}")


def test_10_self_similar_scaling_window():
    rep = verify_holder_bound(rough=True)
    assert rep.digest == "0049bfd8f10f07c0"  # the bundled smoothing scenario
    spread = rep.verdicts["scaling_window"]["value"]
    _check(10, "near-delta height follows the scaling exponent",
           rep.verdicts["scaling_window"]["passed"] is True,
           f"spread={spread:.2f} over a factor-10 budget")
