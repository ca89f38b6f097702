"""The benchmark's own checks of its spans, FFT counter and output checks.

    python3 -m pytest perfbench/tests
"""

import numpy as np
import pytest

from layers import TARGETS, PassView
from tracing import FFTCounter, Span, Tracer, self_times
from workloads import compare_numbers


@pytest.fixture
def tracer():
    fft = FFTCounter().install()
    import driftlab  # noqa: F401  (every module is imported with the package)

    tr = Tracer(fft).install(TARGETS)
    tr.pass_id = "test"
    yield tr
    tr.uninstall()
    fft.uninstall()


def test_bmo_norm_called_from_verification_is_recorded(tracer):
    from driftlab import spaces, verification
    from driftlab.evolution import SimConfig
    from driftlab.grids import GridSpec

    assert verification.bmo_norm is spaces.bmo_norm
    cfg = SimConfig(grid=GridSpec(d=2, N=16), kind="sqg", dt=1e-3, cadence=5,
                    store_history=False)
    verification.verify_holder_bound(cfg=cfg, T=0.01)
    names = [s.name for s in tracer.spans]
    # both velocity components at each of the states t = 0, 0.005, 0.01
    assert names.count("spaces.bmo_norm") == 6
    assert "evolution.run_forward" in names


def test_shear_drift_step_counts_eight_ffts(tracer):
    from driftlab import evolution
    from driftlab.grids import GridSpec
    from driftlab.operators import random_band_limited

    grid = GridSpec(d=2, N=16)
    cfg = evolution.SimConfig(grid=grid, dt=1e-3,
                              velocity=evolution.VelocitySpec(kind="shear", amplitude=0.5))
    state = evolution.EvolutionState(
        t=0.0, theta=random_band_limited(grid, band=4, seed=0),
        u=evolution.shear_velocity(grid, 0.5), step=0)
    evolution.step_forward(state, cfg)
    (step,) = [s for s in tracer.spans if s.name == "evolution.step_forward.drift"]
    assert step.fft_calls == 8


def test_fft_counter_follows_later_bindings():
    counter = FFTCounter().install()
    try:
        from numpy.fft import rfftn
        import scipy.fft

        x = np.ones((8, 8))
        rfftn(x)
        scipy.fft.irfft2(np.ones((8, 5), dtype=complex))
        assert counter.calls == 2
        assert counter.bytes == x.nbytes + 8 * 5 * 16 + 8 * 5 * 16 + 8 * 8 * 8
    finally:
        counter.uninstall()


def test_self_time_of_a_nested_trace():
    spans = [
        Span("root", -1, "p", 0.0, 10.0),
        Span("a", 0, "p", 1.0, 4.0),
        Span("a.inner", 1, "p", 2.0, 3.0),
        Span("b", 0, "p", 5.0, 9.0),
        Span("c", 0, "p", 8.0, 12.0),  # overlaps b and runs past its parent
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 4.0])


def test_reference_comparison_tolerance():
    ref = {"x": [1.0, 2.0], "mean": 1e-18}
    assert compare_numbers({"x": [1.0, 2.0], "mean": 3e-18}, ref, "t", 1.0) == []
    assert compare_numbers({"x": [1.0, 2.0 * (1 + 1e-9)], "mean": 1e-18}, ref, "t", 1.0)
    assert compare_numbers({"x": [1.0]}, ref, "t", 1.0)


def test_missing_span_target_is_an_error():
    import driftlab  # noqa: F401

    with pytest.raises(LookupError):
        Tracer(FFTCounter()).install([("driftlab.spaces", "no_such_function", "x", None)])


def test_span_metric_without_spans_is_an_error():
    view = PassView([Span("a", -1, "w#0", 0.0, 1.0)], [1.0], "w", [1.0])
    assert view.ms(view.named("a")) == 1000.0
    with pytest.raises(LookupError):
        view.named("b")
