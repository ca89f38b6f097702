"""Kernel equivalence: every kernel must agree with a loop formulation.

Each kernel has one numpy implementation.  The ``*_backends_agree*`` tests
check it against the element-by-element loops in kernel_reference.py: the
BMO ball scans, the singular lattice sum of the direct oracle in
direct_oracle.py and the Holder pair max.  The
Holder pair max must also equal the frozen numpy loops there exactly, and
the BMO kernel must agree with the frozen windowed kernel there.  The
gathered ball sums must equal the frozen per-offset kernel bit for bit,
and the pruned max over radii and centers must equal its full scan.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import direct_oracle
import kernel_reference
from driftlab import _kernels
from driftlab.grids import GridSpec
from driftlab.operators import near_delta_bump, random_band_limited
from driftlab.spaces import default_bmo_radii


def _rand(shape, seed):
    return np.random.Generator(np.random.PCG64(seed)).standard_normal(shape)


def _bmo_one(v, radius, stride):
    """The mean oscillation maximized over the centers of one radius."""
    return _kernels.ball_deviation_max(v, [radius], stride, np.abs)


def _holder_dist_pow(shape, beta):
    """Weights dist(0, z)^-beta over grid offsets z, zero at z = 0."""
    N = shape[0]
    o = np.arange(N)
    dist1 = np.minimum(o, N - o) * (1.0 / N)
    dist = dist1 if len(shape) == 1 else np.sqrt(dist1[:, None] ** 2 + dist1[None, :] ** 2)
    dist_pow = np.where(dist > 0, dist, 1.0) ** (-beta)
    dist_pow[(0,) * len(shape)] = 0.0
    return dist_pow


@given(st.integers(0, 1000), st.sampled_from([0.1, 0.25, 0.5]))
def test_bmo_backends_agree_1d(seed, radius):
    v = _rand(64, seed)
    (offs,) = _kernels.ball_offsets(1, 64, radius)
    ref = kernel_reference.bmo_osc_1d(v, offs, 1)
    b = _bmo_one(v, radius, 1)
    assert ref == pytest.approx(b, rel=1e-12)


@given(st.integers(0, 1000))
def test_bmo_backends_agree_2d(seed):
    v = _rand((16, 16), seed)
    offs_i, offs_j = _kernels.ball_offsets(2, 16, 0.25)
    ref = kernel_reference.bmo_osc_2d(v, offs_i, offs_j, 2)
    b = _bmo_one(v, 0.25, 2)
    assert ref == pytest.approx(b, rel=1e-12)


def _bmo_loop(v, radius, stride):
    offsets = _kernels.ball_offsets(v.ndim, v.shape[0], radius)
    if v.ndim == 1:
        return kernel_reference.bmo_osc_1d(v, *offsets, stride)
    return kernel_reference.bmo_osc_2d(v, *offsets, stride)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("N", [8, 16, 32])
@pytest.mark.parametrize("stride", [1, 2, 4])
def test_bmo_matches_ball_scan(d, N, stride):
    v = _rand((N,) * d, 10 * N + stride)
    for radius in (0.5, 0.25, 0.3, 1.0 / N):
        assert _bmo_one(v, radius, stride) == pytest.approx(
            _bmo_loop(v, radius, stride), rel=1e-12
        )


@pytest.mark.parametrize("d", [1, 2])
def test_bmo_stride_not_dividing_n(d):
    # centers 0, 5, ..., 20: the last one's balls wrap past the row end
    v = _rand((24,) * d, 3)
    for radius in (0.5, 0.25, 0.1):
        assert _bmo_one(v, radius, 5) == pytest.approx(
            _bmo_loop(v, radius, 5), rel=1e-12
        )


@pytest.mark.parametrize("shape", [(32,), (16, 16)])
@pytest.mark.parametrize("stride", [1, 3])
def test_bmo_constant_and_zero_exact(shape, stride, monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("ball sums of a constant field")

    monkeypatch.setattr(_kernels, "ball_deviation", unexpected)
    for value in (0.0, 4.0, -1e300, np.pi):
        v = np.full(shape, value)
        for radius in (0.5, 0.25, 1.0 / 16):
            for dev in (np.abs, np.square):
                got = _kernels.ball_deviation_max(v, [radius], stride, dev)
                assert got == 0.0 and np.copysign(1.0, got) == 1.0


@given(
    st.sampled_from([16, 24]),
    st.integers(1, 5),
    st.floats(0.3, 0.5, exclude_min=True),
    st.integers(0, 1000),
)
@settings(max_examples=30, deadline=None)
def test_bmo_large_balls_match_ball_scan(N, stride, radius, seed):
    # above r ~ 0.4 a 2-d ball holds more than half of the nodes and is summed
    # over its complement; strides 3 and 5 do not divide 16 or 24
    v = _rand((N, N), seed)
    assert _bmo_one(v, radius, stride) == pytest.approx(
        _bmo_loop(v, radius, stride), rel=1e-12
    )
    # in 1-d the r = 1/2 ball is the whole circle: its complement is empty
    w = v[0]
    assert _bmo_one(w, 0.5, stride) == pytest.approx(
        _bmo_loop(w, 0.5, stride), rel=1e-12
    )


def _frozen_kernel_fields(d, N):
    grid = GridSpec(d=d, N=N)
    bump = near_delta_bump(grid, 0.02).values
    shift = tuple(int(s) for s in np.random.default_rng(N).integers(0, N, size=d))
    return grid, {
        "noise": random_band_limited(grid, 8 if d == 2 else 16, seed=N + d).values,
        "near_delta": np.roll(bump, shift, axis=tuple(range(d))),
    }


@pytest.mark.parametrize(
    "d,N,stride", [(2, 128, 2), (2, 128, 4), (2, 256, 8), (2, 64, 1), (1, 1024, 16)]
)
def test_bmo_matches_frozen_window_kernel(d, N, stride):
    # per-offset and complement sums against the windowed kernel they replace,
    # at every center of every radius of the default ladder
    grid, fields = _frozen_kernel_fields(d, N)
    n_centers = -(-N // stride)
    for v in fields.values():
        for radius in default_bmo_radii(grid):
            offsets = _kernels.ball_offsets(d, N, radius)
            ref = kernel_reference.ball_deviation_windows(v, offsets, stride, n_centers, np.abs)
            new = _kernels.ball_deviation(v, offsets, stride, np.abs)
            assert new.shape == ref.shape
            assert np.max(np.abs(new - ref)) <= 1e-11 * np.max(ref)


def _profiles(d, N):
    """Radii and fields whose BMO max sits in different places: noise
    (small balls), a sign field and a sine (the largest radius), a log
    shear (a logarithmic spike, the lab's BMO-but-not-bounded drift), and a
    near-delta bump and a one-node spike (one ball, where the L2 bound is
    loosest)."""
    x = np.arange(N) / N
    profile = {
        "sign": np.sign(np.sin(2 * np.pi * x) + 0.5 / N),
        "sine": np.sin(2 * np.pi * x + 0.3),
        "log_shear": np.log(np.abs(np.sin(np.pi * x)) + 2.0**-8),
    }
    fields = {k: v if d == 1 else np.add.outer(np.zeros(N), v) for k, v in profile.items()}
    fields["noise"] = _rand((N,) * d, 7 * N + d)
    fields["spike"] = np.zeros((N,) * d)
    fields["spike"][(N // 3,) * d] = 1.0
    radii = [0.5, 0.25, 0.3, 1.0 / N]
    if N & (N - 1) == 0:
        grid = GridSpec(d=d, N=N)
        fields["near_delta"] = np.roll(near_delta_bump(grid, 0.02).values, N // 3, axis=0)
        radii = default_bmo_radii(grid) + [0.3, 1.0 / N]
    return radii, fields


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("N,stride", [(24, 5), (32, 1), (32, 3), (64, 2)])
def test_gathered_ball_sums_are_the_frozen_offset_sums(d, N, stride):
    # every center, and a subset of centers, bit for bit: the same means,
    # the same terms in the same order, the same complement path
    radii, fields = _profiles(d, N)
    rng = np.random.default_rng(N + stride)
    for v in fields.values():
        for radius in radii:
            offsets = _kernels.ball_offsets(d, N, radius)
            for dev in (np.abs, np.square):
                want = kernel_reference.ball_deviation_offsets(v, offsets, stride, dev)
                got = _kernels.ball_deviation(v, offsets, stride, dev)
                assert got.tobytes() == want.tobytes()
                centers = rng.choice(want.size, size=1 + want.size // 3, replace=False)
                part = _kernels.ball_deviation(v, offsets, stride, dev, centers=centers)
                assert part.tobytes() == want.reshape(-1)[centers].tobytes()


@pytest.mark.parametrize(
    "d,N,strides",
    [(1, 8, (1, 2, 4)), (1, 64, (1, 2, 4)), (1, 256, (1, 2, 4)), (1, 1024, (4, 16)),
     (2, 8, (1, 2, 4)), (2, 16, (1, 2, 4)), (2, 32, (1, 2, 4)), (2, 64, (1, 2, 4)),
     (2, 128, (2, 4)), (2, 256, (4,))],
)
def test_pruned_max_equals_full_scan(d, N, strides):
    radii, fields = _profiles(d, N)
    for name, v in fields.items():
        if N == 256 and d == 2 and name not in ("noise", "sign"):
            continue  # one full scan at this size takes ~0.4 s
        for stride in strides:
            for dev in (np.abs, np.square):
                want = kernel_reference.ball_deviation_full_max(v, radii, stride, dev)
                got = _kernels.ball_deviation_max(v, radii, stride, dev)
                assert got == want, (name, stride, dev.__name__)


def _diagnose_bmo_inputs(seed):
    """The BMO inputs of the diagnose benchmark at a seed, with their
    strides N // 64: band-limited noise at d=2, N=128 and d=1, N=1024, and
    a seeded shift of the near-delta bump at d=2, N=128."""
    g2, g1 = GridSpec(d=2, N=128), GridSpec(d=1, N=1024)
    shift = tuple(int(s) for s in np.random.default_rng(seed).integers(0, 128, size=2))
    bump = np.roll(near_delta_bump(g2, 0.02).values, shift, axis=(0, 1))
    return [
        (g2, random_band_limited(g2, 8, seed=seed).values, 2),
        (g2, bump, 2),
        (g1, random_band_limited(g1, 16, seed=seed).values, 16),
    ]


@pytest.mark.parametrize("seed", [0, 3, 101])
def test_pruned_max_equals_full_scan_on_diagnose_inputs(seed):
    for grid, v, stride in _diagnose_bmo_inputs(seed):
        radii = default_bmo_radii(grid)
        for dev in (np.abs, np.square):
            want = kernel_reference.ball_deviation_full_max(v, radii, stride, dev)
            assert _kernels.ball_deviation_max(v, radii, stride, dev) == want


@pytest.mark.parametrize("shape", [(64,), (16, 16)])
@pytest.mark.parametrize("stride", [1, 3])
def test_pruned_max_at_extreme_amplitudes(shape, stride):
    # 1e-200: g^2 would underflow without the normalisation, and squares do;
    # 1e200: squares overflow; 1e6 + 1e-6 noise: a large mean, small
    # oscillation.  Outside the bound's range every ball is summed.
    radii = [0.5, 0.3, 0.25, 0.125, 1.0 / shape[0]]
    noise = _rand(shape, 5)
    for v in (1e-200 * noise, 1e200 * noise, 1e6 + 1e-6 * noise, 1e-155 * noise):
        for dev in (np.abs, np.square):
            with np.errstate(over="ignore"):
                want = kernel_reference.ball_deviation_full_max(v, radii, stride, dev)
                got = _kernels.ball_deviation_max(v, radii, stride, dev)
            assert got == want


def test_pruned_max_takes_abs_or_square_and_any_radii():
    v = _rand(16, 0)
    with pytest.raises(ValueError, match="dev"):
        _kernels.ball_deviation_max(v, [0.25], 1, np.negative)
    assert _kernels.ball_deviation_max(v, [], 1, np.abs) == 0.0
    want = kernel_reference.ball_deviation_full_max(v, [0.25, 0.5], 1, np.abs)
    assert _kernels.ball_deviation_max(v, (r for r in (0.25, 0.5)), 1, np.abs) == want


@pytest.mark.parametrize("d,N", [(1, 16), (1, 1024), (2, 16), (2, 128), (2, 256)])
def test_ball_kernels_kept_per_radius_give_the_cold_bits(d, N):
    radii = default_bmo_radii(GridSpec(d=d, N=N))
    stride = max(1, N // 64)
    v = random_band_limited(GridSpec(d=d, N=N), 4, seed=N + d).values

    def results():
        out = [means.tobytes() + bound.tobytes()
               for _, means, bound in _kernels.ball_deviation_bounds(v, radii, stride, np.abs)]
        return out + [_kernels.ball_deviation_max(v, radii, stride, dev) for dev in (np.abs, np.square)]

    kernel = _kernels._ball_kernel
    kernel.cache_clear()
    cold = results()
    assert kernel.cache_info().misses == len(radii)
    assert results() == cold
    assert kernel.cache_info().misses == len(radii)
    for radius in radii:
        offsets, ball_conj = kernel(d, N, radius)
        for got, want in zip(offsets, _kernels.ball_offsets(d, N, radius)):
            assert got.tobytes() == want.tobytes()
        for a in (*offsets, ball_conj):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
    # more balls of another grid than the cache keeps
    for k in range(kernel.cache_info().maxsize):
        kernel(1, 8, 0.01 * (k + 1))
    assert kernel.cache_info().currsize == kernel.cache_info().maxsize
    misses = kernel.cache_info().misses
    assert results() == cold
    assert kernel.cache_info().misses > misses


@pytest.mark.parametrize("d,N,stride", [(1, 256, 1), (2, 32, 1), (2, 64, 2), (2, 24, 5)])
def test_every_ball_value_is_at_most_its_bound(d, N, stride):
    radii, fields = _profiles(d, N)
    fields["offset"] = 1e6 + 1e-6 * fields["noise"]
    for v in fields.values():
        for dev in (np.abs, np.square):
            per_radius = _kernels.ball_deviation_bounds(v, radii, stride, dev)
            for radius, (m, means, bound) in zip(radii, per_radius):
                offsets = _kernels.ball_offsets(d, N, radius)
                assert m == offsets[0].size
                exact = _kernels.ball_deviation(v, offsets, stride, dev)
                assert exact.shape == bound.shape == means.shape
                assert np.all(exact <= bound)


def _assert_singular_agrees(shape, seed):
    v = _rand(shape, seed)
    K = np.abs(_rand(shape, seed + 1))
    K[(0,) * len(shape)] = 0.0
    loop = kernel_reference.kernel_apply_1d if len(shape) == 1 else kernel_reference.kernel_apply_2d
    ref = loop(v, K, 1.0 / 64)
    b = direct_oracle.singular_kernel_apply(v, K, 1.0 / 64)
    assert np.max(np.abs(ref - b)) < 1e-12 * max(np.max(np.abs(ref)), 1.0)


@given(st.integers(0, 1000))
def test_singular_backends_agree(seed):
    for shape in [(64,), (47,), (9, 9), (16, 16)]:
        _assert_singular_agrees(shape, seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_singular_backends_agree_2d_n32(seed):
    # at N=32 the 2-d loop makes N^4 Python steps, too slow for every example above
    _assert_singular_agrees((32, 32), seed)


@given(st.integers(0, 1000), st.sampled_from([0.1, 0.3, 0.45]))
def test_holder_backends_agree(seed, beta):
    v = _rand(48, seed)
    ref = kernel_reference.holder_1d(v, _holder_dist_pow(v.shape, beta))
    b = _kernels.holder_pair_max(v, beta)
    assert ref == pytest.approx(b, rel=1e-12)


def test_holder_backends_agree_2d():
    v = _rand((12, 12), 7)
    ref = kernel_reference.holder_2d(v, _holder_dist_pow(v.shape, 0.3))
    b = _kernels.holder_pair_max(v, 0.3)
    assert ref == pytest.approx(b, rel=1e-12)


# one low mode: for beta = 0.1 the max quotient sits at the offset N/2 along
# the mode's axis, an offset that is its own partner -z
_COS8 = np.cos(2 * np.pi * np.arange(8) / 8)
_COS16 = np.cos(2 * np.pi * np.arange(16) / 16)
# the 64 x 64 decimation of an N = 128 near-delta bump, as the holder
# diagnostic measures it
_BUMP64 = near_delta_bump(GridSpec(d=2, N=128), width=0.02).values[::2, ::2]


@pytest.mark.parametrize(
    "v",
    [_rand(s, 11) for s in [(47,), (48,), (64,), (9, 9), (12, 12), (16, 16)]]
    + [_COS8, np.outer(_COS8, np.ones(8)), np.outer(np.ones(8), _COS8)]
    + [_rand(1024, 12), _rand((64, 64), 13)]
    + [np.full((16, 16), 2.5), _BUMP64, np.outer(_COS16, np.ones(16))],
)
def test_holder_pair_halving_exact(v):
    # visiting one offset of each pair {z, -z}, nearest first and only while
    # a farther offset can still win, gives the very same float
    loop = kernel_reference.holder_1d_numpy if v.ndim == 1 else kernel_reference.holder_2d_numpy
    for beta in (0.05, 0.1, 0.3, 0.45):
        expected = loop(v, _holder_dist_pow(v.shape, beta))
        assert _kernels.holder_pair_max(v, beta) == expected


def test_holder_pair_constant_visits_nothing(monkeypatch):
    # osc = 0 stops the scan before the first offset: no row is ever rolled
    def no_roll(*args, **kwargs):
        raise AssertionError("an offset was visited")

    monkeypatch.setattr(np, "roll", no_roll)
    for v in (np.full(64, -3.0), np.full((16, 16), 2.5)):
        assert _kernels.holder_pair_max(v, 0.3) == 0.0


def test_holder_pair_max_at_the_last_offset_visited():
    # one low mode at beta = 0.05: the max quotient sits at the offset
    # (N/2, 0), at distance 1/2, and the stop rule prunes every farther one
    v = np.outer(_COS16, np.ones(16))
    w = _holder_dist_pow(v.shape, 0.05)
    q = np.array(
        [[np.abs(v - np.roll(v, (-i, -j), axis=(0, 1))).max() * w[i, j] for j in range(16)]
         for i in range(16)]
    )
    best = q.max()
    assert q[8, 0] == best
    assert np.all((v.max() - v.min()) * w[w < w[8, 0]] <= best)
    assert _kernels.holder_pair_max(v, 0.05) == best


@given(
    st.integers(0, 1000),
    st.sampled_from([(16,), (47,), (64,), (5, 5), (8, 8), (13, 13)]),
    st.floats(0.01, 0.49),
    st.sampled_from(["noise", "smooth", "spike"]),
)
def test_holder_pair_max_equals_full_scan(seed, shape, beta, kind):
    # the pruned scan against every offset visited: the same float
    rng = np.random.Generator(np.random.PCG64(seed))
    if kind == "noise":
        v = rng.standard_normal(shape)
    elif kind == "smooth":
        x = np.arange(shape[0]) / shape[0]
        k = rng.integers(1, 3, size=2)
        v = np.cos(2 * np.pi * k[0] * x + rng.uniform(0, 2 * np.pi))
        if len(shape) == 2:
            v = np.add.outer(v, np.sin(2 * np.pi * k[1] * x))
    else:
        v = np.zeros(shape)
        v[tuple(rng.integers(0, shape[0], size=len(shape)))] = rng.uniform(-5, 5)
    loop = kernel_reference.holder_1d_numpy if v.ndim == 1 else kernel_reference.holder_2d_numpy
    assert _kernels.holder_pair_max(v, beta) == loop(v, _holder_dist_pow(shape, beta))


def test_ball_offsets_counts():
    (offs,) = _kernels.ball_offsets(1, 16, 0.25)
    # nodes within distance 1/4 of a node: offsets 0..4 and 12..15
    assert len(offs) == 9
    ii, jj = _kernels.ball_offsets(2, 16, 0.125)
    assert len(ii) == len(jj) == 13
    # the r = 1/2 balls of the loop tests hold more than half of the nodes in
    # 2-d, so ball_deviation sums them over their complement; in 1-d that
    # ball is the whole circle
    for N in (16, 24):
        ii, _ = _kernels.ball_offsets(2, N, 0.5)
        assert 2 * ii.size > N * N
        (offs,) = _kernels.ball_offsets(1, N, 0.5)
        assert offs.size == N
