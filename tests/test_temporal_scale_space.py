import contextlib
import dataclasses
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.integrate import quad
from scipy.ndimage import correlate1d
from scipy.signal import lfilter, sosfilt
from scipy.special import ive
from scipy.stats import gamma as gamma_dist

from tonescale import spectrogram, temporal_scale_space

from tonescale.temporal_scale_space import (
    SampledKernel,
    ScaleLadder,
    SpectrogramFamily,
    TemporalKernelSpec,
    cascade_sections,
    discrete_gaussian_kernel,
    discrete_gaussian_smooth,
    discrete_recursive_smooth,
    discretize_ladder,
    gaussian_derivative_sample,
    gaussian_kernel_sample,
    temporal_profiles,
    warmup_length,
)

from conftest import (
    composed_uniform_kernel_dt,
    composed_uniform_kernel_dtt,
    composed_uniform_kernel_sample,
    count_local_extrema,
    one_stage_ladder,
    sos_rows,
)


def test_gaussian_kernel_is_normalized_density():
    tau = 0.37
    mass, _ = quad(lambda t: gaussian_kernel_sample(tau, t), -10, 10)
    assert mass == pytest.approx(1.0, abs=1e-12)
    peak = gaussian_kernel_sample(tau, 0.0)
    assert peak == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * tau), rel=1e-14)


@pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
def test_gaussian_kernel_refuses_a_scale_that_is_not_positive_and_finite(tau):
    """A NaN scale gave NaN samples and an infinite one zeros."""
    with pytest.raises(ValueError, match="positive and finite"):
        gaussian_kernel_sample(tau, 0.0)
    with pytest.raises(ValueError, match="positive and finite"):
        gaussian_derivative_sample(tau, 0.0, 1)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_gaussian_derivatives_match_finite_differences(order):
    tau = 0.41
    t = np.linspace(-2.5, 2.5, 41)
    h = 1e-3 if order <= 2 else 5e-3
    analytic = gaussian_derivative_sample(tau, t, order)
    stencil = {
        1: ([-0.5, 0.0, 0.5], [-1, 0, 1]),
        2: ([1.0, -2.0, 1.0], [-1, 0, 1]),
        3: ([-0.5, 1.0, 0.0, -1.0, 0.5], [-2, -1, 0, 1, 2]),
        4: ([1.0, -4.0, 6.0, -4.0, 1.0], [-2, -1, 0, 1, 2]),
    }[order]
    weights, offsets = stencil
    numeric = sum(
        w * gaussian_kernel_sample(tau, t + k * h) for w, k in zip(weights, offsets)
    ) / h ** order
    assert np.max(np.abs(analytic - numeric)) < 1e-4 * np.max(np.abs(analytic))


def test_composed_uniform_kernel_is_gamma_density():
    # Equal-stage exponential cascade: shape K, scale mu.
    mu, K = 0.05, 6
    t = np.linspace(1e-9, 1.5, 400)
    ours = composed_uniform_kernel_sample(mu, K, t)
    ref = gamma_dist.pdf(t, a=K, scale=mu)
    assert np.max(np.abs(ours - ref)) < 1e-10 * ref.max()
    assert composed_uniform_kernel_sample(mu, K, -0.3) == 0.0


@pytest.mark.parametrize("K", [2, 3, 5])
def test_composed_uniform_derivatives_match_finite_differences(K):
    mu = 0.07
    t = np.linspace(0.01, 1.2, 200)
    h = 1e-6
    d1 = composed_uniform_kernel_dt(mu, K, t)
    d1_num = (
        composed_uniform_kernel_sample(mu, K, t + h)
        - composed_uniform_kernel_sample(mu, K, t - h)
    ) / (2 * h)
    assert np.max(np.abs(d1 - d1_num)) < 1e-3 * np.max(np.abs(d1))
    d2 = composed_uniform_kernel_dtt(mu, K, t)
    h = 1e-5
    d2_num = (
        composed_uniform_kernel_sample(mu, K, t + h)
        - 2 * composed_uniform_kernel_sample(mu, K, t)
        + composed_uniform_kernel_sample(mu, K, t - h)
    ) / h ** 2
    assert np.max(np.abs(d2 - d2_num)) < 1e-3 * np.max(np.abs(d2))


def test_uniform_ladder_levels_and_stage_constants():
    lad = SpectrogramFamily("rec-uni", K=4).ladder(0.64)
    assert lad.levels == pytest.approx([0.16, 0.32, 0.48, 0.64])
    assert lad.mus == pytest.approx([0.4, 0.4, 0.4, 0.4])


def test_logarithmic_ladder_variances_telescope():
    # Stage variances must add up to the running scale levels.
    lad = SpectrogramFamily("rec-log", K=7, c=math.sqrt(2.0)).ladder(1.0)
    running = np.cumsum(np.square(lad.mus))
    assert running == pytest.approx(lad.levels, rel=1e-12)
    ratios = np.array(lad.levels[1:]) / np.array(lad.levels[:-1])
    assert ratios == pytest.approx(np.full(6, 2.0), rel=1e-12)


def test_families_that_build_the_same_kernels_compare_equal():
    """The fields a kind ignores are None: K and c for gauss, c for rec-uni.
    A map's RFSpec then compares equal for the same smoothing."""
    gauss = SpectrogramFamily("gauss", K=4, c=2.0)
    assert (gauss.K, gauss.c) == (None, None)
    assert gauss == SpectrogramFamily("gauss")
    assert gauss.temporal(1e-4) == TemporalKernelSpec.gaussian(1e-4)
    uniform = SpectrogramFamily("rec-uni", c=2.0)
    assert (uniform.K, uniform.c) == (7, None)
    assert uniform == SpectrogramFamily("rec-uni")
    assert uniform.temporal(1e-4) == SpectrogramFamily("rec-uni").temporal(1e-4)
    assert SpectrogramFamily("rec-uni", K=4) != SpectrogramFamily("rec-uni")
    assert SpectrogramFamily("rec-log", c=2.0) != SpectrogramFamily("rec-log")


def test_ladder_rejects_bad_arguments():
    """The family refuses a bad K or c when it is built, not when its
    ladder is first asked for; the ladder refuses a bad scale."""
    for kind in ("rec-uni", "rec-log"):
        for tau in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="ladder scale tau"):
                SpectrogramFamily(kind, K=3).ladder(tau)
        for K in (0, -1, 2.5, 3.0, "3", None, True):  # True was a one-stage cascade
            with pytest.raises(ValueError, match="whole stage count"):
                SpectrogramFamily(kind, K=K)
    for c in (1.0, 0.5, math.nan, math.inf, None):
        with pytest.raises(ValueError, match="finite ratio c > 1"):
            SpectrogramFamily("rec-log", K=3, c=c)
    # gauss ignores K and c, rec-uni ignores c
    uniform = SpectrogramFamily("rec-uni", K=3).ladder(1.0)
    for c in (1.0, math.nan, math.inf, None):
        assert SpectrogramFamily("rec-uni", K=3, c=c).ladder(1.0) == uniform
        assert not SpectrogramFamily("gauss", K=2.5, c=c).causal
    assert SpectrogramFamily("rec-uni", K=np.int64(3)).ladder(1.0).K == 3
    with pytest.raises(ValueError, match="no scale ladder"):
        SpectrogramFamily("gauss").ladder(1.0)
    with pytest.raises(ValueError, match="units"):
        ScaleLadder((1.0,), (1.0,), units="second")
    # levels and stage constants must pair up, at least one of each, and
    # the levels must rise
    bad = [((), ()), ((1.0, 2.0), (1.0,)), ((1.0,), (0.5, 0.5)), ((1.0, 1.0), (1.0, 0.0))]
    for levels, mus in bad:
        with pytest.raises(ValueError):
            ScaleLadder(levels, mus)


def test_ladder_is_its_levels_and_stage_constants():
    """A ladder holds its levels, stage constants and units; tau_max and K
    are read off them, and the top level is tau_max exactly."""
    assert [f.name for f in dataclasses.fields(ScaleLadder)] == ["levels", "mus", "units"]
    for tau in (0.3, 1e-4, 7.0):
        for lad in (
            SpectrogramFamily("rec-uni", K=5).ladder(tau),
            SpectrogramFamily("rec-log", K=5, c=2.0**0.75).ladder(tau),
        ):
            assert lad.tau_max == tau and lad.levels[-1] == 1.0 * tau
            assert lad.K == len(lad.mus) == 5
    disc = discretize_ladder(SpectrogramFamily("rec-uni", K=3).ladder(1e-4), 8000.0)
    assert (disc.tau_max, disc.K, disc.units) == (disc.levels[-1], 3, "samples")


def test_discretized_ladder_matches_scale_levels_exactly():
    rate = 16000.0
    lad = discretize_ladder(
        SpectrogramFamily("rec-log", K=5, c=2.0).ladder(4e-4), rate
    )
    mus = np.array(lad.mus)
    # mu^2 + mu telescopes to the discrete scale levels with no residual
    assert np.cumsum(mus * mus + mus) == pytest.approx(lad.levels, rel=1e-12)
    assert lad.levels[-1] == pytest.approx(rate * rate * 4e-4, rel=1e-12)
    with pytest.raises(ValueError):
        discretize_ladder(lad, rate)


@pytest.mark.parametrize("rate", [0.0, -8000.0, math.nan, math.inf])
def test_discretize_ladder_refuses_a_rate_that_is_not_positive_and_finite(rate):
    """A NaN rate gave a ladder of NaN levels and stage constants, and an
    infinite one was refused only as levels that do not increase."""
    ladder = SpectrogramFamily("rec-uni", K=4).ladder(1e-4)
    with pytest.raises(ValueError, match=f"sample rate must be positive and finite, got {rate}"):
        discretize_ladder(ladder, rate)


# A recursive stage, y[n] = y[n-1] + (x[n] - y[n-1]) / (1 + mu), is a
# one-stage ladder.
def test_recursive_stage_impulse_response_is_geometric():
    mu = 3.0
    x = np.zeros(64)
    x[0] = 1.0
    y = discrete_recursive_smooth(x, one_stage_ladder(mu))
    n = np.arange(64)
    expected = (mu / (1.0 + mu)) ** n / (1.0 + mu)
    assert y == pytest.approx(expected, rel=1e-12)
    # unit DC gain
    assert discrete_recursive_smooth(np.ones(4000), one_stage_ladder(mu))[-1] == pytest.approx(
        1.0, abs=1e-6
    )


def test_recursive_stage_steady_state_init_keeps_constants_exact():
    x = np.full(50, 0.8)
    y = discrete_recursive_smooth(x, one_stage_ladder(7.0), steady=True)
    np.testing.assert_array_equal(y, x)


def test_recursive_stage_axis_handling(rng):
    x = rng.normal(size=(30, 5))
    stage = one_stage_ladder(2.5)
    per_col = np.stack([discrete_recursive_smooth(x[:, j], stage) for j in range(5)], axis=1)
    assert discrete_recursive_smooth(x, stage, axis=0) == pytest.approx(per_col, rel=1e-14)


def test_discrete_recursive_smooth_variance_additivity(rng):
    lad = discretize_ladder(
        SpectrogramFamily("rec-log", K=4, c=math.sqrt(2.0)).ladder(1e-4),
        8000.0,
    )
    x = np.zeros(4000)
    x[0] = 1.0
    chans = []
    cur = x
    for mu in lad.mus:
        cur = discrete_recursive_smooth(cur, one_stage_ladder(mu))
        chans.append(cur)
    chans = np.stack(chans)
    assert chans.shape == (4, 4000)
    smoothed = discrete_recursive_smooth(x, lad)
    np.testing.assert_allclose(smoothed, chans[-1], rtol=0.0, atol=LAYER2_RTOL)
    n = np.arange(4000)
    mus = np.array(lad.mus)
    for k in range(4):
        y = chans[k]
        mass = y.sum()
        mean = (n * y).sum() / mass
        var = ((n - mean) ** 2 * y).sum() / mass
        assert mass == pytest.approx(1.0, abs=1e-9)
        assert mean == pytest.approx(mus[: k + 1].sum(), rel=1e-9)
        assert var == pytest.approx((mus[: k + 1] ** 2 + mus[: k + 1]).sum(), rel=1e-9)


# The cascade realisation against the stage-by-stage recursion, relative to
# the peak of the input (a map's largest magnitude in layer 2).
LAYER2_RTOL = 1e-12


def _stage_by_stage(x, mus, axis=-1, steady=False):
    """Reference: the cascade as one lfilter per stage, each started at rest
    or in steady state at its own input's first sample."""
    cur = np.asarray(x)
    for mu in mus:
        b, a = [1.0 / (1.0 + mu)], [1.0, -mu / (1.0 + mu)]
        if steady:
            zi = np.take(cur, [0], axis=axis) * (mu / (1.0 + mu))
            cur = lfilter(b, a, cur, axis=axis, zi=zi)[0]
        else:
            cur = lfilter(b, a, cur, axis=axis)
    return cur


def _one_sosfilt(x, lad, axis=-1, steady=False):
    """Reference: the cascade as one sosfilt over sections built from the
    ladder's time constants, each stage started at rest or in steady state
    at its own input's first sample."""
    sos = sos_rows(lad)
    if not steady:
        return sosfilt(sos, x, axis=axis)
    start = np.take(x, [0], axis=axis)
    zi = []
    for k in range(lad.K):
        state = start * -sos[k, 4]
        zi.append(np.concatenate([state, np.zeros_like(state)], axis=axis)[None])
        start = sosfilt(sos[k : k + 1], start, axis=axis, zi=zi[-1])[0]
    return sosfilt(sos, x, axis=axis, zi=np.concatenate(zi))[0]


def _assert_within(got, want, peak, rtol):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.max(np.abs(got - want), initial=0.0) <= rtol * peak


@pytest.mark.parametrize("kind", ["rec-uni", "rec-log"])
@pytest.mark.parametrize("K", [1, 4, 7])
def test_one_sosfilt_equals_the_stage_by_stage_cascade(kind, K, rng):
    """The oracle is scipy's one sosfilt over the sections, which is the
    stage-by-stage cascade bit for bit; the block recursion stays within
    LAYER2_RTOL of the input peak of both. Its stages are the rows
    [1/(1+mu), mu/(1+mu)]."""
    lad = discretize_ladder(SpectrogramFamily(kind, K=K, c=math.sqrt(2.0)).ladder(1e-3), 1000.0)
    mus = np.array(lad.mus)
    stages = cascade_sections(lad)
    assert stages.dtype == float
    assert np.array_equal(stages, np.stack([1.0 / (1.0 + mus), mus / (1.0 + mus)], axis=1))
    real = rng.normal(size=400) * 30.0 - 50.0
    cplx = real * np.exp(-0.7j * np.arange(400))
    grid = rng.normal(size=(120, 9)) * 30.0 - 50.0
    for x in (real, cplx):
        want = _stage_by_stage(x, lad.mus)
        assert np.array_equal(_one_sosfilt(x, lad), want)
        _assert_within(discrete_recursive_smooth(x, lad), want, np.max(np.abs(x)), LAYER2_RTOL)
    for steady in (False, True):
        for axis, x in ((0, grid), (1, grid.T.copy()), (-1, grid.T.copy())):
            want = _stage_by_stage(x, lad.mus, axis=axis, steady=steady)
            assert np.array_equal(_one_sosfilt(x, lad, axis=axis, steady=steady), want)
            got = discrete_recursive_smooth(x, lad, axis=axis, steady=steady)
            _assert_within(got, want, np.max(np.abs(x)), LAYER2_RTOL)
        _assert_within(
            discrete_recursive_smooth(real, one_stage_ladder(lad.mus[0]), steady=steady),
            _stage_by_stage(real, lad.mus[:1], steady=steady),
            np.max(np.abs(real)),
            LAYER2_RTOL,
        )


# A block spans 32 samples at hop 1: lengths of 1, below one block, one
# block exactly and a few blocks with a remainder.
@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["rec-uni", "rec-log"]),
    K=st.integers(1, 8),
    c=st.floats(1.1, 2.0),
    tau_frames=st.floats(0.5, 5e3),
    n=st.sampled_from([1, 2, 31, 32, 33, 100, 257]),
    lanes=st.integers(1, 4),
    axis=st.sampled_from([0, 1, -1]),
    steady=st.booleans(),
    complex_input=st.booleans(),
    offset=st.floats(-200.0, 200.0),
    seed=st.integers(0, 2**32 - 1),
)
@example("rec-uni", 8, 2.0, 5e3, 257, 4, 0, True, True, -200.0, 1)
def test_discrete_recursive_smooth_stays_within_the_layer2_bound(
    kind, K, c, tau_frames, n, lanes, axis, steady, complex_input, offset, seed
):
    """Against the sosfilt oracle: both ladders, K 1-8, stage constants
    from below one frame to about 60 frames (tau up to 5e3 frames^2), real
    and complex maps on a dB-like offset, every axis, steady and rest
    starts."""
    lad = discretize_ladder(SpectrogramFamily(kind, K=K, c=c).ladder(tau_frames), 1.0)
    rng = np.random.default_rng(seed)
    x = offset + 30.0 * rng.normal(size=(n, lanes))
    if complex_input:
        x = x * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=x.shape))
    if axis != 0:
        x = x.T.copy()
    want = _one_sosfilt(x, lad, axis=axis, steady=steady)
    got = discrete_recursive_smooth(x, lad, axis=axis, steady=steady)
    _assert_within(got, want, np.max(np.abs(x)), LAYER2_RTOL)


def test_a_constant_stretch_settles_to_its_exact_value():
    """A step comes out monotone and reaches its level exactly, from rest and
    from a steady start, as a stage-by-stage recursion does."""
    lad = discretize_ladder(SpectrogramFamily("rec-log").ladder(4e-4), 1000.0)
    after = np.arange(3000) >= 400
    for steady, before in ((False, 0.0), (True, -60.0)):
        for sign in (1.0, -1.0):
            x = sign * np.where(after, 17.25, before)
            y = discrete_recursive_smooth(x, lad, steady=steady)
            assert np.all(np.diff(y) * np.sign(x[-1] - x[0]) >= 0.0)
            assert y[-1] == x[-1]
            if steady:
                assert np.all(y[:400] == x[0])


@pytest.mark.parametrize(
    "patch",
    [
        {},
        {"_CHUNK_ELEMENTS": 1, "_CHUNK_ROWS": 1},
        {"_CHUNK_ELEMENTS": 1 << 24, "_CHUNK_ROWS": 3},
        {"_WEIGHT_ELEMENTS": 1},
    ],
    ids=["default", "one-block-chunks", "one-chunk", "one-set-groups"],
)
def test_block_cascade_does_not_depend_on_chunks_groups_or_lanes(patch, monkeypatch, rng):
    """Maps of the one signal come out bit for bit the same whatever the
    chunk and group sizes, and a set alone as beside the others, for each
    shape of block."""
    lad = discretize_ladder(SpectrogramFamily("rec-uni", K=4).ladder(4e-4), 1000.0)
    sections = np.stack([cascade_sections(lad, w) for w in (0.3, 1.1, 2.9)])
    x = rng.normal(size=1500) * 20.0 - 40.0
    block_cascade = temporal_scale_space._block_cascade
    want = {hop: block_cascade(x, sections, hop) for hop in (1, 7, 400)}
    for name, value in patch.items():
        monkeypatch.setattr(temporal_scale_space, name, value)
    for hop, map_ in want.items():
        assert map_.shape == (-(-x.size // hop), 3)
        assert np.array_equal(block_cascade(x, sections, hop), map_)
        for s in (0, 2):
            alone = block_cascade(x, sections[s : s + 1], hop)
            assert np.array_equal(alone[:, 0], map_[:, s])


@pytest.fixture
def blas_threads():
    """The BLAS thread-count getter, with the count set to 2 and restored after."""
    calls = temporal_scale_space._openblas_threads()
    if calls is None:
        pytest.skip("this BLAS build exports no thread-count calls")
    get, put = calls
    before = get()
    put(2)
    yield get
    put(before)


def _driver_runs(driver, rng):
    """Calls of one driver of the block and band products. Causal layer 1
    runs two folded cascades over one signal. Layer 2 runs on a 200-frame
    map of the default grid (368 channels, 1 ms frames): the ladders of the
    smoothing pass at tau_a, of the second-moment integration over the
    1104-lane stack of its three products, a K = 12 ladder and one stage;
    the channel pass, on the map and the stack, and the bank's 60 ms
    Gaussian window, whose band is wider than one inner pass."""
    if driver == "_block_cascade":
        lad = discretize_ladder(SpectrogramFamily("rec-log").ladder(4e-4), 1000.0)
        sections = np.stack([cascade_sections(lad, w) for w in (0.3, 1.1)])
        x = rng.normal(size=500)
        return [lambda: temporal_scale_space._block_cascade(x, sections, 7)]
    if driver == "gauss_layer1":  # its products run on the channel pool's threads
        grid = spectrogram.build_frequency_grid(60.0, 72.0, 12)
        x = rng.normal(size=16000)
        family = SpectrogramFamily("gauss")
        return [lambda: spectrogram.compute_spectrogram(x, 8000.0, grid, family, hop=11)]
    L = rng.normal(-40.0, 15.0, size=(200, 368))
    stack = np.stack([L * L, -L, 2.0 * L], axis=-1)
    if driver == "discrete_recursive_smooth":
        smooth = discrete_recursive_smooth
        scales = ((7, 0.02**2), (7, 0.06**2), (12, 4e-3))
        ladders = (SpectrogramFamily("rec-log", K=K).ladder(tau) for K, tau in scales)
        tau_a, tau_i, long = (discretize_ladder(lad, 1000.0) for lad in ladders)
        return [
            lambda: smooth(L, tau_a, axis=0, steady=True),
            lambda: smooth(stack, tau_i, axis=0, steady=True),
            lambda: smooth(L, long, axis=0),
            lambda: smooth(L, one_stage_ladder(3.5), axis=0),
        ]
    smooth = discrete_gaussian_smooth
    channels, window = discrete_gaussian_kernel(4.0), discrete_gaussian_kernel(0.06**2 * 1e6)
    return [
        lambda: smooth(L, channels, axis=1),
        lambda: smooth(stack, channels, axis=1),
        lambda: smooth(L, window, axis=0),
    ]


DRIVERS = ["_block_cascade", "gauss_layer1", "discrete_recursive_smooth", "discrete_gaussian_smooth"]


@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
def test_each_driver_runs_its_products_on_one_blas_thread(
    driver, raises, blas_threads, monkeypatch, rng
):
    """The BLAS count reads 1 inside every product of causal layer 1's
    block rows, Gauss layer 1's batch folds, layer 2's ladders and its band
    products, and the count from before once each call has left, also when
    a product raises."""
    counts, matmul = [], temporal_scale_space._matmul

    def spy(*args, **kwargs):
        counts.append(blas_threads())
        if raises:
            raise RuntimeError("a product failed")
        return matmul(*args, **kwargs)

    runs = _driver_runs(driver, rng)
    monkeypatch.setattr(temporal_scale_space, "_matmul", spy)
    monkeypatch.setattr(spectrogram, "_matmul", spy)
    for run in runs:
        before = len(counts)
        with pytest.raises(RuntimeError) if raises else contextlib.nullcontext():
            run()
        assert len(counts) > before and set(counts) == {1}
        assert blas_threads() == 2


def test_the_blas_cap_restores_the_count_when_its_last_holder_leaves(blas_threads, monkeypatch):
    """Holders that overlap, as concurrent causal calls do, may leave in any
    order; the count comes back only with the last of them, also when more
    threads than cores take and leave the cap at a short switch interval."""
    cap = temporal_scale_space._one_blas_thread
    first, second = cap(), cap()
    first.__enter__()
    second.__enter__()
    first.__exit__(None, None, None)
    assert blas_threads() == 1
    second.__exit__(None, None, None)
    assert blas_threads() == 2

    def yielding(call):  # a thread switch before every BLAS call widens any race
        def switched(*args):
            time.sleep(0)
            return call(*args)

        return switched

    calls = tuple(map(yielding, temporal_scale_space._openblas_threads()))
    monkeypatch.setattr(temporal_scale_space, "_openblas_threads", lambda: calls)
    seen = []

    def hold():
        for _ in range(200):
            with cap():
                seen.append(blas_threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hold) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(seen) == 1600 and set(seen) == {1}
    assert blas_threads() == 2


def test_the_blas_cap_finds_its_calls_on_numpy_openblas_builds():
    """A numpy built on scipy-openblas exports the thread-count calls that
    the cap uses; a build that lost them would run causal layer 1 threaded
    again without a word."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "scipy-openblas" not in str(blas.get("name")):
        pytest.skip(f"numpy is built on {blas.get('name')}, not scipy-openblas")
    assert temporal_scale_space._openblas_threads() is not None


@pytest.mark.parametrize("steady", [False, True], ids=["rest", "steady"])
def test_a_ladder_lane_does_not_depend_on_the_lanes_beside_it(steady, rng):
    """A lane alone comes out bitwise as inside maps of every width around
    the column multiple, up to the second-moment stack's 1104 lanes, at the
    front and the back."""
    lad = discretize_ladder(SpectrogramFamily("rec-log").ladder(4e-4), 1000.0)
    assert temporal_scale_space._COLUMNS == 8  # lanes are padded to a multiple of it
    x = rng.normal(size=(100, 1104)) * 20.0 - 40.0
    for j in (0, 1103):
        alone = discrete_recursive_smooth(x[:, j : j + 1], lad, axis=0, steady=steady)
        for lanes in (2, 7, 8, 9, 1104):
            part = x[:, :lanes] if j == 0 else x[:, -lanes:]
            got = discrete_recursive_smooth(part, lad, axis=0, steady=steady)
            assert np.array_equal(got[:, 0 if j == 0 else -1], alone[:, 0]), lanes


@pytest.mark.parametrize("steady", [False, True], ids=["rest", "steady"])
def test_a_complex_map_runs_as_its_real_and_imaginary_parts(steady, rng):
    lad = discretize_ladder(SpectrogramFamily("rec-uni", K=4).ladder(4e-4), 1000.0)
    x = (rng.normal(size=(75, 3, 5)) + 1j * rng.normal(size=(75, 3, 5))) * 20.0
    for axis in (0, 1, -1):
        got = discrete_recursive_smooth(x, lad, axis=axis, steady=steady)
        assert got.dtype == complex and got.shape == x.shape
        for part, alone in ((got.real, x.real), (got.imag, x.imag)):
            assert np.array_equal(part, discrete_recursive_smooth(alone, lad, axis=axis, steady=steady))


def test_folded_sections_demodulate_the_cascade(rng):
    """Poles turned by e^{i w} smooth x as the plain poles smooth x e^{-i w n};
    the gains stay real."""
    lad = discretize_ladder(SpectrogramFamily("rec-uni", K=5).ladder(1e-4), 8000.0)
    w = 0.9
    stages = cascade_sections(lad, w)
    plain = cascade_sections(lad)
    assert stages.shape == (5, 2) and stages.dtype == complex
    assert np.array_equal(stages[:, 0], plain[:, 0])
    np.testing.assert_allclose(stages[:, 1], plain[:, 1] * np.exp(1j * w), rtol=1e-15)
    x = rng.normal(size=2000)
    n = np.arange(x.size)
    folded = sosfilt(sos_rows(lad, w), x) * np.exp(-1j * w * n)
    direct = discrete_recursive_smooth(x * np.exp(-1j * w * n), lad)
    np.testing.assert_allclose(folded, direct, rtol=0.0, atol=1e-12 * np.max(np.abs(x)))


def test_discrete_recursive_smooth_steady_mode_keeps_a_constant_map(rng):
    # Each stage starts in steady state at its own input's first row, so a
    # constant map has no settling transient and comes back exactly, in
    # every lane chunk and across a part block.
    lad = discretize_ladder(
        SpectrogramFamily("rec-log", K=7, c=math.sqrt(2.0)).ladder(1e-3), 1000.0
    )
    level = np.concatenate([[0.0, -200.0], rng.normal(size=1102) * 40.0])
    flat = np.tile(level, (1500, 1))
    out = discrete_recursive_smooth(flat, lad, axis=0, steady=True)
    assert out.shape == flat.shape
    np.testing.assert_array_equal(out, flat)
    assert np.all(out[:, 0] == 0.0)
    # at rest the same map rises from zero instead, monotonically to exactly its level
    rest = discrete_recursive_smooth(flat, lad, axis=0)
    assert abs(rest[0, 1]) < 200.0 * 0.01
    assert np.array_equal(rest[-1], level)
    assert np.all(np.diff(rest, axis=0) * np.sign(level) >= 0.0)


@pytest.mark.parametrize("K", range(1, 11))
def test_cascade_profiles_match_the_gamma_closed_forms(K):
    """A uniform ladder's phase-type samples, read off about 25 000 powers
    of e^{Q dt}, stay within 1e-12 of each Gamma closed form's peak, and
    the samples at t <= 0 are 0, as the closed forms write them."""
    temporal = SpectrogramFamily("rec-uni", K=K).temporal(0.04)
    lad = temporal.ladder
    dt = math.sqrt(lad.tau_max) / 2000.0
    t = np.arange(-50, int(lad.support / dt)) * dt
    got = temporal_profiles(temporal, t)
    mu = lad.mus[0]
    closed = (composed_uniform_kernel_sample, composed_uniform_kernel_dt, composed_uniform_kernel_dtt)
    for values, form in zip(got, closed):
        want = form(mu, K, t)
        assert np.max(np.abs(values - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.all(values[t <= 0] == 0.0)


def test_cascade_profiles_sample_any_start_of_the_grid():
    """A grid that starts after 0 reads the same kernel as one from 0."""
    temporal = SpectrogramFamily("rec-log", K=7, c=math.sqrt(2.0)).temporal(1e-4)
    t = np.arange(400) * 1e-4
    whole = temporal_profiles(temporal, t)
    for part, full in zip(temporal_profiles(temporal, t[137:]), whole):
        np.testing.assert_allclose(part, full[137:], rtol=0, atol=1e-12 * np.max(np.abs(full)))
    single = temporal_profiles(temporal, t[137:138])
    assert [float(v[0]) for v in single] == pytest.approx([float(v[137]) for v in whole], rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_recursive_smoothing_refuses_a_non_finite_sample(bad):
    """The block recursion multiplies a whole block at once: a NaN at frame
    40 of one lane reached frames 32-39, so a causal output read a later
    frame."""
    lad = discretize_ladder(
        SpectrogramFamily("rec-log", K=7, c=math.sqrt(2.0)).ladder(1e-4), 1000.0
    )
    x = np.zeros((100, 3))
    x[40, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        discrete_recursive_smooth(x, lad, axis=0)
    with pytest.raises(ValueError, match="non-finite"):
        discrete_recursive_smooth(x.T.astype(complex), lad, axis=1, steady=True)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("s", [0.0, 0.25, 40.0])
def test_gaussian_smoothing_refuses_a_non_finite_sample(bad, s):
    """Each band product reads a whole window of samples: a NaN at sample 40
    of one lane would reach every output of its block through the band's
    zeros."""
    x = np.zeros((3, 100))
    x[1, 40] = bad
    with pytest.raises(ValueError, match="non-finite"):
        discrete_gaussian_smooth(x, discrete_gaussian_kernel(s), axis=1)
    with pytest.raises(ValueError, match="non-finite"):
        discrete_gaussian_smooth(x.T, discrete_gaussian_kernel(s), axis=0)


@pytest.mark.parametrize(
    "shape, axis", [((0,), 0), ((0, 3), 0), ((0, 0), 0), ((4, 0), -1), ((3, 0), 0)]
)
def test_smoothers_return_an_empty_input_empty(shape, axis):
    """An empty smoothing axis raised numpy's reshape error from the cascade,
    and zero lanes let it take a ladder in seconds, which every other input
    is refused; the Gaussian returned each empty input as it is shaped.
    The cascade keeps a complex input complex, empty or not."""
    ladder = SpectrogramFamily("rec-uni", K=4).ladder(1e-4)
    got = discrete_gaussian_smooth(np.zeros(shape), discrete_gaussian_kernel(0.25), axis=axis)
    assert (got.shape, got.dtype) == (shape, np.float64)
    for x in (np.zeros(shape), np.zeros(shape, dtype=complex)):
        got = discrete_recursive_smooth(x, discretize_ladder(ladder, 1000.0), axis=axis)
        assert (got.shape, got.dtype) == (shape, x.dtype)
        with pytest.raises(ValueError, match="sample units"):
            discrete_recursive_smooth(x, ladder, axis=axis)


def test_discrete_gaussian_kernel_mass_and_variance():
    for s in (0.5, 4.0, 100.0):
        k = discrete_gaussian_kernel(s, epsilon=1e-10)
        assert k.mass == pytest.approx(1.0, abs=1e-12)
        n = k.times
        assert (n * k.values).sum() == pytest.approx(0.0, abs=1e-9)
        assert (n * n * k.values).sum() == pytest.approx(s, rel=1e-8)


def test_discrete_gaussian_kernel_calls_ive_through_the_module(monkeypatch):
    # Tracing wraps temporal_scale_space.ive to count Bessel evaluations.
    calls = []

    def counting_ive(n, x):
        calls.append(np.size(n))
        return ive(n, x)

    monkeypatch.setattr(temporal_scale_space, "ive", counting_ive)
    discrete_gaussian_kernel(4.0)
    assert calls


def _truncated_gaussian(s, epsilon, n_max):
    """The kernel's truncation rule applied to taps 0..n_max at once."""
    taps = ive(np.arange(n_max + 1), s)
    total = taps[0] + 2.0 * np.cumsum(taps[1:])
    n_half = int(np.nonzero(total > 1.0 - epsilon)[0][0]) + 1
    half = taps[: n_half + 1]
    values = np.concatenate([half[:0:-1], half])
    return values / values.sum(), n_half


def test_discrete_gaussian_tap_search_is_sized_by_sqrt_s(monkeypatch):
    # sigma = 1328 samples, a 30 ms window at 44.1 kHz
    s = 1.764e6
    orders = []

    def counting_ive(n, x):
        orders.append(np.size(n))
        return ive(n, x)

    monkeypatch.setattr(temporal_scale_space, "ive", counting_ive)
    k = discrete_gaussian_kernel(s)
    assert sum(orders) <= 8.0 * math.sqrt(s) + 20.0
    values, n_half = _truncated_gaussian(s, 1e-6, int(s // 20))
    assert k.origin_index == n_half
    assert np.array_equal(k.values, values)

    # a small epsilon needs more than the first guess: the doubling fallback
    orders.clear()
    fine = discrete_gaussian_kernel(s, epsilon=1e-12)
    assert len(orders) > 1
    assert fine.origin_index > 6.0 * math.sqrt(s) + 10.0
    values, n_half = _truncated_gaussian(s, 1e-12, int(s // 20))
    assert fine.origin_index == n_half
    assert np.array_equal(fine.values, values)


def test_discrete_gaussian_refuses_an_epsilon_below_rounding():
    # The tap sum rounds by about 2^-52, so 1 - 1e-17 (which is 1.0) can only
    # be passed by rounding; the refusal allocates nothing map-sized.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"1e-17.*s=123\.4"):
            discrete_gaussian_kernel(123.4, epsilon=1e-17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("s", [1e-3, 123.4, 1626.5, 2e4])
def test_discrete_gaussian_search_ends_past_the_kernels_reach(s, monkeypatch):
    # Taps that never sum past 1 - epsilon (each short by 1e-9): the search
    # stops at its first length past 16 sqrt(s) + 64 taps.
    transform_ive = temporal_scale_space.ive
    orders = []

    def short_ive(n, x):
        orders.append(np.size(n))
        return transform_ive(n, x) * (1.0 - 1e-9)

    monkeypatch.setattr(temporal_scale_space, "ive", short_ive)
    with pytest.raises(ValueError, match="never carries 1 - epsilon"):
        discrete_gaussian_kernel(s, epsilon=1e-10)
    assert max(orders) <= 2 * (16.0 * math.sqrt(s) + 64.0) + 1


def test_discrete_gaussian_keeps_an_epsilon_of_1e_15():
    # SciPy's taps at s = 123.4 summed to 1 - 1.7e-15 and were refused;
    # the transform's sum to 1 - 2.2e-16.
    kernel = discrete_gaussian_kernel(123.4, epsilon=1e-15)
    assert 85 <= kernel.origin_index <= 95
    assert kernel.mass == pytest.approx(1.0, abs=1e-15)
    assert np.all(kernel.values > 0.0)


@settings(max_examples=200, deadline=None)
@given(
    log_z=st.floats(-3.0, 9.0),
    extra=st.integers(0, 3000),
)
def test_ive_matches_scipy(log_z, extra):
    """Orders 0 to past the kernel search's first guess, and a few far out.
    SciPy's own rounding reaches 3.3e-16 of the 40-digit value (at z near
    0.045 and 0.336), so the bound is 2^-51."""
    z = 10.0**log_z
    orders = np.concatenate([np.arange(int(6.0 * math.sqrt(z) + 12)), [extra]])
    got = temporal_scale_space.ive(orders, z)
    assert np.max(np.abs(got - ive(orders, z))) <= 2.0**-51


def test_ive_refuses_orders_and_scales_outside_its_domain():
    with pytest.raises(ValueError, match="integer orders"):
        temporal_scale_space.ive(np.array([0.5]), 1.0)
    with pytest.raises(ValueError, match="integer orders"):
        temporal_scale_space.ive(np.array([-1]), 1.0)
    for z in (-1.0, math.nan, 2.0**30):
        with pytest.raises(ValueError, match="beyond the range of ive"):
            temporal_scale_space.ive(np.arange(3), z)
    assert temporal_scale_space.ive(np.arange(3), 0.0).tolist() == [1.0, 0.0, 0.0]


@settings(max_examples=150, deadline=None)
@given(log_s=st.floats(-3.0, math.log10(2e7)))
def test_discrete_gaussian_kernel_matches_scipy_taps(log_s):
    """The same half-width N for epsilon 1e-3, 1e-6 and 1e-9 as with SciPy's
    taps, and normalised taps within 2^-51."""
    s = 10.0**log_s
    for epsilon in (1e-3, 1e-6, 1e-9):
        got = discrete_gaussian_kernel(s, epsilon)
        want, n_half = _truncated_gaussian(s, epsilon, int(8.0 * math.sqrt(s) + 20.0))
        assert got.origin_index == n_half
        assert np.max(np.abs(got.values - want)) <= 2.0**-51


def test_fft_length_is_scipys_fast_real_length():
    assert [temporal_scale_space._fft_length(n) for n in range(1, 60000)] == [
        next_fast_len(n, real=True) for n in range(1, 60000)
    ]


def test_fft_length_over_3_to_11_is_scipys_fast_complex_length():
    """The Gauss layer-1 frame-bin count Q: pocketfft's 11-smooth lengths."""
    assert [temporal_scale_space._fft_length(n, (3, 5, 7, 11)) for n in range(1, 60000)] == [
        next_fast_len(n) for n in range(1, 60000)
    ]


def test_discrete_gaussian_refuses_a_scale_beyond_ive():
    # A 10 Hz channel with 8-period windows at 44.1 kHz: SciPy's ive is NaN
    # there, ive refuses it, and the tap search once doubled until memory ran
    # out.
    s = (0.8 * 44100.0) ** 2
    assert s > 2.0**30
    with pytest.raises(ValueError, match="beyond the range of ive"):
        discrete_gaussian_kernel(s)
    assert discrete_gaussian_kernel(2.0**30 - 2.0**20).origin_index > 0


def test_discrete_gaussian_semigroup():
    # Composing s1 and s2 equals a single step at s1 + s2.
    s1, s2 = 3.0, 5.0
    x = np.zeros(257)
    x[128] = 1.0
    k1, k2, k12 = (discrete_gaussian_kernel(s, epsilon=1e-12) for s in (s1, s2, s1 + s2))
    once = discrete_gaussian_smooth(discrete_gaussian_smooth(x, k1), k2)
    joint = discrete_gaussian_smooth(x, k12)
    assert np.max(np.abs(once - joint)) < 1e-8


@settings(max_examples=80, deadline=None)
@given(
    shape=st.sampled_from([(1,), (7,), (40,), (3, 1), (5, 33), (2, 70, 3), (9, 4, 2), (1, 300)]),
    axis_pick=st.integers(0, 2),
    log_s=st.floats(-2.0, 4.5),
    seed=st.integers(0, 2**32 - 1),
)
# An axis of one sample, where summing several hundred taps in correlate1d's
# order and the band products' once differed by 2.06e-15 of the largest
# magnitude; the tap sum times x is within 7.4e-16.
@example((1, 300), 0, 3.907002700393673, 3630)
def test_discrete_gaussian_smooth_is_the_reflect_correlation(shape, axis_pick, log_s, seed):
    """Any axis of 1-3-D arrays, kernels from one to several hundred taps
    on each side, so often longer than the axis. Where the axis is shorter
    than the kernel, hundreds of taps read the same few mirrored values, and
    the two summation orders differ by up to 1.5e-15 of the largest
    magnitude (1e-15 on maps, below); on an axis of one sample the result
    is x times the tap sum."""
    axis = axis_pick % len(shape)
    s = 10.0**log_s
    x = np.random.default_rng(seed).normal(-40.0, 20.0, size=shape)
    kernel = discrete_gaussian_kernel(s)
    got = discrete_gaussian_smooth(x, kernel, axis=axis)
    want = correlate1d(x, kernel.values, axis=axis, mode="reflect")
    assert got.shape == x.shape
    assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(x))


@pytest.mark.parametrize("s", [4.0, 64.0, 2500.0])
def test_discrete_gaussian_smooth_rows_do_not_depend_on_their_neighbours(s, monkeypatch, rng):
    """A frame alone, or a map of any number of frames, or a stack of maps,
    smooths each row bitwise the same way, whatever the pass size, within
    1e-15 of the map's largest magnitude of SciPy's correlate1d along either
    axis."""
    x = rng.normal(-40.0, 20.0, size=(503, 368))
    kernel = discrete_gaussian_kernel(s)
    for axis in (0, 1):
        want = correlate1d(x, kernel.values, axis=axis, mode="reflect")
        got = discrete_gaussian_smooth(x, kernel, axis=axis)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(x))
    full = discrete_gaussian_smooth(x, kernel, axis=1)
    for i in (0, 1, 250, 502):
        assert np.array_equal(discrete_gaussian_smooth(x[i], kernel), full[i])
        assert np.array_equal(discrete_gaussian_smooth(x[i : i + 3], kernel, axis=1), full[i : i + 3])
    stack = discrete_gaussian_smooth(np.stack([x, x[::-1]], axis=-1), kernel, axis=1)
    assert np.array_equal(stack[..., 0], full)
    assert np.array_equal(stack[..., 1], full[::-1])
    along_frames = discrete_gaussian_smooth(x, kernel, axis=0)
    for rows, elements in ((1, 1), (3, 1 << 24)):  # one lane per pass, or every lane in one
        for name, value in (("_CHUNK_ROWS", rows), ("_CHUNK_ELEMENTS", elements)):
            monkeypatch.setattr(temporal_scale_space, name, value)
        assert np.array_equal(discrete_gaussian_smooth(x, kernel, axis=1), full)
        assert np.array_equal(discrete_gaussian_smooth(x, kernel, axis=0), along_frames)


def test_discrete_gaussian_smooth_axis_and_identity(rng):
    x = rng.normal(size=(7, 31))
    assert discrete_gaussian_smooth(x, discrete_gaussian_kernel(0.0), axis=1) == pytest.approx(x)
    kernel = discrete_gaussian_kernel(2.0)
    y0 = np.stack([discrete_gaussian_smooth(x[i], kernel) for i in range(7)])
    assert discrete_gaussian_smooth(x, kernel, axis=1) == pytest.approx(y0, rel=1e-13)


@pytest.mark.parametrize(
    "kernel",
    [SampledKernel(np.full(4, 0.25), 1), SampledKernel(np.ones(3) / 3, 2), SampledKernel(np.ones((1, 1)), 0)],
    ids=["even-length", "off-centre", "two-dimensional"],
)
def test_discrete_gaussian_smooth_refuses_a_kernel_not_centred_on_its_origin(kernel):
    with pytest.raises(ValueError, match="2 \\* origin_index \\+ 1"):
        discrete_gaussian_smooth(np.zeros(10), kernel)


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_discrete_gaussian_smooth_refuses_a_complex_array_by_its_dtype(dtype):
    """A complex array is refused, not cast to its real part."""
    x = (np.ones((5, 3)) + 2j).astype(dtype)
    with pytest.raises(ValueError, match=np.dtype(dtype).name):
        discrete_gaussian_smooth(x, discrete_gaussian_kernel(0.25), axis=0)


def test_discrete_gaussian_smooth_at_s_0_is_a_copy_that_keeps_negative_zeros(rng):
    x = rng.normal(size=(5, 40))
    x[:, ::3] = -0.0
    for axis in (0, 1):
        got = discrete_gaussian_smooth(x, discrete_gaussian_kernel(0.0), axis=axis)
        assert got is not x and np.array_equal(np.signbit(got), np.signbit(x))
        assert got.tobytes() == x.tobytes()


def test_smoothing_never_creates_local_extrema(rng):
    lad = discretize_ladder(SpectrogramFamily("rec-uni", K=3).ladder(1e-4), 8000.0)
    kernel = discrete_gaussian_kernel(4.0)
    for _ in range(50):
        x = rng.normal(size=256)
        before = count_local_extrema(x)
        assert count_local_extrema(discrete_recursive_smooth(x, lad)) <= before
        assert count_local_extrema(discrete_gaussian_smooth(x, kernel)) <= before


def test_warmup_length_scales_with_stage_constants():
    lad = discretize_ladder(SpectrogramFamily("rec-uni", K=4).ladder(1e-4), 8000.0)
    assert warmup_length(lad) == math.ceil(5.0 * sum(lad.mus))


def test_warmup_length_refuses_a_count_from_2_to_the_53():
    """Counts stay exact in the layers' int64 sums: 5 * 2^50 is kept, 5 *
    2^51 and a ladder at tau = 1e294 s^2 (once a Python int past int64) are
    refused."""
    assert warmup_length(ScaleLadder((1.0,), (2.0**50,), units="samples")) == 5 * 2**50
    for ladder in (
        ScaleLadder((1.0,), (2.0**51,), units="samples"),
        discretize_ladder(SpectrogramFamily("rec-log").ladder(1e294), 1000.0),
    ):
        with pytest.raises(ValueError, match="not below 2\\^53"):
            warmup_length(ladder)


def test_family_temporal_kernel_matches_its_ladder():
    tau = 0.02 ** 2
    assert SpectrogramFamily("gauss").temporal(tau) == TemporalKernelSpec.gaussian(tau)
    uni = SpectrogramFamily("rec-uni", K=4).temporal(tau)
    assert uni.ladder == SpectrogramFamily("rec-uni", K=4).ladder(tau)
    log = SpectrogramFamily("rec-log", K=7, c=2.0).temporal(tau)
    assert log.ladder == SpectrogramFamily("rec-log", K=7, c=2.0).ladder(tau)


def test_temporal_kernel_is_a_family_at_a_variance():
    """A kernel is the pair (family, tau): its ladder is derived, and a
    sample-unit ladder, which would read as a variance of samples^2, has
    no way in."""
    assert [f.name for f in dataclasses.fields(TemporalKernelSpec)] == ["family", "tau"]
    fam = SpectrogramFamily("rec-uni", K=4)
    temporal = TemporalKernelSpec(fam, 4e-4)
    assert temporal == fam.temporal(4e-4) and temporal.ladder.tau_max == temporal.tau
    with pytest.raises(ValueError, match="no scale ladder"):
        TemporalKernelSpec.gaussian(4e-4).ladder
    for bad in (0.0, -1e-4, math.nan, math.inf):
        with pytest.raises(ValueError, match="gaussian variance tau"):
            TemporalKernelSpec.gaussian(bad)
        with pytest.raises(ValueError, match="ladder scale tau"):
            fam.temporal(bad)
