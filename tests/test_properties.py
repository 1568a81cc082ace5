"""Invariant checks driven by hypothesis.

Each property pins an algebraic contract of the pipeline: linearity and
shift covariance of the recursive smoother, the time recursion of the
logarithmic ladder, kernel mass and semigroup structure, dB reference
scaling, warp invertibility, the ordering of the bandwidth constants
across window families, and covariance of both layers under temporal
scaling.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tonescale.features import detect_onsets, enhance_bands
from tonescale.receptive_fields import RFSpec, apply_rf, glissando_warp
from tonescale.selectivity_analysis import (
    bandwidth_constant,
    selectivity_db_at_constant,
)
from tonescale.spectrogram import (
    SpectrogramFamily,
    TFMap,
    WindowScaleLaw,
    build_frequency_grid,
    compute_spectrogram,
    to_db,
)
from tonescale.temporal_scale_space import (
    TemporalKernelSpec,
    discrete_gaussian_kernel,
    discrete_recursive_smooth,
    discretize_ladder,
)

from conftest import count_local_extrema, one_stage_ladder, sine

RATE = 4000.0


@functools.lru_cache(maxsize=1)
def small_spec():
    grid = build_frequency_grid(60.0, 66.0, 12, law=WindowScaleLaw(n=8.0))
    fam = SpectrogramFamily(kind="rec-log", K=3, c=math.sqrt(2.0))
    x = sine(330.0, 0.4, RATE, amp=0.5)
    return compute_spectrogram(x, RATE, grid, fam, hop=8)


@functools.lru_cache(maxsize=1)
def flat_db_spec() -> TFMap:
    grid = build_frequency_grid(60.0, 72.0, 12, law=WindowScaleLaw(n=8.0))
    fam = SpectrogramFamily(kind="rec-log", K=3, c=math.sqrt(2.0))
    n_frames = 160
    return TFMap(
        values=np.full((n_frames, grid.n_channels), -7.5),
        grid=grid,
        sample_rate=RATE,
        hop=8,
        family=fam,
        warmup_frames=np.zeros(grid.n_channels, dtype=int),
        kind="db",
    )


def discrete_ladder(tau: float, K: int):
    return discretize_ladder(SpectrogramFamily("rec-uni", K=K).ladder(tau), 1.0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    a=st.floats(-4.0, 4.0),
    b=st.floats(-4.0, 4.0),
    tau=st.floats(0.5, 80.0),
    K=st.integers(1, 4),
)
def test_recursive_smoothing_is_linear(seed, a, b, tau, K):
    g = np.random.default_rng(seed)
    x, y = g.normal(size=64), g.normal(size=64)
    lad = discrete_ladder(tau, K)
    mixed = discrete_recursive_smooth(a * x + b * y, lad)
    separate = a * discrete_recursive_smooth(x, lad) + b * discrete_recursive_smooth(y, lad)
    np.testing.assert_allclose(mixed, separate, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shift=st.integers(1, 16), tau=st.floats(0.5, 40.0))
def test_recursive_smoothing_commutes_with_delay(seed, shift, tau):
    g = np.random.default_rng(seed)
    x = g.normal(size=96)
    lad = discrete_ladder(tau, 3)
    delayed = np.concatenate([np.zeros(shift), x])
    y_then_delay = discrete_recursive_smooth(x, lad)
    delay_then_y = discrete_recursive_smooth(delayed, lad)
    np.testing.assert_allclose(delay_then_y[shift:], y_then_delay, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(s=st.floats(0.1, 40.0))
def test_discrete_gaussian_keeps_unit_mass(s):
    k = discrete_gaussian_kernel(s, epsilon=1e-8)
    assert float(np.sum(k.values)) == pytest.approx(1.0, abs=1e-7)
    assert float(np.dot(k.values, k.times)) == pytest.approx(0.0, abs=1e-7)


@settings(max_examples=40, deadline=None)
@given(
    tau=st.floats(1e-5, 1e-2),
    K=st.integers(1, 8),
    c=st.floats(1.1, 2.5),
    rate=st.sampled_from([8000.0, 44100.0]),
)
def test_ladder_discretization_conserves_variance(tau, K, c, rate):
    lad = discretize_ladder(SpectrogramFamily("rec-log", K=K, c=c).ladder(tau), rate)
    per_stage = [mu * mu + mu for mu in lad.mus]
    assert sum(per_stage) == pytest.approx(rate * rate * tau, rel=1e-9)


# Unit roundoff of float64.
UNIT_ROUNDOFF = 2.0**-53


@settings(max_examples=40, deadline=None)
@given(
    K=st.integers(2, 10),
    c=st.sampled_from([math.sqrt(2.0), 2.0**0.75, 2.0]),
    tau=st.floats(0.5, 1e3),
    steady=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_log_ladder_is_time_recursive(K, c, tau, steady, seed):
    """A K-stage log ladder at tau is the (K - 1)-stage ladder at tau / c^2
    followed by one stage (Lindeberg 2016, JMIV): its first K - 1 levels and
    stage constants are the shorter ladder's to a few ulp, and smoothing
    with the shorter ladder and then the last stage is one K-stage pass.

    With u the unit roundoff: each level and stage constant is a power of c
    (within 2u) times tau or its square root, times sqrt(c^2 - 1) for the
    later stages; the shorter ladder also rounds c^2 and tau / c^2. That
    is at most six roundings a side, so the two agree within 12u.

    The passes agree within a bound in P, the input peak. Each pass
    runs a unit-gain ladder relative to each block's first sample, so every
    term it rounds is at most 2P; a kept output sums at most 32 + K such
    terms (non-negative weights adding up to at most 1), the level and the
    block difference, so it is off by at most 2 (34 + K) u P. The state
    carries a block's rounding into the blocks after it, weighted by the
    tail of the impulse response, which adds up to at most mu_sum / 32
    blocks more. Three passes (two on one side) give
    3 (1 + mu_sum / 32) 2 (34 + K) u P, under 1e-13 of P here. The
    discretised stage constants differ by rounding as well, and a stage
    of constant mu moves its output by at most 2 |dmu| / (1 + mu) of P.
    """
    long = SpectrogramFamily("rec-log", K=K, c=c).ladder(tau)
    short = SpectrogramFamily("rec-log", K=K - 1, c=c).ladder(tau / (c * c))
    assert long.levels[:-1] == pytest.approx(short.levels, rel=12 * UNIT_ROUNDOFF, abs=0.0)
    assert long.mus[:-1] == pytest.approx(short.mus, rel=12 * UNIT_ROUNDOFF, abs=0.0)

    long, short = discretize_ladder(long, 1.0), discretize_ladder(short, 1.0)
    x = np.random.default_rng(seed).normal(size=(480, 8)) * 30.0 - 50.0
    one = discrete_recursive_smooth(x, long, axis=0, steady=steady)
    two = discrete_recursive_smooth(x, short, axis=0, steady=steady)
    two = discrete_recursive_smooth(two, one_stage_ladder(long.mus[-1]), axis=0, steady=steady)
    rounding = 3.0 * (1.0 + long.mu_sum / 32.0) * 2.0 * (34 + K) * UNIT_ROUNDOFF
    drift = sum(2.0 * abs(a - b) / (1.0 + b) for a, b in zip(long.mus, short.mus))
    peak = np.max(np.abs(x))
    assert np.max(np.abs(one - two)) <= (rounding + drift) * peak


SCALING_RATE = 8000.0


def _time_scaled_maps(kind: str, c: float, hop: int, seed: int):
    """A tone, a chirp and noise that starts late, and its layer-1 maps:
    at SCALING_RATE on the grid from 72 to 90 semitones (a), and declared
    at c times that rate on the grid shifted up by 12 log2 c (b)."""
    rate, n_samples = SCALING_RATE, 2048
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) / rate
    f0 = rng.uniform(523.0, 1400.0)
    x = np.sin(2.0 * np.pi * f0 * t + rng.uniform(0.0, 2.0 * np.pi))
    x += 0.5 * np.sin(2.0 * np.pi * (500.0 * t + 1500.0 * t * t))
    x += 0.3 * rng.normal(size=n_samples) * (t >= rng.uniform(0.0, 0.1))
    fam = SpectrogramFamily(kind)
    shift = 12.0 * math.log2(c)
    grid_a = build_frequency_grid(72.0, 90.0, 12)
    grid_b = build_frequency_grid(72.0 + shift, 90.0 + shift, 12)
    a = compute_spectrogram(x, rate, grid_a, fam, hop=hop)
    b = compute_spectrogram(x, c * rate, grid_b, fam, hop=hop)
    return x, a, b


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["gauss", "rec-uni", "rec-log"]),
    c=st.sampled_from([math.sqrt(2.0), 2.0]),
    hop=st.integers(4, 32),
    seed=st.integers(0, 2**32 - 1),
)
def test_time_scaling_shifts_the_log_frequency_grid(kind, c, hop, seed):
    """Temporal scaling covariance of layer 1. Under the default
    self-similar window law (n periods, tau0 = 0), the samples of a signal
    declared at rate c R are that signal compressed in time by c. On the
    grid shifted up by 12 log2 c semitones its map is the map at rate R,
    cell for cell, with the same warm-up.

    The maps are not bitwise equal, because the two runs round different
    frequencies and times. The bound adds up what each rounding can move,
    as a fraction of the signal peak P. The values read here are the
    relative gaps of the rates per sample, delta_w (omega / rate) and
    delta_s (window variance times rate^2), and the largest gap of the
    demodulation phases omega t, in radians. Every window has unit mass,
    so |S| <= P. Then:
    - the window shapes move by at most 2 K delta_s: each of the K stage
      constants (one variance for the Gaussian) moves by delta_s, and a
      unit-mass kernel's derivative in log scale has L1 norm <= 2;
    - the carrier folded into the window moves by delta_w w E|m|, with
      E|m| <= sqrt(K s) the mean delay (Cauchy-Schwarz over the stages)
      and w sqrt(s) = omega sqrt(tau) = 2 pi n. So the bound is
      2 pi n sqrt(K) delta_w;
    - the demodulation e^{-i omega t} moves by the phase gap;
    - each run rounds on its own: a block product sums at most 384 terms,
      and the carried state and the FFTs add a few more, so 1024 u
      (u = 2^-53) per run.
    For these grids the sum is 0.7e-12 to 1.2e-12 of P, mostly the phase
    gap (up to 9e-13 rad, at omega t near 2400). The largest gap seen over
    432 cases was 1.3e-13 of P.
    """
    rate = SCALING_RATE
    x, a, b = _time_scaled_maps(kind, c, hop, seed)
    grid_a, grid_b, fam = a.grid, b.grid, a.family
    assert np.array_equal(a.warmup_frames, b.warmup_frames)
    assert a.values.shape == b.values.shape

    u = UNIT_ROUNDOFF
    w_a, w_b = grid_a.omega / rate, grid_b.omega / (c * rate)
    delta_w = float(np.max(np.abs(w_b / w_a - 1.0)))
    s_a = grid_a.tau_window * rate * rate
    s_b = grid_b.tau_window * (c * rate) * (c * rate)
    delta_s = float(np.max(np.abs(s_b / s_a - 1.0))) + 4.0 * u  # and the ladder's own roundings
    phase_a = grid_a.omega * a.frame_times[:, None]
    phase_b = grid_b.omega * b.frame_times[:, None]
    phase = float(np.max(np.abs(phase_b - phase_a)))
    K = fam.K if fam.causal else 1
    n = grid_a.law.n
    bound = 2 * K * delta_s + 2.0 * math.pi * n * math.sqrt(K) * delta_w + phase + 2048 * u
    assert bound < 2e-12
    assert np.max(np.abs(b.values - a.values)) <= bound * np.max(np.abs(x))


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["gauss", "rec-uni", "rec-log"]),
    c=st.sampled_from([math.sqrt(2.0), 2.0]),
    hop=st.integers(4, 32),
    seed=st.integers(0, 2**32 - 1),
    sigma_frames=st.sampled_from([2.5, 3.5, 4.5]),
    s=st.sampled_from([0.5, 2.0]),
)
def test_time_scaling_carries_onsets_and_bands_to_tau_over_c_squared(
    kind, c, hop, seed, sigma_frames, s
):
    """Temporal scaling covariance of layer 2. On the time-scaled map b of
    the test above, onsets and bands at tau / c^2 are those of the original
    map a at tau, cell for cell, with the same warm-up: both maps have c
    times the frame rate, and both layer-2 kernels have the same variance
    in frames, sigma_frames^2. The spectral scale s is unchanged, since the
    grids share their spacing.

    The dB maps L_a and L_b already differ by dL = |L_b - L_a| per cell
    (the layer-1 gap, magnified by 8.7 / |S| through the logarithm, which
    is largest where |S| is small). Before rectification, each response is
    D W L: the temporal cascade and the spectral Gaussian W, both positive
    with unit mass, then the normalised difference D (sqrt(tau) times a
    backward difference in frames for onsets; -s times the centred second
    difference in semitones for bands). So the responses differ by at most
    - |D| W dL, |D| being D with its weights made positive: the input gap
      carried through layer 2, computed here by smoothing dL;
    - |D| 1 times 2 K delta max |L|: the cascades' stage constants in
      frames differ by a relative delta (read off the two discretised
      ladders), and a unit-mass kernel's derivative in log scale has L1
      norm <= 2 (as above);
    - |D| 1 times R u max |L| for each run's rounding: a cascade pass within
      2 (34 + K)(1 + mu_sum / 32) u of its input's peak (the rounding count
      of the time-recursion test), and at most 64 u for the spectral band
      product, whose kernel has fewer taps;
    - a few u of each response, for the two normalisations' roundings.
    Rectification and the warm-up zeros move nothing further. The first
    term dominates where |S| is small (up to a few 1e-9 for Gauss maps near
    the discrete Gaussian's spectral floor); elsewhere the bound reads
    4e-11 to 8e-11, and the largest measured ratio of gap to bound over
    300 cases was 0.46.
    """
    x, a, b = _time_scaled_maps(kind, c, hop, seed)
    la, lb = to_db(a), to_db(b)
    tau = (sigma_frames * hop / SCALING_RATE) ** 2
    maps = {}
    for name, feature in (("onset", detect_onsets), ("band", enhance_bands)):
        maps[name] = feature(la, tau, s), feature(lb, tau / (c * c), s)
        assert np.array_equal(maps[name][0].warmup_frames, maps[name][1].warmup_frames)

    u, K = UNIT_ROUNDOFF, 4  # the features' default temporal window is rec-uni, K = 4
    window = SpectrogramFamily("rec-uni", K=K)
    temporal = window.temporal(tau)
    ladder_a = discretize_ladder(temporal.ladder, la.frame_rate)
    ladder_b = discretize_ladder(window.ladder(tau / (c * c)), lb.frame_rate)
    delta = max(abs(q / p - 1.0) for p, q in zip(ladder_a.mus, ladder_b.mus)) + 4.0 * u
    rounding = 2.0 * (2.0 * (34 + K) * (1.0 + ladder_a.mu_sum / 32.0) + 64.0) * u
    level = max(np.max(np.abs(la.values)), np.max(np.abs(lb.values)))
    gap = replace(la, values=np.abs(lb.values - la.values))
    carried = apply_rf(gap, RFSpec(temporal, s)).values
    g = carried + (2.0 * K * delta + rounding) * level
    before = np.vstack([g[:1], g[:-1]])
    left, right = np.hstack([g[:, :1], g[:, :-1]]), np.hstack([g[:, 1:], g[:, -1:]])
    abs_stencil = {
        "onset": math.sqrt(tau) * la.frame_rate * (g + before),
        "band": s / la.grid.delta_nu**2 * (left + 2.0 * g + right),
    }
    for name, (fa, fb) in maps.items():
        bound = abs_stencil[name] + 8.0 * u * np.abs(fa.values)
        assert np.all(np.abs(fb.values - fa.values) <= bound), name


@settings(max_examples=10, deadline=None)
@given(s1=st.floats(0.5, 12.0), s2=st.floats(0.5, 12.0))
def test_discrete_gaussians_compose_by_adding_scales(s1, s2):
    k1 = discrete_gaussian_kernel(s1, epsilon=1e-10)
    k2 = discrete_gaussian_kernel(s2, epsilon=1e-10)
    k12 = discrete_gaussian_kernel(s1 + s2, epsilon=1e-10)
    both = np.convolve(k1.values, k2.values)
    t0 = k1.times[0] + k2.times[0]
    # align the direct kernel inside the convolution support
    offset = int(round(k12.times[0] - t0))
    window = both[offset : offset + len(k12.values)]
    np.testing.assert_allclose(window, k12.values, atol=1e-6)


@settings(max_examples=15, deadline=None)
@given(ref=st.floats(1e-3, 1e3))
def test_db_values_shift_with_the_reference_level(ref):
    spec = small_spec()
    base = to_db(spec, S0=1.0)
    scaled = to_db(spec, S0=ref)
    offset = 20.0 * math.log10(ref)
    mask = (base.values > -140.0) & (scaled.values > -140.0)
    assert mask.any()
    np.testing.assert_allclose(scaled.values[mask], base.values[mask] - offset, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(
    alpha=st.integers(0, 2),
    beta=st.integers(1, 2),
    sigma_nu=st.floats(0.2, 1.5),
    sigma_t_ms=st.floats(5.0, 40.0),
)
def test_spectral_derivatives_annihilate_constants(alpha, beta, sigma_nu, sigma_t_ms):
    L = flat_db_spec()
    spec = RFSpec(
        temporal=TemporalKernelSpec.gaussian((sigma_t_ms / 1000.0) ** 2),
        s=sigma_nu**2,
        alpha=alpha,
        beta=beta,
    )
    out = apply_rf(L, spec)
    warm = int(np.max(out.warmup_frames))
    interior = out.values[warm:, 6:-6]
    assert np.max(np.abs(interior)) < 1e-8


@settings(max_examples=25, deadline=None)
@given(v=st.floats(-25.0, 25.0))
def test_glissando_warp_round_trips(v):
    L = to_db(small_spec())
    back = glissando_warp(glissando_warp(L, v), -v)
    span = abs(v) * float(L.frame_times[-1]) / 2.0
    n_fold = int(math.ceil(span / L.grid.delta_nu)) + 3
    core = slice(n_fold, L.values.shape[1] - n_fold)
    if core.start >= core.stop:
        return  # the shear folds the whole grid; nothing interior to check
    np.testing.assert_allclose(back.values[:, core], L.values[:, core], atol=0.05)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), tau=st.floats(1.0, 50.0), K=st.integers(1, 5))
def test_smoothing_does_not_create_extrema(seed, tau, K):
    x = np.random.default_rng(seed).normal(size=128)
    lad = discrete_ladder(tau, K)
    assert count_local_extrema(discrete_recursive_smooth(x, lad)) <= count_local_extrema(x)


FAMILY_STRATEGY = st.one_of(
    st.just(SpectrogramFamily(kind="gauss")),
    st.integers(2, 8).map(lambda k: SpectrogramFamily(kind="rec-uni", K=k)),
    st.tuples(st.integers(2, 8), st.sampled_from([math.sqrt(2.0), 2.0 ** 0.75, 2.0])).map(
        lambda kc: SpectrogramFamily(kind="rec-log", K=kc[0], c=kc[1])
    ),
)


@settings(max_examples=60, deadline=None)
@given(fam=FAMILY_STRATEGY, level=st.floats(-40.0, -1.0))
def test_bandwidth_constant_solves_the_attenuation_equation(fam, level):
    C = bandwidth_constant(fam, level)
    assert C > 0
    assert selectivity_db_at_constant(fam, C) == pytest.approx(level, abs=1e-3)


@settings(max_examples=40, deadline=None)
@given(
    fam=FAMILY_STRATEGY,
    c1=st.floats(0.01, 1.5),
    c2=st.floats(0.01, 1.5),
)
def test_attenuation_is_monotone_in_detuning(fam, c1, c2):
    lo, hi = sorted((c1, c2))
    if hi - lo < 1e-6:
        return
    assert selectivity_db_at_constant(fam, lo) > selectivity_db_at_constant(fam, hi)


@settings(max_examples=30, deadline=None)
@given(K=st.integers(2, 8), level=st.floats(-35.0, -3.0))
def test_families_order_by_passband_width(K, level):
    # sharper spectral decay of the window concentrates the passband:
    # gaussian < equal-stage cascade < log cascades, widening with c
    cs = [
        bandwidth_constant(SpectrogramFamily(kind="gauss"), level),
        bandwidth_constant(SpectrogramFamily(kind="rec-uni", K=K), level),
        bandwidth_constant(SpectrogramFamily(kind="rec-log", K=K, c=math.sqrt(2.0)), level),
        bandwidth_constant(SpectrogramFamily(kind="rec-log", K=K, c=2.0 ** 0.75), level),
        bandwidth_constant(SpectrogramFamily(kind="rec-log", K=K, c=2.0), level),
    ]
    assert cs[0] < cs[1] and cs[2] < cs[3] < cs[4]
    if K == 2:
        # both stages of the c=sqrt(2) ladder equal sqrt(tau/2): it IS the
        # two-stage uniform ladder, so the constants agree to solver tolerance
        assert cs[1] == pytest.approx(cs[2], rel=1e-4)
    else:
        assert cs[1] < cs[2]


def test_ci_profile_prints_the_reproducing_blob():
    """A failure on a fresh CI example database prints the blob that
    reproduces it, while exploration stays random."""
    ci = settings.get_profile("ci")
    assert ci.print_blob and not ci.derandomize
