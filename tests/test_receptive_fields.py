import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import correlate1d

from tonescale import receptive_fields, temporal_scale_space
from tonescale.features import detect_onsets, glissando_filterbank
from tonescale.receptive_fields import (
    RFSpec,
    _derivative_nu,
    _mirror_indices,
    _warp_values,
    apply_rf,
    glissando_warp,
    rf_kernel_image,
    smooth,
)
from tonescale.spectrogram import (
    SpectrogramFamily,
    WindowScaleLaw,
    build_frequency_grid,
    compute_spectrogram,
    delay_compensate,
    to_db,
)
from tonescale.temporal_scale_space import (
    TemporalKernelSpec,
    discrete_gaussian_kernel,
    discrete_gaussian_smooth,
    gaussian_derivative_sample,
)

from conftest import exponential_chirp, sine

RATE = 44100.0
FAM = SpectrogramFamily(kind="rec-log", K=7, c=math.sqrt(2.0))


def tone_db(freq=440.0, duration=0.8, span=(64.0, 74.0), amp=0.5):
    grid = build_frequency_grid(span[0], span[1], 48, law=WindowScaleLaw(n=8.0))
    S = compute_spectrogram(sine(freq, duration, RATE, amp), RATE, grid, FAM, hop=44)
    return to_db(S)


def gauss_spec(alpha=0, beta=0, v=0.0, s=0.25, tau_a=4e-4, normalized=False):
    return RFSpec(
        temporal=TemporalKernelSpec.gaussian(tau_a),
        s=s,
        v=v,
        alpha=alpha,
        beta=beta,
        normalized=normalized,
    )


def test_rfspec_validation():
    tk = TemporalKernelSpec.gaussian(1e-4)
    with pytest.raises(ValueError):
        RFSpec(temporal=tk, s=-0.1)
    with pytest.raises(ValueError):
        RFSpec(temporal=tk, s=0.25, alpha=3)
    # cascade with K stages supports temporal orders below K only
    with pytest.raises(ValueError, match="K=2"):
        RFSpec(temporal=SpectrogramFamily("rec-uni", K=2).temporal(1e-4), s=0.25, alpha=2)


@pytest.mark.parametrize("orders", [{"alpha": 1.5}, {"beta": 0.5}, {"alpha": 1.0}, {"beta": "1"}])
def test_rfspec_takes_only_whole_derivative_orders(orders):
    """alpha = 1.5 was accepted, and rf_kernel_image then raised TypeError."""
    tk = TemporalKernelSpec.gaussian(1e-4)
    with pytest.raises(ValueError, match="whole numbers"):
        RFSpec(temporal=tk, s=0.25, **orders)
    spec = RFSpec(temporal=tk, s=0.25, alpha=np.int64(1), beta=2)
    assert rf_kernel_image(spec, 0.02, 1.0, 1e-3, 0.1).values.shape == (41, 21)


def test_each_gaussian_kernel_is_built_once(monkeypatch):
    """A Gaussian temporal pass builds its kernel once and reads the warm-up
    off it (it built the kernel a second time for the warm-up), and each
    bank member builds one temporal and one spectral kernel."""
    calls = []
    real = temporal_scale_space.discrete_gaussian_kernel

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (temporal_scale_space, receptive_fields):
        monkeypatch.setattr(module, "discrete_gaussian_kernel", counted)
    L = tone_db(duration=0.3)
    smooth(L, TemporalKernelSpec.gaussian(0.06**2), 0.0)
    assert len(calls) == 1
    calls.clear()
    bank_tau = 0.06**2
    glissando_filterbank(L, [-24.0, -12.0, 0.0, 12.0, 24.0], bank_tau, 0.25, TemporalKernelSpec.gaussian(bank_tau))
    assert len(calls) == 10


def test_zero_order_rf_is_pure_smoothing():
    L = tone_db()
    resp = apply_rf(L, gauss_spec())
    assert resp.values.shape == L.values.shape
    # smoothing is an average: output range inside input range
    assert resp.values.max() <= L.values.max() + 1e-9
    assert resp.values.min() >= L.values.min() - 1e-9
    # and it does not move the settled peak channel
    assert np.argmax(resp.values[-1]) == np.argmax(L.values[-1])


def test_smoothing_only_rf_preserves_constants():
    L = tone_db()
    flat = L
    flat.values = np.full_like(L.values, -7.5)
    for tk in (
        TemporalKernelSpec.gaussian(4e-4),
        SpectrogramFamily("rec-uni", K=4).temporal(4e-4),
    ):
        resp = apply_rf(flat, RFSpec(temporal=tk, s=0.25))
        assert resp.values == pytest.approx(np.full_like(flat.values, -7.5), abs=1e-9)


def test_first_temporal_derivative_of_constant_is_zero():
    L = tone_db()
    L.values = np.full_like(L.values, 3.25)
    for alpha in (1, 2):
        resp = apply_rf(L, gauss_spec(alpha=alpha))
        assert np.max(np.abs(resp.values)) < 1e-10


def test_spectral_derivative_of_linear_ramp_is_constant():
    L = tone_db()
    nu = L.grid.nu
    L.values = np.tile(2.0 * nu, (L.values.shape[0], 1))
    d1 = apply_rf(L, gauss_spec(beta=1))
    interior = d1.values[:, 14:-14]
    assert interior == pytest.approx(np.full_like(interior, 2.0), abs=1e-6)
    d2 = apply_rf(L, gauss_spec(beta=2))
    assert np.max(np.abs(d2.values[:, 14:-14])) < 1e-6


def test_normalized_response_scales_by_powers_of_scale():
    L = tone_db()
    raw = apply_rf(L, gauss_spec(alpha=1, beta=2, normalized=False))
    norm = apply_rf(L, gauss_spec(alpha=1, beta=2, normalized=True))
    factor = math.sqrt(4e-4) * 0.25
    assert norm.values == pytest.approx(raw.values * factor, rel=1e-12)


def test_warp_identity_and_roundtrip():
    L = tone_db()
    same = glissando_warp(L, 0.0)
    assert same.values == pytest.approx(L.values, abs=0.0)
    v = 17.0
    back = glissando_warp(glissando_warp(L, v), -v)
    # interior cells recover exactly up to interpolation error
    n_fold = int(math.ceil(v * (L.frame_times[-1] / 2) / L.grid.delta_nu)) + 4
    core = slice(n_fold, -n_fold)
    assert back.values[:, core] == pytest.approx(L.values[:, core], abs=0.02)


def test_warp_straightens_matching_chirp():
    grid = build_frequency_grid(60.0, 80.0, 48, law=WindowScaleLaw(n=8.0))
    v0 = 8.0
    x = exponential_chirp(64.0, v0, 1.2, RATE)
    L = to_db(compute_spectrogram(x, RATE, grid, FAM, hop=44))
    warped = glissando_warp(L, v0)
    warm = int(np.max(L.warmup_frames))
    rows = range(warm, L.values.shape[0], 10)
    ridge_raw = np.array([np.argmax(L.values[j]) for j in rows], dtype=float)
    ridge_fix = np.array([np.argmax(warped.values[j]) for j in rows], dtype=float)
    assert np.var(ridge_fix) < np.var(ridge_raw) / 100.0


GAUSS_1E4 = TemporalKernelSpec.gaussian(1e-4)


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: RFSpec(temporal=GAUSS_1E4, s=math.nan), "spectral scale s"),
        (lambda: RFSpec(temporal=GAUSS_1E4, s=math.inf), "spectral scale s"),
        (lambda: RFSpec(temporal=GAUSS_1E4, s=0.25, v=math.nan), "slope v"),
        (lambda: RFSpec(temporal=GAUSS_1E4, s=0.25, v=-math.inf), "slope v"),
        (lambda: TemporalKernelSpec.gaussian(math.inf), "tau"),
        (lambda: TemporalKernelSpec.gaussian(math.nan), "tau"),
        (lambda: SpectrogramFamily("rec-uni", K=4).ladder(math.nan), "ladder scale tau"),
        (lambda: SpectrogramFamily("rec-log", K=4, c=2.0).ladder(math.inf), "ladder scale tau"),
        (lambda: SpectrogramFamily("rec-log", K=4, c=math.inf).ladder(1e-4), "ratio c"),
        (lambda: FAM.temporal(math.nan), "ladder scale tau"),
        (lambda: discrete_gaussian_kernel(math.inf), "scale"),
    ],
    ids=[
        "rf-s-nan",
        "rf-s-inf",
        "rf-v-nan",
        "rf-v-inf",
        "gauss-tau-inf",
        "gauss-tau-nan",
        "ladder-tau-nan",
        "ladder-tau-inf",
        "ladder-c-inf",
        "family-tau-nan",
        "discrete-gauss-inf",
    ],
)
def test_non_finite_receptive_field_parameters_are_refused(make, name):
    with pytest.raises(ValueError, match="finite") as err:
        make()
    assert name in str(err.value)


@pytest.mark.parametrize("beta", [1, 2])
def test_rfspec_refuses_a_normalized_spectral_derivative_at_s_0(beta):
    """s^{beta/2} would zero the field, so band_response has no check of its own."""
    with pytest.raises(ValueError, match="spectral derivative needs s > 0, got s = 0.0"):
        RFSpec(temporal=GAUSS_1E4, s=0.0, beta=beta)
    RFSpec(temporal=GAUSS_1E4, s=0.0, beta=beta, normalized=False)
    RFSpec(temporal=GAUSS_1E4, s=0.0, alpha=1)
    with pytest.raises(ValueError, match="needs s > 0"):
        glissando_filterbank(tone_db(duration=0.05), [0.0], 4e-4, 0.0)


@pytest.mark.parametrize("name", ["t_span", "nu_span", "dt", "dnu"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_rf_kernel_image_names_a_bad_span_or_spacing(name, value):
    """NaN and inf reached numpy as "arange: cannot compute length"."""
    spans = {"t_span": 0.02, "nu_span": 1.0, "dt": 1e-3, "dnu": 0.1, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {value}$"):
        rf_kernel_image(gauss_spec(), **spans)


@pytest.mark.parametrize(
    "warped",
    [
        lambda S: glissando_warp(S, math.nan),
        lambda S: glissando_warp(S, math.inf),
        lambda S: glissando_warp(S, -1e300),
        lambda S: apply_rf(S, gauss_spec(v=1e300)),
        lambda S: glissando_filterbank(S, [0.0, 1e300], 4e-4, 0.25),
    ],
    ids=["warp-nan", "warp-inf", "warp-huge", "apply_rf-huge", "bank-huge"],
)
def test_warp_refuses_a_slope_without_a_channel_fraction(warped):
    """Past 2^53 channels of shift no sub-channel fraction is left, and the
    integer part no longer fits the warp's window arithmetic."""
    with pytest.raises(ValueError, match="glissando slope v"):
        warped(tone_db(duration=0.05))


def test_warp_takes_a_shift_of_2_to_the_52_channels():
    L = tone_db(duration=0.05)
    reach = np.abs(L.frame_times - L.frame_times[L.n_frames // 2]).max()
    v = 0.5 * 2.0 ** 53 * L.grid.delta_nu / reach
    assert np.isfinite(glissando_warp(L, v).values).all()
    with pytest.raises(ValueError, match="2\\^53"):
        glissando_warp(L, 4.0 * v)


def test_spectral_smooth_reduces_curvature(rng):
    L = tone_db()
    L.values = rng.normal(size=L.values.shape)
    tk = TemporalKernelSpec.gaussian(4e-4)
    sm, _ = smooth(L, tk, 1.0)
    raw, _ = smooth(L, tk, 0.0)
    d2 = np.diff(sm, 2, axis=1)
    d2_raw = np.diff(raw, 2, axis=1)
    assert np.abs(d2).mean() < 0.5 * np.abs(d2_raw).mean()
    with pytest.raises(ValueError):
        smooth(L, tk, -1.0)


def test_rf_kernel_image_gaussian_separable_closed_form():
    tau_a, s = 4e-4, 0.25
    spec = RFSpec(
        temporal=TemporalKernelSpec.gaussian(tau_a), s=s, alpha=1, beta=2, normalized=False
    )
    img = rf_kernel_image(spec, t_span=0.08, nu_span=2.0, dt=2e-3, dnu=0.125)
    T, N = np.meshgrid(img.t, img.nu, indexing="ij")
    gt = gaussian_derivative_sample(tau_a, T, 1)
    gn = gaussian_derivative_sample(s, N, 2)
    assert img.values == pytest.approx(gt * gn, rel=1e-9, abs=1e-9)


def test_rf_kernel_image_velocity_shears_the_kernel():
    tau_a, s, v = 4e-4, 0.25, 30.0
    spec0 = RFSpec(
        temporal=TemporalKernelSpec.gaussian(tau_a), s=s, beta=2, normalized=False
    )
    specv = RFSpec(
        temporal=TemporalKernelSpec.gaussian(tau_a), s=s, beta=2, v=v, normalized=False
    )
    img0 = rf_kernel_image(spec0, t_span=0.06, nu_span=3.0, dt=5e-3, dnu=0.125)
    imgv = rf_kernel_image(specv, t_span=0.06, nu_span=3.0, dt=5e-3, dnu=0.125)
    # the sheared kernel at (t, nu) equals the upright kernel at (t, nu - v t)
    T, N = np.meshgrid(img0.t, img0.nu, indexing="ij")
    gt = np.exp(-T * T / (2 * tau_a)) / math.sqrt(2 * math.pi * tau_a)
    shifted = gaussian_derivative_sample(s, N - v * T, 2) * gt
    assert imgv.values == pytest.approx(shifted, rel=1e-9, abs=1e-9)


def test_rf_kernel_image_cascade_uses_causal_profile():
    temporal = SpectrogramFamily("rec-uni", K=4).temporal(4e-4)
    lad = temporal.ladder
    spec = RFSpec(temporal=temporal, s=0.25)
    img = rf_kernel_image(spec, t_span=0.15, nu_span=1.5, dt=1e-3, dnu=0.25)
    # causal kernels are rendered for t >= 0 only and vanish at the origin
    assert img.t[0] == 0.0
    assert np.max(np.abs(img.values[0, :])) == 0.0
    peak_t = img.t[np.argmax(img.values[:, len(img.nu) // 2])]
    assert peak_t == pytest.approx(3 * lad.mus[0], abs=2e-3)


def test_apply_rf_warmup_accounts_for_both_layers():
    L = tone_db()
    resp = apply_rf(
        L,
        RFSpec(
            temporal=SpectrogramFamily("rec-uni", K=4).temporal(4e-4),
            s=0.25,
            alpha=1,
        ),
    )
    assert np.all(resp.warmup_frames > L.warmup_frames)


@pytest.mark.parametrize("v", [0.0, 12.0])
def test_apply_rf_extends_the_input_metadata(v):
    """A response keeps what its input's metadata records. It replaced it,
    so an onset map of a delay-compensated spectrogram could be shifted a
    second time: by 95 frames of 1 ms at the 80 Hz channel of an 8 kHz map."""
    grid = build_frequency_grid(64.0, 74.0, 48, law=WindowScaleLaw(n=8.0))
    S = compute_spectrogram(sine(440.0, 0.3, RATE), RATE, grid, FAM, hop=44)
    L = to_db(delay_compensate(S))
    resp = apply_rf(L, gauss_spec(alpha=1, v=v))
    for key, value in L.metadata.items():
        assert resp.metadata[key] is value
    assert resp.metadata["rf_spec"] == gauss_spec(alpha=1, v=v)
    assert "warp_v" not in resp.metadata
    warped = glissando_warp(L, 5.0)
    assert apply_rf(warped, gauss_spec(v=v)).metadata["warp_v"] == 5.0
    with pytest.raises(ValueError, match="already delay-compensated"):
        delay_compensate(detect_onsets(L, 4e-4, 0.25))


def test_apply_rf_refuses_a_complex_map():
    grid = build_frequency_grid(64.0, 74.0, 48, law=WindowScaleLaw(n=8.0))
    S = compute_spectrogram(sine(440.0, 0.2, RATE), RATE, grid, FAM, hop=44)
    for v in (0.0, 10.0):
        with pytest.raises(ValueError, match="real-valued map"):
            apply_rf(S, gauss_spec(v=v))


@pytest.mark.parametrize("temporal", [TemporalKernelSpec.gaussian(4e-4), FAM.temporal(4e-4)])
def test_smooth_refuses_a_map_without_frames(temporal):
    L = tone_db(duration=0.05)
    empty = replace(L, values=L.values[:0], frame_times=L.frame_times[:0])
    with pytest.raises(ValueError, match="at least one frame"):
        smooth(empty, temporal, 0.25)


@pytest.mark.parametrize("temporal", [TemporalKernelSpec.gaussian(4e-4), FAM.temporal(4e-4)])
@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_smooth_refuses_a_non_finite_map(temporal, bad):
    """A cascade carried a NaN into the earlier frames of its block, and the
    Gaussian's band products into every other output of theirs."""
    L = tone_db(duration=0.05)
    values = L.values.copy()
    values[40, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        smooth(replace(L, values=values), temporal, 0.25)


@pytest.mark.parametrize(
    "warped",
    [
        lambda S: glissando_warp(S, 10.0),
        lambda S: apply_rf(S, gauss_spec(v=10.0)),
        lambda S: glissando_filterbank(S, [-12.0, 12.0], 4e-4, 0.25),
    ],
    ids=["glissando_warp", "apply_rf", "glissando_filterbank"],
)
def test_warp_refuses_a_map_without_frames(warped):
    L = tone_db(duration=0.05)
    empty = replace(L, values=L.values[:0], frame_times=L.frame_times[:0])
    with pytest.raises(ValueError, match="at least one frame"):
        warped(empty)


@pytest.mark.parametrize("alpha", [1, 2])
def test_causal_temporal_derivative_reads_no_later_frame(alpha, rng):
    L = tone_db(duration=0.3)
    spec = RFSpec(temporal=FAM.temporal(4e-4), s=0.25, alpha=alpha)
    before = apply_rf(L, spec)
    n = L.n_frames // 2
    later = L.values.copy()
    later[n + 1 :] += rng.normal(size=later[n + 1 :].shape)
    after = apply_rf(replace(L, values=later), spec)
    assert np.array_equal(after.values[: n + 1], before.values[: n + 1])
    assert not np.array_equal(after.values[n + 1 :], before.values[n + 1 :])
    # The first alpha rows have no backward difference and are warm-up.
    assert np.all(before.values[:alpha] == 0.0)
    assert np.all(before.warmup_frames >= L.warmup_frames + alpha)


@settings(max_examples=60, deadline=None)
@given(
    n_frames=st.integers(1, 400),
    scale=st.one_of(st.just(0.0), st.floats(1e-3, 2e4)),
    lanes=st.sampled_from([(1,), (2,), (3,), (2, 3), (3, 2)]),
    offset=st.integers(-200_000, 200_000).map(lambda milli_db: milli_db / 1000.0),
    spread=st.one_of(st.just(0.0), st.floats(1e-9, 60.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_gaussian_smooth_is_the_direct_reflect_correlation(
    n_frames, scale, lanes, offset, spread, seed
):
    """Frame scales s from 0 (one tap) to 2e4 frames^2 (half-widths of about
    700 frames, above every drawn map length); 1-3 lanes per frame, or 2-3
    stacked maps of 2-3 channels. Offsets are whole thousandths of a dB and
    spreads 0 (constant lanes) or 1e-9-60 dB: near subnormal values (below
    2.2e-308) the rounding grain of 5e-324, in the reference as in the band
    products, is larger than a bound relative to the peak."""
    values = offset + spread * np.random.default_rng(seed).standard_normal((n_frames, *lanes))
    kernel = discrete_gaussian_kernel(scale)
    want = correlate1d(values, kernel.values, axis=0, mode="reflect")
    if scale == 0.0:  # a Gaussian window has tau > 0; s = 0 is the one-tap kernel
        got = discrete_gaussian_smooth(values, kernel, axis=0)
    else:
        L = tone_db(duration=0.05)
        S = replace(L, values=values, frame_times=np.arange(n_frames) / L.frame_rate)
        got, warm = smooth(S, TemporalKernelSpec.gaussian(scale / L.frame_rate ** 2), 0.0)
        assert warm == kernel.origin_index
    assert got.shape == values.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(values))


@pytest.mark.parametrize("n_frames", [1, 2, 57, 1003])
@pytest.mark.parametrize("tau", [0.02 ** 2, 0.06 ** 2])
def test_gaussian_temporal_lanes_do_not_depend_on_their_neighbours(n_frames, tau, rng):
    """A lane smoothed alone, inside a 368-lane map and inside a stack of
    three maps comes out bitwise the same (1 ms frames: s = 400 and
    3600 frames^2)."""
    L = tone_db(duration=0.05)
    maps = rng.normal(-40.0, 20.0, size=(n_frames, 368, 3))
    frame_times = np.arange(n_frames) / 1000.0
    S = replace(L, values=maps, frame_times=frame_times, sample_rate=44000.0, hop=44)
    temporal = TemporalKernelSpec.gaussian(tau)
    stacked, _ = smooth(S, temporal, 0.0)
    one_map, _ = smooth(replace(S, values=maps[..., 1]), temporal, 0.0)
    for lane in (0, 5, 367):
        alone, _ = smooth(replace(S, values=maps[:, lane : lane + 1, 1]), temporal, 0.0)
        assert alone[:, 0].tobytes() == one_map[:, lane].tobytes()
        assert alone[:, 0].tobytes() == stacked[:, lane, 1].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n_frames=st.integers(1, 20),
    n_ch=st.integers(1, 40),
    order=st.sampled_from([1, 2]),
    dnu=st.sampled_from([0.25, 0.1, 1.0 / 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_frames=1, n_ch=23, order=1, dnu=0.25, seed=257)  # -NaN from correlate1d, +NaN here
def test_spectral_differences_are_bitwise_correlate1d(n_frames, n_ch, order, dnu, seed):
    """Signed zeros and infinities included; NaN at the same cells.

    The sign of a NaN result is left unspecified by IEEE 754, and numpy's
    own additions give either sign depending on the position (see
    ``_derivative_nu``), so only where the NaNs are is compared.
    """
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 30.0, size=(n_frames, n_ch))
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5.0])
    mask = rng.random(values.shape) < 0.2
    values[mask] = rng.choice(specials, size=int(mask.sum()))
    stencil = [-0.5, 0.0, 0.5] if order == 1 else [1.0, -2.0, 1.0]
    with np.errstate(invalid="ignore"):
        want = correlate1d(values, stencil, axis=1, mode="reflect")
        want /= dnu if order == 1 else dnu * dnu
        got = _derivative_nu(values, order, dnu)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_gaussian_smooth_keeps_constant_lanes_exactly(rng):
    L = tone_db(duration=0.3)
    values = rng.normal(-40.0, 10.0, size=L.values.shape)
    values[:, ::3] = rng.uniform(-120.0, 20.0, size=values[0, ::3].shape)  # constant lanes
    S = replace(L, values=values)
    smoothed, _ = smooth(S, TemporalKernelSpec.gaussian(0.06 ** 2), 0.0)
    assert np.array_equal(smoothed[:, ::3], values[:, ::3])
    for alpha in (1, 2):
        resp = apply_rf(S, gauss_spec(alpha=alpha, s=0.0, tau_a=0.06 ** 2))
        assert np.all(resp.values[:, ::3] == 0.0)


def warp_by_index_arrays(values, frame_times, v, delta_nu):
    """The Catmull-Rom warp with one mirrored index array per tap."""
    n_frames, n_ch = values.shape
    shift = v * (frame_times - frame_times[n_frames // 2]) / delta_nu
    base = np.floor(shift).astype(int)
    u = shift - base
    u2 = u * u
    u3 = u2 * u
    w = np.stack(
        [
            0.5 * (-u3 + 2.0 * u2 - u),
            0.5 * (3.0 * u3 - 5.0 * u2 + 2.0),
            0.5 * (-3.0 * u3 + 4.0 * u2 + u),
            0.5 * (u3 - u2),
        ],
        axis=1,
    )
    rows = np.arange(n_frames)[:, None]
    cols = np.arange(n_ch)[None, :] + base[:, None]
    out = np.zeros_like(values)
    for tap, offset in enumerate((-1, 0, 1, 2)):
        idx = _mirror_indices(cols + offset, n_ch)
        out += w[:, tap : tap + 1] * values[rows, idx]
    return out


@pytest.mark.parametrize(
    "n_frames, n_ch, v",
    [
        (200, 40, 0.0),
        (200, 40, 17.0),
        (201, 40, -24.0),
        (50, 5, 900.0),  # shifts of up to 90 channels, 18 grids
        (51, 7, -1500.0),
        (30, 1, 40.0),  # one channel: every tap reads it
        (1, 12, 30.0),
    ],
)
def test_warp_values_is_bitwise_the_index_array_gather(n_frames, n_ch, v, rng):
    values = rng.normal(size=(n_frames, n_ch))
    frame_times = np.arange(n_frames) * 44 / RATE
    got = _warp_values(values, frame_times, v, 0.25)
    want = warp_by_index_arrays(values, frame_times, v, 0.25)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
