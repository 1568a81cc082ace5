import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tonescale.features import (
    _link_ridges,
    _ridge_points,
    band_field,
    band_response,
    bank_fields,
    detect_offsets,
    detect_onsets,
    enhance_bands,
    extract_partial_curves,
    glissando_filterbank,
    ridge_mask,
    ridge_threshold,
    second_moment_glissando,
    second_moment_kernels,
)
from tonescale.cli_io import read_grid_csv, write_grid_csv
from tonescale.receptive_fields import RFSpec, ScaleSpace, apply_rf
from tonescale.spectrogram import (
    SpectrogramFamily,
    TFMap,
    WindowScaleLaw,
    build_frequency_grid,
    channel_delays,
    compute_spectrogram,
    midi_from_frequency,
    to_db,
)
from tonescale.temporal_scale_space import (
    TemporalKernelSpec,
    discretize_ladder,
)

from conftest import central_difference, count_calls, exponential_chirp, sine

RATE = 44100.0
FAM = SpectrogramFamily(kind="rec-log", K=7, c=math.sqrt(2.0))
TAU_A = 0.02 ** 2
S_NU = 0.25


def step_tone_db(t_on=0.4, duration=1.0, freq=440.0, span=(64.0, 74.0)):
    grid = build_frequency_grid(span[0], span[1], 48, law=WindowScaleLaw(n=8.0))
    t = np.arange(int(duration * RATE)) / RATE
    x = 0.5 * (t >= t_on) * np.sin(2 * np.pi * freq * t)
    return to_db(compute_spectrogram(x, RATE, grid, FAM, hop=44))


def synthetic_db_step(t_on=0.4, duration=1.0, lo=-60.0, hi=0.0, span=(64.0, 74.0)):
    """A dB map that jumps from lo to hi at t_on on every channel."""
    grid = build_frequency_grid(span[0], span[1], 48, law=WindowScaleLaw(n=8.0))
    hop = 44
    n_frames = int(duration * RATE / hop)
    frame_times = np.arange(n_frames) * hop / RATE
    values = np.where(frame_times[:, None] >= t_on, hi, lo) * np.ones(
        (1, grid.n_channels)
    )
    return TFMap(
        values=values,
        grid=grid,
        sample_rate=RATE,
        hop=hop,
        family=FAM,
        warmup_frames=np.zeros(grid.n_channels, dtype=int),
        kind="db",
    )


def test_onset_map_peaks_at_smoothing_delay_after_a_db_step():
    t_on = 0.4
    L = synthetic_db_step(t_on=t_on)
    onset = detect_onsets(L, TAU_A, S_NU)
    ch = L.grid.n_channels // 2
    peak_frame = int(np.argmax(onset.values[:, ch]))
    # the step is smeared by the causal smoothing kernel; the derivative
    # peaks at the kernel maximum after the step
    frame_rate = RATE / 44
    lad = discretize_ladder(SpectrogramFamily("rec-uni", K=4).ladder(TAU_A), frame_rate)
    t_max_frames = 3 * lad.mus[0]
    step_frame = t_on * frame_rate
    assert abs(peak_frame - (step_frame + t_max_frames)) <= 1.5
    assert onset.values.min() >= 0.0


def test_onset_map_fires_after_an_audio_step():
    t_on = 0.4
    L = step_tone_db(t_on=t_on)
    onset = detect_onsets(L, TAU_A, S_NU)
    ch = int(np.argmin(np.abs(L.grid.nu - 69.0)))
    peak_t = L.frame_times[int(np.argmax(onset.values[:, ch]))]
    # layer-1 adds its own channel delay on top of the layer-2 kernel max
    assert t_on < peak_t < t_on + 0.12
    assert onset.values.min() >= 0.0


def test_offset_map_ignores_a_rising_db_step():
    L = synthetic_db_step()
    offset = detect_offsets(L, TAU_A, S_NU)
    assert np.max(offset.values) == 0.0
    # and the onset map ignores a falling step
    L2 = synthetic_db_step()
    L2.values = -L2.values - 30.0
    assert np.max(detect_onsets(L2, TAU_A, S_NU).values) == 0.0


def test_offset_map_mirrors_onset_for_reversed_step():
    # tone switched OFF at t_off
    grid = build_frequency_grid(64.0, 74.0, 48, law=WindowScaleLaw(n=8.0))
    t = np.arange(int(1.0 * RATE)) / RATE
    x = 0.5 * (t < 0.5) * np.sin(2 * np.pi * 440.0 * t)
    L = to_db(compute_spectrogram(x, RATE, grid, FAM, hop=44))
    offset = detect_offsets(L, TAU_A, S_NU)
    onset = detect_onsets(L, TAU_A, S_NU)
    ch = int(np.argmin(np.abs(grid.nu - 69.0)))
    assert offset.values[:, ch].max() > 0.0
    j_off = int(np.argmax(offset.values[:, ch]))
    assert L.frame_times[j_off] > 0.5
    # after the initial onset transient has passed, no onset response remains
    assert onset.values[700:, ch].max() == 0.0


def test_constant_input_has_no_onsets_or_offsets():
    L = synthetic_db_step()
    L.values = np.full_like(L.values, -20.0)
    for f in (detect_onsets, detect_offsets):
        assert np.max(f(L, TAU_A, S_NU).values) == 0.0


def test_band_enhancement_is_rectified_and_peaks_on_partials():
    grid = build_frequency_grid(60.0, 97.0, 48, law=WindowScaleLaw(n=8.0))
    t = np.arange(int(1.0 * RATE)) / RATE
    x = (
        0.4 * np.sin(2 * np.pi * 440.0 * t)
        + 0.25 * np.sin(2 * np.pi * 880.0 * t)
        + 0.15 * np.sin(2 * np.pi * 1320.0 * t)
    )
    L = to_db(compute_spectrogram(x, RATE, grid, FAM, hop=44))
    bands = enhance_bands(L, TAU_A, S_NU)
    assert bands.values.min() >= 0.0
    last = bands.values[-1]
    # local maxima of the band map sit on the three partials
    local = [
        grid.nu[i]
        for i in range(1, len(last) - 1)
        if last[i] > last[i - 1] and last[i] > last[i + 1] and last[i] > 3.0
    ]
    assert len(local) == 3
    for found, target in zip(sorted(local), (69.0, 81.0, 88.02)):
        assert abs(found - target) < 0.3


def test_partial_curves_track_three_partials():
    grid = build_frequency_grid(60.0, 97.0, 48, law=WindowScaleLaw(n=8.0))
    t = np.arange(int(1.5 * RATE)) / RATE
    x = (
        0.4 * np.sin(2 * np.pi * 440.0 * t)
        + 0.25 * np.sin(2 * np.pi * 880.0 * t)
        + 0.15 * np.sin(2 * np.pi * 1320.0 * t)
    )
    L = to_db(compute_spectrogram(x, RATE, grid, FAM, hop=44))
    curves = extract_partial_curves(band_response(L, TAU_A, S_NU), c_min=3.0)
    long_curves = [c for c in curves if len(c.frames) > 100]
    assert len(long_curves) == 3
    means = sorted(c.mean_nu for c in long_curves)
    for found, target in zip(means, (69.0, 81.0, 88.02)):
        assert abs(found - target) < 0.1
    # curves are consecutive in frames and carry matching arrays
    for c in long_curves:
        assert np.all(np.diff(c.frames) == 1)
        assert len(c.nus) == len(c.frames) == len(c.strengths)


def two_tone_band(duration=0.6):
    grid = build_frequency_grid(64.0, 84.0, 48, law=WindowScaleLaw(n=8.0))
    x = sine(440.0, duration, RATE) + 0.5 * sine(880.0, duration, RATE)
    return band_response(to_db(compute_spectrogram(x, RATE, grid, FAM, hop=44)), TAU_A, S_NU)


@pytest.mark.parametrize("c_min", [math.nan, math.inf, -math.inf])
def test_partial_thresholds_must_be_finite(c_min):
    """A NaN c_min once gave 4 curves where 3 gave 2, and a NaN ridge mask
    was empty."""
    band = two_tone_band()
    with pytest.raises(ValueError, match="c_min must be finite"):
        extract_partial_curves(band, c_min=c_min)
    with pytest.raises(ValueError, match="c_min must be finite"):
        ridge_mask(band.values, band.warmup_frames, c_min)
    with pytest.raises(ValueError, match=f"^c_min must be finite, got {c_min}$"):
        ridge_threshold(c_min)  # the one rule, which the CLI checks before reading a WAV
    assert ridge_threshold(-3.5) == -3.5


@pytest.mark.parametrize("max_jump", [math.nan, -1.0, 0.0, math.inf])
def test_partial_curves_need_a_positive_finite_max_jump(max_jump):
    """nan, -1 and 0 once linked nothing: every ridge point became a curve."""
    band = two_tone_band()
    assert len(extract_partial_curves(band, c_min=3.0)) == 2
    with pytest.raises(ValueError, match="max_jump must be positive and finite"):
        extract_partial_curves(band, c_min=3.0, max_jump=max_jump)


def test_partial_curve_follows_slow_chirp():
    grid = build_frequency_grid(62.0, 76.0, 48, law=WindowScaleLaw(n=8.0))
    x = exponential_chirp(67.0, 3.0, 1.2, RATE)
    L = to_db(compute_spectrogram(x, RATE, grid, FAM, hop=44))
    curves = extract_partial_curves(band_response(L, TAU_A, S_NU), c_min=3.0)
    main = max(curves, key=lambda c: len(c.frames))
    times = L.frame_times[main.frames]
    slope = np.polyfit(times, main.nus, 1)[0]
    assert slope == pytest.approx(3.0, abs=0.1)


def test_glissando_bank_ties_break_toward_zero_on_steady_tone():
    L = step_tone_db(t_on=0.0, duration=1.2)
    bank = (-40.0, -20.0, 0.0, 20.0, 40.0)
    est = glissando_filterbank(L, bank, TAU_A, S_NU)
    # judge on the tone ridge itself, at frames where even the fastest bank
    # member warps within the grid (mirror ghosts stay clear of the ridge)
    ch = int(np.argmin(np.abs(L.grid.nu - 69.0)))
    t_mid = L.frame_times[len(L.frame_times) // 2]
    margin = min(69.0 - L.grid.nu_min, L.grid.nu_max - 69.0)
    ok = np.abs(L.frame_times - t_mid) <= margin / 40.0
    ok &= np.arange(len(ok)) >= int(est.warmup_frames[ch] * 1.2)
    assert ok.sum() > 50
    sel = est.vhat[ok, ch]
    assert est.response[ok, ch].min() > 3.0
    assert np.all(sel == 0.0)


def test_glissando_bank_empty_rejected():
    L = step_tone_db()
    with pytest.raises(ValueError, match="glissando bank must not be empty"):
        glissando_filterbank(L, (), TAU_A, S_NU)
    with pytest.raises(ValueError, match="glissando bank must not be empty"):
        glissando_filterbank(L, iter(()), TAU_A, S_NU)
    with pytest.raises(ValueError, match="glissando bank must not be empty"):
        bank_fields([], TAU_A, S_NU)


def test_band_fields_are_built_in_one_place():
    """``band_response`` and the bank build their fields with ``band_field``,
    which refuses what the CLI refuses before it reads a WAV: a spectral
    scale of 0 under the normalized second derivative, and a slope that is
    not finite. The bank's fields come in its visiting order, repeats
    dropped."""
    window = TemporalKernelSpec.gaussian(TAU_A)
    for make in (lambda: band_field(TAU_A, 0.0), lambda: bank_fields([-12.0], TAU_A, 0.0)):
        with pytest.raises(ValueError, match="spectral derivative needs s > 0"):
            make()
    for bank in ([math.nan, 0.0], [0.0, math.inf]):
        with pytest.raises(ValueError, match="glissando slope v must be finite"):
            bank_fields(bank, TAU_A, S_NU, window)
    with pytest.raises(ValueError, match="tau_a"):
        band_field(9e-4, S_NU, window)
    fields = bank_fields([12.0, 0.0, -12.0, 12.0], TAU_A, S_NU, window)
    assert [field.v for field in fields] == [0.0, -12.0, 12.0]
    assert fields[1] == band_field(TAU_A, S_NU, window, -12.0)
    assert fields[1] == RFSpec(window, S_NU, -12.0, alpha=0, beta=2, normalized=True)
    assert band_field(TAU_A, S_NU).temporal == SpectrogramFamily("rec-uni", K=4).temporal(TAU_A)


def test_glissando_bank_picks_matching_slope_on_chirp():
    grid = build_frequency_grid(50.0, 90.0, 48, law=WindowScaleLaw(n=8.0))
    v0 = 20.0
    x = exponential_chirp(70.0 - v0 * 0.75, v0, 1.5, RATE)
    L = to_db(compute_spectrogram(x, RATE, grid, FAM, hop=44))
    tau_a = 0.06 ** 2
    est = glissando_filterbank(
        L,
        (-40.0, -20.0, -10.0, 0.0, 10.0, 20.0, 40.0),
        tau_a,
        0.35 ** 2,
        temporal=TemporalKernelSpec.gaussian(tau_a),
    )
    warm = np.ceil(est.warmup_frames * 1.2).astype(int)
    mask = ridge_mask(est.response.copy(), warm, 4.0)
    interior = (grid.nu >= 58.0) & (grid.nu <= 82.0)
    mask[:, ~interior] = False
    assert mask.sum() > 100
    assert np.mean(est.vhat[mask] == v0) >= 0.9


@pytest.mark.parametrize("v0", [-40.0, 40.0])
def test_the_bank_default_window_finds_fast_glissandi(v0):
    """Criterion 08's chirps through ``glissando_filterbank`` given no
    ``temporal``. With the rec-uni cascade as the bank's default no ridge
    cell cleared c_min = 4 at +-40 st/s, and at c_min = 1 it put 0 % (-40)
    and 31 % (+40) of them on the nearest member; the zero-phase Gaussian
    puts every cell there."""
    grid = build_frequency_grid(50.0, 90.0, 48, law=WindowScaleLaw(n=8.0))
    bank = (-40.0, -20.0, -10.0, 0.0, 10.0, 20.0, 40.0)
    x = exponential_chirp(70.0 - v0 * 0.75, v0, 1.5, RATE)
    L = to_db(compute_spectrogram(x, RATE, grid, FAM, hop=44))
    est = glissando_filterbank(L, bank, 0.06 ** 2, 0.35 ** 2)
    warm = np.ceil(est.warmup_frames * 1.2).astype(int)
    mask = ridge_mask(est.response.copy(), warm, 4.0)
    mask[:, (grid.nu < 58.0) | (grid.nu > 82.0)] = False
    assert mask.sum() > 100
    assert np.mean(est.vhat[mask] == v0) >= 0.9


def test_second_moment_estimates_chirp_slope():
    grid = build_frequency_grid(55.0, 85.0, 48, law=WindowScaleLaw(n=8.0))
    v0 = 10.0
    x = exponential_chirp(62.5, v0, 1.5, RATE)
    L = to_db(compute_spectrogram(x, RATE, grid, FAM, hop=44))
    sm = second_moment_glissando(L, TAU_A, S_NU, 0.06 ** 2, 1.0)
    band = band_response(L, TAU_A, S_NU)
    warm = np.ceil(band.warmup_frames * 1.2).astype(int)
    mask = ridge_mask(band.values.copy(), warm, 3.0) & sm.defined
    med = float(np.median(sm.vhat[mask]))
    assert med == pytest.approx(v0, abs=1.0)
    # stationary tone: slope near zero
    L2 = step_tone_db(t_on=0.0, duration=1.0)
    sm2 = second_moment_glissando(L2, TAU_A, S_NU, 0.06 ** 2, 1.0)
    band2 = band_response(L2, TAU_A, S_NU)
    warm2 = np.ceil(band2.warmup_frames * 1.2).astype(int)
    mask2 = ridge_mask(band2.values.copy(), warm2, 3.0) & sm2.defined
    assert abs(float(np.median(sm2.vhat[mask2]))) < 1.0


def test_second_moment_requires_integration_scales_above_derivation():
    L = step_tone_db()
    for scales in (
        (0.05**2, 0.25, 0.02**2, 1.0),
        (0.02**2, 0.25, 0.01**2, 1.0),  # the CLI's --tau-i-ms 10
        (0.02**2, 2.0**2, 0.06**2, 1.0),  # the CLI's --sigma-nu 2
        (0.02**2, 0.25, 0.06**2, math.nan),
        (0.02**2, 0.25, 0.06**2, math.inf),  # once refused only after the temporal pass
    ):
        with pytest.raises(ValueError, match="at least the derivative scales"):
            second_moment_glissando(L, *scales)
        with pytest.raises(ValueError, match="at least the derivative scales"):
            second_moment_kernels(*scales)


@pytest.mark.parametrize(
    "scales, text",
    [
        ((math.nan, 0.25, 4e-3, 1.0), "ladder scale tau must be positive and finite, got nan"),
        ((4e-4, math.nan, 4e-3, 1.0), "spectral scale s must be non-negative and finite"),
        ((4e-4, -1.0, 4e-3, 1.0), "spectral scale s must be non-negative and finite"),
    ],
    ids=["tau_a-nan", "s-nan", "s-negative"],
)
def test_second_moment_kernels_refuse_a_bad_derivative_scale_through_its_owner(scales, text):
    """A NaN tau_a or s read as integration scales below the derivative
    scales, and s = -1 went through until ``second_moment_glissando``."""
    with pytest.raises(ValueError, match=text):
        second_moment_kernels(*scales)


@pytest.mark.parametrize(
    "make",
    [
        lambda L: detect_onsets(L, 1e294, S_NU),
        lambda L: second_moment_glissando(L, TAU_A, S_NU, 1e294, 1.0),
    ],
    ids=["onsets", "second_moment"],
)
def test_layer2_refuses_a_warm_up_from_2_to_the_53_frames(make):
    """A cascade at tau = 1e294 s^2 warms up over about 1e150 frames, a count
    whose sum with the map's warm-up once ended in OverflowError."""
    with pytest.raises(ValueError, match="not below 2\\^53"):
        make(synthetic_db_step(duration=0.2))


@pytest.mark.parametrize("detect", [detect_onsets, detect_offsets])
def test_derivative_features_refuse_a_kernel_at_another_scale(detect):
    """tau_a was ignored when a kernel came with it: onset maps at 1e-4 and
    9e-4 were bitwise equal."""
    L = synthetic_db_step(duration=0.2)
    with pytest.raises(ValueError, match="tau_a"):
        detect(L, 9e-4, S_NU, FAM.temporal(1e-4))
    assert detect(L, 1e-4, S_NU, FAM.temporal(1e-4)).values.shape == L.values.shape


@pytest.mark.parametrize(
    "make",
    [
        lambda L, t: band_response(L, 9e-4, S_NU, t),
        lambda L, t: enhance_bands(L, 9e-4, S_NU, t),
        lambda L, t: glissando_filterbank(L, [0.0, 12.0], 9e-4, S_NU, t),
    ],
    ids=["band_response", "enhance_bands", "glissando_filterbank"],
)
def test_band_features_refuse_a_kernel_at_another_scale(make):
    L = synthetic_db_step(duration=0.2)
    with pytest.raises(ValueError, match="tau_a"):
        make(L, TemporalKernelSpec.gaussian(1e-4))


def test_second_moment_refuses_kernels_at_other_scales():
    """The tau_i >= tau_a check read the arguments the kernels overrode, so a
    derivative window wider than the integration window went through."""
    L = synthetic_db_step(duration=0.2)
    wide, narrow = TemporalKernelSpec.gaussian(9e-4), TemporalKernelSpec.gaussian(1e-4)
    with pytest.raises(ValueError, match="tau_a"):
        second_moment_glissando(L, 1e-4, S_NU, 9e-4, 1.0, wide, narrow)
    with pytest.raises(ValueError, match="tau_i"):
        second_moment_glissando(L, 9e-4, S_NU, 9e-4, 1.0, wide, narrow)


def second_moment_by_five_fields(S, s, s_i, temporal, integration_temporal):
    """The second-moment fit as two gradient fields and three integrations,
    each a separate ``apply_rf`` call."""
    lt = apply_rf(S, RFSpec(temporal=temporal, s=s, alpha=1, beta=0, normalized=False))
    lnu = apply_rf(S, RFSpec(temporal=temporal, s=s, alpha=0, beta=1, normalized=False))
    integration = RFSpec(temporal=integration_temporal, s=s_i, alpha=0, beta=0)
    y_tt, y_tnu, y_nunu = (
        apply_rf(replace(S, values=product), integration)
        for product in (lt.values * lt.values, lt.values * lnu.values, lnu.values * lnu.values)
    )
    floor = 1e-6 * float(np.median(y_nunu.values))
    defined = y_nunu.values > max(floor, 0.0)
    vhat = np.zeros_like(y_nunu.values)
    np.divide(-y_tnu.values, y_nunu.values, out=vhat, where=defined)
    warmup = np.maximum(y_tt.warmup_frames, lt.warmup_frames)
    return y_tt.values, y_tnu.values, y_nunu.values, vhat, defined, warmup


TAU_I = 0.06 ** 2
SM_WINDOWS = {
    "default": (None, None),
    "gauss": (TemporalKernelSpec.gaussian(TAU_A), TemporalKernelSpec.gaussian(TAU_I)),
}


@pytest.mark.parametrize("s, s_i", [(0.0, 0.0), (0.0, 1.0), (S_NU, S_NU), (S_NU, 1.0)])
@pytest.mark.parametrize("window", sorted(SM_WINDOWS))
def test_second_moment_is_bitwise_the_five_field_formula(window, s, s_i):
    L = step_tone_db(duration=0.5)
    temporal, integration_temporal = SM_WINDOWS[window]
    sm = second_moment_glissando(L, TAU_A, s, TAU_I, s_i, temporal, integration_temporal)
    if temporal is None:
        temporal = SpectrogramFamily("rec-uni", K=4).temporal(TAU_A)
        integration_temporal = SpectrogramFamily("rec-uni", K=4).temporal(TAU_I)
    expected = second_moment_by_five_fields(L, s, s_i, temporal, integration_temporal)
    got = (sm.upsilon_tt, sm.upsilon_tnu, sm.upsilon_nunu, sm.vhat, sm.defined, sm.warmup_frames)
    for name, a, b in zip(("tt", "tnu", "nunu", "vhat", "defined", "warmup"), got, expected):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def second_moment_by_stencil(S, s, s_i, temporal, integration_temporal):
    """The three integrated products, with L_nu the stencil pass over the
    smoothed map."""
    space = ScaleSpace(S.values, S.frame_rate, S.grid.delta_nu, temporal, s)
    lt, smoothed = space.fields((1, 0), (0, 0))
    lnu = central_difference(smoothed, 1, S.grid.delta_nu)
    products = (lt * lt, lt * lnu, lnu * lnu)
    integration = RFSpec(integration_temporal, s_i)
    return [apply_rf(replace(S, values=p), integration).values for p in products]


@pytest.mark.parametrize("s, s_i", [(0.0, 1.0), (S_NU, S_NU), (S_NU, 1.0)])
@pytest.mark.parametrize("window", sorted(SM_WINDOWS))
def test_second_moment_is_within_1e_12_of_the_stencil_pass(window, s, s_i):
    """L_nu from the folded channel pass moves each integrated product by at
    most 1e-12 of its peak, and the slope by as little where Y_nunu is at
    least 1e-4 of its peak; below that the ratio magnifies Y_nunu's
    rounding."""
    L = step_tone_db(duration=0.5)
    temporal, integration_temporal = SM_WINDOWS[window]
    if temporal is None:
        temporal = SpectrogramFamily("rec-uni", K=4).temporal(TAU_A)
        integration_temporal = SpectrogramFamily("rec-uni", K=4).temporal(TAU_I)
    sm = second_moment_glissando(L, TAU_A, s, TAU_I, s_i, temporal, integration_temporal)
    want = second_moment_by_stencil(L, s, s_i, temporal, integration_temporal)
    for got, ref in zip((sm.upsilon_tt, sm.upsilon_tnu, sm.upsilon_nunu), want):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    y_tnu, y_nunu = want[1], want[2]
    kept = y_nunu >= 1e-4 * np.max(y_nunu)
    vhat = -y_tnu[kept] / y_nunu[kept]
    assert np.max(np.abs(sm.vhat[kept] - vhat)) <= 1e-12 * np.max(np.abs(vhat))


@pytest.mark.parametrize(
    "window, smoother, count",
    [("default", "discrete_recursive_smooth", 2), ("gauss", "discrete_gaussian_kernel", 4)],
)
def test_second_moment_smooths_once_per_scale(window, smoother, count, monkeypatch):
    """One temporal pass per scale; a Gaussian pass and the channel pass at
    each scale build one kernel each."""
    calls = count_calls(monkeypatch, smoother)
    L = step_tone_db(duration=0.5)
    second_moment_glissando(L, TAU_A, S_NU, TAU_I, 1.0, *SM_WINDOWS[window])
    assert len(calls) == count


@pytest.mark.parametrize("level", ["silence", "ramp"])
@pytest.mark.parametrize("window", sorted(SM_WINDOWS))
def test_maps_flat_along_frequency_give_exactly_zero_bands(window, level, rng):
    """A spectral derivative's taps sum to 0 only up to rounding: unless
    each frame's level is taken out first, a flat frame at -200 dB gave a
    band response of order 1e-16, and the second moment counted such
    cells as defined."""
    L = default_grid_db_map(0.3, rng)
    if level == "silence":
        frames = np.full(L.n_frames, -200.0)
    else:
        frames = np.linspace(-120.0, 10.0, L.n_frames)
    L = replace(L, values=frames[:, None] * np.ones(L.grid.n_channels))
    temporal, integration_temporal = SM_WINDOWS[window]
    assert np.all(band_response(L, TAU_A, S_NU, temporal).values == 0.0)
    assert np.all(enhance_bands(L, TAU_A, S_NU, temporal).values == 0.0)
    sm = second_moment_glissando(L, TAU_A, S_NU, TAU_I, 1.0, temporal, integration_temporal)
    assert not sm.defined.any()


def test_feature_maps_share_spectrogram_axes():
    L = step_tone_db()
    onset = detect_onsets(L, TAU_A, S_NU)
    assert onset.values.shape == L.values.shape
    assert onset.frame_times is L.frame_times or np.array_equal(
        onset.frame_times, L.frame_times
    )
    assert onset.kind == "onset"


def test_a_map_cut_to_its_first_frames_keeps_its_comb(tmp_path):
    """Frame times are read off the frame index, so a map cut to its first
    frames carries the first frame times: the sheared fields, the bank and
    the grid writer all take it."""
    L = step_tone_db(t_on=0.2, duration=0.5)
    head = replace(L, values=L.values[:200])
    assert head.frame_times.tobytes() == L.frame_times[:200].tobytes()
    for v in (-12.0, 12.0):
        assert apply_rf(head, band_field(TAU_A, S_NU, v=v)).n_frames == 200
    assert glissando_filterbank(head, (-12.0, 0.0, 12.0), TAU_A, S_NU).vhat.shape[0] == 200
    bands = enhance_bands(head, TAU_A, S_NU)
    write_grid_csv(tmp_path / "bands.csv", bands.grid.nu, bands.frame_times, bands.values)
    _, times, values = read_grid_csv(tmp_path / "bands.csv")
    assert values.shape == (200, L.grid.n_channels)
    assert times[-1] == pytest.approx(L.frame_times[199], abs=1e-6)


@pytest.mark.parametrize("kind, dead", [("rec-log", 168), ("gauss", 111)])
def test_channels_whose_warm_up_outlasts_the_clip_are_reported_not_refused(kind, dead):
    """On a 0.1 s clip on the default grid the lowest channels are warm-up
    in every frame: layer 1 reports them through ``warmup_frames`` and does
    not raise, and layer 2 finds nothing there. A tone in those channels
    and one above them, at a 4 ms layer-2 window, leave band responses
    above c_min in the dead channels and ridges elsewhere."""
    grid = build_frequency_grid(midi_from_frequency(80.0), midi_from_frequency(16000.0), 48)
    t = np.arange(int(0.1 * RATE)) / RATE
    x = 0.01 * np.random.default_rng(11).standard_normal(t.size)
    x += 0.5 * np.sin(2 * np.pi * 700.0 * t) + 0.5 * np.sin(2 * np.pi * 3000.0 * t)
    L = to_db(compute_spectrogram(x, RATE, grid, SpectrogramFamily(kind)))
    outlasting = L.warmup_frames >= L.n_frames
    assert np.count_nonzero(outlasting) == dead
    tau_a = 0.004**2
    for feature in (detect_onsets, enhance_bands):
        assert not feature(L, tau_a, S_NU).values[:, outlasting].any()
    band = band_response(L, tau_a, S_NU)
    assert (band.values[:, outlasting] >= 3.0).any()
    assert not ridge_mask(band.values, band.warmup_frames, 3.0)[:, outlasting].any()
    curves = extract_partial_curves(band, c_min=3.0)
    assert curves
    dead_nu = grid.nu[outlasting].max() + 0.5 * grid.delta_nu
    assert all(curve.nus.min() > dead_nu for curve in curves)


def test_onset_peak_time_respects_delay_compensation_bound():
    """Compensating layer-1 delays moves the onset peak of a step to within
    the layer-2 window of the physical step time."""
    from tonescale.spectrogram import delay_compensate

    t_on = 0.4
    grid = build_frequency_grid(64.0, 74.0, 48, law=WindowScaleLaw(n=8.0))
    t = np.arange(int(1.0 * RATE)) / RATE
    x = 0.5 * (t >= t_on) * np.sin(2 * np.pi * 440.0 * t)
    S = compute_spectrogram(x, RATE, grid, FAM, hop=44)
    L = to_db(delay_compensate(S))
    onset = detect_onsets(L, TAU_A, S_NU)
    ch = int(np.argmin(np.abs(grid.nu - 69.0)))
    frame_rate = RATE / 44
    peak_t = np.argmax(onset.values[:, ch]) / frame_rate
    lad = discretize_ladder(SpectrogramFamily("rec-uni", K=4).ladder(TAU_A), frame_rate)
    t_max2 = 3 * lad.mus[0] / frame_rate
    t_infl1_2 = (3 - math.sqrt(3)) * lad.mus[0] / frame_rate
    slack = t_max2 - t_infl1_2 + 2.0 / frame_rate
    assert abs(peak_t - (t_on + t_max2)) <= slack


def test_layer2_ops_compose_on_an_onset_map():
    onset = detect_onsets(step_tone_db(), TAU_A, S_NU)
    assert onset.frame_rate == pytest.approx(RATE / 44)
    smoothed = apply_rf(onset, RFSpec(temporal=FAM.temporal(TAU_A), s=S_NU))
    assert smoothed.kind == "rf" and smoothed.values.shape == onset.values.shape
    assert np.all(smoothed.warmup_frames >= onset.warmup_frames)
    bands = enhance_bands(onset, TAU_A, S_NU)
    assert bands.kind == "band" and np.all(bands.values >= 0.0)
    assert np.all(bands.warmup_frames >= onset.warmup_frames)


def ridge_points_of_one_frame(row, nu0, dnu, c_min):
    """The ridge scan of one frame, channel by channel."""
    n = len(row)
    if n < 5:
        return []
    d = np.zeros(n)
    d[1:-1] = (row[2:] - row[:-2]) / (2.0 * dnu)
    dd = np.full(n, 1.0)
    dd[1:-1] = (row[2:] - 2.0 * row[1:-1] + row[:-2]) / (dnu * dnu)
    points = []
    for i in range(1, n - 2):
        if d[i] > 0.0 >= d[i + 1] and (d[i] != 0.0 or d[i + 1] != 0.0):
            frac = d[i] / (d[i] - d[i + 1])
            if dd[i] >= 0.0 and dd[i + 1] >= 0.0:
                continue
            strength = row[i] + frac * (row[i + 1] - row[i])
            if strength < c_min:
                continue
            points.append((nu0 + (i + frac) * dnu, strength))
    return points


@pytest.mark.parametrize("c_min", [3.0, -math.inf])
@pytest.mark.parametrize("step", [0.0, 2.5], ids=["continuous", "plateaus"])
@pytest.mark.parametrize("n_ch", [1, 2, 4, 5, 6, 48])
def test_ridge_scan_is_bitwise_the_per_frame_scan(n_ch, step, c_min, rng):
    values = rng.normal(0.0, 6.0, size=(80, n_ch))
    if step:  # whole steps: many neighbours are equal, so derivatives are exactly 0
        values = step * np.round(values / step)
    if n_ch >= 7:
        values[0, :7] = [0.0, 1.0, 5.0, 5.0, 5.0, 1.0, 0.0]  # a flat-topped peak
        values[1, :7] = [0.0, 4.0, 4.0, 1.0, 4.0, 4.0, 0.0]
    frames, nus, strengths = _ridge_points(values, 61.5, 0.25, c_min)
    assert np.all(np.diff(frames) >= 0) and np.all((0 <= frames) & (frames < len(values)))
    for j, row in enumerate(values):
        want = ridge_points_of_one_frame(row, 61.5, 0.25, c_min)
        got_j = np.stack([nus[frames == j], strengths[frames == j]], axis=1)
        want_j = np.array(want, dtype=float).reshape(-1, 2)
        assert got_j.tobytes() == want_j.tobytes(), j
    if n_ch >= 5 and c_min == -math.inf:
        assert frames.size > 0


def link_by_full_scan(frame_points, warm, nu0, dnu, max_jump):
    """The linker oracle: every point of a frame against every active curve,
    each point gated against its warm-up stencil on its own."""
    n_ch = len(warm)
    warm_min, warm_max = int(warm.min()), int(warm.max())
    active, finished = [], []
    for j in range(len(frame_points)):
        points = [] if j < warm_min else frame_points[j]
        if points and j < warm_max:
            kept = []
            for nu, strength in points:
                i = int((nu - nu0) / dnu)
                if j >= int(warm[max(0, i - 1) : min(n_ch, i + 3)].max()):
                    kept.append((nu, strength))
            points = kept
        taken = [False] * len(points)
        survivors = []
        for curve in active:
            best, best_dist = -1, max_jump
            for idx, (nu, _) in enumerate(points):
                dist = abs(nu - curve["nus"][-1])
                if not taken[idx] and dist <= best_dist:
                    best, best_dist = idx, dist
            if best >= 0:
                taken[best] = True
                nu, strength = points[best]
                curve["frames"].append(j)
                curve["nus"].append(nu)
                curve["strengths"].append(strength)
                survivors.append(curve)
            else:
                finished.append(curve)
        for idx, (nu, strength) in enumerate(points):
            if not taken[idx]:
                survivors.append({"frames": [j], "nus": [nu], "strengths": [strength]})
        active = survivors
    finished.extend(active)
    finished.sort(key=lambda cu: (cu["frames"][0], cu["nus"][0]))
    return finished


@st.composite
def ridge_frames(draw):
    """Frames of ridge points on a lattice of quarter channels, so that
    distances of exactly ``max_jump`` and ties are common: a point between
    channels i and i + 1 (1 <= i <= n_ch - 3) lies at i + frac, frac in
    (0, 1], and gates against channels i - 1 .. i + 2 during warm-up."""
    n_ch = draw(st.integers(5, 12))
    point = st.tuples(st.integers(5, 4 * (n_ch - 2)), st.floats(3.0, 60.0))
    frame = st.lists(point, max_size=6, unique_by=lambda p: p[0]).map(sorted)
    frames = draw(st.lists(frame, max_size=14))
    warm = draw(st.lists(st.integers(0, 6), min_size=n_ch, max_size=n_ch))
    return np.array(warm), frames


@settings(max_examples=300, deadline=None)
@given(
    layout=ridge_frames(),
    nu0=st.sampled_from([61.5, -2.0, 0.0]),
    dnu=st.sampled_from([0.25, 1.0 / 3.0, 1.0 / 48.0]),
    jump=st.sampled_from([0, 1, 2, 3, 4, 6, 8, None]),
)
@example(
    layout=(np.zeros(6, dtype=int), [[(6, 5.0), (10, 6.0)], [(8, 7.0)], []]),
    nu0=61.5,
    dnu=0.25,
    jump=2,
)
@example(
    layout=(np.array([3, 0, 0, 0, 0, 0, 2]), [[(5, 4.0), (20, 4.0)]] * 5),
    nu0=0.0,
    dnu=1.0 / 3.0,
    jump=None,
)
def test_ridge_linker_is_bitwise_the_full_scan(layout, nu0, dnu, jump):
    """Frames, frequencies and strengths of every curve, in order, against
    the full scan: exact ``max_jump`` distances (``jump`` quarter channels,
    or 1 semitone), equal-distance ties, empty frames and stencils at both
    edges of the grid during warm-up."""
    warm, frames = layout
    max_jump = 1.0 if jump is None else jump * dnu / 4.0
    frame_points = [[(nu0 + q / 4.0 * dnu, c) for q, c in frame] for frame in frames]
    points = [(j, nu, c) for j, frame in enumerate(frame_points) for nu, c in frame]
    got = _link_ridges(
        np.array([p[0] for p in points], dtype=int),
        np.array([p[1] for p in points], dtype=float),
        np.array([p[2] for p in points], dtype=float),
        len(frames),
        warm,
        nu0,
        dnu,
        max_jump,
    )
    want = link_by_full_scan(frame_points, warm, nu0, dnu, max_jump)
    assert len(got) == len(want)
    for curve, cu in zip(got, want):
        assert curve.frames.tobytes() == np.array(cu["frames"], dtype=int).tobytes()
        assert curve.nus.tobytes() == np.array(cu["nus"]).tobytes()
        assert curve.strengths.tobytes() == np.array(cu["strengths"]).tobytes()


@pytest.mark.parametrize(
    "last, nu",
    [(1.3779326785796648, 0.3779326785796648), (-1.946066276384646, -0.9460662763846458)],
)
def test_ridge_linker_takes_a_point_past_the_rounded_bisection_bound(last, nu):
    """|nu - last| rounds to exactly max_jump = 1 although nu lies just
    outside last -/+ 1 as rounded, where bisection alone would not look."""
    assert abs(nu - last) <= 1.0 and not (last - 1.0 <= nu <= last + 1.0)
    points = np.array([0, 1]), np.array([last, nu]), np.array([5.0, 6.0])
    curves = _link_ridges(*points, 2, np.zeros(10, dtype=int), -5.0, 1.0, 1.0)
    assert len(curves) == 1 and curves[0].nus.tolist() == [last, nu]


def default_grid_db_map(seconds, rng):
    """A dB map of noise on the default CLI grid (368 channels, 1 ms frames)."""
    grid = build_frequency_grid(midi_from_frequency(80.0), midi_from_frequency(16000.0), 48)
    hop = 44
    n_frames = int(seconds * RATE / hop)
    return TFMap(
        values=rng.normal(-40.0, 15.0, size=(n_frames, grid.n_channels)),
        grid=grid,
        sample_rate=RATE,
        hop=hop,
        family=FAM,
        warmup_frames=np.zeros(grid.n_channels, dtype=int),
        kind="db",
    )


def peak_maps(L, run):
    """tracemalloc's peak while ``run`` runs, in arrays the size of L's map."""
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / L.values.nbytes


def test_second_moment_peak_memory_is_at_most_seven_and_a_half_maps(rng):
    L = default_grid_db_map(0.5, rng)
    peak = peak_maps(L, lambda: second_moment_glissando(L, TAU_A, S_NU, TAU_I, 1.0))
    assert peak <= 7.5


LAYER2_PEAKS = {  # feature on a map L: (run, bound in maps)
    "band_response": (lambda L: band_response(L, TAU_A, S_NU), 3.5),
    "detect_onsets": (lambda L: detect_onsets(L, TAU_A, S_NU), 3.5),
    "gaussian_bank": (
        lambda L: glissando_filterbank(
            L, [-24.0, -12.0, 0.0, 12.0, 24.0], 0.06 ** 2, S_NU, TemporalKernelSpec.gaussian(0.06 ** 2)
        ),
        7.5,
    ),
}


@pytest.mark.parametrize("feature", sorted(LAYER2_PEAKS))
def test_layer2_feature_peak_memory_stays_within_its_bound(feature, rng):
    """One field's temporal and channel passes and its time difference hold
    about three maps at once; the 5-member bank about seven."""
    L = default_grid_db_map(0.5, rng)
    run, bound = LAYER2_PEAKS[feature]
    assert peak_maps(L, lambda: run(L)) <= bound


def test_glissando_bank_visits_a_repeated_slope_once(monkeypatch):
    """``apply_rf`` is entered once per distinct slope, sheared or not: a
    sheared field warps around its own one pass instead of calling itself."""
    L = step_tone_db(duration=0.4)
    want = glissando_filterbank(L, (-12.0, 0.0, 12.0), TAU_A, S_NU)
    calls = count_calls(monkeypatch, "apply_rf")
    got = glissando_filterbank(L, (12.0, 0.0, -12.0, 12.0, 0.0), TAU_A, S_NU)
    assert [spec.v for _, spec in calls] == [0.0, -12.0, 12.0]
    assert got.bank == (12.0, 0.0, -12.0, 12.0, 0.0)
    assert np.array_equal(got.vhat, want.vhat) and np.array_equal(got.response, want.response)
