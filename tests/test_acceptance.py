"""End-to-end acceptance checks for the library's published guarantees.

Each test covers one numbered guarantee, asserts the stated tolerance and
runtime budget, and prints a single PASS line with the measured margin.
Reference values are frozen literals; two entries correct transcription
slips in the source material (documented in the project decision log).
"""

import math
import time

import numpy as np
import pytest

from tonescale.cli_io import cli_main
from tonescale.features import (
    band_response,
    detect_onsets,
    extract_partial_curves,
    glissando_filterbank,
    ridge_mask,
    second_moment_glissando,
)
from tonescale.selectivity_analysis import (
    bandwidth_constant_table,
    delay_max_table,
    delay_mean_table,
    selectivity_db_at_constant,
)
from tonescale.spectrogram import (
    SpectrogramFamily,
    TFMap,
    WindowScaleLaw,
    build_frequency_grid,
    channel_delays,
    compute_spectrogram,
    delay_compensate,
    to_db,
)
from tonescale.temporal_scale_space import (
    TemporalKernelSpec,
    discrete_gaussian_kernel,
    discrete_recursive_smooth,
    discretize_ladder,
    gaussian_kernel_sample,
)

from conftest import (
    composed_uniform_kernel_sample,
    count_local_extrema,
    exponential_chirp,
    one_stage_ladder,
    sine,
)

RATE = 44100.0
HOP = 44
FAM = SpectrogramFamily(kind="rec-log", K=7, c=math.sqrt(2.0))

# Bandwidth constants C at -3/-10/-20/-30 dB; rows: gauss, then K=4 and K=7
# each as uniform, c=sqrt(2), c=2^(3/4), c=2.
TABLE1 = [
    [0.132, 0.242, 0.342, 0.418],
    [0.138, 0.281, 0.468, 0.684],
    [0.140, 0.292, 0.498, 0.736],
    [0.143, 0.312, 0.553, 0.838],
    [0.146, 0.332, 0.619, 0.971],
    [0.136, 0.263, 0.406, 0.546],
    [0.140, 0.289, 0.478, 0.678],
    [0.143, 0.311, 0.547, 0.816],
    [0.146, 0.332, 0.617, 0.963],
]

# Mean delay per sqrt(tau); rows K=2..8, columns uniform, sqrt(2), 2^(3/4), 2.
# The K=8 c=2 entry is 1.726; the commonly quoted 1.732 is the K->inf limit
# sqrt(3) and does not match the finite-K closed form.
TABLE2 = [
    [1.414, 1.414, 1.399, 1.366],
    [1.732, 1.707, 1.636, 1.549],
    [2.000, 1.914, 1.777, 1.641],
    [2.236, 2.061, 1.860, 1.686],
    [2.449, 2.164, 1.910, 1.709],
    [2.646, 2.237, 1.940, 1.721],
    [2.828, 2.289, 1.957, 1.726],
]

# Kernel-maximum position per sqrt(tau); same layout. The K=2 c=2 entry is
# 0.650 from the exact two-stage peak formula (0.640 is a misprint).
TABLE3 = [
    [0.707, 0.707, 0.688, 0.650],
    [1.154, 1.122, 1.027, 0.909],
    [1.500, 1.385, 1.199, 1.014],
    [1.789, 1.556, 1.289, 1.060],
    [2.041, 1.669, 1.340, 1.083],
    [2.268, 1.745, 1.370, 1.095],
    [2.475, 1.797, 1.388, 1.100],
]


def table_values(table: dict) -> np.ndarray:
    return np.array([cells for _, cells in table["rows"]], dtype=float)


def test_criterion_01_bandwidth_constant_table():
    start = time.perf_counter()
    got = table_values(bandwidth_constant_table())
    assert cli_main(["analyze", "--table", "1"]) == 0
    elapsed = time.perf_counter() - start
    diff = np.abs(got - np.array(TABLE1))
    assert got.shape == (9, 4)
    assert diff.max() <= 1e-3
    assert elapsed < 5.0
    print(
        f"criterion 1 PASS: 36 bandwidth constants, max deviation "
        f"{diff.max():.2e} <= 1e-3, {elapsed:.2f} s"
    )


def test_criterion_02_mean_delay_table():
    start = time.perf_counter()
    got = table_values(delay_mean_table())
    elapsed = time.perf_counter() - start
    diff = np.abs(got - np.array(TABLE2))
    assert diff.max() <= 1e-3
    assert elapsed < 1.0
    print(
        f"criterion 2 PASS: 28 mean delays, max deviation "
        f"{diff.max():.2e} <= 1e-3, {elapsed:.2f} s"
    )


def test_criterion_03_peak_delay_table():
    start = time.perf_counter()
    table = delay_max_table()
    got = table_values(table)
    elapsed = time.perf_counter() - start
    diff = np.abs(got - np.array(TABLE3))
    assert diff.max() <= 5e-3
    # equal-stage column must be the closed form (K-1)/sqrt(K), not numeric
    for i, K in enumerate(range(2, 9)):
        assert got[i, 0] == pytest.approx((K - 1) / math.sqrt(K), rel=1e-12)
    assert elapsed < 30.0
    print(
        f"criterion 3 PASS: 28 peak delays, max deviation "
        f"{diff.max():.2e} <= 5e-3, uniform column exact, {elapsed:.2f} s"
    )


def test_criterion_04_measured_selectivity_matches_closed_form():
    start = time.perf_counter()
    grid = build_frequency_grid(63.0, 75.0, 48, law=WindowScaleLaw(n=8.0))
    x = sine(440.0, 3.0, RATE, amp=0.5)
    spec = compute_spectrogram(x, RATE, grid, FAM, hop=HOP)
    mag = np.abs(spec.values)
    settled = mag[mag.shape[0] // 2 :, :]
    level = np.median(settled, axis=0)
    center = int(np.argmin(np.abs(grid.nu - 69.0)))
    measured_db = 20.0 * np.log10(level / level[center])

    freqs = 440.0 * 2.0 ** ((grid.nu - 69.0) / 12.0)
    predicted_db = np.array(
        [selectivity_db_at_constant(FAM, 8.0 * abs(440.0 - f) / f) for f in freqs]
    )
    audible = predicted_db >= -40.0
    assert audible.sum() > 10
    worst = np.max(np.abs(measured_db[audible] - predicted_db[audible]))
    elapsed = time.perf_counter() - start
    assert worst < 0.5
    assert elapsed < 60.0
    print(
        f"criterion 4 PASS: selectivity of {int(audible.sum())} channels above "
        f"-40 dB within {worst:.2e} dB <= 0.5 dB, {elapsed:.2f} s"
    )


def test_criterion_05_scale_space_property_suite():
    start = time.perf_counter()
    g = np.random.default_rng(20240817)

    # non-creation of local extrema on 1000 random signals
    lad = discretize_ladder(SpectrogramFamily("rec-uni", K=3).ladder(1e-4), 8000.0)
    violations = 0
    for _ in range(1000):
        x = g.normal(size=256)
        if count_local_extrema(discrete_recursive_smooth(x, lad)) > count_local_extrema(x):
            violations += 1
    assert violations == 0

    # kernel normalization to 1e-9: discrete, sampled continuous, and the
    # cascade's DC gain
    norm_errs = []
    for s in (0.5, 3.7, 12.0, 40.0):
        norm_errs.append(abs(float(np.sum(discrete_gaussian_kernel(s, 1e-12).values)) - 1.0))
    tau = 0.37
    tgrid = np.arange(-10.0, 10.0, 1e-3) * math.sqrt(tau)
    norm_errs.append(abs(float(np.trapezoid(gaussian_kernel_sample(tau, tgrid), tgrid)) - 1.0))
    dc = discrete_recursive_smooth(np.ones(512), one_stage_ladder(4.0))[-1]
    norm_errs.append(abs(float(dc) - 1.0))
    assert max(norm_errs) <= 1e-9

    # variance additivity of composed discrete Gaussians
    var_errs = []
    for s1, s2 in ((1.5, 2.5), (4.0, 9.0)):
        k1 = discrete_gaussian_kernel(s1, 1e-12)
        k2 = discrete_gaussian_kernel(s2, 1e-12)
        both = np.convolve(k1.values, k2.values)
        taps = np.arange(len(both)) + k1.times[0] + k2.times[0]
        mean = float(np.dot(both, taps))
        var = float(np.dot(both, (taps - mean) ** 2))
        var_errs.append(abs(var - (s1 + s2)))
    assert max(var_errs) <= 1e-6

    # semigroup: composing two kernels equals the kernel at the summed scale
    k1 = discrete_gaussian_kernel(3.0, 1e-12)
    k2 = discrete_gaussian_kernel(5.0, 1e-12)
    k12 = discrete_gaussian_kernel(8.0, 1e-12)
    both = np.convolve(k1.values, k2.values)
    offset = int(round(k12.times[0] - (k1.times[0] + k2.times[0])))
    semigroup_err = float(
        np.max(np.abs(both[offset : offset + len(k12.values)] - k12.values))
    )
    assert semigroup_err <= 1e-8

    # cascade structure: log-ladder variances telescope exactly, and
    # discretization conserves the total variance exactly
    for K, c in ((4, math.sqrt(2.0)), (7, 2.0)):
        ladder = SpectrogramFamily("rec-log", K=K, c=c).ladder(1e-3)
        acc = 0.0
        for k, mu in enumerate(ladder.mus, start=1):
            acc += mu * mu
            assert acc == pytest.approx(1e-3 * c ** (2.0 * (k - K)), rel=1e-12)
        disc = discretize_ladder(ladder, RATE)
        total = sum(mu * mu + mu for mu in disc.mus)
        assert total == pytest.approx(RATE * RATE * 1e-3, rel=1e-12)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"criterion 5 PASS: 0/1000 extrema violations, normalization "
        f"{max(norm_errs):.1e} <= 1e-9, variance additivity {max(var_errs):.1e} "
        f"<= 1e-6, semigroup {semigroup_err:.1e} <= 1e-8, cascade exact, "
        f"{elapsed:.2f} s"
    )


def test_criterion_06_gammatone_closed_form_identity():
    worst = 0.0
    for mu, K, f in ((0.004, 4, 440.0), (0.002, 7, 1000.0), (0.05, 2, 100.0)):
        t = np.arange(0.0, 12.0 * mu * K, 1e-5)
        carrier = np.cos(2 * math.pi * f * t + 0.3)
        windowed = composed_uniform_kernel_sample(mu, K, t) * carrier
        a = 1.0 / (mu**K * math.gamma(K))
        b = 1.0 / (2 * math.pi * mu)
        gammatone = a * t ** (K - 1) * np.exp(-2 * math.pi * b * t) * carrier
        worst = max(worst, float(np.max(np.abs(windowed - gammatone))))
    assert worst <= 1e-12
    print(
        f"criterion 6 PASS: windowed carrier equals the closed-form gammatone "
        f"(a = 1/(mu^K Gamma(K)), b = 1/(2 pi mu)) to {worst:.1e} <= 1e-12"
    )


def test_criterion_07_invariance_suite():
    start = time.perf_counter()

    # amplitude: x10 input leaves derivative maps untouched
    grid = build_frequency_grid(64.5, 73.5, 48, law=WindowScaleLaw(n=8.0))
    worst_amp = 0.0
    maps = {}
    for amp in (0.5, 5.0):
        L = to_db(compute_spectrogram(sine(440.0, 1.5, RATE, amp=amp), RATE, grid, FAM, hop=HOP))
        maps[amp] = (
            band_response(L, 0.02**2, 0.25),
            detect_onsets(L, 0.02**2, 0.25),
        )
    for low, high in zip(maps[0.5], maps[5.0]):
        warm = int(np.ceil(1.2 * np.max(low.warmup_frames)))
        delta = float(np.max(np.abs(low.values[warm:] - high.values[warm:])))
        worst_amp = max(worst_amp, delta)
    assert worst_amp <= 1e-6

    # transposition: one octave moves everything by exactly 48 bins
    grid_t = build_frequency_grid(55.0, 95.0, 48, law=WindowScaleLaw(n=8.0))
    L440 = to_db(compute_spectrogram(sine(440.0, 1.5, RATE, amp=0.5), RATE, grid_t, FAM, hop=HOP))
    L880 = to_db(compute_spectrogram(sine(880.0, 1.5, RATE, amp=0.5), RATE, grid_t, FAM, hop=HOP))
    warm = int(np.ceil(np.max(np.maximum(L440.warmup_frames, L880.warmup_frames))))
    frame = warm + (L440.values.shape[0] - warm) // 2
    shift = int(np.argmax(L880.values[frame])) - int(np.argmax(L440.values[frame]))
    assert shift == 48

    n_ch = grid_t.n_channels
    core = slice(48, n_ch - 96)
    resid = np.abs(L880.values[warm:, 48:][:, core] - L440.values[warm:, core])
    worst_shift = float(np.max(resid))
    assert worst_shift < 0.5

    # feature maps ride along: the enhanced-band ridge moves by the same 48
    band440 = band_response(L440, 0.02**2, 0.25)
    band880 = band_response(L880, 0.02**2, 0.25)
    bshift = int(np.argmax(band880.values[frame])) - int(np.argmax(band440.values[frame]))
    assert bshift == 48

    elapsed = time.perf_counter() - start
    print(
        f"criterion 7 PASS: x10 amplitude changes derivative maps by "
        f"{worst_amp:.1e} <= 1e-6; +12 st shifts by exactly 48 bins with "
        f"interior residual {worst_shift:.2e} dB < 0.5 dB, {elapsed:.2f} s"
    )


def test_criterion_08_glissando_estimation():
    start = time.perf_counter()
    grid = build_frequency_grid(50.0, 90.0, 48, law=WindowScaleLaw(n=8.0))
    bank = (-40.0, -20.0, -10.0, 0.0, 10.0, 20.0, 40.0)
    tau_a = 0.06**2
    interior = (grid.nu >= 58.0) & (grid.nu <= 82.0)
    fractions = {}
    medians = {}
    for v0 in (-40.0, -20.0, 10.0, 20.0, 40.0):
        x = exponential_chirp(70.0 - v0 * 0.75, v0, 1.5, RATE)
        L = to_db(compute_spectrogram(x, RATE, grid, FAM, hop=HOP))
        est = glissando_filterbank(
            L, bank, tau_a, 0.35**2, temporal=TemporalKernelSpec.gaussian(tau_a)
        )
        warm = np.ceil(est.warmup_frames * 1.2).astype(int)
        mask = ridge_mask(est.response.copy(), warm, 4.0)
        mask[:, ~interior] = False
        assert mask.sum() > 100
        nearest = min(bank, key=lambda b: abs(b - v0))
        fractions[v0] = float(np.mean(est.vhat[mask] == nearest))

        sm = second_moment_glissando(L, 0.02**2, 0.25, 0.06**2, 1.0)
        smask = mask & sm.defined
        medians[v0] = float(np.median(sm.vhat[smask]))

    elapsed = time.perf_counter() - start
    for v0, frac in fractions.items():
        assert frac >= 0.9, f"bank argmax fraction {frac:.3f} at v0={v0}"
    for v0, med in medians.items():
        assert abs(med - v0) <= 0.1 * abs(v0), f"median {med:.2f} at v0={v0}"
    assert elapsed < 60.0
    frac_min = min(fractions.values())
    med_worst = max(abs(medians[v] - v) / abs(v) for v in medians)
    print(
        f"criterion 8 PASS: bank argmax >= {frac_min:.1%} of ridge cells "
        f"(>= 90% required), second-moment medians within {med_worst:.1%} "
        f"(<= 10%), {elapsed:.2f} s"
    )


def test_criterion_09_onset_timing():
    frame_rate = RATE / HOP
    lad = discretize_ladder(SpectrogramFamily("rec-uni", K=4).ladder(0.02**2), frame_rate)
    t_max_frames = 3.0 * lad.mus[0]

    # step presented in the dB domain: peak lands t_max after the step
    grid = build_frequency_grid(64.0, 74.0, 48, law=WindowScaleLaw(n=8.0))
    j0 = 400
    n_frames = 1000
    values = np.where(np.arange(n_frames)[:, None] >= j0, 0.0, -60.0) * np.ones(
        (1, grid.n_channels)
    )
    L = TFMap(
        values=values,
        grid=grid,
        sample_rate=RATE,
        hop=HOP,
        family=FAM,
        warmup_frames=np.zeros(grid.n_channels, dtype=int),
        kind="db",
    )
    onset = detect_onsets(L, 0.02**2, 0.25)
    ch = grid.n_channels // 2
    peak = int(np.argmax(onset.values[:, ch]))
    raw_err = abs(peak - (j0 + t_max_frames))
    assert raw_err <= 1.0

    # audio-domain step with layer-1 delays compensated: residual bounded by
    # the peak-to-inflection gap of the channel window
    t_on = 0.4
    t = np.arange(int(1.0 * RATE)) / RATE
    x = 0.5 * (t >= t_on) * np.sin(2 * math.pi * 440.0 * t)
    S = compute_spectrogram(x, RATE, grid, FAM, hop=HOP)
    Lc = to_db(delay_compensate(S))
    onset_c = detect_onsets(Lc, 0.02**2, 0.25)
    ch440 = int(np.argmin(np.abs(grid.nu - 69.0)))
    peak_c = int(np.argmax(onset_c.values[:, ch440]))
    delays = channel_delays(grid, FAM)
    slack = (delays["t_max"][ch440] - delays["t_infl1"][ch440]) * frame_rate + 1.0
    comp_err = abs(peak_c - (t_on * frame_rate + t_max_frames))
    assert comp_err <= slack

    print(
        f"criterion 9 PASS: dB-domain onset peak off by {raw_err:.2f} <= 1 frame; "
        f"compensated audio peak off by {comp_err:.2f} <= {slack:.2f} frames"
    )


def test_criterion_10_partial_tone_curves():
    grid = build_frequency_grid(60.0, 97.0, 48, law=WindowScaleLaw(n=8.0))
    t = np.arange(int(1.5 * RATE)) / RATE
    x = (
        0.4 * np.sin(2 * math.pi * 440.0 * t)
        + 0.25 * np.sin(2 * math.pi * 880.0 * t)
        + 0.15 * np.sin(2 * math.pi * 1320.0 * t)
    )
    L = to_db(compute_spectrogram(x, RATE, grid, FAM, hop=HOP))
    curves = extract_partial_curves(band_response(L, 0.02**2, 0.25), c_min=3.0)
    assert len(curves) == 3
    expected = (69.0, 69.0 + 12.0, 69.0 + 12.0 * math.log2(3.0))
    means = sorted(c.mean_nu for c in curves)
    errs = [abs(m - e) for m, e in zip(means, expected)]
    assert max(errs) <= 0.1
    print(
        f"criterion 10 PASS: exactly 3 partial curves at nu = "
        f"{means[0]:.3f}/{means[1]:.3f}/{means[2]:.3f}, max deviation "
        f"{max(errs):.3f} <= 0.1 semitones"
    )
