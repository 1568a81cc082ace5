import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tonescale.cli_io import cli_main
from tonescale.selectivity_analysis import (
    bandwidth_constant,
    bandwidth_constant_table,
    bandwidth_family_rows,
    delay_max_table,
    delay_mean_table,
    delay_measures,
    relative_bandwidth,
    selectivity_db,
    selectivity_db_at_constant,
)
from tonescale.temporal_scale_space import (
    SpectrogramFamily,
    temporal_profiles,
)

from conftest import delay_mean_limit, uniform_bandwidth_constant

GOLDEN = Path(__file__).parent / "golden"
TWO_PI_SQ = 4.0 * math.pi * math.pi


def sampled_kernel(fam, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(t, h): the family's unit-scale cascade kernel sampled from 0 to its support."""
    t = np.arange(0.0, fam.ladder(1.0).support, dt)
    return t, temporal_profiles(fam.temporal(1.0), t)[0]


def numeric_attenuation_db(fam, C: float) -> float:
    """Fourier magnitude of the unit-scale cascade kernel at detuning C, by quadrature."""
    t, h = sampled_kernel(fam, 2e-4)
    omega = 2.0 * math.pi * C
    z = np.trapezoid(h * np.exp(-1j * omega * t), t)
    return 20.0 * math.log10(abs(z))


def test_gaussian_selectivity_closed_form():
    fam = SpectrogramFamily(kind="gauss")
    # |FT of a unit-variance Gaussian| = exp(-omega^2 / 2) at omega = 2 pi C
    for C in (0.1, 0.25, 0.5):
        expected = 20.0 * math.log10(math.exp(-0.5 * (2 * math.pi * C) ** 2))
        assert selectivity_db_at_constant(fam, C) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("K", [4, 7])
def test_uniform_selectivity_matches_numeric_fourier(K):
    fam = SpectrogramFamily(kind="rec-uni", K=K)
    for C in (0.15, 0.4):
        assert selectivity_db_at_constant(fam, C) == pytest.approx(
            numeric_attenuation_db(fam, C), abs=5e-3
        )


@pytest.mark.parametrize("c", [math.sqrt(2.0), 2.0])
def test_logarithmic_selectivity_matches_numeric_fourier(c):
    fam = SpectrogramFamily(kind="rec-log", K=7, c=c)
    for C in (0.15, 0.4):
        assert selectivity_db_at_constant(fam, C) == pytest.approx(
            numeric_attenuation_db(fam, C), abs=5e-3
        )


def test_selectivity_from_frequency_ratio():
    fam = SpectrogramFamily(kind="gauss")
    rho = 2.0 ** (1.0 / 12.0)
    C = 8.0 * (rho - 1.0) / rho
    assert selectivity_db(fam, rho) == pytest.approx(
        selectivity_db_at_constant(fam, C), rel=1e-12
    )


# Levels from a fraction of a dB to far below any table column.
ROOT_LEVELS = (-0.01, -0.1, -1.0, -3.0, -10.0, -20.0, -30.0, -60.0, -120.0)


def test_bandwidth_constant_inverts_selectivity():
    """Each Table-1 family's C is the root of its dB response to within
    1e-12 dB (the bisection it replaced stopped at 1e-4 dB)."""
    for label, fam in bandwidth_family_rows():
        for level in ROOT_LEVELS:
            got = selectivity_db_at_constant(fam, bandwidth_constant(fam, level))
            assert abs(got - level) <= 1e-12, (label, level, got)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 7, 10, 30, 100])
def test_uniform_bandwidth_constant_matches_the_gamma_closed_form(K):
    fam = SpectrogramFamily("rec-uni", K=K)
    for level in ROOT_LEVELS:
        want = uniform_bandwidth_constant(K, level)
        assert bandwidth_constant(fam, level) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_single_stage_logarithmic_root_is_finite_at_deep_targets():
    """One stage of unit time constant falls to -80 dB at C = sqrt(10^8 - 1)
    / (2 pi); the bisection's bracket [1e-6, 10] refused it."""
    fam = SpectrogramFamily("rec-log", K=1, c=2.0)
    want = math.sqrt(1e8 - 1.0) / (2.0 * math.pi)
    assert bandwidth_constant(fam, -80.0) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("kind", ["gauss", "rec-uni", "rec-log"])
@pytest.mark.parametrize("level", [math.nan, -math.inf, 0.0, 3.0, math.inf])
def test_bandwidth_constant_refuses_a_target_that_is_not_negative_and_finite(kind, level):
    with pytest.raises(ValueError, match="negative and finite"):
        bandwidth_constant(SpectrogramFamily(kind), level)


@pytest.mark.parametrize("kind", ["rec-uni", "rec-log"])
def test_bandwidth_constant_refuses_a_root_beyond_the_float_range(kind):
    with pytest.raises(ValueError, match="float range"):
        bandwidth_constant(SpectrogramFamily(kind, K=2), -1e5)


def test_bandwidth_constant_monotone_in_level():
    fam = SpectrogramFamily(kind="rec-log", K=4, c=2.0)
    cs = [bandwidth_constant(fam, level) for level in (-3.0, -10.0, -20.0, -30.0)]
    assert all(a < b for a, b in zip(cs, cs[1:]))


def test_relative_bandwidth_small_constant_limit():
    # for small C/n the relative bandwidth approaches 2 C / n
    q = 0.01 / 8.0
    width_ratio, width_semitones = relative_bandwidth(0.01, 8.0)
    assert width_ratio == pytest.approx(2 * q, rel=1e-4)
    assert width_semitones == pytest.approx(24 * q / math.log(2.0), rel=1e-4)
    with pytest.raises(ValueError):
        relative_bandwidth(8.0, 8.0)


@pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf, 0.0, -8.0])
def test_window_length_must_be_positive_and_finite(n):
    for fam in (SpectrogramFamily("gauss"), SpectrogramFamily("rec-log")):
        with pytest.raises(ValueError, match="n must be positive and finite"):
            selectivity_db(fam, 1.0, n=n)
    with pytest.raises(ValueError, match="n must be positive and finite"):
        relative_bandwidth(0.1, n)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.1])
def test_detuning_and_frequency_ratio_must_be_finite(value):
    with pytest.raises(ValueError, match="C must be non-negative and finite"):
        relative_bandwidth(value, 8.0)
    with pytest.raises(ValueError, match="omega ratio must be positive and finite"):
        selectivity_db(SpectrogramFamily("gauss"), value)


def test_uniform_delays_closed_forms():
    lad = SpectrogramFamily("rec-uni", K=4).ladder(0.25)
    d = delay_measures(lad)
    mu = math.sqrt(0.25 / 4)
    assert d.mean == pytest.approx(math.sqrt(4 * 0.25), rel=1e-12)
    assert d.t_max == pytest.approx(3 * mu, rel=1e-12)
    assert d.t_infl1 == pytest.approx((3 - math.sqrt(3)) * mu, rel=1e-12)
    assert d.t_infl2 == pytest.approx((3 + math.sqrt(3)) * mu, rel=1e-12)


def test_log_delay_mean_matches_numeric_first_moment():
    fam = SpectrogramFamily("rec-log", K=5, c=math.sqrt(2.0))
    lad = fam.ladder(1.0)
    d = delay_measures(lad)
    t, h = sampled_kernel(fam, 1e-4)
    numeric_mean = float(np.trapezoid(h * t, t))
    assert d.mean == pytest.approx(numeric_mean, abs=1e-4)
    # stage constants sum to the mean of the composed kernel
    assert d.mean == pytest.approx(lad.mu_sum, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(c=st.floats(1.01, 4.0))
@example(c=1.01)
@example(c=math.sqrt(2.0))  # two stages an ulp apart
@example(c=2.0)
def test_two_stage_peak_position_analytic(c):
    """K = 2 stages peak at ln(mu2/mu1) mu1 mu2 / (mu2 - mu1), written with
    log1p of the exact difference so that it holds as mu2 tends to mu1."""
    lad = SpectrogramFamily("rec-log", K=2, c=c).ladder(1.0)
    mu1, mu2 = sorted(lad.mus)
    gap = mu2 - mu1
    expected = math.log1p(gap / mu1) * mu1 * mu2 / gap if gap else mu1
    assert delay_measures(lad).t_max == pytest.approx(expected, rel=1e-12)


def test_delay_measures_refuse_a_kernel_beyond_the_sample_bound():
    """At c = 1 + 2**-52 a kernel sampled at mu_min / 20 over its support
    would take 1.2e10 samples (88 GiB), and the delays were refused; the
    bracket grid is geometric, so they come out finite and ordered in
    bounded memory."""
    lad = SpectrogramFamily("rec-log", K=2, c=1 + 2**-52).ladder(1.0)
    tracemalloc.start()
    try:
        d = delay_measures(lad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(math.isfinite(v) for v in (d.mean, d.t_max, d.t_infl1, d.t_infl2))
    assert 0.0 == d.t_infl1 < d.t_max < d.t_infl2 < lad.mu_sum
    assert peak < 1 << 20


@pytest.mark.parametrize("c", [1.0 + 1e-7, 1.0 + 1e-5])
def test_delay_measures_cover_the_first_stage_tail_as_c_tends_to_1(c):
    """The first stage carries nearly all of tau, so the kernel tends to
    one exponential of time constant sqrt(tau); 10 sqrt(tau) past the mean
    left e^-11 of its mass and c = 1 + 1e-7 was refused."""
    lad = SpectrogramFamily("rec-log", K=7, c=c).ladder(1.0)
    assert lad.support >= lad.mu_sum - lad.mus[0] + 12.5 * lad.mus[0]
    d = delay_measures(lad)
    assert d.mean == lad.mu_sum
    assert 0.0 < d.t_infl1 < d.t_max < d.t_infl2 < 0.2


def test_support_is_ten_deviations_past_the_mean_for_the_table_ladders():
    """The delay tables and every default output keep their support."""
    for K in range(2, 12):
        ladders = [SpectrogramFamily("rec-uni", K=K).ladder(1.0)] + [
            SpectrogramFamily("rec-log", K=K, c=c).ladder(1.0) for c in (2.0**0.5, 2.0**0.75, 2.0)
        ]
        for lad in ladders:
            assert lad.support == lad.mu_sum + 10.0 * math.sqrt(lad.tau_max)


def test_delay_measures_scale_as_sqrt_tau():
    unit = delay_measures(SpectrogramFamily("rec-log", K=4, c=2.0).ladder(1.0))
    assert unit.t_max == pytest.approx(1.014, abs=5e-4)
    for tau in (0.01, 9.0):
        d = delay_measures(SpectrogramFamily("rec-log", K=4, c=2.0).ladder(tau))
        for got, want in zip(
            (d.t_max, d.t_infl1, d.t_infl2), (unit.t_max, unit.t_infl1, unit.t_infl2)
        ):
            assert got / math.sqrt(tau) == pytest.approx(want, rel=1e-12)


def test_delay_mean_limit_is_the_large_K_asymptote():
    c = 2.0 ** 0.75
    limit = delay_mean_limit(c)
    assert limit == pytest.approx(math.sqrt(c * c - 1) / (c - 1), rel=1e-12)
    # stage time constants sum to the mean delay; a deep ladder approaches it
    lad = SpectrogramFamily("rec-log", K=60, c=c).ladder(1.0)
    assert lad.mu_sum == pytest.approx(limit, abs=1e-3)


def test_table_builders_have_expected_shape():
    t1 = bandwidth_constant_table()
    assert list(t1["columns"]) == [-3.0, -10.0, -20.0, -30.0]
    assert len(t1["rows"]) == 9  # gauss + 2 K-values x (uniform + 3 ratios)
    assert all(len(cells) == 4 for _, cells in t1["rows"])
    t2 = delay_mean_table()
    t3 = delay_max_table()
    for t in (t2, t3):
        assert [label for label, _ in t["rows"]] == [f"K={k}" for k in range(2, 9)]
        assert all(len(cells) == 4 for _, cells in t["rows"])


def test_window_family_validation():
    with pytest.raises(ValueError):
        SpectrogramFamily(kind="unknown")
    with pytest.raises(ValueError):
        SpectrogramFamily(kind="rec-log", K=4, c=1.0)
    with pytest.raises(ValueError):
        selectivity_db(SpectrogramFamily(kind="gauss"), 1.0, n=-1.0)


# The closed forms the cascade selectivity and delays were computed by
# before both were read off the scale ladder, kept here as oracles.


def closed_form_cascade_db(fam: SpectrogramFamily, C: float) -> float:
    c2 = C * C
    if fam.kind == "rec-uni":
        return -10.0 * fam.K * math.log10(1.0 + TWO_PI_SQ * c2 / fam.K)
    total = math.log10(1.0 + TWO_PI_SQ * fam.c ** (2.0 * (1.0 - fam.K)) * c2)
    for k in range(2, fam.K + 1):
        factor = fam.c ** (2.0 * (k - fam.K - 1.0)) * (fam.c * fam.c - 1.0)
        total += math.log10(1.0 + TWO_PI_SQ * factor * c2)
    return -10.0 * total


def closed_form_log_mean(K: int, c: float, tau: float) -> float:
    root = math.sqrt(c * c - 1.0)
    num = c ** (-float(K)) * (c * c - (root + 1.0) * c + root * c ** float(K))
    return num / (c - 1.0) * math.sqrt(tau)


stage_counts = st.integers(1, 10)
ratios = st.floats(1.0, 4.0, exclude_min=True)


@settings(max_examples=200, deadline=None)
@given(K=stage_counts, c=ratios, C=st.floats(0.0, 10.0))
def test_cascade_selectivity_matches_the_closed_forms(K, c, C):
    for fam in (SpectrogramFamily("rec-uni", K=K), SpectrogramFamily("rec-log", K=K, c=c)):
        want = closed_form_cascade_db(fam, C)
        assert selectivity_db_at_constant(fam, C) == pytest.approx(want, rel=1e-13)


@settings(max_examples=200, deadline=None)
@given(K=stage_counts, c=ratios)
def test_delay_means_match_the_closed_forms(K, c):
    # delay_measures takes a logarithmic ladder's mean from mu_sum. The
    # closed form cancels down to c - 1, so its own rounding error is
    # about eps / (c - 1): the absolute term covers that, not the ladder.
    log = SpectrogramFamily("rec-log", K=K, c=c).ladder(1.0)
    want = closed_form_log_mean(K, c, 1.0)
    assert log.mu_sum == pytest.approx(want, rel=1e-14, abs=2e-15 / (c - 1.0))
    uni = delay_measures(SpectrogramFamily("rec-uni", K=K).ladder(1.0))
    assert uni.mean == pytest.approx(math.sqrt(float(K)), rel=1e-14)
    assert uni.t_max == pytest.approx((K - 1.0) / math.sqrt(float(K)), rel=1e-14, abs=0)


def simpson_moments(fam, per_octave: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """(mass, mean, variance) of the family's sampled unit-scale kernel, and the peaks of |h|,
    |h'| and |h''|, by Simpson's rule on octaves from mu_min / 64 to three
    supports, each sampled uniformly (a stiff ladder's fast stages need a
    fine step only near 0). The first segment starts at 2^-40 of the
    first octave, so a single stage's jump at 0 stays out of the sum."""
    temporal = fam.temporal(1.0)
    ladder = temporal.ladder
    t0 = ladder.mu_min / 64.0
    octaves = math.ceil(math.log2(3.0 * ladder.support / t0))
    edges = t0 * 2.0 ** np.array([-40.0] + list(range(octaves + 1)))
    weights = np.full(per_octave + 1, 2.0)
    weights[1::2] = 4.0
    weights[[0, -1]] = 1.0
    sums, peaks = np.zeros(3), np.zeros(3)
    for a, b in zip(edges, edges[1:]):
        t = np.linspace(a, b, per_octave + 1)
        profiles = temporal_profiles(temporal, t)
        w = weights * profiles[0] * (b - a) / (3.0 * per_octave)
        sums += [w.sum(), (w * t).sum(), (w * t * t).sum()]
        peaks = np.maximum(peaks, [np.abs(p).max() for p in profiles])
    mass, first, second = sums
    mean = first / mass
    return np.array([mass, mean, second / mass - mean * mean]), peaks


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["rec-uni", "rec-log"]), K=stage_counts, c=ratios)
@example(kind="rec-log", K=7, c=1.0 + 2.0**-52)
@example(kind="rec-log", K=7, c=1.0 + 1e-7)
@example(kind="rec-log", K=10, c=4.0)
def test_cascade_kernel_moments_and_delays(kind, K, c):
    """Every cascade is one phase-type kernel: its samples integrate to
    mass 1, mean mu_sum and variance tau_max, and its delays are the zeros
    of h' and h'' in order, at the closed forms for uniform ladders."""
    fam = SpectrogramFamily(kind, K=K, c=c)
    ladder = fam.ladder(1.0)
    moments, peaks = simpson_moments(fam)
    assert moments == pytest.approx([1.0, ladder.mu_sum, ladder.tau_max], rel=1e-9)
    d = delay_measures(ladder)
    assert d.mean == ladder.mu_sum
    if K == 1:
        assert (d.t_max, d.t_infl1, d.t_infl2) == (0.0, 0.0, 0.0)
        return
    assert 0.0 <= d.t_infl1 < d.t_max < d.t_infl2
    temporal = fam.temporal(1.0)

    def at(t: float, order: int) -> float:
        return float(temporal_profiles(temporal, np.array([t]))[order][0])

    assert abs(at(d.t_max, 1)) <= 1e-9 * peaks[1]
    assert abs(at(d.t_infl2, 2)) <= 1e-9 * peaks[2]
    if K == 2:
        assert d.t_infl1 == 0.0  # h'' starts below 0
    else:
        assert abs(at(d.t_infl1, 2)) <= 1e-9 * peaks[2]
    if kind == "rec-uni":
        mu, root = ladder.mus[0], math.sqrt(K - 1.0)
        want = ((K - 1.0) * mu, (K - 1.0 - root) * mu, (K - 1.0 + root) * mu)
        assert (d.t_max, d.t_infl1, d.t_infl2) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_delay_tables_match_the_closed_forms():
    for (label, means), (_, maxima) in zip(delay_mean_table()["rows"], delay_max_table()["rows"]):
        K = int(label[2:])
        assert means[0] == pytest.approx(math.sqrt(float(K)), rel=1e-14)
        assert maxima[0] == pytest.approx((K - 1.0) / math.sqrt(float(K)), rel=1e-14)
        for got, c in zip(means[1:], (math.sqrt(2.0), 2.0**0.75, 2.0)):
            assert got == pytest.approx(closed_form_log_mean(K, c, 1.0), rel=1e-14)


def test_analyze_stdout_matches_the_golden_tables(capsys):
    assert cli_main(["analyze"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "analyze_stdout.txt").read_text()


# Table 3's logarithmic cells as located on the kernel sampled at
# dt = 5e-4 sqrt(tau) and refined by parabolas, rounded to 1e-6: rows
# K = 2..8, columns c = sqrt(2), 2^(3/4), 2.
SAMPLED_PEAKS = [
    [0.706857, 0.688562, 0.649586],
    [1.121789, 1.026988, 0.908985],
    [1.385092, 1.198642, 1.013431],
    [1.555632, 1.289081, 1.060132],
    [1.668309, 1.339891, 1.083038],
    [1.744556, 1.369641, 1.094477],
    [1.797245, 1.387274, 1.100251],
]


def test_exact_peaks_stay_within_half_a_sampling_step():
    """The sampled kernel put each peak up to dt / 2 early; the exact peaks
    stay within that half step (2.5e-4 sqrt(tau), plus the rounding)."""
    exact = np.array([cells[1:] for _, cells in delay_max_table()["rows"]])
    moved = exact - np.array(SAMPLED_PEAKS)
    assert np.all(np.abs(moved) <= 2.5e-4 + 5e-7)
