import math
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve, sosfilt

from tonescale import spectrogram, temporal_scale_space
from tonescale.spectrogram import (
    FrequencyGrid,
    SpectrogramFamily,
    WindowScaleLaw,
    build_frequency_grid,
    channel_delays,
    compute_spectrogram,
    delay_compensate,
    frequency_from_midi,
    midi_from_frequency,
    to_db,
    window_scale,
)
from tonescale.temporal_scale_space import (
    discrete_gaussian_kernel,
    discrete_recursive_smooth,
    discretize_ladder,
)

from conftest import sine, sos_rows

RATE = 44100.0
# Layer 1 folds the carrier into the window (the causal poles, the Gaussian
# taps); it must stay this close, relative to the signal peak, to smoothing
# the modulated signal (the same bound the benchmark checks layer-1 maps
# against).
LAYER1_RTOL = 1e-9
# The causal block recursion against the same folded-pole cascade run one
# sample at a time by scipy's sosfilt, relative to the signal peak.
BLOCK_RTOL = 1e-12


def _grid_at(omegas) -> FrequencyGrid:
    """A grid of the given channel frequencies (rad/s) under the default law."""
    law = WindowScaleLaw()
    omega = np.asarray(omegas, dtype=float)
    nu = np.array([midi_from_frequency(w / (2.0 * math.pi)) for w in omega])
    return FrequencyGrid(
        nu=nu,
        omega=omega,
        tau_window=np.array([window_scale(w, law) for w in omega]),
        bins_per_octave=12,
        nu_min=float(nu.min()),
        nu_max=float(nu.max()),
        law=law,
    )


def test_midi_mapping_reference_points():
    assert midi_from_frequency(440.0) == pytest.approx(69.0, abs=1e-12)
    assert midi_from_frequency(880.0) == pytest.approx(81.0, abs=1e-12)
    assert frequency_from_midi(60.0) == pytest.approx(261.6255653, abs=1e-6)
    # roundtrip
    for nu in (12.3, 69.0, 100.7):
        assert midi_from_frequency(frequency_from_midi(nu)) == pytest.approx(nu, abs=1e-12)


def test_frequency_grid_spacing_and_span():
    grid = build_frequency_grid(60.0, 72.0, 48)
    assert grid.n_channels == 49
    assert grid.delta_nu == pytest.approx(0.25)
    assert grid.nu[0] == 60.0 and grid.nu[-1] == 72.0
    assert grid.omega[0] == pytest.approx(2 * math.pi * frequency_from_midi(60.0))


def test_window_scale_law_matches_cycle_count():
    # tau = tau0 + (2 pi n / omega)^2, so sigma matches n periods at tau0 = 0.
    law = WindowScaleLaw(n=8.0)
    omega = 2 * math.pi * 440.0
    assert window_scale(omega, law) == pytest.approx((8.0 / 440.0) ** 2, rel=1e-12)
    law2 = WindowScaleLaw(n=8.0, tau0=1e-4)
    assert window_scale(omega, law2) == pytest.approx(1e-4 + (8.0 / 440.0) ** 2, rel=1e-12)


@pytest.mark.parametrize("field", ["n", "tau0", "tau_inf", "p"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_window_scale_law_rejects_non_finite_parameters(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        WindowScaleLaw(**{field: bad})


@pytest.mark.parametrize(
    "nu_min, nu_max, shown",
    [(math.nan, 72.0, "nan"), (60.0, math.nan, "nan"), (60.0, math.inf, "inf"), (-math.inf, 72.0, "-inf")],
)
def test_grid_refuses_a_non_finite_span(nu_min, nu_max, shown):
    """A NaN edge raised "cannot convert float NaN to integer" and an infinite
    nu_max an OverflowError, which the CLI's handler does not take."""
    with pytest.raises(ValueError, match=f"nu_min and nu_max must be finite, got .*{shown}"):
        build_frequency_grid(nu_min, nu_max, 12)


@pytest.mark.parametrize("n", [1e160, 1e-200], ids=["overflows", "underflows"])
def test_grid_refuses_a_window_variance_that_is_not_positive_and_finite(n):
    with pytest.raises(ValueError, match="must be positive and finite"):
        build_frequency_grid(60.0, 72.0, 12, law=WindowScaleLaw(n=n))


@pytest.mark.parametrize(
    "law", [WindowScaleLaw(), WindowScaleLaw(tau0=1e-6)], ids=["zero-variance", "omega-overflows"]
)
def test_grid_refuses_a_wide_span_from_its_end_channels(law, monkeypatch):
    """The window variance falls as omega rises, so the end channels bound
    the rest; nu_max = 1e6 evaluated the law on about 4M channels first."""
    calls = []
    real = spectrogram.window_scale

    def counted(omega, law):
        calls.append(omega)
        return real(omega, law)

    monkeypatch.setattr(spectrogram, "window_scale", counted)
    with pytest.raises(ValueError, match="at nu=1000000.00 .*must be positive and finite"):
        build_frequency_grid(60.0, 1e6, 48, law)
    assert len(calls) <= 2


@pytest.mark.parametrize("bins", [True, 12.5, 0.5, math.nan, "12"])
def test_grid_refuses_a_bins_per_octave_that_is_not_a_whole_count(bins):
    """True was taken as 1 bin per octave, and 12.5 gave 14 channels at
    0.96-semitone steps."""
    with pytest.raises(ValueError, match="bins_per_octave must be a whole number at least 1"):
        build_frequency_grid(60.0, 72.0, bins)


def test_grid_takes_a_whole_float_bins_per_octave():
    grid = build_frequency_grid(60.0, 72.0, 12.0)
    assert type(grid.bins_per_octave) is int
    assert np.array_equal(grid.nu, build_frequency_grid(60.0, 72.0, 12).nu)


def test_window_scale_soft_upper_bound_eases_low_frequencies():
    # With a bounded law the longest windows pull toward tau_max.
    law = WindowScaleLaw(n=8.0, tau_inf=0.01, p=2.0)
    omega_lo = 2 * math.pi * 60.0
    unbounded = (8.0 / 60.0) ** 2
    bounded = window_scale(omega_lo, law)
    assert bounded < unbounded
    assert bounded < 0.01
    # High frequencies are barely affected.
    omega_hi = 2 * math.pi * 4000.0
    assert window_scale(omega_hi, law) == pytest.approx((8.0 / 4000.0) ** 2, rel=1e-2)


@pytest.mark.parametrize(
    "family",
    [
        SpectrogramFamily(kind="gauss"),
        SpectrogramFamily(kind="rec-uni", K=7),
        SpectrogramFamily(kind="rec-log", K=7, c=math.sqrt(2.0)),
    ],
)
def test_unit_sine_settles_to_half_magnitude(family):
    """A unit-amplitude sine at a grid frequency must give |S| = 1/2 there."""
    grid = build_frequency_grid(68.0, 70.0, 48, law=WindowScaleLaw(n=8.0))
    x = sine(440.0, 1.0, RATE, amp=1.0)
    S = compute_spectrogram(x, RATE, grid, family, hop=44)
    ch = int(np.argmin(np.abs(grid.nu - 69.0)))
    settled = np.abs(S.values[-200:, ch])
    assert np.median(settled) == pytest.approx(0.5, abs=5e-4)


def test_spectrogram_frame_times_and_warmup_shapes():
    grid = build_frequency_grid(60.0, 80.0, 12, law=WindowScaleLaw(n=8.0))
    fam = SpectrogramFamily(kind="rec-log", K=7, c=math.sqrt(2.0))
    x = sine(440.0, 0.5, RATE)
    S = compute_spectrogram(x, RATE, grid, fam, hop=44)
    assert S.frame_times[0] == 0.0
    assert S.frame_times[1] == pytest.approx(44 / RATE)
    assert S.warmup_frames.shape == (grid.n_channels,)
    # lower channels need longer warm-up
    assert S.warmup_frames[0] > S.warmup_frames[-1]


@pytest.mark.parametrize("kind", ["rec-log", "rec-uni"])
@pytest.mark.parametrize("hop", [1, 7, 44, 441])
def test_causal_layer1_reads_no_later_sample(kind, hop):
    """The map of a prefix of a signal is bitwise the prefix of the whole
    signal's map, in values and in warm-up: no causal frame reads a later
    sample, and each frame's carrier is read off its absolute index, so a
    stream of blocks can equal the batch map."""
    rate = 22050.0
    x = np.random.default_rng(29).standard_normal(int(0.3 * rate))
    grid = build_frequency_grid(50.0, 100.0, 12)
    fam = SpectrogramFamily(kind=kind, K=4)
    whole = compute_spectrogram(x, rate, grid, fam, hop=hop)
    for cut in (3001, 4999, 6613):
        head = compute_spectrogram(x[:cut], rate, grid, fam, hop=hop)
        assert head.values.tobytes() == whole.values[: head.n_frames].tobytes()
        assert head.warmup_frames.tobytes() == whole.warmup_frames.tobytes()


def test_spectrogram_linearity(rng):
    grid = build_frequency_grid(65.0, 73.0, 24, law=WindowScaleLaw(n=8.0))
    fam = SpectrogramFamily(kind="rec-uni", K=4)
    x = rng.normal(size=8000)
    y = rng.normal(size=8000)
    Sx = compute_spectrogram(x, 8000.0, grid, fam, hop=8).values
    Sy = compute_spectrogram(y, 8000.0, grid, fam, hop=8).values
    Sxy = compute_spectrogram(2.0 * x + 0.5 * y, 8000.0, grid, fam, hop=8).values
    assert Sxy == pytest.approx(2.0 * Sx + 0.5 * Sy, rel=1e-9, abs=1e-12)


def test_gauss_and_causal_paths_agree_in_steady_state():
    grid = build_frequency_grid(68.5, 69.5, 48, law=WindowScaleLaw(n=8.0))
    x = sine(440.0, 1.2, RATE, amp=0.7)
    Sg = compute_spectrogram(x, RATE, grid, SpectrogramFamily(kind="gauss"), hop=44)
    Sr = compute_spectrogram(
        x, RATE, grid, SpectrogramFamily(kind="rec-log", K=7, c=math.sqrt(2.0)), hop=44
    )
    # same temporal scale, so steady-state magnitudes on the tone channel agree
    ch = int(np.argmin(np.abs(grid.nu - 69.0)))
    mg = np.median(np.abs(Sg.values[-150:, ch]))
    mr = np.median(np.abs(Sr.values[-150:, ch]))
    assert mg == pytest.approx(mr, rel=2e-3)


def _folded_by_sosfilt(x, rate: float, grid: FrequencyGrid, fam, hop: int) -> np.ndarray:
    """The causal map as one sosfilt per channel over folded-pole sections
    built from the ladder's time constants, sampled on the frames and
    demodulated there."""
    t = np.arange(0, x.size, hop) / rate
    values = np.empty((t.size, grid.n_channels), dtype=complex)
    for ch, (omega, tau) in enumerate(zip(grid.omega, grid.tau_window)):
        ladder = discretize_ladder(fam.ladder(tau), rate)
        z = sosfilt(sos_rows(ladder, omega / rate), x)[::hop]
        values[:, ch] = z * np.exp(-1j * omega * t)
    return values


@pytest.mark.parametrize("kind", ["rec-uni", "rec-log"])
def test_causal_channel_is_the_shared_cascade(kind, rng):
    """Each causal channel is the folded-pole cascade of its ladder,
    sampled on the frames and demodulated there."""
    rate, hop = 8000.0, 7
    grid = build_frequency_grid(60.0, 72.0, 12)
    fam = SpectrogramFamily(kind=kind)
    x = rng.normal(size=1500)
    S = compute_spectrogram(x, rate, grid, fam, hop=hop)
    want = _folded_by_sosfilt(x, rate, grid, fam, hop)
    assert np.max(np.abs(S.values - want)) <= BLOCK_RTOL * np.max(np.abs(x))


# At hop h a block keeps min(32, 384 // h) frames: lengths from one hop (a
# single frame, n < B) to a few blocks, rarely a whole number of blocks.
@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["rec-uni", "rec-log"]),
    K=st.integers(1, 8),
    c=st.floats(1.1, 2.0),
    hop=st.integers(1, 50),
    blocks=st.floats(0.0, 3.5),
    freqs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="rec-log", K=7, c=2.0, hop=1, blocks=0.0, freqs=[0.0], seed=1)  # one sample
@example(kind="rec-uni", K=8, c=2.0, hop=50, blocks=1.0, freqs=[1.0, 0.0], seed=2)
def test_causal_block_recursion_stays_within_its_bound_of_sosfilt(
    kind, K, c, hop, blocks, freqs, seed
):
    """Channels log-spaced from 100 Hz to 0.45 of 16 kHz."""
    rate = 16000.0
    span = min(32, 384 // hop) * hop
    n = hop + int(round(blocks * span))
    lo, hi = math.log(100.0), math.log(0.45 * rate)
    grid = _grid_at([2.0 * math.pi * math.exp(lo + f * (hi - lo)) for f in freqs])
    fam = SpectrogramFamily(kind=kind, K=K, c=c)
    x = np.random.default_rng(seed).normal(size=n)
    S = compute_spectrogram(x, rate, grid, fam, hop=hop)
    want = _folded_by_sosfilt(x, rate, grid, fam, hop)
    assert S.values.shape == want.shape
    assert np.max(np.abs(S.values - want)) <= BLOCK_RTOL * np.max(np.abs(x))


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["rec-uni", "rec-log"]),
    K=st.integers(1, 8),
    c=st.floats(1.1, 2.0),
    w=st.floats(0.01, 0.95 * math.pi),
    hop=st.integers(1, 50),
    n=st.integers(50, 48000),
    seed=st.integers(0, 2**32 - 1),
)
def test_folded_carrier_stays_within_the_layer1_bound(kind, K, c, w, hop, n, seed):
    """Against smoothing x e^{-i omega t} itself: w rad/sample, up to 3 s at 16 kHz."""
    rate = 16000.0
    omega = w * rate
    grid = _grid_at([omega])
    fam = SpectrogramFamily(kind=kind, K=K, c=c)
    x = np.random.default_rng(seed).normal(size=n)
    S = compute_spectrogram(x, rate, grid, fam, hop=hop)
    ladder = discretize_ladder(fam.ladder(grid.tau_window[0]), rate)
    t = np.arange(n) / rate
    ref = discrete_recursive_smooth(x * np.exp(-1j * omega * t), ladder)[::hop]
    assert np.max(np.abs(S.values[:, 0] - ref)) <= LAYER1_RTOL * np.max(np.abs(x))


def _gauss_by_fftconvolve(x, rate: float, grid: FrequencyGrid, hop: int):
    """The Gauss map as one FFT convolution per channel: the zero-padded
    modulated signal convolved with the truncated taps, kept every hop."""
    t = np.arange(x.size) / rate
    n_frames = len(range(0, x.size, hop))
    values = np.empty((n_frames, grid.n_channels), dtype=complex)
    warmup = np.empty(grid.n_channels, dtype=int)
    for ch, (omega, tau) in enumerate(zip(grid.omega, grid.tau_window)):
        kernel = discrete_gaussian_kernel(tau * rate * rate)
        half = kernel.origin_index
        pad = (-half) % hop
        padded = np.concatenate([np.zeros(pad, dtype=complex), x * np.exp(-1j * omega * t)])
        conv = fftconvolve(padded, kernel.values)[::hop]
        offset = (half + pad) // hop
        values[:, ch] = conv[offset : offset + n_frames]
        warmup[ch] = -(-half // hop)
    return values, warmup


@settings(max_examples=40, deadline=None)
@given(
    rate=st.integers(8000, 44100),
    hop=st.integers(1, 500),
    length=st.floats(0.0, 1.0),
    freqs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@example(rate=44100, hop=1, length=1.0, freqs=[0.0, 1.0], seed=1)  # 3 s, every sample a frame
@example(rate=8000, hop=500, length=0.0, freqs=[0.0, 0.5], seed=2)  # one frame, kernels >> signal
def test_gauss_shared_fft_stays_within_the_layer1_bound(rate, hop, length, freqs, seed):
    """Channels log-spaced from 12 Hz to 0.45 of the rate; signals from one
    hop to 3 s, so the low channels' kernels can be longer than the signal."""
    rate = float(rate)
    n = hop + int(round(length * (3 * rate - hop)))
    lo, hi = math.log(12.0), math.log(0.45 * rate)
    grid = _grid_at([2.0 * math.pi * math.exp(lo + f * (hi - lo)) for f in freqs])
    x = np.random.default_rng(seed).normal(size=n)
    S = compute_spectrogram(x, rate, grid, SpectrogramFamily(kind="gauss"), hop=hop)
    ref, warmup = _gauss_by_fftconvolve(x, rate, grid, hop)
    assert np.array_equal(S.warmup_frames, warmup)
    assert np.max(np.abs(S.values - ref)) <= LAYER1_RTOL * np.max(np.abs(x))


@settings(max_examples=30, deadline=None)
@given(
    nu_min=st.floats(30.0, 100.0),
    span=st.floats(0.01, 24.0),
    bins_per_octave=st.integers(1, 48),
    n=st.floats(0.5, 16.0),
    tau0=st.just(0.0) | st.floats(1e-9, 1e-3),
    cap=st.none() | st.floats(1e-8, 1.0),
    p=st.floats(1.0, 1e3),
    hop=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
@example(  # a hard cap: (tau / tau_inf)^p overflowed a float
    nu_min=40.0, span=12.0, bins_per_octave=12, n=8.0, tau0=0.0, cap=1e-6, p=200.0, hop=8, seed=0
)
def test_fuzzed_grids_give_a_gauss_map_within_the_layer1_bound(
    nu_min, span, bins_per_octave, n, tau0, cap, p, hop, seed
):
    """Any grid and window law: the channels step by 12 / bins_per_octave
    and cover [nu_min, nu_max], every window variance is finite and
    positive, and the Gauss map of a short signal is finite, within the
    layer-1 bound and with warm-up ceil(half / hop), unless its top channel
    is at or above Nyquist, which is refused."""
    rate, nu_max = 8000.0, nu_min + span
    law = WindowScaleLaw(n=n, tau0=tau0, tau_inf=None if cap is None else tau0 + cap, p=p)
    grid = build_frequency_grid(nu_min, nu_max, bins_per_octave, law=law)
    step = 12.0 / bins_per_octave
    assert grid.nu[0] == nu_min
    assert np.all(np.diff(grid.nu) > 0)
    assert np.allclose(np.diff(grid.nu), step, rtol=1e-12, atol=1e-12)
    assert grid.nu[-1] >= nu_max - 1e-12
    assert np.all(np.isfinite(grid.tau_window)) and np.all(grid.tau_window > 0)
    x = np.random.default_rng(seed).normal(size=2000)
    fam = SpectrogramFamily(kind="gauss")
    if grid.omega.max() >= math.pi * rate:
        with pytest.raises(ValueError, match="Nyquist"):
            compute_spectrogram(x, rate, grid, fam, hop=hop)
        return
    S = compute_spectrogram(x, rate, grid, fam, hop=hop)
    ref, warmup = _gauss_by_fftconvolve(x, rate, grid, hop)
    assert np.array_equal(S.warmup_frames, warmup)
    assert np.all(np.isfinite(S.values))
    assert np.max(np.abs(S.values - ref)) <= LAYER1_RTOL * np.max(np.abs(x))


_CAUSAL_MAPS = """
import hashlib, sys
import numpy as np
import tonescale as ts
if sys.argv[2] == "uncapped":  # the fallback of a BLAS build without thread-count calls
    ts.temporal_scale_space._openblas_threads = lambda: None
x = np.random.default_rng(3).normal(size=6000)
grid = ts.build_frequency_grid(45.0, 100.0, 12)
digest = hashlib.sha256()
for hop in (1, 7, 44, 400):
    S = ts.compute_spectrogram(x, 8000.0, grid, ts.SpectrogramFamily(sys.argv[1]), hop=hop)
    digest.update(S.values.tobytes())
print(digest.hexdigest())
"""


@pytest.mark.parametrize("kind", ["rec-uni", "rec-log"])
def test_causal_map_does_not_depend_on_the_worker_count(kind):
    """The causal path runs on the calling thread with BLAS held to one
    thread: maps are bit for bit the same started on one BLAS thread and
    on two, and on two with the cap gone (a BLAS build without
    thread-count calls), at hops whose blocks are below and above 384
    samples."""
    src = os.path.dirname(os.path.dirname(spectrogram.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = set()
    for threads, cap in (("1", "capped"), ("2", "capped"), ("2", "uncapped")):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        run = subprocess.run(
            [sys.executable, "-c", _CAUSAL_MAPS, kind, cap],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert run.returncode == 0, run.stderr
        digests.add(run.stdout.strip())
    assert len(digests) == 1


def test_gauss_layer1_runs_on_the_calling_thread(monkeypatch, rng):
    """With 4 CPUs allowed, a Gauss call starts no thread: the kernels (one
    per channel), the block spectra, the tap transforms and the batch folds
    all run on the calling thread, over a signal long enough that the
    channels run in blocks (3 or more per group)."""
    rate, hop = 8000.0, 11
    grid = build_frequency_grid(60.0, 72.0, 12)
    x = rng.normal(size=16000)
    kernels = spectrogram._gauss_kernels(tuple((grid.tau_window * rate * rate).tolist()))
    groups = spectrogram._block_groups([k.origin_index for k in kernels], x.size, hop)
    assert max(blocks for *_, blocks in groups) >= 3
    _clear_gauss_memos()  # the call builds every kernel and transform
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    callers = {}

    def spy_on(owner, name):
        call = getattr(owner, name)

        def spy(*args):
            callers.setdefault(name, []).append(threading.get_ident())
            return call(*args)

        monkeypatch.setattr(owner, name, spy)

    steps = ("_block_spectra", "_fold_batch", "_tap_transform", "discrete_gaussian_kernel")
    for name in steps:
        spy_on(spectrogram, name)
    spy_on(threading.Thread, "start")
    compute_spectrogram(x, rate, grid, SpectrogramFamily(kind="gauss"), hop=hop)
    threads = {name: set(idents) for name, idents in callers.items()}
    assert threads == dict.fromkeys(steps, {threading.get_ident()})
    assert len(callers["discrete_gaussian_kernel"]) == grid.n_channels


def _bits(a: np.ndarray) -> bytes:
    return a.dtype.str.encode() + a.tobytes()


def _count_tap_transforms(monkeypatch) -> list:
    """Record the length of every ``_tap_transform`` call, one per channel
    whose transform is built."""
    calls = []
    transform = spectrogram._tap_transform

    def spy(kernel, w, m):
        calls.append(m)
        return transform(kernel, w, m)

    monkeypatch.setattr(spectrogram, "_tap_transform", spy)
    return calls


def _clear_gauss_memos() -> None:
    spectrogram._gauss_kernels.cache_clear()
    spectrogram._TRANSFORM_PLAN.clear()


def test_gauss_kernels_are_reused_with_bitwise_equal_maps(monkeypatch, rng):
    """A layout's first call builds its tap transforms and frees them, the
    second builds and holds them, and the third and later read them: all
    three maps are bitwise equal. A clip of another length whose groups
    all run in blocks has the same layout and reads the held plan; a clip
    short enough that a group runs as one block has other block lengths,
    so another layout, as has another grid. Another layout's first call
    leaves the held plan as it is, and a cold call on it gives the same
    bits."""
    rate, fam = 8000.0, SpectrogramFamily(kind="gauss")
    a = build_frequency_grid(70.0, 100.0, 12)
    b = build_frequency_grid(72.0, 96.0, 24)
    x, y, z = rng.normal(size=6000), rng.normal(size=8000), rng.normal(size=2000)
    kernels = spectrogram._gauss_kernels(tuple((a.tau_window * rate * rate).tolist()))
    for n in (x.size, y.size):  # both lengths run every group in blocks
        groups = spectrogram._block_groups([k.origin_index for k in kernels], n, 7)
        assert all(blocks > 1 for *_, blocks in groups)
    _clear_gauss_memos()
    plan = spectrogram._TRANSFORM_PLAN
    transforms = _count_tap_transforms(monkeypatch)
    maps, built, held = [], [], []
    for g, clip in ((a, x), (a, x), (a, x), (b, x), (a, x), (a, y), (a, z)):
        maps.append(compute_spectrogram(clip, rate, g, fam, hop=7))
        built.append(len(transforms))
        held.append(plan.nbytes)
        transforms.clear()
    assert built == [a.n_channels, a.n_channels, 0, b.n_channels, 0, 0, a.n_channels]
    assert held[0] == 0 and held[1] > 0 and held[1:] == [held[1]] * 6
    info = spectrogram._gauss_kernels.cache_info()
    assert (info.misses, info.hits) == (2, 5)
    short, other_length, cold_b = maps.pop(), maps.pop(), maps.pop(3)
    for g, clip, S in ((b, x, cold_b), (a, y, other_length), (a, z, short)):
        _clear_gauss_memos()
        assert _bits(compute_spectrogram(clip, rate, g, fam, hop=7).values) == _bits(S.values)
    for S in maps[1:]:
        assert _bits(S.values) == _bits(maps[0].values)
        assert np.array_equal(S.warmup_frames, maps[0].warmup_frames)


def test_gauss_kernel_memo_is_read_only_and_bounded():
    """The kernel memo keeps two grids; the plan holds one layout, whose
    transforms are read-only, and holding a second layout frees the first."""
    spectrogram._gauss_kernels.cache_clear()
    kept = spectrogram._gauss_kernels.cache_info().maxsize
    for k in range(kept + 2):
        kernels = spectrogram._gauss_kernels((10.0 + k, 250.0))
        for kernel in kernels:
            with pytest.raises(ValueError, match="read-only"):
                kernel.values[0] = 0.0
    assert spectrogram._gauss_kernels.cache_info().currsize == kept
    plan, fam = spectrogram._TRANSFORM_PLAN, SpectrogramFamily(kind="gauss")
    plan.clear()
    x = sine(440.0, 0.25, 8000.0)
    layouts = []
    for grid in (build_frequency_grid(60.0, 72.0, 12), build_frequency_grid(62.0, 74.0, 12)):
        for _ in range(2):
            compute_spectrogram(x, 8000.0, grid, fam)
        layouts.append(plan.layout)
        held = [gains for group in plan.transforms for gains in group]
        assert sum(gains.shape[-1] for gains in held) == grid.n_channels
        for gains in held:
            with pytest.raises(ValueError, match="read-only"):
                gains[0, 0, 0] = 0.0
    assert layouts[0] != layouts[1] and plan.layout == layouts[1]
    plan.clear()
    assert plan.transforms is None and plan.nbytes == 0


# The default CLI grid (368 channels, 80 Hz to 16 kHz, 48 bins per octave)
# and the 77-channel benchmark grid (200 Hz to 16 kHz, 12 bins per octave).
_DEFAULT_GRID = build_frequency_grid(midi_from_frequency(80.0), midi_from_frequency(16000.0), 48)
_GRID_77 = build_frequency_grid(midi_from_frequency(200.0), midi_from_frequency(16000.0), 12)
_GRIDS = pytest.mark.parametrize(
    "grid", [_DEFAULT_GRID, _GRID_77], ids=["default-grid", "77-channels"]
)


@_GRIDS
def test_gauss_map_from_transform_taps_matches_scipy_taps(grid, monkeypatch, rng):
    """The discrete-Gaussian taps by inverse FFT against SciPy's ive: maps
    within 1e-15 of the signal peak, with the same warm-up."""
    x = rng.normal(size=2205)
    fam = SpectrogramFamily(kind="gauss")
    _clear_gauss_memos()
    got = compute_spectrogram(x, 44100.0, grid, fam)
    monkeypatch.setattr(temporal_scale_space, "ive", scipy.special.ive)
    _clear_gauss_memos()
    want = compute_spectrogram(x, 44100.0, grid, fam)
    _clear_gauss_memos()  # nothing built from SciPy's taps outlives the test
    assert np.array_equal(got.warmup_frames, want.warmup_frames)
    assert np.max(np.abs(got.values - want.values)) <= 1e-15 * np.max(np.abs(x))


def test_discrete_gaussian_kernel_returns_a_fresh_writable_array():
    first, second = discrete_gaussian_kernel(250.0), discrete_gaussian_kernel(250.0)
    assert first.values.flags.writeable
    assert not np.shares_memory(first.values, second.values)
    first.values[0] = 1.0
    assert second.values[0] != 1.0


def test_two_threads_building_one_grid_get_bitwise_equal_maps(rng):
    """Two threads on one grid, first with nothing built, then on the
    transforms the plan holds: four bitwise-equal maps."""
    rate, fam = 8000.0, SpectrogramFamily(kind="gauss")
    grid = build_frequency_grid(45.0, 90.0, 24)
    x = rng.normal(size=2000)
    _clear_gauss_memos()
    results = []

    def run_pair():
        pair = [None, None]
        start = threading.Barrier(2, timeout=30)

        def run(i):
            start.wait()
            pair[i] = compute_spectrogram(x, rate, grid, fam, hop=5)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        results.extend(pair)

    run_pair()
    compute_spectrogram(x, rate, grid, fam, hop=5)  # a second call in a row holds the plan
    assert spectrogram._TRANSFORM_PLAN.nbytes > 0
    run_pair()
    for S in results[1:]:
        assert _bits(S.values) == _bits(results[0].values)
        assert np.array_equal(S.warmup_frames, results[0].warmup_frames)


def test_threads_switching_layouts_get_each_layouts_cold_bits(rng):
    """Four threads, more than the cores, each call two layouts in turn,
    switching as often as the interpreter allows, so that the plan is
    looked up, built, held and replaced under every interleaving: each map
    is bitwise the cold map of its layout, which a plan held under the
    wrong layout would break."""
    rate, fam = 8000.0, SpectrogramFamily(kind="gauss")
    grids = [build_frequency_grid(60.0, 84.0, 12), build_frequency_grid(62.0, 86.0, 12)]
    x = rng.normal(size=1500)
    cold = []
    for grid in grids:
        _clear_gauss_memos()
        cold.append(_bits(compute_spectrogram(x, rate, grid, fam, hop=5).values))
    _clear_gauss_memos()
    for _ in range(2):  # the threads start with the first layout held
        compute_spectrogram(x, rate, grids[0], fam, hop=5)
    maps = {}

    def run(i):
        for call in range(6):
            which = (i + call // 2) % 2  # two calls in a row on each layout
            S = compute_spectrogram(x, rate, grids[which], fam, hop=5)
            maps[i, call] = _bits(S.values) == cold[which]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(maps) == 24 and all(maps.values())


# The real tap transform against the complex FFT of the placed complex taps,
# absolute: the taps' absolute sum is 1. Over 3000 random draws of w, the
# scale and m the largest difference was 5.7e-16.
TAP_TRANSFORM_ATOL = 2e-15


@settings(max_examples=200, deadline=None)
@given(
    w=st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
    s_sampl=st.just(0.0) | st.floats(1e-3, 5e4),
    spread=st.floats(0.0, 4.0),
)
@example(w=1.0, s_sampl=2.5e4, spread=0.0)  # m = half + 1: the taps overlap most
@example(w=3.0, s_sampl=0.0, spread=0.0)  # one tap, m = 1
def test_real_tap_transform_matches_the_complex_tap_fft(w, s_sampl, spread):
    """H is real and equals scipy's FFT of T[half + d] e^{i w d} placed
    circularly at length m, for m from half + 1 (head and tail overlap)
    to about 4 (2 half + 1).

    A channel's w = omega / rate lies in (0, pi).
    """
    kernel = discrete_gaussian_kernel(s_sampl)
    half = kernel.origin_index
    m = half + 1 + int(spread * (2 * half + 1))
    taps = kernel.values * np.exp(1j * w * np.arange(-half, half + 1))
    placed = np.zeros(m, dtype=complex)
    placed[: half + 1] = taps[half:]
    placed[m - half :] += taps[:half]
    got = spectrogram._tap_transform(kernel, w, m)
    assert got.dtype == np.float64 and got.shape == (m,)
    assert np.max(np.abs(got - scipy.fft.fft(placed))) <= TAP_TRANSFORM_ATOL


@pytest.mark.parametrize("hop, q, half", [(2, 11025, 0), (1, 22051, 1000), (7, 3150, 2049)])
def test_one_block_spectrum_is_scipys_complex_fft_bitwise(hop, q, half, rng):
    """A block that holds the whole signal (its lead before the signal is
    zeros) has, as a real FFT plus its conjugate mirror, SciPy's complex FFT
    of the signal zero-padded to m = hop q, value for value, for even and
    odd m; numpy's complex FFT differs in about half the bins. The only bits
    that differ are the signs of the zero imaginary parts at bins 0 and
    m / 2 (+0 here, -0 in SciPy's), which compare equal."""
    m = hop * q
    x = rng.normal(size=20000)
    planes = np.empty((q, 1, 2, hop))
    spectrogram._block_spectra(x, half, m, (0, 1), planes)
    got = np.ascontiguousarray(planes.transpose(1, 3, 0, 2)).view(complex).reshape(m)
    want = scipy.fft.fft(x, m)
    assert np.array_equal(got, want)
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert set(differ) <= {1, m + 1} and not got.view(float)[differ].any()
    assert not np.array_equal(np.fft.fft(x, m), want)


def _gauss_by_complex_taps(x, rate: float, grid: FrequencyGrid, hop: int):
    """The Gauss map and warm-up by the complex tap transform: per channel
    the taps T[half + d] e^{i w d} placed circularly at length M, one
    complex FFT, the product with X = fft(x, M) folded onto the Q frame
    bins."""
    n = x.size
    n_frames = -(-n // hop)
    kernels = [discrete_gaussian_kernel(tau * rate * rate) for tau in grid.tau_window]
    q = scipy.fft.next_fast_len(-(-(n + max(k.origin_index for k in kernels)) // hop))
    m = hop * q
    spectrum = scipy.fft.fft(x, m)
    t = np.arange(n_frames) * hop / rate
    values = np.empty((n_frames, grid.n_channels), dtype=complex)
    for ch, (kernel, omega) in enumerate(zip(kernels, grid.omega)):
        half = kernel.origin_index
        taps = kernel.values * np.exp(1j * omega / rate * np.arange(-half, half + 1))
        placed = np.zeros(m, dtype=complex)
        placed[: half + 1] = taps[half:]
        placed[m - half :] += taps[:half]
        product = scipy.fft.fft(placed) * spectrum
        folded = scipy.fft.ifft(product.reshape(hop, q).sum(axis=0) / hop)[:n_frames]
        values[:, ch] = folded * np.exp(-1j * omega * t)
    return values, np.array([-(-k.origin_index // hop) for k in kernels])


@_GRIDS
def test_gauss_map_stays_within_its_bound_of_the_complex_tap_map(grid, rng):
    """The real tap transform and the real-product fold change only the
    rounding: within 1e-12 of the signal peak, with the same warm-up."""
    rate = 44100.0
    x = rng.normal(size=22050)
    S = compute_spectrogram(x, rate, grid, SpectrogramFamily(kind="gauss"))
    want, warmup = _gauss_by_complex_taps(x, rate, grid, S.hop)
    assert np.array_equal(S.warmup_frames, warmup)
    assert np.max(np.abs(S.values - want)) <= 1e-12 * np.max(np.abs(x))


@pytest.mark.parametrize("kind", ["rec-uni", "rec-log"])
def test_degenerate_stage_is_refused_before_any_worker_starts(kind, monkeypatch):
    # Windows of 3e-4 carrier periods: the upper channels' first stage
    # constants fall below MIN_STAGE_MU_SAMPLES. The refusal comes before
    # the block recursion (and so any BLAS thread) starts.
    grid = build_frequency_grid(60.0, 96.0, 12, law=WindowScaleLaw(n=3e-4))
    runs = []
    block_cascade = spectrogram._block_cascade

    def spy(x, sections, hop):
        runs.append(len(sections))
        return block_cascade(x, sections, hop)

    monkeypatch.setattr(spectrogram, "_block_cascade", spy)
    x = sine(440.0, 0.1, 8000.0)
    with pytest.raises(ValueError, match="degenerate stage"):
        compute_spectrogram(x, 8000.0, grid, SpectrogramFamily(kind=kind))
    assert runs == []
    low = build_frequency_grid(60.0, 62.0, 12, law=WindowScaleLaw(n=3e-4))
    compute_spectrogram(x, 8000.0, low, SpectrogramFamily(kind=kind))
    assert runs == [low.n_channels]


def _extra_bytes(seconds: float, grid: FrequencyGrid, fam) -> int:
    """Peak bytes that compute_spectrogram allocates beyond its map."""
    x = sine(440.0, seconds, 8000.0)
    tracemalloc.start()
    try:
        S = compute_spectrogram(x, 8000.0, grid, fam, hop=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - S.values.nbytes


@pytest.mark.parametrize("kind", ["rec-uni", "rec-log"])
def test_causal_layer1_temporaries_do_not_grow_with_the_signal(kind):
    """The GEMM runs over chunks of blocks and the carrier is taken off a
    chunk of frames at a time, so nothing but the map grows with the signal:
    from 2 to 8 s the map grows by 5.4 MB, the rest by no more than the
    slack of a few allocator blocks."""
    grid = build_frequency_grid(45.0, 100.0, 12)
    fam = SpectrogramFamily(kind=kind)
    short, long_ = _extra_bytes(2.0, grid, fam), _extra_bytes(8.0, grid, fam)
    assert long_ - short <= 16 * 1024


def test_gauss_layer1_temporaries_do_not_grow_with_the_signal():
    """A group's blocks and batches do not depend on the signal length once
    every group runs in blocks, so nothing but the map and the block
    spectra of one group grows with the signal:
    from 2 to 8 s the map grows by 4.4 MB and the largest group's spectra
    by 1.3 MB, the rest by no more than the slack of a few allocator
    blocks. The kernels are built, and the plan's transforms cleared,
    before each call is traced, so each is a first call."""
    rate, hop = 8000.0, 8
    grid = build_frequency_grid(55.0, 100.0, 12)
    fam = SpectrogramFamily(kind="gauss")
    kernels = spectrogram._gauss_kernels(tuple((grid.tau_window * rate * rate).tolist()))
    halves = [kernel.origin_index for kernel in kernels]

    def beyond_spectra(seconds: float) -> int:
        groups = spectrogram._block_groups(halves, int(seconds * rate), hop)
        assert all(blocks > 1 for *_, blocks in groups)
        spectra = max(16 * hop * q * blocks for _, _, q, _, blocks in groups)
        spectrogram._TRANSFORM_PLAN.clear()  # both lengths have one layout
        return _extra_bytes(seconds, grid, fam) - spectra

    short, long_ = beyond_spectra(2.0), beyond_spectra(8.0)
    assert abs(long_ - short) <= 16 * 1024


_MEMORY_CASES = pytest.mark.parametrize(
    "grid, seconds",
    [(_DEFAULT_GRID, 2.0), (_GRID_77, 1.0)],
    ids=["default-grid-2s", "77-channels-1s"],
)


def _gauss_extra_bytes(grid, seconds: float, held: bool) -> tuple[int, int]:
    """Peak bytes of a traced 44.1 kHz Gauss call beyond its map and one
    complex array of M samples, and M, the whole-signal
    transform length (hop Q >= N + the largest half-width). The kernels
    are built outside the trace, and the transforms too if ``held``;
    otherwise the traced call is the layout's first."""
    rate, fam = 44100.0, SpectrogramFamily(kind="gauss")
    x = sine(440.0, seconds, rate)
    compute_spectrogram(x, rate, grid, fam)  # builds the kernels outside the trace
    if held:
        compute_spectrogram(x, rate, grid, fam)  # a second call in a row holds the plan
    else:
        spectrogram._TRANSFORM_PLAN.clear()
    assert (spectrogram._TRANSFORM_PLAN.nbytes > 0) == held
    kernels = spectrogram._gauss_kernels(tuple((grid.tau_window * rate * rate).tolist()))
    hop = spectrogram._frame_hop(None, rate)
    longest = max(kernel.origin_index for kernel in kernels)
    m = hop * scipy.fft.next_fast_len(-(-(x.size + longest) // hop))
    tracemalloc.start()
    try:
        S = compute_spectrogram(x, rate, grid, fam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - S.values.nbytes - 16 * m, m


@_MEMORY_CASES
def test_gauss_layer1_temporaries_stay_within_one_complex_array_per_worker(grid, seconds):
    """A first Gauss call holds beyond its map and its frame
    times at most 2.5 complex arrays of M samples: one group's block
    spectra (up to 1.65 such arrays) and a batch's tap transforms with
    their scratch. It peaks at 2.11 (77 channels, 1 s) and 2.07 (368
    channels, 2 s). The whole-signal spectrum and per-channel M-long
    transforms this replaced peaked at 2.17 and 2.38; wider batches for the
    long blocks reach 2.51 on the 77-channel grid."""
    extra, m = _gauss_extra_bytes(grid, seconds, False)
    assert extra <= 1.5 * 16 * m


@_MEMORY_CASES
def test_gauss_layer1_temporaries_on_a_held_plan_stay_within_one_complex_array_per_worker(
    grid, seconds
):
    """A call on held transforms builds none, so it stays within the first
    call's bound of 2.5 complex arrays of M samples beyond its map: it
    peaks at 2.09 (77 channels, 1 s) and 2.02 (368 channels, 2 s). The
    held transforms were allocated before the trace."""
    extra, m = _gauss_extra_bytes(grid, seconds, True)
    assert extra <= 1.5 * 16 * m


def test_a_held_plan_takes_8_hop_q_bytes_per_channel():
    """A channel's held transform is hop Q reals at its group's block
    length: 9.2 MB for the 77-channel grid on a 1 s clip at hop 44."""
    rate, fam = 44100.0, SpectrogramFamily(kind="gauss")
    x = sine(440.0, 1.0, rate)
    _clear_gauss_memos()
    for _ in range(2):
        S = compute_spectrogram(x, rate, _GRID_77, fam)
    kernels = spectrogram._gauss_kernels(tuple((_GRID_77.tau_window * rate * rate).tolist()))
    groups = spectrogram._block_groups([k.origin_index for k in kernels], x.size, S.hop)
    want = sum(8 * S.hop * q * len(channels) for channels, _, q, _, _ in groups)
    assert spectrogram._TRANSFORM_PLAN.nbytes == want
    assert S.hop == 44 and round(want / 1e6, 1) == 9.2


def test_a_first_gauss_call_holds_nothing_beyond_the_kernels():
    """With its kernels built, a layout's first call leaves behind its map
    and the layout's key (11 KB on this grid), and none of the 9.2 MB of
    transforms a held plan takes."""
    rate, fam = 44100.0, SpectrogramFamily(kind="gauss")
    x = sine(440.0, 1.0, rate)
    _clear_gauss_memos()
    spectrogram._gauss_kernels(tuple((_GRID_77.tau_window * rate * rate).tolist()))
    tracemalloc.start()
    try:
        S = compute_spectrogram(x, rate, _GRID_77, fam)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spectrogram._TRANSFORM_PLAN.transforms is None
    assert kept - S.values.nbytes <= 32 * 1024


@pytest.mark.parametrize("hop", [1, 7, 441])
def test_gauss_path_equals_the_direct_windowed_sum(hop, rng):
    """S[j] = sum_k T[k] x[m] e^{-i omega m / rate} with m = j hop + k - half,
    summed directly over the samples inside the signal, within 1e-12 of the
    signal peak: at the first, second, middle and last frames of every
    channel, and on both sides of every block seam of its overlap-save
    group. Hop 441 sums its bins in two passes of the product's inner
    dimension (384 and 57 rows)."""
    rate = 8000.0
    x = rng.normal(size=2500)
    grid = build_frequency_grid(45.0, 100.0, 6, law=WindowScaleLaw(n=8.0))
    S = compute_spectrogram(x, rate, grid, SpectrogramFamily(kind="gauss"), hop=hop)
    kernels = [discrete_gaussian_kernel(tau * rate * rate) for tau in grid.tau_window]
    halves = [kernel.origin_index for kernel in kernels]
    groups = spectrogram._block_groups(halves, x.size, hop)
    seams = {}
    for channels, _, _, per_block, blocks in groups:
        for ch in channels:
            seams[ch] = [f for b in range(1, blocks) for f in (b * per_block - 1, b * per_block)]
    for ch, (kernel, half) in enumerate(zip(kernels, halves)):
        assert S.warmup_frames[ch] == -(-half // hop)
        for j in {0, 1, S.n_frames // 2, S.n_frames - 1, *seams[ch]}:
            m = j * hop + np.arange(2 * half + 1) - half
            inside = (m >= 0) & (m < x.size)
            mi = m[inside]
            carrier = np.exp(-1j * grid.omega[ch] * mi / rate)
            direct = np.sum(kernel.values[inside] * x[mi] * carrier)
            assert abs(S.values[j, ch] - direct) <= 1e-12 * np.max(np.abs(x))
    # groups of 3 blocks or more, and one whose kernels outlast the signal,
    # which runs as one block
    assert max(blocks for *_, blocks in groups) >= 3
    assert any(blocks == 1 and half > x.size for _, half, _, _, blocks in groups)


def test_db_conversion_floor_and_reference():
    grid = build_frequency_grid(68.0, 70.0, 12, law=WindowScaleLaw(n=8.0))
    fam = SpectrogramFamily(kind="rec-uni", K=4)
    x = sine(440.0, 0.6, RATE, amp=1.0)
    L = to_db(compute_spectrogram(x, RATE, grid, fam, hop=44))
    ch = int(np.argmin(np.abs(grid.nu - 69.0)))
    assert np.median(L.values[-100:, ch]) == pytest.approx(20 * math.log10(0.5), abs=0.01)
    # the first frame of a causal response is nearly silent: floored, not -inf
    assert np.all(np.isfinite(L.values))
    assert L.values.min() >= -200.0


def test_channel_delays_uniform_closed_forms():
    grid = build_frequency_grid(60.0, 72.0, 12, law=WindowScaleLaw(n=8.0))
    fam = SpectrogramFamily(kind="rec-uni", K=4)
    d = channel_delays(grid, fam)
    mu = np.sqrt(grid.tau_window / 4)
    assert d["t_max"] == pytest.approx(3 * mu, rel=1e-12)
    assert d["t_infl1"] == pytest.approx((3 - math.sqrt(3)) * mu, rel=1e-12)


def test_channel_delays_log_family_scale_with_window():
    grid = build_frequency_grid(57.0, 81.0, 12, law=WindowScaleLaw(n=8.0))
    fam = SpectrogramFamily(kind="rec-log", K=7, c=math.sqrt(2.0))
    d = channel_delays(grid, fam)
    tau = grid.tau_window
    # all delay measures are proportional to sqrt(tau): ratios constant
    for key in ("t_max", "t_infl1"):
        ratios = d[key] / np.sqrt(tau)
        assert np.ptp(ratios) < 1e-6 * ratios[0]
    # two octaves up, delays four times shorter
    assert d["t_max"][0] / d["t_max"][-1] == pytest.approx(4.0, rel=1e-9)


def test_channel_delays_reject_noncausal():
    grid = build_frequency_grid(60.0, 72.0, 12)
    with pytest.raises(ValueError):
        channel_delays(grid, SpectrogramFamily(kind="gauss"))


def test_delay_compensate_advances_low_channels_more():
    grid = build_frequency_grid(60.0, 80.0, 12, law=WindowScaleLaw(n=8.0))
    fam = SpectrogramFamily(kind="rec-log", K=7, c=math.sqrt(2.0))
    x = sine(440.0, 0.8, RATE)
    S = compute_spectrogram(x, RATE, grid, fam, hop=44)
    C = delay_compensate(S)
    shifts = C.metadata["delay_shift_frames"]
    assert shifts[0] > shifts[-1] >= 0
    assert C.values.shape == S.values.shape
    ch = 0
    k = int(shifts[ch])
    assert C.values[:-k or None, ch] == pytest.approx(S.values[k:, ch])
    # residual sub-frame part stays below one frame
    assert np.max(np.abs(C.metadata["delay_residual_seconds"])) <= S.hop / S.sample_rate / 2


def test_delay_compensate_holds_the_last_value_where_a_shift_passes_the_map(rng):
    """A shift longer than the map vacates every frame of its channel, which
    then holds its last observed value throughout, as the vacated tail of
    any shorter shift does; the metadata keeps the full shift."""
    grid = build_frequency_grid(40.0, 70.0, 2)
    S = compute_spectrogram(rng.normal(size=400), 8000.0, grid, SpectrogramFamily("rec-log"), hop=8)
    C = delay_compensate(S)
    shifts = C.metadata["delay_shift_frames"]
    assert S.n_frames == 50 and shifts[0] > 50 and shifts[1] > 50
    for ch in range(grid.n_channels):
        k = min(int(shifts[ch]), S.n_frames - 1)
        assert np.array_equal(C.values[: S.n_frames - k, ch], S.values[k:, ch])
        assert np.all(C.values[S.n_frames - k :, ch] == S.values[-1, ch])


def test_delay_compensate_rejects_noncausal():
    """One rule, in ``channel_delays``, which the CLI calls before it reads a WAV."""
    grid = build_frequency_grid(66.0, 72.0, 12, law=WindowScaleLaw(n=8.0))
    x = sine(440.0, 0.3, RATE)
    S = compute_spectrogram(x, RATE, grid, SpectrogramFamily(kind="gauss"), hop=44)
    with pytest.raises(ValueError, match="^delay measures and compensation apply to causal"):
        delay_compensate(S)
    with pytest.raises(ValueError, match="^delay measures and compensation apply to causal"):
        channel_delays(grid, SpectrogramFamily(kind="gauss"))


@pytest.mark.parametrize("kind", ["rec-uni", "rec-log"])
def test_spectrogram_refuses_a_warm_up_from_2_to_the_53_samples(kind):
    """tau0 = 1e294 s^2 once gave an object-dtype warm-up array, which the
    layer-2 sums then overflowed."""
    grid = build_frequency_grid(66.0, 72.0, 12, law=WindowScaleLaw(tau0=1e294))
    with pytest.raises(ValueError, match="not below 2\\^53"):
        compute_spectrogram(sine(440.0, 0.05, RATE), RATE, grid, SpectrogramFamily(kind), hop=44)


def test_delay_compensate_refuses_a_compensated_map():
    grid = build_frequency_grid(64.0, 74.0, 12, law=WindowScaleLaw(n=8.0))
    S = compute_spectrogram(sine(440.0, 0.3, RATE), RATE, grid, SpectrogramFamily("rec-log"), hop=44)
    C = delay_compensate(S)
    with pytest.raises(ValueError, match="already delay-compensated"):
        delay_compensate(C)
    with pytest.raises(ValueError, match="already delay-compensated"):
        delay_compensate(to_db(C))


def test_to_db_needs_a_complex_map():
    grid = build_frequency_grid(66.0, 72.0, 12, law=WindowScaleLaw(n=8.0))
    S = compute_spectrogram(sine(440.0, 0.1, RATE), RATE, grid, SpectrogramFamily("rec-log"), hop=44)
    with pytest.raises(ValueError, match="needs a complex spectrogram, got a 'db' map"):
        to_db(to_db(S))


def test_transposition_shifts_by_whole_octave_bins():
    grid = build_frequency_grid(55.0, 95.0, 48, law=WindowScaleLaw(n=8.0))
    fam = SpectrogramFamily(kind="rec-log", K=7, c=math.sqrt(2.0))
    A = to_db(compute_spectrogram(sine(440.0, 1.0, RATE), RATE, grid, fam, hop=44))
    B = to_db(compute_spectrogram(sine(880.0, 1.0, RATE), RATE, grid, fam, hop=44))
    assert np.argmax(B.values[-1]) - np.argmax(A.values[-1]) == 48


def test_spectrogram_rejects_bad_input():
    grid = build_frequency_grid(60.0, 72.0, 12)
    fam = SpectrogramFamily(kind="rec-uni", K=4)
    with pytest.raises(ValueError):
        compute_spectrogram(np.zeros((4, 4)), RATE, grid, fam)
    with pytest.raises(ValueError):
        compute_spectrogram(np.array([]), RATE, grid, fam)
    with pytest.raises(ValueError):
        SpectrogramFamily(kind="nonsense")
    with pytest.raises(ValueError):
        SpectrogramFamily(kind="rec-log", K=7, c=0.9)


def test_spectrogram_rejects_a_hop_longer_than_the_signal():
    rate = 8000.0
    grid = build_frequency_grid(60.0, 72.0, 12)
    fam = SpectrogramFamily(kind="rec-log")
    x = np.sin(0.3 * np.arange(300))
    with pytest.raises(ValueError, match="hop"):
        compute_spectrogram(x, rate, grid, fam, hop=1000)
    assert compute_spectrogram(x, rate, grid, fam, hop=300).n_frames == 1


@pytest.mark.parametrize("kind", ["gauss", "rec-uni", "rec-log"])
def test_spectrogram_accepts_an_integral_float_hop(kind):
    grid = build_frequency_grid(60.0, 72.0, 12)
    fam = SpectrogramFamily(kind=kind)
    x = sine(440.0, 0.1, 8000.0)
    want = compute_spectrogram(x, 8000.0, grid, fam, hop=44)
    for hop in (44.0, np.float64(44.0), np.int64(44)):
        S = compute_spectrogram(x, 8000.0, grid, fam, hop=hop)
        assert type(S.hop) is int and S.hop == 44
        assert np.array_equal(S.values, want.values)


@pytest.mark.parametrize("hop", [44.5, float("nan"), float("inf"), "44", 0, -3, 0.0, True])
def test_spectrogram_rejects_a_hop_that_is_not_a_positive_whole_number(hop):
    grid = build_frequency_grid(60.0, 72.0, 12)
    x = sine(440.0, 0.1, 8000.0)
    for kind in ("gauss", "rec-log"):
        with pytest.raises(ValueError, match="hop"):
            compute_spectrogram(x, 8000.0, grid, SpectrogramFamily(kind=kind), hop=hop)


@pytest.mark.parametrize("rate", [0.0, -8000.0, float("nan"), float("inf")])
def test_spectrogram_rejects_a_sample_rate_that_is_not_positive(rate):
    grid = build_frequency_grid(60.0, 72.0, 12)
    with pytest.raises(ValueError, match="sample_rate must be positive"):
        compute_spectrogram(sine(440.0, 0.1, 8000.0), rate, grid, SpectrogramFamily("gauss"))


def test_spectrogram_rejects_non_finite_samples():
    grid = build_frequency_grid(60.0, 72.0, 12)
    x = sine(440.0, 0.3, RATE)
    x[int(0.01 * RATE)] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        compute_spectrogram(x, RATE, grid, SpectrogramFamily(kind="rec-log"))


def test_spectrogram_rejects_channels_above_nyquist():
    rate = 8000.0
    x = sine(440.0, 0.1, rate)
    fam = SpectrogramFamily(kind="rec-log")
    grid = build_frequency_grid(60.0, midi_from_frequency(14900.0), 12)
    with pytest.raises(ValueError, match="Nyquist"):
        compute_spectrogram(x, rate, grid, fam)
    below = build_frequency_grid(60.0, midi_from_frequency(3900.0), 12)
    assert below.omega.max() < math.pi * rate
    assert compute_spectrogram(x, rate, below, fam).values.shape[1] == below.n_channels


@pytest.mark.parametrize("S0", [math.nan, math.inf, 0.0, -1.0])
def test_to_db_refuses_a_reference_level_that_is_not_positive_and_finite(S0):
    grid = build_frequency_grid(66.0, 72.0, 12)
    fam = SpectrogramFamily(kind="rec-uni", K=4)
    S = compute_spectrogram(sine(440.0, 0.05, RATE), RATE, grid, fam)
    with pytest.raises(ValueError, match=f"S0 must be positive and finite, got {S0}"):
        to_db(S, S0=S0)


def test_map_kind_is_checked():
    grid = build_frequency_grid(66.0, 72.0, 12)
    fam = SpectrogramFamily(kind="rec-uni", K=4)
    S = compute_spectrogram(sine(440.0, 0.05, RATE), RATE, grid, fam)
    assert S.kind == "complex" and to_db(S).kind == "db"
    assert to_db(S, S0=2.0).metadata["S0"] == 2.0
    with pytest.raises(ValueError, match="map kind"):
        replace(S, kind="dB")
