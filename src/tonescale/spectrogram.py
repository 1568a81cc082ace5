"""Multi-scale complex spectrograms on a logarithmic frequency axis.

Each frequency channel projects the signal onto a complex carrier
e^{-i omega t} and smooths the projection with a temporal window whose
scale is proportional to the wavelength (with optional soft lower and
upper bounds). Gaussian windows give Gabor functions; time-causal
cascades give Gammatone (equal stage constants) or generalized Gammatone
(logarithmic ladder) functions. Magnitudes are mapped to dB and the
frequency axis is expressed in MIDI semitones.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from tonescale.selectivity_analysis import delay_measures
from tonescale.temporal_scale_space import (
    SampledKernel,
    SpectrogramFamily,
    _block_cascade,
    _fft_length,
    cascade_sections,
    discrete_gaussian_kernel,
    discretize_ladder,
    warmup_length,
)

NU_REF = 69.0
FREQ_REF = 440.0
OMEGA_REF = 2.0 * math.pi * FREQ_REF


def midi_from_frequency(freq_hz: float) -> float:
    """MIDI note number of a frequency: 69 + 12 log2(f / 440)."""
    return NU_REF + 12.0 * math.log2(freq_hz / FREQ_REF)


def frequency_from_midi(nu: float) -> float:
    return FREQ_REF * 2.0 ** ((nu - NU_REF) / 12.0)


@dataclass(frozen=True)
class WindowScaleLaw:
    """Wavelength-proportional window scale with soft bounds.

    tau(omega) = tau0 + (2 pi n / omega)^2, optionally pushed below tau_inf
    by the soft minimum tau' = tau / (1 + (tau/tau_inf)^p)^(1/p). ``n`` is
    the number of carrier periods under the window; tau0 and tau_inf are
    variances in seconds^2.
    """

    n: float = 8.0
    tau0: float = 0.0
    tau_inf: float | None = None
    p: float = 2.0

    def __post_init__(self) -> None:
        fields = (("n", self.n), ("tau0", self.tau0), ("tau_inf", self.tau_inf), ("p", self.p))
        for name, value in fields:
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.n <= 0:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.tau0 < 0:
            raise ValueError(f"tau0 must be non-negative, got {self.tau0}")
        if self.tau_inf is not None and self.tau_inf <= self.tau0:
            raise ValueError("tau_inf must exceed tau0 (or be disabled)")
        if self.p < 1:
            raise ValueError(f"softness exponent p must be >= 1, got {self.p}")


def window_scale(omega: float, law: WindowScaleLaw) -> float:
    """Temporal window variance (seconds^2) for a channel at omega rad/s."""
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    tau = law.tau0 + (2.0 * math.pi * law.n / omega) ** 2
    if law.tau_inf is not None:
        ratio = tau / law.tau_inf
        if ratio <= 1.0:
            tau = tau / (1.0 + ratio**law.p) ** (1.0 / law.p)
        else:  # the same soft minimum, written so that ratio^p cannot overflow
            tau = law.tau_inf / (1.0 + ratio ** -law.p) ** (1.0 / law.p)
    return tau


@dataclass(frozen=True)
class FrequencyGrid:
    """Logarithmic frequency axis with per-channel window scales."""

    nu: np.ndarray
    omega: np.ndarray
    tau_window: np.ndarray
    bins_per_octave: int
    nu_min: float
    nu_max: float
    law: WindowScaleLaw

    @property
    def n_channels(self) -> int:
        return len(self.nu)

    @property
    def delta_nu(self) -> float:
        """Channel spacing in semitones."""
        return 12.0 / self.bins_per_octave


def build_frequency_grid(
    nu_min: float,
    nu_max: float,
    bins_per_octave: int,
    law: WindowScaleLaw | None = None,
) -> FrequencyGrid:
    """Channels equally spaced in MIDI semitones covering [nu_min, nu_max]."""
    if not (math.isfinite(nu_min) and math.isfinite(nu_max)):
        raise ValueError(f"nu_min and nu_max must be finite, got {nu_min} and {nu_max}")
    if nu_min >= nu_max:
        raise ValueError(f"nu_min must be below nu_max, got {nu_min} and {nu_max}")
    if bins_per_octave < 1:
        raise ValueError(f"bins_per_octave must be at least 1, got {bins_per_octave}")
    if law is None:
        law = WindowScaleLaw()
    step = 12.0 / bins_per_octave
    steps = np.ceil((nu_max - nu_min) / step)
    # tau falls as omega rises, under the soft bound too: the end channels bound the rest
    for end in (nu_min, nu_min + step * steps):
        with np.errstate(over="ignore"):
            omega = OMEGA_REF * np.exp2((end - NU_REF) / 12.0)
            tau = window_scale(omega, law)
        if not (omega < math.inf and 0 < tau < math.inf):
            raise ValueError(
                f"the window law gives a variance of {tau} s^2 at nu={end:.2f} "
                f"(omega = {omega:.6g} rad/s); both must be positive and finite"
            )
    nu = nu_min + step * np.arange(int(steps) + 1)
    omega = OMEGA_REF * 2.0 ** ((nu - NU_REF) / 12.0)
    tau = np.array([window_scale(w, law) for w in omega])
    return FrequencyGrid(
        nu=nu,
        omega=omega,
        tau_window=tau,
        bins_per_octave=bins_per_octave,
        nu_min=nu_min,
        nu_max=nu_max,
        law=law,
    )


TFMAP_KINDS = ("complex", "db", "rf", "onset", "offset", "band")


@dataclass
class TFMap:
    """Values on the (frame, channel) plane of a spectrogram.

    Every time-frequency result of both layers is a TFMap: the complex
    spectrogram (``kind`` "complex"), its dB map ("db"), receptive-field
    responses ("rf"), and the rectified onset, offset and band maps.
    ``warmup_frames`` counts, per channel, the leading frames dominated by
    the zero initial state of every smoothing applied so far. Settings that
    only some kinds have (the dB reference ``S0``, the ``RFSpec`` under
    "rf_spec", delay shifts) live in ``metadata``.
    """

    values: np.ndarray  # (n_frames, n_channels)
    frame_times: np.ndarray  # seconds
    grid: FrequencyGrid
    sample_rate: float
    hop: int  # samples between frames
    family: SpectrogramFamily
    warmup_frames: np.ndarray  # per channel
    kind: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in TFMAP_KINDS:
            raise ValueError(f"unknown map kind {self.kind!r}")

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def frame_rate(self) -> float:
        return self.sample_rate / self.hop


MIN_STAGE_MU_SAMPLES = 1e-6
# Frames demodulated at a time on the causal path, so its temporaries do
# not grow with the signal.
_DEMODULATE_FRAMES = 256
# Spectrum cells a Gauss channel multiplies at a time while folding onto the
# frame bins, so its products stay far below one signal-length array.
_FOLD_CELLS = 16384


def _worker_count(tasks: int) -> int:
    """Threads for ``tasks`` independent Gaussian channels: the CPUs this process may use."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, tasks)


def _frame_hop(hop, sample_rate: float) -> int:
    """Samples between frames: 1 ms by default, else a positive whole number."""
    if hop is None:
        return max(1, int(round(sample_rate / 1000.0)))  # 1 ms frames
    if not isinstance(hop, numbers.Integral):
        if not (isinstance(hop, numbers.Real) and float(hop).is_integer()):
            raise ValueError(f"hop must be a whole number of samples, got {hop!r}")
    if hop <= 0:
        raise ValueError(f"hop must be positive, got {hop}")
    return int(hop)


# Grids whose Gaussian kernels stay built. A grid's kernels are kept whole,
# not per scale: the channels are visited in a cycle, so a per-scale LRU
# smaller than the channel count would miss on every call.
_GAUSS_GRIDS_KEPT = 2


@functools.lru_cache(maxsize=_GAUSS_GRIDS_KEPT)
def _gauss_kernels(scales: tuple[float, ...]) -> tuple[SampledKernel, ...]:
    """The discrete Gaussian kernel of each channel scale (samples^2).

    Built once per process for each grid and rate, and shared by every later
    call on the same scales; the kernels use ``discrete_gaussian_kernel``'s
    default epsilon, so the scales are the whole key. Their ``values`` are
    read-only, since every caller gets the same arrays. The taps take about
    2.4 MB for a 77-channel grid from 200 Hz to 16 kHz at 12 bins per
    octave and about 24 MB for the default 368-channel grid at 44.1 kHz, so
    the memo holds at most ``_GAUSS_GRIDS_KEPT`` times that.
    """
    kernels = tuple(discrete_gaussian_kernel(s) for s in scales)
    for kernel in kernels:
        kernel.values.flags.writeable = False
    return kernels


def _tap_transform(kernel: SampledKernel, w: float, m: int) -> np.ndarray:
    """The length-m DFT of the taps T[half + d] e^{i w d}, d = -half..half,
    placed circularly (half < m), as a real array.

    T is exactly symmetric, so the transform is real:
    H[k] = sum_d T[half + d] cos((w - 2 pi k / m) d). It is the discrete
    Hartley transform of the real taps y[d] = T[half + d] (cos w d + sin w d)
    (Bracewell 1984), which one real FFT gives: with Y = rfft(y),
    H[k] = Re Y[k] - Im Y[k] for k <= m / 2 and Re Y[m - k] + Im Y[m - k]
    above. H is written over the placed taps.
    """
    half = kernel.origin_index
    right = kernel.values[half:]
    angle = w * np.arange(half + 1)
    sin = np.sin(angle)
    cos = np.cos(angle, out=angle)
    placed = np.zeros(m)
    np.multiply(right, cos + sin, out=placed[: half + 1])
    # The d < 0 taps, d = -half..-1; they overlap the head when 2 half >= m.
    cos -= sin
    cos *= right
    placed[m - half :] += cos[:0:-1]
    del angle, sin, cos  # before the transform: a worker then holds placed and Y alone
    pairs = np.fft.rfft(placed).view(float).reshape(-1, 2)
    re, im = pairs[:, 0], pairs[:, 1]
    np.subtract(re, im, out=placed[: m // 2 + 1])
    top = (m - 1) // 2
    np.add(re[top:0:-1], im[top:0:-1], out=placed[m // 2 + 1 :])
    return placed


def _real_spectrum(x: np.ndarray, m: int) -> np.ndarray:
    """fft(x, m) of a real x: its real FFT, then the conjugate mirror. Each
    value equals ``scipy.fft.fft(x, m)``'s; numpy's complex ``fft`` of x does not."""
    half = np.fft.rfft(x, m)
    return np.concatenate((half, half[(m - 1) // 2 : 0 : -1].conj()))


def compute_spectrogram(
    signal,
    sample_rate: float,
    grid: FrequencyGrid,
    family: SpectrogramFamily,
    hop: int | None = None,
) -> TFMap:
    """Project onto cos/sin carriers per channel and smooth temporally.

    The stored value is c - i s where c and s are the smoothed cosine and
    sine projections, i.e. the temporal smoothing of f(t) e^{-i omega t}.
    Both families fold the carrier into the window: smoothing x[n] e^{-i w n}
    (w = omega / rate) equals e^{-i w n} times smoothing the real x[n] with
    the window modulated by e^{i w n}, so each channel computes the folded
    response on the frame comb only and multiplies those samples by
    e^{-i omega t}.

    Causal families fold the carrier into the cascade's poles, each pole
    p_k becoming p_k e^{i w}, so all channels run as one block recursion over
    their stages [gain, pole] from ``cascade_sections(ladder, w)`` at the
    full sample rate, which computes the frames only. It runs on the calling thread; the BLAS library
    threads its GEMMs, and the map does not depend on its thread count.

    The Gaussian family correlates with the truncated discrete Gaussian
    T[half + d], d = -half..half, centered on the frames. The signal is
    transformed once, X = fft(x, M) (``_real_spectrum``), with M = hop Q at
    least N + the largest half, so no frame's sum wraps around; Q is a fast
    FFT length, and so is M whenever hop is. Per channel the transform H of
    the taps T[half + d] e^{i w d}, placed circularly, is real since T is
    symmetric: the discrete Hartley transform of the real taps
    T[half + d] (cos w d + sin w d), one real ``numpy.fft`` transform
    (``_tap_transform``). Keeping every hop-th output sample of the product
    X H aliases it onto Q bins (decimation in time is aliasing in frequency),
    so one inverse FFT of length Q gives the frames. The fold multiplies X by
    the real H a few of the (hop, Q) rows at a time and sums them into a
    Q-long accumulator, so no M-long product is formed.
    These channels run on a thread pool sized to the CPUs this process may
    use; each channel is computed and written by one thread alone, so the
    map does not depend on the thread count.

    Both agree with smoothing the modulated signal directly to within 1e-9
    of the signal peak (the bound tests enforce). Ladders, stages,
    Gaussian kernels and the degenerate-stage check are done before any
    channel is computed.

    Non-finite samples, a sample rate that is not positive, channels at or
    above the Nyquist frequency, a hop that is not a positive whole number
    and a hop longer than the signal are rejected: each would silently
    corrupt the map, leave nothing but warm-up or fail deep inside.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("signal must be a non-empty 1-D array")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite samples")
    if not (sample_rate > 0 and math.isfinite(sample_rate)):
        raise ValueError(f"sample_rate must be positive and finite, got {sample_rate}")
    if grid.omega.max() >= math.pi * sample_rate:
        raise ValueError(
            f"highest channel ({grid.omega.max() / (2.0 * math.pi):.1f} Hz) is at or above "
            f"the Nyquist frequency ({sample_rate / 2.0:.1f} Hz)"
        )
    hop = _frame_hop(hop, sample_rate)
    n = x.size
    if hop > n:
        raise ValueError(f"hop ({hop} samples) is longer than the signal ({n} samples)")
    n_frames = -(-n // hop)
    frame_times = np.arange(n_frames, dtype=float)
    frame_times *= hop
    frame_times /= sample_rate  # index * hop / rate, built in place
    n_ch = grid.n_channels
    if family.causal:
        ladders = [discretize_ladder(family.ladder(tau), sample_rate) for tau in grid.tau_window]
        for nu, ladder in zip(grid.nu, ladders):
            if ladder.mu_min < MIN_STAGE_MU_SAMPLES:
                raise ValueError(
                    f"channel at nu={nu:.2f} yields a degenerate stage "
                    f"(mu={ladder.mu_min:.3g} samples)"
                )
        sections = np.stack(
            [
                cascade_sections(ladder, omega / sample_rate)
                for ladder, omega in zip(ladders, grid.omega)
            ]
        )
        warmup = np.array([-(-warmup_length(ladder) // hop) for ladder in ladders])
        values = _block_cascade(x, sections, hop)
        for lo in range(0, n_frames, _DEMODULATE_FRAMES):
            rows = values[lo : lo + _DEMODULATE_FRAMES]
            rows *= np.exp(-1j * grid.omega * frame_times[lo : lo + _DEMODULATE_FRAMES, None])
    else:
        kernels = _gauss_kernels(tuple((grid.tau_window * sample_rate * sample_rate).tolist()))
        halves = [kernel.origin_index for kernel in kernels]
        warmup = np.array([-(-half // hop) for half in halves])
        q = _fft_length(-(-(n + max(halves)) // hop), (3, 5, 7, 11))
        m = hop * q
        bins = _real_spectrum(x, m).reshape(hop, q)
        values = np.empty((n_frames, n_ch), dtype=complex)
        fold_rows = max(1, _FOLD_CELLS // q)

        def demodulate(ch: int) -> None:
            # Runs on a worker thread: numpy only.
            gain = _tap_transform(kernels[ch], grid.omega[ch] / sample_rate, m).reshape(hop, q)
            folded = np.zeros(q, dtype=complex)
            scratch = np.empty((min(fold_rows, hop), q), dtype=complex)
            for lo in range(0, hop, fold_rows):
                chunk = scratch[: min(fold_rows, hop - lo)]
                np.multiply(bins[lo : lo + fold_rows], gain[lo : lo + fold_rows], out=chunk)
                folded += chunk.sum(axis=0)
            folded = np.fft.ifft(folded / hop)[:n_frames]
            values[:, ch] = folded * np.exp(-1j * grid.omega[ch] * frame_times)

        with ThreadPoolExecutor(max_workers=_worker_count(n_ch)) as pool:
            list(pool.map(demodulate, range(n_ch)))
    return TFMap(
        values=values,
        frame_times=frame_times,
        grid=grid,
        sample_rate=sample_rate,
        hop=hop,
        family=family,
        warmup_frames=warmup,
        kind="complex",
    )


MAGNITUDE_FLOOR_FACTOR = 1e-10


def to_db(spec: TFMap, S0: float = 1.0) -> TFMap:
    """Self-similar dB map 20 log10(max(|S|, floor) / S0) of a complex
    spectrogram; the floor keeps it finite."""
    if spec.kind != "complex":
        raise ValueError(f"to_db needs a complex spectrogram, got a {spec.kind!r} map")
    if not 0 < S0 < math.inf:
        raise ValueError(f"reference level S0 must be positive and finite, got {S0}")
    mag = np.maximum(np.abs(spec.values), MAGNITUDE_FLOOR_FACTOR * S0)
    return replace(
        spec,
        values=20.0 * np.log10(mag / S0),
        warmup_frames=spec.warmup_frames.copy(),
        kind="db",
        metadata={**spec.metadata, "S0": S0},
    )


def channel_delays(grid: FrequencyGrid, family: SpectrogramFamily) -> dict:
    """Per-channel temporal delay measures (seconds) of the window family.

    Both cascade families are self-similar in sqrt(tau), so the delays are
    measured once at unit scale and rescaled by sqrt(tau) per channel.
    """
    if not family.causal:
        raise ValueError("delay measures apply to causal families only")
    unit = delay_measures(family.ladder(1.0))
    root = np.sqrt(grid.tau_window)
    return {"t_max": unit.t_max * root, "t_infl1": unit.t_infl1 * root}


def delay_compensate(spec: TFMap) -> TFMap:
    """Shift each channel earlier by its first-inflection delay.

    Shifts are rounded to whole frames; the residual sub-frame delay is
    recorded per channel in the metadata. The vacated tail keeps the last
    observed value so no artificial transient is created. A map that is
    already compensated is refused, since a second shift would double it.
    """
    if not spec.family.causal:
        raise ValueError("delay compensation applies to causal families only")
    if "delay_shift_frames" in spec.metadata:
        raise ValueError("map is already delay-compensated")
    hop_seconds = spec.hop / spec.sample_rate
    delays = channel_delays(spec.grid, spec.family)["t_infl1"]
    shifts = np.rint(delays / hop_seconds).astype(int)
    values = spec.values.copy()
    n_frames = values.shape[0]
    for ch, shift in enumerate(shifts):
        if 0 < shift < n_frames:
            values[:-shift, ch] = values[shift:, ch]
            values[-shift:, ch] = values[-shift - 1, ch]
    return replace(
        spec,
        values=values,
        metadata={
            **spec.metadata,
            "delay_shift_frames": shifts,
            "delay_residual_seconds": delays - shifts * hop_seconds,
        },
    )
