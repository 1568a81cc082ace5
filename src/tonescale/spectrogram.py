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
import itertools
import math
import numbers
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from tonescale.selectivity_analysis import delay_measures
from tonescale.temporal_scale_space import (
    SampledKernel,
    SpectrogramFamily,
    _block_cascade,
    _fft_length,
    _integer,
    _matmul,
    _one_blas_thread,
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


def _whole(value) -> bool:
    """Whether a count is a whole number: an integer (``_integer``) or a
    real without a fraction, never a bool."""
    if isinstance(value, numbers.Integral):
        return _integer(value)
    return isinstance(value, numbers.Real) and float(value).is_integer()


def build_frequency_grid(
    nu_min: float, nu_max: float, bins_per_octave: int, law: WindowScaleLaw | None = None
) -> FrequencyGrid:
    """Channels equally spaced in MIDI semitones covering [nu_min, nu_max]."""
    if not (math.isfinite(nu_min) and math.isfinite(nu_max)):
        raise ValueError(f"nu_min and nu_max must be finite, got {nu_min} and {nu_max}")
    if nu_min >= nu_max:
        raise ValueError(f"nu_min must be below nu_max, got {nu_min} and {nu_max}")
    if not (_whole(bins_per_octave) and bins_per_octave >= 1):
        raise ValueError(
            f"bins_per_octave must be a whole number at least 1, got {bins_per_octave!r}"
        )
    bins_per_octave = int(bins_per_octave)
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
    "rf_spec", delay shifts) live in ``metadata``. Frame j starts j hop
    samples into the signal: ``frame_times`` is read off that index, never
    stored, so a map cut to its first frames keeps its comb.
    """

    values: np.ndarray  # (n_frames, n_channels)
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

    @property
    def frame_times(self) -> np.ndarray:
        """Seconds of each frame: index * hop / sample_rate."""
        return np.arange(self.n_frames, dtype=float) * self.hop / self.sample_rate


MIN_STAGE_MU_SAMPLES = 1e-6
# Frames of a causal map demodulated at a time (a Gauss batch demodulates
# its own folds), so the carriers' temporaries do not grow with the signal.
_DEMODULATE_FRAMES = 256
# Gaussian channels run by overlap-save in groups, one per octave of kernel
# half-width h below the longest. A group's blocks take at least
# _BLOCK_HALVES times its largest h: 3 h of frames, the h samples each
# frame reads past them, and the h samples of lead before the first.
_BLOCK_HALVES = 5
# A batch of a group's channels folds as one product: as many channels as
# keep their stacked tap transforms within _BATCH_ELEMENTS reals, at least
# one and at most _BATCH_CHANNELS.
_BATCH_ELEMENTS = 1 << 15
_BATCH_CHANNELS = 8
# Real elements of block spectra transformed, and of a batch's products
# folded, at a time, so that no temporary grows with the signal.
_FOLD_ELEMENTS = 1 << 14


def _frame_hop(hop, sample_rate: float) -> int:
    """Samples between frames: 1 ms by default, else a positive whole number."""
    if hop is None:
        return max(1, int(round(sample_rate / 1000.0)))  # 1 ms frames
    if not _whole(hop):
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
    the memo holds at most ``_GAUSS_GRIDS_KEPT`` times that. The channels'
    tap transforms are held apart from the taps, for one layout
    (``_TransformPlan``).
    """
    kernels = tuple(discrete_gaussian_kernel(s) for s in scales)
    for kernel in kernels:
        kernel.values.flags.writeable = False
    return kernels


class _TransformPlan:
    """The Gaussian tap transforms of one layout, held from its second call
    in a row.

    A layout is everything a channel's transform depends on: the kernel
    scales, omega / rate, the hop and each overlap-save group's block
    length Q (``_block_groups``). The signal length is not part of it, so
    clips whose groups all run in blocks share one plan. The plan holds,
    per group and batch, the stacked transforms (Q, hop, channels) that
    ``_fold_batch``'s product reads, read-only: 8 hop Q bytes per channel,
    9.2 MB for a 77-channel grid from 200 Hz to 16 kHz on a 1 s clip at
    44.1 kHz and hop 44, and for the default 368-channel grid 101 MB on a
    2 s clip and 83 MB on any clip of 5 s or more. A layout's first call
    builds its transforms batch by batch and frees each batch's after its
    fold, so a process that calls once (every CLI command) holds nothing
    beyond the kernels. The next call on the same layout builds and keeps
    them, and every later call on it reads them, skipping
    ``_tap_transform``. At most one layout is held: holding another frees
    it. The products read the same bits either way, so the maps do not
    depend on whether the plan was held.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        with self._lock:
            self.last = None  # the layout of the latest call
            self.layout = None  # the layout held
            self.transforms = None  # per group, per batch

    def lookup(self, layout: tuple):
        """(the held transforms or None, whether to keep those built)."""
        with self._lock:
            again, self.last = layout == self.last, layout
            if layout == self.layout:
                return self.transforms, False
            return None, again

    def hold(self, layout: tuple, transforms: tuple) -> None:
        with self._lock:
            self.layout, self.transforms = layout, transforms

    @property
    def nbytes(self) -> int:
        held = self.transforms or ()
        return sum(gains.nbytes for group in held for gains in group)


_TRANSFORM_PLAN = _TransformPlan()


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
    del angle, sin, cos  # before the transform: only placed and Y are held through it
    pairs = np.fft.rfft(placed).view(float).reshape(-1, 2)
    re, im = pairs[:, 0], pairs[:, 1]
    np.subtract(re, im, out=placed[: m // 2 + 1])
    top = (m - 1) // 2
    np.add(re[top:0:-1], im[top:0:-1], out=placed[m // 2 + 1 :])
    return placed


def _block_groups(halves: list[int], n: int, hop: int) -> list[tuple]:
    """The overlap-save groups of the Gaussian channels, one per octave of
    kernel half-width below the longest: (channels, their largest
    half-width h, q, frames per block, blocks).

    A group's blocks are the least hop q >= _BLOCK_HALVES h samples, q
    11-smooth, so that they do not depend on the signal length. Where that
    is over half the group's whole-signal length (the least hop q >= N + h),
    the group takes that length as one block instead, which holds every
    frame: so short a signal would save too little on the channels' tap
    transforms to pay for the overlap.
    """
    fast = functools.partial(_fft_length, odd_primes=(3, 5, 7, 11))
    n_frames = -(-n // hop)
    longest = max(halves)
    octaves = np.array([(longest // max(half, 1)).bit_length() for half in halves])
    groups = []
    for octave in np.unique(octaves):
        channels = np.flatnonzero(octaves == octave)
        half = max(halves[ch] for ch in channels)
        whole = fast(-(-(n + half) // hop))
        q = fast(max(1, -(-_BLOCK_HALVES * half // hop)))
        if 2 * q > whole:
            q, per_block = whole, n_frames
        else:  # the frames whose h samples on either side lie in the block
            per_block = (hop * q - 2 * half - 1) // hop + 1
        groups.append((channels, half, q, per_block, -(-n_frames // per_block)))
    return groups


def _block_spectra(x: np.ndarray, half: int, advance: int, span, planes: np.ndarray) -> None:
    """Write the spectra of blocks span[0] to span[1] - 1 into ``planes``
    (q, blocks, 2, hop): the real and imaginary parts of bin r q + c of
    block b at [c, b, :, r].

    Block b holds x[b advance + i] at i < hop q - half and the half samples
    before x[b advance] at its end (zeros outside the signal), so that its
    frames fall on samples 0, hop, 2 hop, ... of its circular product with
    the taps. Its spectrum is a real FFT and its conjugate mirror, each
    value ``scipy.fft.fft``'s of the block, written into the planes without
    forming the full spectrum.
    """
    q, _, _, hop = planes.shape
    size = hop * q
    lo, hi = span
    first = lo * advance - half  # the first sample these blocks read
    segment = np.zeros((hi - lo - 1) * advance + size)
    a, b = max(first, 0), min(x.size, first + segment.size)
    if b > a:
        segment[a - first : b - first] = x[a:b]
    windows = np.lib.stride_tricks.sliding_window_view(segment, size)[::advance]
    rows = np.concatenate((windows[:, half:], windows[:, :half]), axis=1)
    del segment, windows
    spectra = np.fft.rfft(rows)
    del rows
    # Bin j is spectra[j] below top and conj(spectra[size - j]) from there.
    bins = planes[:, lo:hi].transpose(1, 3, 0, 2)  # [b, r, c] holds bin r q + c
    top = size // 2 + 1
    row, col = divmod(top, q)
    lower = spectra.view(float)
    bins[:, :row] = lower[:, : 2 * row * q].reshape(hi - lo, row, q, 2)
    if row < hop:
        bins[:, row, :col] = lower[:, 2 * row * q : 2 * top].reshape(hi - lo, col, 2)
        upper = spectra[:, size - top : 0 : -1]
        bins[:, row, col:, 0] = upper[:, : q - col].real
        np.negative(upper[:, : q - col].imag, out=bins[:, row, col:, 1])
        upper = upper[:, q - col :].reshape(hi - lo, hop - 1 - row, q)
        bins[:, row + 1 :, :, 0] = upper.real
        np.negative(upper.imag, out=bins[:, row + 1 :, :, 1])


def _demodulate(block: np.ndarray, first: int, omega, hop: int, sample_rate: float) -> None:
    """Take the carriers e^{-i omega t} off frames first, first + 1, ... of
    ``block`` (frames, channels at ``omega``), in place. Each t is read off
    the absolute frame index as ``TFMap.frame_times`` reads it, so the bits
    do not depend on where a block starts."""
    t = np.arange(first, first + len(block), dtype=float) * hop / sample_rate
    block *= np.exp(-1j * omega * t[:, None])


def _fold_batch(kernels, omega, sample_rate, values, keep, planes, per_block, batch, gains):
    """The frames of the Gaussian channels ``batch`` from their group's
    block ``planes`` (q, 2 blocks, hop), written into ``values``.

    Each channel's real transfer function H at hop q (``_tap_transform``)
    is stacked as (q, hop, channels), so that one product per chunk of
    blocks, (q, 2 blocks, hop) @ (q, hop, channels), multiplies every block
    spectrum by every H and sums the hop rows of each bin: the fold onto q
    bins that keeping every hop-th sample of the circular product is. One
    inverse FFT of length q per block and channel then gives the frames,
    of which the first ``per_block`` are kept, and ``_demodulate`` takes
    the carriers (channels at ``omega``, rad/s) off them.
    ``gains`` is the batch's stack from a held plan, or None to build it
    here; the stack is returned, read-only, if ``keep``, else freed.
    """
    q, rows, hop = planes.shape
    width = len(batch)
    if gains is None:
        for i, ch in enumerate(batch):
            gain = _tap_transform(kernels[ch], omega[ch] / sample_rate, hop * q)
            if gains is None:  # after the first transform, whose scratch is freed by then
                gains = np.empty((q, hop, width))
            gains[:, :, i] = gain.reshape(hop, q).T
            del gain
    n_frames = values.shape[0]
    step = max(1, _FOLD_ELEMENTS // (2 * q * width))
    for lo in range(0, rows // 2, step):
        hi = min(rows // 2, lo + step)
        product = _matmul(planes[:, 2 * lo : 2 * hi], gains)
        folded = product.reshape(q, hi - lo, 2, width).transpose(1, 3, 0, 2)
        folded = np.ascontiguousarray(folded).view(complex)[..., 0]
        del product
        folded /= hop
        frames = np.fft.ifft(folded)[:, :, :per_block]
        del folded
        f0, f1 = lo * per_block, min(n_frames, hi * per_block)
        out = frames.transpose(0, 2, 1).reshape(-1, width)[: f1 - f0]
        del frames
        _demodulate(out, f0, omega[batch], hop, sample_rate)
        values[f0:f1, batch] = out
    if not keep:
        return None
    gains.flags.writeable = False
    return gains


def _gauss_group(x, fold, hop, held, channels, half, q, per_block, blocks) -> tuple:
    """One overlap-save group: its block spectra, then its channels'
    batches (``fold``), each on its ``held`` transforms, None where the
    plan holds none. Returns what ``fold`` returns per batch. The spectra
    are freed on return, before the next group builds its own."""
    planes = np.empty((q, blocks, 2, hop))
    step = max(1, _FOLD_ELEMENTS // (hop * q))
    for lo in range(0, blocks, step):
        _block_spectra(x, half, hop * per_block, (lo, min(blocks, lo + step)), planes)
    planes = planes.reshape(q, 2 * blocks, hop)
    width = max(1, min(_BATCH_CHANNELS, _BATCH_ELEMENTS // (hop * q)))
    batches = [channels[i : i + width] for i in range(0, len(channels), width)]
    return tuple(fold(planes, per_block, batch, gains) for batch, gains in zip(batches, held))


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
    e^{-i omega t}, t read off the absolute frame index (``_demodulate``).

    Causal families fold the carrier into the cascade's poles, each pole
    p_k becoming p_k e^{i w}, so all channels run as one block recursion over
    their stages [gain, pole] from ``cascade_sections(ladder, w)`` at the
    full sample rate, which computes the frames only. It runs on the calling
    thread with OpenBLAS held to one thread, process-wide, while the GEMMs
    run (the count is restored after); the map does not depend on the BLAS
    thread count.

    The Gaussian family correlates with the truncated discrete Gaussian
    T[half + d], d = -half..half, centered on the frames, by overlap-save
    (Stockham 1966). The channels are grouped by octave of half-width
    (``_block_groups``); a group's blocks are hop Q samples, Q 11-smooth,
    about 5 times its largest half-width h, or one block of the whole
    signal (hop Q >= N + h, so no frame's sum wraps around) where that is
    not twice as long. The spectra of the group's blocks are built once,
    each a real FFT and its conjugate mirror, as real and imaginary planes
    (Q, 2 blocks, hop) (``_block_spectra``). Per channel the transform H of
    the taps T[half + d] e^{i w d}, placed circularly at hop Q, is real since
    T is symmetric: the discrete Hartley transform of the real taps
    T[half + d] (cos w d + sin w d), one real ``numpy.fft`` transform
    (``_tap_transform``). Keeping every hop-th output sample of a block's
    product with H aliases it onto Q bins (decimation in time is aliasing in
    frequency), so a batch of channels folds every block at once as one
    product (Q, 2 blocks, hop) @ (Q, hop, channels), and one inverse FFT of
    length Q per block and channel gives its frames (``_fold_batch``).
    The spectra are built, and the batches folded, on the calling thread
    with OpenBLAS held to one thread, as for the causal families. A group's
    spectra take about 1.5 to 2 complex values per signal sample, or one
    per sample of its one block; the call holds beyond them a batch's
    stacked transforms (at most 1 << 15 reals, or one channel's hop Q), one
    transform's scratch and a fold of bounded size, none of which grows
    with the signal once the blocks are shorter than it.
    The transforms depend on the layout (scales, omega / rate, hop and each
    group's Q) and not on the samples: from a layout's second call in a row
    on, the process holds them, 8 hop Q bytes per channel (9.2 MB for the
    77-channel grid at 1 s, about 100 MB for the default grid at 2 s), and
    later calls on that layout read them instead of building them
    (``_TransformPlan``). A single call holds none.

    Both agree with smoothing the modulated signal directly to within 1e-9
    of the signal peak (the bound tests enforce). Ladders, stages,
    Gaussian kernels and the degenerate-stage check are done before any
    channel is computed.

    Non-finite samples, a sample rate that is not positive, channels at or
    above the Nyquist frequency, a hop that is not a positive whole number
    and a hop longer than the signal are rejected: each would silently
    corrupt the map, leave nothing but warm-up or fail deep inside. A
    channel whose warm-up outlasts the clip is not: it reports
    ``warmup_frames >= n_frames``, and layer 2 finds nothing there.
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
        reach = [warmup_length(ladder) for ladder in ladders]  # samples
        values = _block_cascade(x, sections, hop)
        for lo in range(0, n_frames, _DEMODULATE_FRAMES):
            _demodulate(values[lo : lo + _DEMODULATE_FRAMES], lo, grid.omega, hop, sample_rate)
    else:
        scales = tuple((grid.tau_window * sample_rate * sample_rate).tolist())
        kernels = _gauss_kernels(scales)
        reach = [kernel.origin_index for kernel in kernels]  # half-widths, samples
        groups = _block_groups(reach, n, hop)
        w = tuple((grid.omega / sample_rate).tolist())
        layout = (scales, w, hop, tuple(q for _, _, q, _, _ in groups))
        plan, keep = _TRANSFORM_PLAN.lookup(layout)
        plan = plan or [itertools.repeat(None)] * len(groups)
        values = np.empty((n_frames, grid.n_channels), dtype=complex)
        fold = functools.partial(_fold_batch, kernels, grid.omega, sample_rate, values, keep)
        with _one_blas_thread():
            built = tuple(
                _gauss_group(x, fold, hop, held, *group) for group, held in zip(groups, plan)
            )
        if keep:
            _TRANSFORM_PLAN.hold(layout, built)
    return TFMap(
        values=values,
        grid=grid,
        sample_rate=sample_rate,
        hop=hop,
        family=family,
        warmup_frames=-(-np.array(reach) // hop),
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


@functools.cache
def _unit_delays(family: SpectrogramFamily):
    """The delay measures of a causal family's ladder at unit scale."""
    if not family.causal:
        raise ValueError("delay measures and compensation apply to causal families only")
    return delay_measures(family.ladder(1.0))


def channel_delays(grid: FrequencyGrid, family: SpectrogramFamily) -> dict:
    """Per-channel temporal delay measures (seconds) of the window family.

    Both cascade families are self-similar in sqrt(tau), so the delays are
    measured once per family at unit scale and rescaled by sqrt(tau) per channel.
    """
    unit = _unit_delays(family)
    root = np.sqrt(grid.tau_window)
    return {"t_max": unit.t_max * root, "t_infl1": unit.t_infl1 * root}


def delay_compensate(spec: TFMap) -> TFMap:
    """Shift each channel earlier by its first-inflection delay.

    Shifts are rounded to whole frames; the residual sub-frame delay is
    recorded per channel in the metadata. The vacated tail keeps the last
    observed value so no artificial transient is created; a channel whose
    shift reaches past the map holds that value in every frame. A map that
    is already compensated is refused, since a second shift would double it.
    """
    if "delay_shift_frames" in spec.metadata:
        raise ValueError("map is already delay-compensated")
    hop_seconds = spec.hop / spec.sample_rate
    delays = channel_delays(spec.grid, spec.family)["t_infl1"]
    shifts = np.rint(delays / hop_seconds).astype(int)
    values = spec.values.copy()
    n_frames = values.shape[0]
    for ch, shift in enumerate(np.minimum(shifts, n_frames - 1)):
        if shift > 0:
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
