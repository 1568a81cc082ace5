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

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.signal import upfirdn

from seedref.temporal_scale_space import (
    Distribution,
    ScaleLadder,
    build_ladder,
    cascade_kernel_numeric,
    composed_uniform_kernel_sample,
    discrete_gaussian_kernel,
    discretize_ladder,
    recursive_stage,
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
        tau = tau / (1.0 + (tau / law.tau_inf) ** law.p) ** (1.0 / law.p)
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
    if nu_min >= nu_max:
        raise ValueError("nu_min must be below nu_max")
    if bins_per_octave < 1:
        raise ValueError("bins_per_octave must be >= 1")
    if law is None:
        law = WindowScaleLaw()
    step = 12.0 / bins_per_octave
    count = int(math.ceil((nu_max - nu_min) / step)) + 1
    nu = nu_min + step * np.arange(count)
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


@dataclass(frozen=True)
class SpectrogramFamily:
    """Temporal window family: "gauss", "rec-uni", or "rec-log"."""

    kind: str
    K: int = 7
    c: float | None = math.sqrt(2.0)

    def __post_init__(self) -> None:
        if self.kind not in ("gauss", "rec-uni", "rec-log"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind != "gauss" and self.K < 1:
            raise ValueError(f"cascade families need K >= 1, got {self.K}")
        if self.kind == "rec-log" and (self.c is None or self.c <= 1):
            raise ValueError("rec-log needs a ratio c > 1")

    @property
    def causal(self) -> bool:
        return self.kind != "gauss"

    @property
    def distribution(self) -> Distribution:
        if self.kind == "rec-uni":
            return Distribution.UNIFORM
        if self.kind == "rec-log":
            return Distribution.LOGARITHMIC
        raise ValueError("gaussian family has no ladder distribution")

    def ladder(self, tau: float) -> ScaleLadder:
        c = self.c if self.kind == "rec-log" else None
        return build_ladder(self.distribution, tau, self.K, c)


@dataclass
class ComplexSpectrogram:
    """Complex channel values at uniformly hopped frame times."""

    values: np.ndarray  # (n_frames, n_channels) complex
    frame_times: np.ndarray  # seconds
    grid: FrequencyGrid
    sample_rate: float
    hop: int  # samples between frames
    family: SpectrogramFamily
    warmup_frames: np.ndarray  # per channel
    delay_compensated: bool = False
    metadata: dict = field(default_factory=dict)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


@dataclass
class LogSpectrogram:
    """Real dB values, 20 log10(max(|S|, floor)/S0)."""

    values: np.ndarray  # (n_frames, n_channels) float
    frame_times: np.ndarray
    grid: FrequencyGrid
    sample_rate: float
    hop: int
    family: SpectrogramFamily
    S0: float
    warmup_frames: np.ndarray
    delay_compensated: bool = False
    metadata: dict = field(default_factory=dict)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def frame_rate(self) -> float:
        return self.sample_rate / self.hop


MIN_STAGE_MU_SAMPLES = 1e-6


def compute_spectrogram(
    signal,
    sample_rate: float,
    grid: FrequencyGrid,
    family: SpectrogramFamily,
    hop: int | None = None,
    epsilon: float = 1e-6,
) -> ComplexSpectrogram:
    """Project onto cos/sin carriers per channel and smooth temporally.

    The stored value is c - i s where c and s are the smoothed cosine and
    sine projections, i.e. the temporal smoothing of f(t) e^{-i omega t}.
    Causal families run the recursive cascade at the full sample rate and
    keep every hop-th sample; the Gaussian family evaluates truncated
    discrete-Gaussian windowed sums centered on the frames only.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("signal must be a non-empty 1-D array")
    if hop is None:
        hop = max(1, int(round(sample_rate / 1000.0)))  # 1 ms frames
    if hop <= 0:
        raise ValueError(f"hop must be positive, got {hop}")
    n = x.size
    frame_idx = np.arange(0, n, hop)
    frame_times = frame_idx / sample_rate
    n_ch = grid.n_channels
    values = np.empty((len(frame_idx), n_ch), dtype=complex)
    warmup = np.zeros(n_ch, dtype=int)
    t = np.arange(n) / sample_rate
    for ch in range(n_ch):
        omega = grid.omega[ch]
        tau = grid.tau_window[ch]
        modulated = x * np.exp(-1j * omega * t)
        if family.causal:
            ladder = discretize_ladder(family.ladder(tau), sample_rate)
            if ladder.mu_min < MIN_STAGE_MU_SAMPLES:
                raise ValueError(
                    f"channel at nu={grid.nu[ch]:.2f} yields a degenerate stage "
                    f"(mu={ladder.mu_min:.3g} samples)"
                )
            cur = modulated
            for mu in ladder.mus:
                cur = recursive_stage(cur, mu)
            values[:, ch] = cur[frame_idx]
            warmup[ch] = -(-warmup_length(ladder) // hop)
        else:
            s_sampl = tau * sample_rate * sample_rate
            kernel = discrete_gaussian_kernel(s_sampl, epsilon)
            half = kernel.origin_index
            # Decimated correlation: S[j] = sum_k T[k] x[j hop + k - half],
            # evaluated via full convolution sampled on the frame comb.
            pad = (-half) % hop
            padded = np.concatenate([np.zeros(pad, dtype=complex), modulated])
            conv = upfirdn(kernel.values, padded, up=1, down=hop)
            offset = (half + pad) // hop
            seg = conv[offset : offset + len(frame_idx)]
            out = np.zeros(len(frame_idx), dtype=complex)
            out[: len(seg)] = seg
            values[:, ch] = out
            warmup[ch] = -(-half // hop)
    return ComplexSpectrogram(
        values=values,
        frame_times=frame_times,
        grid=grid,
        sample_rate=sample_rate,
        hop=hop,
        family=family,
        warmup_frames=warmup,
    )


MAGNITUDE_FLOOR_FACTOR = 1e-10


def to_db(spec: ComplexSpectrogram, S0: float = 1.0) -> LogSpectrogram:
    """Self-similar dB map of the magnitudes, floored to stay finite."""
    if S0 <= 0:
        raise ValueError(f"reference level S0 must be positive, got {S0}")
    mag = np.maximum(np.abs(spec.values), MAGNITUDE_FLOOR_FACTOR * S0)
    return LogSpectrogram(
        values=20.0 * np.log10(mag / S0),
        frame_times=spec.frame_times,
        grid=spec.grid,
        sample_rate=spec.sample_rate,
        hop=spec.hop,
        family=spec.family,
        S0=S0,
        warmup_frames=spec.warmup_frames.copy(),
        delay_compensated=spec.delay_compensated,
        metadata=dict(spec.metadata),
    )


def channel_delays(grid: FrequencyGrid, family: SpectrogramFamily) -> dict:
    """Per-channel temporal delay measures (seconds) of the window family.

    The closed forms apply to equal-stage cascades; logarithmic ladders are
    measured once on a unit-scale numeric impulse response and rescaled by
    sqrt(tau), which is exact because the kernel family is self-similar in
    sqrt(tau).
    """
    from seedref.selectivity_analysis import delay_measures

    if not family.causal:
        raise ValueError("delay measures apply to causal families only")
    t_max = np.empty(grid.n_channels)
    t_infl1 = np.empty(grid.n_channels)
    if family.kind == "rec-uni":
        for ch, tau in enumerate(grid.tau_window):
            d = delay_measures(family.ladder(tau))
            t_max[ch] = d.t_max
            t_infl1[ch] = d.t_infl1
    else:
        unit = delay_measures(family.ladder(1.0))
        root = np.sqrt(grid.tau_window)
        t_max[:] = unit.t_max * root
        t_infl1[:] = unit.t_infl1 * root
    return {"t_max": t_max, "t_infl1": t_infl1}


def delay_compensate(spec: ComplexSpectrogram | LogSpectrogram):
    """Shift each channel earlier by its first-inflection delay.

    Shifts are rounded to whole frames; the residual sub-frame delay is
    recorded per channel in the metadata. The vacated tail keeps the last
    observed value so no artificial transient is created.
    """
    if not spec.family.causal:
        raise ValueError("delay compensation applies to causal families only")
    hop_seconds = spec.hop / spec.sample_rate
    delays = channel_delays(spec.grid, spec.family)["t_infl1"]
    shifts = np.rint(delays / hop_seconds).astype(int)
    values = spec.values.copy()
    n_frames = values.shape[0]
    for ch, shift in enumerate(shifts):
        if 0 < shift < n_frames:
            values[:-shift, ch] = values[shift:, ch]
            values[-shift:, ch] = values[-shift - 1, ch]
    out = replace(spec, values=values, delay_compensated=True)
    out.metadata = dict(spec.metadata)
    out.metadata["delay_shift_frames"] = shifts
    out.metadata["delay_residual_seconds"] = delays - shifts * hop_seconds
    return out


def gammatone_kernel_sample(a: float, b: float, phi: float, K: int, t, alpha: float = 0.0):
    """The Gammatone function a t^{K-1} e^{-2 pi b t} cos(2 pi phi t + alpha)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    out[pos] = (
        a * tp ** (K - 1) * np.exp(-2.0 * math.pi * b * tp) * np.cos(2.0 * math.pi * phi * tp + alpha)
    )
    return out if out.ndim else float(out)


def gammatone_equivalence_check(
    mu: float, K: int, omega: float, dt: float | None = None, horizon: float | None = None
) -> float:
    """Max-abs deviation between the causal-uniform window times a cosine
    carrier and the closed-form Gammatone with a = 1/(mu^K Gamma(K)),
    b = 1/(2 pi mu). Zero up to rounding when the stage constants are equal.
    """
    if dt is None:
        dt = mu / 100.0
    if horizon is None:
        horizon = (K + 12.0 * math.sqrt(K)) * mu
    t = np.arange(0.0, horizon, dt)
    windowed = composed_uniform_kernel_sample(mu, K, t) * np.cos(omega * t)
    a = math.exp(-K * math.log(mu) - math.lgamma(K))
    b = 1.0 / (2.0 * math.pi * mu)
    phi = omega / (2.0 * math.pi)
    gamma = gammatone_kernel_sample(a, b, phi, K, t)
    return float(np.max(np.abs(windowed - gamma)))


def generalized_gammatone_peak_deviation(tau: float, K: int, c: float, omega: float) -> float:
    """Relative peak deviation of a logarithmic-ladder window from the
    variance-matched equal-stage Gammatone window. Nonzero whenever c > 1.
    """
    ladder = build_ladder(Distribution.LOGARITHMIC, tau, K, c)
    dt = min(math.sqrt(tau) / 2000.0, ladder.mu_min / 20.0)
    horizon = ladder.mu_sum + 10.0 * math.sqrt(tau)
    kernel = cascade_kernel_numeric(ladder, dt, horizon)
    mu_eq = math.sqrt(tau / K)
    uniform = composed_uniform_kernel_sample(mu_eq, K, kernel.times)
    peak = float(np.max(uniform))
    return float(np.max(np.abs(kernel.values - uniform)) / peak)
