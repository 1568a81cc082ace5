"""Temporal scale-space kernels and their discrete realizations.

Two kernel families are provided: non-causal Gaussians, parameterized by a
variance tau and an optional time delay, and time-causal cascades of
first-order integrators ("truncated exponentials"), parameterized by a scale
ladder of intermediate levels tau_k realized with per-stage time constants
mu_k. The discrete counterparts (first-order recursive filters and the
discrete Gaussian) preserve the defining scale-space property: smoothing
never increases the number of local extrema of a signal.

No other module realises a temporal kernel: ``cascade_sections`` plus
``scipy.signal.sosfilt`` is the one cascade realisation (layer 2 runs it
through ``discrete_recursive_smooth``, the causal layer-1 windows with the
carrier folded into the poles), ``temporal_profiles`` the one kernel
sampler and ``ScaleLadder.support`` the one support rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.ndimage import correlate1d
from scipy.signal import lfilter, sosfilt
from scipy.special import ive


class Distribution(Enum):
    UNIFORM = "uniform"
    LOGARITHMIC = "logarithmic"


@dataclass(frozen=True)
class ScaleLadder:
    """Ordered temporal scale levels tau_k with per-stage time constants mu_k.

    ``levels`` are variances (seconds^2 for continuous ladders, samples^2 for
    discrete ones); ``mus`` are the matching stage time constants in seconds
    or samples. Continuous ladders satisfy sum(mu_k^2) = tau_max; discrete
    ladders satisfy sum(mu_k^2 + mu_k) = tau_max in sample^2 units.
    """

    distribution: Distribution
    tau_max: float
    K: int
    c: float | None
    levels: tuple[float, ...]
    mus: tuple[float, ...]
    units: str = "seconds"  # "seconds" or "samples"

    def __post_init__(self) -> None:
        if len(self.levels) != self.K or len(self.mus) != self.K:
            raise ValueError("ladder must carry exactly K levels and K time constants")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("scale levels must be strictly increasing")
        if not math.isclose(self.levels[-1], self.tau_max, rel_tol=1e-12):
            raise ValueError("top scale level must equal tau_max")

    @property
    def mu_min(self) -> float:
        return min(self.mus)

    @property
    def mu_sum(self) -> float:
        return float(sum(self.mus))

    @property
    def support(self) -> float:
        """Length past which the cascade's impulse response is negligible."""
        return self.mu_sum + 10.0 * math.sqrt(self.tau_max)


def build_ladder(
    distribution: Distribution,
    tau_max: float,
    K: int,
    c: float | None = None,
) -> ScaleLadder:
    """Construct a continuous scale ladder in seconds units.

    Logarithmic ladders place tau_k = c^{2(k-K)} tau_max with
    mu_1 = c^{1-K} sqrt(tau_max) and mu_k = c^{k-K-1} sqrt(c^2-1) sqrt(tau_max)
    for k >= 2; uniform ladders place tau_k = (k/K) tau_max with equal stage
    constants mu_k = sqrt(tau_max / K).
    """
    if not 0 < tau_max < math.inf:
        raise ValueError(f"tau_max must be positive and finite, got {tau_max}")
    if K < 1:
        raise ValueError(f"stage count K must be >= 1, got {K}")
    if distribution is Distribution.LOGARITHMIC:
        if c is None or not 1 < c < math.inf:
            raise ValueError(f"logarithmic ladders need a finite ratio c > 1, got {c}")
        levels = tuple(c ** (2.0 * (k - K)) * tau_max for k in range(1, K + 1))
        sigma = math.sqrt(tau_max)
        mus = [c ** (1.0 - K) * sigma]
        mus += [
            c ** (k - K - 1.0) * math.sqrt(c * c - 1.0) * sigma
            for k in range(2, K + 1)
        ]
        mus = tuple(mus)
    else:
        levels = tuple((k / K) * tau_max for k in range(1, K + 1))
        mus = tuple(math.sqrt(tau_max / K) for _ in range(K))
    return ScaleLadder(distribution, tau_max, K, c, levels, mus, units="seconds")


def discretize_ladder(ladder: ScaleLadder, sample_rate: float) -> ScaleLadder:
    """Transfer a continuous ladder to sample units at the given rate.

    Scale levels transform as tau_sampl = rate^2 tau; each stage constant is
    recovered from its scale increment via mu = (sqrt(1 + 4 dtau) - 1)/2, so
    the discrete stage variances mu^2 + mu add up to the levels exactly.
    """
    if ladder.units != "seconds":
        raise ValueError("ladder is already in sample units")
    if sample_rate <= 0:
        raise ValueError(f"sample rate must be positive, got {sample_rate}")
    levels = tuple(sample_rate * sample_rate * tau for tau in ladder.levels)
    prev = 0.0
    mus = []
    for tau in levels:
        dtau = tau - prev
        mus.append((math.sqrt(1.0 + 4.0 * dtau) - 1.0) / 2.0)
        prev = tau
    return ScaleLadder(
        ladder.distribution,
        levels[-1],
        ladder.K,
        ladder.c,
        levels,
        tuple(mus),
        units="samples",
    )


def warmup_length(ladder: ScaleLadder) -> int:
    """Number of initial samples dominated by the zero initial state."""
    return int(math.ceil(5.0 * ladder.mu_sum))


@dataclass(frozen=True)
class TemporalKernelSpec:
    """A temporal smoothing kernel: non-causal Gaussian or time-causal cascade.

    Gaussian kernels carry a variance ``tau`` (seconds^2); cascades carry a
    continuous scale ladder.
    """

    kind: str  # "gaussian" or "cascade"
    tau: float | None = None
    ladder: ScaleLadder | None = None

    def __post_init__(self) -> None:
        if self.kind == "gaussian":
            if self.tau is None or not 0 < self.tau < math.inf:
                raise ValueError(f"gaussian kernels need a finite tau > 0, got {self.tau}")
        elif self.kind == "cascade":
            if self.ladder is None or self.ladder.K < 1:
                raise ValueError("cascade kernels need a ladder with K >= 1")
        else:
            raise ValueError(f"unknown kernel kind {self.kind!r}")

    @staticmethod
    def gaussian(tau: float) -> "TemporalKernelSpec":
        return TemporalKernelSpec(kind="gaussian", tau=tau)

    @staticmethod
    def cascade(ladder: ScaleLadder) -> "TemporalKernelSpec":
        return TemporalKernelSpec(kind="cascade", ladder=ladder)

    @property
    def scale(self) -> float:
        """Total temporal variance of the kernel."""
        return self.tau if self.kind == "gaussian" else self.ladder.tau_max


@dataclass(frozen=True)
class SpectrogramFamily:
    """Temporal window family: "gauss", "rec-uni", or "rec-log".

    One family defines the spectrogram windows, their frequency selectivity
    and delays, and the matching second-layer temporal kernels. ``K`` is the
    cascade stage count and ``c`` the logarithmic ladder ratio.
    """

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

    def temporal(self, tau: float) -> TemporalKernelSpec:
        """The family's temporal kernel at variance tau (seconds^2)."""
        if self.kind == "gauss":
            return TemporalKernelSpec.gaussian(tau)
        return TemporalKernelSpec.cascade(self.ladder(tau))


@dataclass(eq=False)
class SampledKernel:
    """A kernel sampled on a uniform grid.

    ``values`` are density samples; the kernel's mass is sum(values) * dt,
    so discrete unit-spacing kernels (dt = 1) carry their weights directly.
    ``origin_index`` is the sample position of t = 0.
    """

    values: np.ndarray
    origin_index: int
    dt: float

    @property
    def times(self) -> np.ndarray:
        return (np.arange(len(self.values)) - self.origin_index) * self.dt

    @property
    def mass(self) -> float:
        return float(np.sum(self.values) * self.dt)

    @property
    def mean(self) -> float:
        w = self.values * self.dt
        return float(np.sum(self.times * w) / np.sum(w))

    @property
    def variance(self) -> float:
        w = self.values * self.dt
        m = self.mean
        return float(np.sum((self.times - m) ** 2 * w) / np.sum(w))


def gaussian_kernel_sample(tau: float, t, delta: float = 0.0):
    """Evaluate the time-shifted Gaussian (1/sqrt(2 pi tau)) exp(-(t-delta)^2 / 2 tau)."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    u = np.asarray(t, dtype=float) - delta
    out = np.exp(-u * u / (2.0 * tau)) / math.sqrt(2.0 * math.pi * tau)
    return out if out.ndim else float(out)

def gaussian_derivative_sample(tau: float, t, order: int, delta: float = 0.0):
    """Analytic derivatives of the Gaussian kernel, orders 0..4."""
    g = gaussian_kernel_sample(tau, t, delta)
    u = np.asarray(t, dtype=float) - delta
    if order == 0:
        factor = np.ones_like(u)
    elif order == 1:
        factor = -u / tau
    elif order == 2:
        factor = (u * u - tau) / (tau * tau)
    elif order == 3:
        factor = -(u ** 3 - 3.0 * u * tau) / tau ** 3
    elif order == 4:
        factor = (u ** 4 - 6.0 * u * u * tau + 3.0 * tau * tau) / tau ** 4
    else:
        raise ValueError(f"unsupported derivative order {order}")
    out = g * factor
    return out if out.ndim else float(out)


def composed_uniform_kernel_sample(mu: float, K: int, t):
    """Closed form for K cascaded equal-mu integrators.

    h(t) = t^{K-1} e^{-t/mu} / (mu^K Gamma(K)) for t > 0, and 0 otherwise.
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    log_h = (K - 1) * np.log(tp) - tp / mu - K * math.log(mu) - math.lgamma(K)
    out[pos] = np.exp(log_h)
    return out if out.ndim else float(out)


def composed_uniform_kernel_dt(mu: float, K: int, t):
    """First temporal derivative of the composed equal-mu kernel (t > 0)."""
    t = np.asarray(t, dtype=float)
    h = composed_uniform_kernel_sample(mu, K, t)
    out = np.zeros_like(np.asarray(t, dtype=float))
    pos = t > 0
    tp = t[pos]
    out[pos] = -np.asarray(h)[pos] * (tp - (K - 1) * mu) / (mu * tp)
    return out if out.ndim else float(out)


def composed_uniform_kernel_dtt(mu: float, K: int, t):
    """Second temporal derivative of the composed equal-mu kernel (t > 0)."""
    t = np.asarray(t, dtype=float)
    h = composed_uniform_kernel_sample(mu, K, t)
    out = np.zeros_like(np.asarray(t, dtype=float))
    pos = t > 0
    tp = t[pos]
    num = (K * K - 3 * K + 2) * mu * mu - 2.0 * (K - 1) * mu * tp + tp * tp
    out[pos] = np.asarray(h)[pos] * num / (mu * mu * tp * tp)
    return out if out.ndim else float(out)


def cascade_kernel_numeric(
    ladder: ScaleLadder, dt: float, horizon: float | None = None
) -> SampledKernel:
    """Impulse response of an unequal-mu cascade, sampled at spacing dt.

    The first stage is sampled from its analytic form (1/mu_1) e^{-t/mu_1};
    every further stage applies the exact exponential update for
    piecewise-linear input, which has unit DC gain and adds exactly mu to the
    kernel mean, so no step-size bias enters the delay measures. The sampled
    mass is renormalized to 1 after truncation at the horizon, which
    defaults to the ladder's support and may not be shorter.
    """
    if ladder.units != "seconds":
        raise ValueError("numeric cascade expects a continuous (seconds) ladder")
    mu_min = ladder.mu_min
    if dt > mu_min / 20.0:
        raise ValueError(
            f"dt={dt:g} too coarse for the fastest stage; need dt <= mu_min/20 = {mu_min / 20.0:g}"
        )
    required = ladder.support
    horizon = required if horizon is None else horizon
    if horizon < required:
        raise ValueError(
            f"horizon {horizon:g} s gives insufficient support; need >= {required:g} s"
        )
    n = int(math.floor(horizon / dt)) + 1
    t = np.arange(n) * dt
    mu1 = ladder.mus[0]
    h = np.exp(-t / mu1) / mu1
    for mu in ladder.mus[1:]:
        p = math.exp(-dt / mu)
        a_gain = 1.0 - p
        w1 = 1.0 - (mu / dt) * a_gain
        w0 = (mu / dt) * a_gain - p
        h = lfilter([w1, w0], [1.0, -p], h)
    mass = float(h.sum() * dt)
    if mass < 1.0 - 1e-8:
        raise ValueError(f"horizon {horizon:g} s captured only {mass:.10f} of the kernel mass")
    return SampledKernel(values=h / mass, origin_index=0, dt=dt)


def cascade_sections(ladder: ScaleLadder, omega: float = 0.0) -> np.ndarray:
    """The K first-order sections of a sample-unit ladder, in ``sosfilt`` form.

    Stage k is y[n] = (mu y[n-1] + x[n]) / (1 + mu), the section
    [1/(1+mu), 0, 0, 1, -mu/(1+mu), 0]. A nonzero ``omega`` (rad/sample)
    turns each pole into mu e^{i omega}/(1+mu): the cascade of a real x[n]
    is then e^{i omega n} times the cascade of x[n] e^{-i omega n}, so a
    modulated signal is smoothed without forming the modulation. This is
    the only place the stage coefficients are written.
    """
    if ladder.units != "samples":
        raise ValueError("recursive smoothing expects a ladder in sample units")
    mus = np.asarray(ladder.mus, dtype=float)
    pole = mus / (1.0 + mus)
    if omega:
        pole = pole * np.exp(1j * omega)
    sos = np.zeros((ladder.K, 6), dtype=pole.dtype)
    sos[:, 0] = 1.0 / (1.0 + mus)
    sos[:, 3] = 1.0
    sos[:, 4] = -pole
    return sos


def _steady_zi(section: np.ndarray, start: np.ndarray, axis: int) -> np.ndarray:
    """``sosfilt`` state of one section resting in steady state at ``start``.

    ``start`` has the input's shape with length 1 along ``axis``; a state
    y[-1] = start makes the section's delay hold start mu/(1+mu).
    """
    state = start * -section[4]
    return np.concatenate([state, np.zeros_like(state)], axis=axis)[None]


def recursive_stage(
    x: np.ndarray, mu: float, axis: int = -1, init: np.ndarray | float | None = None
) -> np.ndarray:
    """One first-order recursive smoothing stage, time constant mu in samples.

    Implements y[n] = y[n-1] + (x[n] - y[n-1]) / (1 + mu). The virtual state
    y[-1] is zero by default (signals that start at rest); pass ``init`` to
    start the stage in steady state at that value, e.g. the first sample of
    a map whose baseline is far from zero. Cascades run all their stages at
    once through ``discrete_recursive_smooth``.
    """
    tau = mu * mu + mu
    stage = ScaleLadder(Distribution.UNIFORM, tau, 1, None, (tau,), (mu,), units="samples")
    sos = cascade_sections(stage)
    if init is None:
        return sosfilt(sos, x, axis=axis)
    x = np.asarray(x)
    start = np.broadcast_to(np.asarray(init), np.take(x, [0], axis=axis).shape).astype(x.dtype)
    return sosfilt(sos, x, axis=axis, zi=_steady_zi(sos[0], start, axis))[0]


def discrete_recursive_smooth(
    signal, ladder: ScaleLadder, axis: int = -1, steady: bool = False
) -> np.ndarray:
    """Run a sample-unit ladder along one axis; returns the output at tau_max.

    The K stages run as one ``sosfilt`` over ``cascade_sections(ladder)``.
    Complex input stays complex. Every stage starts at rest unless
    ``steady`` is set; then each stage starts in steady state at its own
    input's first sample along ``axis`` (the previous stage's first output,
    taken by a one-sample pass), so a constant signal comes back unchanged
    up to rounding and the result equals running the stages one by one.
    """
    sos = cascade_sections(ladder)
    x = np.asarray(signal)
    if not steady:
        return sosfilt(sos, x, axis=axis)
    start = np.take(x, [0], axis=axis)
    zi = []
    for k in range(ladder.K):
        zi.append(_steady_zi(sos[k], start, axis))
        start = sosfilt(sos[k : k + 1], start, axis=axis, zi=zi[-1])[0]
    return sosfilt(sos, x, axis=axis, zi=np.concatenate(zi))[0]


def temporal_profiles(
    temporal: TemporalKernelSpec, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A temporal kernel and its first two derivatives, sampled at times t.

    Gaussians and equal-stage cascades use their closed forms; logarithmic
    cascades interpolate the numeric impulse response and differentiate it
    numerically. ``t`` is a uniform grid in seconds.
    """
    if temporal.kind == "gaussian":
        return tuple(gaussian_derivative_sample(temporal.tau, t, k) for k in range(3))
    ladder = temporal.ladder
    if ladder.distribution is Distribution.UNIFORM:
        mu = ladder.mus[0]
        return (
            composed_uniform_kernel_sample(mu, ladder.K, t),
            composed_uniform_kernel_dt(mu, ladder.K, t),
            composed_uniform_kernel_dtt(mu, ladder.K, t),
        )
    dt = min(float(t[1] - t[0]), ladder.mu_min / 20.0)
    kernel = cascade_kernel_numeric(ladder, dt, max(float(t[-1]) + 2.0 * dt, ladder.support))
    h = np.interp(t, kernel.times, kernel.values, left=0.0, right=0.0)
    h1 = np.gradient(h, t)
    h2 = np.gradient(h1, t)
    return h, h1, h2


def discrete_gaussian_kernel(s_sampl: float, epsilon: float = 1e-6) -> SampledKernel:
    """Discrete analogue of the Gaussian: T(n; s) = e^{-s} I_n(s).

    The infinite kernel is truncated at the smallest half-width N whose taps
    carry more than 1 - epsilon of the mass, then renormalized to sum to
    exactly 1. Taps are computed with the exponentially scaled modified
    Bessel function, which is stable for large s. The kernel's standard
    deviation is sqrt(s), so the search starts at 6 sqrt(s) + 10 taps and
    doubles only when a small epsilon needs more; the taps and N do not
    depend on where it starts. An epsilon below the rounding error of the
    tap sum is refused with ValueError once the taps underflow to 0, and so
    is a scale at which ive has no finite value (s from about 2^30, e.g. a
    channel below 10.8 Hz at 44.1 kHz with 8-period windows).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0 <= s_sampl < math.inf:
        raise ValueError(f"scale must be non-negative and finite, got {s_sampl}")
    if s_sampl == 0:
        return SampledKernel(values=np.array([1.0]), origin_index=0, dt=1.0)
    n_guess = max(4, int(math.ceil(6.0 * math.sqrt(s_sampl) + 10.0)))
    while True:
        taps = ive(np.arange(n_guess + 1), s_sampl)
        if not np.isfinite(taps[0]):
            # ive is NaN from s of about 2^30 on; the search would double forever.
            raise ValueError(f"discrete Gaussian at s={s_sampl:g} is beyond the range of ive")
        total = taps[0] + 2.0 * np.cumsum(taps[1:])
        hit = np.nonzero(total > 1.0 - epsilon)[0]
        if hit.size:
            break
        if taps[-1] == 0.0:
            # Taps fall with n, so every later tap is 0 too and the sum is final.
            raise ValueError(
                f"discrete Gaussian at s={s_sampl:g} never carries 1 - epsilon of its mass "
                f"for epsilon={epsilon:g}: the tap sum's rounding error is larger"
            )
        n_guess *= 2
    n_half = int(hit[0]) + 1
    half = taps[: n_half + 1]
    values = np.concatenate([half[:0:-1], half])
    values = values / values.sum()
    return SampledKernel(values=values, origin_index=n_half, dt=1.0)


def discrete_gaussian_smooth(
    x: np.ndarray, s_sampl: float, axis: int = -1, epsilon: float = 1e-6
) -> np.ndarray:
    """Convolve along one axis with the discrete Gaussian, mirrored boundaries."""
    if s_sampl == 0:
        return np.asarray(x, dtype=float).copy()
    kernel = discrete_gaussian_kernel(s_sampl, epsilon)
    return correlate1d(np.asarray(x, dtype=float), kernel.values, axis=axis, mode="reflect")
