"""Second-layer spectro-temporal receptive fields over the dB spectrogram.

A receptive field here is a separable smoothing (``smooth``: causal cascade
or Gaussian over frame time, Gaussian over log-frequency) followed by
small-stencil derivatives of order up to two along each axis
(``differentiate``: backward differences in time, so a causal field reads
no later frame), optionally scale-normalized by tau_a^{alpha/2}
s^{beta/2}. Fields at one scale share one smoothing: a map is smoothed
once per scale and differentiated as often as needed, and stacked maps
(trailing axes) are smoothed together in one pass. Glissando adaptation
(a shear of the time-frequency plane at v semitones/second) is realized by
warping the spectrogram along the frequency axis, applying the separable
operator, and warping back, which is equivalent to convolving with the
sheared kernel.

The temporal kernels themselves are realised only in
``temporal_scale_space``: causal smoothing runs
``discrete_recursive_smooth`` and kernel images sample
``temporal_profiles``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import correlate1d

from tonescale.spectrogram import TFMap
from tonescale.temporal_scale_space import (
    TemporalKernelSpec,
    discrete_gaussian_kernel,
    discrete_gaussian_smooth,
    discrete_recursive_smooth,
    discretize_ladder,
    gaussian_derivative_sample,
    temporal_profiles,
    warmup_length,
)


@dataclass(frozen=True)
class RFSpec:
    """Spectro-temporal receptive field parameters.

    ``temporal`` carries the temporal smoothing family with scale tau_a in
    seconds^2; ``s`` is the spectral variance in semitones^2; ``v`` the
    glissando slope in semitones/second; ``alpha``/``beta`` the temporal and
    spectral derivative orders (0..2). When ``normalized`` is set, responses
    are multiplied by tau_a^{alpha/2} s^{beta/2}.
    """

    temporal: TemporalKernelSpec
    s: float
    v: float = 0.0
    alpha: int = 0
    beta: int = 0
    normalized: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.s < math.inf:
            raise ValueError(f"spectral scale s must be non-negative and finite, got {self.s}")
        if not math.isfinite(self.v):
            raise ValueError(f"glissando slope v must be finite, got {self.v}")
        if not (0 <= self.alpha <= 2) or not (0 <= self.beta <= 2):
            raise ValueError("derivative orders alpha and beta must lie in 0..2")
        if self.temporal.kind == "cascade" and self.alpha >= self.temporal.ladder.K:
            raise ValueError(
                f"temporal derivative order {self.alpha} needs more than "
                f"{self.alpha} cascade stages (K={self.temporal.ladder.K})"
            )

    @property
    def tau_a(self) -> float:
        return self.temporal.scale


def _mirror_indices(idx: np.ndarray, n: int) -> np.ndarray:
    """Fold indices into [0, n) with edge-repeated mirror symmetry."""
    if n == 1:
        return np.zeros_like(idx)
    m = np.mod(idx, 2 * n)
    return np.where(m < n, m, 2 * n - 1 - m)


def _warp_values(
    values: np.ndarray, frame_times: np.ndarray, v: float, delta_nu: float
) -> np.ndarray:
    """Shift each frame along the frequency axis by v * (t - t_mid), Catmull-Rom.

    Anchoring the shear at the middle frame instead of t = 0 changes the
    warped frame only by a constant frequency relabeling (which the inverse
    warp cancels exactly) but halves the worst-case drift, so long or fast
    glissandi stay on the grid instead of folding at the boundaries.
    """
    n_frames, n_ch = values.shape
    pivot = frame_times[n_frames // 2]
    shift = v * (frame_times - pivot) / delta_nu
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
    )  # (n_frames, 4) taps at offsets -1, 0, 1, 2
    rows = np.arange(n_frames)[:, None]
    cols = np.arange(n_ch)[None, :] + base[:, None]
    out = np.zeros_like(values)
    for tap, offset in enumerate((-1, 0, 1, 2)):
        idx = _mirror_indices(cols + offset, n_ch)
        out += w[:, tap : tap + 1] * values[rows, idx]
    return out


def glissando_warp(S: TFMap, v: float) -> TFMap:
    """Warp nu' = nu - v (t - t_mid): a ridge gliding at v becomes constant-nu.

    The co-moving frame is anchored at the middle frame. Out-of-range reads
    mirror the data at the frequency boundaries; v = 0 is an exact identity.
    The inverse warp is glissando_warp(S, -v) over the same frames.
    """
    values = _warp_values(S.values, S.frame_times, v, S.grid.delta_nu)
    warp_v = S.metadata.get("warp_v", 0.0) + v
    return replace(S, values=values, metadata={**S.metadata, "warp_v": warp_v})


def smooth(S: TFMap, temporal: TemporalKernelSpec, s: float) -> tuple[np.ndarray, int]:
    """Separable scale-space smoothing of ``S.values``; returns (smoothed, warm-up).

    ``temporal`` runs along the frame axis, the discrete Gaussian of
    variance ``s`` semitones^2 along the channel axis. Trailing axes are
    independent lanes, so stacked maps are smoothed in one pass exactly as
    each would be alone. The warm-up counts the frames the temporal kernel
    adds.
    """
    if S.kind == "complex":
        raise ValueError("layer 2 needs a real-valued map; convert the spectrogram with to_db")
    if not 0 <= s < math.inf:
        raise ValueError(f"spectral scale s must be non-negative and finite, got {s}")
    frame_rate = S.frame_rate
    if temporal.kind == "cascade":
        ladder = discretize_ladder(temporal.ladder, frame_rate)
        # Steady-state start at the first frame: a constant map stays
        # constant up to rounding, so rectified derivatives of a flat
        # baseline carry no settling transient.
        values = discrete_recursive_smooth(S.values, ladder, axis=0, steady=True)
        warm = warmup_length(ladder)
    else:
        kernel = discrete_gaussian_kernel(temporal.tau * frame_rate * frame_rate)
        values = correlate1d(S.values, kernel.values, axis=0, mode="reflect")
        warm = kernel.origin_index
    if s > 0:
        values = discrete_gaussian_smooth(values, s / S.grid.delta_nu ** 2, axis=1)
    return values, warm


def _derivative_t(values: np.ndarray, order: int, dt: float) -> np.ndarray:
    if order == 0:
        return values
    # Backward differences keep the feature path causal: frame n reads only
    # frames n - order .. n, and the first ``order`` rows (counted as warm-up
    # by apply_rf) are zero.
    out = np.zeros_like(values)
    if order == 1:
        out[1:] = (values[1:] - values[:-1]) / dt
        return out
    if order == 2:
        out[2:] = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (dt * dt)
        return out
    raise ValueError(f"unsupported temporal derivative order {order}")


def _derivative_nu(values: np.ndarray, order: int, dnu: float) -> np.ndarray:
    if order == 0:
        return values
    if order == 1:
        return correlate1d(values, [-0.5, 0.0, 0.5], axis=1, mode="reflect") / dnu
    if order == 2:
        return correlate1d(values, [1.0, -2.0, 1.0], axis=1, mode="reflect") / (dnu * dnu)
    raise ValueError(f"unsupported spectral derivative order {order}")


def differentiate(S: TFMap, smoothed: np.ndarray, spec: RFSpec) -> np.ndarray:
    """d_t^alpha d_nu^beta of values smoothed on the axes of ``S``.

    Scale-normalized by tau_a^{alpha/2} s^{beta/2} when ``spec.normalized``;
    the first ``alpha`` frames are zero (see ``_derivative_t``).
    """
    values = _derivative_t(smoothed, spec.alpha, 1.0 / S.frame_rate)
    values = _derivative_nu(values, spec.beta, S.grid.delta_nu)
    if spec.normalized:
        values = values * (spec.tau_a ** (spec.alpha / 2.0) * spec.s ** (spec.beta / 2.0))
    return values


def apply_rf(S: TFMap, spec: RFSpec) -> TFMap:
    """Apply a spectro-temporal receptive field to a real-valued map.

    The response is an "rf" map on the input's axes whose metadata holds
    the RFSpec ("rf_spec") and the warm-up the second layer added. Nonzero
    glissando slopes are handled by warping to the co-moving frame,
    applying the separable operator there, and warping back. The operator
    is ``differentiate`` of ``smooth``. Complex spectrograms are refused:
    take their dB map first.
    """
    if spec.v != 0.0:
        inner = apply_rf(glissando_warp(S, spec.v), replace(spec, v=0.0))
        values = _warp_values(inner.values, S.frame_times, -spec.v, S.grid.delta_nu)
        return replace(inner, values=values, metadata={**inner.metadata, "rf_spec": spec})
    values, layer2_warm = smooth(S, spec.temporal, spec.s)
    warmup = S.warmup_frames + layer2_warm + spec.alpha
    return replace(
        S,
        values=differentiate(S, values, spec),
        warmup_frames=warmup,
        kind="rf",
        metadata={"rf_spec": spec, "layer2_warmup_frames": layer2_warm},
    )


@dataclass
class KernelImage:
    """A spectro-temporal kernel sampled on a (time, frequency) grid."""

    t: np.ndarray
    nu: np.ndarray
    values: np.ndarray  # (len(t), len(nu))


def rf_kernel_image(
    spec: RFSpec,
    t_span: float,
    nu_span: float,
    dt: float,
    dnu: float,
) -> KernelImage:
    """Sample the receptive-field kernel d_t^alpha d_nu^beta [g(nu - v t; s) T(t)].

    The temporal factor and its derivatives come from ``temporal_profiles``.
    Spans are in seconds and semitones.
    """
    if t_span <= 0 or nu_span <= 0 or dt <= 0 or dnu <= 0:
        raise ValueError("spans and spacings must be positive")
    if spec.s <= 0:
        raise ValueError("kernel rendering needs a positive spectral scale s")
    if spec.temporal.kind == "gaussian":
        t = np.arange(-t_span, t_span + dt / 2.0, dt)
    else:
        t = np.arange(0.0, t_span + dt / 2.0, dt)
    nu = np.arange(-nu_span, nu_span + dnu / 2.0, dnu)
    t0, t1, t2 = temporal_profiles(spec.temporal, t)
    u = nu[None, :] - spec.v * t[:, None]
    g = {
        k: gaussian_derivative_sample(spec.s, u, k)
        for k in range(spec.beta, spec.beta + spec.alpha + 1)
    }
    b = spec.beta
    v = spec.v
    if spec.alpha == 0:
        values = g[b] * t0[:, None]
    elif spec.alpha == 1:
        values = -v * g[b + 1] * t0[:, None] + g[b] * t1[:, None]
    else:
        values = (
            v * v * g[b + 2] * t0[:, None]
            - 2.0 * v * g[b + 1] * t1[:, None]
            + g[b] * t2[:, None]
        )
    if spec.normalized:
        values = values * (spec.tau_a ** (spec.alpha / 2.0) * spec.s ** (spec.beta / 2.0))
    return KernelImage(t=t, nu=nu, values=values)
