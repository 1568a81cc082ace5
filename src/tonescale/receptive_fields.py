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
``temporal_scale_space``: each smoothing pass builds its kernel once (a
discretised ladder for ``discrete_recursive_smooth``, a
``discrete_gaussian_kernel`` for ``discrete_gaussian_smooth``, along
frames as along channels) and reads its warm-up off it; kernel images
sample ``temporal_profiles``. The Gaussian temporal pass smooths each
lane's deviation from its first frame, so a constant lane stays exactly
constant and its derivatives are exactly 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from tonescale.spectrogram import TFMap
from tonescale.temporal_scale_space import (
    TemporalKernelSpec,
    _mirror_indices,
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

    ``temporal`` is the temporal kernel, a window family at variance tau_a
    (seconds^2): the Gaussian of the gauss family or a cascade family's
    ladder at tau_a. ``s`` is the spectral variance in semitones^2; ``v`` the
    glissando slope in semitones/second; ``alpha``/``beta`` the temporal and
    spectral derivative orders, whole numbers 0..2, ``alpha`` below a
    cascade's K. ``normalized`` multiplies responses by ``normalization``.
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
        orders = (self.alpha, self.beta)
        if not all(isinstance(k, numbers.Integral) and 0 <= k <= 2 for k in orders):
            raise ValueError(
                f"derivative orders alpha and beta must lie in 0..2 as whole numbers, got {orders}"
            )
        if self.normalized and self.beta >= 1 and self.s == 0:  # s^{beta/2} would zero it
            raise ValueError(f"a normalized spectral derivative needs s > 0, got s = {self.s}")
        if self.temporal.family.causal and self.alpha >= self.temporal.family.K:
            raise ValueError(
                f"temporal derivative order {self.alpha} needs more than "
                f"{self.alpha} cascade stages (K={self.temporal.family.K})"
            )

    @property
    def tau_a(self) -> float:
        return self.temporal.tau

    @property
    def normalization(self) -> float:
        """The scale-normalisation factor tau_a^{alpha/2} s^{beta/2}."""
        return self.tau_a ** (self.alpha / 2.0) * self.s ** (self.beta / 2.0)


def _warp_values(
    values: np.ndarray, frame_times: np.ndarray, v: float, delta_nu: float
) -> np.ndarray:
    """Shift each frame along the frequency axis by v * (t - t_mid), Catmull-Rom.

    Anchoring the shear at the middle frame instead of t = 0 changes the
    warped frame only by a constant frequency relabeling (which the inverse
    warp cancels exactly) but halves the worst-case drift, so long or fast
    glissandi stay on the grid instead of folding at the boundaries.

    The channel axis is mirror-padded once, and each tap reads one
    contiguous window of the padded row per frame. The mirror repeats every
    2 n_ch channels, so shifts are taken modulo that period and the padding
    never exceeds 3 n_ch + 2 columns, however far a frame is shifted.
    A slope that is not finite, or that shifts a frame by 2^53 channels or
    more (where no fraction of a channel is left), raises ValueError.
    """
    if not math.isfinite(v):
        raise ValueError(f"glissando slope v must be finite, got {v}")
    n_frames, n_ch = values.shape
    pivot = frame_times[n_frames // 2]
    shift = v * (frame_times - pivot) / delta_nu
    reach = np.abs(shift).max()
    if not reach < 2.0 ** 53:
        raise ValueError(
            f"glissando slope v = {v} semitones/s shifts a frame by {reach:.3g} "
            "channels; the warp needs fewer than 2^53"
        )
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
    first = int(base.min())
    start = np.mod(base - first, 2 * n_ch)  # window start of tap -1 in the padded row
    columns = np.arange(first - 1, first + int(start.max()) + n_ch + 2)
    padded = values[:, _mirror_indices(columns, n_ch)]
    windows = sliding_window_view(padded, n_ch, axis=1)
    rows = np.arange(n_frames)
    out = np.zeros_like(values)
    for tap in range(4):
        term = windows[rows, start + tap]
        term *= w[:, tap : tap + 1]
        out += term
    return out


def glissando_warp(S: TFMap, v: float) -> TFMap:
    """Warp nu' = nu - v (t - t_mid): a ridge gliding at v becomes constant-nu.

    The co-moving frame is anchored at the middle frame. Out-of-range reads
    mirror the data at the frequency boundaries; v = 0 is an exact identity.
    The inverse warp is glissando_warp(S, -v) over the same frames.
    """
    if S.n_frames == 0:
        raise ValueError("layer 2 needs a map with at least one frame")
    values = _warp_values(S.values, S.frame_times, v, S.grid.delta_nu)
    warp_v = S.metadata.get("warp_v", 0.0) + v
    return replace(S, values=values, metadata={**S.metadata, "warp_v": warp_v})


def _smooth_frames(
    values: np.ndarray, temporal: TemporalKernelSpec, frame_rate: float
) -> tuple[np.ndarray, int]:
    """The temporal pass of ``smooth``: (smoothed along axis 0, warm-up)."""
    if temporal.family.causal:
        ladder = discretize_ladder(temporal.ladder, frame_rate)
        # Steady-state start at the first frame: a constant map stays
        # exactly constant, so rectified derivatives of a flat baseline
        # are exactly 0.
        values = discrete_recursive_smooth(values, ladder, axis=0, steady=True)
        return values, warmup_length(ladder)
    kernel = discrete_gaussian_kernel(temporal.tau * frame_rate * frame_rate)
    first = values[:1]
    smoothed = discrete_gaussian_smooth(values - first, kernel, axis=0)
    smoothed += first
    return smoothed, kernel.origin_index


def _smooth_channels(values: np.ndarray, s: float, delta_nu: float) -> np.ndarray:
    """The spectral pass of ``smooth``: the discrete Gaussian along axis 1."""
    if s > 0:
        return discrete_gaussian_smooth(values, discrete_gaussian_kernel(s / delta_nu ** 2), axis=1)
    return values


def smooth(S: TFMap, temporal: TemporalKernelSpec, s: float) -> tuple[np.ndarray, int]:
    """Separable scale-space smoothing of ``S.values``; returns (smoothed, warm-up).

    ``temporal`` runs along the frame axis, the discrete Gaussian of
    variance ``s`` semitones^2 along the channel axis. Trailing axes are
    independent lanes, so stacked maps are smoothed in one pass exactly as
    each would be alone. The warm-up counts the frames the temporal kernel
    adds, read off the one kernel each pass builds.

    A cascade window runs as one block recursion over every lane in the
    map's own time-major layout, each 32-frame block one product with all
    the lanes of a chunk (see ``discrete_recursive_smooth``), within 1e-12
    of the map's largest magnitude of the stage-by-stage recursion. A Gaussian window and the
    channel pass are ``discrete_gaussian_smooth``'s band products with
    mirrored boundaries, within 1e-14 of the map's largest magnitude of
    SciPy's correlate1d; no part loads SciPy. Either way a constant lane
    stays exactly constant, and a Gaussian lane comes out bitwise the same
    whatever lanes are smoothed with it. A map with a non-finite value
    raises ValueError from either temporal window: the cascade would carry
    it into earlier frames of its block and the band products into the
    other outputs of theirs.
    """
    if S.kind == "complex":
        raise ValueError("layer 2 needs a real-valued map; convert the spectrogram with to_db")
    if S.n_frames == 0:
        raise ValueError("layer 2 needs a map with at least one frame")
    if not 0 <= s < math.inf:
        raise ValueError(f"spectral scale s must be non-negative and finite, got {s}")
    values, warm = _smooth_frames(S.values, temporal, S.frame_rate)
    return _smooth_channels(values, s, S.grid.delta_nu), warm


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


# Cells per pass of the spectral differences: each pass's rows stay in
# cache through its five elementwise steps.
_DIFFERENCE_CELLS = 1 << 15


def _derivative_nu(values: np.ndarray, order: int, dnu: float) -> np.ndarray:
    """Central differences along channels, the edge channel repeated.

    Bitwise ``scipy.ndimage.correlate1d`` with the stencil [-0.5, 0, 0.5]
    or [1, -2, 1] in its "reflect" mode: correlate1d sums a symmetric or
    antisymmetric stencil as mid * w0 + (left +/- right) * w, in that order.
    The rows are taken a few at a time, so every step reads cached data.

    A NaN result may differ from correlate1d's in its sign bit. IEEE 754
    leaves that sign unspecified, and numpy sets it by position: adding -NaN
    to +NaN keeps the first operand's sign in the vectorised body of a loop
    and the second's in its scalar tail, so no operand order matches
    correlate1d's scalar loop at every cell.
    """
    if order == 0:
        return values
    if order not in (1, 2):
        raise ValueError(f"unsupported spectral derivative order {order}")
    out = np.empty(values.shape)
    rows = max(1, _DIFFERENCE_CELLS // max(1, math.prod(values.shape[1:])))
    pair = np.empty((rows,) + values.shape[1:])
    for lo in range(0, values.shape[0], rows):
        mid = values[lo : lo + rows]
        side = pair[: mid.shape[0]]
        side[:, 1:] = mid[:, :-1]  # the left neighbours
        side[:, :1] = mid[:, :1]
        if order == 1:
            side[:, :-1] -= mid[:, 1:]  # minus the right neighbours
            side[:, -1:] -= mid[:, -1:]
            side *= -0.5
        else:
            side[:, :-1] += mid[:, 1:]
            side[:, -1:] += mid[:, -1:]
        np.multiply(mid, 0.0 if order == 1 else -2.0, out=out[lo : lo + rows])
        out[lo : lo + rows] += side
    out /= dnu if order == 1 else dnu * dnu
    return out


def differentiate(S: TFMap, smoothed: np.ndarray, spec: RFSpec) -> np.ndarray:
    """d_t^alpha d_nu^beta of values smoothed on the axes of ``S``.

    Scale-normalized by tau_a^{alpha/2} s^{beta/2} when ``spec.normalized``;
    the first ``alpha`` frames are zero (see ``_derivative_t``).
    """
    values = _derivative_t(smoothed, spec.alpha, 1.0 / S.frame_rate)
    values = _derivative_nu(values, spec.beta, S.grid.delta_nu)
    if spec.normalized:
        values = values * spec.normalization
    return values


def apply_rf(S: TFMap, spec: RFSpec) -> TFMap:
    """Apply a spectro-temporal receptive field to a real-valued map.

    The response is an "rf" map on the input's axes. Its metadata extends
    the input's with the RFSpec ("rf_spec") and the warm-up the second
    layer added, so a delay-compensated map stays marked as such. Nonzero
    glissando slopes are handled by warping to the co-moving frame,
    applying the separable operator there, and warping back. The operator
    is ``differentiate`` of ``smooth``. Complex spectrograms are refused:
    take their dB map first.
    """
    if spec.v != 0.0:
        inner = apply_rf(glissando_warp(S, spec.v), replace(spec, v=0.0))
        values = _warp_values(inner.values, S.frame_times, -spec.v, S.grid.delta_nu)
        warm = inner.metadata["layer2_warmup_frames"]
    else:
        smoothed, warm = smooth(S, spec.temporal, spec.s)
        values = differentiate(S, smoothed, spec)
    return replace(
        S,
        values=values,
        warmup_frames=S.warmup_frames + warm + spec.alpha,
        kind="rf",
        metadata={**S.metadata, "rf_spec": spec, "layer2_warmup_frames": warm},
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
    for name, value in (("t_span", t_span), ("nu_span", nu_span), ("dt", dt), ("dnu", dnu)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if spec.s <= 0:
        raise ValueError("kernel rendering needs a positive spectral scale s")
    start = 0.0 if spec.temporal.family.causal else -t_span
    t = np.arange(start, t_span + dt / 2.0, dt)
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
        values = values * spec.normalization
    return KernelImage(t=t, nu=nu, values=values)
