"""Second-layer spectro-temporal receptive fields over the dB spectrogram.

Every field is a derivative of one scale-space map L = T(.; tau) *
g(.; s) * f, and one owner, ``ScaleSpace``, reads them all: a causal
cascade or Gaussian over frame time, once, then per field over
log-frequency the discrete Gaussian with the central difference of order
beta folded into its taps (a central difference commutes with it, so each
spectral derivative is one band product), then a backward difference of
order alpha in time, so a causal field reads no later frame. ``apply_rf``
reads one field, optionally scale-normalized by tau_a^{alpha/2}
s^{beta/2}; at alpha = beta = v = 0 it is L. A glissando-adapted field (a
shear of the time-frequency plane at v semitones/second) is the same pass
between two warps along frequency: ``glissando_warp`` to the co-moving
frame, the passes on its values, and the inverse warp, which is equivalent
to convolving with the sheared kernel. Stacked maps (trailing axes) go
through the passes together, as each would alone.

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
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from tonescale.spectrogram import TFMap
from tonescale.temporal_scale_space import (
    SampledKernel,
    TemporalKernelSpec,
    _integer,
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
    = ``temporal.tau`` (seconds^2): the Gaussian of the gauss family or a
    cascade family's ladder at tau_a. ``s`` is the spectral variance in
    semitones^2; ``v`` the glissando slope in semitones/second;
    ``alpha``/``beta`` the temporal and spectral derivative orders, whole
    numbers 0..2, ``alpha`` below a cascade's K. ``normalized`` multiplies
    responses by ``normalization``.
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
        if not all(_integer(k) and 0 <= k <= 2 for k in orders):
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
    def normalization(self) -> float:
        """The scale-normalisation factor tau_a^{alpha/2} s^{beta/2}."""
        return self.temporal.tau ** (self.alpha / 2.0) * self.s ** (self.beta / 2.0)


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
    n_frames, n_ch = values.shape
    offsets = frame_times - frame_times[n_frames // 2]
    # In Python floats, so that a slope that is not finite gives a NaN or
    # infinite reach (inf * 0 at the pivot) without a numpy warning.
    reach = abs(float(v)) * float(np.abs(offsets).max()) / delta_nu
    if not reach < 2.0 ** 53:
        raise ValueError(
            f"glissando slope v = {v} semitones/s shifts a frame by {reach:.3g} "
            "channels; the warp needs fewer than 2^53"
        )
    shift = v * offsets / delta_nu
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


def _layer2_values(S: TFMap) -> np.ndarray:
    """``S.values``, refused unless real with a frame: what every layer-2 operator reads."""
    if S.kind == "complex":
        raise ValueError("layer 2 needs a real-valued map; convert the spectrogram with to_db")
    if S.n_frames == 0:
        raise ValueError("layer 2 needs a map with at least one frame")
    return S.values


def glissando_warp(S: TFMap, v: float) -> TFMap:
    """Warp nu' = nu - v (t - t_mid): a ridge gliding at v becomes constant-nu.

    The co-moving frame is anchored at the middle frame. Out-of-range reads
    mirror the data at the frequency boundaries; v = 0 is an exact identity.
    The inverse warp is glissando_warp(S, -v) over the same frames.
    """
    values = _warp_values(_layer2_values(S), S.frame_times, v, S.grid.delta_nu)
    warp_v = S.metadata.get("warp_v", 0.0) + v
    return replace(S, values=values, metadata={**S.metadata, "warp_v": warp_v})


def _smooth_frames(
    values: np.ndarray, frame_rate: float, temporal: TemporalKernelSpec
) -> tuple[np.ndarray, int]:
    """The temporal pass at ``frame_rate``: (values smoothed along axis 0, warm-up)."""
    if temporal.family.causal:
        ladder = discretize_ladder(temporal.ladder, frame_rate)
        warm = warmup_length(ladder)  # a warm-up too long to count is refused before smoothing
        # Steady-state start at the first frame: a constant map stays
        # exactly constant, so rectified derivatives of a flat baseline
        # are exactly 0.
        return discrete_recursive_smooth(values, ladder, axis=0, steady=True), warm
    kernel = discrete_gaussian_kernel(temporal.tau * frame_rate * frame_rate)
    first = values[:1]
    smoothed = discrete_gaussian_smooth(values - first, kernel, axis=0)
    smoothed += first
    return smoothed, kernel.origin_index


class ScaleSpace:
    """The scale-space map L = T(.; tau) * g(.; s) * f of ``values``, read once.

    The constructor runs the temporal pass at ``frame_rate``, ``warmup``
    frames long, and builds the channel Gaussian of variance s semitones^2
    (channels ``delta_nu`` apart); ``fields`` runs the channel passes."""

    def __init__(self, values, frame_rate: float, delta_nu: float, temporal, s: float) -> None:
        self._frames, self.warmup = _smooth_frames(values, frame_rate, temporal)
        self._gaussian = discrete_gaussian_kernel(s / delta_nu**2)
        self._dt, self._delta_nu = 1.0 / frame_rate, delta_nu

    def fields(self, *orders: tuple[int, int]) -> list[np.ndarray]:
        """The unnormalized d_t^alpha d_nu^beta L of each (alpha, beta), orders 0..2.

        Each field is one channel pass. The central difference [-1/2, 0,
        1/2] or [1, -2, 1] commutes with the discrete Gaussian (Lindeberg
        1990, PAMI, "Scale-space for discrete signals"), so for beta >= 1 it
        is folded into the taps, centred one channel further out. Those taps
        sum to 0 only up to rounding, so each frame's first channel is taken
        off first: a frame flat along nu gives exactly 0. A backward
        difference of order alpha follows, so frame n reads only frames
        n - alpha .. n (the first alpha rows are 0). The last field takes
        over the temporal pass's array and the others copy it, so a field
        is the same wherever it is asked for. A second read raises ValueError.
        """
        if not all(_integer(k) and 0 <= k <= 2 for order in orders for k in order):
            raise ValueError(f"derivative orders must lie in 0..2 as whole numbers, got {orders}")
        frames, self._frames = self._frames, None
        dt = self._dt
        if frames is None:
            raise ValueError("a scale space is read once; its fields were already taken")
        out = []
        for k, (alpha, beta) in enumerate(orders):
            if k == len(orders) - 1:
                values, frames = frames, None
            else:
                values = frames.copy() if beta else frames
            taps = self._gaussian
            if beta:
                values -= values[:, :1]
                stencil = [-0.5, 0.0, 0.5] if beta == 1 else [1.0, -2.0, 1.0]
                stencil = np.array(stencil) / self._delta_nu**beta
                taps = SampledKernel(np.convolve(stencil, taps.values), taps.origin_index + 1)
            values = discrete_gaussian_smooth(values, taps, axis=1)
            if alpha:
                field = np.zeros_like(values)
                if alpha == 1:
                    field[1:] = (values[1:] - values[:-1]) / dt
                else:
                    field[2:] = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (dt * dt)
                values = field
            out.append(values)
        return out


def apply_rf(S: TFMap, spec: RFSpec) -> TFMap:
    """Apply a spectro-temporal receptive field to a real-valued map.

    The response is an "rf" map on the input's axes; its metadata extends
    the input's with the RFSpec ("rf_spec"), so a delay-compensated map
    stays marked as such, and its warm-up adds the frames the temporal
    kernel and d_t^alpha add. One pass over arrays: for v != 0 the warp to
    the co-moving frame (``glissando_warp``), the field of one
    ``ScaleSpace``, the normalization, and for v != 0 the inverse warp. A
    cascade runs as the block recursion of ``discrete_recursive_smooth``,
    within 1e-12 of the map's peak of the stage-by-stage recursion; a
    Gaussian window and the channel pass as ``discrete_gaussian_smooth``'s
    band products with mirrored boundaries, within 1e-14 of SciPy's
    correlate1d. A constant lane stays exactly constant. Complex maps are
    refused (take their dB map first), and so is a non-finite value by
    either temporal window: the cascade would carry it into earlier frames
    of its block and the band products into the other outputs of theirs.
    """
    dnu = S.grid.delta_nu
    values = glissando_warp(S, spec.v).values if spec.v != 0.0 else _layer2_values(S)
    space = ScaleSpace(values, S.frame_rate, dnu, spec.temporal, spec.s)
    (values,) = space.fields((spec.alpha, spec.beta))
    if spec.normalized:
        values *= spec.normalization
    if spec.v != 0.0:
        values = _warp_values(values, S.frame_times, -spec.v, dnu)
    return replace(
        S,
        values=values,
        warmup_frames=S.warmup_frames + space.warmup + spec.alpha,
        kind="rf",
        metadata={**S.metadata, "rf_spec": spec},
    )


@dataclass
class KernelImage:
    """A spectro-temporal kernel sampled on a (time, frequency) grid."""

    t: np.ndarray
    nu: np.ndarray
    values: np.ndarray  # (len(t), len(nu))


def rf_kernel_image(
    spec: RFSpec, t_span: float, nu_span: float, dt: float, dnu: float
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
