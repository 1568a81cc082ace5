"""Auditory features from second-layer receptive-field responses.

Onset and offset maps are the rectified halves of the normalized first
temporal derivative; spectral bands (partials at fine scales, formants at
coarse scales) come from the rectified negated second spectral derivative;
partial-tone curves are sub-bin ridge lines of that band response linked
over frames; glissando slopes are estimated either by the maximum over a
bank of shear-adapted filters or from the smoothed second-moment matrix of
the spectro-temporal gradient. The second-moment fit smooths once per
scale: the gradient comes from one smoothed map, and its three products
are integrated together as one stacked array. Ridge points are found for
the whole band map at once and then linked frame by frame. An explicit
``temporal`` kernel must sit at the scale passed with it (tau_a, tau_i).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace

import numpy as np

from tonescale.receptive_fields import (
    RFSpec,
    _smooth_channels,
    _smooth_frames,
    apply_rf,
    differentiate,
    smooth,
)
from tonescale.spectrogram import FrequencyGrid, TFMap
from tonescale.temporal_scale_space import SpectrogramFamily, TemporalKernelSpec


# The temporal family of a feature given no kernel: the four-stage uniform cascade.
TEMPORAL_FAMILY = SpectrogramFamily("rec-uni", K=4)


def _temporal_at(
    tau: float, temporal: TemporalKernelSpec | None, name: str = "tau_a"
) -> TemporalKernelSpec:
    """``temporal`` (by default ``TEMPORAL_FAMILY``) at scale tau; a kernel
    at another variance would silently override tau, so it is refused."""
    if temporal is None:
        return TEMPORAL_FAMILY.temporal(tau)
    if temporal.tau != tau:
        raise ValueError(f"temporal kernel has tau = {temporal.tau:g} but {name} = {tau:g}")
    return temporal


def _warmup_mask(warmup_frames, n_frames: int) -> np.ndarray:
    """True at the (frame, channel) cells inside each channel's warm-up."""
    return np.arange(n_frames)[:, None] < np.asarray(warmup_frames, dtype=int)[None, :]


def _rectify(resp: TFMap, signed: np.ndarray, kind: str) -> TFMap:
    """Positive part of ``signed`` on the axes of ``resp``, zero in warm-up."""
    values = np.maximum(signed, 0.0)
    values[_warmup_mask(resp.warmup_frames, resp.n_frames)] = 0.0
    return replace(resp, values=values, kind=kind)


def temporal_derivative_response(
    S: TFMap, tau_a: float, s: float, temporal: TemporalKernelSpec | None = None
) -> TFMap:
    """Scale-normalized first temporal derivative sqrt(tau_a) d_t of the
    smoothed dB map; the shared core of onset and offset detection."""
    spec = RFSpec(temporal=_temporal_at(tau_a, temporal), s=s, alpha=1, beta=0, normalized=True)
    return apply_rf(S, spec)


def detect_onsets(
    S: TFMap, tau_a: float, s: float, temporal: TemporalKernelSpec | None = None
) -> TFMap:
    """Rectified positive part of the normalized first temporal derivative."""
    resp = temporal_derivative_response(S, tau_a, s, temporal)
    return _rectify(resp, resp.values, "onset")


def detect_offsets(
    S: TFMap, tau_a: float, s: float, temporal: TemporalKernelSpec | None = None
) -> TFMap:
    """Rectified negative part of the normalized first temporal derivative."""
    resp = temporal_derivative_response(S, tau_a, s, temporal)
    return _rectify(resp, -resp.values, "offset")


def band_response(
    S: TFMap,
    tau_a: float,
    s: float,
    temporal: TemporalKernelSpec | None = None,
    v: float = 0.0,
) -> TFMap:
    """Unrectified band strength -D_nunu = -s d_nunu of the smoothed dB map."""
    temporal = _temporal_at(tau_a, temporal)
    spec = RFSpec(temporal=temporal, s=s, v=v, alpha=0, beta=2, normalized=True)
    resp = apply_rf(S, spec)
    resp.values = -resp.values
    return resp


def enhance_bands(
    S: TFMap,
    tau_a: float,
    s: float,
    temporal: TemporalKernelSpec | None = None,
) -> TFMap:
    """Rectified -D_nunu: fine s sharpens partial tones, coarse s formants."""
    resp = band_response(S, tau_a, s, temporal)
    return _rectify(resp, resp.values, "band")


@dataclass
class PartialCurve:
    """A linked sub-bin ridge line of the band response."""

    frames: np.ndarray  # frame indices, consecutive
    nus: np.ndarray  # sub-bin frequencies, semitones
    strengths: np.ndarray  # band response at the ridge

    @property
    def mean_nu(self) -> float:
        return float(np.mean(self.nus))


def _ridge_points(
    values: np.ndarray, nu0: float, dnu: float, c_min: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sub-bin maxima of the band response: (frames, nus, strengths).

    Zero crossings of the central-difference derivative are located by
    linear interpolation where the second difference is negative and the
    interpolated response clears the threshold. Crossings touching the grid
    border are discarded, and rows of fewer than 5 channels have none. The
    whole map is scanned at once; the points come in ascending frame, and
    within a frame in ascending frequency.
    """
    n_frames, n = values.shape
    if n < 5:
        return np.zeros(0, dtype=int), np.zeros(0), np.zeros(0)
    d = np.zeros(values.shape)
    d[:, 1:-1] = (values[:, 2:] - values[:, :-2]) / (2.0 * dnu)
    dd = np.full(values.shape, 1.0)
    dd[:, 1:-1] = (values[:, 2:] - 2.0 * values[:, 1:-1] + values[:, :-2]) / (dnu * dnu)
    # A crossing lies between channels i and i + 1, for i in 1 .. n - 3.
    left, right = d[:, 1:-2], d[:, 2:-1]
    crossing = (left > 0.0) & (0.0 >= right)
    crossing &= ~((dd[:, 1:-2] >= 0.0) & (dd[:, 2:-1] >= 0.0))
    frames, i = np.nonzero(crossing)
    i += 1
    frac = d[frames, i] / (d[frames, i] - d[frames, i + 1])
    below = values[frames, i]
    strength = below + frac * (values[frames, i + 1] - below)
    kept = ~(strength < c_min)
    return frames[kept], nu0 + (i[kept] + frac[kept]) * dnu, strength[kept]


def _link_ridges(
    frames: np.ndarray,
    nus: np.ndarray,
    strengths: np.ndarray,
    n_frames: int,
    warm: np.ndarray,
    nu0: float,
    dnu: float,
    max_jump: float,
) -> list[PartialCurve]:
    """``extract_partial_curves`` on the ridge points of ``_ridge_points``.

    A point at channel i = int((nu - nu0) / dnu) is detected from channels
    i - 1 .. i + 2, so it is kept from the frame on which all of them have
    passed their warm-up. Each active curve, in the order the curves were
    opened or last extended, takes the nearest untaken point of the frame
    within ``max_jump`` of its last frequency, the last such point on a
    tie. Its candidates are found by bisection: |nu - last| rounds
    monotonically on either side of ``last``, so they are one run of the
    ascending point list.
    """
    n_ch = warm.size
    stencil = np.lib.stride_tricks.sliding_window_view(np.pad(warm, (1, 3), mode="edge"), 4)
    stencil = stencil.max(axis=1)  # the latest warm-up of channels i - 1 .. i + 2
    channel = ((nus - nu0) / dnu).astype(int)
    gate = frames >= stencil[np.clip(channel, 0, n_ch)]
    frames, nus, strengths = frames[gate], nus[gate].tolist(), strengths[gate].tolist()
    bounds = np.searchsorted(frames, np.arange(n_frames + 1)).tolist()
    active: list[dict] = []
    finished: list[dict] = []
    for j in range(n_frames):
        first, end = bounds[j], bounds[j + 1]
        points = nus[first:end]
        taken = [False] * len(points)
        survivors = []
        for curve in active:
            last = curve["nus"][-1]
            lo = bisect_left(points, last - max_jump)
            while lo > 0 and abs(points[lo - 1] - last) <= max_jump:
                lo -= 1
            hi = bisect_right(points, last + max_jump, lo)
            while hi < len(points) and abs(points[hi] - last) <= max_jump:
                hi += 1
            best = -1
            best_dist = max_jump
            for idx in range(lo, hi):
                dist = abs(points[idx] - last)
                if not taken[idx] and dist <= best_dist:
                    best = idx
                    best_dist = dist
            if best >= 0:
                taken[best] = True
                curve["frames"].append(j)
                curve["nus"].append(points[best])
                curve["strengths"].append(strengths[first + best])
                survivors.append(curve)
            else:
                finished.append(curve)
        for idx, nu in enumerate(points):
            if not taken[idx]:
                strength = strengths[first + idx]
                survivors.append({"frames": [j], "nus": [nu], "strengths": [strength]})
        active = survivors
    finished.extend(active)
    finished.sort(key=lambda cu: (cu["frames"][0], cu["nus"][0]))
    return [
        PartialCurve(
            frames=np.array(cu["frames"], dtype=int),
            nus=np.array(cu["nus"]),
            strengths=np.array(cu["strengths"]),
        )
        for cu in finished
    ]


def extract_partial_curves(
    band: TFMap,
    c_min: float = 3.0,
    max_jump: float = 1.0,
) -> list[PartialCurve]:
    """Link per-frame sub-bin ridge points into partial-tone curves.

    Points are matched greedily to the nearest active curve within
    ``max_jump`` semitones per frame; unmatched points open new curves and
    curves that miss a frame are closed. A point is admitted only once every
    channel in its detection stencil has passed its own warm-up, so slow
    low-frequency channels do not gate the rest of the grid. ``c_min`` must
    be finite and ``max_jump`` positive and finite.
    """
    if not np.isfinite(c_min):
        raise ValueError(f"c_min must be finite, got {c_min}")
    if not 0 < max_jump < np.inf:
        raise ValueError(f"max_jump must be positive and finite, got {max_jump}")
    values = band.values
    nu0 = float(band.grid.nu[0])
    dnu = band.grid.delta_nu
    n_frames, n_ch = values.shape
    warm = (
        np.asarray(band.warmup_frames, dtype=int)
        if len(band.warmup_frames)
        else np.zeros(n_ch, dtype=int)
    )
    points = _ridge_points(values, nu0, dnu, c_min)
    return _link_ridges(*points, n_frames, warm, nu0, dnu, max_jump)


@dataclass
class GlissandoBankEstimate:
    """Per-cell best shear slope over a filter bank."""

    vhat: np.ndarray  # (n_frames, n_channels) semitones/second
    response: np.ndarray  # band response at the selected slope
    bank: tuple[float, ...]
    frame_times: np.ndarray
    grid: FrequencyGrid
    warmup_frames: np.ndarray


def glissando_filterbank(
    S: TFMap,
    v_bank,
    tau_a: float,
    s: float,
    temporal: TemporalKernelSpec | None = None,
) -> GlissandoBankEstimate:
    """Per cell, the bank slope whose adapted band response is largest.

    Ties break toward the smallest |v| (then toward negative v) by visiting
    the bank in that order and replacing only on strict improvement.
    """
    bank = list(v_bank)
    if not bank:
        raise ValueError("glissando bank must not be empty")
    # a repeated slope gives an equal response, which never replaces
    order = sorted(dict.fromkeys(bank), key=lambda v: (abs(v), v))
    first = band_response(S, tau_a, s, temporal, v=order[0])
    best = first.values
    vhat = np.full(best.shape, order[0], dtype=float)
    for v in order[1:]:
        resp = band_response(S, tau_a, s, temporal, v=v).values
        better = resp > best
        best[better] = resp[better]
        vhat[better] = v
        del resp, better  # freed before the next member's response
    return GlissandoBankEstimate(
        vhat=vhat,
        response=best,
        bank=tuple(bank),
        frame_times=first.frame_times,
        grid=first.grid,
        warmup_frames=first.warmup_frames,
    )


@dataclass
class SecondMomentField:
    """Smoothed outer products of the spectro-temporal gradient."""

    upsilon_tt: np.ndarray
    upsilon_tnu: np.ndarray
    upsilon_nunu: np.ndarray
    vhat: np.ndarray  # -Y_tnu / Y_nunu where defined, else 0
    defined: np.ndarray  # bool mask of cells above the stability floor
    frame_times: np.ndarray
    grid: FrequencyGrid
    warmup_frames: np.ndarray


def second_moment_glissando(
    S: TFMap,
    tau_a: float,
    s: float,
    tau_i: float,
    s_i: float,
    temporal: TemporalKernelSpec | None = None,
    integration_temporal: TemporalKernelSpec | None = None,
) -> SecondMomentField:
    """Glissando slope from the smoothed second-moment matrix.

    Unnormalized derivatives keep physical units, so
    vhat = -Y_tnu / Y_nunu is a slope in semitones/second. Cells whose
    Y_nunu falls below 1e-6 times the field median are marked undefined.
    """
    if not (tau_i >= tau_a and s_i >= s):
        raise ValueError("integration scales must be at least the derivative scales")
    temporal = _temporal_at(tau_a, temporal)
    integration_temporal = _temporal_at(tau_i, integration_temporal, "tau_i")
    smoothed, warm = smooth(S, temporal, s)
    lt = differentiate(S, smoothed, RFSpec(temporal=temporal, s=s, alpha=1, normalized=False))
    lnu = differentiate(S, smoothed, RFSpec(temporal=temporal, s=s, beta=1, normalized=False))
    products = np.empty(lt.shape + (3,))
    np.multiply(lt, lt, out=products[..., 0])
    np.multiply(lt, lnu, out=products[..., 1])
    np.multiply(lnu, lnu, out=products[..., 2])
    del smoothed, lt, lnu  # the integration needs only the products
    # smooth's two passes, with the products released between them
    integrated, warm_i = _smooth_frames(products, integration_temporal, S.frame_rate)
    del products
    integrated = _smooth_channels(integrated, s_i, S.grid.delta_nu)
    y_tt, y_tnu, y_nunu = np.moveaxis(integrated, -1, 0)
    # L_t's backward difference adds one frame to the derivative warm-up.
    warmup = np.maximum(S.warmup_frames + warm_i, S.warmup_frames + warm + 1)
    floor = 1e-6 * float(np.median(y_nunu))
    defined = y_nunu > max(floor, 0.0)
    vhat = np.zeros_like(y_nunu)
    np.divide(-y_tnu, y_nunu, out=vhat, where=defined)
    return SecondMomentField(
        upsilon_tt=y_tt,
        upsilon_tnu=y_tnu,
        upsilon_nunu=y_nunu,
        vhat=vhat,
        defined=defined,
        frame_times=S.frame_times,
        grid=S.grid,
        warmup_frames=warmup,
    )


def ridge_mask(values: np.ndarray, warmup_frames, c_min: float = 3.0) -> np.ndarray:
    """Cells whose band response clears a finite c_min, outside warm-up frames."""
    if not np.isfinite(c_min):
        raise ValueError(f"c_min must be finite, got {c_min}")
    return (values >= c_min) & ~_warmup_mask(warmup_frames, values.shape[0])
