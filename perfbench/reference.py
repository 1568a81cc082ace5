"""Reference outputs from the frozen seed code, and the checks against them.

Every op's output is compared with what the seed implementation (``seedref``)
gives for the same input, at seeded cells past warm-up. Tolerances:

- layer-1 complex values: ``LAYER1_RTOL`` times the signal peak. Windows have
  unit mass, so the peak bounds every cell; 1e-9 admits the folded-pole
  cascade and, a fortiori, a Gauss rewrite held to 1e-12.
- dB cells: the same bound carried through 20 log10 |S|, so quiet cells get
  a proportionally wider band.
- layer-2 maps: ``FEATURE_RTOL`` times the map's largest magnitude.
- CSV, PGM and table text add their rounding: 1e-6, one grey level, 1e-3.

Discrete outputs (partial-curve counts and frames, bank slopes) must match
exactly; bank slopes are compared only where the seed's winning member leads
the runner-up, and the ridge threshold, by more than the layer-2 tolerance.
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np

from seedref import features as rfeat
from seedref import selectivity_analysis as rsel
from seedref import spectrogram as rspec
from seedref.temporal_scale_space import TemporalKernelSpec

# The Gauss kernel depends on the grid only; memoising the pure seed function
# keeps the reference cheap without changing one bit of its output.
rspec.discrete_gaussian_kernel = functools.lru_cache(maxsize=None)(rspec.discrete_gaussian_kernel)

LAYER1_RTOL = 1e-9
FEATURE_RTOL = 1e-5
CSV_ATOL = 1e-6
NU_ATOL = 1e-6
PGM_ATOL = 1
TABLE_ATOL = 1.001e-3
DB_PER_NEPER = 20.0 / math.log(10.0)


def midi(freq_hz: float) -> float:
    return rspec.midi_from_frequency(freq_hz)


def grid(spec) -> rspec.FrequencyGrid:
    return rspec.build_frequency_grid(*spec)


def layer1(x, rate, g, kind: str, hop: int, chans=None):
    """Seed layer 1 on all channels or on the listed ones (each is independent)."""
    if chans is not None:
        g = rspec.FrequencyGrid(
            nu=g.nu[chans],
            omega=g.omega[chans],
            tau_window=g.tau_window[chans],
            bins_per_octave=g.bins_per_octave,
            nu_min=g.nu_min,
            nu_max=g.nu_max,
            law=g.law,
        )
    return rspec.compute_spectrogram(x, rate, g, rspec.SpectrogramFamily(kind), hop=hop)


def as_log(values, warmup, g, rate, hop, kind: str) -> rspec.LogSpectrogram:
    """Wrap a dB map (the program's) as the seed's input type."""
    values = np.asarray(values)
    return rspec.LogSpectrogram(
        values=values,
        frame_times=np.arange(values.shape[0]) * hop / rate,
        grid=g,
        sample_rate=rate,
        hop=hop,
        family=rspec.SpectrogramFamily(kind),
        S0=1.0,
        warmup_frames=np.asarray(warmup),
    )


def layer1_tol(peak: float, atol: float = 0.0) -> float:
    return atol + LAYER1_RTOL * peak


def db_tol(ref_db, peak: float, atol: float = 0.0):
    return atol + DB_PER_NEPER * LAYER1_RTOL * peak / 10.0 ** (np.asarray(ref_db) / 20.0)


def feature_tol(ref_map, atol: float = 0.0) -> float:
    return atol + FEATURE_RTOL * float(np.max(np.abs(ref_map)))


def pixels(values, lo: float, hi: float) -> np.ndarray:
    """Grey levels as ``write_grid_pgm`` maps them."""
    x = np.clip((np.asarray(values, dtype=float) - lo) / (hi - lo), 0.0, 1.0)
    return np.floor(255.0 * x + 0.5)


def compare(name: str, got, want, tol) -> list[str]:
    """Failures where |got - want| exceeds tol (NaN fails)."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, want {want.shape}"]
    tol = np.broadcast_to(tol, want.shape)
    bad = ~(np.abs(got - want) <= tol)
    if not bad.any():
        return []
    i = int(np.argmax(bad))
    return [
        f"{name}: {int(bad.sum())} of {bad.size} cells off, "
        f"e.g. got {got.flat[i]!r} want {want.flat[i]!r} (tol {tol.flat[i]:.3g})"
    ]


def same(name: str, got, want) -> list[str]:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape == want.shape and np.array_equal(got, want):
        return []
    return [f"{name}: differs from the seed"]


def compare_curves(name: str, got: list, want: list) -> list[str]:
    """Curves as [frames, nus] pairs: same count and frames, nus within NU_ATOL."""
    if len(got) != len(want):
        return [f"{name}: {len(got)} curves, want {len(want)}"]
    for i, ((gf, gn), (wf, wn)) in enumerate(zip(got, want)):
        if list(gf) != list(wf):
            return [f"{name}: curve {i} spans other frames"]
        problems = compare(f"{name}[{i}].nus", gn, wn, NU_ATOL)
        if problems:
            return problems
    return []


def curve_pairs(curves) -> list:
    return [[c.frames.tolist(), c.nus.tolist()] for c in curves]


def curve_level(db: np.ndarray, g, frames, nus) -> float:
    """Median dB under a curve's track, as the CLI's --min-level-db scores it."""
    ch = np.clip(np.round((np.asarray(nus) - g.nu[0]) / g.delta_nu).astype(int), 0, g.n_channels - 1)
    return float(np.median(db[np.asarray(frames), ch]))


def bank(log, p: dict):
    """The seed's 5-member bank plus each cell's lead over the runner-up.

    Selection follows ``glissando_filterbank``: members in (|v|, v) order,
    replacing only on strict improvement.
    """
    window = TemporalKernelSpec.gaussian(p["bank_tau_a"])
    order = sorted(p["bank"], key=lambda v: (abs(v), v))
    members = [rfeat.band_response(log, p["bank_tau_a"], p["s"], window, v=v) for v in order]
    stack = np.stack([m.values for m in members])
    best = stack[0].copy()
    vhat = np.full(best.shape, order[0], dtype=float)
    for v, r in zip(order[1:], stack[1:]):
        better = r > best
        best[better] = r[better]
        vhat[better] = v
    top2 = np.sort(stack, axis=0)[-2:]
    return vhat, best, top2[1] - top2[0], members[0].warmup_frames


def tables() -> list[float]:
    """Every cell of the three ``analyze`` tables, in print order."""
    cells = []
    for table in (
        rsel.bandwidth_constant_table(8.0),
        rsel.delay_mean_table(),
        rsel.delay_max_table(),
    ):
        for _, row in table["rows"]:
            cells.extend(float(v) for v in row)
    return cells


TABLE_CELL = re.compile(r"(?<![\w.])-?\d+\.\d{3}(?!\d)")


def table_cells(text: str) -> list[float]:
    return [float(tok) for tok in TABLE_CELL.findall(text)]
