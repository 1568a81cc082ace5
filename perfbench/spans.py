"""Spans around the library's public functions, recorded from outside.

``install`` wraps every public function of the traced modules, plus the two
SciPy kernels the library calls through its own namespace (``upfirdn`` and
``ive``). Callers import with ``from ... import``, so each wrapper replaces
the name in every tonescale module that holds it, not only where the
function is defined. Spans stay in memory (name, start, end, parent, op id
and a few counters) until ``dump`` writes them with their self times.
``layer_metrics`` turns the spans of a run into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np

MODULES = (
    "cli_io",
    "spectrogram",
    "temporal_scale_space",
    "receptive_fields",
    "features",
    "selectivity_analysis",
)
# Foreign kernels called through a traced module's namespace.
FOREIGN = {"spectrogram": ("upfirdn",), "temporal_scale_space": ("ive",)}
DB_FLOOR = 20.0 * math.log10(1e-10)  # to_db's floor, whatever S0


def _counters(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Work counts taken at the span boundary."""
    if name == "spectrogram.compute_spectrogram":
        signal = np.asarray(args[0])
        n_frames, n_ch = result.values.shape
        warm = np.minimum(np.asarray(result.warmup_frames), n_frames).sum()
        return {
            "family": result.family.kind,
            "channel_samples": int(signal.size * n_ch),
            "cells": int(n_frames * n_ch),
            "warmup_cells": int(warm),
        }
    if name == "spectrogram.to_db":
        return {
            "cells": int(result.values.size),
            "floor_cells": int(np.count_nonzero(result.values <= DB_FLOOR + 1e-9)),
        }
    if name == "temporal_scale_space.recursive_stage":
        return {"samples": int(np.size(args[0]))}
    if name == "temporal_scale_space.discrete_gaussian_kernel":
        return {"taps": int(len(result.values))}
    if name == "temporal_scale_space.ive":
        return {"evals": int(np.size(args[0]))}
    if name == "cli_io.write_grid_csv":
        return {"cells": int(np.size(args[3] if len(args) > 3 else kwargs["values"]))}
    if name == "features.extract_partial_curves":
        return {"curves": len(result)}
    if name == "features.second_moment_glissando":
        return {"cells": int(result.defined.size), "defined": int(np.count_nonzero(result.defined))}
    return {}


class Tracer:
    """In-memory span recorder; one span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op: int | None = None
        self._local = threading.local()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span = {
                "name": name,
                "parent": stack[-1] if stack else None,
                "op": self.op,
                "counts": {},
            }
            span["id"] = len(self.spans)
            self.spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            span["counts"] = _counters(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace each traced function in every loaded tonescale module."""
        wrappers: dict[int, object] = {}
        for short in MODULES:
            mod = importlib.import_module(f"tonescale.{short}")
            for attr, value in vars(mod).items():
                own = inspect.isfunction(value) and value.__module__ == mod.__name__
                if (own and not attr.startswith("_")) or attr in FOREIGN.get(short, ()):
                    wrappers.setdefault(id(value), self.wrap(f"{short}.{attr}", value))
        for modname, mod in list(sys.modules.items()):
            if modname != "tonescale" and not modname.startswith("tonescale."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])

    def finished(self) -> list[dict]:
        """Spans with durations and self times (duration minus direct children)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out = []
        for span, children in zip(self.spans, child_time):
            dur = span["end"] - span["start"]
            out.append({**span, "dur": dur, "self": dur - children})
        return out

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.finished()))


def _outermost(spans: list[dict], name: str) -> list[dict]:
    """Spans of ``name`` with no ancestor of the same name (no double counting)."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        p = s["parent"]
        while p is not None and by_id[p]["name"] != name:
            p = by_id[p]["parent"]
        if p is None:
            out.append(s)
    return out


TIMED = {
    "cli_io.read_wav_s": "cli_io.read_wav",
    "cli_io.write_grid_csv_s": "cli_io.write_grid_csv",
    "cli_io.write_grid_pgm_s": "cli_io.write_grid_pgm",
    "spectrogram.build_frequency_grid_s": "spectrogram.build_frequency_grid",
    "spectrogram.upfirdn_s": "spectrogram.upfirdn",
    "spectrogram.to_db_s": "spectrogram.to_db",
    "spectrogram.delay_compensate_s": "spectrogram.delay_compensate",
    "temporal_scale_space.recursive_stage_s": "temporal_scale_space.recursive_stage",
    "temporal_scale_space.discrete_gaussian_kernel_s": "temporal_scale_space.discrete_gaussian_kernel",
    "temporal_scale_space.discrete_gaussian_smooth_s": "temporal_scale_space.discrete_gaussian_smooth",
    "receptive_fields.apply_rf_s": "receptive_fields.apply_rf",
    "receptive_fields.glissando_warp_s": "receptive_fields.glissando_warp",
    "features.detect_onsets_s": "features.detect_onsets",
    "features.detect_offsets_s": "features.detect_offsets",
    "features.enhance_bands_s": "features.enhance_bands",
    "features.band_response_s": "features.band_response",
    "features.extract_partial_curves_s": "features.extract_partial_curves",
    "features.second_moment_glissando_s": "features.second_moment_glissando",
    "features.glissando_filterbank_s": "features.glissando_filterbank",
    "selectivity_analysis.delay_measures_s": "selectivity_analysis.delay_measures",
}
CALLS = {
    "temporal_scale_space.recursive_stage_calls": "temporal_scale_space.recursive_stage",
    "temporal_scale_space.discrete_gaussian_kernel_calls": "temporal_scale_space.discrete_gaussian_kernel",
    "receptive_fields.apply_rf_calls": "receptive_fields.apply_rf",
}
TABLES = (
    "selectivity_analysis.bandwidth_constant_table",
    "selectivity_analysis.delay_mean_table",
    "selectivity_analysis.delay_max_table",
)
FAMILIES = ("rec-log", "rec-uni", "gauss")

# Every per-layer metric and its unit, in report order. Times and counts are
# per op (run total divided by ops run); fractions are ratios over the run.
LAYER_UNITS = {
    "cli_io.import_s": "s",
    "cli_io.read_wav_s": "s",
    "cli_io.write_grid_csv_s": "s",
    "cli_io.write_grid_pgm_s": "s",
    "cli_io.csv_cells": "count",
    "cli_io.out_bytes": "bytes",
    "spectrogram.build_frequency_grid_s": "s",
    **{f"spectrogram.layer1_{fam}_s": "s" for fam in FAMILIES},
    "spectrogram.layer1_self_s": "s",
    "spectrogram.upfirdn_s": "s",
    "spectrogram.channel_samples": "count",
    "spectrogram.channel_samples_per_s": "1/s",
    "spectrogram.to_db_s": "s",
    "spectrogram.floor_cell_frac": "frac",
    "spectrogram.warmup_cell_frac": "frac",
    "spectrogram.delay_compensate_s": "s",
    "temporal_scale_space.recursive_stage_s": "s",
    "temporal_scale_space.recursive_stage_calls": "count",
    "temporal_scale_space.stage_samples": "count",
    "temporal_scale_space.discrete_gaussian_kernel_s": "s",
    "temporal_scale_space.discrete_gaussian_kernel_calls": "count",
    "temporal_scale_space.bessel_evals": "count",
    "temporal_scale_space.gauss_tap_yield": "frac",
    "temporal_scale_space.discrete_gaussian_smooth_s": "s",
    "receptive_fields.apply_rf_s": "s",
    "receptive_fields.apply_rf_calls": "count",
    "receptive_fields.glissando_warp_s": "s",
    "features.detect_onsets_s": "s",
    "features.detect_offsets_s": "s",
    "features.enhance_bands_s": "s",
    "features.band_response_s": "s",
    "features.extract_partial_curves_s": "s",
    "features.second_moment_glissando_s": "s",
    "features.glissando_filterbank_s": "s",
    "features.curves": "count",
    "features.curves_kept_frac": "frac",
    "features.sm_defined_frac": "frac",
    "selectivity_analysis.delay_measures_s": "s",
    "selectivity_analysis.tables_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[dict],
    n_ops: int,
    import_times: list[float],
    out_bytes: int,
    curves_kept: int,
    overhead_s: float,
) -> dict:
    """Per-layer metrics of one traced run; layers the run skips read 0."""

    def total(name: str) -> float:
        return sum(s["dur"] for s in _outermost(spans, name))

    def count(name: str, field: str) -> int:
        return sum(s["counts"].get(field, 0) for s in spans if s["name"] == name)

    m = {k: total(v) / n_ops for k, v in TIMED.items()}
    m.update({k: sum(s["name"] == v for s in spans) / n_ops for k, v in CALLS.items()})
    layer1 = [s for s in spans if s["name"] == "spectrogram.compute_spectrogram" and s["counts"]]
    for fam in FAMILIES:
        m[f"spectrogram.layer1_{fam}_s"] = (
            sum(s["dur"] for s in layer1 if s["counts"]["family"] == fam) / n_ops
        )
    m["spectrogram.layer1_self_s"] = sum(s["self"] for s in layer1) / n_ops
    samples = sum(s["counts"]["channel_samples"] for s in layer1)
    m["spectrogram.channel_samples"] = samples / n_ops
    m["spectrogram.channel_samples_per_s"] = _ratio(samples, sum(s["dur"] for s in layer1))
    m["spectrogram.warmup_cell_frac"] = _ratio(
        sum(s["counts"]["warmup_cells"] for s in layer1), sum(s["counts"]["cells"] for s in layer1)
    )
    m["spectrogram.floor_cell_frac"] = _ratio(
        count("spectrogram.to_db", "floor_cells"), count("spectrogram.to_db", "cells")
    )
    m["temporal_scale_space.stage_samples"] = (
        count("temporal_scale_space.recursive_stage", "samples") / n_ops
    )
    evals = count("temporal_scale_space.ive", "evals")
    m["temporal_scale_space.bessel_evals"] = evals / n_ops
    m["temporal_scale_space.gauss_tap_yield"] = _ratio(
        count("temporal_scale_space.discrete_gaussian_kernel", "taps"), evals
    )
    m["selectivity_analysis.tables_s"] = sum(total(name) for name in TABLES) / n_ops
    m["cli_io.import_s"] = statistics.median(import_times) if import_times else 0.0
    m["cli_io.csv_cells"] = count("cli_io.write_grid_csv", "cells") / n_ops
    m["cli_io.out_bytes"] = out_bytes / n_ops
    curves = count("features.extract_partial_curves", "curves")
    m["features.curves"] = curves / n_ops
    m["features.curves_kept_frac"] = _ratio(curves_kept, curves)
    m["features.sm_defined_frac"] = _ratio(
        count("features.second_moment_glissando", "defined"),
        count("features.second_moment_glissando", "cells"),
    )
    m["trace.overhead_s"] = overhead_s
    return {k: {"value": m[k], "unit": unit} for k, unit in LAYER_UNITS.items()}
