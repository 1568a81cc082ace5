"""In-process workloads, run in a fresh interpreter that imports the program.

Usage: python worker.py JOB_DIR

JOB_DIR holds ``job.json`` (workload, parameters, run length, trace flag) and
``inputs.npz`` (the seeded clips). The worker imports tonescale, builds the
grid and, for ``layer2-stack``, the dB maps, all before timing. It then runs
one op at a time until the run length has passed, and at least three ops. With tracing on, it runs
the same ops again under the span wrappers. It writes ``result.json`` (times,
CPU, peak memory, output fingerprints) and ``maps.npz`` (each distinct dB map
the reference needs as layer-2 input).
"""

from __future__ import annotations

import time

t0 = time.perf_counter()
import tonescale as ts  # noqa: E402  (timed: numpy and scipy load here)

IMPORT_S = time.perf_counter() - t0

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from inputs import sample_cells  # noqa: E402


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _cells(seed: int, item: int, salt: int, values: np.ndarray, warmup, layer1_warmup) -> dict:
    """Values at seeded cells past layer-1 warm-up, with the output's warm-up."""
    frames, chans = sample_cells(seed, item, salt, layer1_warmup, values.shape)
    cells = values[frames, chans]
    out = {"frames": frames.tolist(), "chans": chans.tolist(), "warmup": np.asarray(warmup).tolist()}
    if np.iscomplexobj(cells):
        out.update(re=cells.real.tolist(), im=cells.imag.tolist())
    else:
        out["values"] = cells.astype(float).tolist()
    return out


class GaussCorpus:
    """compute_spectrogram(gauss) -> to_db -> enhance_bands on one clip."""

    def __init__(self, job: dict, clips: np.ndarray) -> None:
        self.job = job
        self.items = clips
        self.grid = ts.build_frequency_grid(*job["grid"])
        self.family = ts.SpectrogramFamily("gauss")
        self.maps: dict[str, np.ndarray] = {}

    def run(self, k: int):
        j = self.job
        S = ts.compute_spectrogram(self.items[k], j["rate"], self.grid, self.family, hop=j["hop"])
        L = ts.to_db(S)
        B = ts.enhance_bands(L, j["tau_a"], j["s"])
        return S, L, B

    def fingerprint(self, k: int, out) -> dict:
        S, L, B = out
        seed = self.job["seed"]
        if f"L{k}" not in self.maps:
            self.maps[f"L{k}"] = L.values
            self.maps[f"L{k}_warmup"] = L.warmup_frames
        return {
            "shape": list(S.values.shape),
            "S": _cells(seed, k, 1, S.values, S.warmup_frames, S.warmup_frames),
            "L": _cells(seed, k, 1, L.values, L.warmup_frames, S.warmup_frames),
            "B": _cells(seed, k, 2, B.values, B.warmup_frames, S.warmup_frames),
        }


class Layer2Stack:
    """Every layer-2 feature on one prebuilt rec-log dB map."""

    def __init__(self, job: dict, clips: np.ndarray) -> None:
        self.job = job
        grid = ts.build_frequency_grid(*job["grid"])
        family = ts.SpectrogramFamily("rec-log")
        self.items = [
            ts.to_db(ts.compute_spectrogram(c, job["rate"], grid, family, hop=job["hop"]))
            for c in clips
        ]
        self.maps = {}
        for k, L in enumerate(self.items):
            self.maps[f"L{k}"] = L.values
            self.maps[f"L{k}_warmup"] = L.warmup_frames

    def run(self, k: int):
        j = self.job
        L = self.items[k]
        tau_a, s = j["tau_a"], j["s"]
        band = ts.band_response(L, tau_a, s)
        bank_window = ts.TemporalKernelSpec.gaussian(j["bank_tau_a"])
        return {
            "onsets": ts.detect_onsets(L, tau_a, s),
            "offsets": ts.detect_offsets(L, tau_a, s),
            "bands": ts.enhance_bands(L, tau_a, s),
            "band": band,
            "curves": ts.extract_partial_curves(band, c_min=j["c_min"]),
            "sm": ts.second_moment_glissando(L, tau_a, s, j["tau_i"], j["s_i"]),
            "bank": ts.glissando_filterbank(L, j["bank"], j["bank_tau_a"], s, temporal=bank_window),
        }

    def fingerprint(self, k: int, out: dict) -> dict:
        seed = self.job["seed"]
        warm = self.items[k].warmup_frames
        fp = {}
        for salt, name in enumerate(("onsets", "offsets", "bands", "band"), start=1):
            fp[name] = _cells(seed, k, salt, out[name].values, out[name].warmup_frames, warm)
        sm, bank = out["sm"], out["bank"]
        fp["sm_vhat"] = _cells(seed, k, 5, sm.vhat, sm.warmup_frames, warm)
        fp["bank_vhat"] = _cells(seed, k, 6, bank.vhat, bank.warmup_frames, warm)
        fp["bank_response"] = _cells(seed, k, 6, bank.response, bank.warmup_frames, warm)
        fp["curves"] = [[c.frames.tolist(), c.nus.tolist()] for c in out["curves"]]
        return fp


# A median needs three samples; a fixed floor also keeps the op count, and so
# error_rate, from flipping with machine speed when ops are long.
MIN_OPS = 3


def _loop(workload, seconds: float, n_ops: int | None, first_op: int, tracer=None) -> list[dict]:
    """Closed loop, one op at a time: ``n_ops`` ops, or at least ``MIN_OPS``
    and until ``seconds`` pass."""
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        if n_ops is None and i >= MIN_OPS and time.perf_counter() - start >= seconds:
            break
        if n_ops is not None and i >= n_ops:
            break
        k = i % len(workload.items)
        if tracer is not None:
            tracer.op = first_op + i
        rec = {"item": k}
        c0, w0 = _cpu(), time.perf_counter()
        try:
            out = workload.run(k)
        except Exception:  # an op that raises is a failed op; keep measuring
            out = None
            rec["error"] = traceback.format_exc(limit=3)
        rec["wall"] = time.perf_counter() - w0
        rec["cpu"] = _cpu() - c0
        if out is not None:
            try:
                rec["fp"] = workload.fingerprint(k, out)
            except Exception:  # malformed output: a failed op
                rec["error"] = traceback.format_exc(limit=3)
        records.append(rec)
        i += 1
    return records


def main(job_dir: Path) -> int:
    job = json.loads((job_dir / "job.json").read_text())
    clips = np.load(job_dir / "inputs.npz")["clips"]
    kind = {"gauss-corpus": GaussCorpus, "layer2-stack": Layer2Stack}[job["workload"]]
    workload = kind(job, clips)
    result = {"import_s": IMPORT_S}
    result["ops"] = _loop(workload, job["seconds"], None, 0)
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        n = len(result["ops"])
        result["traced_ops"] = _loop(workload, 0.0, n, n, tracer)
        result["spans"] = tracer.finished()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    np.savez(job_dir / "maps.npz", **workload.maps)
    (job_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(Path(sys.argv[1])))
