"""The ``cli-causal`` workload: each tonescale command in its own interpreter.

One seeded WAV is written before timing. The fixed op mix below runs in
order, one op at a time, and the loop ends at the first mix boundary after
the run length, but not before two mixes, so every run measures whole mixes. Each op runs through
``bootstrap.py``, which reports the import time and, when tracing, the spans.
Wall time is taken around the child process; CPU time and peak memory come
from the kernel's accounting of that child.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import reference as ref
from inputs import sample_cells, synth, write_wav

BANK_FLAG = "--glissando-bank=-24,-12,0,12,24"
MIX = (
    ("spec-db", ["spectrogram", "--db", "--out-csv", "{o}.csv", "--out-pgm", "{o}.pgm"]),
    ("spec-uni", ["spectrogram", "--family", "rec-uni", "--out-csv", "{o}.csv"]),
    ("onsets", ["features", "--onsets", "--compensate-delay", "--out-pgm", "{o}.pgm"]),
    ("partials", ["features", "--partials", "--out-json", "{o}.json"]),
    ("sm", ["features", "--second-moment", "--out-csv", "{o}.csv"]),
    ("bank", ["features", BANK_FLAG, "--tau-a-ms", "60", "--out-csv", "{o}.csv"]),
    ("analyze", ["analyze"]),
)
OP_TIMEOUT_S = 60.0
# One op of each kind per run is too few to be steady on a shared machine.
MIN_MIXES = 2


def _argv(kind: str, template: list, wav: Path, stem: Path, grid_flags: list) -> list:
    argv = [a.format(o=stem) for a in template]
    if kind == "analyze":
        return argv
    return [argv[0], str(wav), *argv[1:], *grid_flags]


def run_op(bench: Path, root: Path, env: dict, tmp: Path, op_id: int, argv: list, trace: int) -> dict:
    """One CLI call in a fresh interpreter, timed around the child process."""
    report = tmp / f"op{op_id}.report.json"
    cmd = [sys.executable, str(bench / "bootstrap.py"), str(report), str(trace), str(op_id), "--", *argv]
    with open(tmp / f"op{op_id}.stdout", "wb") as out, open(tmp / f"op{op_id}.stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=root)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
        "code": proc.returncode,
        "stdout": (tmp / f"op{op_id}.stdout").read_text(errors="replace"),
        "stderr": (tmp / f"op{op_id}.stderr").read_text(errors="replace")[-2000:],
    }
    if report.exists():
        rec.update(json.loads(report.read_text()))
        report.unlink()
    return rec


def loop(ctx: dict, seconds: float, trace: int, n_mixes: int | None = None) -> list[dict]:
    """Whole mixes, closed loop: ``n_mixes`` of them, or at least ``MIN_MIXES``
    and until ``seconds`` pass."""
    ops = []
    start = time.perf_counter()
    while True:
        done = len(ops) // len(MIX)
        if n_mixes is None and done >= MIN_MIXES and time.perf_counter() - start >= seconds:
            break
        if n_mixes is not None and done >= n_mixes:
            break
        for kind, template in MIX:
            op_id = len(ops) + ctx["first_op"]
            stem = ctx["tmp"] / f"op{op_id}"
            argv = _argv(kind, template, ctx["wav"], stem, ctx["grid_flags"])
            rec = run_op(ctx["bench"], ctx["root"], ctx["env"], ctx["tmp"], op_id, argv, trace)
            rec.update(kind=kind, stem=str(stem), audio=0.0 if kind == "analyze" else ctx["audio_s"])
            rec["out_bytes"] = sum(
                p.stat().st_size for p in ctx["tmp"].glob(f"op{op_id}.*") if p.suffix in (".csv", ".pgm", ".json")
            )
            ops.append(rec)
    return ops


def run(ctx: dict, P: dict, seconds: float, trace: int) -> dict:
    x = synth(P["seed"], 0, P["clip_seconds"])
    wav = ctx["tmp"] / "input.wav"
    write_wav(wav, x)
    ctx = {**ctx, "wav": wav, "audio_s": x.size / P["rate"], "grid_flags": P["grid_flags"], "first_op": 0}
    ops = loop(ctx, seconds, 0)
    out = {"ops": ops, "clips": [x]}
    if trace:
        n_mixes = len(ops) // len(MIX)
        out["traced_ops"] = loop({**ctx, "first_op": len(ops)}, 0.0, 1, n_mixes)
    return out


# ---------------------------------------------------------------------------
# Correctness


def reference_outputs(x: np.ndarray, P: dict) -> dict:
    """Everything the op mix writes, from the seed code, for one WAV."""
    g = ref.grid(P["grid"])
    rate, hop = P["rate"], P["hop"]
    tau_a, s = P["tau_a"], P["s"]
    spec = ref.layer1(x, rate, g, "rec-log", hop)
    log = ref.rspec.to_db(spec)
    onsets = ref.rfeat.detect_onsets(ref.rspec.to_db(ref.rspec.delay_compensate(spec)), tau_a, s)
    band = ref.rfeat.band_response(log, tau_a, s)
    curves = ref.rfeat.extract_partial_curves(band, c_min=P["c_min"])
    kept = [c for c in curves if ref.curve_level(log.values, g, c.frames, c.nus) >= P["min_level_db"]]
    sm = ref.rfeat.second_moment_glissando(log, tau_a, s, P["tau_i"], P["s_i"])
    vhat, best, lead, bank_warm = ref.bank(log, P)
    mask = ref.rfeat.ridge_mask(best, bank_warm, P["c_min"])
    return {
        "peak": float(np.max(np.abs(x))),
        "grid": g,
        "spec": spec,
        "log": log,
        "uni": ref.layer1(x, rate, g, "rec-uni", hop),
        "onsets": onsets,
        "curves": ref.curve_pairs(kept),
        "sm": sm,
        "bank": (np.where(mask, vhat, 0.0), best, lead, bank_warm),
        "tables": ref.tables(),
    }


def _read_csv(path: Path, frames, chans, n_frames: int, nu: np.ndarray, parse=float):
    """Cells of a grid CSV at (frame, channel) positions; checks its shape."""
    lines = Path(path).read_text().split("\n")
    if lines[-1] == "":
        lines.pop()
    header = lines[0].split("\t")
    if header[0] != "nu" or len(header) - 1 != n_frames or len(lines) - 1 != len(nu):
        raise ValueError(f"{path}: grid is not {len(nu)} channels x {n_frames} frames")
    rows = {}
    for ch in set(chans.tolist()):
        toks = lines[1 + ch].split("\t")
        if abs(float(toks[0]) - nu[ch]) > ref.CSV_ATOL or len(toks) - 1 != n_frames:
            raise ValueError(f"{path}: row {ch} is not channel nu={nu[ch]:.6f}")
        rows[ch] = toks
    return np.array([parse(rows[ch][1 + f]) for f, ch in zip(frames, chans)])


def _read_pgm(path: Path, frames, chans, n_frames: int, n_ch: int) -> np.ndarray:
    raw = Path(path).read_bytes()
    header = f"P5\n{n_frames} {n_ch}\n255\n".encode("ascii")
    if not raw.startswith(header) or len(raw) != len(header) + n_frames * n_ch:
        raise ValueError(f"{path}: not a {n_frames}x{n_ch} P5 image")
    img = np.frombuffer(raw[len(header) :], dtype=np.uint8).reshape(n_ch, n_frames)
    return img[n_ch - 1 - chans, frames].astype(float)


def check_op(rec: dict, R: dict, P: dict) -> list[str]:
    """Problems with one op's outputs; empty when it matches the seed."""
    kind = rec["kind"]
    if rec["code"] != 0:
        return [f"{kind}: exit code {rec['code']}: {rec['stderr'].strip()[-300:]}"]
    if kind == "analyze":
        got, want = ref.table_cells(rec["stdout"]), R["tables"]
        if len(got) != len(want):
            return [f"analyze: {len(got)} table cells, want {len(want)}"]
        return ref.compare("analyze", got, want, ref.TABLE_ATOL)
    seed, stem = P["seed"], Path(rec["stem"])
    g, peak = R["grid"], R["peak"]
    n_frames, n_ch = R["spec"].values.shape
    warm = R["spec"].warmup_frames  # layer-2 outputs are sampled past layer-1 warm-up
    try:
        if kind == "spec-db":
            f, c = sample_cells(seed, 0, 1, warm, (n_frames, n_ch))
            want = R["log"].values[f, c]
            got = _read_csv(f"{stem}.csv", f, c, n_frames, g.nu)
            grey = _read_pgm(f"{stem}.pgm", f, c, n_frames, n_ch)
            return ref.compare("spec-db csv", got, want, ref.db_tol(want, peak, ref.CSV_ATOL)) + ref.compare(
                "spec-db pgm", grey, ref.pixels(want, -60.0, 0.0), ref.PGM_ATOL
            )
        if kind == "spec-uni":
            f, c = sample_cells(seed, 0, 2, R["uni"].warmup_frames, (n_frames, n_ch))
            got = _read_csv(f"{stem}.csv", f, c, n_frames, g.nu, parse=complex)
            tol = ref.layer1_tol(peak, 2 * ref.CSV_ATOL)
            return ref.compare("spec-uni csv", got, R["uni"].values[f, c], tol)
        if kind == "onsets":
            on = R["onsets"].values
            f, c = sample_cells(seed, 0, 3, warm, (n_frames, n_ch))
            grey = _read_pgm(f"{stem}.pgm", f, c, n_frames, n_ch)
            return ref.compare("onsets pgm", grey, ref.pixels(on[f, c], 0.0, float(on.max()) or 1.0), ref.PGM_ATOL)
        if kind == "partials":
            payload = json.loads(Path(f"{stem}.json").read_text())
            got = [[cu["frames"], cu["nus"]] for cu in payload["curves"]]
            return ref.compare_curves("partials", got, R["curves"])
        if kind == "sm":
            sm = R["sm"]
            f, c = sample_cells(seed, 0, 5, warm, (n_frames, n_ch))
            safe = sm.defined[f, c] & (sm.upsilon_nunu[f, c] >= np.median(sm.upsilon_nunu))
            f, c = f[safe], c[safe]
            want = sm.vhat[f, c]
            got = _read_csv(f"{stem}.csv", f, c, n_frames, g.nu)
            tol = ref.CSV_ATOL + ref.FEATURE_RTOL * np.maximum(np.abs(want), 1.0)
            return ref.compare("sm csv", got, want, tol)
        if kind == "bank":
            values, best, lead, _ = R["bank"]
            f, c = sample_cells(seed, 0, 6, warm, (n_frames, n_ch))
            margin = ref.feature_tol(best)
            safe = (lead[f, c] > margin) & (np.abs(best[f, c] - P["c_min"]) > margin)
            f, c = f[safe], c[safe]
            got = _read_csv(f"{stem}.csv", f, c, n_frames, g.nu)
            return ref.compare("bank csv", got, values[f, c], ref.CSV_ATOL)
    except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
        return [f"{kind}: unreadable output: {exc}"]
    raise ValueError(f"unknown op kind {kind!r}")


def check(out: dict, P: dict) -> list[list[str]]:
    R = reference_outputs(out["clips"][0], P)
    return [check_op(rec, R, P) for rec in out["ops"] + out.get("traced_ops", [])]
