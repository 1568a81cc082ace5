"""The in-process workloads, ``gauss-corpus`` and ``layer2-stack``.

The seeded clips are written before timing; ``worker.py`` runs the ops in a
fresh interpreter that imports the program, so its CPU time and peak memory
are the work's alone. The checks then compare the worker's fingerprints with
the seed code: layer 1 on the sampled channels only (each channel is
independent), layer 2 on the program's own dB map, so a layer-2 check does
not depend on layer 1.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np

import reference as ref
from inputs import sample_cells, synth

WORKER_TIMEOUT_S = 170.0


def run(ctx: dict, P: dict, workload: str, seconds: float, trace: int) -> dict:
    clips = np.stack([synth(P["seed"], k, P["clip_seconds"]) for k in range(P["clips"])])
    job_dir = ctx["tmp"] / "job"
    job_dir.mkdir()
    np.savez(job_dir / "inputs.npz", clips=clips)
    keys = ("seed", "rate", "hop", "tau_a", "s", "tau_i", "s_i", "c_min", "min_level_db", "bank", "bank_tau_a")
    job = {k: P[k] for k in keys}
    job.update(workload=workload, grid=list(P["grid"]), seconds=seconds, trace=trace)
    (job_dir / "job.json").write_text(json.dumps(job))
    cmd = [sys.executable, str(ctx["bench"] / "worker.py"), str(job_dir)]
    proc = subprocess.run(cmd, env=ctx["env"], cwd=ctx["root"], timeout=WORKER_TIMEOUT_S, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    out = json.loads((job_dir / "result.json").read_text())
    with np.load(job_dir / "maps.npz") as maps:
        out["maps"] = {k: maps[k] for k in maps.files}
    out["clips"] = clips
    audio = clips.shape[1] / P["rate"]
    for rec in out["ops"] + out.get("traced_ops", []):
        rec["audio"] = audio
    return out


class _Cache(dict):
    def get_or(self, key, make):
        if key not in self:
            self[key] = make()
        return self[key]


def check_gauss(out: dict, P: dict) -> list[list[str]]:
    g = ref.grid(P["grid"])
    cache = _Cache()
    results = []
    for rec in out["ops"] + out.get("traced_ops", []):
        if "error" in rec:
            results.append([f"raised: {rec['error'].strip().splitlines()[-1]}"])
            continue
        k, fp = rec["item"], rec["fp"]
        x = out["clips"][k]
        peak = float(np.max(np.abs(x)))
        n_frames = len(range(0, x.size, P["hop"]))
        problems = ref.same("shape", fp["shape"], [n_frames, g.n_channels])
        if problems:
            results.append(problems)
            continue
        sub = tuple(np.unique(fp["S"]["chans"]).tolist())
        spec = cache.get_or(("S", k, sub), lambda: ref.layer1(x, P["rate"], g, "gauss", P["hop"], list(sub)))
        cols = np.searchsorted(sub, fp["S"]["chans"])
        frames = np.asarray(fp["S"]["frames"])
        want = spec.values[frames, cols]
        want_db = ref.rspec.to_db(spec).values[frames, cols]
        got = np.asarray(fp["S"]["re"]) + 1j * np.asarray(fp["S"]["im"])
        problems += ref.same("S warmup", np.asarray(fp["S"]["warmup"])[list(sub)], spec.warmup_frames)
        problems += ref.same("L warmup", np.asarray(fp["L"]["warmup"])[list(sub)], spec.warmup_frames)
        problems += ref.compare("S cells", got, want, ref.layer1_tol(peak))
        problems += ref.compare("L cells", fp["L"]["values"], want_db, ref.db_tol(want_db, peak))

        def bands():
            log = ref.as_log(out["maps"][f"L{k}"], out["maps"][f"L{k}_warmup"], g, P["rate"], P["hop"], "gauss")
            return ref.rfeat.enhance_bands(log, P["tau_a"], P["s"])

        B = cache.get_or(("B", k), bands)
        problems += _feature_cells("B", fp["B"], B.values, B.warmup_frames)
        results.append(problems)
    return results


def _feature_cells(name: str, fp: dict, want_map: np.ndarray, want_warmup) -> list[str]:
    frames, chans = np.asarray(fp["frames"]), np.asarray(fp["chans"])
    return ref.same(f"{name} warmup", fp["warmup"], want_warmup) + ref.compare(
        f"{name} cells", fp["values"], want_map[frames, chans], ref.feature_tol(want_map)
    )


def layer2_reference(log, P: dict) -> dict:
    """The seed's layer-2 stack on one dB map."""
    tau_a, s = P["tau_a"], P["s"]
    band = ref.rfeat.band_response(log, tau_a, s)
    return {
        "onsets": ref.rfeat.detect_onsets(log, tau_a, s),
        "offsets": ref.rfeat.detect_offsets(log, tau_a, s),
        "bands": ref.rfeat.enhance_bands(log, tau_a, s),
        "band": band,
        "curves": ref.curve_pairs(ref.rfeat.extract_partial_curves(band, c_min=P["c_min"])),
        "sm": ref.rfeat.second_moment_glissando(log, tau_a, s, P["tau_i"], P["s_i"]),
        "bank": ref.bank(log, P),
    }


def _map_problems(out: dict, P: dict, g, k: int) -> list[str]:
    """The input map itself against seed layer 1, on sampled channels."""
    values, warmup = out["maps"][f"L{k}"], out["maps"][f"L{k}_warmup"]
    x = out["clips"][k]
    frames, chans = sample_cells(P["seed"], k, 0, warmup, values.shape)
    sub = np.unique(chans)
    spec = ref.layer1(x, P["rate"], g, "rec-log", P["hop"], sub)
    want = ref.rspec.to_db(spec).values[frames, np.searchsorted(sub, chans)]
    peak = float(np.max(np.abs(x)))
    return ref.same("map warmup", warmup[sub], spec.warmup_frames) + ref.compare(
        "map cells", values[frames, chans], want, ref.db_tol(want, peak)
    )


def check_layer2(out: dict, P: dict) -> list[list[str]]:
    g = ref.grid(P["grid"])
    cache = _Cache()
    results = []
    for rec in out["ops"] + out.get("traced_ops", []):
        if "error" in rec:
            results.append([f"raised: {rec['error'].strip().splitlines()[-1]}"])
            continue
        k, fp = rec["item"], rec["fp"]
        R = cache.get_or(
            k,
            lambda: layer2_reference(
                ref.as_log(out["maps"][f"L{k}"], out["maps"][f"L{k}_warmup"], g, P["rate"], P["hop"], "rec-log"), P
            ),
        )
        problems = list(cache.get_or(("map", k), lambda: _map_problems(out, P, g, k)))
        for name in ("onsets", "offsets", "bands", "band"):
            problems += _feature_cells(name, fp[name], R[name].values, R[name].warmup_frames)
        problems += ref.compare_curves("curves", fp["curves"], R["curves"])
        sm = R["sm"]
        f, c = np.asarray(fp["sm_vhat"]["frames"]), np.asarray(fp["sm_vhat"]["chans"])
        safe = sm.defined[f, c] & (sm.upsilon_nunu[f, c] >= np.median(sm.upsilon_nunu))
        want = sm.vhat[f, c][safe]
        problems += ref.same("sm warmup", fp["sm_vhat"]["warmup"], sm.warmup_frames)
        problems += ref.compare(
            "sm vhat", np.asarray(fp["sm_vhat"]["values"])[safe], want, ref.FEATURE_RTOL * np.maximum(np.abs(want), 1.0)
        )
        vhat, best, lead, warm = R["bank"]
        problems += _feature_cells("bank response", fp["bank_response"], best, warm)
        f, c = np.asarray(fp["bank_vhat"]["frames"]), np.asarray(fp["bank_vhat"]["chans"])
        safe = lead[f, c] > ref.feature_tol(best)
        problems += ref.same("bank vhat", np.asarray(fp["bank_vhat"]["values"])[safe], vhat[f, c][safe])
        results.append(problems)
    return results


def check(out: dict, P: dict, workload: str) -> list[list[str]]:
    return check_gauss(out, P) if workload == "gauss-corpus" else check_layer2(out, P)
