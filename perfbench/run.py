"""tonescale benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-causal --seed 1 --seconds 10 --trace 0

Workloads (closed loop, one client, one op at a time):

- ``cli-causal``: each ``tonescale`` command in a fresh interpreter on the
  default CLI grid (368 channels, 80 Hz-16 kHz, 48 bins/octave, 1 ms hop);
  an op is one CLI call, and a run measures whole mixes of seven ops, at
  least two.
- ``gauss-corpus``: library calls in one process on a reduced grid
  (200 Hz-16 kHz, 12 bins/octave); an op is one 1 s clip through
  ``compute_spectrogram(gauss)``, ``to_db`` and ``enhance_bands``.
- ``layer2-stack``: every layer-2 feature on rec-log dB maps of the default
  grid built before timing; an op is one map through the stack.

``--trace 0`` prints the end-to-end metrics: ``xrt`` and ``cpu_xrt`` (wall
and CPU seconds per audio second), ``op_p50_s`` (median op wall time; the
sample count is ``attempted``), ``peak_rss_mb`` (peak resident memory of the
working process), ``setup_s`` (median over fresh interpreters of
``import tonescale`` plus the workload's grid build) and ``error_rate``.
``error_rate`` is the one-sided 95% upper confidence bound on the share of
failed ops, so it reads above 0 even when no op fails. An op fails if it
exits non-zero, raises, or differs from the seed code beyond the tolerances
in ``reference.py``.

``--trace 1`` runs the same ops untraced and then traced, and prints the
per-layer metrics of ``spans.LAYER_UNITS``; ``trace.overhead_s`` is the
traced minus the untraced wall time per op.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--out DIR`` also saves a
result file with the run record (machine, versions, thread caps, commit,
seed, input sizes) for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy
from scipy.stats import beta

import cli_causal
import library
import reference as ref
import spans

WORKLOADS = ("cli-causal", "gauss-corpus", "layer2-stack")
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60.0

# CLI defaults, so library calls match the CLI ops.
PARAMS = {
    "rate": 44100,
    "hop": 44,
    "tau_a": 0.020**2,
    "s": 0.5**2,
    "tau_i": 0.060**2,
    "s_i": 1.0**2,
    "c_min": 3.0,
    "min_level_db": -70.0,
    "bank": [-24.0, -12.0, 0.0, 12.0, 24.0],
    "bank_tau_a": 0.060**2,
}
DEFAULT_GRID = (ref.midi(80.0), ref.midi(16000.0), 48)
TINY_GRID = (ref.midi(1000.0), ref.midi(8000.0), 6)
# Per workload: clip length in seconds, distinct clips, grid (nu_min, nu_max,
# bins per octave).
SIZES = {
    "full": {
        "cli-causal": (0.5, 1, DEFAULT_GRID),
        "gauss-corpus": (1.0, 6, (ref.midi(200.0), ref.midi(16000.0), 12)),
        "layer2-stack": (1.0, 2, DEFAULT_GRID),
    },
    # For the benchmark's own tests: every code path in a few seconds.
    "tiny": {w: (0.3, 2, TINY_GRID) for w in WORKLOADS},
}
END_TO_END_UNITS = {
    "xrt": "s/s",
    "op_p50_s": "s",
    "cpu_xrt": "s/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "error_rate": "frac",
}


def params(size: str, workload: str, seed: int) -> dict:
    """Every setting of one run: CLI defaults, input size, grid and seed."""
    clip_seconds, clips, grid = SIZES[size][workload]
    P = {**PARAMS, "seed": seed, "clip_seconds": clip_seconds, "clips": clips, "grid": grid}
    lo, hi, bpo = grid
    P["grid_flags"] = (
        [] if grid == DEFAULT_GRID else ["--nu-min", repr(lo), "--nu-max", repr(hi), "--bins-per-octave", str(bpo)]
    )
    return P


def thread_caps() -> dict:
    n = str(len(os.sched_getaffinity(0)))
    return {k: n for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(thread_caps())
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    return env


def setup_seconds(env: dict, workload: str, grid: tuple) -> float:
    """Fresh-interpreter import plus grid build, timed inside the child."""
    module = "tonescale.cli_io" if workload == "cli-causal" else "tonescale"
    code = (
        "import time\n"
        "t = time.perf_counter()\n"
        f"import {module}\n"
        "from tonescale import build_frequency_grid\n"
        f"build_frequency_grid({grid[0]!r}, {grid[1]!r}, {grid[2]!r})\n"
        "print(time.perf_counter() - t)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S
    )
    if out.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{out.stderr[-2000:]}")
    return float(out.stdout.split()[-1])


def error_rate(failed: int, attempted: int) -> float:
    """One-sided 95% Clopper-Pearson upper bound on the failure share."""
    if failed >= attempted:
        return 1.0
    return float(beta.ppf(0.95, failed + 1, attempted - failed))


def end_to_end(ops: list[dict], failed: int, setup: list[float], peak_rss_kb: float) -> dict:
    audio = sum(op["audio"] for op in ops)
    values = {
        "xrt": sum(op["wall"] for op in ops) / audio,
        "op_p50_s": statistics.median(op["wall"] for op in ops),
        "cpu_xrt": sum(op["cpu"] for op in ops) / audio,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "setup_s": statistics.median(setup),
        "error_rate": error_rate(failed, len(ops)),
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}


def per_layer(workload: str, P: dict, out: dict) -> dict:
    ops, traced = out["ops"], out["traced_ops"]
    n = len(traced)
    if workload == "cli-causal":
        span_list = [s for op in traced for s in op.get("spans", [])]
        imports = [op["import_s"] for op in traced if "import_s" in op]
        out_bytes = sum(op["out_bytes"] for op in traced)
        kept = sum(
            len(json.loads(Path(f"{op['stem']}.json").read_text())["curves"])
            for op in traced
            if op["kind"] == "partials" and op["code"] == 0
        )
    else:
        span_list = out["spans"]
        imports = [out["import_s"]]
        out_bytes = 0
        g = ref.grid(P["grid"])
        kept = sum(
            ref.curve_level(out["maps"][f"L{op['item']}"], g, frames, nus) >= P["min_level_db"]
            for op in traced
            if "fp" in op
            for frames, nus in op["fp"].get("curves", [])
        )
    overhead = (sum(op["wall"] for op in traced) - sum(op["wall"] for op in ops[:n])) / n
    return spans.layer_metrics(span_list, n, imports, out_bytes, kept, overhead)


def run_record(P: dict, out: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    g = ref.grid(P["grid"])
    clips = out["clips"]
    n_samples = len(clips[0])
    return {
        "cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_caps": thread_caps(),
        "commit": commit,
        "seed": P["seed"],
        "input": {
            "channels": g.n_channels,
            "frames": len(range(0, n_samples, P["hop"])),
            "audio_seconds": n_samples / P["rate"],
            "clips": len(clips),
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="run length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    ap.add_argument("--out", type=Path, default=None, help="directory for the result file")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tonescale" / "__init__.py").is_file():
        print(f"error: no tonescale sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    P = params(args.size, args.workload, args.seed)
    env = child_env()
    tmp = Path(tempfile.mkdtemp(prefix=".tmp-", dir=BENCH))
    try:
        setup = [] if args.trace else [setup_seconds(env, args.workload, P["grid"]) for _ in range(SETUP_REPEATS)]
        ctx = {"bench": BENCH, "root": ROOT, "env": env, "tmp": tmp}
        if args.workload == "cli-causal":
            out = cli_causal.run(ctx, P, args.seconds, args.trace)
            problems = cli_causal.check(out, P)
            peak_rss_kb = max(op["rss_kb"] for op in out["ops"])
        else:
            out = library.run(ctx, P, args.workload, args.seconds, args.trace)
            problems = library.check(out, P, args.workload)
            peak_rss_kb = out["peak_rss_kb"]
        metrics = per_layer(args.workload, P, out) if args.trace else None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ops = out["ops"]
    failed = sum(bool(p) for p in problems[: len(ops)])
    failed_traced = sum(bool(p) for p in problems[len(ops) :])
    for i, p in enumerate(problems):
        if p:
            print(f"op {i} failed: " + "; ".join(p), file=sys.stderr)
    if metrics is None:
        metrics = end_to_end(ops, failed, setup, peak_rss_kb)
    attempted = len(ops) + len(out.get("traced_ops", []))
    result = {
        "correct": failed + failed_traced == 0,
        "attempted": attempted,
        "failed": failed + failed_traced,
        "metrics": metrics,
    }
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": args.workload,
            "trace": args.trace,
            "size": args.size,
            "seconds": args.seconds,
            **result,
            "problems": [p for p in problems if p][:20],
            "ops": [{k: op.get(k) for k in ("kind", "item", "wall", "cpu", "audio")} for op in ops],
            "run": run_record(P, out),
        }
        name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
        (args.out / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
