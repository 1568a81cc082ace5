"""The benchmark's own tests: metric coverage, failure detection, determinism.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import cli_causal  # noqa: E402
import inputs  # noqa: E402
import library  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_appears_for_a_tiny_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and np.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _scratch():
    """A directory inside the benchmark's own (ignored) temp area."""
    tmp = Path(tempfile.mkdtemp(prefix=".tmp-", dir=BENCH))
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp)


scratch = pytest.fixture(_scratch)


@pytest.fixture(scope="module")
def gauss_run():
    P = run.params("tiny", "gauss-corpus", 5)
    for tmp in _scratch():
        ctx = {"bench": BENCH, "root": ROOT, "env": run.child_env(), "tmp": tmp}
        yield P, library.run(ctx, P, "gauss-corpus", 0.1, 0)


def test_unchanged_outputs_pass(gauss_run):
    P, out = gauss_run
    assert not any(library.check(out, P, "gauss-corpus"))


def test_db_map_shifted_by_one_db_is_a_failed_op(gauss_run):
    P, out = gauss_run
    bad = json.loads(json.dumps(out["ops"][0]))
    bad["fp"]["L"]["values"] = [v + 1.0 for v in bad["fp"]["L"]["values"]]
    problems = library.check({**out, "ops": [bad]}, P, "gauss-corpus")
    assert len(problems) == 1 and any("L cells" in p for p in problems[0])


def test_layer1_cell_off_by_a_millionth_is_a_failed_op(gauss_run):
    P, out = gauss_run
    bad = json.loads(json.dumps(out["ops"][0]))
    bad["fp"]["S"]["re"][0] *= 1.0 + 1e-6
    bad["fp"]["S"]["re"][0] += 1e-6
    problems = library.check({**out, "ops": [bad]}, P, "gauss-corpus")
    assert any("S cells" in p for p in problems[0])


def test_shifted_cli_csv_is_a_failed_op(scratch):
    P = run.params("tiny", "cli-causal", 6)
    x = inputs.synth(P["seed"], 0, P["clip_seconds"])
    R = cli_causal.reference_outputs(x, P)
    values = R["log"].values + 1.0
    csv = scratch / "op0.csv"
    lines = ["nu\t" + "\t".join(f"{t:.6f}" for t in R["log"].frame_times)]
    for ch, nu in enumerate(R["grid"].nu):
        lines.append(f"{nu:.6f}\t" + "\t".join(f"{v:.6f}" for v in values[:, ch]))
    csv.write_text("\n".join(lines) + "\n")
    img = ref.pixels(R["log"].values, -60.0, 0.0).astype(np.uint8).T[::-1, :]
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    (scratch / "op0.pgm").write_bytes(header + img.tobytes())
    rec = {"kind": "spec-db", "code": 0, "stdout": "", "stderr": "", "stem": str(scratch / "op0")}
    problems = cli_causal.check_op(rec, R, P)
    assert len(problems) == 1 and "spec-db csv" in problems[0]


def test_same_seed_gives_byte_identical_inputs(scratch):
    a, b = inputs.synth(7, 1, 0.25), inputs.synth(7, 1, 0.25)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != inputs.synth(8, 1, 0.25).tobytes()
    assert a.tobytes() != inputs.synth(7, 2, 0.25).tobytes()
    inputs.write_wav(scratch / "a.wav", a)
    inputs.write_wav(scratch / "b.wav", b)
    assert (scratch / "a.wav").read_bytes() == (scratch / "b.wav").read_bytes()
    assert np.array_equal(np.round(a * 32768.0) / 32768.0, a)


def test_exits_nonzero_without_the_program(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(BENCH, scratch / "perfbench", ignore=shutil.ignore_patterns(".tmp-*", "__pycache__"))
    proc = _run("--workload", "gauss-corpus", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=scratch)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
