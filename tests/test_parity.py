"""The parity harness, ``scripts/parity.py``, on its tiny set.

Two records of one tree must compare bitwise, also when the second runs on
one CPU (one layer-1 worker, single-threaded BLAS), and a change past an
artifact's bound, or a changed exit code, must fail the comparison; a
changed error message is listed without failing it.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "parity.py"


def parity(*args, prefix=()):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [*prefix, sys.executable, str(SCRIPT), *map(str, args)]
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)


def record(path, prefix=()):
    done = parity("record", path, "--tiny", prefix=prefix)
    assert done.returncode == 0, done.stderr
    return path


def assert_bitwise(a, b):
    done = parity("compare", a, b)
    lines = done.stdout.splitlines()
    assert done.returncode == 0, done.stdout
    assert len(lines) > 40 and all(line.endswith(": bitwise") for line in lines[:-2])
    assert lines[-2] == "largest gap per class: layer1 0, layer2 0, cli 0; 0 messages changed"


@pytest.fixture(scope="module")
def first(tmp_path_factory):
    return record(tmp_path_factory.mktemp("parity") / "first")


def test_two_records_compare_bitwise(first, tmp_path):
    assert_bitwise(first, record(tmp_path / "again"))


def test_a_record_on_one_cpu_compares_bitwise(first, tmp_path):
    if shutil.which("taskset") is None:
        pytest.skip("taskset is not installed, so the record cannot be pinned to one CPU")
    assert_bitwise(first, record(tmp_path / "one-cpu", prefix=("taskset", "-c", "0")))


@pytest.mark.parametrize(
    "name, change, verdict",
    [
        ("layer2/band-response", 1e-10, "past the layer2 bound"),
        ("layer1/rec-log/hop44", 1e-8, "past the layer1 bound"),
        ("layer1/rec-log/hop44", 1e-12, "of peak"),
        ("cli/spec-db/csv", "cell", "past the cli bound"),
        ("cli/spec-db/stdout", "exit", "past the cli bound"),
        ("cli/bad-c/stdout", "exit", "past the cli bound"),
        ("cli/bad-c/stderr", "message", "listed only"),
    ],
)
def test_compare_fails_past_the_class_bound(first, tmp_path, name, change, verdict):
    """A changed number fails past its class's bound, a changed exit code at
    once; a changed error message is listed only."""
    changed = tmp_path / "changed"
    shutil.copytree(first, changed)
    manifest = json.loads((changed / "manifest.json").read_text())
    meta = manifest["artifacts"][name]
    values = np.load(changed / meta["file"])
    if isinstance(change, float):
        values = values + change * np.max(np.abs(values))
    else:
        text = values.tobytes().decode()
        if change == "cell":  # a CSV cell moved by two units in its last place
            cell = text.split("\t")[2]
            moved = f"{float(cell) + 2e-6:.6f}"
            assert moved != cell and len(moved) == len(cell)
        elif change == "exit":  # one unit, within the bound of any other printed number
            code = int(text.split(",")[0].split()[1])
            cell, moved = f"exit {code},", f"exit {code - 1 if code else 1},"
        else:
            cell, moved = "error: ", "error: changed "
        assert cell in text
        values = np.frombuffer(text.replace(cell, moved, 1).encode(), dtype=np.uint8)
    np.save(changed / meta["file"], values)
    meta["sha256"] = hashlib.sha256(values.tobytes()).hexdigest()
    (changed / "manifest.json").write_text(json.dumps(manifest))
    done = parity("compare", first, changed)
    line = [line for line in done.stdout.splitlines() if line.startswith(name + ":")]
    assert line and verdict in line[0]
    assert done.returncode == (1 if "past" in verdict else 0)
