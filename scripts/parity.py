#!/usr/bin/env python3
"""Record a fixed set of tonescale outputs, or compare two such records.

    PYTHONPATH=old/src python scripts/parity.py record /tmp/old
    PYTHONPATH=src python scripts/parity.py record /tmp/new
    python scripts/parity.py compare /tmp/old /tmp/new

``record DIR`` imports tonescale from the interpreter's own path, so each
tree records under its own PYTHONPATH. It writes every artifact of the set
as DIR/<index>.npy, and DIR/manifest.json with each artifact's class,
shape, dtype and SHA-256. The set covers Gauss, rec-log and rec-uni layer 1
on the default grid at hops 1, 44 and 441; every layer-2 feature on a
rec-log dB map at the CLI's settings, including the 5-member Gaussian bank;
``discrete_gaussian_smooth`` along every axis of 1-3-D arrays, with
length-1 axes and s = 0; ``discrete_recursive_smooth`` for K 1-12 on both
ladders, from rest and steady; and seven CLI commands on a seeded WAV,
with the bad arguments the CLI refuses and two runtime failures. Each CLI
case records its exit code and the files it created, its stdout, its
stderr and each file. ``--tiny`` records a few of each in about a second.

``compare A B`` prints, per artifact, "bitwise" or the largest difference
relative to the artifact's peak in A, then the largest gap per class, and
exits 1 if an artifact is missing from either side, changes shape or
dtype, or differs past its class's bound: 1e-9 of the peak for layer 1,
1e-12 for layer 2 and the smoothers, and one unit in the last printed place
of each number (one grey level of a PGM pixel) for CLI output, whose first
line (the exit code and the files created) must match exactly. A changed
stderr message is listed but never fails.

No digest is kept in the repository: maps are bitwise equal only within one
BLAS build, so both records should come from the same machine.
"""

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import math
import re
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

RATE = 44100
HOP = 44
# Layer-2 settings, the CLI defaults: tau_a, s, tau_i, s_i (seconds^2 and
# semitones^2), c_min, and the Gaussian bank's slopes and window.
TAU_A, S, TAU_I, S_I, C_MIN = 0.020**2, 0.5**2, 0.060**2, 1.0**2, 3.0
BANK, BANK_TAU_A = (-24.0, -12.0, 0.0, 12.0, 24.0), 0.060**2
BANK_FLAG = "--glissando-bank=" + ",".join(f"{v:g}" for v in BANK)
# (lowest and highest channel in Hz, bins per octave)
GRID, TINY_GRID = (80.0, 16000.0, 48), (1000.0, 8000.0, 6)
BOUNDS = {"layer1": 1e-9, "layer2": 1e-12, "cli": "one printed unit", "message": "none"}
CLI_RUNS = (
    ("spec-db", ["spectrogram", "--db", "--out-csv", "{o}.csv", "--out-pgm", "{o}.pgm"]),
    ("spec-uni", ["spectrogram", "--family", "rec-uni", "--out-csv", "{o}.csv"]),
    ("onsets", ["features", "--onsets", "--compensate-delay", "--out-pgm", "{o}.pgm"]),
    ("partials", ["features", "--partials", "--out-json", "{o}.json"]),
    ("sm", ["features", "--second-moment", "--out-csv", "{o}.csv"]),
    ("bank", ["features", BANK_FLAG, "--tau-a-ms", "60", "--out-csv", "{o}.csv"]),
    ("analyze", ["analyze"]),
)
# Bad arguments (exit 2, all but the last before the WAV is read), then two
# runtime failures (exit 1); the first two are in the tiny set too.
CLI_REFUSALS = (
    ("bad-c", ["kernels", "--c", "1", "--out-csv", "{o}.csv"]),
    ("bad-sigma-nu", ["features", "--bands", "--sigma-nu", "0", "--out-csv", "{o}.csv"]),
    ("bad-n", ["analyze", "--n", "nan"]),
    ("bad-K", ["spectrogram", "--K", "0", "--out-csv", "{o}.csv"]),
    ("bad-hop", ["spectrogram", "--hop-ms", "0", "--out-csv", "{o}.csv"]),
    ("bad-tau0", ["spectrogram", "--tau0-ms", "-1", "--out-csv", "{o}.csv"]),
    ("bad-tau-a", ["features", "--onsets", "--tau-a-ms", "0", "--out-csv", "{o}.csv"]),
    ("bad-bank", ["features", "--glissando-bank=nan,0", "--out-csv", "{o}.csv"]),
    ("bad-c-min", ["features", "--partials", "--c-min", "nan", "--out-json", "{o}.json"]),
    ("bad-level", ["features", "--partials", "--min-level-db", "nan", "--out-json", "{o}.json"]),
    ("bad-sm-order", ["features", "--second-moment", "--tau-i-ms", "10", "--out-csv", "{o}.csv"]),
    ("bad-db-range", ["spectrogram", "--db-min", "0", "--db-max", "-60", "--out-pgm", "{o}.pgm"]),
    ("bad-nu-range", ["spectrogram", "--nu-min", "90", "--nu-max", "80", "--out-csv", "{o}.csv"]),
    ("bad-nu-max", ["spectrogram", "--nu-max", "1e6", "--out-csv", "{o}.csv"]),
    ("bad-bins", ["spectrogram", "--bins-per-octave", "0", "--out-csv", "{o}.csv"]),
    (
        "bad-delay",
        ["spectrogram", "--family", "gauss", "--compensate-delay", "--out-csv", "{o}.csv"],
    ),
    ("bad-alpha", ["kernels", "--rf", "--alpha", "2", "--K", "2", "--out-csv", "{o}.csv"]),
    ("bad-tau", ["kernels", "--tau", "nan", "--out-csv", "{o}.csv"]),
    ("bad-dt", ["kernels", "--dt", "0", "--out-csv", "{o}.csv"]),
    ("bad-t-span", ["kernels", "--rf", "--t-span", "inf", "--out-pgm", "{o}.pgm"]),
    ("bad-pgm", ["kernels", "--out-pgm", "{o}.pgm"]),
    ("bad-hop-rate", ["spectrogram", "--hop-ms", "0.01", "--out-csv", "{o}.csv"]),
    ("fail-nyquist", ["spectrogram", "--nu-max", "140", "--out-csv", "{o}.csv"]),
    ("fail-slope", ["features", "--glissando-bank=1e300", "--out-csv", "{o}.csv"]),
)
NUMBER = re.compile(r"[-+]?(\d+)(?:\.(\d*))?(?:[eE]([-+]?\d+))?")


def signal(seed: int, seconds: float) -> np.ndarray:
    """A seeded chord, chirp, step tone and noise on the PCM-16 grid, so a
    WAV of it reads back exactly."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(round(seconds * RATE))) / RATE
    x = 1e-3 * rng.standard_normal(t.size)
    for f0 in 440.0 * 2.0 ** (rng.uniform(-14.0, 13.0, size=3) / 12.0):
        x += 0.07 * (t >= rng.uniform(0.0, 0.15) * seconds) * np.sin(2.0 * np.pi * f0 * t)
    k = rng.uniform(6.0, 30.0) * math.log(2.0) / 12.0  # semitones/s as a log-frequency rate
    x += 0.06 * np.sin(2.0 * np.pi * rng.uniform(900.0, 1800.0) * np.expm1(k * t) / k)
    x += 0.1 * (t >= 0.5 * seconds) * np.sin(2.0 * np.pi * rng.uniform(300.0, 3000.0) * t)
    return np.round(x * 32768.0) / 32768.0


def write_wav(path: Path, samples: np.ndarray) -> None:
    """Mono 16-bit PCM at RATE."""
    pcm = np.round(samples * 32768.0).astype("<i2").tobytes()
    fmt = struct.pack("<IHHIIHH", 16, 1, 1, RATE, 2 * RATE, 2, 16)
    body = b"WAVEfmt " + fmt + b"data" + struct.pack("<I", len(pcm)) + pcm
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def _gaussian_smooth(ts, x, s, axis):
    """The smoother at scale s. Older trees' smoother took s and built the
    kernel itself; calling it so keeps their records comparable."""
    if "kernel" in inspect.signature(ts.discrete_gaussian_smooth).parameters:
        return ts.discrete_gaussian_smooth(x, ts.discrete_gaussian_kernel(s), axis=axis)
    return ts.discrete_gaussian_smooth(x, s, axis=axis)


def _grid(ts, tiny: bool):
    lo, hi, bins = TINY_GRID if tiny else GRID
    return ts.build_frequency_grid(ts.midi_from_frequency(lo), ts.midi_from_frequency(hi), bins)


def layer1(tiny: bool):
    import tonescale as ts

    grid, x = _grid(ts, tiny), signal(1, 0.05 if tiny else 0.1)
    for kind in ts.temporal_scale_space.FAMILY_KINDS:
        for hop in (HOP,) if tiny else (1, HOP, 441):
            spec = ts.compute_spectrogram(x, RATE, grid, ts.SpectrogramFamily(kind), hop=hop)
            yield f"layer1/{kind}/hop{hop}", spec.values
            yield f"layer1/{kind}/hop{hop}/warmup", np.asarray(spec.warmup_frames)


def layer2(tiny: bool):
    import tonescale as ts

    x, family = signal(2, 0.5 if tiny else 1.0), ts.SpectrogramFamily("rec-log")
    log = ts.to_db(ts.compute_spectrogram(x, RATE, _grid(ts, tiny), family, HOP))
    features = {"onsets": ts.detect_onsets, "offsets": ts.detect_offsets, "bands": ts.enhance_bands}
    for name, feature in features.items():
        out = feature(log, TAU_A, S)
        yield f"layer2/{name}", out.values
        yield f"layer2/{name}/warmup", np.asarray(out.warmup_frames)
    band = ts.band_response(log, TAU_A, S)
    yield "layer2/band-response", band.values
    curves = ts.extract_partial_curves(band, c_min=C_MIN)
    yield "layer2/curves/lengths", np.array([len(c.frames) for c in curves], dtype=int)
    for field in ("frames", "nus", "strengths"):
        yield f"layer2/curves/{field}", np.concatenate([getattr(c, field) for c in curves] or [[]])
    sm = ts.second_moment_glissando(log, TAU_A, S, TAU_I, S_I)
    for field in ("upsilon_tt", "upsilon_tnu", "upsilon_nunu", "vhat", "defined", "warmup_frames"):
        yield f"layer2/second-moment/{field}", np.asarray(getattr(sm, field))
    window = ts.TemporalKernelSpec.gaussian(BANK_TAU_A)
    est = ts.glissando_filterbank(log, BANK[1:4] if tiny else BANK, BANK_TAU_A, S, window)
    for field in ("vhat", "response", "warmup_frames"):
        yield f"layer2/bank/{field}", np.asarray(getattr(est, field))


def smoothers(tiny: bool):
    import tonescale.temporal_scale_space as ts

    rng = np.random.default_rng(3)
    shapes = [(40,), (5, 33)]
    if not tiny:
        shapes = [(1,), (7,), (300,), (1, 50), (7, 1), (33, 70), (2, 70, 3), (9, 1, 40)]
    for shape in shapes:
        x = rng.normal(-40.0, 20.0, size=shape)
        x.reshape(-1)[1::5] = -0.0  # s = 0 keeps the sign of a zero
        for axis in range(len(shape)):
            for s in (0.0, 0.25, 4.0) if tiny else (0.0, 0.25, 4.0, 60.0, 900.0):
                yield f"gauss-smooth/{shape}/axis{axis}/s{s:g}", _gaussian_smooth(ts, x, s, axis)
    real = rng.normal(size=(60, 3) if tiny else (240, 6))
    cplx = rng.normal(size=(3, 150)) + 1j * rng.normal(size=(3, 150))
    smooth = ts.discrete_recursive_smooth
    for kind in ("rec-uni", "rec-log"):
        for K in (1, 3) if tiny else range(1, 13):
            ladder = ts.discretize_ladder(ts.SpectrogramFamily(kind, K=K).ladder(1e-4), 1000.0)
            for steady in (False, True):
                name = f"recursive-smooth/{kind}/K{K}/{'steady' if steady else 'rest'}"
                yield f"{name}/real", smooth(real, ladder, axis=0, steady=steady)
                yield f"{name}/complex", smooth(cplx, ladder, axis=1, steady=steady)


def cli(tiny: bool):
    from tonescale import midi_from_frequency as midi
    from tonescale.cli_io import cli_main

    lo, hi, bins = TINY_GRID
    flags = ["--nu-min", repr(midi(lo)), "--nu-max", repr(midi(hi)), "--bins-per-octave", str(bins)]
    runs = [(*run, tiny) for run in (CLI_RUNS[:1] if tiny else CLI_RUNS)]
    runs += [(*run, False) for run in (CLI_REFUSALS[:2] if tiny else CLI_REFUSALS)]
    with tempfile.TemporaryDirectory() as tmp:
        wav = Path(tmp) / "clip.wav"
        write_wav(wav, signal(4, 0.3 if tiny else 0.5))
        for kind, template, small_grid in runs:
            argv = [a.format(o=Path(tmp) / kind) for a in template]
            if argv[0] in ("spectrogram", "features"):
                argv[1:1] = [str(wav)]
                argv += flags if small_grid else []
            before, printed, errors = set(Path(tmp).iterdir()), io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(errors):
                code = cli_main(argv)
            made = sorted(set(Path(tmp).iterdir()) - before)
            head = f"exit {code}, files: {' '.join(path.name for path in made) or 'none'}\n"
            texts = {"stdout": head + printed.getvalue(), "stderr": errors.getvalue()}
            for stream, text in texts.items():
                yield f"cli/{kind}/{stream}", _bytes(text.replace(tmp, "{out}").encode())
            for path in made:
                yield f"cli/{kind}/{path.suffix[1:]}", _bytes(path.read_bytes())


def _bytes(raw: bytes) -> np.ndarray:
    return np.frombuffer(raw, dtype=np.uint8)


SETS = (("layer1", layer1), ("layer2", layer2), ("layer2", smoothers), ("cli", cli))


def record(out: Path, tiny: bool) -> int:
    import tonescale

    out.mkdir(parents=True, exist_ok=True)
    artifacts = {}
    for cls, make in SETS:
        for name, value in make(tiny):
            value = np.ascontiguousarray(value)
            file = f"{len(artifacts):04d}.npy"
            np.save(out / file, value)
            artifacts[name] = {
                "class": "message" if name.endswith("/stderr") else cls,
                "shape": list(value.shape),
                "dtype": str(value.dtype),
                "sha256": hashlib.sha256(value.tobytes()).hexdigest(),
                "file": file,
            }
    where = str(Path(tonescale.__file__).parent)
    manifest = {"tonescale": where, "numpy": np.__version__, "artifacts": artifacts}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"recorded {len(artifacts)} artifacts of {where} in {out}")
    return 0


def _numbers(raw: np.ndarray):
    """(values, units, skeleton) of a CLI output: each number of a text file
    with one unit in its last printed place and the text around the numbers,
    or each byte of a binary file with a unit of 1 and no skeleton. The
    "exit" line heading a run's stdout stays whole in the skeleton, so its
    exit code and file list must match exactly."""
    try:
        text = raw.tobytes().decode("ascii")
    except UnicodeDecodeError:
        return raw.astype(float), np.ones(raw.size), None
    head, text = text.partition("\n")[::2] if text.startswith("exit ") else ("", text)
    found = list(NUMBER.finditer(text))
    values = np.array([float(m.group()) for m in found])
    units = np.array([10.0 ** (int(m.group(3) or 0) - len(m.group(2) or "")) for m in found])
    return values, units, head + "\n" + NUMBER.sub("#", text)


def _difference(cls: str, a: np.ndarray, b: np.ndarray) -> tuple[float, bool]:
    """(largest difference relative to a's peak, whether it is within the bound)."""
    if cls == "cli":
        (a, units, skeleton), (b, _, other) = _numbers(a), _numbers(b)
        if a.shape != b.shape or skeleton != other:
            return math.inf, False
        within = bool(np.all(np.abs(a - b) <= 1.000001 * units))
    a, b = a.astype(np.result_type(a, float)), b.astype(np.result_type(b, float))
    peak = float(np.max(np.abs(a), initial=0.0))
    gap = float(np.max(np.abs(a - b), initial=0.0))
    ratio = gap / peak if peak > 0 else math.inf
    return ratio, within if cls == "cli" else ratio <= BOUNDS[cls]


def compare(a_dir: Path, b_dir: Path) -> int:
    a = json.loads((a_dir / "manifest.json").read_text())["artifacts"]
    b = json.loads((b_dir / "manifest.json").read_text())["artifacts"]
    failed, gaps = 0, dict.fromkeys(BOUNDS, 0.0)
    for name in sorted(set(b) - set(a)):
        print(f"{name}: only in B")
        failed += 1
    for name, meta in a.items():
        other = b.get(name)
        if other is None:
            verdict, ok = "only in A", False
        elif other["sha256"] == meta["sha256"]:
            verdict, ok = "bitwise", True
        elif meta["class"] == "message":
            verdict, ok = "changed (a message, listed only)", True
            gaps["message"] += 1
        elif (other["shape"], other["dtype"]) != (meta["shape"], meta["dtype"]):
            was, now = (f"{m['dtype']}{tuple(m['shape'])}" for m in (meta, other))
            verdict, ok = f"{was} became {now}", False
        else:
            arrays = np.load(a_dir / meta["file"]), np.load(b_dir / other["file"])
            gap, ok = _difference(meta["class"], *arrays)
            gaps[meta["class"]] = max(gaps[meta["class"]], gap)
            verdict = f"{gap:.3g} of peak"
            if not ok:
                verdict += f", past the {meta['class']} bound ({BOUNDS[meta['class']]})"
        print(f"{name}: {verdict}")
        failed += not ok
    shown = [f"{cls} {gap:.3g}" for cls, gap in gaps.items() if cls != "message"]
    print(f"largest gap per class: {', '.join(shown)}; {gaps['message']:g} messages changed")
    same = sum(b.get(name, {}).get("sha256") == meta["sha256"] for name, meta in a.items())
    print(f"{len(a)} artifacts in A, {same} bitwise, {failed} past their bound or unmatched")
    return 1 if failed else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="record the set from the tonescale on the path")
    rec.add_argument("dir", type=Path)
    rec.add_argument("--tiny", action="store_true", help="a few artifacts of each kind")
    cmp = sub.add_parser("compare", help="compare record A with record B")
    cmp.add_argument("a", type=Path)
    cmp.add_argument("b", type=Path)
    args = ap.parse_args()
    if args.command == "record":
        return record(args.dir, args.tiny)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
