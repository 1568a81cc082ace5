import argparse
import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from conftest import sine
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tonescale import cli_io
from tonescale.cli_io import (
    cli_main,
    read_grid_csv,
    read_wav,
    write_grid_csv,
    write_grid_pgm,
    write_wav,
)
from tonescale.spectrogram import midi_from_frequency
from tonescale.temporal_scale_space import SpectrogramFamily


def make_wav(fmt_body: bytes, data_body: bytes, tail: bytes = b"") -> bytes:
    chunks = b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
    if len(fmt_body) % 2:
        chunks += b"\x00"
    chunks += b"data" + struct.pack("<I", len(data_body)) + data_body
    if len(data_body) % 2:
        chunks += b"\x00"
    chunks += tail
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def pcm_fmt(tag: int, channels: int, rate: int, bits: int) -> bytes:
    frame = channels * bits // 8
    return struct.pack("<HHIIHH", tag, channels, rate, rate * frame, frame, bits)


# ---------------------------------------------------------------------------
# WAV decoding


def _run_without(code: str, *packages: str) -> None:
    """Run ``code`` in a fresh interpreter, then assert that no module of
    ``packages`` loaded."""
    src = os.path.dirname(os.path.dirname(cli_io.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    check = (
        "\nimport sys"
        f"\nloaded = sorted(m for m in sys.modules if m.split('.')[0] in {packages!r})"
        "\nassert not loaded, loaded[:5]"
    )
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run(
        [sys.executable, "-c", code + check], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr


def test_cli_import_leaves_scipy_signal_unloaded():
    """Every CLI call pays for its imports; importing any SciPy submodule
    clones the numpy namespace (0.35-0.45 s), so the CLI loads none."""
    _run_without("import tonescale.cli_io", "scipy")


def test_cli_import_loads_no_thread_pool_or_logging():
    """Layer 1 runs on the calling thread, so the CLI imports neither
    ``concurrent.futures`` nor the ``logging`` it pulls in: together about
    9 ms of every start-up."""
    _run_without("import tonescale.cli_io", "concurrent", "logging")


def test_every_command_runs_without_scipy(tmp_path):
    """SciPy is a test-only dependency: spectrograms of every family, every
    layer-2 feature, analyze and kernels never import it."""
    wav = tmp_path / "tone.wav"
    write_wav(wav, sine(440.0, 0.1, 8000.0, amp=0.5), 8000.0)
    o = str(tmp_path / "o")
    commands = [
        ["spectrogram", str(wav), "--db", "--out-csv", o + ".csv", "--out-pgm", o + ".pgm"],
        ["spectrogram", str(wav), "--family", "rec-uni", "--out-csv", o + ".csv"],
        ["spectrogram", str(wav), "--compensate-delay", "--out-csv", o + ".csv"],
        ["spectrogram", str(wav), "--family", "gauss", "--db", "--out-csv", o + ".csv"],
        ["features", str(wav), "--family", "gauss", "--bands", "--out-csv", o + ".csv"],
        ["features", str(wav), "--onsets", "--out-csv", o + ".csv"],
        ["features", str(wav), "--glissando-bank=-12,0,12", "--out-csv", o + ".csv"],
        ["features", str(wav), "--second-moment", "--out-csv", o + ".csv"],
        ["features", str(wav), "--partials", "--out-json", o + ".json"],
        ["analyze"],
        ["kernels", "--out-csv", o + ".csv"],
        ["kernels", "--family", "gauss", "--out-csv", o + ".csv"],
        ["kernels", "--rf", "--beta", "2", "--out-csv", o + ".csv"],
    ]
    _run_without(
        "from tonescale.cli_io import cli_main\n"
        f"for argv in {commands!r}:\n    assert cli_main(argv) == 0, argv",
        "scipy",
    )


def test_wav_pcm16_roundtrip(tmp_path):
    x = sine(440.0, 0.05, 8000.0, amp=0.7)
    path = tmp_path / "tone.wav"
    write_wav(path, x, 8000.0)
    buf = read_wav(path)
    assert buf.rate == 8000.0
    assert buf.samples.shape == x.shape
    # one LSB of rounding plus the 32767/32768 encoder scale
    np.testing.assert_allclose(buf.samples, x, atol=2.0 / 32768)


def test_wav_pcm24_sign_extension(tmp_path):
    ints = [0, 1, -1, 4194304, 8388607, -8388608]
    body = b"".join(struct.pack("<i", v)[:3] for v in ints)
    path = tmp_path / "p24.wav"
    path.write_bytes(make_wav(pcm_fmt(1, 1, 48000, 24), body))
    buf = read_wav(path)
    expected = np.array(ints, dtype=np.float64) / 8388608.0
    np.testing.assert_allclose(buf.samples, expected, rtol=0, atol=0)
    assert buf.rate == 48000.0


def test_wav_pcm32(tmp_path):
    ints = np.array([0, 2**30, -(2**31), 2**31 - 1], dtype="<i4")
    path = tmp_path / "p32.wav"
    path.write_bytes(make_wav(pcm_fmt(1, 1, 44100, 32), ints.tobytes()))
    buf = read_wav(path)
    np.testing.assert_allclose(buf.samples, ints / 2147483648.0, atol=0)


def test_wav_float32_clips_out_of_range(tmp_path):
    vals = np.array([0.25, -0.5, 1.5, -2.0], dtype="<f4")
    path = tmp_path / "f32.wav"
    path.write_bytes(make_wav(pcm_fmt(3, 1, 22050, 32), vals.tobytes()))
    buf = read_wav(path)
    np.testing.assert_allclose(buf.samples, [0.25, -0.5, 1.0, -1.0], atol=0)


def test_wav_stereo_collapses_to_mean(tmp_path):
    frames = np.array([[16384, -16384], [8192, 24576]], dtype="<i2")
    path = tmp_path / "st.wav"
    path.write_bytes(make_wav(pcm_fmt(1, 2, 8000, 16), frames.tobytes()))
    buf = read_wav(path)
    np.testing.assert_allclose(buf.samples, [0.0, 0.5], atol=0)


def test_wav_extensible_header(tmp_path):
    sub = struct.pack("<H", 1) + b"\x00\x00" + b"\x00" * 12
    fmt_body = pcm_fmt(0xFFFE, 1, 16000, 16) + struct.pack("<HHI", 22, 16, 4) + sub
    ints = np.array([100, -100], dtype="<i2")
    path = tmp_path / "ext.wav"
    path.write_bytes(make_wav(fmt_body, ints.tobytes()))
    buf = read_wav(path)
    np.testing.assert_allclose(buf.samples, ints / 32768.0, atol=0)


def test_wav_rejects_non_riff(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"OggS" + b"\x00" * 40)
    with pytest.raises(ValueError, match="not a RIFF/WAVE"):
        read_wav(path)


def test_wav_truncated_chunk_reports_offsets(tmp_path):
    good = make_wav(pcm_fmt(1, 1, 8000, 16), b"\x00\x00" * 10)
    path = tmp_path / "trunc.wav"
    path.write_bytes(good[:-6])  # data chunk now claims more than the file has
    with pytest.raises(ValueError, match=r"truncated file: chunk 'data'.*byte offset"):
        read_wav(path)


def test_wav_data_ending_mid_frame(tmp_path):
    # stereo 16-bit needs 4 bytes per frame; 6 bytes is one and a half
    path = tmp_path / "mid.wav"
    path.write_bytes(make_wav(pcm_fmt(1, 2, 8000, 16), b"\x00" * 6))
    with pytest.raises(ValueError, match="mid-frame at byte offset"):
        read_wav(path)


def test_wav_trailing_partial_chunk_header(tmp_path):
    path = tmp_path / "tail.wav"
    path.write_bytes(make_wav(pcm_fmt(1, 1, 8000, 16), b"\x00\x00", tail=b"JUNK"))
    with pytest.raises(ValueError, match="not a complete chunk header"):
        read_wav(path)


def test_wav_unsupported_shapes(tmp_path):
    cases = [
        (pcm_fmt(1, 1, 8000, 8), b"\x00", "unsupported bit depth 8"),
        (pcm_fmt(2, 1, 8000, 16), b"\x00\x00", "unsupported WAV format tag 2"),
        (pcm_fmt(3, 1, 8000, 64), b"\x00" * 8, "unsupported bit depth 64 for float"),
        (pcm_fmt(1, 1, 0, 16), b"\x00\x00", "invalid sample rate"),
    ]
    for idx, (fmt_body, data, message) in enumerate(cases):
        path = tmp_path / f"bad{idx}.wav"
        path.write_bytes(make_wav(fmt_body, data))
        with pytest.raises(ValueError, match=message):
            read_wav(path)


def test_wav_missing_data_chunk(tmp_path):
    fmt_body = pcm_fmt(1, 1, 8000, 16)
    raw = b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt_body)) + b"WAVE"
    raw += b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
    path = tmp_path / "nodata.wav"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="missing data chunk"):
        read_wav(path)


def _fuzz_bases() -> list[bytes]:
    """Valid files of every supported layout, a few frames each."""
    pcm16 = struct.pack("<6h", 0, 1000, -1000, 32767, -32768, 5)
    float32 = struct.pack("<4f", 0.25, -0.5, 1.5, 0.0)
    extensible = struct.pack("<HHIIHHH", 0xFFFE, 2, 8000, 48000, 6, 24, 22)
    extensible += struct.pack("<HIH", 24, 3, 1) + bytes(14)
    return [
        make_wav(pcm_fmt(1, 1, 8000, 16), pcm16),
        make_wav(pcm_fmt(1, 2, 44100, 16), pcm16, tail=b"LIST" + struct.pack("<I", 3) + b"abc\x00"),
        make_wav(pcm_fmt(3, 1, 8000, 32), float32),
        make_wav(pcm_fmt(1, 1, 8000, 32), float32),
        make_wav(extensible, bytes(range(12))),
        make_wav(pcm_fmt(1, 3, 8000, 24), bytes(range(18))),
    ]


FUZZ_BASES = _fuzz_bases()
_edits = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 80), st.binary(min_size=1, max_size=6)),
    st.tuples(st.just("cut"), st.integers(0, 80), st.just(b"")),
    st.tuples(st.just("extend"), st.integers(0, 0), st.binary(min_size=1, max_size=24)),
    st.tuples(st.just("insert"), st.integers(0, 80), st.binary(min_size=1, max_size=8)),
)


@settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(base=st.integers(0, len(FUZZ_BASES) - 1), edits=st.lists(_edits, min_size=1, max_size=5))
def test_read_wav_returns_audio_or_value_error_on_mutated_bytes(base, edits, tmp_path):
    """Header bytes overwritten (sizes, tags, channel counts, rates, bit
    depths), the file truncated, extended or given inserted bytes: the
    reader decodes it or names the fault, never failing inside struct or
    numpy."""
    raw = bytearray(FUZZ_BASES[base])
    for kind, at, blob in edits:
        if kind == "set":
            raw[at : at + len(blob)] = blob
        elif kind == "cut":
            del raw[at:]
        elif kind == "extend":
            raw += blob
        else:
            raw[at:at] = blob
    path = tmp_path / "fuzz.wav"
    path.write_bytes(bytes(raw))
    try:
        buf = read_wav(path)
    except ValueError:
        return
    assert buf.rate > 0
    assert buf.samples.ndim == 1 and buf.samples.dtype == np.float64
    assert np.all(np.abs(buf.samples) <= 1.0)


# ---------------------------------------------------------------------------
# Grid CSV / PGM


def test_grid_csv_roundtrip_is_stable(tmp_path, rng):
    nu = np.array([60.0, 60.25, 60.5])
    times = np.array([0.0, 0.001, 0.002, 0.003])
    values = np.round(rng.normal(size=(4, 3)), 6)
    first = tmp_path / "a.csv"
    write_grid_csv(first, nu, times, values)
    nu2, times2, values2 = read_grid_csv(first)
    np.testing.assert_allclose(nu2, nu, atol=0)
    np.testing.assert_allclose(times2, times, atol=0)
    np.testing.assert_allclose(values2, values, atol=0)
    second = tmp_path / "b.csv"
    write_grid_csv(second, nu2, times2, values2)
    assert first.read_bytes() == second.read_bytes()


def test_grid_csv_complex_roundtrip(tmp_path, rng):
    nu = np.array([69.0, 69.5])
    times = np.array([0.0, 0.001])
    values = np.round(rng.normal(size=(2, 2)), 6) + 1j * np.round(rng.normal(size=(2, 2)), 6)
    path = tmp_path / "c.csv"
    write_grid_csv(path, nu, times, values)
    _, _, back = read_grid_csv(path)
    np.testing.assert_allclose(back, values, atol=0)


def per_cell_format(value) -> str:
    """The per-cell formatter write_grid_csv used before it formatted whole
    columns, kept as the oracle for the file bytes."""
    if np.iscomplexobj(np.asarray(value)) or isinstance(value, complex):
        z = complex(value)
        return f"{z.real:.6f}{z.imag:+.6f}j"
    return f"{float(value):.6f}"


# signed zeros, rounding halves at 6 decimals, the carry into a seventh
# integer digit, a tiny magnitude and the non-finite values
CSV_EDGE_CELLS = [0.0, -0.0, 5e-7, 2.5e-6, 123.4564995, 999999.9999995, 1e6, 1e-300]
CSV_EDGE_CELLS += [-x for x in CSV_EDGE_CELLS[2:]] + [math.nan, math.inf, -math.inf]
csv_cells = st.one_of(st.sampled_from(CSV_EDGE_CELLS), st.floats())


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    data=st.data(),
    n_frames=st.integers(1, 6),
    n_ch=st.integers(1, 4),
    dtype=st.sampled_from([np.float64, np.float32, np.complex128, np.complex64]),
)
def test_grid_csv_bytes_match_the_per_cell_formatter(tmp_path, data, n_frames, n_ch, dtype):
    shape = (n_frames, n_ch)
    grid = st.lists(csv_cells, min_size=n_frames * n_ch, max_size=n_frames * n_ch)
    values = np.zeros(shape, dtype=np.complex128)
    values.real = np.reshape(data.draw(grid), shape)
    if np.issubdtype(dtype, np.complexfloating):
        values.imag = np.reshape(data.draw(grid), shape)
    else:
        values = values.real
    with np.errstate(over="ignore"):
        values = values.astype(dtype)
    nu = np.linspace(60.0, 61.0, n_ch)
    times = np.arange(n_frames) * 0.001
    path = tmp_path / "grid.csv"
    write_grid_csv(path, nu, times, values)
    lines = ["nu\t" + "\t".join(f"{t:.6f}" for t in times)]
    for ch in range(n_ch):
        lines.append(f"{nu[ch]:.6f}\t" + "\t".join(map(per_cell_format, values[:, ch])))
    assert path.read_text() == "\n".join(lines) + "\n"


def test_grid_csv_validation(tmp_path):
    with pytest.raises(ValueError, match="does not match"):
        write_grid_csv(tmp_path / "x.csv", np.arange(3.0), np.arange(2.0), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="empty grid"):
        write_grid_csv(tmp_path / "y.csv", np.array([]), np.array([]), np.zeros((0, 0)))
    bad = tmp_path / "z.csv"
    bad.write_text("time,value\n0,1\n")
    with pytest.raises(ValueError, match="missing 'nu' header"):
        read_grid_csv(bad)


def test_grid_pgm_mapping_rounds_half_up(tmp_path):
    # one frame, four channels; 127.5/255 is the exact midpoint case
    values = np.array([[-0.5, 127.5 / 255.0, 1.0, 2.0]])
    path = tmp_path / "img.pgm"
    write_grid_pgm(path, values, 0.0, 1.0)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n1 4\n255\n")
    pixels = raw[len(b"P5\n1 4\n255\n") :]
    # top row is the highest channel
    assert list(pixels) == [255, 255, 128, 0]


def test_grid_pgm_dimensions_and_orientation(tmp_path):
    values = np.array([[0.0, 0.5, 1.0], [0.25, 0.75, 1.0]])  # 2 frames x 3 channels
    path = tmp_path / "dims.pgm"
    write_grid_pgm(path, values, 0.0, 1.0)
    raw = path.read_bytes()
    header = b"P5\n2 3\n255\n"
    assert raw.startswith(header)
    img = np.frombuffer(raw[len(header) :], dtype=np.uint8).reshape(3, 2)
    np.testing.assert_array_equal(img[0], [255, 255])  # highest nu first
    np.testing.assert_array_equal(img[2], [0, 64])


def test_grid_pgm_validation(tmp_path):
    with pytest.raises(ValueError, match="bad grayscale range"):
        write_grid_pgm(tmp_path / "r.pgm", np.ones((2, 2)), 1.0, 1.0)
    # a NaN floor once wrote cast-garbage pixels, an infinite ceiling a black image
    path = tmp_path / "n.pgm"
    for lo, hi in ((math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0), (0.0, -60.0)):
        with pytest.raises(ValueError) as refused:
            write_grid_pgm(path, np.ones((2, 2)), lo, hi)
        assert str(refused.value).startswith(f"{path}: bad grayscale range [{lo}, {hi}]")
        assert not path.exists()
    with pytest.raises(ValueError, match="empty grid"):
        write_grid_pgm(tmp_path / "e.pgm", np.zeros((0, 3)), 0.0, 1.0)


# ---------------------------------------------------------------------------
# CLI plumbing


@pytest.fixture()
def tone_wav(tmp_path):
    path = tmp_path / "tone.wav"
    write_wav(path, sine(440.0, 0.8, 8000.0, amp=0.5), 8000.0)
    return path


def test_cli_analyze_prints_tables(capsys):
    assert cli_main(["analyze", "--table", "2"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "K=8" in out
    assert "uniform" in out


def test_cli_analyze_rejects_unknown_table(capsys):
    assert cli_main(["analyze", "--table", "9"]) == 2
    assert "error: no table 9; choose 1, 2, or 3" in capsys.readouterr().err
    assert cli_main(["analyze", "--out-csv", "x.csv"]) == 2
    assert "--out-csv needs --table" in capsys.readouterr().err


POSITIVE, NON_NEGATIVE = "must be positive and finite", "must be non-negative and finite"
SM_FLAGS = "--tau-a-ms, --sigma-nu, --tau-i-ms, --sigma-nu-i:"
DB_FLAGS = "--db-min, --db-max:"


def _extent_rows(key: str) -> list:
    """A non-finite kernels extent, by flag and from the config file."""
    flag, rf = "--" + key.replace("_", "-"), ["--rf"] if key in ("t_span", "nu_span", "dnu") else []
    return [
        (["kernels", *rf, *source], flag, f"{key} {POSITIVE}, got {value}")
        for value in ("nan", "inf")
        for source in ([flag, value], [{key: float(value)}])
    ]


# Every bad argument the CLI refuses before it reads the WAV or writes a
# file: (argv, flag named in the message, library or CLI text). A dict in
# argv is written as a config file and passed with --config.
REFUSALS = [
    *[(["kernels", "--c", c], "--c:", "ratio c > 1") for c in ("nan", "inf", "1", "0.5")],
    *[([cmd, "--K", "0"], "--K", "stage count K >= 1") for cmd in ("kernels", "spectrogram")],
    (["spectrogram", "--hop-ms", "0"], "--hop-ms", POSITIVE + ", got 0.0"),
    (["spectrogram", "--hop-ms", "-5"], "--hop-ms", POSITIVE + ", got -5.0"),
    (["spectrogram", "--hop-ms", "nan"], "--hop-ms", POSITIVE + ", got nan"),
    (["spectrogram", {"hop_ms": 0}], "--hop-ms", POSITIVE + ", got 0.0"),
    (["spectrogram", "--tau0-ms", "-1"], "--tau0-ms", NON_NEGATIVE),
    (["features", "--onsets", "--tau-a-ms", "-20"], "--tau-a-ms", NON_NEGATIVE),
    (["features", "--onsets", "--tau-a-ms", "inf"], "--tau-a-ms", NON_NEGATIVE),
    (["features", "--onsets", "--tau-a-ms", "0"], "--tau-a-ms:", "tau " + POSITIVE),
    (["features", "--onsets", "--sigma-nu", "-0.5"], "--sigma-nu", NON_NEGATIVE),
    (["features", "--onsets", "--sigma-nu", "inf"], "--sigma-nu", NON_NEGATIVE),
    (["features", "--second-moment", "--tau-i-ms", "-60"], "--tau-i-ms", NON_NEGATIVE),
    (["features", "--second-moment", "--sigma-nu-i", "nan"], "--sigma-nu-i", NON_NEGATIVE),
    (["features", "--glissando-bank", "nan,0"], "--glissando-bank:", "v must be finite, got nan"),
    (["features", "--glissando-bank", "0,inf"], "--glissando-bank:", "v must be finite, got inf"),
    (["spectrogram", "--n", "nan"], "--n,", "n must be finite, got nan"),
    (["features", "--onsets", "--n", "0"], "--n,", "n must be positive, got 0.0"),
    (["features", "--partials", "--c-min", "nan"], "--c-min", "must be finite, got nan"),
    (["features", "--glissando-bank=-12,0,12", "--c-min=-inf"], "--c-min", "must be finite"),
    (["features", "--partials", "--min-level-db", "nan"], "--min-level-db", "finite, got nan"),
    *[
        (["features", sel, "--sigma-nu", "0"], "--sigma-nu", "spectral derivative needs s > 0")
        for sel in ("--bands", "--partials", "--glissando-bank=-12,0,12")
    ],
    *[
        (["features", "--second-moment", *extent], SM_FLAGS, "at least the derivative scales")
        for extent in (["--tau-i-ms", "10"], ["--sigma-nu", "2"])
    ],
    (["features", "--glissando-bank", ","], "--glissando-bank:", "bank must not be empty"),
    (["features", {"glissando_bank": []}], "--glissando-bank:", "bank must not be empty"),
    (["features", "--onsets", "--c-min", "inf"], "--c-min:", "c_min must be finite, got inf"),
    (["spectrogram", "--db-min", "0", "--db-max", "-60"], DB_FLAGS, "range [0.0, -60.0]"),
    (["spectrogram", "--db-min", "nan"], DB_FLAGS, "bad grayscale range [nan, 0.0]"),
    (["spectrogram", "--db-max", "inf"], DB_FLAGS, "bad grayscale range [-60.0, inf]"),
    (["spectrogram", "--nu-min", "90", "--nu-max", "80"], "--nu-max", "nu_min must be below"),
    (["features", "--onsets", "--nu-min", "nan"], "--nu-min", "must be finite, got nan"),
    (["spectrogram", "--bins-per-octave", "0"], "--bins-per-octave:", "at least 1, got 0"),
    (["spectrogram", "--nu-max", "1e6"], "--nu-max", "window law gives a variance of 0.0"),
    (["kernels", "--rf", "--alpha", "2", "--K", "2"], "--alpha", "order 2 needs more than 2"),
    (["kernels", "--rf", "--alpha", "3"], "--alpha", "alpha and beta must lie in 0..2"),
    (["kernels", "--rf", "--v", "nan"], "--v:", "glissando slope v must be finite"),
    (["kernels", "--rf", "--tau-a-ms", "0"], "--tau-a-ms:", "tau " + POSITIVE),
    *[
        (["kernels", "--family", family, "--dt", dt], "--dt", POSITIVE)
        for family in ("gauss", "rec-uni", "rec-log")
        for dt in ("0", "-0.001", "nan", "inf")
    ],
    *[
        (["kernels", *rf, *source], "--sigma-nu", POSITIVE + ", got 0.0")
        for rf in ([], ["--rf"])
        for source in (["--sigma-nu", "0"], [{"sigma_nu": 0.0}])
    ],
    *[row for key in ("tau", "dt", "t_span", "nu_span", "dnu") for row in _extent_rows(key)],
    *[
        (argv + [flag, "1e200"], flag + ":", "1e+200 squares past the float range")
        for argv, flag in (
            (["spectrogram"], "--tau0-ms"),
            (["features", "--onsets"], "--tau-a-ms"),
            (["features", "--second-moment"], "--tau-i-ms"),
            (["features", "--onsets"], "--sigma-nu"),
            (["features", "--second-moment"], "--sigma-nu-i"),
            (["kernels", "--rf"], "--tau-a-ms"),
            (["kernels", "--rf"], "--sigma-nu"),
        )
    ],
]


@pytest.mark.parametrize(
    "argv, flag, text",
    REFUSALS,
    ids=[" ".join(map(str, argv)).replace("--", "") for argv, _, _ in REFUSALS],
)
def test_cli_refuses_a_bad_argument_before_any_work(
    argv, flag, text, tone_wav, tmp_path, capsys, monkeypatch
):
    """Exit 2, the flag and the reason in the message, no traceback, no
    output, and no WAV read: a bad option costs no input or layer-1 work."""

    def unexpected(*args, **kwargs):
        raise AssertionError("the WAV was read before the option check")

    monkeypatch.setattr(cli_io, "read_wav", unexpected)
    outs = [tmp_path / name for name in ("o.csv", "o.pgm", "o.json")]
    command, *rest = argv
    files = ["--out-csv", str(outs[0])]
    if command != "kernels" or "--rf" in rest:
        files += ["--out-pgm", str(outs[1])]
    if "--partials" in rest:
        files += ["--out-json", str(outs[2])]
    if isinstance(rest[-1], dict):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(rest[-1]))
        rest[-1:] = ["--config", str(config)]
    wav = [str(tone_wav)] if cli_io.COMMANDS[command].takes_wav else []
    assert cli_main([command, *wav, *rest, *([] if command == "analyze" else files)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err
    assert flag in err and text in err
    assert not any(path.exists() for path in outs)


@pytest.mark.parametrize(
    "seconds, flags, shape, warning",
    [
        (0.1, [], (101, 368), "warning: 368 of 368 channels are warm-up in all 101 frames"),
        (0.5, ["--nu-min", "84"], (502, 190), None),
    ],
)
def test_cli_features_warns_of_channels_warm_up_in_every_frame(
    seconds, flags, shape, warning, tmp_path, capsys
):
    """A clip shorter than the band field's warm-up still writes its map and
    exits 0, and stderr says how many channels never leave warm-up; a clip
    long enough for every channel says nothing."""
    wav, out = tmp_path / "clip.wav", tmp_path / "b.csv"
    write_wav(wav, sine(440.0, seconds, 44100.0), 44100.0)
    assert cli_main(["features", str(wav), "--bands", *flags, "--out-csv", str(out)]) == 0
    stdout, err = capsys.readouterr()
    assert stdout == f"wrote {out}\n"
    if warning is None:
        assert err == ""
    else:
        assert err == warning + "; the input is shorter than their warm-up\n"
    assert read_grid_csv(out)[2].shape == shape


def test_cli_requires_an_output(tone_wav, capsys):
    assert cli_main(["spectrogram", str(tone_wav)]) == 2
    assert "error: no output requested" in capsys.readouterr().err
    assert cli_main(["kernels"]) == 2
    assert "error: no output requested" in capsys.readouterr().err


def test_cli_missing_input_is_a_runtime_error(tmp_path, capsys):
    missing = tmp_path / "nope.wav"
    assert cli_main(["spectrogram", str(missing), "--out-csv", str(tmp_path / "o.csv")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sampler, argv, message",
    [
        ("temporal_profiles", ["kernels"], "Unable to allocate 89.0 TiB for an array"),
        ("rf_kernel_image", ["kernels", "--rf"], ""),
    ],
    ids=["impulse", "rf-bare"],
)
def test_cli_reports_running_out_of_memory_as_a_runtime_error(
    sampler, argv, message, tmp_path, monkeypatch, capsys
):
    """A sampling step too fine to allocate (``--dt 1e-12`` asks numpy for
    tens of TiB) is an error line with exit 1 and no file, not a traceback.
    The sampler raises in place of a real allocation, which a host that
    overcommits memory could grant and then kill the process for."""

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli_io, sampler, exhausted)
    out = tmp_path / "k.csv"
    assert cli_main([*argv, "--out-csv", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message or 'out of memory'}\n"
    assert not out.exists()


def test_cli_rejects_a_hop_longer_than_the_input(tone_wav, tmp_path, capsys):
    out = tmp_path / "o.csv"
    argv = ["spectrogram", str(tone_wav), "--hop-ms", "900", "--out-csv", str(out)]
    assert cli_main(argv) == 1  # the WAV holds 0.8 s
    assert "error: hop (7200 samples) is longer than the signal" in capsys.readouterr().err
    assert not out.exists()


def test_cli_refuses_a_hop_that_rounds_to_no_sample(tmp_path, capsys, monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("layer 1 ran with a hop of no samples")

    monkeypatch.setattr(cli_io, "compute_spectrogram", unexpected)
    wav = tmp_path / "t.wav"
    write_wav(wav, sine(440.0, 0.3, 44100.0), 44100.0)
    out = tmp_path / "o.csv"
    argv = ["spectrogram", str(wav), "--hop-ms", "0.01", "--out-csv", str(out)]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --hop-ms 0.01 ") and "44100 Hz" in err
    assert not out.exists()


def test_cli_refuses_a_hop_past_the_float_range(tmp_path, capsys, monkeypatch):
    """1e308 ms is inf samples, which once ended in an OverflowError traceback."""

    def unexpected(*args, **kwargs):
        raise AssertionError("layer 1 ran with a hop of inf samples")

    monkeypatch.setattr(cli_io, "compute_spectrogram", unexpected)
    wav = tmp_path / "t.wav"
    write_wav(wav, sine(440.0, 0.3, 44100.0), 44100.0)
    out = tmp_path / "o.csv"
    argv = ["spectrogram", str(wav), "--hop-ms", "1e308", "--out-csv", str(out)]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --hop-ms 1e+308 is inf samples ") and "44100 Hz" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--onsets", "--tau-a-ms", "1e150"],
        ["--second-moment", "--tau-i-ms", "1e150"],
        ["--onsets", "--tau0-ms", "1e150"],
    ],
    ids=["tau-a", "tau-i", "tau0"],
)
def test_cli_reports_a_warm_up_past_2_to_the_53_as_exit_1(argv, tone_wav, tmp_path, capsys):
    """A cascade at 1e300 s^2 once ended in an OverflowError traceback where
    its warm-up count was summed."""
    out = tmp_path / "o.csv"
    assert cli_main(["features", str(tone_wav), *argv, "--out-csv", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a cascade warm-up of ") and err.endswith("not below 2^53\n")
    assert err.count("\n") == 1 and not out.exists()


def test_cli_refuses_a_glissando_slope_too_large_for_the_warp(tone_wav, tmp_path):
    """A slope that shifts a frame by 2^53 channels or more is an error
    message, not a traceback from inside the warp."""
    src = os.path.dirname(os.path.dirname(cli_io.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "o.csv"
    code = "import sys; from tonescale.cli_io import main; sys.argv[0] = 'tonescale'; main()"
    argv = ["features", str(tone_wav), "--glissando-bank=1e300", "--out-csv", str(out)]
    run = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 1
    assert run.stderr.startswith("error: glissando slope v = 1e+300")
    assert "Traceback" not in run.stderr
    assert not out.exists()


def test_cli_help_shows_how_to_write_a_bank_with_a_negative_first_member(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli_main(["features", "--help"]) == 0
    assert "--glissando-bank=-12,0,12" in " ".join(capsys.readouterr().out.split())
    # the spelling the help warns against is taken for a missing value
    assert cli_main(["features", "x.wav", "--glissando-bank", "-12,0,12"]) == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["spectrogram"], ["features", "--onsets"]], ids=["spectrogram", "features"]
)
def test_cli_refuses_delay_compensation_of_gauss_before_any_work(
    command, tone_wav, tmp_path, capsys, monkeypatch
):
    def unexpected(*args, **kwargs):
        raise AssertionError("layer-1 work started before the option check")

    monkeypatch.setattr(cli_io, "read_wav", unexpected)
    monkeypatch.setattr(cli_io, "compute_spectrogram", unexpected)
    out = tmp_path / "o.csv"
    argv = [command[0], str(tone_wav), *command[1:], "--family", "gauss", "--compensate-delay"]
    assert cli_main(argv + ["--out-csv", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: --compensate-delay, --family: "
        "delay measures and compensation apply to causal families only\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("c", ["1.0000001", "1.00001"])
def test_cli_compensates_delays_of_a_ratio_close_to_1(c, tmp_path):
    """The delay kernel's support covers its first stage's exponential tail,
    which carries nearly all of tau as c tends to 1."""
    wav = tmp_path / "tone.wav"
    write_wav(wav, sine(440.0, 0.1, 8000.0, amp=0.5), 8000.0)
    out = tmp_path / "o.csv"
    argv = ["spectrogram", str(wav), "--c", c, "--compensate-delay", "--out-csv", str(out)]
    assert cli_main(argv) == 0
    assert out.exists()


def test_cli_refuses_delays_of_a_ratio_too_close_to_1(tmp_path, capsys):
    """Layer 1 accepts c = 1 + 1e-9 on these low channels. A delay kernel
    sampled at mu_min / 20 would have needed 4.9M samples, and the ratio
    was refused with exit 2; the exact kernel's delays need no samples, so
    the compensated map is written."""
    wav = tmp_path / "tone.wav"
    write_wav(wav, sine(440.0, 0.1, 44100.0, amp=0.5), 44100.0)
    out = tmp_path / "o.csv"
    argv = ["spectrogram", str(wav), "--c", "1.000000001", "--nu-max", "80", "--compensate-delay"]
    assert cli_main(argv + ["--out-csv", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.exists()


def test_cli_config_precedence(tone_wav, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps({"bins_per_octave": 12, "nu_min": 60.0, "nu_max": 66.0, "hop_ms": 5.0})
    )
    out_a = tmp_path / "a.csv"
    args = ["spectrogram", str(tone_wav), "--config", str(config), "--db"]
    assert cli_main(args + ["--out-csv", str(out_a)]) == 0
    nu, _, _ = read_grid_csv(out_a)
    assert len(nu) == 7  # config bins win over the default

    out_b = tmp_path / "b.csv"
    assert cli_main(args + ["--out-csv", str(out_b), "--bins-per-octave", "24"]) == 0
    nu_b, _, _ = read_grid_csv(out_b)
    assert len(nu_b) == 13  # explicit flag wins over the config
    capsys.readouterr()


def test_cli_default_grid_follows_the_input_rate(tone_wav, tmp_path, capsys):
    # 8 kHz input: the default top channel drops to within one bin below Nyquist
    nyquist = midi_from_frequency(4000.0)
    out = tmp_path / "d8.csv"
    assert cli_main(["spectrogram", str(tone_wav), "--db", "--out-csv", str(out)]) == 0
    nu, _, _ = read_grid_csv(out)
    assert nyquist - 2 * 0.25 <= nu[-1] < nyquist
    # an explicit top channel at Nyquist is still refused
    args = ["spectrogram", str(tone_wav), "--nu-max", repr(nyquist), "--out-csv", str(out)]
    assert cli_main(args) == 1
    assert "at or above the Nyquist frequency" in capsys.readouterr().err
    # 44.1 kHz input keeps the 368-channel, 80 Hz to 16 kHz grid
    wav = tmp_path / "t44k.wav"
    write_wav(wav, sine(440.0, 0.05, 44100.0), 44100.0)
    out = tmp_path / "d44.csv"
    assert cli_main(["spectrogram", str(wav), "--db", "--hop-ms", "10", "--out-csv", str(out)]) == 0
    nu, _, _ = read_grid_csv(out)
    assert len(nu) == 368
    assert nu[0] == pytest.approx(midi_from_frequency(80.0), abs=1e-6)
    assert nu[-1] >= midi_from_frequency(16000.0)
    capsys.readouterr()


def test_cli_rejects_unknown_config_key(tone_wav, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"bogus_key": 1}))
    code = cli_main(
        ["spectrogram", str(tone_wav), "--config", str(config), "--out-csv", "x.csv"]
    )
    assert code == 2
    assert "unknown config key 'bogus_key'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value",
    [
        ("compensate_delay", "no"),
        ("compensate_delay", 1),
        ("db", "true"),
        ("K", "x"),
        ("K", 7.5),
        ("K", True),
        ("bins_per_octave", None),
        ("nu_min", "low"),
        ("nu_min", [60]),
        ("family", "hann"),
        ("out_csv", 3),
    ],
)
def test_cli_rejects_config_value_of_the_wrong_type(key, value, tone_wav, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({key: value}))
    out = tmp_path / "x.csv"
    argv = ["spectrogram", str(tone_wav), "--config", str(config), "--out-csv", str(out)]
    assert cli_main(argv) == 2
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_values_convert_through_their_option_type(tone_wav, tmp_path, monkeypatch):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {"K": "5", "c": 2, "nu_min": "60", "compensate_delay": True, "glissando_bank": [5, 10]}
        )
    )
    argv = ["features", str(tone_wav), "--config", str(config)]
    cfg = _merged_settings(monkeypatch, argv)
    assert (cfg["K"], cfg["c"], cfg["nu_min"]) == (5, 2.0, 60.0)
    assert type(cfg["c"]) is float and type(cfg["nu_min"]) is float
    assert cfg["compensate_delay"] is True
    assert cfg["glissando_bank"] == [5, 10]


def test_cli_spectrogram_is_deterministic(tone_wav, tmp_path, capsys):
    outs = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
    base = [
        "spectrogram",
        str(tone_wav),
        "--nu-min",
        "64",
        "--nu-max",
        "74",
        "--bins-per-octave",
        "24",
        "--hop-ms",
        "5",
        "--db",
    ]
    for out in outs:
        assert cli_main(base + ["--out-csv", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_features_accept_a_sigma_nu_of_0(source, tone_wav, tmp_path):
    out = tmp_path / "o.csv"
    argv = ["features", str(tone_wav), "--onsets", "--out-csv", str(out)]
    if source == "flag":
        argv += ["--sigma-nu", "0"]
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sigma_nu": 0.0}))
        argv += ["--config", str(config)]
    assert cli_main(argv) == 0
    assert out.exists()


@pytest.mark.parametrize("family", ["rec-uni", "rec-log"])
def test_cli_kernels_impulse_is_normalized(family, tmp_path, capsys):
    out = tmp_path / "kern.csv"
    argv = ["kernels", "--family", family, "--K", "4", "--tau", "0.04", "--out-csv", str(out)]
    assert cli_main(argv) == 0
    assert out.read_text().splitlines()[0] == "t\th\th_t\th_tt"
    rows = np.loadtxt(out, skiprows=1)
    t, h = rows[:, 0], rows[:, 1]
    assert t[0] == 0.0
    mean = SpectrogramFamily(family, K=4).ladder(0.04).mu_sum  # 0.4 s for rec-uni
    assert np.trapezoid(h, t) == pytest.approx(1.0, abs=1e-3)
    assert np.trapezoid(h * t, t) == pytest.approx(mean, abs=1e-3)
    # derivative columns integrate back to zero net change
    assert np.trapezoid(rows[:, 2], t) == pytest.approx(0.0, abs=1e-3)
    assert np.trapezoid(rows[:, 3], t) == pytest.approx(0.0, abs=1e-2)
    capsys.readouterr()


def test_cli_partials_json(tone_wav, tmp_path, capsys):
    out = tmp_path / "partials.json"
    code = cli_main(
        [
            "features",
            str(tone_wav),
            "--partials",
            "--nu-min",
            "64",
            "--nu-max",
            "74",
            "--bins-per-octave",
            "24",
            "--hop-ms",
            "5",
            "--out-json",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["curves"], "expected at least one partial curve"
    longest = max(payload["curves"], key=lambda c: len(c["frames"]))
    assert longest["mean_nu"] == pytest.approx(69.0, abs=0.15)
    assert len(longest["frames"]) == len(longest["nus"]) == len(longest["strengths"])
    capsys.readouterr()


# ---------------------------------------------------------------------------
# CLI surface: flags, destinations, types and merged defaults per subcommand

FAMILIES = ("gauss", "rec-uni", "rec-log")
LAYER1_FLAGS = {
    "family": (str, FAMILIES, False),
    "K": (int, None, False),
    "c": (float, None, False),
    "n": (float, None, False),
    "tau0_ms": (float, None, False),
    "bins_per_octave": (int, None, False),
    "nu_min": (float, None, False),
    "nu_max": (float, None, False),
    "hop_ms": (float, None, False),
    "compensate_delay": (None, None, True),
    "out_csv": (str, None, False),
    "out_pgm": (str, None, False),
    "config": (str, None, False),
}
SURFACE = {
    "spectrogram": {
        **LAYER1_FLAGS,
        "db": (None, None, True),
        "db_min": (float, None, False),
        "db_max": (float, None, False),
    },
    "features": {
        **LAYER1_FLAGS,
        "onsets": (None, None, True),
        "offsets": (None, None, True),
        "bands": (None, None, True),
        "partials": (None, None, True),
        "glissando_bank": (str, None, False),
        "second_moment": (None, None, True),
        "tau_a_ms": (float, None, False),
        "sigma_nu": (float, None, False),
        "tau_i_ms": (float, None, False),
        "sigma_nu_i": (float, None, False),
        "c_min": (float, None, False),
        "min_level_db": (float, None, False),
        "out_json": (str, None, False),
    },
    "analyze": {
        "table": (int, None, False),
        "out_csv": (str, None, False),
        "config": (str, None, False),
    },
    "kernels": {
        "family": (str, FAMILIES, False),
        "K": (int, None, False),
        "c": (float, None, False),
        "tau": (float, None, False),
        "dt": (float, None, False),
        "rf": (None, None, True),
        "alpha": (int, None, False),
        "beta": (int, None, False),
        "v": (float, None, False),
        "sigma_nu": (float, None, False),
        "tau_a_ms": (float, None, False),
        "t_span": (float, None, False),
        "nu_span": (float, None, False),
        "dnu": (float, None, False),
        "out_csv": (str, None, False),
        "out_pgm": (str, None, False),
        "config": (str, None, False),
    },
}
TAKES_WAV = {"spectrogram": True, "features": True, "analyze": False, "kernels": False}

LAYER1_MERGED = {
    "family": "rec-log",
    "K": 7,
    "c": math.sqrt(2.0),
    "n": 8.0,
    "tau0_ms": 0.0,
    "bins_per_octave": 48,
    "nu_min": midi_from_frequency(80.0),
    "nu_max": None,  # derived from the input's sample rate when the grid is built
    "hop_ms": 1.0,
    "compensate_delay": False,
    "out_csv": None,
    "out_pgm": None,
}
MERGED = {
    "spectrogram": {**LAYER1_MERGED, "db": False, "db_min": -60.0, "db_max": 0.0},
    "features": {
        **LAYER1_MERGED,
        "tau_a_ms": 20.0,
        "sigma_nu": 0.5,
        "tau_i_ms": 60.0,
        "sigma_nu_i": 1.0,
        "c_min": 3.0,
        "min_level_db": -70.0,
        "onsets": False,
        "offsets": False,
        "bands": False,
        "partials": False,
        "second_moment": False,
        "glissando_bank": None,
        "out_json": None,
    },
    "analyze": {"table": None, "out_csv": None},
    "kernels": {
        "family": "rec-log",
        "K": 7,
        "c": math.sqrt(2.0),
        "tau": 1.0,
        "dt": None,
        "rf": False,
        "alpha": 0,
        "beta": 0,
        "v": 0.0,
        "sigma_nu": 0.5,
        "tau_a_ms": 20.0,
        "t_span": None,
        "nu_span": None,
        "dnu": None,
        "out_csv": None,
        "out_pgm": None,
    },
}


def _subparsers() -> dict:
    parser = cli_io.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_cli_flag_surface(command):
    got, positionals = {}, []
    for action in _subparsers()[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:
            positionals.append(action.dest)
            continue
        store_true = isinstance(action, argparse._StoreTrueAction)
        kind = None if store_true else (action.type or str)
        flag = "--" + action.dest.replace("_", "-")
        assert action.option_strings == [flag]
        choices = tuple(action.choices) if action.choices else None
        got[action.dest] = (kind, choices, store_true)
    assert got == SURFACE[command]
    assert positionals == (["wav"] if TAKES_WAV[command] else [])


def _merged_settings(monkeypatch, argv: list) -> dict:
    """The settings a command would run with, stopped right after merging."""
    seen = []
    real = cli_io._merge_settings

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        raise cli_io.CliError(99, "merged")

    monkeypatch.setattr(cli_io, "_merge_settings", spy)
    try:
        assert cli_main(argv) == 99
    finally:
        monkeypatch.undo()
    return seen[0]


def _command_argv(command: str, wav) -> list:
    return [command, str(wav)] if TAKES_WAV[command] else [command]


@pytest.mark.parametrize("command", sorted(MERGED))
def test_cli_merged_defaults(command, tone_wav, tmp_path, monkeypatch):
    argv = _command_argv(command, tone_wav)
    assert _merged_settings(monkeypatch, argv) == MERGED[command]
    # every own key is a valid config key, and a config of the defaults changes nothing
    config = tmp_path / "all.json"
    config.write_text(json.dumps(MERGED[command]))
    assert _merged_settings(monkeypatch, argv + ["--config", str(config)]) == MERGED[command]


@pytest.mark.parametrize("flag", ["--db-min", "--db-max"])
def test_cli_features_has_no_pgm_range(flag, tone_wav, tmp_path, capsys):
    """Feature PGMs render over their own range, so the spectrogram's dB
    range is not a features option (it was accepted and ignored)."""
    out = tmp_path / "o.pgm"
    argv = ["features", str(tone_wav), "--onsets", flag, "5", "--out-pgm", str(out)]
    assert cli_main(argv) == 2
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,key",
    [
        ("spectrogram", "tau"),
        ("spectrogram", "onsets"),
        ("features", "db"),
        ("features", "db_min"),
        ("features", "table"),
        ("analyze", "family"),
        ("kernels", "nu_min"),
        ("kernels", "db"),
    ],
)
def test_cli_rejects_config_key_of_another_command(command, key, tone_wav, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({key: 1}))
    argv = _command_argv(command, tone_wav) + ["--config", str(config), "--out-csv", "x.csv"]
    assert cli_main(argv) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err
