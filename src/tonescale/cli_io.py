"""Command-line interface: WAV ingestion, configuration, serialization.

Subcommands:
  spectrogram   multi-scale complex or dB spectrogram of a WAV file
  features      onset/offset/band/partial/glissando maps from a WAV file
  analyze       reference tables: bandwidth constants and kernel delays
  kernels       impulse responses and receptive-field kernel grids

Two tables drive the parser. ``OPTIONS`` maps each option's destination
to its type, default and help; the flag is ``--`` plus the destination
with ``_`` turned into ``-``, bool options are store_true flags, and the
help text renders the default from the table. ``COMMANDS`` gives each
subcommand its handler, whether it reads a WAV, its option keys in flag
order, and its help. A JSON config file (``--config run.json``) can supply
any option of the subcommand by its destination name; explicit flags
override the file, which overrides the table defaults, and any other key
is an error.

Exit codes: 0 success, 2 bad arguments, 1 runtime failure. The library owns
every rule on a value it takes: a command builds the library objects it needs
before it reads the WAV, and a refused one exits 2 naming its flags. The CLI
owns only the rules of its unit conversions (``EXTENTS``) and of its outputs
and selectors. Identical inputs and settings give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import struct
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from tonescale.features import (
    TEMPORAL_FAMILY,
    band_field,
    band_response,
    bank_fields,
    detect_offsets,
    detect_onsets,
    enhance_bands,
    extract_partial_curves,
    glissando_filterbank,
    ridge_mask,
    ridge_threshold,
    second_moment_glissando,
    second_moment_kernels,
)
from tonescale.receptive_fields import RFSpec, rf_kernel_image
from tonescale.selectivity_analysis import (
    bandwidth_constant_table,
    delay_max_table,
    delay_mean_table,
)
from tonescale.spectrogram import (
    WindowScaleLaw,
    build_frequency_grid,
    channel_delays,
    compute_spectrogram,
    delay_compensate,
    midi_from_frequency,
    to_db,
)
from tonescale.temporal_scale_space import (
    FAMILY_KINDS,
    SpectrogramFamily,
    temporal_profiles,
)


class CliError(Exception):
    """CLI failure carrying the process exit code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


# ---------------------------------------------------------------------------
# WAV ingestion


@dataclass
class AudioBuffer:
    """Mono audio in [-1, 1] at a fixed sample rate (Hz)."""

    samples: np.ndarray
    rate: float


def read_wav(path: str | Path) -> AudioBuffer:
    """Decode a RIFF/WAVE file to mono float64.

    Supports PCM 16/24/32-bit integers (scaled by 2^(bits-1)) and 32-bit
    float, plain or wrapped in an extensible header. Multi-channel audio is
    collapsed by arithmetic mean; float data is clipped to [-1, 1].
    """
    p = Path(path)
    raw = p.read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{p}: not a RIFF/WAVE file")
    fmt_body: bytes | None = None
    data_body: bytes | None = None
    data_start = 0
    pos = 12
    while pos + 8 <= len(raw):
        name = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        start = pos + 8
        end = start + size
        if end > len(raw):
            raise ValueError(
                f"{p}: truncated file: chunk {name.decode('latin-1')!r} needs data up to "
                f"byte offset {end} but the file ends at byte offset {len(raw)}"
            )
        if name == b"fmt ":
            fmt_body = raw[start:end]
        elif name == b"data":
            data_body = raw[start:end]
            data_start = start
        pos = end + (size & 1)  # chunks are word-aligned
    leftover = len(raw) - pos
    if 0 < leftover < 8:
        raise ValueError(
            f"{p}: truncated file: {leftover} trailing bytes at byte offset {pos} "
            "are not a complete chunk header"
        )
    if fmt_body is None:
        raise ValueError(f"{p}: missing fmt chunk")
    if data_body is None:
        raise ValueError(f"{p}: missing data chunk")
    if len(fmt_body) < 16:
        raise ValueError(f"{p}: fmt chunk too short ({len(fmt_body)} bytes)")
    tag, n_channels, rate, _byte_rate, _block_align, bits = struct.unpack_from(
        "<HHIIHH", fmt_body, 0
    )
    if tag == 0xFFFE:  # extensible: the real tag leads the SubFormat GUID
        if len(fmt_body) < 26:
            raise ValueError(f"{p}: extensible fmt chunk too short")
        (tag,) = struct.unpack_from("<H", fmt_body, 24)
    if tag not in (1, 3):
        raise ValueError(f"{p}: unsupported WAV format tag {tag}")
    if n_channels < 1:
        raise ValueError(f"{p}: invalid channel count {n_channels}")
    if rate == 0:
        raise ValueError(f"{p}: invalid sample rate 0")
    if tag == 3:
        if bits != 32:
            raise ValueError(f"{p}: unsupported bit depth {bits} for float data")
        bytes_per = 4
    elif bits in (16, 24, 32):
        bytes_per = bits // 8
    else:
        raise ValueError(f"{p}: unsupported bit depth {bits}")
    frame_size = bytes_per * n_channels
    n_frames = len(data_body) // frame_size
    if n_frames * frame_size != len(data_body):
        raise ValueError(
            f"{p}: truncated file: sample data ends mid-frame at byte offset "
            f"{data_start + len(data_body)}"
        )
    if tag == 3:
        x = np.frombuffer(data_body, dtype="<f4").astype(np.float64)
        x = np.clip(x, -1.0, 1.0)
    elif bits == 16:
        x = np.frombuffer(data_body, dtype="<i2").astype(np.float64) / 32768.0
    elif bits == 32:
        x = np.frombuffer(data_body, dtype="<i4").astype(np.float64) / 2147483648.0
    else:  # 24-bit little-endian, sign-extended
        b = np.frombuffer(data_body, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        vals = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        vals = (vals ^ 0x800000) - 0x800000
        x = vals.astype(np.float64) / 8388608.0
    if n_channels > 1:
        x = x.reshape(n_frames, n_channels).mean(axis=1)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{p}: non-finite samples in float data")
    return AudioBuffer(samples=x, rate=float(rate))


def write_wav(path: str | Path, samples: np.ndarray, rate: float) -> None:
    """Write mono 16-bit PCM; test and demo helper."""
    x = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = np.round(x * 32767.0).astype("<i2").tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, int(rate), 2 * int(rate), 2, 16)
    header += b"data" + struct.pack("<I", len(pcm))
    Path(path).write_bytes(header + pcm)


# ---------------------------------------------------------------------------
# Grid serialization


def _write_text(path: str | Path, lines: list[str]) -> None:
    """Write lines as a text file; an OSError names the path."""
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"{path}: {exc}") from exc


def write_grid_csv(
    path: str | Path, nu: np.ndarray, frame_times: np.ndarray, values: np.ndarray
) -> None:
    """Tab-separated grid: header row "nu<TAB>frame times", one row per
    channel in ascending nu, cells formatted with 6 decimals ('.' decimal).
    Complex cells are written as re+imj."""
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError(f"{path}: refusing to write an empty grid")
    if values.shape != (len(frame_times), len(nu)):
        raise ValueError(
            f"{path}: value shape {values.shape} does not match "
            f"{len(frame_times)} frames x {len(nu)} channels"
        )
    lines = ["nu\t" + "\t".join(f"{float(t):.6f}" for t in frame_times)]
    is_complex = np.iscomplexobj(values)
    for ch in range(len(nu)):
        col = values[:, ch]
        if is_complex:
            cells = map("%.6f%+.6fj".__mod__, zip(col.real.tolist(), col.imag.tolist()))
        else:
            cells = map("%.6f".__mod__, col.tolist())
        lines.append(f"{float(nu[ch]):.6f}\t" + "\t".join(cells))
    _write_text(path, lines)


def read_grid_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of write_grid_csv: (nu, frame_times, values)."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("nu\t"):
        raise ValueError(f"{path}: not a grid CSV (missing 'nu' header)")
    frame_times = np.array([float(tok) for tok in lines[0].split("\t")[1:]])
    nu = []
    rows = []
    is_complex = "j" in lines[1] if len(lines) > 1 else False
    for line in lines[1:]:
        if not line:
            continue
        toks = line.split("\t")
        nu.append(float(toks[0]))
        if is_complex:
            rows.append([complex(tok) for tok in toks[1:]])
        else:
            rows.append([float(tok) for tok in toks[1:]])
    values = np.array(rows).T  # back to (n_frames, n_channels)
    return np.array(nu), frame_times, values


def _grey_range(lo: float, hi: float, where: str = "") -> None:
    """Refuse a PGM grey range [lo, hi] unless lo < hi, both finite."""
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"{where}bad grayscale range [{lo}, {hi}]: needs finite lo < hi")


def write_grid_pgm(path: str | Path, values: np.ndarray, lo: float, hi: float) -> None:
    """Binary PGM (P5): width = frames, height = channels, top row = highest
    nu. Pixels map [lo, hi] to [0, 255] with clamping, rounding half up."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError(f"{path}: refusing to write an empty grid")
    _grey_range(lo, hi, f"{path}: ")
    x = np.clip((v - lo) / (hi - lo), 0.0, 1.0)
    pix = np.floor(255.0 * x + 0.5).astype(np.uint8)
    img = pix.T[::-1, :]  # (channels, frames), row 0 = highest nu
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    try:
        Path(path).write_bytes(header + img.tobytes())
    except OSError as exc:
        raise OSError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Option table

NU_MAX_DEFAULT = midi_from_frequency(16000.0)

# destination -> (type, default, help). The flag is "--" plus the destination
# with "_" turned into "-"; a bool option is a store_true flag that is off by
# default; a tuple type lists the choices of a string option. Help texts
# that name their own default describe one derived at run time.
OPTIONS: dict[str, tuple] = {
    "family": (FAMILY_KINDS, "rec-log", "temporal window family"),
    "K": (int, 7, "cascade stages"),
    "c": (float, math.sqrt(2.0), "logarithmic ladder ratio"),
    "n": (float, 8.0, "carrier periods per window extent"),
    "tau0_ms": (float, 0.0, "base window extent sigma_0 in ms, added in variance"),
    "bins_per_octave": (int, 48, "log-frequency grid density"),
    "nu_min": (float, midi_from_frequency(80.0), "lowest channel in MIDI units, 69 being 440 Hz"),
    "nu_max": (
        float,
        None,
        f"highest channel in MIDI units (default: {NU_MAX_DEFAULT:.2f} = 16 kHz, lowered to "
        "one bin below the input's Nyquist frequency)",
    ),
    "hop_ms": (float, 1.0, "frame hop in ms"),
    "compensate_delay": (bool, False, "advance each causal channel by its first-inflection delay"),
    "out_csv": (str, None, "write the result as CSV (analyze: the table picked by --table)"),
    "out_pgm": (str, None, "write the result as binary PGM (kernels: --rf grids only)"),
    "db_min": (float, -60.0, "PGM grayscale floor in dB"),
    "db_max": (float, 0.0, "PGM grayscale ceiling in dB"),
    "config": (str, None, "JSON file supplying option values by destination name; flags override"),
    "db": (bool, False, "write dB magnitude instead of complex values in the CSV"),
    "onsets": (bool, False, "rectified rise map"),
    "offsets": (bool, False, "rectified decay map"),
    "bands": (bool, False, "rectified spectral band map"),
    "partials": (bool, False, "linked partial-tone curves (JSON via --out-json)"),
    "glissando_bank": (
        str,
        None,
        "per-cell best slope over a comma-separated bank (semitones/s), zeroed where the "
        "band response stays below --c-min; slope resolution grows with --tau-a-ms "
        "(60 ms suits 10-40 st/s); write a bank that starts with a negative slope "
        "as --glissando-bank=-12,0,12",
    ),
    "second_moment": (bool, False, "glissando slope map from the smoothed second-moment matrix"),
    "tau_a_ms": (float, 20.0, "second-layer temporal extent sigma_a in ms, squared to tau_a"),
    "sigma_nu": (float, 0.5, "second-layer spectral extent in semitones"),
    "tau_i_ms": (float, 60.0, "second-moment integration extent sigma_i in ms"),
    "sigma_nu_i": (float, 1.0, "second-moment spectral integration extent in semitones"),
    "c_min": (float, 3.0, "minimum band strength for partial-curve and slope points"),
    "min_level_db": (
        float,
        -70.0,
        "drop partial curves whose median spectrogram level is below this many dB "
        "re full scale (set very low to keep all)",
    ),
    "out_json": (str, None, "write partial curves as JSON"),
    "table": (int, None, "print a single table: 1, 2, or 3"),
    "tau": (float, 1.0, "impulse-response scale in seconds^2"),
    "dt": (float, None, "sample spacing in s (default: sqrt(tau)/2000, or sigma_a/50 for --rf)"),
    "rf": (bool, False, "sample the two-dimensional receptive-field kernel instead"),
    "alpha": (int, 0, "temporal derivative order 0..2"),
    "beta": (int, 0, "spectral derivative order 0..2"),
    "v": (float, 0.0, "glissando shear in semitones/s"),
    "t_span": (float, None, "time half-span in s for --rf (default: auto)"),
    "nu_span": (float, None, "frequency half-span in semitones for --rf (default: 4 sigma-nu)"),
    "dnu": (float, None, "frequency spacing in semitones for --rf (default: sigma-nu/25)"),
}
METAVARS = {"glissando_bank": "V1,V2,..."}
# The rules of the CLI's own unit conversions; the library object a command
# builds refuses every other value. EXTENTS bounds what the CLI converts (hop
# and spacing positive; extents it squares non-negative, as a variance loses
# their sign, and ``_variance`` refuses a square past the float range) and
# the level floor it applies itself (finite: a NaN admits nothing), each as
# (what the value must be, test). None is a derived default; a (command,
# option) key overrides a rule: a kernel image needs a spectral extent.
POSITIVE = ("positive and finite", lambda value: 0 < value < math.inf)
NON_NEGATIVE = ("non-negative and finite", lambda value: 0 <= value < math.inf)
EXTENTS = dict.fromkeys(("hop_ms", "dt", ("kernels", "sigma_nu")), POSITIVE)
EXTENTS.update(dict.fromkeys(("tau_a_ms", "tau_i_ms", "tau0_ms", "sigma_nu"), NON_NEGATIVE))
EXTENTS.update(sigma_nu_i=NON_NEGATIVE, min_level_db=("finite", math.isfinite))
SELECTORS = ("onsets", "offsets", "bands", "partials", "glissando_bank", "second_moment")
LAYER1_OPTIONS = ("family", "K", "c", "n", "tau0_ms", "bins_per_octave", "nu_min", "nu_max")
LAYER1_OPTIONS += ("hop_ms", "compensate_delay", "out_csv", "out_pgm", "config")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _help(key: str) -> str:
    """An option's help text with its default rendered from OPTIONS."""
    kind, default, text = OPTIONS[key]
    if kind is bool or default is None:
        return text
    shown = f"{default:.4g}" if isinstance(default, float) else default
    return f"{text} (default: {shown})"


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(2, f"config {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(2, f"config {path}: invalid JSON ({exc})") from exc
    if not isinstance(config, dict):
        raise CliError(2, f"config {path}: expected a JSON object")
    return config


def _config_value(key: str, raw):
    """A config-file value checked against its option's type in OPTIONS.

    Numbers may also be given as strings, which convert as on the command
    line; a bool option takes only JSON true/false; null stands for the
    default of an option whose default is None. ``glissando_bank`` may also
    be a list of slopes.
    """
    kind, default, _ = OPTIONS[key]
    if raw is None and default is None:
        return None
    if kind is bool:
        if isinstance(raw, bool):
            return raw
        raise CliError(2, f"config key {key!r}: expected true or false, got {raw!r}")
    if isinstance(kind, tuple):
        if raw in kind:
            return raw
        raise CliError(2, f"config key {key!r}: expected one of {', '.join(kind)}, got {raw!r}")
    if kind is str:
        if isinstance(raw, str) or (key == "glissando_bank" and isinstance(raw, list)):
            return raw
        raise CliError(2, f"config key {key!r}: expected a string, got {raw!r}")
    numeric = (int,) if kind is int else (int, float)
    if isinstance(raw, numeric) and not isinstance(raw, bool):
        return kind(raw)
    if isinstance(raw, str):
        try:
            return kind(raw)
        except ValueError:
            pass
    name = "an integer" if kind is int else "a number"
    raise CliError(2, f"config key {key!r}: expected {name}, got {raw!r}")


def _merge_settings(args: argparse.Namespace) -> dict:
    """The subcommand's options: flags (not None) override config file
    values, which override the OPTIONS defaults. The config file may name
    any option of the subcommand except ``config`` itself, with a value of
    the option's type. Every ``EXTENTS`` option is checked here, before
    any input is read."""
    keys = [key for key in COMMANDS[args.command].options if key != "config"]
    config = _load_config(args.config)
    unknown = sorted(set(config) - set(keys))
    if unknown:
        raise CliError(2, f"unknown config key {unknown[0]!r}")
    config = {key: _config_value(key, raw) for key, raw in config.items()}
    merged = {}
    for key in keys:
        flag = getattr(args, key)
        merged[key] = value = flag if flag is not None else config.get(key, OPTIONS[key][1])
        need, test = EXTENTS.get((args.command, key), EXTENTS.get(key, (None, None)))
        if need is not None and value is not None and not test(value):
            raise CliError(2, f"{_flag(key)} must be {need}, got {value}")
    return merged


def _parse_bank(raw) -> list[float] | None:
    if raw is None:
        return None
    if isinstance(raw, (list, tuple)):
        toks = [str(v) for v in raw]
    else:
        toks = [tok for tok in str(raw).split(",") if tok.strip()]
    try:
        return [float(tok) for tok in toks]
    except ValueError as exc:
        raise CliError(2, f"bad glissando bank value in {raw!r}") from exc


@contextlib.contextmanager
def _refused_as(*keys: str):
    """Exit 2, the flags of ``keys`` ahead of the library's text, on a refusal."""
    try:
        yield
    except ValueError as exc:
        raise CliError(2, f"{', '.join(map(_flag, keys))}: {exc}") from exc


def _variance(cfg: dict, key: str) -> float:
    """The square of an extent option, in seconds for a ``_ms`` key; a
    square past the float range is refused (exit 2)."""
    value = cfg[key] / 1000.0 if key.endswith("_ms") else cfg[key]
    try:
        return value**2
    except OverflowError:
        raise CliError(2, f"{_flag(key)}: {cfg[key]} squares past the float range") from None


def _layer1(cfg: dict, wav: str):
    """Shared first-layer pipeline: family, law and grid, then WAV, spectrogram, compensation.

    What does not need the input's rate is built before the WAV is read. The
    grid stops at ``nu_max``, or else at 16 kHz, lowered after the read to one
    bin below the input's Nyquist frequency if that is lower; a ``--hop-ms``
    that rounds to no whole sample at the input rate, or past the float
    range, is refused.
    """
    with _refused_as("family", "K", "c"):
        family = SpectrogramFamily(kind=cfg["family"], K=cfg["K"], c=cfg["c"])
    with _refused_as("n", "tau0_ms"):
        law = WindowScaleLaw(n=cfg["n"], tau0=_variance(cfg, "tau0_ms"))
    nu_min, nu_max, bins = cfg["nu_min"], cfg["nu_max"], cfg["bins_per_octave"]
    with _refused_as("nu_min", "nu_max", "bins_per_octave"):
        grid = build_frequency_grid(nu_min, NU_MAX_DEFAULT if nu_max is None else nu_max, bins, law)
    if cfg["compensate_delay"]:
        with _refused_as("compensate_delay", "family"):
            channel_delays(grid, family)
    buf = read_wav(wav)
    top = midi_from_frequency(buf.rate / 2.0) - 12.0 / bins
    if nu_max is None and top < NU_MAX_DEFAULT:
        grid = build_frequency_grid(nu_min, top, bins, law)
    hop = buf.rate * cfg["hop_ms"] / 1000.0
    if not 0.5 < hop < math.inf:  # round(hop) is a whole number from 1
        at = f"{hop:g} samples at the input rate of {buf.rate:g} Hz"
        raise CliError(2, f"--hop-ms {cfg['hop_ms']:g} is {at}, which rounds to no whole sample")
    spec = compute_spectrogram(buf.samples, buf.rate, grid, family, hop=round(hop))
    if cfg["compensate_delay"]:
        spec = delay_compensate(spec)
    return spec


def _require_output(cfg: dict) -> None:
    if cfg["out_csv"] is None and cfg["out_pgm"] is None:
        raise CliError(2, "no output requested")


def _write_grid(cfg: dict, nu: np.ndarray, times: np.ndarray, values: np.ndarray, pgm) -> None:
    """Write the requested CSV and PGM and report each file. ``pgm()``
    returns the PGM's (values, lo, hi); it runs only when a PGM is wanted."""
    if cfg["out_csv"]:
        write_grid_csv(cfg["out_csv"], nu, times, values)
        print(f"wrote {cfg['out_csv']}")
    if cfg["out_pgm"]:
        write_grid_pgm(cfg["out_pgm"], *pgm())
        print(f"wrote {cfg['out_pgm']}")


def _symmetric_range(values: np.ndarray) -> tuple[float, float]:
    m = float(np.max(np.abs(values))) or 1.0
    return -m, m


# ---------------------------------------------------------------------------
# Subcommands


def cmd_spectrogram(cfg: dict, wav: str) -> int:
    _require_output(cfg)
    with _refused_as("db_min", "db_max"):
        _grey_range(cfg["db_min"], cfg["db_max"])
    spec = _layer1(cfg, wav)
    want_db = cfg["db"]
    values = to_db(spec).values if want_db else spec.values

    def pgm():
        db_values = values if want_db else to_db(spec).values
        return db_values, cfg["db_min"], cfg["db_max"]

    _write_grid(cfg, spec.grid.nu, spec.frame_times, values, pgm)
    return 0


def _curve_median_level(log, curve) -> float:
    """Median dB level of the spectrogram under a partial curve's track."""
    ch = np.clip(
        np.round((curve.nus - log.grid.nu[0]) / log.grid.delta_nu).astype(int),
        0,
        log.grid.n_channels - 1,
    )
    return float(np.median(log.values[curve.frames, ch]))


def cmd_features(cfg: dict, wav: str) -> int:
    bank = _parse_bank(cfg["glissando_bank"])
    # a bank is chosen when given at all, the other selectors when set
    selectors = [name for name in SELECTORS if cfg[name] not in (None, False)]
    if len(selectors) != 1:
        raise CliError(2, "choose exactly one of " + " ".join(map(_flag, SELECTORS)))
    sel = selectors[0]
    if sel != "partials":
        _require_output(cfg)
    elif cfg["out_json"] is None:
        raise CliError(2, "no output requested (--partials writes --out-json)")

    tau_a, s = _variance(cfg, "tau_a_ms"), _variance(cfg, "sigma_nu")
    tau_i, s_i = _variance(cfg, "tau_i_ms"), _variance(cfg, "sigma_nu_i")
    with _refused_as("tau_a_ms"):  # every window refuses it; the library picks each feature's
        TEMPORAL_FAMILY.temporal(tau_a)
    with _refused_as("c_min"):
        ridge_threshold(cfg["c_min"])
    if sel == "second_moment":
        with _refused_as("tau_a_ms", "sigma_nu", "tau_i_ms", "sigma_nu_i"):
            second_moment_kernels(tau_a, s, tau_i, s_i)
    elif sel == "glissando_bank":
        with _refused_as("sigma_nu", "glissando_bank"):
            bank_fields(bank, tau_a, s)
    elif sel in ("bands", "partials"):
        with _refused_as("sigma_nu"):
            band_field(tau_a, s)
    log = to_db(_layer1(cfg, wav))

    if sel == "partials":
        band = band_response(log, tau_a, s)
        curves = extract_partial_curves(band, c_min=cfg["c_min"])
        floor = cfg["min_level_db"]
        scored = [(curve, _curve_median_level(log, curve)) for curve in curves]
        kept = [(curve, lv) for curve, lv in scored if lv >= floor]
        times = log.frame_times  # computed on each access: once here, not per point
        payload = {
            "curves": [
                {
                    "frames": [int(j) for j in curve.frames],
                    "times": [round(float(times[j]), 9) for j in curve.frames],
                    "nus": [round(float(x), 9) for x in curve.nus],
                    "strengths": [round(float(x), 9) for x in curve.strengths],
                    "mean_nu": round(float(curve.mean_nu), 9),
                    "median_level_db": round(lv, 9),
                }
                for curve, lv in kept
            ]
        }
        Path(cfg["out_json"]).write_text(json.dumps(payload, indent=2) + "\n")
        dropped = len(scored) - len(kept)
        note = f"; dropped {dropped} below --min-level-db" if dropped else ""
        print(f"wrote {cfg['out_json']} ({len(kept)} curves{note})")
        _warn_warm_channels(band.warmup_frames, band.n_frames)
        return 0

    if sel in ("onsets", "offsets", "bands"):
        detect = {"onsets": detect_onsets, "offsets": detect_offsets, "bands": enhance_bands}[sel]
        resp = detect(log, tau_a, s)
        values, warm = resp.values, resp.warmup_frames
    elif sel == "glissando_bank":
        est = glissando_filterbank(log, bank, tau_a, s)
        mask = ridge_mask(est.response, est.warmup_frames, cfg["c_min"])
        values, warm = np.where(mask, est.vhat, 0.0), est.warmup_frames
    else:  # second_moment
        field = second_moment_glissando(log, tau_a, s, tau_i, s_i)
        values, warm = np.where(field.defined, field.vhat, 0.0), field.warmup_frames

    def pgm():
        # rectified maps render on [0, max]; signed slope maps symmetrically
        if sel in ("glissando_bank", "second_moment"):
            return values, *_symmetric_range(values)
        return values, 0.0, float(np.max(values)) or 1.0

    _write_grid(cfg, log.grid.nu, log.frame_times, values, pgm)  # every feature keeps log's axes
    _warn_warm_channels(warm, log.n_frames)
    return 0


def _warn_warm_channels(warmup_frames, n_frames: int) -> None:
    """Say on stderr how many channels of a written feature are warm-up in every frame."""
    warm = int(np.count_nonzero(np.asarray(warmup_frames) >= n_frames))
    if warm:
        print(
            f"warning: {warm} of {len(warmup_frames)} channels are warm-up in all {n_frames} "
            "frames; the input is shorter than their warm-up",
            file=sys.stderr,
        )


def _column_label(col) -> str:
    if isinstance(col, float):
        return f"{col:g} dB"
    return str(col)


def _render_table(title: str, table: dict) -> str:
    width = max(len(label) for label, _ in table["rows"]) + 2
    lines = [title]
    lines.append(" " * width + "".join(f"{_column_label(c):>11}" for c in table["columns"]))
    for label, cells in table["rows"]:
        lines.append(label.ljust(width) + "".join(f"{v:>11.3f}" for v in cells))
    return "\n".join(lines)


def _write_table_csv(path: str | Path, table: dict) -> None:
    lines = ["label\t" + "\t".join(_column_label(c) for c in table["columns"])]
    for label, cells in table["rows"]:
        lines.append(label + "\t" + "\t".join(f"{v:.6f}" for v in cells))
    _write_text(path, lines)


def cmd_analyze(cfg: dict, wav: str | None) -> int:
    choice = cfg["table"]
    if cfg["out_csv"] is not None and choice is None:
        raise CliError(2, "--out-csv needs --table to pick a single table")
    if choice is not None and int(choice) not in (1, 2, 3):
        raise CliError(2, f"no table {choice}; choose 1, 2, or 3")
    builders = {
        1: ("Table 1: bandwidth constants C", bandwidth_constant_table),
        2: ("Table 2: mean delay in units of sqrt(tau)", delay_mean_table),
        3: ("Table 3: kernel maximum position in units of sqrt(tau)", delay_max_table),
    }
    picks = [int(choice)] if choice is not None else [1, 2, 3]
    blocks = []
    for idx in picks:
        title, builder = builders[idx]
        table = builder()
        blocks.append(_render_table(title, table))
        if cfg["out_csv"] is not None:
            _write_table_csv(cfg["out_csv"], table)
    print("\n\n".join(blocks))
    return 0


def cmd_kernels(cfg: dict, wav: str | None) -> int:
    _require_output(cfg)
    if cfg["out_pgm"] is not None and not cfg["rf"]:
        raise CliError(2, "PGM output applies to --rf kernel grids; impulse responses are CSV")
    with _refused_as("family", "K", "c"):
        family = SpectrogramFamily(kind=cfg["family"], K=cfg["K"], c=cfg["c"])

    if cfg["rf"]:
        sigma_nu = cfg["sigma_nu"]
        with _refused_as("tau_a_ms"):
            temporal = family.temporal(_variance(cfg, "tau_a_ms"))
        with _refused_as("alpha", "beta", "v"):
            spec = RFSpec(temporal, _variance(cfg, "sigma_nu"), cfg["v"], cfg["alpha"], cfg["beta"])
        sigma_t = math.sqrt(temporal.tau)
        delay = temporal.ladder.mu_sum if family.causal else 0.0
        t_span = cfg["t_span"] if cfg["t_span"] is not None else delay + 4.0 * sigma_t
        nu_span = cfg["nu_span"] if cfg["nu_span"] is not None else 4.0 * sigma_nu
        dt = cfg["dt"] if cfg["dt"] is not None else sigma_t / 50.0
        dnu = cfg["dnu"] if cfg["dnu"] is not None else sigma_nu / 25.0
        with _refused_as("t_span", "nu_span", "dt", "dnu"):
            img = rf_kernel_image(spec, t_span, nu_span, dt, dnu)
        pgm = lambda: (img.values, *_symmetric_range(img.values))  # noqa: E731
        _write_grid(cfg, img.nu, img.t, img.values, pgm)
        return 0

    tau = cfg["tau"]
    with _refused_as("tau"):
        temporal = family.temporal(tau)
    dt = cfg["dt"] if cfg["dt"] is not None else math.sqrt(tau) / 2000.0
    if family.causal:
        t = np.arange(0.0, temporal.ladder.support, dt)
        header, cols = ["t", "h", "h_t", "h_tt"], [t, *temporal_profiles(temporal, t)]
    else:
        span = 8.0 * math.sqrt(tau)
        t = np.arange(-span, span + dt / 2.0, dt)
        header, cols = ["t", "h"], [t, temporal_profiles(temporal, t)[0]]
    lines = ["\t".join(header)] + ["\t".join(f"{v:.9g}" for v in row) for row in zip(*cols)]
    _write_text(cfg["out_csv"], lines)
    print(f"wrote {cfg['out_csv']}")
    return 0


# ---------------------------------------------------------------------------
# Parser


class Subcommand(NamedTuple):
    """One subcommand: handler(settings, wav path or None), its options in
    flag order, and its help texts."""

    handler: Callable[[dict, str | None], int]
    takes_wav: bool
    options: tuple[str, ...]
    help: str
    description: str


COMMANDS: dict[str, Subcommand] = {
    "spectrogram": Subcommand(
        cmd_spectrogram,
        True,
        LAYER1_OPTIONS + ("db", "db_min", "db_max"),
        "compute a multi-scale spectrogram of a WAV file",
        "Complex (or dB) spectrogram on a log-frequency grid. "
        "PGM output always renders the dB map over [--db-min, --db-max].",
    ),
    "features": Subcommand(
        cmd_features,
        True,
        LAYER1_OPTIONS
        + SELECTORS
        + ("tau_a_ms", "sigma_nu", "tau_i_ms", "sigma_nu_i", "c_min", "min_level_db", "out_json"),
        "compute an auditory feature map from a WAV file",
        "Choose exactly one feature selector. Maps are computed "
        "on the dB spectrogram of the configured first layer.",
    ),
    "analyze": Subcommand(
        cmd_analyze,
        False,
        ("table", "out_csv", "config"),
        "print the reference tables",
        "Bandwidth constants (table 1), mean delays (table 2), "
        "and kernel maximum positions (table 3). Without --table, prints all three.",
    ),
    "kernels": Subcommand(
        cmd_kernels,
        False,
        ("family", "K", "c", "tau", "dt", "rf", "alpha", "beta", "v", "sigma_nu", "tau_a_ms")
        + ("t_span", "nu_span", "dnu", "out_csv", "out_pgm", "config"),
        "dump impulse responses or receptive-field kernel grids",
        "Default mode writes the temporal impulse response as CSV "
        "(columns t, h, and for the cascades rec-uni and rec-log also h_t, h_tt, "
        "from t = 0 to the kernel's support). With --rf, samples "
        "the spectro-temporal kernel on a (t, nu) grid as CSV and/or PGM.",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tonescale",
        description="Multi-scale auditory spectrograms, receptive fields, and feature maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=command.description)
        if command.takes_wav:
            p.add_argument("wav", help="input WAV (PCM 16/24/32-bit int or 32-bit float)")
        # default None marks "not given", so config values can fill it in
        for key in command.options:
            kind = OPTIONS[key][0]
            flag = _flag(key)
            if kind is bool:
                p.add_argument(flag, action="store_true", default=None, help=_help(key))
            else:
                p.add_argument(
                    flag,
                    type=str if isinstance(kind, tuple) else kind,
                    choices=kind if isinstance(kind, tuple) else None,
                    default=None,
                    metavar=METAVARS.get(key),
                    help=_help(key),
                )
    return parser


def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        cfg = _merge_settings(args)
        return COMMANDS[args.command].handler(cfg, getattr(args, "wav", None))
    except CliError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
