"""Seeded test signals and the WAV files the CLI workload reads.

Every input is a chord, an exponential chirp, a step tone and low noise.
Partial frequencies, onset times and the chirp slope come from the seed, so
ridge linking does different work on different seeds. The same seed and
clip index always give byte-identical samples.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

SAMPLE_RATE = 44100


def synth(seed: int, clip: int, seconds: float, rate: int = SAMPLE_RATE) -> np.ndarray:
    """PCM-16 quantised signal in [-1, 1): exactly what ``read_wav`` returns."""
    rng = np.random.default_rng([seed, clip])
    n = int(round(seconds * rate))
    t = np.arange(n) / rate
    x = np.zeros(n)
    # Chord: three notes above 190 Hz, so their ridges clear layer-1 warm-up
    # on half-second clips; three harmonics each.
    for midi in rng.choice(np.arange(55, 82), size=3, replace=False):
        f0 = 440.0 * 2.0 ** ((midi + rng.uniform(-0.3, 0.3) - 69.0) / 12.0)
        onset = rng.uniform(0.0, 0.15) * seconds
        gate = t >= onset
        for k in (1, 2, 3):
            x += gate * (0.07 / k) * np.sin(2.0 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi))
    # Chirp: linear in semitones, so its slope is what the glissando
    # estimators measure.
    nu0 = rng.uniform(72.0, 90.0)
    slope = rng.choice([-1.0, 1.0]) * rng.uniform(6.0, 30.0)  # semitones per second
    f_start = 440.0 * 2.0 ** ((nu0 - 69.0) / 12.0)
    k = slope * np.log(2.0) / 12.0
    phase = 2.0 * np.pi * f_start * np.expm1(k * t) / k
    x += 0.06 * np.sin(phase)
    # Step tone: silent, then on at a seeded time.
    f_step = 440.0 * 2.0 ** ((rng.uniform(62.0, 96.0) - 69.0) / 12.0)
    x += 0.1 * (t >= rng.uniform(0.35, 0.65) * seconds) * np.sin(2.0 * np.pi * f_step * t)
    x += 1e-3 * rng.standard_normal(n)
    return np.round(np.clip(x, -1.0, 1.0) * 32767.0) / 32768.0


def write_wav(path: Path, samples: np.ndarray, rate: int = SAMPLE_RATE) -> None:
    """Mono 16-bit PCM of samples already on the PCM-16 grid."""
    pcm = np.round(np.asarray(samples) * 32768.0).astype("<i2").tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, 2 * rate, 2, 16)
    header += b"data" + struct.pack("<I", len(pcm))
    Path(path).write_bytes(header + pcm)


def sample_cells(
    seed: int, item: int, salt: int, warmup, shape: tuple, n_channels: int = 6, per_channel: int = 6
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (frame, channel) positions past each channel's warm-up.

    Returns index arrays ``frames`` and ``chans`` of equal length; channels
    whose warm-up covers the whole map are never picked.
    """
    n_frames, n_ch = shape
    rng = np.random.default_rng([seed, item, salt])
    warm = np.minimum(np.asarray(warmup, dtype=int), n_frames)
    usable = np.nonzero(warm < n_frames)[0]
    chans = rng.choice(usable, size=min(n_channels, usable.size), replace=False)
    frames = [rng.integers(warm[ch], n_frames, per_channel) for ch in chans]
    return np.concatenate(frames or [np.zeros(0, int)]), np.repeat(chans, per_channel)
