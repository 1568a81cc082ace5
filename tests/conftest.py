import os

import numpy as np
import pytest
from hypothesis import settings

from tonescale.temporal_scale_space import Distribution, ScaleLadder

# On CI every run starts with an empty example database, so a falsifying
# example must print the blob that reproduces it. Exploration stays random:
# hypothesis's own "ci" profile, which this replaces, derandomizes.
settings.register_profile("ci", print_blob=True, derandomize=False)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def sine(freq: float, duration: float, rate: float, amp: float = 0.5) -> np.ndarray:
    t = np.arange(int(duration * rate)) / rate
    return amp * np.sin(2.0 * np.pi * freq * t)


def exponential_chirp(
    nu_start: float, slope: float, duration: float, rate: float, amp: float = 0.5
) -> np.ndarray:
    """Sweep at a constant rate in semitones per second."""
    from tonescale.spectrogram import frequency_from_midi

    t = np.arange(int(duration * rate)) / rate
    freq = frequency_from_midi(nu_start + slope * t)
    phase = 2.0 * np.pi * np.cumsum(freq) / rate
    return amp * np.sin(phase)


def count_local_extrema(x: np.ndarray) -> int:
    """Count strict interior local extrema of a 1-D signal."""
    x = np.asarray(x)
    if x.size < 3:
        return 0
    mid = x[1:-1]
    maxima = (mid > x[:-2]) & (mid > x[2:])
    minima = (mid < x[:-2]) & (mid < x[2:])
    return int(np.count_nonzero(maxima) + np.count_nonzero(minima))


def one_stage_ladder(mu: float) -> ScaleLadder:
    """A sample-unit ladder of one first-order stage with time constant mu."""
    tau = mu * mu + mu
    return ScaleLadder(Distribution.UNIFORM, tau, 1, None, (tau,), (mu,), units="samples")


def sos_rows(ladder: ScaleLadder, omega: float = 0.0) -> np.ndarray:
    """scipy's second-order sections of a sample-unit ladder, built from its
    time constants: stage mu is [1/(1+mu), 0, 0, 1, -mu e^{i omega}/(1+mu), 0]."""
    mus = np.asarray(ladder.mus, dtype=float)
    pole = mus / (1.0 + mus)
    if omega:
        pole = pole * np.exp(1j * omega)
    sos = np.zeros((ladder.K, 6), dtype=pole.dtype)
    sos[:, 0] = 1.0 / (1.0 + mus)
    sos[:, 3] = 1.0
    sos[:, 4] = -pole
    return sos
