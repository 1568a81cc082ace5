import math
import os
import sys

import numpy as np
import pytest
from hypothesis import settings
from scipy.ndimage import correlate1d

from tonescale.temporal_scale_space import ScaleLadder

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
    return ScaleLadder((tau,), (mu,), units="samples")


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


# Closed forms of uniform cascades and logarithmic ladders. The library
# reads every cascade off its stage constants; these are the oracles the
# tests hold it to.


def composed_uniform_kernel_sample(mu: float, K: int, t):
    """Closed form for K cascaded equal-mu integrators.

    h(t) = t^{K-1} e^{-t/mu} / (mu^K Gamma(K)) for t > 0, and 0 otherwise.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    log_h = (K - 1) * np.log(tp) - tp / mu - K * math.log(mu) - math.lgamma(K)
    out[pos] = np.exp(log_h)
    return out if out.ndim else float(out)


def composed_uniform_kernel_dt(mu: float, K: int, t):
    """First temporal derivative of the composed equal-mu kernel (t > 0)."""
    t = np.asarray(t, dtype=float)
    h = composed_uniform_kernel_sample(mu, K, t)
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    out[pos] = -np.asarray(h)[pos] * (tp - (K - 1) * mu) / (mu * tp)
    return out if out.ndim else float(out)


def composed_uniform_kernel_dtt(mu: float, K: int, t):
    """Second temporal derivative of the composed equal-mu kernel (t > 0)."""
    t = np.asarray(t, dtype=float)
    h = composed_uniform_kernel_sample(mu, K, t)
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    num = (K * K - 3 * K + 2) * mu * mu - 2.0 * (K - 1) * mu * tp + tp * tp
    out[pos] = np.asarray(h)[pos] * num / (mu * mu * tp * tp)
    return out if out.ndim else float(out)


def uniform_bandwidth_constant(K: int, target_db: float) -> float:
    """C at which K equal stages of unit total variance fall to target_db:
    sqrt(K) / (2 pi) sqrt(10^(-target_db / (10 K)) - 1)."""
    per_stage = -target_db * math.log(10.0) / (10.0 * K)
    return math.sqrt(K) / (2.0 * math.pi) * math.sqrt(math.expm1(per_stage))


def delay_mean_limit(c: float) -> float:
    """Large-K limit of the logarithmic-ladder mean delay, per sqrt(tau)."""
    return math.sqrt(c * c - 1.0) / (c - 1.0)


def central_difference(values: np.ndarray, order: int, dnu: float) -> np.ndarray:
    """The spectral derivative as a pass of its own over a smoothed map:
    [-1/2, 0, 1/2] or [1, -2, 1] along axis 1, the edge channel repeated,
    over dnu^order."""
    stencil = [-0.5, 0.0, 0.5] if order == 1 else [1.0, -2.0, 1.0]
    return correlate1d(values, stencil, axis=1, mode="reflect") / dnu**order


def count_calls(monkeypatch, name: str) -> list[tuple]:
    """Record the arguments of every call to the function ``name``, patched
    in each loaded tonescale module that holds it, so a call made through
    any module's import is counted."""
    calls = []
    targets = [
        module
        for key, module in list(sys.modules.items())
        if (key == "tonescale" or key.startswith("tonescale.")) and hasattr(module, name)
    ]
    real = next(getattr(m, name) for m in targets if getattr(m, name).__module__ == m.__name__)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in targets:
        if getattr(module, name) is real:
            monkeypatch.setattr(module, name, counted)
    return calls
