"""Frequency selectivity and temporal delays of the window families.

The dB response of a channel at omega_0 to a sinusoid at omega, the
bandwidth constants C solving R_dB = target, and the delay measures (mean,
maximum position, inflection points) of the time-causal kernels. Both
cascade families are read off the stage time constants mu_k that
``build_ladder`` writes: a cascade attenuates the detuning C by
prod_k (1 + 4 pi^2 mu_k^2 C^2)^(-1/2) at unit scale, and its mean delay is
sum_k mu_k (Lindeberg 2016, JMIV, "Time-causal and time-recursive
spatio-temporal receptive fields"). The table builders regenerate the
three reference tables of the `analyze` subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tonescale.temporal_scale_space import (
    Distribution,
    ScaleLadder,
    SpectrogramFamily,
    build_ladder,
    cascade_kernel_numeric,
)

TWO_PI_SQ = 4.0 * math.pi * math.pi
# Largest numeric kernel a logarithmic ladder's delays may sample (32 MB);
# the table ladders need about 28 000 samples.
MAX_DELAY_SAMPLES = 2**22


def _check_periods(n: float) -> None:
    if n <= 0:
        raise ValueError(f"periods-per-window n must be positive, got {n}")


def selectivity_db_at_constant(fam: SpectrogramFamily, C: float) -> float:
    """R_dB as a function of the dimensionless detuning C = n (omega - omega_0)/omega."""
    c2 = C * C
    if fam.kind == "gauss":
        return -20.0 * (2.0 * math.pi * math.pi * c2) / math.log(10.0)
    # C is dimensionless, so the unit-scale ladder applies
    return -10.0 * sum(math.log10(1.0 + TWO_PI_SQ * m * m * c2) for m in fam.ladder(1.0).mus)


def selectivity_db(fam: SpectrogramFamily, omega_ratio: float, n: float = 8.0) -> float:
    """dB response of a channel centered at omega_0 to a tone at omega,
    parameterized by omega/omega_0, for windows spanning n carrier periods."""
    _check_periods(n)
    if omega_ratio <= 0:
        raise ValueError(f"omega ratio must be positive, got {omega_ratio}")
    C = n * (omega_ratio - 1.0) / omega_ratio
    return selectivity_db_at_constant(fam, abs(C))


def bandwidth_constant(fam: SpectrogramFamily, target_db: float) -> float:
    """The detuning constant C at which the response has dropped to target_db.

    Gaussian and equal-stage families invert in closed form; logarithmic
    cascades bisect the monotone dB response to a residual below 1e-4 dB.
    """
    if target_db >= 0:
        raise ValueError(f"target level must be negative dB, got {target_db}")
    if fam.kind == "gauss":
        return math.sqrt(math.log(10.0)) / (2.0 * math.pi) * math.sqrt(-target_db / 10.0)
    if fam.kind == "rec-uni":
        return (
            math.sqrt(fam.K)
            / (2.0 * math.pi)
            * math.sqrt(10.0 ** (-target_db / (10.0 * fam.K)) - 1.0)
        )
    lo, hi = 1e-6, 10.0
    if selectivity_db_at_constant(fam, hi) > target_db:
        raise ValueError(f"target {target_db} dB out of bisection range")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = selectivity_db_at_constant(fam, mid)
        if abs(val - target_db) < 1e-4:
            return mid
        if val > target_db:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def relative_bandwidth(C: float, n: float) -> tuple[float, float]:
    """Bandwidth as a linear fraction of the center frequency and in semitones.

    The band edges sit at omega_0 / (1 -+ C/n); the linear fraction is
    (2 C/n) / (1 - (C/n)^2) and the semitone width 12 log2 of the edge ratio.
    """
    if C < 0 or n <= 0:
        raise ValueError("C must be non-negative and n positive")
    q = C / n
    if q >= 1.0:
        raise ValueError(f"C = {C:g} >= n = {n:g} puts the band edge at infinity")
    linear = 2.0 * q / (1.0 - q * q)
    semitones = 12.0 * math.log2((1.0 + q) / (1.0 - q))
    return linear, semitones


@dataclass(frozen=True)
class DelayMeasures:
    """Temporal delay characteristics of a causal kernel, in seconds."""

    mean: float
    t_max: float
    t_infl1: float
    t_infl2: float


def delay_mean_limit(c: float) -> float:
    """Large-K limit of the logarithmic-ladder mean delay, per sqrt(tau)."""
    return math.sqrt(c * c - 1.0) / (c - 1.0)


def _quadratic_refine(values: np.ndarray, i: int, dt: float) -> float:
    """Vertex of the parabola through samples i-1, i, i+1."""
    if i <= 0 or i >= len(values) - 1:
        return i * dt
    denom = values[i - 1] - 2.0 * values[i] + values[i + 1]
    if denom == 0.0:
        return i * dt
    delta = 0.5 * (values[i - 1] - values[i + 1]) / denom
    return (i + delta) * dt


def _numeric_delays(ladder: ScaleLadder) -> tuple[float, float, float]:
    """t_max and both inflection points from the numeric impulse response."""
    tau = ladder.tau_max
    dt = min(math.sqrt(tau) / 2000.0, ladder.mu_min / 20.0)
    n = math.floor(ladder.support / dt) + 1  # cascade_kernel_numeric's sample count
    if n > MAX_DELAY_SAMPLES:
        raise ValueError(
            f"delays of the logarithmic ladder with c={ladder.c!r} need its kernel at "
            f"{n} samples, more than {MAX_DELAY_SAMPLES}; use a larger c"
        )
    kernel = cascade_kernel_numeric(ladder, dt)
    h = kernel.values
    t_max = _quadratic_refine(h, int(np.argmax(h)), dt)
    d2 = np.diff(h, 2)  # approximates h'' at index i+1
    sign = np.sign(d2)
    crossings = np.nonzero((sign[:-1] > 0) & (sign[1:] <= 0))[0]
    t_infl1 = 0.0
    t_infl2 = 0.0
    if crossings.size:
        i = crossings[0]
        frac = d2[i] / (d2[i] - d2[i + 1])
        t_infl1 = (i + 1 + frac) * dt
    rising = np.nonzero((sign[:-1] < 0) & (sign[1:] >= 0))[0]
    rising = rising[rising > (crossings[0] if crossings.size else 0)]
    if rising.size:
        i = rising[0]
        frac = d2[i] / (d2[i] - d2[i + 1])
        t_infl2 = (i + 1 + frac) * dt
    return t_max, t_infl1, t_infl2


def delay_measures(ladder: ScaleLadder) -> DelayMeasures:
    """Mean delay, response maximum, and inflection points of a cascade.

    The mean is the sum of the stage time constants. Equal-stage ladders
    take t_max and the inflections from the Gamma kernel's closed forms;
    logarithmic ladders locate them on the numeric impulse response, and
    raise ValueError when c is so close to 1 that it would take more than
    ``MAX_DELAY_SAMPLES`` samples. A single stage has its maximum at 0 by
    convention.
    """
    if ladder.units != "seconds":
        raise ValueError("delay measures expect a continuous ladder")
    K = ladder.K
    mean = ladder.mu_sum
    if ladder.distribution is Distribution.UNIFORM:
        mu = ladder.mus[0]
        root = math.sqrt(K - 1.0) if K > 1 else 0.0
        return DelayMeasures(
            mean=mean,
            t_max=(K - 1.0) * mu,
            t_infl1=(K - 1.0 - root) * mu,
            t_infl2=(K - 1.0 + root) * mu,
        )
    if K == 1:
        return DelayMeasures(mean=mean, t_max=0.0, t_infl1=0.0, t_infl2=0.0)
    t_max, t_infl1, t_infl2 = _numeric_delays(ladder)
    return DelayMeasures(mean=mean, t_max=t_max, t_infl1=t_infl1, t_infl2=t_infl2)


# Table layouts: the bandwidth table lists one row per window family, the
# delay tables one row per stage count K with uniform and logarithmic columns.

BANDWIDTH_DB_LEVELS = (-3.0, -10.0, -20.0, -30.0)
LADDER_RATIOS = (math.sqrt(2.0), 2.0 ** 0.75, 2.0)
LADDER_RATIO_LABELS = ("c=sqrt(2)", "c=2^(3/4)", "c=2")
DELAY_K_RANGE = tuple(range(2, 9))


def bandwidth_family_rows() -> list[tuple[str, SpectrogramFamily]]:
    rows: list[tuple[str, SpectrogramFamily]] = [("gauss", SpectrogramFamily("gauss"))]
    for K in (4, 7):
        rows.append((f"rec-uni K={K}", SpectrogramFamily("rec-uni", K=K)))
        for c, label in zip(LADDER_RATIOS, LADDER_RATIO_LABELS):
            rows.append((f"rec-log K={K} {label}", SpectrogramFamily("rec-log", K=K, c=c)))
    return rows


def bandwidth_constant_table(n: float = 8.0) -> dict:
    """Bandwidth constants C for each family at -3, -10, -20, -30 dB.

    C is the detuning in units of 1/n, so the constants hold for any
    positive window length n; n is only checked.
    """
    _check_periods(n)
    rows = []
    for label, fam in bandwidth_family_rows():
        rows.append((label, [bandwidth_constant(fam, db) for db in BANDWIDTH_DB_LEVELS]))
    return {"columns": BANDWIDTH_DB_LEVELS, "rows": rows}


def _table_ladders(K: int) -> list[ScaleLadder]:
    """The unit-scale ladders of a delay-table row: uniform, then each ratio."""
    ladders = [build_ladder(Distribution.UNIFORM, 1.0, K)]
    return ladders + [build_ladder(Distribution.LOGARITHMIC, 1.0, K, c) for c in LADDER_RATIOS]


def delay_mean_table() -> dict:
    """Mean delays in units of sqrt(tau): uniform and logarithmic ladders."""
    rows = [(f"K={K}", [lad.mu_sum for lad in _table_ladders(K)]) for K in DELAY_K_RANGE]
    return {"columns": ("uniform",) + LADDER_RATIO_LABELS, "rows": rows}


def delay_max_table() -> dict:
    """Positions of the kernel maximum in units of sqrt(tau)."""
    rows = [
        (f"K={K}", [delay_measures(lad).t_max for lad in _table_ladders(K)])
        for K in DELAY_K_RANGE
    ]
    return {"columns": ("uniform",) + LADDER_RATIO_LABELS, "rows": rows}
