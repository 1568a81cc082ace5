"""Frequency selectivity and temporal delays of the window families.

The dB response of a channel at omega_0 to a sinusoid at omega, the
bandwidth constants C solving R_dB = target, and the delay measures (mean,
maximum position, inflection points) of the time-causal kernels. Both
cascade families are read off the stage time constants mu_k that
``SpectrogramFamily.ladder`` alone writes: a cascade attenuates the
detuning C by prod_k (1 + 4 pi^2 mu_k^2 C^2)^(-1/2) at unit scale, its
bandwidth constant is the one root of that product at the target level,
and its mean delay is sum_k mu_k (Lindeberg 2016, JMIV, "Time-causal and
time-recursive spatio-temporal receptive fields"). Its maximum and inflection points are
the zeros of the derivatives of its exact phase-type kernel, the same one
for uniform and logarithmic ladders, bracketed on a geometric grid and
refined by Newton steps. The table builders regenerate the three
reference tables of the `analyze` subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tonescale.temporal_scale_space import (
    ScaleLadder,
    SpectrogramFamily,
    _derivative_columns,
    _expm,
)

TWO_PI_SQ = 4.0 * math.pi * math.pi


def _check_periods(n: float) -> None:
    if not 0 < n < math.inf:
        raise ValueError(f"periods-per-window n must be positive and finite, got {n}")


def _unit_rates(fam: SpectrogramFamily) -> list[float]:
    """4 pi^2 mu_k^2 for each stage of the family's unit-scale ladder: C is
    dimensionless, so the unit-scale ladder applies."""
    return [TWO_PI_SQ * m * m for m in fam.ladder(1.0).mus]


def selectivity_db_at_constant(fam: SpectrogramFamily, C: float) -> float:
    """R_dB as a function of the dimensionless detuning C = n (omega - omega_0)/omega."""
    c2 = C * C
    if not fam.causal:
        return -20.0 * (2.0 * math.pi * math.pi * c2) / math.log(10.0)
    return -10.0 * sum(math.log10(1.0 + a * c2) for a in _unit_rates(fam))


def selectivity_db(fam: SpectrogramFamily, omega_ratio: float, n: float = 8.0) -> float:
    """dB response of a channel centered at omega_0 to a tone at omega,
    parameterized by omega/omega_0, for windows spanning n carrier periods."""
    _check_periods(n)
    if not 0 < omega_ratio < math.inf:
        raise ValueError(f"omega ratio must be positive and finite, got {omega_ratio}")
    C = n * (omega_ratio - 1.0) / omega_ratio
    return selectivity_db_at_constant(fam, abs(C))


def bandwidth_constant(fam: SpectrogramFamily, target_db: float) -> float:
    """The detuning constant C at which the response has dropped to target_db.

    The Gaussian inverts in closed form. A cascade solves
    sum_k ln(1 + a_k u) = -target_db ln(10) / 10 for u = C^2, with
    a_k = 4 pi^2 mu_k^2 of its unit-scale stages. The left side is
    increasing and concave in u, so Newton steps from u = 0 stay below the
    root and rise monotonically; the iteration stops once a step no longer
    raises u, at the root to rounding. A target that is not negative and
    finite is refused, as is one whose C^2 exceeds the float range.
    """
    if not -math.inf < target_db < 0:
        raise ValueError(f"target level must be negative and finite dB, got {target_db}")
    if not fam.causal:
        return math.sqrt(math.log(10.0)) / (2.0 * math.pi) * math.sqrt(-target_db / 10.0)
    rates = _unit_rates(fam)
    level = -target_db * math.log(10.0) / 10.0
    u = 0.0
    while True:
        value = sum(math.log1p(a * u) for a in rates) - level
        if not value < math.inf:
            raise ValueError(f"target {target_db} dB puts C^2 beyond the float range")
        raised = u - value / sum(a / (1.0 + a * u) for a in rates)
        if not raised > u:
            return math.sqrt(u)
        u = raised


def relative_bandwidth(C: float, n: float) -> tuple[float, float]:
    """Bandwidth as a linear fraction of the center frequency and in semitones.

    The band edges sit at omega_0 / (1 -+ C/n); the linear fraction is
    (2 C/n) / (1 - (C/n)^2) and the semitone width 12 log2 of the edge ratio.
    """
    _check_periods(n)
    if not 0 <= C < math.inf:
        raise ValueError(f"C must be non-negative and finite, got {C}")
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


# The bracket grid of the delay measures is geometric, from mu_min / 100 to
# the support, with steps of at most 1/32 octave and at most a quarter of
# the kernel's relative spread sqrt(tau) / (mu_sum + sqrt(tau)), so that no
# bracket holds two of the roots (a uniform grid at support / 256 missed
# the maximum at c = 1 + 1e-7, where it sits at 0.0077 sqrt(tau)).
_GRID_STEP = math.log(2.0) / 32.0
# Matrix elements per stacked exponential of the grid (2 MB): every ladder
# of up to 10 stages takes its whole grid in one, and a long ladder's
# temporaries stay bounded (about 18 MB at K = 100).
_GRID_ELEMENTS = 1 << 18
# Newton steps per root; the bisection safeguard alone would reach an ulp
# of a bracket within 60.
_ROOT_STEPS = 100


def _root(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """The root of f in [lo, hi], where f changes sign from f_lo to f_hi.

    Newton steps from the chord's zero, bisecting whenever a step would
    leave the bracket; ``f(x)`` returns f and its derivative at x. The
    iteration stops once a step is within 4 ulp, which the rounding of f
    near its root would not let it pass.
    """
    rising = f_hi > 0.0
    x = lo + (hi - lo) * f_lo / (f_lo - f_hi)
    for _ in range(_ROOT_STEPS):
        value, slope = f(x)
        if value == 0.0:
            return x
        if (value > 0.0) != rising:
            lo = x
        else:
            hi = x
        step = value / slope if slope else math.inf
        if abs(step) <= 4.0 * math.ulp(x):
            return x
        x = x - step if lo < x - step < hi else 0.5 * (lo + hi)
    return x


def delay_measures(ladder: ScaleLadder) -> DelayMeasures:
    """Mean delay, response maximum, and inflection points of a cascade.

    The mean is the sum of the stage time constants. The other three are
    roots of the exact phase-type kernel h(t) = e_1 e^{Qt} q of any ladder,
    uniform or logarithmic: t_max of h', t_infl1 the last downward zero of
    h'' before t_max (0 when h'' starts at or below 0, as for two stages)
    and t_infl2 the first upward zero of h'' after it. Each is bracketed on
    one geometric grid, evaluated as one stacked matrix exponential, and
    refined by safeguarded Newton steps. A single stage has its maximum at
    0 by convention.
    """
    if ladder.units != "seconds":
        raise ValueError("delay measures expect a continuous ladder")
    mean = ladder.mu_sum
    if ladder.K == 1:
        return DelayMeasures(mean=mean, t_max=0.0, t_infl1=0.0, t_infl2=0.0)
    Q, columns = _derivative_columns(ladder, 4)  # h and its first three derivatives
    sigma = math.sqrt(ladder.tau_max)
    step = min(_GRID_STEP, sigma / (4.0 * (mean + sigma)))
    lo = ladder.mu_min / 100.0
    grid = np.geomspace(lo, ladder.support, math.ceil(math.log(ladder.support / lo) / step) + 1)
    rows = np.empty((grid.size, ladder.K))  # e_1 e^{Qt}
    chunk = max(1, _GRID_ELEMENTS // ladder.K**2)
    for i in range(0, grid.size, chunk):
        rows[i : i + chunk] = _expm(Q, grid[i : i + chunk])[:, 0]
    sampled = rows @ columns
    slope, curve = sampled[:, 1], sampled[:, 2]

    def root(order: int, j: int) -> float:
        """The zero of the order-th derivative in the grid's bracket j."""

        def f(x: float) -> tuple[float, float]:
            row = rows[j] @ _expm(Q, [x - grid[j]])[0]
            value, derivative = row @ columns[:, order : order + 2]
            return float(value), float(derivative)

        ends = sampled[j : j + 2, order]
        return _root(f, float(grid[j]), float(grid[j + 1]), float(ends[0]), float(ends[1]))

    peak = int(np.flatnonzero((slope[:-1] > 0) & (slope[1:] <= 0))[0])
    down = np.flatnonzero((curve[: peak + 1] > 0) & (curve[1 : peak + 2] <= 0))
    up = peak + np.flatnonzero((curve[peak:-1] <= 0) & (curve[peak + 1 :] > 0))
    return DelayMeasures(
        mean=mean,
        t_max=root(1, peak),
        t_infl1=root(2, int(down[-1])) if down.size else 0.0,
        t_infl2=root(2, int(up[0])),
    )


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


def bandwidth_constant_table() -> dict:
    """Bandwidth constants C for each family at -3, -10, -20, -30 dB.

    C is the detuning in units of 1/n, so one table holds for every
    positive window length n.
    """
    rows = []
    for label, fam in bandwidth_family_rows():
        rows.append((label, [bandwidth_constant(fam, db) for db in BANDWIDTH_DB_LEVELS]))
    return {"columns": BANDWIDTH_DB_LEVELS, "rows": rows}


def _table_ladders(K: int) -> list[ScaleLadder]:
    """The unit-scale ladders of a delay-table row: uniform, then each ratio."""
    families = [SpectrogramFamily("rec-uni", K=K)]
    families += [SpectrogramFamily("rec-log", K=K, c=c) for c in LADDER_RATIOS]
    return [fam.ladder(1.0) for fam in families]


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
