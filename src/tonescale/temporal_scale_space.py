"""Temporal scale-space kernels and their discrete realizations.

A temporal kernel (``TemporalKernelSpec``) is a window family
(``SpectrogramFamily``) at a variance tau: the non-causal Gaussian for
gauss, and for rec-uni and rec-log the time-causal cascade of first-order
integrators ("truncated exponentials") over the family's scale ladder,
levels tau_k with stage time constants mu_k, uniform or logarithmic,
which ``SpectrogramFamily.ladder`` alone writes. The discrete counterparts
(first-order recursive filters and the discrete Gaussian) preserve the
defining scale-space property: smoothing never increases the number of
local extrema of a signal.

No other module realises a temporal kernel: the block recursion over
``_block_weights`` is the one discrete cascade realisation, laid out two
ways over the stages [gain, pole] of ``cascade_sections`` (layer 2 runs
each ladder time-major through ``discrete_recursive_smooth``; causal
layer 1 runs the block rows of its one signal through ``_block_cascade``,
with the carrier folded into the poles), and ``_phase_type`` the one
continuous cascade kernel, h(t) = e_1 e^{Qt} q for every ladder, uniform
or logarithmic, evaluated by ``_expm``; ``temporal_profiles`` samples it
(and the Gaussian) and the delay measures find its maximum and inflection
points. ``ScaleLadder.support`` is the one support rule.
``discrete_gaussian_kernel`` takes the discrete Gaussian's taps from one
inverse FFT of its transfer function (``ive``), and
``discrete_gaussian_smooth`` applies the built kernel as small band
products, as a ladder is applied; neither needs SciPy.

A cascade of first-order stages is time-recursive: its whole past is a
state of K values (Lindeberg 2016, JMIV, "Time-causal and time-recursive
spatio-temporal receptive fields"). The block recursion advances that
state a block of samples at a time (Burrus 1972, IEEE Trans. Audio
Electroacoust. 20(4)): the outputs a block keeps are one matrix product of
its samples with the sampled impulse response, plus the carried state, so
only a K x K step per block is left to Python.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class ScaleLadder:
    """Ordered temporal scale levels tau_k with per-stage time constants mu_k.

    ``levels`` are variances (seconds^2 for continuous ladders, samples^2 for
    discrete ones); ``mus`` are the matching stage time constants in seconds
    or samples. Continuous ladders satisfy sum(mu_k^2) = tau_max; discrete
    ladders satisfy sum(mu_k^2 + mu_k) = tau_max in sample^2 units. The
    stage constants are the whole description of a cascade: its kernel,
    selectivity and delays are read off them.
    """

    levels: tuple[float, ...]
    mus: tuple[float, ...]
    units: str = "seconds"  # "seconds" or "samples"

    def __post_init__(self) -> None:
        if self.units not in ("seconds", "samples"):
            raise ValueError(f"ladder units must be 'seconds' or 'samples', got {self.units!r}")
        if not self.mus or len(self.levels) != len(self.mus):
            raise ValueError("ladder must carry one scale level per stage, and at least one stage")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("scale levels must be strictly increasing")

    @property
    def tau_max(self) -> float:
        return self.levels[-1]

    @property
    def K(self) -> int:
        return len(self.mus)

    @property
    def mu_min(self) -> float:
        return min(self.mus)

    @property
    def mu_sum(self) -> float:
        return float(sum(self.mus))

    @property
    def support(self) -> float:
        """Length past which the cascade's impulse response is negligible.

        Ten standard deviations past the mean delay, or, if longer, 12.5
        time constants of the slowest stage past the other stages' mean
        delays. That stage's exponential tail e^{-t/mu} is the response's
        tail, and once it carries nearly all of tau, 10 standard deviations
        no longer cover it: a single stage, or a logarithmic ladder with c
        near 1 (whose first stage tends to the whole kernel), would leave
        e^-11 = 1.7e-5 of the mass. Either way at most about 5e-6 lies
        beyond (6e-7 for the default ladder, 4.7e-6 for c = 2, 3.7e-6 as c
        tends to 1). Ladders whose slowest stage carries at most (10/11.5)^2
        of tau keep the first length: every uniform ladder of two or more
        stages and every logarithmic one with 2 or more stages and
        sqrt(2) <= c <= 2.
        """
        slowest = max(self.mus)
        return self.mu_sum + max(10.0 * math.sqrt(self.tau_max), 11.5 * slowest)


def discretize_ladder(ladder: ScaleLadder, sample_rate: float) -> ScaleLadder:
    """Transfer a continuous ladder to sample units at the given rate.

    Scale levels transform as tau_sampl = rate^2 tau; each stage constant is
    recovered from its scale increment via mu = (sqrt(1 + 4 dtau) - 1)/2, so
    the discrete stage variances mu^2 + mu add up to the levels exactly.
    """
    if ladder.units != "seconds":
        raise ValueError("ladder is already in sample units")
    if not 0 < sample_rate < math.inf:
        raise ValueError(f"sample rate must be positive and finite, got {sample_rate}")
    levels = tuple(sample_rate * sample_rate * tau for tau in ladder.levels)
    steps = (tau - prev for prev, tau in zip((0.0,) + levels, levels))
    mus = tuple((math.sqrt(1.0 + 4.0 * dtau) - 1.0) / 2.0 for dtau in steps)
    return ScaleLadder(levels, mus, units="samples")


def warmup_length(ladder: ScaleLadder) -> int:
    """Number of initial samples dominated by the zero initial state; a count
    from 2^53 is refused, so that the layers' sums of warm-ups stay exact."""
    span = 5.0 * ladder.mu_sum
    if not span < 2.0**53:
        raise ValueError(f"a cascade warm-up of {span:.3g} samples is not below 2^53")
    return int(math.ceil(span))


def _integer(value) -> bool:
    """Whether a count is an integer, and not a bool, which Python takes
    for one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


FAMILY_KINDS = ("gauss", "rec-uni", "rec-log")


@dataclass(frozen=True)
class SpectrogramFamily:
    """Temporal window family, one of ``FAMILY_KINDS``.

    One family defines the spectrogram windows, their frequency selectivity
    and delays, and the matching second-layer temporal kernels. ``K`` is the
    cascade stage count, a whole number >= 1, and ``c`` the logarithmic
    ladder ratio, finite and > 1; gauss ignores both, rec-uni ignores ``c``.
    An ignored field is set to None, so families that build the same
    kernels compare equal.
    """

    kind: str
    K: int | None = 7
    c: float | None = math.sqrt(2.0)

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.causal and not (_integer(self.K) and self.K >= 1):
            raise ValueError(f"cascade families need a whole stage count K >= 1, got {self.K!r}")
        if self.kind == "rec-log" and (self.c is None or not 1 < self.c < math.inf):
            raise ValueError(f"rec-log needs a finite ratio c > 1, got {self.c}")
        if not self.causal:
            object.__setattr__(self, "K", None)
        if self.kind != "rec-log":
            object.__setattr__(self, "c", None)

    @property
    def causal(self) -> bool:
        return self.kind != "gauss"

    def ladder(self, tau: float) -> ScaleLadder:
        """The family's continuous cascade ladder at variance tau (seconds^2).

        Logarithmic ladders place tau_k = c^{2(k-K)} tau with
        mu_1 = c^{1-K} sqrt(tau) and mu_k = c^{k-K-1} sqrt(c^2-1) sqrt(tau)
        for k >= 2; uniform ladders place tau_k = (k/K) tau with equal stage
        constants mu_k = sqrt(tau / K). Either way the top level is written
        as exactly 1.0 * tau. No other code writes a ladder's stage
        constants.
        """
        if not self.causal:
            raise ValueError("gaussian family has no scale ladder")
        self.temporal(tau)  # the kernel refuses a scale that is not positive and finite
        K, c = self.K, self.c
        if self.kind == "rec-log":
            levels = tuple(c ** (2.0 * (k - K)) * tau for k in range(1, K + 1))
            sigma = math.sqrt(tau)
            later = (c ** (k - K - 1.0) * math.sqrt(c * c - 1.0) * sigma for k in range(2, K + 1))
            mus = (c ** (1.0 - K) * sigma, *later)
        else:
            levels = tuple((k / K) * tau for k in range(1, K + 1))
            mus = tuple(math.sqrt(tau / K) for _ in range(K))
        return ScaleLadder(levels, mus, units="seconds")

    def temporal(self, tau: float) -> TemporalKernelSpec:
        """The family's temporal kernel at variance tau (seconds^2)."""
        return TemporalKernelSpec(self, tau)


@dataclass(frozen=True)
class TemporalKernelSpec:
    """A temporal smoothing kernel: a window family at variance ``tau`` (seconds^2).

    The Gaussian of variance tau for gauss; otherwise the cascade of
    ``family.ladder(tau)``, whose top level is tau.
    """

    family: SpectrogramFamily
    tau: float

    def __post_init__(self) -> None:
        if not 0 < self.tau < math.inf:
            what = "ladder scale" if self.family.causal else "gaussian variance"
            raise ValueError(f"{what} tau must be positive and finite, got {self.tau}")

    @staticmethod
    def gaussian(tau: float) -> TemporalKernelSpec:
        return TemporalKernelSpec(SpectrogramFamily("gauss"), tau)

    @property
    def ladder(self) -> ScaleLadder:
        """The cascade's continuous ladder; the gauss family has none."""
        return self.family.ladder(self.tau)


@dataclass(eq=False)
class SampledKernel:
    """A discrete kernel: weights on unit sample spacing.

    ``origin_index`` is the sample position of n = 0.
    """

    values: np.ndarray
    origin_index: int

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) - self.origin_index

    @property
    def mass(self) -> float:
        return float(np.sum(self.values))


def gaussian_kernel_sample(tau: float, t):
    """Evaluate the Gaussian (1/sqrt(2 pi tau)) exp(-t^2 / 2 tau)."""
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    u = np.asarray(t, dtype=float)
    out = np.exp(-u * u / (2.0 * tau)) / math.sqrt(2.0 * math.pi * tau)
    return out if out.ndim else float(out)

def gaussian_derivative_sample(tau: float, t, order: int):
    """Analytic derivatives of the Gaussian kernel, orders 0..4."""
    g = gaussian_kernel_sample(tau, t)
    u = np.asarray(t, dtype=float)
    if order == 0:
        factor = np.ones_like(u)
    elif order == 1:
        factor = -u / tau
    elif order == 2:
        factor = (u * u - tau) / (tau * tau)
    elif order == 3:
        factor = -(u ** 3 - 3.0 * u * tau) / tau ** 3
    elif order == 4:
        factor = (u ** 4 - 6.0 * u * u * tau + 3.0 * tau * tau) / tau ** 4
    else:
        raise ValueError(f"unsupported derivative order {order}")
    out = g * factor
    return out if out.ndim else float(out)


def _phase_type(ladder: ScaleLadder) -> tuple[np.ndarray, np.ndarray]:
    """The generator Q and exit vector q of a continuous cascade.

    A cascade of first-order integrators is a chain of exponential stages,
    so its impulse response is the phase-type (hypoexponential) density
    h(t) = e_1 e^{Qt} q for t > 0, with derivatives h^(j)(t) = e_1 e^{Qt}
    Q^j q (Neuts 1981, "Matrix-Geometric Solutions in Stochastic Models").
    Q is bidiagonal, -1/mu_k on the diagonal and 1/mu_k just above it, and
    q = e_K / mu_K; its Laplace transform is prod_k 1/(1 + mu_k s).
    """
    if ladder.units != "seconds":
        raise ValueError("the cascade kernel expects a continuous (seconds) ladder")
    rates = 1.0 / np.asarray(ladder.mus, dtype=float)
    generator = np.diag(-rates) + np.diag(rates[:-1], 1)
    exit_rates = np.zeros(ladder.K)
    exit_rates[-1] = rates[-1]
    return generator, exit_rates


# Scaling and squaring: each Q t is halved until its 1-norm is at most
# _EXPM_NORM, where _EXPM_TERMS Taylor terms leave 0.25^13 / 13! = 2e-18.
_EXPM_NORM = 0.25
_EXPM_TERMS = 12


def _expm(Q: np.ndarray, t) -> np.ndarray:
    """e^{Qt} for each time t >= 0 of a 1-D array, stacked as (len(t), K, K).

    Scaling and squaring, with the number s of halvings chosen per time, on
    F = e^{Qt} - I: F is summed as a Taylor series at Q t / 2^s and each
    squaring takes it to F F + 2 F. Q is never diagonalised: a uniform
    ladder repeats one pole, and a logarithmic one at c = sqrt(2) has two
    poles an ulp apart. Squaring F rather than e^{Qt} keeps the small
    deviations of the slow stages from I: the fastest stage sets s, and
    squaring I plus such a deviation 2^s times amplifies its rounding 2^s
    times (1e-11 of h' at the delay roots for c = 3.6 and K = 10, 2e-8 of h
    itself at c = 1 + 2^-52).
    """
    t = np.asarray(t, dtype=float)
    norm = float(np.abs(Q).sum(axis=0).max())
    squarings = np.ceil(np.log2(np.maximum(norm * t, _EXPM_NORM) / _EXPM_NORM)).astype(int)
    A = Q * np.ldexp(t, -squarings)[:, None, None]
    eye = np.eye(len(Q))
    G = eye + A / _EXPM_TERMS
    for n in range(_EXPM_TERMS - 1, 1, -1):
        G = eye + (A @ G) / n
    F = A @ G
    for j in range(int(squarings.max(initial=0))):
        more = squarings > j
        part = F[more]
        F[more] = part @ part + 2.0 * part
    return F + eye


def _derivative_columns(ladder: ScaleLadder, orders: int) -> tuple[np.ndarray, np.ndarray]:
    """(Q, columns Q^j q for j < orders as (K, orders)) of ``_phase_type``:
    a row e_1 e^{Qt} times the columns gives h and its derivatives at t."""
    Q, q = _phase_type(ladder)
    columns = [q]
    for _ in range(orders - 1):
        columns.append(Q @ columns[-1])
    return Q, np.stack(columns, axis=1)


def cascade_sections(ladder: ScaleLadder, omega: float = 0.0) -> np.ndarray:
    """The K first-order stages of a sample-unit ladder, one [gain, pole] row each.

    Stage k is y[n] = y[n-1] + (x[n] - y[n-1]) / (1 + mu) = gain x[n] +
    pole y[n-1], with gain 1/(1+mu) and pole mu/(1+mu). A nonzero ``omega``
    (rad/sample) turns each pole into mu e^{i omega}/(1+mu): the cascade of
    a real x[n] is then e^{i omega n} times the cascade of x[n] e^{-i omega n},
    so a modulated signal is smoothed without forming the modulation. The
    rows take the pole's dtype. This is the only place the layers' stage
    coefficients are written; the continuous kernel of a ladder in seconds
    is ``_phase_type``'s.
    """
    if ladder.units != "samples":
        raise ValueError("recursive smoothing expects a ladder in sample units")
    mus = np.asarray(ladder.mus, dtype=float)
    pole = mus / (1.0 + mus)
    if omega:
        pole = pole * np.exp(1j * omega)
    return np.stack([1.0 / (1.0 + mus), pole], axis=1)


# Block shape of the cascade realisation: a block keeps at most
# _BLOCK_KEPT outputs, every hop-th, and spans at most _BLOCK_SAMPLES
# samples unless one hop is longer. The shape depends on the hop alone.
# OpenBLAS (measured: 0.3.31 on AVX-512) computes each row of a product the
# same way whatever the row, column and thread counts only while the inner
# dimension is at most 384 (one pass of the sum) and the column count is a
# multiple of 8 (no edge kernel). So longer blocks are summed in passes of
# _BLOCK_SAMPLES, and every product's columns are padded to a multiple of
# _COLUMNS. Every product runs with OpenBLAS held to one thread
# (``_one_blas_thread``).
_BLOCK_SAMPLES = 384
_BLOCK_KEPT = 32
_COLUMNS = 8
# Real elements of a block's weights per group of sets, and of one pass's
# rows unless that leaves fewer than _CHUNK_ROWS of them (a block-row GEMM
# reads the weights once per pass, a band product its window copy): they
# bound the temporaries whatever the signal length.
_WEIGHT_ELEMENTS = 1 << 20
_CHUNK_ELEMENTS = 1 << 16
_CHUNK_ROWS = 32


@functools.cache
def _openblas_threads():
    """numpy's OpenBLAS thread-count (get, set) calls, or None on a BLAS
    build that does not export them (the names of numpy 2's wheels)."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


# The BLAS thread count is process-global, so its cap is too: a lock and
# the number of holders, and the count to restore when the last one leaves.
_BLAS_CAP = threading.Lock()
_blas_capped = {"holders": 0, "restore": 1}


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS to one thread until the last of any concurrent holders
    leaves, then restore the count it had.

    After each threaded product OpenBLAS's helper thread spins for a while,
    CPU time that buys layer 1's wide products little wall time on a few
    cores and tripled the wall time of layer 2's small ones on 2. Products
    come out bitwise the same on any thread count (see ``_BLOCK_SAMPLES``),
    so the cap changes speed only; on a build without the calls it does
    nothing.
    """
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, put = calls
    with _BLAS_CAP:
        if _blas_capped["holders"] == 0:
            _blas_capped["restore"] = get()
            put(1)
        _blas_capped["holders"] += 1
    try:
        yield
    finally:
        with _BLAS_CAP:
            _blas_capped["holders"] -= 1
            if _blas_capped["holders"] == 0:
                put(_blas_capped["restore"])


def _block_shape(hop: int) -> tuple[int, int]:
    """(kept outputs, samples) per block: every hop-th sample is kept."""
    kept = max(1, min(_BLOCK_KEPT, _BLOCK_SAMPLES // hop))
    return kept, kept * hop


def _state_space(stages: np.ndarray):
    """The cascades of ``stages`` (sets, K, 2) in state-space form.

    z[n] = A z[n-1] + b x[n] and y[n] = c z[n-1] + d x[n], where z_k =
    pole_k y_k[n-1] is stage k's pole times its last output. A is lower
    triangular and is never diagonalised: a uniform ladder repeats one pole
    K times.
    """
    gain, pole = stages[..., 0], stages[..., 1]
    sets, K = gain.shape
    # Stage outputs from the state: y = D z[n-1] + e x[n].
    D = np.zeros((sets, K, K), dtype=stages.dtype)
    for k in range(K):
        D[:, k, k] = 1.0
        for j in range(k - 1, -1, -1):
            D[:, k, j] = D[:, k, j + 1] * gain[:, j + 1]
    e = np.cumprod(gain, axis=1)
    return pole[:, :, None] * D, pole * e, D[:, -1], e[:, -1]


def _power_rows(A: np.ndarray, v: np.ndarray, count: int) -> np.ndarray:
    """Rows v A^m for m < count, (sets, count, K), by repeated doubling."""
    rows = np.empty((v.shape[0], count, v.shape[1]), dtype=np.result_type(A, v))
    rows[:, 0] = v
    power, done = A, 1
    while done < count:
        more = min(done, count - done)
        np.matmul(rows[:, :more], power, out=rows[:, done : done + more])
        power, done = power @ power, done + more
    return rows


def _padded(count: int) -> int:
    return -(-count // _COLUMNS) * _COLUMNS


def _matmul(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """a @ b (stacked over leading axes) in passes of _BLOCK_SAMPLES of the
    inner dimension, so that each output row is rounded the same way
    whatever the row count. Callers pass at least two rows: the GEMV path
    of a single row rounds differently."""
    if out is None:
        out = np.empty(a.shape[:-1] + b.shape[-1:], dtype=np.result_type(a, b))
    step = _BLOCK_SAMPLES
    np.matmul(a[..., :step], b[..., :step, :], out=out)
    for j in range(step, a.shape[-1], step):  # a hop or a band above 384 samples
        out += a[..., j : j + step] @ b[..., j : j + step, :]
    return out


def _block_weights(sections: np.ndarray, hop: int):
    """GEMM weights, state read-out and block step of each cascade.

    Block-relative, with z the state before the block: the kept output at
    offset i is sum_j h[i - j] x[j] + c A^i z, and the state after the block
    is A^B z + sum_j A^(B-1-j) b x[j]. The weights hold, per set, the rows
    of h for each kept offset (exactly 0 above the diagonal, so no output
    reads a later sample) and then the K state rows; their columns are
    ordered (row, set), so a GEMM row comes out as frames x sets, and
    padded with zeros to a multiple of _COLUMNS real columns, as are the
    read-out c A^i of each kept offset and the block step A^B.
    """
    sets, K = sections.shape[:2]
    kept, size = _block_shape(hop)
    A, b, c, d = _state_space(sections)
    phi = _power_rows(A.transpose(0, 2, 1), b, size)  # A^m b
    impulse = np.concatenate([d[:, None], (phi[:, :-1] @ c[:, :, None])[:, :, 0]], axis=1)
    rows = np.arange(1, kept + 1) * hop - 1  # the block ends on a kept sample
    width = 2 if phi.dtype.kind == "c" else 1
    weights = np.zeros((size, _padded((kept + K) * sets * width) // width), dtype=phi.dtype)
    shaped = weights[:, : (kept + K) * sets].reshape(size, kept + K, sets)
    for r, i in enumerate(rows):
        shaped[: i + 1, r] = impulse[:, i::-1].T
    shaped[:, kept:] = phi[:, ::-1].transpose(1, 2, 0)  # A^(B-1-j) b for each sample j
    first = c[:, None, :] @ np.linalg.matrix_power(A, hop - 1)
    read_out = np.zeros((sets, K, _padded(kept)), dtype=phi.dtype)
    rows_out = _power_rows(np.linalg.matrix_power(A, hop), first[:, 0], kept)  # c A^i, kept i
    read_out[:, :, :kept] = rows_out.transpose(0, 2, 1)
    step = np.zeros((sets, _padded(K), _padded(K)), dtype=A.dtype)
    step[:, :K, :K] = np.linalg.matrix_power(A, size).transpose(0, 2, 1)  # a row z steps as z A^T
    return weights.view(np.float64), read_out, step


def _block_cascade(x: np.ndarray, sections: np.ndarray, hop: int) -> np.ndarray:
    """Run each cascade of ``sections`` (sets, K, 2), the [gain, pole] rows
    of ``cascade_sections``, over the real signal ``x`` from rest; returns
    outputs 0, hop, 2 hop, ... as (frames, sets).

    This is the block-row layout, for causal layer 1: one signal and many
    sets (the channels), so a product's free dimension is the blocks.
    Layer 2's ladders run time-major instead (``discrete_recursive_smooth``),
    since there the lanes are many and the sets one.

    Blocks of B samples end on a kept sample (the signal is led by hop - 1
    zeros, which leave a resting state at rest). Per chunk of blocks, a GEMM
    takes the samples of each block row to every set's kept outputs and
    state increments, the real signal against complex weights as one real
    GEMM on their real view. One K x K product per block, batched over sets,
    then carries the state, and a second GEMM adds c A^i z to the block's
    outputs. Sets are taken in groups, so that the weights stay bounded, and
    each chunk has at least _CHUNK_ROWS rows but no more real elements than
    _CHUNK_ELEMENTS beyond that, so that every temporary does too. Each set
    is computed the same way whatever the set, thread and sample counts (see
    ``_BLOCK_SAMPLES``); no product has a single row, since the GEMV path
    rounds differently. The products run with OpenBLAS held to one thread
    (``_one_blas_thread``).
    """
    kept, size = _block_shape(hop)
    sets, K = sections.shape[:2]
    width = 2 if sections.dtype.kind == "c" else 1  # real GEMM columns per weight
    out = np.empty((-(-x.size // hop), sets), dtype=sections.dtype)
    group = max(1, _WEIGHT_ELEMENTS // (size * (kept + K) * width))
    with _one_blas_thread():
        for s0 in range(0, sets, group):
            _cascade_group(x, sections[s0 : s0 + group], hop, out[:, s0 : s0 + group])
    return out


def _cascade_group(x, part, hop, out) -> None:
    """``_block_cascade`` for one group of sets, written into ``out``."""
    g, K = part.shape[:2]
    kept, size = _block_shape(hop)
    blocks = -(-out.shape[0] // kept)
    dtype = out.dtype
    weights, read_out, step = _block_weights(part, hop)
    # The state as a row of each set, with a zero second row, so that no
    # product has a single row.
    state = np.zeros((g, 2, step.shape[1]), dtype=dtype)
    chunk = max(_CHUNK_ROWS, _CHUNK_ELEMENTS // weights.shape[1])
    for b0 in range(0, blocks, chunk):
        nb = min(chunk, blocks - b0)
        padded = nb + (nb == 1)
        rows = np.zeros((padded, size))
        lo = b0 * size - (hop - 1)
        a, z = max(lo, 0), min(lo + nb * size, x.size)
        rows.reshape(-1)[a - lo : z - lo] = x[a:z]
        product = _matmul(rows, weights).view(dtype)[:, : (kept + K) * g]
        product = product.reshape(padded, kept + K, g)
        # states[:, :, q] is the state before block q, each entry starting
        # as the increment the block before it adds
        states = np.zeros((g, 2, nb + 1, state.shape[2]), dtype=dtype)
        states[:, :, 0] = state
        states[:, 0, 1:, :K] = product[:nb, kept:].transpose(2, 0, 1)
        for q in range(nb):
            states[:, :, q + 1] += states[:, :, q] @ step
        state = states[:, :, nb].copy()
        read = _matmul(states[:, 0, :padded, :K], read_out)[:, :nb, :kept]
        kept_out = product[:nb, :kept]
        kept_out += read.transpose(1, 2, 0)  # (nb, kept, g)
        target = out[b0 * kept : (b0 + nb) * kept]
        whole = target.shape[0] // kept  # the last block may run past the end
        target[: whole * kept].reshape(whole, kept, g)[...] = kept_out[:whole]
        if whole < nb:
            target[whole * kept :] = kept_out[whole, : target.shape[0] - whole * kept]
        del rows, product, states, read, kept_out  # freed before the next chunk allocates its own


def _ladder_lanes(x, weights, read_out, step, unit, steady, out) -> None:
    """``discrete_recursive_smooth``'s block recursion over all the lanes, written into ``out``."""
    n, lanes = x.shape
    kept, K = read_out.shape
    width = _padded(lanes)
    block = np.zeros((kept, width))
    level = np.zeros(width)  # the block's first row
    shift = np.zeros(width)  # its level less the next block's
    state = np.zeros((step.shape[0], width))
    if not steady:
        state[:K, :lanes] -= unit * x[0]
    product = np.empty((kept + K, width))
    read = np.empty((kept, width))
    carried = np.empty_like(state)
    for lo in range(0, n, kept):
        hi = min(lo + kept, n)
        level[:lanes] = x[lo]
        np.subtract(x[lo:hi], level[:lanes], out=block[: hi - lo, :lanes])
        np.subtract(0.0, level[:lanes], out=block[hi - lo :, :lanes])  # past the end
        _matmul(weights, block, out=product)
        _matmul(read_out, state[:K], out=read)  # c A^i z for each kept offset i
        read += level
        np.add(product[: hi - lo, :lanes], read[: hi - lo, :lanes], out=out[lo:hi])
        np.subtract(level[:lanes], x[min(hi, n - 1)], out=shift[:lanes])
        increment = product[kept:]
        increment += shift * unit  # re-expressed against the next block's level
        _matmul(step, state, out=carried)
        np.add(increment, carried[:K], out=state[:K])


def discrete_recursive_smooth(
    signal, ladder: ScaleLadder, axis: int = -1, steady: bool = False
) -> np.ndarray:
    """Run a sample-unit ladder along one axis; returns the output at tau_max.

    The K stages of ``cascade_sections(ladder)`` run as one block recursion
    in the time-major layout: the lanes stay as the signal lays them out
    along ``axis``, (samples, lanes), and each block of _BLOCK_KEPT samples
    is one product of the transposed block weights with every lane's rows,
    less the block's first row r (causal layer 1's ``_block_cascade`` runs
    block rows instead). The state is kept as its deviation from the steady
    state at r, so a constant stretch settles to its exact value rather than
    rounding around it; with ``steady`` every stage starts in steady state
    at the first sample, else at rest, so a constant signal comes back
    exactly. Lanes are zero-padded to a multiple of _COLUMNS and OpenBLAS
    held to one thread, so a lane comes out bitwise the same whatever lanes
    run beside it. Complex input stays complex, run as its real view.
    Non-finite input raises ValueError: each block's outputs are one product
    with all of its samples, so a NaN or infinity would reach the outputs
    before it, not only those after.
    """
    x = np.asarray(signal)
    if not np.isfinite(x).all():
        raise ValueError("input contains non-finite values")
    sections = cascade_sections(ladder)  # refuses a ladder in seconds, even for an empty input
    x = x.astype(np.result_type(x.dtype, np.float64), copy=False)
    moved = np.moveaxis(x, axis, 0)
    lanes = moved.reshape(moved.shape[0], math.prod(moved.shape[1:]))
    if lanes.dtype.kind == "c":
        lanes = np.ascontiguousarray(lanes).view(np.float64)
    out = np.empty(lanes.shape)
    if out.size:
        weights, read_out, step = _block_weights(sections[None], 1)
        unit = sections[:, 1:]  # the pole column, the steady state at input 1
        weights = weights[:, : _BLOCK_KEPT + ladder.K].T
        with _one_blas_thread():
            _ladder_lanes(lanes, weights, read_out[0].T, step[0].T, unit, steady, out)
    return np.moveaxis(out.view(x.dtype).reshape(moved.shape), 0, axis)


def temporal_profiles(
    temporal: TemporalKernelSpec, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A temporal kernel and its first two derivatives, sampled at times t.

    Gaussians use their closed forms. Every cascade, uniform or
    logarithmic, is its phase-type density (see ``_phase_type``): the
    samples at t > 0 are the rows e_1 e^{Q t_0} P^m, for P = e^{Q dt}, times
    q, Q q and Q^2 q, and the samples at t <= 0 are 0. ``t`` is an
    ascending uniform grid in seconds.
    """
    if not temporal.family.causal:
        return tuple(gaussian_derivative_sample(temporal.tau, t, k) for k in range(3))
    t = np.asarray(t, dtype=float)
    Q, columns = _derivative_columns(temporal.ladder, 3)
    out = np.zeros((t.size, 3))
    first = int(np.searchsorted(t, 0.0, side="right"))
    if first < t.size:
        dt = t[first + 1] - t[first] if first + 1 < t.size else 0.0
        start, step = _expm(Q, [t[first], dt])
        out[first:] = _power_rows(step[None], start[None, 0], t.size - first)[0] @ columns
    return out[:, 0], out[:, 1], out[:, 2]


def _fft_length(n: int, odd_primes: tuple[int, ...] = (3, 5)) -> int:
    """The least length >= n whose odd prime factors lie in ``odd_primes``:
    SciPy's ``next_fast_len(n, real=True)``; with (3, 5, 7, 11), ``next_fast_len(n)``."""
    best = 1 << max(0, (n - 1).bit_length())
    odd = [1]
    for p in odd_primes:
        for k in list(odd):
            k *= p
            while k < best:
                odd.append(k)
                k *= p
    return min(k << (-(-n // k) - 1).bit_length() for k in odd)


def _mirror_indices(idx: np.ndarray, n: int) -> np.ndarray:
    """Fold indices into [0, n) with edge-repeated mirror symmetry."""
    if n == 1:
        return np.zeros_like(idx)
    m = np.mod(idx, 2 * n)
    return np.where(m < n, m, 2 * n - 1 - m)


# ive's scales stop short of 2^30, where SciPy's ive turns NaN: there a
# channel's taps would already number hundreds of thousands.
_IVE_LIMIT = 2.0**30


def ive(v, z):
    """e^{-z} I_v(z) for integer orders v >= 0 and a scale 0 <= z < 2^30.

    These are the taps T(v; z) of the discrete Gaussian, the inverse
    transform of its transfer function e^{-z(1 - cos theta)} (Lindeberg
    1990, PAMI, "Scale-space for discrete signals"). The trapezoid rule on
    M points is one real inverse FFT, whose only error is aliasing,
    sum_{m != 0} T(v + mM; z); with M >= 2 max(v) + 2 + 16 sqrt(z) + 32
    every alias lies 16 standard deviations out, below e^{-128} of the
    peak. The transform is taken of the transfer function minus 1, whose
    inverse is the unit impulse added back at order 0, so small scales keep
    their accuracy. Each tap is within a few 1e-16 of SciPy's
    ``scipy.special.ive``, whose name and arguments this keeps.
    """
    orders = np.asarray(v)
    if orders.dtype.kind not in "iu" or np.any(orders < 0):
        raise ValueError("ive takes integer orders v >= 0")
    if not 0 <= z < _IVE_LIMIT:
        raise ValueError(f"z={z:g} is beyond the range of ive, 0 <= z < 2^30")
    top = int(orders.max(initial=0))
    m = _fft_length(2 * top + 2 + math.ceil(16.0 * math.sqrt(z)) + 32)
    half = np.sin(np.pi / m * np.arange(m // 2 + 1))  # 1 - cos theta = 2 sin^2(theta / 2)
    taps = np.fft.irfft(np.expm1(-2.0 * z * half * half), n=m)
    taps[0] += 1.0
    return taps[orders]


def discrete_gaussian_kernel(s_sampl: float, epsilon: float = 1e-6) -> SampledKernel:
    """Discrete analogue of the Gaussian: T(n; s) = e^{-s} I_n(s).

    The infinite kernel is truncated at the smallest half-width N whose taps
    carry more than 1 - epsilon of the mass, then renormalized to sum to
    exactly 1. The taps come from ``ive``, one real inverse FFT of the
    kernel's transfer function. The kernel's standard deviation is
    sqrt(s), so the search starts at 6 sqrt(s) + 10 taps and doubles only
    when a small epsilon needs more. The transform rounds each tap by about
    2^-52 of the mass, so the search ends with ValueError once it passes
    16 sqrt(s) + 64 taps, beyond which every true tap is below e^-96 of the
    mass and the sum cannot grow, and an epsilon at or below 2^-52 is
    refused outright. So is a scale beyond ``ive``'s range (s from 2^30,
    e.g. a channel below 10.8 Hz at 44.1 kHz with 8-period windows).
    """
    if not 2.0**-52 < epsilon < 1.0:
        raise ValueError(
            f"epsilon must lie in (2^-52, 1), got {epsilon:g}: the tap sum of the "
            f"discrete Gaussian at s={s_sampl:g} rounds by 2^-52"
        )
    if not 0 <= s_sampl < math.inf:
        raise ValueError(f"scale must be non-negative and finite, got {s_sampl}")
    if s_sampl == 0:
        return SampledKernel(values=np.array([1.0]), origin_index=0)
    n_guess = max(4, int(math.ceil(6.0 * math.sqrt(s_sampl) + 10.0)))
    while True:
        taps = ive(np.arange(n_guess + 1), s_sampl)
        total = taps[0] + 2.0 * np.cumsum(taps[1:])
        hit = np.nonzero(total > 1.0 - epsilon)[0]
        if hit.size:
            break
        if n_guess > 16.0 * math.sqrt(s_sampl) + 64.0:
            raise ValueError(
                f"discrete Gaussian at s={s_sampl:g} never carries 1 - epsilon of its mass "
                f"for epsilon={epsilon:g}: the tap sum's rounding error is larger"
            )
        n_guess *= 2
    n_half = int(hit[0]) + 1
    half = taps[: n_half + 1]
    values = np.concatenate([half[:0:-1], half])
    values = values / values.sum()
    return SampledKernel(values=values, origin_index=n_half)


# Outputs per product of the discrete-Gaussian smoothing: one band of the
# kernel's Toeplitz matrix serves every block of them.
_BAND_OUTPUTS = 32


def _folded_taps(taps: np.ndarray, h: int, n: int) -> np.ndarray:
    """A centred kernel of half-width h > n folded onto offsets -n .. n,
    equal in effect on a mirrored axis of n samples.

    The mirrored lane has period 2n, so every tap whose offset t - h has the
    same residue mod 2n reads the same sample: those taps are summed once,
    exactly rounded (``math.fsum``). Offsets -n and n share residue n and
    each take half its sum.
    """
    residues = (np.arange(taps.size) - h) % (2 * n)
    order = np.argsort(residues, kind="stable")
    counts = np.bincount(residues, minlength=2 * n)
    sums = np.array([math.fsum(g) for g in np.split(taps[order], np.cumsum(counts)[:-1])])
    folded = sums[np.arange(-n, n + 1) % (2 * n)]
    folded[[0, -1]] = sums[n] / 2.0
    return folded


def discrete_gaussian_smooth(x: np.ndarray, kernel: SampledKernel, axis: int = -1) -> np.ndarray:
    """Correlate along one axis with a centred kernel, mirrored boundaries.

    The kernel is a discrete Gaussian, or one with a central difference
    folded into its taps (layer 2's spectral derivatives); one whose length
    is not 2 origin_index + 1 is refused. Equal, to
    within rounding, to ``scipy.ndimage.correlate1d(x, kernel.values, axis,
    mode="reflect")``: within 1e-15 of the largest magnitude on maps, and
    2e-15 where hundreds of taps fold onto a short axis (tests bound both).
    On an axis of one sample every tap folds onto it, and the kernel of
    s = 0 is one tap of 1, so either result is x times the tap sum (a copy,
    -0.0 kept, for s = 0). Every other axis holds independent lanes. Each
    lane is mirror-padded by the kernel's half-width h, and each block of
    _BAND_OUTPUTS outputs is one product of the lanes' (32 + 2h)-sample
    window with one shared band of the kernel's Toeplitz matrix. A kernel
    whose half-width h passes the axis length n is first folded onto one
    period of the mirrored lane (``_folded_taps``), so that each output sums
    2n + 1 taps, not hundreds that read the same few samples. Lanes are
    gathered in passes of at least _CHUNK_ROWS, and no more than
    _CHUNK_ELEMENTS of the mirrored copy beyond that. The products keep
    ``_matmul``'s rules and run with OpenBLAS held to one thread
    (``_one_blas_thread``), so a lane comes out bitwise the same whatever
    lanes are smoothed with it and whatever the pass size. Non-finite input
    raises ValueError: through the band's zeros a NaN or infinity would
    reach every output of its block, and a complex array raises ValueError
    rather than losing its imaginary part.
    """
    taps, h = kernel.values, kernel.origin_index
    if taps.shape != (2 * h + 1,):
        raise ValueError(
            f"a centred kernel has 2 * origin_index + 1 = {2 * h + 1} taps, got {taps.shape}"
        )
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ValueError(f"discrete_gaussian_smooth takes a real array, got dtype {x.dtype}")
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("input contains non-finite values")
    out = np.empty_like(x)
    lanes, result = np.moveaxis(x, axis, -1), np.moveaxis(out, axis, -1)
    if h == 0 or lanes.shape[-1] == 1:  # every tap lands on the one sample
        return x * taps.sum()
    if out.size == 0:
        return out
    if lanes.ndim == 1:
        lanes, result = lanes[None], result[None]
    n = lanes.shape[-1]
    if h > n:
        taps, h = _folded_taps(taps, h, n), n
    blocks = -(-n // _BAND_OUTPUTS)
    width = _BAND_OUTPUTS + 2 * h
    # band[i, j] = taps[i - j]: output j of a block reads window samples j .. j + 2h
    band = sliding_window_view(np.pad(taps, _BAND_OUTPUTS - 1), _BAND_OUTPUTS)[:, ::-1]
    band = np.ascontiguousarray(band)
    # The last block's outputs past n read further mirror images; they are dropped.
    columns = _mirror_indices(np.arange(-h, blocks * _BAND_OUTPUTS + h), n)
    rows = max(_CHUNK_ROWS, _CHUNK_ELEMENTS // columns.size)
    step = max(1, rows // math.prod(lanes.shape[1:-1]))  # indices of the first axis per pass
    with _one_blas_thread():
        for lo in range(0, lanes.shape[0], step):
            part = np.take(lanes[lo : lo + step], columns, axis=-1).reshape(-1, columns.size)
            if part.shape[0] == 1:
                part = np.concatenate([part, np.zeros_like(part)])
            # (blocks, rows, width) windows, every block's outputs one stacked product
            windows = sliding_window_view(part, width, axis=1)[:, ::_BAND_OUTPUTS].swapaxes(0, 1)
            smoothed = np.empty((part.shape[0], blocks, _BAND_OUTPUTS))
            _matmul(windows, band, out=smoothed.transpose(1, 0, 2))
            target = result[lo : lo + step]
            kept = smoothed.reshape(part.shape[0], -1)[: target.size // n, :n]
            target[...] = kept.reshape(target.shape)
    return out
