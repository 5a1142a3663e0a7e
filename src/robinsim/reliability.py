"""Closed-form write-reliability model for SEC-DED protected blocks.

Per-bit: a cell that must flip succeeds with probability ``p_write``; cells
that need no transition never fail. Per-codeword: a write with k transitions
succeeds when at most one of them fails, i.e. ``pw^k + k*pw^(k-1)*(1-pw)``.
Per-block: the product over the eight codewords, summed in log space; block
failure is ``-expm1`` of that sum, so it keeps its precision at tiny 1 - pw.
The optimal reference spreads a block's total K transitions uniformly (K/8 per
codeword), which maximizes the block success probability for fixed K.

``p_write`` can be supplied directly (the primary experiment pathway) or
derived from device physics via :func:`p_write_from_device`.

Each formula has one array implementation: :func:`codeword_log_success_array`
for a codeword, whose sum over a row is the block's log success, and
:func:`block_log_success_optimal_array` for the uniform-split bound.
A write's counts are a row of eight, one per codeword. :class:`TraceAccumulator`
folds a batch of S schemes' rows, as :func:`robinsim.mapping.scheme_counts`
returns them, into every scheme's mean failure, optimum and codeword spread
in one call; :func:`trace_error_rate`, which also rates a single row, and
:func:`robinsim.trace.codeword_stats` are its one-scheme calls. Its counts
are whole numbers in [0, 576], 576 being the cells of a block, so it
evaluates the closed form once per pw, for every possible count and block
total, and then only looks values up: cached tables of those same two
arrays, not a second formula. It works codeword-major and
adds a write's eight log terms in a fixed order, ``((c0 + c1) + (c2 + c3)) +
((c4 + c5) + (c6 + c7))``: the pairwise tree in which numpy sums eight
contiguous float64 (N. J. Higham, SIAM J. Sci. Comput. 14(4), 1993), so its
rates equal a row-wise ``sum``'s bit for bit; a left-to-right order would not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .bits import BLOCK_BITS, _int_setting
from .mapping import BATCH, CODEWORDS
from .secded import CHECK_BITS

EULER_GAMMA = 0.5772156649015329   # the Euler-Mascheroni constant

# cells of one block, data and check bits: the largest count a row entry may hold
BLOCK_CELLS = BLOCK_BITS + CODEWORDS * CHECK_BITS


class ParameterError(ValueError):
    """Physically meaningless or non-finite model parameters."""


@dataclass(frozen=True)
class DeviceParams:
    """Operating point of one STT-MRAM cell write.

    Units follow the underlying physics (seconds, amperes, J/T, coulombs);
    ``delta`` is the dimensionless thermal stability factor.
    """

    t_write: float
    i_write: float
    i_c0: float
    polarization: float
    magnetic_moment: float
    mu_b: float = 9.2740100783e-24
    delta: float = 60.0
    e_charge: float = 1.602176634e-19

    def __post_init__(self) -> None:
        for item in fields(self):
            if not math.isfinite(getattr(self, item.name)):
                raise ParameterError(f"{item.name} must be finite, got {getattr(self, item.name)}")
        for name in ("t_write", "magnetic_moment", "mu_b", "e_charge"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0 < self.polarization < 1:
            raise ParameterError(f"polarization must lie in (0, 1), got {self.polarization}")
        if self.delta <= 0:
            raise ParameterError(f"delta must be positive, got {self.delta}")
        if self.i_write < self.i_c0:
            raise ParameterError(
                f"i_write={self.i_write} below critical current i_c0={self.i_c0}"
            )


def p_write_from_device(params: DeviceParams) -> float:
    """Per-bit transition success probability from the device operating point.

    failure = exp(-t_write * 2*mu_b*p*(i_write - i_c0)
                  / (EULER_GAMMA + ln(pi^2 * delta / 4) * (e * m * (1 + p^2))))
    and p_write = 1 - failure, clamped to [0, 1].
    """
    p = params.polarization
    numerator = 2.0 * params.mu_b * p * (params.i_write - params.i_c0)
    denominator = EULER_GAMMA + math.log(math.pi**2 * params.delta / 4.0) * (
        params.e_charge * params.magnetic_moment * (1.0 + p * p)
    )
    if not math.isfinite(denominator) or denominator <= 0:
        raise ParameterError(f"non-positive or non-finite denominator: {denominator}")
    exponent = -params.t_write * numerator / denominator
    if not math.isfinite(exponent):
        raise ParameterError("non-finite exponent in failure probability")
    failure = math.exp(exponent)
    return min(1.0, max(0.0, 1.0 - failure))


def _log1pmx(x: np.ndarray) -> np.ndarray:
    """log1p(x) - x; a Taylor series below |x| = 1e-3, where the subtraction would cancel."""
    series = x * x * (-1 / 2 + x * (1 / 3 + x * (-1 / 4 + x / 5)))
    return np.where(np.abs(x) < 1e-3, series, np.log1p(x) - x)


def codeword_log_success_array(k: np.ndarray, pw: float) -> np.ndarray:
    """Log-probability that codewords with k transitioning bits are written correctly.

    With q = 1 - pw that is (k-1)*log1p(-q) + log1p((k-1)q), whose first-order
    terms cancel exactly; it is evaluated as (k-1)*g(-q) + g((k-1)q) with
    g(x) = log1p(x) - x, which stays accurate at tiny q. Below pw = 1/2 it is
    evaluated as (k-1)*log(pw) + log(pw + kq) instead: there 1 - pw may round
    to 1 (for pw <= 2^-54), which would turn the first form into NaN. k may be
    real-valued (used by the idealized uniform bound, where the single-failure
    multiplicity generalizes from C(k,1) to k); a real k < 1 is clamped at 0.
    """
    if not 0.0 <= pw <= 1.0:
        raise ParameterError(f"p_write must lie in [0, 1], got {pw}")
    k = np.asarray(k, dtype=np.float64)
    if np.any(k < 0):
        raise ParameterError("transition counts must be non-negative")
    if pw == 0.0:
        return np.where(k <= 1, 0.0, -np.inf)
    q = 1.0 - pw
    if pw < 0.5:
        return np.minimum((k - 1.0) * np.log(pw) + np.log(pw + k * q), 0.0)
    return np.minimum((k - 1.0) * _log1pmx(-q) + _log1pmx((k - 1.0) * q), 0.0)


def block_log_success_optimal_array(totals: np.ndarray, pw: float) -> np.ndarray:
    """Idealized bound: each block's total transitions spread uniformly, K/8 each.

    K/8 stays real-valued, so this is an upper bound that is attainable only
    when 8 divides K.
    """
    totals = np.asarray(totals, dtype=np.float64)
    return CODEWORDS * codeword_log_success_array(totals / CODEWORDS, pw)


@dataclass(frozen=True)
class TraceErrorRate:
    """Mean per-write block-failure probability over a trace, and its uniform-split optimum."""

    rate: float
    optimal_rate: float
    writes: int


@lru_cache(maxsize=16)
def _rate_tables(pw: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form values at pw for every count a row can hold.

    The log success of a codeword with k = 0 .. 576 flips, and the block
    failure ``expm1`` of the uniform-split bound for a total of 0 .. 8 * 576.
    """
    log_success = codeword_log_success_array(np.arange(BLOCK_CELLS + 1), pw)
    optimal = np.expm1(block_log_success_optimal_array(np.arange(CODEWORDS * BLOCK_CELLS + 1), pw))
    for table in (log_success, optimal):
        table.setflags(write=False)
    return log_success, optimal


@dataclass(frozen=True)
class CodewordStats:
    """Trace-level spread of per-codeword transitions, normalized to each write's mean.

    For every write with K > 0 transitions the eight counts are divided by
    K/8 (the uniform share, 100%); the per-write minimum and maximum are then
    averaged over the trace and their extremes kept.
    """

    scheme: str
    writes: int
    skipped_zero: int
    min_avg_pct: float
    max_avg_pct: float
    min_extreme_pct: float
    max_extreme_pct: float

    @property
    def gap_pct(self) -> float:
        return self.max_avg_pct - self.min_avg_pct


def _codeword_major(counts: np.ndarray, schemes: int) -> np.ndarray:
    """``(n, S, 8)`` counts as a contiguous codeword-major ``(8, S, n)`` array, checked.

    A row per scheme per write; one scheme also takes ``(n, 8)`` counts.
    They must be whole numbers in [0, 576]. uint8 counts, the kernel's, are
    checked by shape alone, as [0, 255] lies inside that range; other integer
    and bool counts are converted to int64, so are whole-valued floats, and
    any other value, or rows of ragged lengths, raises :class:`ParameterError`.
    """
    try:
        counts = np.asarray(counts)
    except ValueError as exc:
        raise ParameterError(f"count rows need {CODEWORDS} entries each: {exc}") from exc
    shape = counts.shape
    if schemes == 1 and counts.ndim == 2:
        counts = counts[:, None]
    if counts.shape[1:] != (schemes, CODEWORDS):
        per_scheme = f" for each of {schemes} schemes" if schemes > 1 else ""
        raise ParameterError(f"count rows need {CODEWORDS} entries{per_scheme}, got shape {shape}")
    if counts.dtype != np.uint8:
        # NaN fails both comparisons
        if counts.size and not (counts.min() >= 0 and counts.max() <= BLOCK_CELLS):
            raise ParameterError(f"transition counts must lie in [0, {BLOCK_CELLS}]")
        whole = counts.astype(np.int64, copy=False)
        if counts.dtype.kind not in "biu" and not np.array_equal(whole, counts):
            raise ParameterError("transition counts must be whole numbers")
        counts = whole
    return np.ascontiguousarray(counts.transpose(2, 1, 0))


class TraceAccumulator:
    """Per-scheme means of block failure, its uniform-split optimum and the codeword spread.

    :meth:`add` folds a batch of S schemes' ``(n, S, 8)`` counts into every
    scheme's sums at once, over codeword-major ``(8, S, n)`` copies. Each sum
    over writes is one contiguous row ``sum`` per scheme, which numpy adds up
    as it does a 1-D array, so a scheme's results do not depend on the other
    schemes of the batch; they do depend on the batching, as each batch is
    reduced to one float per sum. ``schemes`` must be an integer (numpy
    integers too) of at least 1; any other raises ``ValueError`` naming it.
    """

    def __init__(self, pw: float, schemes: int = 1) -> None:
        self._tables = _rate_tables(pw)   # raises ParameterError for a pw outside [0, 1]
        schemes = _int_setting("schemes", schemes, 1)
        self.writes = 0
        # per scheme: failure, optimal, min-share and max-share sums; live writes; extremes
        self._sums = np.zeros((4, schemes))
        self._live = np.zeros(schemes, dtype=np.int64)
        self._min_extreme = np.full(schemes, math.inf)
        self._max_extreme = np.full(schemes, -math.inf)

    def add(self, data: np.ndarray, cells: np.ndarray | None = None) -> None:
        """Fold one batch: the spread of ``data``, and the rates of ``cells``, or of ``data``.

        Both are ``(n, S, 8)`` whole numbers in [0, 576], or ``(n, 8)`` for one
        scheme; any other counts raise :class:`ParameterError`.
        """
        schemes = len(self._live)
        spread = _codeword_major(data, schemes)
        columns = spread if cells is None or cells is data else _codeword_major(cells, schemes)
        if spread.shape != columns.shape:
            raise ParameterError(f"data and cells differ in length: {spread.shape[2]} and {columns.shape[2]}")
        self._fold(columns, spread)

    def _fold(self, columns: np.ndarray | None, spread: np.ndarray | None) -> None:
        """:meth:`add` of codeword-major rate ``columns`` and ``spread``; a None one's sums stay."""
        if columns is not None:
            log_success, optimal = self._tables
            c = log_success.take(columns)
            # failure is -expm1(log success), which does not cancel against 1 at tiny q
            failures = np.expm1(((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7])))
            # row totals are at most 8 * 576, so uint16 sums are exact
            optimals = optimal.take(columns.sum(axis=0, dtype=np.uint16))
            self._sums[:2] -= failures.sum(axis=1), optimals.sum(axis=1)
        if spread is not None:
            totals = spread.sum(axis=0, dtype=np.uint16)
            live = totals > 0
            # a zero write's minimum and maximum are 0; a share of 1/8 keeps its 0 / 0 out
            share = np.maximum(totals, 1) / CODEWORDS
            mins = spread.min(axis=0) / share * 100.0
            maxs = spread.max(axis=0) / share * 100.0
            self._live += np.count_nonzero(live, axis=1)
            np.minimum(self._min_extreme, mins.min(axis=1, initial=math.inf, where=live), out=self._min_extreme)
            np.maximum(self._max_extreme, maxs.max(axis=1, initial=-math.inf, where=live), out=self._max_extreme)
            if not live.all():
                mins, maxs = ([row[keep] for row, keep in zip(shares, live)] for shares in (mins, maxs))
            self._sums[2:] += [row.sum() for row in mins], [row.sum() for row in maxs]
        self.writes += (spread if columns is None else columns).shape[2]

    def rates(self) -> list[TraceErrorRate]:
        """Each scheme's mean block failure and its uniform-split optimum."""
        if self.writes == 0:
            raise ValueError("empty count-row stream")
        return [
            TraceErrorRate(failure / self.writes, optimal / self.writes, self.writes)
            for failure, optimal in zip(*self._sums[:2].tolist())
        ]

    def stats(self, kinds: Sequence[str]) -> list[CodewordStats]:
        """Each scheme's codeword spread, named by ``kinds`` in the accumulator's scheme order."""
        extremes = self._min_extreme.tolist(), self._max_extreme.tolist()
        spreads = zip(self._live.tolist(), *self._sums[2:].tolist(), *extremes)
        return [
            CodewordStats(kind, live, self.writes - live, lo / live, hi / live, lo_x, hi_x)
            if live
            else CodewordStats(kind, 0, self.writes, 0.0, 0.0, 0.0, 0.0)
            for kind, (live, lo, hi, lo_x, hi_x) in zip(kinds, spreads, strict=True)
        ]


def trace_error_rate(rows: Iterable[Sequence[int]], pw: float) -> TraceErrorRate:
    """Aggregate Eq-style block failure over a stream of rows of eight counts.

    The cache error rate is the mean over writes of each block's failure
    probability, one minus the product of its eight codewords' success;
    alongside it the same mean is computed against the uniform K/8 bound,
    using each write's own total K. Writes with K = 0 contribute zero to
    both. A one-scheme :class:`TraceAccumulator`'s rates, BATCH rows at a
    time; ``trace_error_rate([row], pw).rate`` is one write's failure.
    """
    acc = TraceAccumulator(pw)
    rows = iter(rows)
    while chunk := list(islice(rows, BATCH)):
        acc._fold(_codeword_major(chunk, 1), None)
    return acc.rates()[0]


def normalized_increase(rate: float, optimal_rate: float) -> float:
    """Percent increase of an error rate over its uniform-split optimum.

    Both zero means the trace never risked a failure: 0%. A zero optimal with
    a positive rate is reported as an infinite increase.
    """
    # NaN fails both comparisons
    if not (rate >= 0 and optimal_rate >= 0):
        raise ParameterError(f"rates must be non-negative, got {rate} and {optimal_rate}")
    if optimal_rate == 0.0:
        return 0.0 if rate == 0.0 else math.inf
    return (rate / optimal_rate - 1.0) * 100.0
