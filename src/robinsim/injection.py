"""Monte Carlo fault injection for block writes.

Each bit that must flip (data bits, and check bits when enabled) fails
independently with probability 1 - p_write and then retains its old value;
bits that need no transition never fail. A write outcome is classified by
the count rule: the block is recoverable when no codeword suffered more than
one failure (t = 1 for SEC-DED). The decoder-based view is available as a
cross-check but is never the ground truth, because triple-and-higher errors
can alias to a valid correction.

Monte Carlo estimates draw only the cells that fail: a chunk of trials lays
its flipping cells out as one field, and the failures in it are placed by
geometric gaps (the distance from one failing cell to the next), which is the
same independent-cell model sampled exactly. The work scales with the
expected number of failures, not with the number of flipping cells.
:func:`inject_write` picks its failing cells with the same sampler, so the
decoder cross-check runs it too.

:func:`monte_carlo_block` takes one write or a batch of them. A batch is
counted with one :func:`robinsim.mapping.codeword_counts` call, and the
failures of its records are classified together, a bounded number of failure
positions at a time. :class:`MonteCarloAccumulator` feeds it the batches of
``run_experiment``.

Reproducibility: every record of a trace gets its own substream seeded with
``mix_seed(seed, record_index)``, a splitmix64 step (constants below), so
estimates do not depend on processing order or batching. Within a substream,
trials are consumed in fixed-size chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import secded
from .bits import BLOCK_BYTES, block_bytes, stack_blocks
from .mapping import CODEWORDS, MappingScheme, block_datawords, codeword_counts, scheme_assignment

_MASK64 = (1 << 64) - 1
# splitmix64: golden-gamma increment and the two finalizer multipliers
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
SPLITMIX_MUL1 = 0xBF58476D1CE4E5B9
SPLITMIX_MUL2 = 0x94D049BB133111EB

# trials are simulated in fixed-size chunks so estimates are reproducible
_TRIAL_CHUNK = 8192
# failure positions a batch holds before it classifies them (512 KB of int64);
# one record chunk alone can hold more, about 490k at p_write 0.5
_HELD_POSITIONS = 1 << 16


def mix_seed(seed: int, index: int) -> int:
    """The (index+1)-th output of the splitmix64 stream started at ``seed``.

    Collision-resistant enough to give every (seed, record) pair an
    independent, order-insensitive substream. numpy integers are accepted.
    """
    seed, index = int(seed), int(index)
    z = (seed + (index + 1) * SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * SPLITMIX_MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * SPLITMIX_MUL2) & _MASK64
    return z ^ (z >> 31)


def substream(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-record random generator."""
    return np.random.default_rng(mix_seed(seed, index))


@dataclass(frozen=True)
class InjectionConfig:
    pw: float
    scheme: MappingScheme
    trials: int = 1
    seed: int = 0
    include_ecc: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.pw <= 1.0:
            raise ValueError(f"p_write must lie in [0, 1], got {self.pw}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class WriteOutcome:
    """One simulated write: the stored payload and its failure classification.

    ``written`` holds the 64-byte payload as stored (failed bits keep their
    old value); ``written_check`` the eight stored check words when check-bit
    injection was enabled. ``block_ok`` follows the count rule: at most one
    failure in every codeword.
    """

    written: bytes
    written_check: tuple[int, ...] | None
    failures_per_codeword: tuple[int, ...]
    block_ok: bool


def inject_write(
    old: bytes, new: bytes, cfg: InjectionConfig, rng: np.random.Generator
) -> WriteOutcome:
    """Simulate one write of ``new`` over ``old`` with stochastic cell failures.

    Cells are laid out in one fixed order: the 512 data bits by flat index,
    then, when check injection is on, check bit r of codeword n as cell
    512 + 8n + r. The failing cells among the transitioning ones are drawn
    with :func:`_failing_cells`, the sampler behind :func:`monte_carlo_block`,
    so outcomes are reproducible for a given generator state.
    """
    blocks = stack_blocks([old, new])
    # eight cells per byte, in cell order: the payload, then one check word per codeword
    diff = blocks[0] ^ blocks[1]
    stored = blocks[1]
    if cfg.include_ecc:
        old_check, new_check = secded.encode_words(block_datawords(cfg.scheme, blocks))
        diff = np.concatenate([diff, old_check ^ new_check])
        stored = np.concatenate([stored, new_check])
    flipping = np.flatnonzero(np.unpackbits(diff, bitorder="little"))
    failed = flipping[_failing_cells(rng, 1.0 - cfg.pw, flipping.size)]
    failed_cells = np.zeros(8 * diff.size, dtype=np.uint8)
    failed_cells[failed] = 1
    # a failed cell keeps its old value, the complement of the new one
    stored = stored ^ np.packbits(failed_cells, bitorder="little")
    owner = np.append(scheme_assignment(cfg.scheme), np.arange(CODEWORDS).repeat(secded.CHECK_BITS))
    counts = np.bincount(owner[failed], minlength=CODEWORDS)
    return WriteOutcome(
        written=stored[:BLOCK_BYTES].tobytes(),
        written_check=tuple(int(v) for v in stored[BLOCK_BYTES:]) if cfg.include_ecc else None,
        failures_per_codeword=tuple(int(v) for v in counts),
        block_ok=bool(counts.max() <= 1),
    )


@dataclass(frozen=True)
class BlockEstimate:
    """Monte Carlo estimate of a block write's success probability.

    For a batch of writes, ``p_block``, ``stderr`` and ``successes`` are
    ``(n,)`` arrays, one entry per write.
    """

    p_block: float | np.ndarray
    stderr: float | np.ndarray
    trials: int
    successes: int | np.ndarray

    @property
    def error_rate(self) -> float | np.ndarray:
        return 1.0 - self.p_block


def monte_carlo_block(
    old: bytes | np.ndarray, new: bytes | np.ndarray, cfg: InjectionConfig, record_index: int = 0
) -> BlockEstimate:
    """Estimate block write success probabilities by repeated fault injection.

    ``old`` and ``new`` are one write as two 64-byte payloads, or a batch as
    two ``(n, 64)`` uint8 arrays holding records ``record_index`` to
    ``record_index + n - 1``; for a batch, ``p_block``, ``stderr`` and
    ``successes`` are ``(n,)`` arrays. Record r draws from its own
    ``substream(seed, r)``, so a record's estimate is the same in any batch.

    Only the transitioning cells of codewords with at least two of them are
    simulated, since a codeword with one can never exceed t = 1. For each
    chunk of trials a record's cells form one trial-major field, the failing
    cells in it are placed by geometric gaps, and a trial succeeds when every
    codeword collects at most one failure. A record that cannot fail draws
    nothing. All n writes are counted at once, and the failures of many
    records are classified together (see :func:`_failed_trials`).
    """
    batch = np.ndim(old) == 2
    diff = old ^ new if batch else (block_bytes(old) ^ block_bytes(new))[None]
    data, check = codeword_counts(cfg.scheme, diff, cfg.include_ecc)
    counts = data if check is None else data + check
    successes = cfg.trials - _failed_trials(np.where(counts > 1, counts, 0), cfg, int(record_index))
    p = successes / cfg.trials
    stderr = np.sqrt(p * (1.0 - p) / cfg.trials)
    if batch:
        return BlockEstimate(p_block=p, stderr=stderr, trials=cfg.trials, successes=successes)
    return BlockEstimate(
        p_block=float(p[0]), stderr=float(stderr[0]), trials=cfg.trials, successes=int(successes[0])
    )


def _failed_trials(counts: np.ndarray, cfg: InjectionConfig, first_record: int) -> np.ndarray:
    """Failed trials of each row of simulated-cell ``counts``; row i is record first_record + i.

    Record by record and chunk by chunk, the failing cells are drawn from the
    record's substream exactly as a record on its own would draw them. The
    failures are held, laid end to end, and classified together whenever
    more than ``_HELD_POSITIONS`` are held. A failure is keyed by (record
    chunk, trial, codeword) and the keys arrive sorted, so a repeated key is
    a second failure in one codeword, and its trial fails.
    """
    failed = np.zeros(len(counts), dtype=np.int64)
    fail_prob = 1.0 - cfg.pw
    rows = np.flatnonzero(counts.any(axis=1))
    if fail_prob == 0.0 or rows.size == 0:
        return failed
    sizes = counts[rows].sum(axis=1)
    # the codeword of each simulated cell: a record's cells grouped by codeword,
    # the records laid end to end, record i's cells from cell_start[i]
    cell_codeword = np.repeat(np.tile(np.arange(CODEWORDS), rows.size), counts[rows].ravel())
    cell_start = np.cumsum(sizes) - sizes
    held, owners = [], []   # the failures of record chunks, and the record index into rows of each

    def classify() -> None:
        lengths = [cells.size for cells in held]
        owner = np.array(owners)
        trial, cell = np.divmod(np.concatenate(held), np.repeat(sizes[owner], lengths))
        # one trial number per (record chunk, trial), still increasing along the failures
        trial += np.repeat(np.arange(len(held)) * _TRIAL_CHUNK, lengths)
        cell += np.repeat(cell_start[owner], lengths)
        key = trial * CODEWORDS + cell_codeword[cell]
        twice = trial[1:][key[1:] == key[:-1]]
        first = np.ones(twice.size, dtype=bool)
        first[1:] = twice[1:] != twice[:-1]
        failed[rows] += np.bincount(owner[twice[first] // _TRIAL_CHUNK], minlength=rows.size)
        held.clear()
        owners.clear()

    held_size = 0
    for i, row in enumerate(rows.tolist()):
        rng = substream(cfg.seed, first_record + row)
        for start in range(0, cfg.trials, _TRIAL_CHUNK):
            chunk = min(_TRIAL_CHUNK, cfg.trials - start)
            cells = _failing_cells(rng, fail_prob, int(sizes[i]) * chunk)
            if cells.size:
                held.append(cells)
                owners.append(i)
                held_size += cells.size
                if held_size > _HELD_POSITIONS:
                    classify()
                    held_size = 0
    if held:
        classify()
    return failed


def _failing_cells(rng: np.random.Generator, fail_prob: float, size: int) -> np.ndarray:
    """Sorted indices in [0, size) of the cells that fail, each with ``fail_prob``.

    Gaps between consecutive failures are geometric. Each gap is clipped to
    ``size`` before summing: at tiny ``fail_prob`` numpy saturates a gap at
    2**63 - 1, and an unclipped running sum would wrap around. Nothing is
    drawn when no cell can fail.
    """
    if size == 0 or fail_prob == 0.0:
        return np.empty(0, dtype=np.int64)
    expected = size * fail_prob
    batch = int(expected + 4.0 * math.sqrt(expected)) + 16
    parts = []
    last = -1
    while last < size:
        positions = last + np.cumsum(np.minimum(rng.geometric(fail_prob, batch), size))
        parts.append(positions)
        last = int(positions[-1])
    positions = np.concatenate(parts)
    return positions[: np.searchsorted(positions, size)]


@dataclass(frozen=True)
class TraceEstimate:
    """Monte Carlo estimate of the mean block-failure rate over a trace."""

    error_rate: float
    stderr: float
    records: int
    trials_per_record: int


class MonteCarloAccumulator:
    """Running trace-level Monte Carlo estimate, fed (old, new) writes in record order.

    The r-th write added is record r and uses substream mix_seed(seed, r), so
    the estimate is independent of how the writes are batched; partial
    results merge by summing (failure_fraction, variance_term) pairs.
    """

    def __init__(self, cfg: InjectionConfig) -> None:
        self.cfg = cfg
        self.records = 0
        self._failure_sum = 0.0
        self._variance_sum = 0.0

    def add(self, old: bytes, new: bytes) -> None:
        self.add_batch(block_bytes(old)[None], block_bytes(new)[None])

    def add_batch(self, olds: np.ndarray, news: np.ndarray) -> None:
        """Add the writes of two ``(n, 64)`` uint8 arrays as the next n records."""
        estimate = monte_carlo_block(olds, news, self.cfg, record_index=self.records)
        variance = estimate.p_block * (1.0 - estimate.p_block) / self.cfg.trials
        # one record at a time, so the sums do not depend on the batching
        for failure, term in zip(estimate.error_rate.tolist(), variance.tolist()):
            self._failure_sum += failure
            self._variance_sum += term
        self.records += len(olds)

    def finalize(self) -> TraceEstimate:
        if self.records == 0:
            raise ValueError("empty pair stream")
        return TraceEstimate(
            error_rate=self._failure_sum / self.records,
            stderr=math.sqrt(self._variance_sum) / self.records,
            records=self.records,
            trials_per_record=self.cfg.trials,
        )


def monte_carlo_trace(
    pairs: Iterable[tuple[bytes, bytes]] | Iterator[tuple[bytes, bytes]],
    cfg: InjectionConfig,
) -> TraceEstimate:
    """Mean block-failure fraction over (records x trials); see MonteCarloAccumulator."""
    accumulator = MonteCarloAccumulator(cfg)
    for old, new in pairs:
        accumulator.add(old, new)
    return accumulator.finalize()


@dataclass(frozen=True)
class CodecCrossCheck:
    """Agreement between count-based classification and the SEC-DED decoder."""

    agree: bool
    codewords_checked: int
    aliased: int


def end_to_end_check(outcome: WriteOutcome, new: bytes, scheme: MappingScheme) -> CodecCrossCheck:
    """Run the decoder over each stored codeword and compare with the count rule.

    For codewords with at most two failures the decoder verdict must match
    block-level accounting exactly (and a correction must restore the intended
    content). With three or more failures the syndrome may alias; those
    disagreements are only counted.
    """
    if outcome.written_check is None:
        raise ValueError("end_to_end_check needs an outcome produced with include_ecc")
    stored_words, intended_words = block_datawords(scheme, stack_blocks([outcome.written, new]))
    syndromes, bits, fixed_data, fixed_check = secded.repair_words(
        stored_words, np.array(outcome.written_check, dtype=np.uint8)
    )
    # NO_ERROR, or a correction that restores the intended content
    decoder_ok = (syndromes == 0) | (
        (bits >= 0)
        & (fixed_data == intended_words)
        & (fixed_check == secded.encode_words(intended_words))
    )
    failures = np.array(outcome.failures_per_codeword)
    disagree = decoder_ok != (failures <= 1)
    return CodecCrossCheck(
        agree=not disagree[failures <= 2].any(),
        codewords_checked=CODEWORDS,
        aliased=int(disagree[failures > 2].sum()),
    )
