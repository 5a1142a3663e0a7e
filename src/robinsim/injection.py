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
:func:`inject_write` still draws one uniform per bit, because its outcome
carries the stored payload the decoder cross-check needs.

Reproducibility: every record of a trace gets its own substream seeded with
``mix_seed(seed, record_index)``, a splitmix64 step (constants below), so
estimates do not depend on processing order. Within a substream, trials are
consumed in fixed-size chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import secded
from .bits import BLOCK_BITS, block_bytes, blocks_to_bits, stack_blocks
from .mapping import CODEWORDS, MappingScheme, block_datawords, codeword_counts

_MASK64 = (1 << 64) - 1
# splitmix64: golden-gamma increment and the two finalizer multipliers
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MUL1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MUL2 = 0x94D049BB133111EB

# trials are simulated in fixed-size chunks so estimates are reproducible
_TRIAL_CHUNK = 8192


def mix_seed(seed: int, index: int) -> int:
    """The (index+1)-th output of the splitmix64 stream started at ``seed``.

    Collision-resistant enough to give every (seed, record) pair an
    independent, order-insensitive substream. numpy integers are accepted.
    """
    seed, index = int(seed), int(index)
    z = (seed + (index + 1) * SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _SPLITMIX_MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _SPLITMIX_MUL2) & _MASK64
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

    Draw order is fixed: one uniform per data bit (512), then one per check
    bit (64) when check injection is on, so outcomes are reproducible for a
    given generator state.
    """
    fail_prob = 1.0 - cfg.pw
    blocks = stack_blocks([old, new])
    draws = rng.random(BLOCK_BITS)

    transitions = blocks_to_bits(blocks[:1] ^ blocks[1:])[0]
    failed = np.packbits(transitions & (draws < fail_prob), bitorder="little")
    failed_data, _ = codeword_counts(cfg.scheme, failed[None], include_ecc=False)
    counts = failed_data[0]

    stored_check: tuple[int, ...] | None = None
    if cfg.include_ecc:
        check_draws = rng.random(CODEWORDS * secded.CHECK_BITS).reshape(CODEWORDS, secded.CHECK_BITS)
        old_check, new_check = secded.encode_words(block_datawords(cfg.scheme, blocks))
        check_diff = np.unpackbits(old_check ^ new_check, bitorder="little").reshape(
            CODEWORDS, secded.CHECK_BITS
        )
        check_failed = check_diff.astype(bool) & (check_draws < fail_prob)
        counts = counts + check_failed.sum(axis=1).astype(np.int64)
        stored_bits = np.unpackbits(new_check, bitorder="little").reshape(CODEWORDS, -1) ^ check_failed
        stored_check = tuple(
            int(v) for v in np.packbits(stored_bits, axis=1, bitorder="little").ravel()
        )

    return WriteOutcome(
        # a failed cell keeps its old value, the complement of the new one
        written=(blocks[1] ^ failed).tobytes(),
        written_check=stored_check,
        failures_per_codeword=tuple(int(v) for v in counts),
        block_ok=bool(counts.max() <= 1),
    )


@dataclass(frozen=True)
class BlockEstimate:
    """Monte Carlo estimate of a block write's success probability."""

    p_block: float
    stderr: float
    trials: int
    successes: int

    @property
    def error_rate(self) -> float:
        return 1.0 - self.p_block


def monte_carlo_block(
    old: bytes, new: bytes, cfg: InjectionConfig, record_index: int = 0
) -> BlockEstimate:
    """Estimate the block write success probability by repeated fault injection.

    Only the transitioning cells of codewords with at least two of them are
    simulated, since a codeword with one can never exceed t = 1. For each
    chunk of trials those cells form one trial-major field, the failing cells
    in it are placed by geometric gaps, and a trial succeeds when every
    codeword collects at most one failure. A record that cannot fail draws
    nothing. Deterministic for a given (seed, record_index, trials, scheme)
    regardless of caller scheduling.
    """
    diff = block_bytes(old) ^ block_bytes(new)
    data, check = codeword_counts(cfg.scheme, diff[None], cfg.include_ecc)
    counts = data[0] if check is None else data[0] + check[0]
    counts = np.where(counts > 1, counts, 0)
    fail_prob = 1.0 - cfg.pw
    n_flips = int(counts.sum())
    if n_flips == 0 or fail_prob == 0.0:
        return BlockEstimate(p_block=1.0, stderr=0.0, trials=cfg.trials, successes=cfg.trials)

    rng = substream(cfg.seed, record_index)
    # the codeword of each simulated cell, cells grouped by codeword
    cell_codeword = np.repeat(np.arange(CODEWORDS), counts)
    successes = 0
    remaining = cfg.trials
    while remaining > 0:
        chunk = min(_TRIAL_CHUNK, remaining)
        trial, cell = np.divmod(_failing_cells(rng, fail_prob, n_flips * chunk), n_flips)
        # failures arrive sorted by (trial, codeword), so a repeated key is a
        # second failure in one codeword, and its trial fails
        key = trial * CODEWORDS + cell_codeword[cell]
        successes += chunk - np.unique(trial[1:][key[1:] == key[:-1]]).size
        remaining -= chunk

    p = successes / cfg.trials
    return BlockEstimate(
        p_block=p,
        stderr=math.sqrt(p * (1.0 - p) / cfg.trials),
        trials=cfg.trials,
        successes=successes,
    )


def _failing_cells(rng: np.random.Generator, fail_prob: float, size: int) -> np.ndarray:
    """Sorted indices in [0, size) of the cells that fail, each with ``fail_prob``.

    Gaps between consecutive failures are geometric. Each gap is clipped to
    ``size`` before summing: at tiny ``fail_prob`` numpy saturates a gap at
    2**63 - 1, and an unclipped running sum would wrap around.
    """
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
    """Running trace-level Monte Carlo estimate, fed one (old, new) pair at a time.

    The r-th pair added is record r and uses substream mix_seed(seed, r), so
    the estimate is independent of how the pairs are batched; partial results
    merge by summing (failure_fraction, variance_term) pairs.
    """

    def __init__(self, cfg: InjectionConfig) -> None:
        self.cfg = cfg
        self.records = 0
        self._failure_sum = 0.0
        self._variance_sum = 0.0

    def add(self, old: bytes, new: bytes) -> None:
        estimate = monte_carlo_block(old, new, self.cfg, record_index=self.records)
        self._failure_sum += estimate.error_rate
        self._variance_sum += estimate.p_block * (1.0 - estimate.p_block) / self.cfg.trials
        self.records += 1

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
    intended_check = secded.encode_words(intended_words)

    agree = True
    aliased = 0
    for n in range(CODEWORDS):
        failures = outcome.failures_per_codeword[n]
        result, fixed_data, fixed_check = secded.repair(
            int(stored_words[n]), outcome.written_check[n]
        )
        if result.status is secded.DecodeStatus.NO_ERROR:
            decoder_ok = True
        elif result.status is secded.DecodeStatus.CORRECTED:
            decoder_ok = fixed_data == int(intended_words[n]) and fixed_check == int(intended_check[n])
        else:
            decoder_ok = False
        count_ok = failures <= 1
        if failures <= 2:
            agree &= decoder_ok == count_ok
        elif decoder_ok != count_ok:
            aliased += 1
    return CodecCrossCheck(agree=agree, codewords_checked=CODEWORDS, aliased=aliased)
