"""Monte Carlo fault injection for block writes.

Each bit that must flip (data bits, and check bits when enabled) fails
independently with probability 1 - p_write and then retains its old value;
bits that need no transition never fail. A write outcome is classified by
the count rule: the block is recoverable when no codeword suffered more than
one failure (t = 1 for SEC-DED). The decoder-based view is available as a
cross-check but is never the ground truth, because triple-and-higher errors
can alias to a valid correction.

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
from .bits import block_to_bits
from .mapping import CODEWORDS, MappingScheme, codeword_counts, datawords

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
    independent, order-insensitive substream.
    """
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
    old_bits = block_to_bits(old)
    new_bits = block_to_bits(new)
    draws = rng.random(len(new_bits))

    transitions = old_bits != new_bits
    failed = transitions & (draws < fail_prob)
    stored = np.where(failed, old_bits, new_bits).astype(np.uint8)
    failed_data, _ = codeword_counts(cfg.scheme, failed[None], include_ecc=False)
    counts = failed_data[0]

    stored_check: tuple[int, ...] | None = None
    if cfg.include_ecc:
        check_draws = rng.random(CODEWORDS * secded.CHECK_BITS).reshape(CODEWORDS, secded.CHECK_BITS)
        old_check = secded.encode_words(datawords(cfg.scheme, old))
        new_check = secded.encode_words(datawords(cfg.scheme, new))
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
        written=np.packbits(stored, bitorder="little").tobytes(),
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

    Only the transitioning bits are simulated; a trial succeeds when every
    codeword collects at most one failure. Deterministic for a given
    (seed, record_index, trials, scheme) regardless of caller scheduling.
    """
    diff = block_to_bits(old) ^ block_to_bits(new)
    data, check = codeword_counts(cfg.scheme, diff[None], cfg.include_ecc)
    counts = data[0] if check is None else data[0] + check[0]
    # the flipping cells, grouped by codeword: group n is [bounds[n], bounds[n + 1])
    bounds = np.concatenate(([0], np.cumsum(counts)))
    n_flips = int(bounds[-1])
    if n_flips == 0:
        return BlockEstimate(p_block=1.0, stderr=0.0, trials=cfg.trials, successes=cfg.trials)

    fail_prob = 1.0 - cfg.pw
    rng = substream(cfg.seed, record_index)
    # codewords with a single transitioning bit can never exceed t=1
    group_spans = [
        (int(bounds[n]), int(bounds[n + 1]))
        for n in range(CODEWORDS)
        if bounds[n + 1] - bounds[n] > 1
    ]
    successes = 0
    remaining = cfg.trials
    while remaining > 0:
        chunk = min(_TRIAL_CHUNK, remaining)
        failures = rng.random((chunk, n_flips)) < fail_prob
        ok = np.ones(chunk, dtype=bool)
        for lo, hi in group_spans:
            ok &= failures[:, lo:hi].sum(axis=1) <= 1
        successes += int(ok.sum())
        remaining -= chunk

    q = successes / cfg.trials
    return BlockEstimate(
        p_block=q,
        stderr=math.sqrt(q * (1.0 - q) / cfg.trials),
        trials=cfg.trials,
        successes=successes,
    )


@dataclass(frozen=True)
class TraceEstimate:
    """Monte Carlo estimate of the mean block-failure rate over a trace."""

    error_rate: float
    stderr: float
    records: int
    trials_per_record: int


def monte_carlo_trace(
    pairs: Iterable[tuple[bytes, bytes]] | Iterator[tuple[bytes, bytes]],
    cfg: InjectionConfig,
) -> TraceEstimate:
    """Mean block-failure fraction over (records x trials).

    Record r uses substream mix_seed(seed, r), so the estimate is independent
    of how records are scheduled across workers; partial results merge by
    summing (failure_fraction, variance_term) pairs.
    """
    failure_sum = 0.0
    variance_sum = 0.0
    records = 0
    for index, (old, new) in enumerate(pairs):
        estimate = monte_carlo_block(old, new, cfg, record_index=index)
        failure_sum += estimate.error_rate
        variance_sum += estimate.p_block * (1.0 - estimate.p_block) / cfg.trials
        records += 1
    if records == 0:
        raise ValueError("empty pair stream")
    return TraceEstimate(
        error_rate=failure_sum / records,
        stderr=math.sqrt(variance_sum) / records,
        records=records,
        trials_per_record=cfg.trials,
    )


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
    stored_words = datawords(scheme, outcome.written)
    intended_words = datawords(scheme, new)
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
