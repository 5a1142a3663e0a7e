import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from oracle import bits_to_block, block_to_bits, codeword_bits
from robinsim import injection, secded
from robinsim.bits import block_bytes, stack_blocks
from robinsim.injection import (
    _TRIAL_CHUNK,
    CodecCrossCheck,
    InjectionConfig,
    MonteCarloAccumulator,
    end_to_end_check,
    inject_write,
    mix_seed,
    monte_carlo_block,
)
from robinsim.mapping import (
    INTERLEAVED,
    PER_WORD,
    ROBIN,
    block_datawords,
    check_words,
    scheme_counts,
    transition_vector,
)
from robinsim.trace import pair_batches

SCHEMES = (PER_WORD, INTERLEAVED, ROBIN)
ZERO = bytes(64)
# a hash value whose gap is 2 at fail probability 1/2: u = 3/8
GAP_TWO_HASH = (3 * 2**50 - 1) << 11


def substream(seed, index):
    """A generator for inject_write, one per (seed, index)."""
    return np.random.default_rng(mix_seed(seed, index))


def constant_hash(value):
    """A stand-in for ``injection.splitmix`` that gives every draw the hash ``value``."""
    return lambda keys, positions: np.full(np.shape(positions), value, dtype=np.uint64)


def one_write(payload):
    """A 64-byte payload as the one row of a batch."""
    return np.frombuffer(payload, np.uint8)[None]


def cells_of(olds, news, cfg, schemes=None):
    """A batch's ``(n, S, 8)`` cells, as run_experiment counts them; ``cfg.scheme`` alone by default."""
    return scheme_counts((cfg.scheme,) if schemes is None else schemes, olds ^ news, cfg.include_ecc)[1]


def successes(olds, news, cfg, record_index=0, schemes=None):
    """monte_carlo_block's ``(S, n)`` successes of a batch of writes."""
    return monte_carlo_block(cells_of(olds, news, cfg, schemes), record_index, cfg)


def estimate(counts, trials):
    """Success counts as success probabilities and their standard errors."""
    p = counts / trials
    return p, np.sqrt(p * (1.0 - p) / trials)


def recoverable(outcome):
    """The count rule: at most one failure in every codeword."""
    return max(outcome.failures_per_codeword) <= 1


def block_with_flips(flats):
    """All-zero block with the given flat bit positions set."""
    payload = bytearray(64)
    for flat in flats:
        payload[flat // 8] |= 1 << (flat % 8)
    return bytes(payload)


def test_mix_seed_reference_vectors():
    # splitmix64 outputs for seed 0, a published reference sequence
    assert mix_seed(0, 0) == 0xE220A8397B1DCDAF
    assert mix_seed(0, 1) == 0x6E789E6AA1B965F4
    assert mix_seed(0, 2) == 0x06C45D188009454F
    assert mix_seed(0, 3) == 0xF88BB8A8724C81EC


def test_mix_seed_accepts_numpy_integers():
    assert mix_seed(0, np.int64(5)) == mix_seed(0, 5)
    assert mix_seed(np.uint64(7), np.int32(3)) == mix_seed(7, 3)
    new = block_with_flips(range(16))
    cfg = InjectionConfig(pw=0.9, scheme=ROBIN, trials=500, seed=2, include_ecc=False)
    olds, news = one_write(ZERO), one_write(new)
    assert np.array_equal(successes(olds, news, cfg, np.int64(3)), successes(olds, news, cfg, 3))


@pytest.mark.parametrize("schemes", [(ROBIN,), (ROBIN, PER_WORD)], ids=["one-scheme", "two-schemes"])
def test_monte_carlo_block_rejects_records_outside_the_stream(schemes):
    new = block_with_flips(range(16))
    cfg = InjectionConfig(pw=0.9, scheme=ROBIN, trials=50, seed=2, include_ecc=False)
    cells = cells_of(np.zeros((2, 64), dtype=np.uint8), stack_blocks([new, new]), cfg, schemes)
    # a batch's last record is record_index + n - 1, which must stay below 2**64
    for record_index in (-1, 1.7, 2**64 - 1, 2**64, "1", None):
        with pytest.raises(ValueError, match="record_index"):
            monte_carlo_block(cells, record_index, cfg)
    for record_index in (-1, 1.7, 2**64):
        with pytest.raises(ValueError, match="record_index"):
            monte_carlo_block(cells[:1], record_index, cfg)
    last = monte_carlo_block(cells[:1], np.uint64(2**64 - 1), cfg)
    batch = monte_carlo_block(cells, 2**64 - 2, cfg)
    assert np.array_equal(batch[:, 1:], last)


def test_mix_seed_distinct_substreams():
    seeds = {mix_seed(s, i) for s in range(4) for i in range(256)}
    assert len(seeds) == 4 * 256


def test_config_validation():
    with pytest.raises(ValueError):
        InjectionConfig(pw=1.5, scheme=ROBIN)
    with pytest.raises(ValueError):
        InjectionConfig(pw=0.9, scheme=ROBIN, trials=0)


def test_config_rejects_seeds_and_trials_out_of_range():
    InjectionConfig(pw=0.9, scheme=ROBIN, trials=2**32 - 1, seed=2**64 - 1)
    for seed in (-1, 2**64, 2**64 + 3):
        with pytest.raises(ValueError, match="seed"):
            InjectionConfig(pw=0.9, scheme=ROBIN, seed=seed)
    for trials in (2**32, 2**63):
        with pytest.raises(ValueError, match="trials"):
            InjectionConfig(pw=0.9, scheme=ROBIN, trials=trials)


def test_inject_pw_one_always_clean():
    new = block_with_flips(range(0, 512, 3))
    cfg = InjectionConfig(pw=1.0, scheme=ROBIN, include_ecc=True)
    for seed in range(5):
        outcome = inject_write(ZERO, new, cfg, substream(0, seed))
        assert outcome.written == new
        assert recoverable(outcome)
        assert outcome.failures_per_codeword == (0,) * 8


def test_inject_pw_zero_two_flips_same_codeword():
    # flats 0 and 8 are positions 0 of bytes 0 and 1: robin codewords 0 and 7
    new = block_with_flips([0, 1])  # byte 0, positions 0 and 1: robin codewords 0 and 1
    new2 = block_with_flips([0, 9])  # robin codeword 0 twice: (0-0-0)%8 and (1-0-1)%8
    cfg = InjectionConfig(pw=0.0, scheme=ROBIN, include_ecc=False)
    outcome = inject_write(ZERO, new2, cfg, substream(0, 0))
    assert not recoverable(outcome)
    assert outcome.written == ZERO
    outcome_spread = inject_write(ZERO, new, cfg, substream(0, 0))
    assert recoverable(outcome_spread)  # one failure per codeword is correctable


def test_inject_pw_zero_one_flip_per_codeword():
    # eight flips, one in each per-word codeword
    new = block_with_flips([64 * w for w in range(8)])
    cfg = InjectionConfig(pw=0.0, scheme=PER_WORD, include_ecc=False)
    outcome = inject_write(ZERO, new, cfg, substream(1, 0))
    assert outcome.failures_per_codeword == (1,) * 8
    assert recoverable(outcome)


def test_inject_failure_locality():
    rng = np.random.default_rng(40)
    old = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
    new = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
    cfg = InjectionConfig(pw=0.5, scheme=INTERLEAVED, include_ecc=True)
    same = block_to_bits(old) == block_to_bits(new)
    for trial in range(20):
        outcome = inject_write(old, new, cfg, substream(7, trial))
        written = block_to_bits(outcome.written)
        # bits that did not need a transition never differ from the target
        assert np.all(written[same] == block_to_bits(new)[same])
        # failed bits hold the old value, so written is always old or new per bit
        changed = written != block_to_bits(new)
        assert np.all(block_to_bits(old)[changed] == written[changed])


def test_inject_deterministic_per_substream():
    rng = np.random.default_rng(41)
    old = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
    new = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
    cfg = InjectionConfig(pw=0.7, scheme=ROBIN, include_ecc=True)
    first = inject_write(old, new, cfg, substream(123, 9))
    second = inject_write(old, new, cfg, substream(123, 9))
    assert first == second


def test_monte_carlo_block_exact_when_no_transitions():
    cfg = InjectionConfig(pw=0.5, scheme=ROBIN, trials=1000, seed=3)
    got = successes(one_write(ZERO), one_write(ZERO), cfg)
    p, stderr = estimate(got, cfg.trials)
    assert p.tolist() == [[1.0]]
    assert stderr.tolist() == [[0.0]]
    assert got.tolist() == [[1000]]


@pytest.mark.parametrize(
    "flats,pw",
    [
        (range(0, 512, 3), 1.0),  # nothing can fail
        ([0, 1], 0.0),  # robin codewords 0 and 1 take one flip each
    ],
)
def test_monte_carlo_block_certain_success_draws_nothing(flats, pw, monkeypatch):
    def no_draws(keys, positions):
        raise AssertionError("a record that cannot fail drew random numbers")

    monkeypatch.setattr(injection, "splitmix", no_draws)
    cfg = InjectionConfig(pw=pw, scheme=ROBIN, trials=1000, seed=3, include_ecc=False)
    got = successes(one_write(ZERO), one_write(block_with_flips(flats)), cfg)
    p, stderr = estimate(got, cfg.trials)
    assert (p.tolist(), got.tolist(), stderr.tolist()) == ([[1.0]], [[1000]], [[0.0]])


@pytest.mark.parametrize(
    "flats,include_ecc,fails",
    [
        ([0, 1], False, False),  # one flip in each of robin codewords 0 and 1
        ([0, 9], False, True),  # robin codeword 0 twice
        ([0], True, True),  # one data flip drags several check flips into its codeword
        (range(64), False, True),
    ],
)
def test_monte_carlo_block_pw_zero_fails_iff_a_codeword_has_two_flips(flats, include_ecc, fails):
    new = block_with_flips(flats)
    counts = transition_vector(ROBIN, ZERO, new, include_ecc=include_ecc)
    assert (max(counts) >= 2) == fails
    cfg = InjectionConfig(pw=0.0, scheme=ROBIN, trials=_TRIAL_CHUNK + 5, seed=8, include_ecc=include_ecc)
    assert successes(one_write(ZERO), one_write(new), cfg).tolist() == [[0 if fails else cfg.trials]]


def test_monte_carlo_block_across_trial_chunks():
    new = block_with_flips(range(0, 512, 5))
    cfg = InjectionConfig(pw=0.99, scheme=INTERLEAVED, trials=_TRIAL_CHUNK + 5, seed=21, include_ecc=True)
    first = successes(one_write(ZERO), one_write(new), cfg, 2)
    again = successes(one_write(ZERO), one_write(new), cfg, 2)
    assert np.array_equal(first, again)
    assert 0 < first[0, 0] < cfg.trials
    tv = transition_vector(INTERLEAVED, ZERO, new, include_ecc=True)
    expected = math.prod(oracle.codeword_success(k, 0.99) for k in tv)
    p, stderr = estimate(first, cfg.trials)
    assert abs(p[0, 0] - expected) < 4 * stderr[0, 0]


def test_failing_cells_draws_until_the_field_is_covered(monkeypatch):
    # gaps of 2, drawn three at a time: the sampler tops up until the field is covered
    monkeypatch.setattr(injection, "splitmix", constant_hash(GAP_TWO_HASH))
    monkeypatch.setattr(injection, "_draw_count", lambda expected: np.full(np.shape(expected), 3))
    keys, chunks = np.array([5, 6], dtype=np.uint64), np.zeros(2, dtype=np.int64)
    # the second field starts at position 40
    cells = injection._failures(keys, chunks, np.array([40, 7]), 0.5)
    assert cells.tolist() == list(range(1, 40, 2)) + [41, 43, 45]
    assert injection._field_failures(keys[0], 0, -1, 40, 0.5).tolist() == list(range(1, 40, 2))


def test_monte_carlo_block_tiny_fail_prob_does_not_overflow():
    # gaps reach about 2**57 for q this small before they are clipped to the field
    rng = np.random.default_rng(0)
    old = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
    new = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
    cfg = InjectionConfig(pw=1.0 - 2.0**-52, scheme=PER_WORD, trials=3 * _TRIAL_CHUNK, seed=4)
    assert 1.0 - cfg.pw == 2.0**-52
    assert successes(one_write(old), one_write(new), cfg).tolist() == [[cfg.trials]]


@pytest.mark.parametrize(
    "flats,pw",
    [
        ([0, 9], 0.9),  # robin: two flips in codeword 0
        (list(range(16)), 0.9),  # two flips in each robin codeword
        (list(range(64)), 0.99),  # one full byte per word
    ],
)
def test_monte_carlo_block_matches_analytic(flats, pw):
    new = block_with_flips(flats)
    cfg = InjectionConfig(pw=pw, scheme=ROBIN, trials=100_000, seed=11, include_ecc=False)
    tv = transition_vector(ROBIN, ZERO, new, include_ecc=False)
    expected = math.prod(oracle.codeword_success(k, pw) for k in tv)
    p, stderr = estimate(successes(one_write(ZERO), one_write(new), cfg), cfg.trials)
    sigma = max(stderr[0, 0], 1e-9)
    assert abs(p[0, 0] - expected) < 4 * sigma


def test_monte_carlo_block_include_ecc_uses_check_transitions():
    new = block_with_flips([0])
    tv = transition_vector(ROBIN, ZERO, new, include_ecc=True)
    assert sum(tv) > 1  # the single data flip drags check bits along
    cfg = InjectionConfig(pw=0.5, scheme=ROBIN, trials=50_000, seed=5, include_ecc=True)
    p, stderr = estimate(successes(one_write(ZERO), one_write(new), cfg), cfg.trials)
    expected = math.prod(oracle.codeword_success(k, 0.5) for k in tv)
    assert abs(p[0, 0] - expected) < 4 * stderr[0, 0]


def test_monte_carlo_block_deterministic():
    olds, news = one_write(ZERO), one_write(block_with_flips(range(32)))
    cfg = InjectionConfig(pw=0.95, scheme=PER_WORD, trials=20_000, seed=99, include_ecc=False)
    first = successes(olds, news, cfg, 4)
    assert np.array_equal(first, successes(olds, news, cfg, 4))
    other_record = successes(olds, news, cfg, 5)
    assert other_record[0, 0] != first[0, 0]  # distinct substreams


@pytest.mark.parametrize(
    "cells,message",
    [
        (bytes(16), r"an \(n, S, 8\) uint8 array, got bytes"),
        ([[[0] * 8]], r"an \(n, S, 8\) uint8 array, got list"),
        (np.zeros(8, np.uint8), r"an \(n, S, 8\) uint8 array, got \(8,\) uint8"),
        (np.zeros((2, 63), np.uint8), r"an \(n, S, 8\) uint8 array, got \(2, 63\) uint8"),
        (np.zeros((2, 1, 8), np.int64), r"an \(n, S, 8\) uint8 array, got \(2, 1, 8\) int64"),
        (np.zeros((2, 1, 7), np.uint8), r"an \(n, S, 8\) uint8 array, got \(2, 1, 7\) uint8"),
        # a batch of payloads, the kernel's input, is not its counts
        (np.zeros((2, 64), np.uint8), r"an \(n, S, 8\) uint8 array, got \(2, 64\) uint8"),
        # a codeword has 72 cells (secded.CODEWORD_BITS)
        (np.full((2, 1, 8), 73, np.uint8), r"\(n, S, 8\) counts up to 72, got 73"),
    ],
    ids=["bytes", "lists", "1-D", "63-byte-rows", "int64", "unequal-shapes", "payloads", "73-cells"],
)
def test_monte_carlo_block_takes_only_equal_shape_uint8_batches(cells, message):
    # a batch is the counting kernel's (n, S, 8) uint8 cells, and nothing else
    cfg = InjectionConfig(pw=0.9, scheme=ROBIN, trials=10, seed=3)
    with pytest.raises(ValueError, match=rf"^cells must be {message}$"):
        monte_carlo_block(cells, 0, cfg)
    full = np.full((2, 1, 8), 72, np.uint8)
    assert monte_carlo_block(full, 0, cfg).shape == (1, 2)


def test_monte_carlo_block_gives_one_row_per_scheme():
    rng = np.random.default_rng(48)
    olds = rng.integers(0, 256, (5, 64), dtype=np.uint8)
    news = olds ^ np.packbits(rng.random((5, 512)) < 0.05, axis=1, bitorder="little")
    cfg = InjectionConfig(pw=0.9, scheme=INTERLEAVED, trials=300, seed=6)
    for schemes, rows in (((INTERLEAVED,), 1), (SCHEMES, 3)):
        got = successes(olds, news, cfg, 2, schemes)
        assert got.shape == (rows, 5) and got.dtype == np.int64
    # one scheme alone is its row of the three
    assert np.array_equal(successes(olds, news, cfg, 2, (INTERLEAVED,)), got[1:2])


@pytest.mark.parametrize("schemes", [(ROBIN,), SCHEMES], ids=["one-scheme", "three-schemes"])
def test_monte_carlo_block_row_i_is_the_batch_of_one_at_record_index_plus_i(schemes):
    rng = np.random.default_rng(49)
    olds = rng.integers(0, 256, (6, 64), dtype=np.uint8)
    news = olds ^ np.packbits(rng.random((6, 512)) < 0.05, axis=1, bitorder="little")
    cfg = InjectionConfig(pw=0.9, scheme=ROBIN, trials=200, seed=7, include_ecc=True)
    cells = cells_of(olds, news, cfg, schemes)
    batch = monte_carlo_block(cells, 40, cfg)
    for i in range(len(olds)):
        assert np.array_equal(batch[:, i : i + 1], monte_carlo_block(cells[i : i + 1], 40 + i, cfg))


def test_monte_carlo_trace_zero_diff():
    cfg = InjectionConfig(pw=0.5, scheme=ROBIN, trials=100, seed=1)
    accumulator = MonteCarloAccumulator(cfg)
    for olds, news in pair_batches([(ZERO, ZERO)] * 10):
        accumulator.add_batch(cells_of(olds, news, cfg))
    [trace] = accumulator.finalize()
    assert trace.error_rate == 0.0
    assert trace.records == 10


def test_monte_carlo_trace_single_record_reduces_to_block():
    olds, news = one_write(ZERO), one_write(block_with_flips(range(24)))
    cfg = InjectionConfig(pw=0.9, scheme=ROBIN, trials=10_000, seed=17, include_ecc=False)
    p, stderr = estimate(successes(olds, news, cfg, 0), cfg.trials)
    accumulator = MonteCarloAccumulator(cfg)
    accumulator.add_batch(cells_of(olds, news, cfg))
    [trace] = accumulator.finalize()
    assert trace.error_rate == pytest.approx(1.0 - p[0, 0])
    assert trace.stderr == pytest.approx(stderr[0, 0])


def test_monte_carlo_trace_matches_analytic_on_skewed_trace():
    rng = np.random.default_rng(42)
    news = []
    tvs = []
    for _ in range(10):
        flats = rng.choice(512, size=int(rng.integers(4, 40)), replace=False)
        new = block_with_flips(flats)
        news.append(new)
        tvs.append(transition_vector(PER_WORD, ZERO, new, include_ecc=False))
    pw = 0.95
    analytic, _ = oracle.trace_rates(tvs, pw)
    cfg = InjectionConfig(pw=pw, scheme=PER_WORD, trials=20_000, seed=13, include_ecc=False)
    accumulator = MonteCarloAccumulator(cfg)
    accumulator.add_batch(cells_of(np.zeros((10, 64), dtype=np.uint8), stack_blocks(news), cfg))
    [trace] = accumulator.finalize()
    assert abs(trace.error_rate - analytic) < 4 * max(trace.stderr, 1e-9)


def test_monte_carlo_trace_equals_per_pair_accumulation():
    # 1100 pairs are three batches of BATCH = 512
    rng = np.random.default_rng(46)
    olds = rng.integers(0, 256, (1100, 64), dtype=np.uint8)
    news = olds ^ np.packbits(rng.random((1100, 512)) < 0.02, axis=1, bitorder="little")
    pairs = [(old.tobytes(), new.tobytes()) for old, new in zip(olds, news)]
    cfg = InjectionConfig(pw=0.95, scheme=INTERLEAVED, trials=40, seed=31, include_ecc=True)
    one_by_one = MonteCarloAccumulator(cfg)
    for old, new in zip(olds, news):
        one_by_one.add_batch(cells_of(old[None], new[None], cfg))
    batched = MonteCarloAccumulator(cfg)
    for batch_olds, batch_news in pair_batches(iter(pairs)):
        batched.add_batch(cells_of(batch_olds, batch_news, cfg))
    [trace] = batched.finalize()
    assert [trace] == one_by_one.finalize()
    assert trace.records == 1100 and 0 < trace.error_rate < 1


@pytest.mark.parametrize("schemes", [(ROBIN,), (ROBIN, PER_WORD)], ids=["one-scheme", "two-schemes"])
def test_monte_carlo_rejects_batches_of_different_shapes(schemes):
    rng = np.random.default_rng(47)
    olds = rng.integers(0, 256, (5, 64), dtype=np.uint8)
    cfg = InjectionConfig(pw=0.9, scheme=ROBIN, trials=10, seed=3)
    cells = cells_of(olds, olds ^ 1, cfg, SCHEMES)
    accumulator = MonteCarloAccumulator(cfg, len(schemes))
    with pytest.raises(ValueError, match=rf"^cells hold 3 schemes, the accumulator {len(schemes)}$"):
        accumulator.add_batch(cells)
    with pytest.raises(ValueError, match=r"\(n, S, 8\) uint8 array, got \(5, 64\) uint8"):
        accumulator.add_batch(olds)
    # nothing was counted: the accumulator still holds no record
    assert accumulator.records == 0
    accumulator.add_batch(cells_of(olds, olds ^ 1, cfg, schemes))
    assert [trace.records for trace in accumulator.finalize()] == [5] * accumulator.schemes


def test_monte_carlo_trace_rejects_empty():
    cfg = InjectionConfig(pw=0.9, scheme=ROBIN, trials=10, seed=0)
    accumulator = MonteCarloAccumulator(cfg)
    for olds, news in pair_batches([]):
        accumulator.add_batch(cells_of(olds, news, cfg))
    with pytest.raises(ValueError, match="empty pair stream"):
        accumulator.finalize()


def test_end_to_end_requires_check_bits():
    cfg = InjectionConfig(pw=1.0, scheme=ROBIN, include_ecc=False)
    outcome = inject_write(ZERO, ZERO, cfg, substream(0, 0))
    with pytest.raises(ValueError):
        end_to_end_check(outcome, ZERO, ROBIN)


def test_end_to_end_no_failures():
    new = block_with_flips(range(0, 128, 5))
    cfg = InjectionConfig(pw=1.0, scheme=ROBIN, include_ecc=True)
    outcome = inject_write(ZERO, new, cfg, substream(0, 0))
    check = end_to_end_check(outcome, new, ROBIN)
    assert check == CodecCrossCheck(agree=True, aliased=0)


def forced_outcome(new, scheme, failed_flats=(), failed_checks=()):
    """Hand-built WriteOutcome with an exact failure pattern relative to `new`."""
    from robinsim.injection import WriteOutcome
    from robinsim.mapping import block_datawords
    from robinsim.secded import encode_words

    bits = block_to_bits(new).copy()
    for flat in failed_flats:
        bits[flat] ^= 1
    check_words = [int(c) for c in encode_words(block_datawords(scheme, block_bytes(new)[None])[0])]
    counts = [0] * 8
    for flat in failed_flats:
        counts[int(scheme.assignment[flat])] += 1
    for n, bit in failed_checks:
        check_words[n] ^= 1 << bit
        counts[n] += 1
    return WriteOutcome(
        written=bits_to_block(bits),
        written_check=tuple(check_words),
        failures_per_codeword=tuple(counts),
    )


def test_end_to_end_single_failure_sweep():
    # every possible lone failure, data or check, must decode as a clean correction
    for flat in range(512):
        outcome = forced_outcome(bytes(range(64)), ROBIN, failed_flats=[flat])
        assert recoverable(outcome)
        assert end_to_end_check(outcome, bytes(range(64)), ROBIN).agree
    for n in range(8):
        for bit in range(8):
            outcome = forced_outcome(bytes(range(64)), ROBIN, failed_checks=[(n, bit)])
            assert end_to_end_check(outcome, bytes(range(64)), ROBIN).agree


def test_end_to_end_double_failure_sweep():
    # sampled pairs inside one codeword: uncorrectable, agreeing with the count rule
    new = bytes(range(64))
    slots = codeword_bits("robin", 3)
    for a in range(0, 64, 7):
        for b in range(a + 1, 64, 11):
            outcome = forced_outcome(new, ROBIN, failed_flats=[slots[a], slots[b]])
            assert not recoverable(outcome)
            check = end_to_end_check(outcome, new, ROBIN)
            assert check.agree and check.aliased == 0
    # mixed data + check failure in the same codeword
    outcome = forced_outcome(new, ROBIN, failed_flats=[slots[0]], failed_checks=[(3, 5)])
    assert not recoverable(outcome)
    assert end_to_end_check(outcome, new, ROBIN).agree


def test_end_to_end_counts_an_undetected_quadruple_failure_as_aliased():
    # two data failures plus the check bits of their column sum form a codeword: zero syndrome
    new = bytes(range(64))
    slots = codeword_bits("robin", 3)
    both = secded.DATA_COLUMNS[0] ^ secded.DATA_COLUMNS[1]
    checks = [(3, r) for r in range(8) if both >> r & 1]
    outcome = forced_outcome(new, ROBIN, failed_flats=[slots[0], slots[1]], failed_checks=checks)
    assert outcome.failures_per_codeword[3] == 4
    assert end_to_end_check(outcome, new, ROBIN) == CodecCrossCheck(agree=True, aliased=1)


def test_end_to_end_flags_a_codec_that_misses_a_double_failure(monkeypatch):
    new = bytes(range(64))
    slots = codeword_bits("robin", 3)
    assert end_to_end_check(forced_outcome(new, ROBIN, failed_flats=slots[:2]), new, ROBIN).agree
    # with two equal data columns, flipping both bits leaves a zero syndrome
    columns = (secded.DATA_COLUMNS[0],) + secded.DATA_COLUMNS[:1] + secded.DATA_COLUMNS[2:]
    monkeypatch.setattr(secded, "DATA_COLUMNS", columns)
    monkeypatch.setattr(secded, "_ENCODER", secded._encoder_table())
    outcome = forced_outcome(new, ROBIN, failed_flats=slots[:2])
    assert not end_to_end_check(outcome, new, ROBIN).agree


def test_end_to_end_random_agreement():
    rng = np.random.default_rng(44)
    cfg = InjectionConfig(pw=0.8, scheme=ROBIN, include_ecc=True)
    for trial in range(50):
        old = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
        new = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
        outcome = inject_write(old, new, cfg, substream(5, trial))
        check = end_to_end_check(outcome, new, ROBIN)
        assert check.agree


def test_inject_write_cell_order(monkeypatch):
    # a hash whose gaps are all 2 fails every second transitioning cell
    monkeypatch.setattr(injection, "splitmix", constant_hash(GAP_TWO_HASH))

    from robinsim.mapping import block_datawords
    from robinsim.secded import encode_words

    rng = np.random.default_rng(12)
    old = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
    new = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
    cfg = InjectionConfig(pw=0.5, scheme=ROBIN, include_ecc=True)
    outcome = inject_write(old, new, cfg, substream(0, 0))

    old_check, new_check = encode_words(block_datawords(ROBIN, stack_blocks([old, new])))
    data_cells = [int(f) for f in np.flatnonzero(block_to_bits(old) != block_to_bits(new))]
    check_cells = [
        512 + 8 * n + r for n in range(8) for r in range(8) if (old_check[n] ^ new_check[n]) >> r & 1
    ]
    failed = (data_cells + check_cells)[1::2]
    assert len(check_cells) > 0 and len(failed) > 0

    written = block_to_bits(new).copy()
    stored_check = [int(c) for c in new_check]
    counts = [0] * 8
    for cell in failed:
        if cell < 512:
            written[cell] ^= 1
            counts[int(ROBIN.assignment[cell])] += 1
        else:
            n, r = divmod(cell - 512, 8)
            stored_check[n] ^= 1 << r
            counts[n] += 1
    assert block_to_bits(outcome.written).tolist() == written.tolist()
    assert outcome.written_check == tuple(stored_check)
    assert outcome.failures_per_codeword == tuple(counts)


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda scheme: scheme.kind)
def test_check_lanes_encode_what_the_codec_encodes(scheme):
    # every single-byte payload, then random ones: the XOR of a payload's check
    # lanes holds codeword n's check word in byte n
    single = np.zeros((64, 256, 64), dtype=np.uint8)
    single[np.arange(64), :, np.arange(64)] = np.arange(256, dtype=np.uint8)
    payloads = np.concatenate(
        [single.reshape(-1, 64), np.random.default_rng(60).integers(0, 256, (500, 64), dtype=np.uint8)]
    )
    checks = check_words(scheme, payloads).view(np.uint8).reshape(-1, 8)
    assert np.array_equal(checks, secded.encode_words(block_datawords(scheme, payloads)))


@pytest.mark.parametrize("pw", [0.5, 0.99, 1 - 1e-6])
@pytest.mark.parametrize("include_ecc", [True, False], ids=["ecc", "data"])
@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda scheme: scheme.kind)
def test_inject_write_matches_cell_by_cell_reference(scheme, include_ecc, pw):
    rng = np.random.default_rng(61)
    cfg = InjectionConfig(pw=pw, scheme=scheme, include_ecc=include_ecc)
    for trial in range(12):
        old = rng.integers(0, 256, 64, dtype=np.uint8)
        new = (old ^ np.packbits(rng.random(512) < trial / 12, bitorder="little")).tobytes()
        old = old.tobytes()
        key = substream(62, trial).bit_generator.random_raw()
        outcome = inject_write(old, new, cfg, substream(62, trial))
        got = (outcome.written, outcome.written_check, outcome.failures_per_codeword)
        assert got == oracle.inject_write(scheme.kind, old, new, pw, include_ecc, key)


def test_inject_write_failure_rate_matches_closed_form():
    rng = np.random.default_rng(45)
    old = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
    new = bytes(a ^ b for a, b in zip(old, block_with_flips(range(0, 512, 9))))
    cfg = InjectionConfig(pw=0.97, scheme=INTERLEAVED, include_ecc=True)
    trials = 4000
    ok = sum(recoverable(inject_write(old, new, cfg, substream(6, t))) for t in range(trials))
    tv = transition_vector(INTERLEAVED, old, new, include_ecc=True)
    expected = math.prod(oracle.codeword_success(k, 0.97) for k in tv)
    sigma = (expected * (1 - expected) / trials) ** 0.5
    assert 0.05 < expected < 0.95
    assert abs(ok / trials - expected) < 4 * sigma


@st.composite
def failure_patterns(draw):
    """(scheme, intended payload, failed data flats, failed (codeword, check bit) pairs).

    Each codeword fails in 0 to 5 of its 72 cells, or, to reach the decoder's
    blind spot, in four cells whose columns sum to zero: a codeword of weight
    four, which leaves a zero syndrome.
    """
    scheme = draw(st.sampled_from(SCHEMES))
    new = draw(st.binary(min_size=64, max_size=64))
    flats, checks = [], []
    for n in range(8):
        if draw(st.integers(0, 5)) == 0:
            a, b = draw(st.lists(st.integers(0, 63), min_size=2, max_size=2, unique=True))
            rest = oracle.COLUMNS[a] ^ oracle.COLUMNS[b]
            pairs = [(c, d) for c in range(72) for d in range(c + 1, 72)
                     if {c, d}.isdisjoint({a, b}) and oracle.COLUMNS[c] ^ oracle.COLUMNS[d] == rest]
            cells = [a, b, *draw(st.sampled_from(pairs))]
        else:
            cells = draw(st.lists(st.integers(0, 71), max_size=5, unique=True))
        for cell in cells:
            if cell < 64:
                flats.append(codeword_bits(scheme.kind, n)[cell])
            else:
                checks.append((n, cell - 64))
    return scheme, new, flats, checks


@settings(max_examples=60, deadline=None)
@given(failure_patterns())
# the quadruple of test_end_to_end_counts_an_undetected_quadruple_failure_as_aliased
@example((ROBIN, bytes(range(64)), [codeword_bits("robin", 3)[0], codeword_bits("robin", 3)[1]],
          [(3, r) for r in range(8) if (oracle.COLUMNS[0] ^ oracle.COLUMNS[1]) >> r & 1]))
def test_end_to_end_check_matches_column_search_decoder(case):
    scheme, new, flats, checks = case
    outcome = forced_outcome(new, scheme, failed_flats=flats, failed_checks=checks)
    agree, aliased = True, 0
    for stored, stored_check, intended, failures in zip(
        oracle.datawords(scheme.kind, outcome.written), outcome.written_check,
        oracle.datawords(scheme.kind, new), outcome.failures_per_codeword,
    ):
        syndrome, bit, data, check = oracle.repair(stored, stored_check)
        # the stored codeword reads as the intended one, unchanged or by one correction
        ok = syndrome == 0 or (bit >= 0 and data == intended and check == oracle.encode(intended))
        if failures <= 2:
            agree &= ok == (failures <= 1)
        else:
            aliased += ok
    assert end_to_end_check(outcome, new, scheme) == CodecCrossCheck(agree, aliased)
