"""Property tests: the batch Monte Carlo kernel against the gap-by-gap reference."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from robinsim import injection
from robinsim.injection import _TRIAL_CHUNK, InjectionConfig, monte_carlo_block
from robinsim.mapping import INTERLEAVED, PER_WORD, ROBIN, MappingScheme, scheme_counts
from robinsim.report import ExperimentConfig, make_pairs, run_experiment
from robinsim.workloads import WorkloadSpec

SCHEMES = (PER_WORD, INTERLEAVED, ROBIN)


def blocks_with_counts(scheme, rows):
    """(olds, news) of writes over zero blocks; write i flips rows[i][n] data bits of codeword n."""
    bits = np.zeros((len(rows), 512), dtype=np.uint8)
    for i, row in enumerate(rows):
        for n, k in enumerate(row):
            bits[i, list(oracle.codeword_bits(scheme.kind, n)[:k])] = 1
    return np.zeros((len(rows), 64), dtype=np.uint8), np.packbits(bits, axis=1, bitorder="little")


def cells_of(olds, news, cfg, schemes=None):
    """A batch's ``(n, S, 8)`` cells, as run_experiment counts them; ``cfg.scheme`` alone by default."""
    return scheme_counts((cfg.scheme,) if schemes is None else schemes, olds ^ news, cfg.include_ecc)[1]


@st.composite
def mc_cases(draw):
    """(scheme, count rows, failure probability, trials, seed, first record index).

    Failure probabilities of 1/3 and more make most draws gaps of 1 or 2; the
    rows are kept few and small when the trials are many.
    """
    scheme = draw(st.sampled_from(SCHEMES))
    trials = draw(st.one_of(st.sampled_from([1, _TRIAL_CHUNK, _TRIAL_CHUNK + 5]), st.integers(1, 300)))
    fail_prob = draw(st.one_of(st.sampled_from([0.0, 2.0**-52, 1.0]), st.floats(1 / 3, 1.0), st.floats(1e-4, 1 / 3)))
    few = trials > 300
    rows = draw(st.lists(st.lists(st.integers(0, 6 if few else 16), min_size=8, max_size=8),
                         min_size=1, max_size=3 if few else 24))
    seed = draw(st.integers(0, 2**64 - 1))
    record_index = draw(st.integers(0, 2**40))
    return scheme, rows, fail_prob, trials, seed, record_index


@settings(max_examples=40, deadline=None)
@given(mc_cases())
@example((ROBIN, [[6] * 8, [0, 1] * 4, [2, 0, 0, 0, 0, 0, 0, 3]], 1.0, _TRIAL_CHUNK + 5, 3, 7))
@example((PER_WORD, [[6] * 8, [0] * 8, [5, 2, 0, 0, 0, 0, 0, 1]], 2.0**-52, _TRIAL_CHUNK, 2**64 - 1, 0))
@example((INTERLEAVED, [[16] * 8] * 24, 0.5, 1, 11, 2**40))
# a second full trial chunk whose successes depend on its own counters
@example((ROBIN, [[2, 2, 2, 0, 0, 0, 0, 0], [3, 0, 0, 0, 0, 0, 0, 2]], 0.05, 2 * _TRIAL_CHUNK, 13, 5))
# failure probabilities of 0.9 and more, where nearly every failure is near the next
@example((ROBIN, [[6] * 8, [3, 2, 0, 0, 0, 0, 0, 4], [2] * 8], 0.95, 300, 21, 9))
@example((PER_WORD, [[16] * 8, [0, 0, 2, 0, 0, 0, 0, 9]], 0.9, 300, 8, 0))
# reach 2: only adjacent failures can share a codeword, and most are dropped unkeyed
@example((INTERLEAVED, [[2, 0, 2, 0, 0, 0, 0, 0], [0, 2, 0, 0, 0, 0, 0, 2], [1] * 8], 0.05, 3000, 4, 1))
def test_monte_carlo_block_matches_record_by_record_reference(case):
    scheme, rows, fail_prob, trials, seed, record_index = case
    olds, news = blocks_with_counts(scheme, rows)
    pw = 1.0 - fail_prob
    cfg = InjectionConfig(pw=pw, scheme=scheme, trials=trials, seed=seed, include_ecc=False)
    got = monte_carlo_block(cells_of(olds, news, cfg), record_index, cfg)
    want = [oracle.mc_successes(row, pw, trials, seed, record_index + i) for i, row in enumerate(rows)]
    assert got.tolist() == [want]


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(SCHEMES), st.integers(1, 40), st.integers(0, 2**32 - 1), st.integers(0, 2**40))
def test_monte_carlo_block_with_check_bits_matches_reference(scheme, n, seed, record_index):
    rng = np.random.default_rng(seed)
    olds = rng.integers(0, 256, (n, 64), dtype=np.uint8)
    news = olds ^ np.packbits(rng.random((n, 512)) < rng.random((n, 1)) / 8, axis=1, bitorder="little")
    cfg = InjectionConfig(pw=0.9, scheme=scheme, trials=200, seed=seed, include_ecc=True)
    cells = cells_of(olds, news, cfg)
    got = monte_carlo_block(cells, record_index, cfg)
    for i, (old, new) in enumerate(zip(olds, news)):
        data, check = oracle.flip_counts(scheme.kind, old.tobytes(), new.tobytes(), True)
        counts = [d + c for d, c in zip(data, check)]
        assert got[0, i] == oracle.mc_successes(counts, 0.9, 200, seed, record_index + i)
        one = monte_carlo_block(cells[i : i + 1], record_index + i, cfg)
        assert one.tolist() == got[:, i : i + 1].tolist()


@settings(max_examples=40, deadline=None)
@given(mc_cases(), st.permutations(SCHEMES), st.integers(1, 3), st.booleans())
# per-word sees two flips in codeword 0 of the first write, the other layouts none
@example((PER_WORD, [[2, 0, 0, 0, 0, 0, 0, 0], [0] * 8, [3, 0, 2, 0, 0, 0, 0, 0]], 0.05, _TRIAL_CHUNK + 5, 6, 2),
         SCHEMES, 3, False)
@example((ROBIN, [[0, 2, 0, 0, 0, 0, 0, 0], [6] * 8], 1.0, 40, 1, 0), [INTERLEAVED, ROBIN, PER_WORD], 2, False)
@example((INTERLEAVED, [[2, 2, 0, 0, 0, 0, 0, 0], [0, 0, 0, 3, 0, 0, 0, 0]], 0.0, 300, 8, 9), SCHEMES, 3, True)
def test_scheme_list_gives_each_schemes_own_successes(case, order, count, include_ecc):
    """One call over several schemes shares its draws, and each scheme's successes equal its own call."""
    scheme, rows, fail_prob, trials, seed, record_index = case
    olds, news = blocks_with_counts(scheme, rows)
    schemes = order[:count]
    cfg = InjectionConfig(pw=1.0 - fail_prob, scheme=scheme, trials=trials, seed=seed, include_ecc=include_ecc)
    cells = cells_of(olds, news, cfg, schemes)
    shared = monte_carlo_block(cells, record_index, cfg)
    assert shared.shape == (count, len(rows))
    for s, one_scheme in enumerate(schemes):
        own = monte_carlo_block(cells_of(olds, news, cfg, (one_scheme,)), record_index, cfg)
        assert shared[s : s + 1].tolist() == own.tolist()
    write = monte_carlo_block(cells[:1], record_index, cfg)
    assert write.tolist() == shared[:, :1].tolist()


@settings(max_examples=25, deadline=None)
@given(mc_cases(), st.lists(st.integers(0, 24), max_size=4))
def test_split_batches_give_the_same_successes(case, cuts):
    scheme, rows, fail_prob, trials, seed, record_index = case
    olds, news = blocks_with_counts(scheme, rows)
    cfg = InjectionConfig(pw=1.0 - fail_prob, scheme=scheme, trials=trials, seed=seed, include_ecc=False)
    cells = cells_of(olds, news, cfg)
    whole = monte_carlo_block(cells, record_index, cfg)
    bounds = sorted({0, len(rows), *(min(c, len(rows)) for c in cuts)})
    parts = [monte_carlo_block(cells[lo:hi], record_index + lo, cfg) for lo, hi in zip(bounds[:-1], bounds[1:])]
    assert np.concatenate(parts, axis=1).tolist() == whole.tolist()


# the one-scheme call, and one call over all three layouts on shared draws
SCHEME_LISTS = pytest.mark.parametrize("schemes", [None, SCHEMES], ids=("one-scheme", "three-schemes"))


@SCHEME_LISTS
def test_monte_carlo_block_held_position_cap_does_not_change_results(monkeypatch, schemes):
    rows = [[(3 * i + n) % 9 for n in range(8)] for i in range(40)]
    olds, news = blocks_with_counts(ROBIN, rows)
    cfg = InjectionConfig(pw=0.9, scheme=ROBIN, trials=_TRIAL_CHUNK + 300, seed=5, include_ecc=False)
    # about a million failures in all, so a cap of 300 classifies them many times over
    expected = sum(k for row in rows for k in row if k > 1) * cfg.trials * (1.0 - cfg.pw)
    assert expected > 1000 * 300
    cells = cells_of(olds, news, cfg, schemes)
    whole = monte_carlo_block(cells, 17, cfg)
    monkeypatch.setattr(injection, "_HELD_POSITIONS", 300)
    capped = monte_carlo_block(cells, 17, cfg)
    assert capped.tolist() == whole.tolist()
    assert 0 < whole.sum() < whole.size * cfg.trials


@SCHEME_LISTS
def test_monte_carlo_block_single_draw_rounds_do_not_change_results(monkeypatch, schemes):
    # with one draw per segment and round, every failure after the first comes from a top-up
    rows = [[(5 * i + n) % 7 for n in range(8)] for i in range(12)]
    olds, news = blocks_with_counts(INTERLEAVED, rows)
    cfg = InjectionConfig(pw=0.995, scheme=INTERLEAVED, trials=_TRIAL_CHUNK + 40, seed=9, include_ecc=False)
    cells = cells_of(olds, news, cfg, schemes)
    whole = monte_carlo_block(cells, 3, cfg)
    monkeypatch.setattr(injection, "_draw_count", lambda expected: np.ones(np.shape(expected), dtype=np.int64))
    monkeypatch.setattr(injection, "_HELD_POSITIONS", 5)
    single = monte_carlo_block(cells, 3, cfg)
    assert single.tolist() == whole.tolist()
    assert 0 < whole.sum() < whole.size * cfg.trials


def test_run_experiment_monte_carlo_matches_reference_across_batches():
    # 1100 records are three batches of 512 writes: record offsets carry across batches
    cfg = ExperimentConfig(
        workload=WorkloadSpec("narrowint32", records=1100, addresses=16),
        pw=0.99,
        monte_carlo=True,
        trials=50,
        seed=12,
    )
    bundle = run_experiment(cfg)
    pairs = list(make_pairs(cfg))
    assert len(pairs) == 1100
    diff = np.array([np.frombuffer(old, np.uint8) ^ np.frombuffer(new, np.uint8) for old, new in pairs])
    for report in bundle.schemes:
        cells = scheme_counts((MappingScheme(report.scheme),), diff, include_ecc=True)[1][:, 0]
        rate, stderr = oracle.mc_trace(cells.tolist(), cfg.pw, cfg.trials, cfg.seed)
        assert (report.mc.error_rate, report.mc.stderr, report.mc.records) == (rate, stderr, 1100)
