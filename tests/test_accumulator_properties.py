"""Property tests: the table-driven accumulator against the closed form, the spread oracle
and the per-scheme fold it replaced."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from robinsim.mapping import BATCH, KINDS, MappingScheme, scheme_counts
from robinsim.reliability import (
    BLOCK_CELLS,
    ParameterError,
    TraceAccumulator,
    block_log_success_optimal_array,
    codeword_log_success_array,
    trace_error_rate,
)

pws = st.one_of(
    st.sampled_from((0.0, 1.0, 1.0 - 1e-12)),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


@st.composite
def count_batches(draw, zero_rows=False):
    """1 to BATCH + 40 rows of counts 0..72 from a drawn seed, one of them all 576 (BLOCK_CELLS).

    With ``zero_rows``, a drawn share of the other rows is all zero.
    """
    n = draw(st.integers(1, BATCH + 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(0, 73, (n, 8))
    if zero_rows:
        counts[rng.random(n) < draw(st.floats(0.0, 1.0))] = 0
    counts[draw(st.integers(0, n - 1))] = BLOCK_CELLS
    return counts


@settings(max_examples=60, deadline=None)
@given(count_batches(), pws)
def test_rate_accumulator_equals_closed_form(counts, pw):
    acc = TraceAccumulator(pw)
    acc.add(counts)
    got = acc.rates()[0]
    totals = counts.sum(axis=1)
    n = len(counts)
    assert got.writes == n
    want = [
        -float(np.expm1(codeword_log_success_array(counts, pw).sum(axis=1)).sum()) / n,
        -float(np.expm1(block_log_success_optimal_array(totals, pw)).sum()) / n,
    ]
    # exact equality; a NaN of the closed form must be a NaN here too
    np.testing.assert_array_equal([got.rate, got.optimal_rate], want)


@settings(max_examples=20, deadline=None)
@given(count_batches(), pws)
def test_rate_accumulator_takes_whole_valued_floats(counts, pw):
    ints, floats = TraceAccumulator(pw), TraceAccumulator(pw)
    ints.add(counts)
    floats.add(counts.astype(np.float64))
    np.testing.assert_array_equal(
        dataclasses.astuple(floats.rates()[0]), dataclasses.astuple(ints.rates()[0])
    )


@settings(max_examples=20, deadline=None)
@given(count_batches(zero_rows=True), pws, st.sampled_from((np.uint8, np.int32, np.bool_)))
def test_accumulators_take_narrow_integer_and_bool_counts(counts, pw, dtype):
    """uint8, int32 and bool counts give the results of the same counts as int64.

    uint8 counts of shape (n, 1, 8) take the kernel's route past the range check.
    """
    narrow = np.minimum(counts, np.iinfo(np.uint8).max).astype(dtype)[:, None]
    got, want = TraceAccumulator(pw), TraceAccumulator(pw)
    got.add(narrow)
    want.add(narrow.astype(np.int64))
    for results in (lambda acc: acc.rates()[0], lambda acc: acc.stats(["robin"])[0]):
        np.testing.assert_array_equal(
            dataclasses.astuple(results(got)), dataclasses.astuple(results(want))
        )


@settings(max_examples=40, deadline=None)
@given(count_batches(zero_rows=True))
def test_stats_accumulator_matches_spread_oracle(counts):
    acc = TraceAccumulator(0.999)
    acc.add(counts)
    stats = acc.stats(["robin"])[0]
    rows = counts.tolist()
    live = [row for row in rows if sum(row)]
    assert stats.writes == len(live)
    assert stats.skipped_zero == len(rows) - len(live)
    if not live:
        assert stats.min_avg_pct == stats.max_avg_pct == 0.0
        return
    min_avg, max_avg = oracle.spread(rows)
    assert stats.min_avg_pct == pytest.approx(min_avg, rel=1e-12)
    assert stats.max_avg_pct == pytest.approx(max_avg, rel=1e-12)
    assert stats.min_extreme_pct == pytest.approx(min(min(r) * 800.0 / sum(r) for r in live), rel=1e-12)
    assert stats.max_extreme_pct == pytest.approx(max(max(r) * 800.0 / sum(r) for r in live), rel=1e-12)


BAD_ROWS = {
    "negative": [[3, -1, 0, 0, 0, 0, 0, 0]],
    "above-576": [[577, 0, 0, 0, 0, 0, 0, 0]],
    "fraction": [[2.5, 0, 0, 0, 0, 0, 0, 0]],
    "nan": [[math.nan, 0, 0, 0, 0, 0, 0, 0]],
    # integer counts skip the whole-number check, never the range check
    "negative-int32": np.array([[3, -1, 0, 0, 0, 0, 0, 0]], dtype=np.int32),
    "above-576-uint16": np.array([[577, 0, 0, 0, 0, 0, 0, 0]], dtype=np.uint16),
    "fraction-1.5": [[1.5, 0, 0, 0, 0, 0, 0, 0]],
    "nan-float32": np.array([[math.nan, 0, 0, 0, 0, 0, 0, 0]], dtype=np.float32),
}

def _zeros(counts):
    """A valid all-zero count matrix with as many rows as ``counts``."""
    return np.zeros((len(counts), 8), dtype=np.int64)


# bad counts as the rates' cells, as the spread's data, and as the rows of
# trace_error_rate, whose one-row call is a single write's failure rate
ADDERS = {
    "rate": lambda counts: TraceAccumulator(0.999).add(_zeros(counts), counts),
    "stats": lambda counts: TraceAccumulator(0.999).add(counts, _zeros(counts)),
    "trace_error_rate": lambda rows: trace_error_rate(rows, 0.999),
}


@pytest.mark.parametrize("add", ADDERS.values(), ids=ADDERS.keys())
@pytest.mark.parametrize("rows", BAD_ROWS.values(), ids=BAD_ROWS.keys())
def test_accumulators_reject_bad_counts(add, rows):
    with pytest.raises(ParameterError, match="transition counts"):
        add(np.asarray(rows))


@pytest.mark.parametrize("add", ADDERS.values(), ids=ADDERS.keys())
@pytest.mark.parametrize("shape", ((3, 7), (3, 9), (8,), (2, 8, 1)))
def test_accumulators_reject_wrong_width(add, shape):
    with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
        add(np.ones(shape, dtype=np.int64))


def _diff_batches(n, seed):
    """Four batches of n write diffs: sparse with some all-zero rows, none at all, all zero, dense."""
    rng = np.random.default_rng(seed)
    sparse = rng.integers(0, 256, (n, 64), dtype=np.uint8) & rng.integers(0, 256, (n, 64), dtype=np.uint8)
    sparse &= rng.integers(0, 256, (n, 64), dtype=np.uint8)
    sparse[rng.random(n) < 0.3] = 0
    dense = rng.integers(0, 256, (n, 64), dtype=np.uint8)
    return [sparse, np.zeros((0, 64), np.uint8), np.zeros((n, 64), np.uint8), dense]


@pytest.mark.parametrize("include_ecc", (True, False), ids=("ecc", "data"))
@pytest.mark.parametrize("pw", (0.0, 0.5, 0.99, 0.999, 1 - 1e-12, 1.0))
@pytest.mark.parametrize("schemes", (1, 2, 3))
@pytest.mark.parametrize("n", (1, 7, 511, 512))
def test_fold_equals_per_scheme_fold(n, schemes, pw, include_ecc):
    """After every batch, each scheme's means equal the per-scheme fold's exactly."""
    kinds = KINDS[-schemes:]
    acc = TraceAccumulator(pw, schemes)
    rates = [oracle.RateFold(pw) for _ in kinds]
    spreads = [oracle.SpreadFold(kind) for kind in kinds]
    for diff in _diff_batches(n, seed=1000 * n + 10 * schemes + include_ecc):
        data, cells = scheme_counts(tuple(map(MappingScheme, kinds)), diff, include_ecc)
        assert (data is cells) == (not include_ecc)
        acc.add(data, cells)
        for s, (rate, spread) in enumerate(zip(rates, spreads)):
            rate.add_counts(cells[:, s])
            spread.add_counts(data[:, s])
        # dataclass equality compares every float with ==
        assert acc.rates() == [rate.finalize() for rate in rates]
        assert acc.stats(kinds) == [spread.finalize() for spread in spreads]


@pytest.mark.parametrize("pw", (2.0, math.nan))
def test_accumulator_rejects_pw_when_built(pw):
    message = re.escape(f"p_write must lie in [0, 1], got {pw}")
    with pytest.raises(ParameterError, match=message):
        TraceAccumulator(pw)
    # before the empty stream's own error
    with pytest.raises(ParameterError, match=message):
        trace_error_rate([], pw)


def test_accumulator_rejects_data_and_cells_of_different_lengths():
    with pytest.raises(ParameterError, match="data and cells differ in length: 3 and 2"):
        TraceAccumulator(0.999, 2).add(np.zeros((3, 2, 8), np.uint8), np.zeros((2, 2, 8), np.uint8))


@pytest.mark.parametrize("shape", ((4, 8), (4, 3, 8), (4, 2, 7)))
def test_accumulator_rejects_rows_of_other_scheme_counts(shape):
    """Two schemes take (n, 2, 8) counts only; uint8 ones skip the range check but not the shape check."""
    for dtype in (np.uint8, np.int64):
        with pytest.raises(ParameterError, match=re.escape(f"for each of 2 schemes, got shape {shape}")):
            TraceAccumulator(0.999, 2).add(np.zeros(shape, dtype))
