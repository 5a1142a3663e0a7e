"""Property tests: the table-driven accumulators against the closed form and the spread oracle."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from robinsim.mapping import BATCH
from robinsim.reliability import (
    BLOCK_CELLS,
    ParameterError,
    RateAccumulator,
    block_log_success_optimal_array,
    codeword_log_success_array,
)
from robinsim.trace import StatsAccumulator

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
    acc = RateAccumulator(pw)
    acc.add_counts(counts)
    got = acc.finalize()
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
    ints, floats = RateAccumulator(pw), RateAccumulator(pw)
    ints.add_counts(counts)
    floats.add_counts(counts.astype(np.float64))
    np.testing.assert_array_equal(
        dataclasses.astuple(floats.finalize()), dataclasses.astuple(ints.finalize())
    )


@settings(max_examples=20, deadline=None)
@given(count_batches(zero_rows=True), pws, st.sampled_from((np.uint8, np.int32, np.bool_)))
def test_accumulators_take_narrow_integer_and_bool_counts(counts, pw, dtype):
    """uint8, int32 and bool counts give the results of the same counts as int64."""
    narrow = np.minimum(counts, np.iinfo(np.uint8).max).astype(dtype)
    for make in (lambda: RateAccumulator(pw), lambda: StatsAccumulator("robin")):
        got, want = make(), make()
        got.add_counts(narrow)
        want.add_counts(narrow.astype(np.int64))
        np.testing.assert_array_equal(
            dataclasses.astuple(got.finalize()), dataclasses.astuple(want.finalize())
        )


@settings(max_examples=40, deadline=None)
@given(count_batches(zero_rows=True))
def test_stats_accumulator_matches_spread_oracle(counts):
    acc = StatsAccumulator("robin")
    acc.add_counts(counts)
    stats = acc.finalize()
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

ADDERS = {
    "rate": lambda counts: RateAccumulator(0.999).add_counts(counts),
    "stats": lambda counts: StatsAccumulator("robin").add_counts(counts),
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
