import math
from fractions import Fraction
from itertools import combinations_with_replacement
from math import inf

import mpmath
import numpy as np
import pytest

import oracle
from robinsim.reliability import (
    DeviceParams,
    ParameterError,
    block_log_success_optimal_array,
    codeword_log_success_array,
    normalized_increase,
    p_write_from_device,
    trace_error_rate,
)

# frozen before the build from an independent mpmath transcription of the
# failure-probability formula
FIXED_DEVICE = dict(
    t_write=2.0,
    i_write=1.5,
    i_c0=1.0,
    polarization=0.5,
    magnetic_moment=0.75,
    mu_b=1.25,
    delta=4.0,
    e_charge=2.0,
)
FIXED_DEVICE_P_WRITE = 0.22638117613454956


def compositions(total, parts):
    """All ways to split `total` into `parts` non-negative ordered counts."""
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def test_p_write_zero_overdrive():
    params = DeviceParams(**{**FIXED_DEVICE, "i_write": FIXED_DEVICE["i_c0"]})
    assert p_write_from_device(params) == 0.0


def test_p_write_saturates_with_long_pulse():
    params = DeviceParams(**{**FIXED_DEVICE, "t_write": 1e9})
    assert p_write_from_device(params) == pytest.approx(1.0, abs=1e-15)


def test_p_write_fixed_vector_matches_frozen_oracle():
    assert p_write_from_device(DeviceParams(**FIXED_DEVICE)) == pytest.approx(
        FIXED_DEVICE_P_WRITE, rel=1e-12
    )


def test_p_write_monotonic_in_pulse_and_current():
    grid = np.linspace(1.0, 5.0, 10)
    previous = -1.0
    for t in grid:
        value = p_write_from_device(DeviceParams(**{**FIXED_DEVICE, "t_write": float(t)}))
        assert value > previous
        previous = value
    previous = -1.0
    for i in np.linspace(1.01, 3.0, 10):
        value = p_write_from_device(DeviceParams(**{**FIXED_DEVICE, "i_write": float(i)}))
        assert value > previous
        previous = value


def test_device_params_validation():
    with pytest.raises(ParameterError):
        DeviceParams(**{**FIXED_DEVICE, "t_write": 0.0})
    for moment in (0.0, -0.75):
        with pytest.raises(ParameterError, match="magnetic_moment"):
            DeviceParams(**{**FIXED_DEVICE, "magnetic_moment": moment})
    with pytest.raises(ParameterError):
        DeviceParams(**{**FIXED_DEVICE, "polarization": 1.0})
    with pytest.raises(ParameterError):
        DeviceParams(**{**FIXED_DEVICE, "delta": -1.0})
    with pytest.raises(ParameterError):
        DeviceParams(**{**FIXED_DEVICE, "i_write": 0.5})
    for name in FIXED_DEVICE:
        for bad in (math.nan, math.inf):
            with pytest.raises(ParameterError, match="finite"):
                DeviceParams(**{**FIXED_DEVICE, name: bad})


def test_p_write_invalid_denominator():
    # ln(pi^2 * delta / 4) < 0 for tiny delta; heavy e*m weight drives the denominator negative
    params = DeviceParams(
        t_write=1.0,
        i_write=2.0,
        i_c0=1.0,
        polarization=0.5,
        magnetic_moment=10.0,
        mu_b=1.0,
        delta=0.05,
        e_charge=10.0,
    )
    with pytest.raises(ParameterError):
        p_write_from_device(params)


def codeword_success(k, pw):
    return np.exp(codeword_log_success_array(k, pw))


def test_codeword_success_trivial_counts():
    for pw in (0.0, 0.3, 0.9, 1.0):
        zero, one = codeword_success([0, 1], pw)
        assert zero == 1.0
        assert one == pytest.approx(1.0)
    assert codeword_success(2, 0.9) == pytest.approx(0.99)


def test_codeword_success_matches_direct_arithmetic():
    rng = np.random.default_rng(31)
    for _ in range(100):
        k = int(rng.integers(0, 73))
        pw = float(rng.uniform(0.01, 0.999))
        expected = pw**k + k * pw ** (k - 1) * (1 - pw) if k else 1.0
        assert codeword_success(k, pw) == pytest.approx(expected, rel=1e-12)
        assert oracle.codeword_success(k, pw) == pytest.approx(expected, rel=1e-12)


def test_codeword_success_non_increasing_in_k():
    for pw in (0.2, 0.9, 0.999):
        values = codeword_success(np.arange(1, 73), pw)
        assert np.all(values[1:] <= values[:-1] + 1e-15)


def test_codeword_success_rejects_negative():
    with pytest.raises(ParameterError):
        codeword_log_success_array(-1, 0.9)
    with pytest.raises(ParameterError):
        codeword_log_success_array([2, -1], 0.9)
    with pytest.raises(ParameterError):
        codeword_log_success_array(2, 1.5)


def test_codeword_log_success_array_matches_scalar():
    ks = np.array([0.0, 0.5, 1.0, 2.0, 7.25, 64.0])
    for pw in (0.0, 0.5, 0.999, 1.0):
        array = codeword_success(ks, pw)
        scalar = [float(codeword_success(float(k), pw)) for k in ks]
        assert np.allclose(array, scalar, rtol=1e-12, atol=0)
        # whole counts against the plain-float reference
        whole = [oracle.codeword_success(int(k), pw) for k in ks if k == int(k)]
        assert np.allclose(array[ks == ks.astype(int)], whole, rtol=1e-12, atol=0)


def block_success(rows, pw):
    """Each row's block success: its codewords' log successes summed, as a probability."""
    return np.exp(codeword_log_success_array(rows, pw).sum(axis=-1))


def test_block_success_reference_points():
    rows = [[0] * 8, [2, 0, 0, 0, 0, 0, 0, 0], [2] * 8]
    assert block_success(rows, 0.9) == pytest.approx([1.0, 0.99, 0.99**8])
    assert block_success(rows[0], 0.9) == 1.0
    # a kernel row, as scheme_counts returns it
    assert block_success(np.full(8, 2, dtype=np.uint8), 0.9) == pytest.approx(0.9227446944279201)


def test_block_success_optimal_reference_points():
    optimal = np.exp(block_log_success_optimal_array([0, 8, 16, 12], 0.9))
    assert optimal[0] == 1.0
    assert np.exp(block_log_success_optimal_array(8, 0.123)) == pytest.approx(1.0)
    assert optimal[2] == pytest.approx(0.99**8)
    # non-multiple of 8: the real-valued split bounds the best integer one
    assert optimal[3] >= block_success([2] * 4 + [1] * 4, 0.9)


def test_uniform_composition_is_optimal_small_k():
    pw = 0.9
    for total in range(2, 11):
        comps = np.array(list(compositions(total, 8)))
        success = block_success(comps, pw)
        best = comps[np.argmax(success)]
        uniform = tuple(sorted([total // 8 + (1 if i < total % 8 else 0) for i in range(8)]))
        assert tuple(sorted(best.tolist())) == uniform
        bound = np.exp(block_log_success_optimal_array(total, pw))
        assert np.all(success <= bound + 1e-12)


def test_block_success_bounded_by_optimal_random():
    rng = np.random.default_rng(32)
    for pw in (0.5, 0.9, 0.999):
        rows = rng.integers(0, 65, (200, 8))
        bound = np.exp(block_log_success_optimal_array(rows.sum(axis=1), pw))
        assert np.all(block_success(rows, pw) <= bound + 1e-12)


def test_trace_error_rate_reference_points():
    zeros = trace_error_rate([[0] * 8] * 5, 0.9)
    assert zeros.rate == 0.0 and zeros.optimal_rate == 0.0 and zeros.writes == 5

    single = trace_error_rate([[2, 0, 0, 0, 0, 0, 0, 0]], 0.9)
    assert single.rate == pytest.approx(0.01)

    uniform = trace_error_rate([[2] * 8, [3] * 8], 0.9)
    assert uniform.rate == pytest.approx(uniform.optimal_rate, rel=1e-12)
    assert normalized_increase(uniform.rate, uniform.optimal_rate) == pytest.approx(0.0, abs=1e-9)


def test_trace_error_rate_rejects_empty():
    with pytest.raises(ValueError):
        trace_error_rate([], 0.9)


def test_trace_error_rate_mixes_zero_writes():
    # K=0 writes dilute both the rate and its optimal companion equally
    with_zero = trace_error_rate([[2] * 8, [0] * 8], 0.9)
    alone = trace_error_rate([[2] * 8], 0.9)
    assert with_zero.rate == pytest.approx(alone.rate / 2)
    assert with_zero.optimal_rate == pytest.approx(alone.optimal_rate / 2)


def test_normalized_increase_rules():
    assert normalized_increase(0.02, 0.02) == 0.0
    assert normalized_increase(0.04, 0.02) == pytest.approx(100.0)
    assert normalized_increase(0.0, 0.0) == 0.0
    assert normalized_increase(0.01, 0.0) == inf
    assert normalized_increase(0.0151, 0.006) == pytest.approx((0.0151 / 0.006 - 1) * 100)
    with pytest.raises(ParameterError):
        normalized_increase(-0.1, 0.2)


@pytest.mark.parametrize("rates", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan), (math.nan, 0.0)])
def test_normalized_increase_rejects_nan(rates):
    # NaN fails both comparisons, so a sign check alone would let it through
    with pytest.raises(ParameterError, match="rates must be non-negative"):
        normalized_increase(*rates)


def test_increase_is_scale_free():
    assert math.isclose(
        normalized_increase(3e-6, 2e-6), normalized_increase(3e-2, 2e-2), rel_tol=1e-12
    )


def test_trace_error_rate_across_chunks_matches_oracle():
    # more vectors than one accumulator chunk, so chunk boundaries are crossed
    rows = np.random.default_rng(8).integers(0, 30, (1300, 8)).tolist()
    result = trace_error_rate(rows, 0.995)
    rate, optimal = oracle.trace_rates(rows, 0.995)
    assert result.writes == 1300
    assert result.rate == pytest.approx(rate, rel=1e-12)
    assert result.optimal_rate == pytest.approx(optimal, rel=1e-12)


def test_trace_error_rate_rejects_wrong_width():
    with pytest.raises(ParameterError):
        trace_error_rate([[1] * 7], 0.9)


@pytest.mark.parametrize(
    "rows",
    [
        [(1, 2, 3), (1,) * 8],
        [(1,) * 8, (1,) * 9],
        [(1,) * 7],
        [(1,) * 9],
        [(1,) * 8, (1,) * 7],
        [(1, (2, 3), 0, 0, 0, 0, 0, 0)],
    ],
    ids=("ragged", "ragged-9", "seven", "nine", "then-seven", "nested"),
)
def test_trace_error_rate_rejects_rows_that_are_not_eight_counts(rows):
    with pytest.raises(ParameterError, match="count rows need 8 entries"):
        trace_error_rate(rows, 0.9)


@pytest.mark.parametrize(
    "row",
    [(1, 2, 3), (1,) * 7, (1,) * 9, (1, (2, 3), 0, 0, 0, 0, 0, 0), [(1,) * 8, (1,) * 7]],
    ids=("three", "seven", "nine", "nested", "ragged"),
)
def test_block_success_rejects_rows_that_are_not_eight_counts(row):
    # one write's failure rate checks its row as a trace's rows are checked
    with pytest.raises(ParameterError, match="count rows need 8 entries"):
        trace_error_rate([row], 0.9)


TINY_Q = [10.0**-e for e in range(3, 13)]


def exact_block_failure(counts, pw):
    """1 - prod (1-q)^(k-1) (1+(k-1)q) in rationals, with q the exact 1 - pw."""
    q = Fraction(1) - Fraction(pw)
    success = Fraction(1)
    for k in counts:
        if k:
            success *= (1 - q) ** (k - 1) * (1 + (k - 1) * q)
    return 1 - success


@pytest.mark.parametrize("q", TINY_Q)
def test_block_failure_matches_exact_rational_oracle(q):
    pw = 1.0 - q
    rng = np.random.default_rng(round(-math.log10(q)))
    rows = [[3, 2, 1, 0, 0, 0, 0, 0], [2] + [0] * 7, [72] * 8] + rng.integers(0, 73, (5, 8)).tolist()
    for row in rows:
        rates = trace_error_rate([row], pw)
        assert rates.rate == pytest.approx(float(exact_block_failure(row, pw)), rel=1e-12, abs=0)
        base, extra = divmod(sum(row), 8)
        if not extra:  # the uniform split is a whole number of flips per codeword
            expected = float(exact_block_failure([base] * 8, pw))
            assert rates.optimal_rate == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("pw", [1e-300, 2.0**-60, 0.3])
def test_small_pw_matches_exact_rational_oracle(pw):
    # for pw <= 2^-54, 1 - pw rounds to exactly 1; no rate may become NaN
    for k in range(6):
        exact = 1 - exact_block_failure([k], pw)
        want = math.log(exact.numerator) - math.log(exact.denominator)
        assert codeword_log_success_array(np.array([k]), pw)[0] == pytest.approx(want, rel=1e-12, abs=0)
    rows = [[0] * 8, [1] * 8, [3, 2, 1, 0, 0, 0, 0, 0], [2] + [0] * 7, [9, 0, 7, 1, 30, 2, 0, 5]]
    for row in rows:
        rates = trace_error_rate([row], pw)
        assert rates.rate == pytest.approx(float(exact_block_failure(row, pw)), rel=1e-12, abs=0)
        base, extra = divmod(sum(row), 8)
        if not extra:  # the uniform split is a whole number of flips per codeword
            expected = float(exact_block_failure([base] * 8, pw))
            assert rates.optimal_rate == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("q", TINY_Q)
def test_uniform_bound_matches_high_precision(q):
    pw = 1.0 - q
    with mpmath.workdps(50):
        exact_q = 1 - mpmath.mpf(pw)
        for total in (2, 6, 9, 13, 40, 200, 576):
            k = mpmath.mpf(total) / 8
            success = min((1 - exact_q) ** (k - 1) * (1 + (k - 1) * exact_q), 1)
            expected = float(1 - success**8)
            got = trace_error_rate([[total] + [0] * 7], pw).optimal_rate
            if total < 8:  # K/8 < 1: the bound is clamped at certain success
                assert expected == 0.0 and got == 0.0
            else:
                assert got == pytest.approx(expected, rel=1e-12, abs=0)


def test_block_failure_small_q_limit():
    # two codewords with 3 and 2 flips fail with C(3,2) q^2 + C(2,2) q^2 = 4 q^2 to first order
    for q in (1e-8, 1e-9, 1e-10, 1e-12):
        pw = 1.0 - q
        exact_q = 1.0 - pw
        rate = trace_error_rate([[3, 2, 1, 0, 0, 0, 0, 0]], pw).rate
        assert rate / exact_q**2 == pytest.approx(4.0, rel=1e-6)
