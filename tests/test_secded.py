from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracle import data_columns as reference_data_columns
from oracle import encode as matrix_encode
from oracle import repair as column_search_repair
from robinsim import secded
from robinsim.secded import (
    CHECK_COLUMNS,
    CODEWORD_BITS,
    COLUMNS,
    DATA_BITS,
    DATA_COLUMNS,
    encode,
    encode_words,
    repair_words,
)

# frozen before the build from an independent GF(2) matrix-vector oracle
FROZEN_ENCODINGS = {
    0x0000000000000000: 0x00,
    0x0000000000000001: 0x07,
    0xDEADBEEFCAFEBABE: 0xD2,
    0xFFFFFFFFFFFFFFFF: 0xD8,
    0x0123456789ABCDEF: 0x42,
}


def flip(data, check, bit):
    if bit < DATA_BITS:
        return data ^ (1 << bit), check
    return data, check ^ (1 << (bit - DATA_BITS))


def test_column_construction():
    assert DATA_COLUMNS == reference_data_columns()
    assert CHECK_COLUMNS == tuple(1 << r for r in range(8))
    assert len(set(COLUMNS)) == CODEWORD_BITS
    assert all(bin(c).count("1") % 2 == 1 for c in COLUMNS)
    assert all(bin(c).count("1") == 3 for c in DATA_COLUMNS[:56])
    assert all(bin(c).count("1") == 5 for c in DATA_COLUMNS[56:])


def test_encode_frozen_values():
    for data, expected in FROZEN_ENCODINGS.items():
        assert encode(data) == expected == matrix_encode(data)


def test_encode_single_bits_are_columns():
    for slot in range(64):
        assert encode(1 << slot) == DATA_COLUMNS[slot]


def test_encode_linearity():
    rng = np.random.default_rng(21)
    for _ in range(200):
        a, b = (int(v) for v in rng.integers(0, 1 << 63, 2, dtype=np.uint64))
        assert encode(a ^ b) == encode(a) ^ encode(b)


def test_encode_matches_matrix_oracle_random():
    rng = np.random.default_rng(22)
    for _ in range(100):
        data = int(rng.integers(0, 1 << 63, dtype=np.uint64))
        assert encode(data) == matrix_encode(data)


def test_encode_words_matches_scalar():
    rng = np.random.default_rng(23)
    words = rng.integers(0, 1 << 63, 50, dtype=np.uint64)
    checks = encode_words(words)
    for word, check in zip(words, checks):
        assert int(check) == encode(int(word)) == matrix_encode(int(word))


def syndrome(data, check):
    return int(repair_words(data, check)[0])


def test_encode_rejects_out_of_range():
    with pytest.raises(ValueError):
        encode(1 << 64)
    with pytest.raises(ValueError):
        encode(-1)
    with pytest.raises(ValueError):
        repair_words(0, 256)


@pytest.mark.parametrize(
    ("data", "check", "message"),
    [
        (0, 256, "check words"),
        (0, -1, "check words"),
        (-1, 0, "datawords"),
        (1 << 64, 0, "datawords"),
        # an int64 check word of 256 + c would otherwise wrap to the valid c
        (np.array([5], dtype=np.int64), np.array([256 + encode(5)], dtype=np.int64), "check words"),
        (np.array([-1, 5], dtype=np.int64), np.array([0, 0], dtype=np.uint8), "datawords"),
        (np.array([0.0, 2.0**64]), np.zeros(2, dtype=np.uint8), "datawords"),
        # a fractional word would otherwise truncate to a valid one
        (np.array([1.5]), np.array([encode(1)]), "datawords"),
        (np.array([1]), np.array([encode(1) + 0.5]), "check words"),
    ],
    ids=["check-256", "check-negative", "data-negative", "data-2**64", "int64-check-wraps",
         "int64-data-negative", "float-data-2**64", "float-data-fraction", "float-check-fraction"],
)
def test_repair_words_rejects_out_of_range_input(data, check, message):
    with pytest.raises(ValueError, match=message):
        repair_words(data, check)


def test_repair_words_takes_in_range_words_of_any_integer_type():
    data = [0, 5, 0xDEADBEEFCAFEBABE]
    checks = [encode(d) for d in data]
    native = repair_words(np.array(data, dtype=np.uint64), np.array(checks, dtype=np.uint8))
    for words, check_words in (
        (data, checks),
        (np.array(data, dtype=object), np.array(checks, dtype=np.int64)),
        (np.array(data[:2], dtype=np.uint8), checks[:2]),
        (np.array(data[:2], dtype=np.int64), np.array(checks[:2], dtype=np.uint16)),
    ):
        outputs = repair_words(words, check_words)
        for got, want in zip(outputs, native):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want[: len(got)])


def test_syndrome_zero_for_valid_codewords():
    rng = np.random.default_rng(24)
    for _ in range(50):
        data = int(rng.integers(0, 1 << 63, dtype=np.uint64))
        assert syndrome(data, encode(data)) == 0


def test_syndrome_single_flip_is_odd_column():
    data = 0xA5A5A5A55A5A5A5A
    check = encode(data)
    for bit in range(CODEWORD_BITS):
        s = syndrome(*flip(data, check, bit))
        assert s == COLUMNS[bit]
        assert bin(s).count("1") % 2 == 1


def flipped_pairs(data, check):
    """Received (data, check) arrays of every double flip of a codeword, in combinations() order."""
    received = [flip(*flip(data, check, a), b) for a, b in combinations(range(CODEWORD_BITS), 2)]
    return np.array([d for d, _ in received], dtype=np.uint64), np.array([c for _, c in received], dtype=np.uint8)


def test_syndrome_double_flip_even_nonzero():
    data = 0x0F0F0F0F33CC55AA
    syndromes = repair_words(*flipped_pairs(data, encode(data)))[0]
    assert syndromes.size == CODEWORD_BITS * (CODEWORD_BITS - 1) // 2
    for s in syndromes.tolist():
        assert s != 0
        assert bin(s).count("1") % 2 == 0


def test_syndrome_of_error_pattern_is_data_independent():
    rng = np.random.default_rng(25)
    pattern_data = int(rng.integers(0, 1 << 63, dtype=np.uint64))
    pattern_check = int(rng.integers(0, 256))
    expected = encode(pattern_data) ^ pattern_check
    for _ in range(20):
        data = int(rng.integers(0, 1 << 63, dtype=np.uint64))
        check = encode(data)
        assert syndrome(data ^ pattern_data, check ^ pattern_check) == expected


def test_decode_clean():
    assert [int(v) for v in repair_words(0, 0)] == [0, -1, 0, 0]
    data = 0x123456789ABCDEF0
    assert [int(v) for v in repair_words(data, encode(data))] == [0, -1, data, encode(data)]


def test_decode_corrects_bit_5():
    data = 0x00000000DEADBEEF
    s, bit, fixed_data, fixed_check = repair_words(data ^ (1 << 5), encode(data))
    assert s == COLUMNS[5]
    assert bit == 5
    assert (int(fixed_data), int(fixed_check)) == (data, encode(data))


def test_decode_detects_bits_3_and_7():
    data = 0x00000000DEADBEEF
    received = (data ^ (1 << 3) ^ (1 << 7), encode(data))
    s, bit, fixed_data, fixed_check = repair_words(*received)
    assert s != 0
    assert bit == -1
    # nothing is corrected
    assert (int(fixed_data), int(fixed_check)) == received


def test_single_error_sweep_restores_original():
    rng = np.random.default_rng(26)
    for _ in range(5):
        data = int(rng.integers(0, 1 << 63, dtype=np.uint64))
        check = encode(data)
        for bit in range(CODEWORD_BITS):
            s, found, fixed_data, fixed_check = repair_words(*flip(data, check, bit))
            assert s != 0
            assert found == bit
            assert (int(fixed_data), int(fixed_check)) == (data, check)


def test_double_error_sweep_never_miscorrects():
    rng = np.random.default_rng(27)
    for _ in range(3):
        data = int(rng.integers(0, 1 << 63, dtype=np.uint64))
        received_data, received_check = flipped_pairs(data, encode(data))
        syndromes, found, fixed_data, fixed_check = repair_words(received_data, received_check)
        assert np.all(syndromes != 0)
        assert np.all(found == -1)
        assert np.array_equal(fixed_data, received_data) and np.array_equal(fixed_check, received_check)


words64 = st.integers(0, 2**64 - 1)


@given(words64, words64)
def test_encode_is_linear_over_gf2(a, b):
    assert encode(a ^ b) == encode(a) ^ encode(b)


word_arrays = hnp.arrays(np.uint64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5))


def seeded_words(shape, seed):
    return np.random.default_rng(seed).integers(0, 2**64, shape, dtype=np.uint64)


@settings(max_examples=60, deadline=None)
@given(word_arrays)
# a codeword's eight words and a write's sixteen, and either side of the
# word count where encode_words changes route
@example(seeded_words((8,), 1))
@example(seeded_words((2, 8), 2))
@example(seeded_words((secded._SMALL_WORDS - 1,), 3))
@example(seeded_words((secded._SMALL_WORDS,), 4))
@example(seeded_words((1, secded._SMALL_WORDS + 1), 5))
@example(seeded_words((secded._SMALL_WORDS + 3,), 9))
def test_encode_words_matches_scalar_on_any_shape(words):
    checks = encode_words(words)
    assert checks.shape == words.shape
    assert checks.dtype == np.uint8
    assert [int(c) for c in checks.ravel()] == [encode(int(w)) for w in words.ravel()]
    assert [int(c) for c in checks.ravel()] == [matrix_encode(int(w)) for w in words.ravel()]
    # a strided view encodes like the copy it views
    assert np.array_equal(encode_words(words.T), checks.T)


def test_encode_words_matches_matrix_oracle_at_every_count_of_both_routes():
    top = 2 * secded._SMALL_WORDS
    pool = seeded_words((2 * top,), 10)
    want = np.array([matrix_encode(int(w)) for w in pool], dtype=np.uint8)
    for n in range(top + 1):
        np.testing.assert_array_equal(encode_words(pool[:n]), want[:n])
        np.testing.assert_array_equal(encode_words(pool[:n].reshape(-1, 1)), want[:n].reshape(-1, 1))
        # every other word: a view with a 16-byte stride
        np.testing.assert_array_equal(encode_words(pool[1 : 2 * n : 2]), want[1 : 2 * n : 2])
    for word, check in zip(pool[:top], want[:top]):
        got = encode_words(np.array(word))
        assert type(got) is np.uint8 and got == check


def test_encode_routes_read_the_encoder_table_at_call_time(monkeypatch):
    table = np.zeros((4, 1 << 16), dtype=np.uint8)
    table[1] = np.arange(1 << 16) >> 8   # the check word becomes bits 24..31 of the dataword
    monkeypatch.setattr(secded, "_ENCODER", table)
    words = seeded_words((2 * secded._SMALL_WORDS,), 6)
    want = [(int(w) >> 24) & 0xFF for w in words]
    assert [encode(int(w)) for w in words] == want
    assert encode_words(words[:8]).tolist() == want[:8]
    assert encode_words(words).tolist() == want


def test_encode_words_gives_a_scalar_for_a_0d_word_and_an_array_for_eight():
    # the shapes transition_vector and the gather route rely on
    word = np.uint64(0x0123456789ABCDEF)
    for zero_d in (word, np.array(word)):
        check = encode_words(zero_d)
        assert type(check) is np.uint8 and int(check) == encode(int(word))
    words = seeded_words((8,), 7)
    checks = encode_words(words)
    assert type(checks) is np.ndarray and checks.shape == (8,) and checks.dtype == np.uint8
    assert checks.tolist() == [encode(int(w)) for w in words]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.tuples(*[hnp.arrays(np.uint64, n)] * 2)))
def test_encode_words_is_linear_over_gf2(pair):
    a, b = pair
    assert np.array_equal(encode_words(a ^ b), encode_words(a) ^ encode_words(b))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_repair_words_matches_scalar_on_any_shape(data):
    words = data.draw(word_arrays)
    checks = data.draw(hnp.arrays(np.uint8, words.shape))
    syndromes, bits, fixed_data, fixed_check = repair_words(words, checks)
    outputs = (syndromes, bits, fixed_data, fixed_check)
    for array, dtype in zip(outputs, (np.uint8, np.int8, np.uint64, np.uint8)):
        assert array.shape == words.shape
        assert array.dtype == dtype
    rows = zip(*(np.ravel(a).tolist() for a in (words, checks) + outputs))
    for word, check, *decoded in rows:
        assert decoded == list(column_search_repair(word, check))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_repair_words_classifies_zero_one_and_two_flips(data):
    words = data.draw(word_arrays)
    shape = words.shape
    n_flips = data.draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 2)))
    first = data.draw(hnp.arrays(np.int8, shape, elements=st.integers(0, CODEWORD_BITS - 1)))
    # a second bit distinct from the first
    offset = data.draw(hnp.arrays(np.int8, shape, elements=st.integers(1, CODEWORD_BITS - 1)))
    second = (first + offset) % CODEWORD_BITS
    received_data = np.empty(shape, dtype=np.uint64)
    received_check = np.empty(shape, dtype=np.uint8)
    for index in np.ndindex(shape):
        word = int(words[index])
        received = (word, matrix_encode(word))
        for bit in (int(first[index]), int(second[index]))[: n_flips[index]]:
            received = flip(*received, bit)
        received_data[index], received_check[index] = received

    syndromes, bits, fixed_data, fixed_check = repair_words(received_data, received_check)
    for index in np.ndindex(shape):
        word = int(words[index])
        if n_flips[index] == 0:
            assert syndromes[index] == 0 and bits[index] == -1
        elif n_flips[index] == 1:
            assert syndromes[index] != 0 and bits[index] == first[index]
            assert (int(fixed_data[index]), int(fixed_check[index])) == (word, matrix_encode(word))
        else:
            assert syndromes[index] != 0 and bits[index] == -1
        if n_flips[index] != 1:
            # nothing is corrected
            assert int(fixed_data[index]) == int(received_data[index])
            assert int(fixed_check[index]) == int(received_check[index])


@pytest.mark.parametrize(
    "words",
    [np.array([-1], dtype=np.int64), np.array([1.5]), -1],
    # int64 -1 would otherwise wrap to 2**64 - 1, 1.5 truncate to 1, and a
    # Python -1 raise OverflowError
    ids=["int64-negative", "float-fraction", "python-int-negative"],
)
def test_encode_words_rejects_words_outside_the_unsigned_64_bit_integers(words):
    with pytest.raises(ValueError, match="datawords"):
        encode_words(words)


def test_encode_words_takes_uint64_arrays_as_they_are_and_checks_any_other():
    # a uint64 ndarray skips the value check: read-only and strided ones encode like copies
    for shape in ((8,), (secded._SMALL_WORDS + 4,)):
        words = seeded_words(shape, 11)
        want = encode_words(words.copy())
        read_only = np.frombuffer(words.tobytes(), dtype=np.uint64)
        assert not read_only.flags.writeable
        assert np.array_equal(encode_words(read_only), want)
    for shape in ((2, 4), (2, 8)):
        words = np.asfortranarray(seeded_words(shape, 12))
        assert not words.flags.c_contiguous
        assert np.array_equal(encode_words(words), encode_words(np.ascontiguousarray(words)))
    valid = np.array([0, 5, np.iinfo(np.int64).max], dtype=np.int64)
    assert encode_words(valid).tolist() == [encode(int(w)) for w in valid]
    for words in (np.array([3, -1], dtype=np.int64), np.array([2.0, 1.5])):
        with pytest.raises(ValueError, match="datawords"):
            encode_words(words)


def test_encode_words_takes_0d_words():
    for word in (5, np.array(5, dtype=np.int64), np.uint64(5), (1 << 64) - 1):
        check = encode_words(word)
        assert type(check) is np.uint8 and int(check) == encode(int(word))


def test_repair_words_matches_the_oracle_on_every_syndrome():
    # check = encode(data) ^ s for every s: the zero syndrome, the 72 columns,
    # and every syndrome only double or aliased triple flips produce, so every
    # entry of the correction tables is read
    datawords = [0, (1 << 64) - 1, *seeded_words((4,), 10).tolist()]
    data = np.repeat(np.array(datawords, dtype=np.uint64), 256)
    check = encode_words(data) ^ np.tile(np.arange(256, dtype=np.uint8), len(datawords))
    want = [column_search_repair(d, c) for d, c in zip(data.tolist(), check.tolist())]

    def decoded(data, check):
        outputs = repair_words(data, check)
        for array, dtype in zip(outputs, (np.uint8, np.int8, np.uint64, np.uint8)):
            assert np.shape(array) == np.shape(data) and array.dtype == dtype
        return list(zip(*(np.ravel(a).tolist() for a in outputs)))

    assert decoded(data, check) == want
    assert [decoded(np.asarray(d), np.asarray(c))[0] for d, c in zip(data, check)] == want
    # (2, 3) blocks of six codewords, the last one padded with the first codewords
    pad = -len(data) % 6
    blocks = [np.concatenate([a, a[:pad]]).reshape(-1, 2, 3) for a in (data, check)]
    assert sum((decoded(d, c) for d, c in zip(*blocks)), []) == want + want[:pad]
