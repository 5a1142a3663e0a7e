import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from oracle import bits_to_block, block_to_bits
from robinsim import mapping, secded
from robinsim.bits import block_bytes
from robinsim.mapping import (
    BATCH,
    INTERLEAVED,
    PER_WORD,
    ROBIN,
    _lane_table,
    InvalidSchemeError,
    MappingScheme,
    block_datawords,
    check_words,
    scheme_counts,
    transition_vector,
    verify_partition,
)

SCHEMES = (PER_WORD, INTERLEAVED, ROBIN)


def owner(scheme, word, byte, pos):
    """The codeword that owns bit ``pos`` of byte ``byte`` of word ``word``."""
    return int(scheme.assignment[64 * word + 8 * byte + pos])


def datawords(scheme, block):
    """The eight datawords of one 64-byte block."""
    return block_datawords(scheme, block_bytes(block)[None])[0]


def robin_forward_assignment():
    """Independent oracle: codeword n owns position (i+j+n) mod 8 of byte j in word i."""
    assign = {}
    for n in range(8):
        for i in range(8):
            for j in range(8):
                flat = 64 * i + 8 * j + (i + j + n) % 8
                assert flat not in assign
                assign[flat] = n
    return assign


def test_map_bit_reference_points():
    assert owner(ROBIN, 0, 0, 0) == 0
    assert owner(ROBIN, 1, 2, 3) == 0
    assert PER_WORD.assignment[100] == 1
    assert INTERLEAVED.assignment[100] == 4


def test_robin_matches_forward_enumeration():
    oracle = robin_forward_assignment()
    for flat, expected in oracle.items():
        assert ROBIN.assignment[flat] == expected


def test_codeword_data_bits_reference_points():
    assert oracle.codeword_bits("per-word", 0) == tuple(range(64))
    assert oracle.codeword_bits("per-word", 3) == tuple(range(192, 256))
    assert oracle.codeword_bits("interleaved", 0) == tuple(range(0, 512, 8))
    robin0 = oracle.codeword_bits("robin", 0)
    assert len(robin0) == 64
    # exactly one bit from each of the 64 bytes
    assert sorted(flat // 8 for flat in robin0) == list(range(64))
    forward = sorted(f for f, n in robin_forward_assignment().items() if n == 0)
    assert list(robin0) == forward
    # row n of a scheme's perm is codeword n's data bits in slot order
    for scheme in SCHEMES:
        rows = scheme.perm.reshape(8, 64)
        for n in range(8):
            assert tuple(rows[n].tolist()) == oracle.codeword_bits(scheme.kind, n)


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.kind)
def test_partition_property(scheme):
    seen = []
    for row in scheme.perm.reshape(8, 64).tolist():
        assert len(row) == 64
        assert row == sorted(row)
        seen.extend(row)
    assert sorted(seen) == list(range(512))


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.kind)
def test_map_bit_roundtrip_with_codeword_data_bits(scheme):
    for n in range(8):
        for flat in oracle.codeword_bits(scheme.kind, n):
            assert scheme.assignment[flat] == n


def test_a_scheme_built_by_name_is_the_constant_and_shares_its_lane_tables():
    diff = np.random.default_rng(11).integers(0, 256, (4, 64), dtype=np.uint8)
    expected = scheme_counts((ROBIN,), diff)
    scheme = MappingScheme("robin")
    assert scheme == ROBIN and hash(scheme) == hash(ROBIN)
    misses = _lane_table.cache_info().misses
    counts = scheme_counts((scheme,), diff)
    assert _lane_table.cache_info().misses == misses
    assert all(np.array_equal(got, want) for got, want in zip(counts, expected))
    # the tables are ROBIN's, so the new scheme has still derived nothing
    assert vars(scheme) == {"kind": "robin"}


def test_a_scheme_derives_its_layout_on_first_use_and_it_is_read_only():
    scheme = MappingScheme("robin")
    assert vars(scheme) == {"kind": "robin"}
    assert np.array_equal(scheme.perm, ROBIN.perm)
    assert set(vars(scheme)) == {"kind", "assignment", "perm"}
    assert scheme.assignment is scheme.assignment
    for name in ("assignment", "perm"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(scheme, name)[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(scheme, name, np.zeros(512, dtype=np.int64))


def test_a_scheme_pickles_by_its_kind():
    scheme = MappingScheme("robin")
    assert scheme.assignment.size == 512
    copy = pickle.loads(pickle.dumps(scheme))
    assert copy == ROBIN and hash(copy) == hash(ROBIN)
    assert vars(copy) == {"kind": "robin"}
    assert not copy.assignment.flags.writeable


def test_verify_partition_robin():
    report = verify_partition(ROBIN)
    assert report.bijective
    assert report.codeword_sizes == (64,) * 8
    assert report.max_bits_per_byte == (1,) * 8
    for row in report.bits_per_word:
        assert row == (8,) * 8
    for row in report.bits_per_position:
        assert row == (8,) * 8


def test_verify_partition_per_word():
    report = verify_partition(PER_WORD)
    assert report.bijective
    assert report.words_per_codeword == (1,) * 8
    assert report.positions_per_codeword == (8,) * 8


def test_verify_partition_interleaved():
    report = verify_partition(INTERLEAVED)
    assert report.bijective
    assert report.max_bits_per_byte == (1,) * 8
    assert report.positions_per_codeword == (1,) * 8
    assert report.bytes_per_codeword == (64,) * 8


def miscounted_table(scheme, fault):
    """A writable copy of the scheme's data lane table with one counting fault."""
    table = _lane_table((scheme,), False).copy()
    counts = table.view(np.uint8).reshape(64, 256, 8)
    if fault == "bit-in-two-codewords":
        # bit 0 of byte 0 is counted in its owner's lane and in the next one, in every value
        other = (int(np.argmax(counts[0, 1])) + 1) % 8
        counts[0, 1::2, other] += 1
    else:
        # byte 5's 0xFF entry moves a bit from its lane a to lane b, and byte k's
        # from b to a: every bit still has one lane and every codeword 64 bits
        a = int(np.argmax(counts[5, 0xFF]))
        k, b = np.argwhere(counts[:, 0xFF] * (np.arange(8) != a))[0]
        counts[5, 0xFF, a] -= 1
        counts[5, 0xFF, b] += 1
        counts[k, 0xFF, b] -= 1
        counts[k, 0xFF, a] += 1
    return table


@pytest.mark.parametrize("fault", ("bit-in-two-codewords", "byte-lanes-do-not-add-up"))
@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.kind)
def test_verify_partition_reads_the_kernels_lane_table(monkeypatch, scheme, fault):
    # a fault in the table scheme_counts counts with fails the partition check
    assert verify_partition(scheme).bijective
    table = miscounted_table(scheme, fault)
    monkeypatch.setattr(mapping, "_lane_table", lambda schemes, check: table)
    report = verify_partition(scheme)
    assert not report.bijective
    assert (sum(report.codeword_sizes) == 513) == (fault == "bit-in-two-codewords")


def test_scheme_geometry_rejected():
    with pytest.raises(InvalidSchemeError):
        MappingScheme("hamming-ish")


@pytest.mark.parametrize("include_ecc", (False, True), ids=("data", "ecc"))
@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.kind)
def test_codeword_counts_match_per_bit_oracle(scheme, include_ecc):
    rng = np.random.default_rng(2024)
    olds = rng.integers(0, 256, (24, 64), dtype=np.uint8)
    # flip densities from none to every bit, so sparse and saturated writes are both covered
    density = np.linspace(0.0, 1.0, len(olds))[:, None]
    flips = np.packbits(rng.random((len(olds), 512)) < density, axis=1, bitorder="little")
    news = olds ^ flips
    data, cells = scheme_counts((scheme,), olds ^ news, include_ecc)
    assert data.dtype == cells.dtype == np.uint8
    assert data.shape == cells.shape == (len(olds), 1, 8)
    data, cells = data[:, 0], cells[:, 0]
    if not include_ecc:
        assert np.array_equal(cells, data)
    for i, (old, new) in enumerate(zip(olds, news)):
        want_data, want_check = oracle.flip_counts(scheme.kind, old.tobytes(), new.tobytes(), True)
        assert data[i].tolist() == want_data
        assert (cells[i] - data[i]).tolist() == (want_check if include_ecc else [0] * 8)
        assert transition_vector(scheme, old.tobytes(), new.tobytes(), include_ecc) == tuple(cells[i].tolist())


def test_codeword_counts_takes_byte_xor_only():
    # from one row up, either side of 16 rows where the one-scheme count once
    # changed route, through one scheme, through two and through check_words
    for n in (1, 15, 16, BATCH):
        for shape, dtype in (((512,), np.uint8), ((63,), np.uint8), ((64,), bool), ((64,), np.int64)):
            diff = np.zeros((n, *shape), dtype=dtype)
            for include_ecc in (False, True):
                with pytest.raises(ValueError, match=r"payloads must be \(n, 64\) uint8"):
                    scheme_counts((ROBIN,), diff, include_ecc)
                with pytest.raises(ValueError, match=r"payloads must be \(n, 64\) uint8"):
                    scheme_counts((ROBIN, PER_WORD), diff, include_ecc)
            with pytest.raises(ValueError, match=r"payloads must be \(n, 64\) uint8"):
                check_words(ROBIN, diff)
    empty = np.zeros((0, 64), dtype=np.uint8)
    data, cells = scheme_counts((ROBIN,), empty)
    assert data.shape == cells.shape == (0, 1, 8)
    words = check_words(ROBIN, empty)
    assert words.shape == (0,) and words.dtype == np.dtype("<u8")
    data, cells = scheme_counts((ROBIN, PER_WORD), empty)
    assert data.shape == cells.shape == (0, 2, 8)


def test_scheme_counts_needs_a_scheme():
    misses = _lane_table.cache_info().misses
    for include_ecc in (False, True):
        with pytest.raises(ValueError, match="at least one scheme"):
            scheme_counts((), np.zeros((4, 64), dtype=np.uint8), include_ecc)
    assert _lane_table.cache_info().misses == misses


def test_check_table_built_only_when_check_bits_count():
    diff = np.random.default_rng(3).integers(0, 256, (40, 64), dtype=np.uint8)
    _lane_table.cache_clear()
    data, cells = scheme_counts(SCHEMES, diff, include_ecc=False)
    assert cells is data
    # the data table alone, also on a second ECC-off call
    scheme_counts((ROBIN,), diff, include_ecc=False)
    scheme_counts(SCHEMES, diff, include_ecc=False)
    assert _lane_table.cache_info().currsize == 2
    _, with_check = scheme_counts(SCHEMES, diff, include_ecc=True)
    assert _lane_table.cache_info().currsize == 3
    assert (with_check >= data).all() and (with_check > data).any()


def test_transition_vector_is_a_row_of_eight_ints():
    rng = np.random.default_rng(8)
    old, new = (rng.integers(0, 256, 64, dtype=np.uint8).tobytes() for _ in range(2))
    for scheme in SCHEMES:
        for include_ecc in (False, True):
            row = transition_vector(scheme, old, new, include_ecc)
            assert type(row) is tuple and len(row) == 8 and all(type(k) is int for k in row)
            diff = (block_bytes(old) ^ block_bytes(new))[None]
            assert row == tuple(scheme_counts((scheme,), diff, include_ecc)[1][0, 0].tolist())


def test_transition_vector_encodes_its_eight_datawords_once(monkeypatch):
    # the per-write benchmark times secded.encode_words, looked up at call time
    calls = []
    encode_words = secded.encode_words
    monkeypatch.setattr(secded, "encode_words", lambda words: calls.append(words) or encode_words(words))
    rng = np.random.default_rng(9)
    old, new = (rng.integers(0, 256, 64, dtype=np.uint8).tobytes() for _ in range(2))
    for scheme in SCHEMES:
        calls.clear()
        row = transition_vector(scheme, old, new, include_ecc=True)
        assert len(calls) == 1 and calls[0].shape == (8,)
        assert calls[0].tolist() == datawords(scheme, bytes(a ^ b for a, b in zip(old, new))).tolist()
        calls.clear()
        assert sum(transition_vector(scheme, old, new, include_ecc=False)) < sum(row)
        assert calls == []


@pytest.mark.parametrize("include_ecc", (False, True), ids=("data", "ecc"))
@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.kind)
def test_transition_vector_matches_the_kernel_on_every_single_byte_diff(scheme, include_ecc):
    # every value at every byte reaches each bit of each byte alone and in every
    # combination, so a wrong slot order or bit order in the one-row route shows
    old = np.random.default_rng(12).integers(1, 256, 64, dtype=np.uint8)
    values = np.arange(256, dtype=np.uint8)
    diffs = np.zeros((64, 256, 64), dtype=np.uint8)
    diffs[np.arange(64), :, np.arange(64)] = values
    diffs = diffs.reshape(-1, 64)
    _, cells = scheme_counts((scheme,), diffs, include_ecc)
    olds = old.tobytes()
    rows = [transition_vector(scheme, olds, (old ^ diff).tobytes(), include_ecc) for diff in diffs]
    assert rows == [tuple(row) for row in cells[:, 0].tolist()]


def test_transition_vector_takes_any_64_byte_buffer():
    rng = np.random.default_rng(13)
    old, new = (rng.integers(0, 256, 64, dtype=np.uint8) for _ in range(2))
    for scheme in SCHEMES:
        for include_ecc in (False, True):
            want = transition_vector(scheme, old.tobytes(), new.tobytes(), include_ecc)
            for kind in (bytes, bytearray, lambda a: memoryview(a.tobytes()), lambda a: a):
                assert transition_vector(scheme, kind(old), kind(new), include_ecc) == want
                assert transition_vector(scheme, kind(old), new.tobytes(), include_ecc) == want


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.kind)
def test_transition_vector_identical_blocks(scheme):
    block = bytes(range(64))
    assert transition_vector(scheme, block, block, include_ecc=True) == (0,) * 8


def test_transition_vector_word0_all_ones():
    old = bytes(64)
    new = bytes([0xFF] * 8 + [0] * 56)
    assert transition_vector(PER_WORD, old, new, include_ecc=False) == (64,) + (0,) * 7
    assert transition_vector(INTERLEAVED, old, new, include_ecc=False) == (8,) * 8
    # oracle: enumerate the 64 coordinates of word 0 under the robin rule
    oracle = [0] * 8
    for j in range(8):
        for pos in range(8):
            oracle[(pos - 0 - j) % 8] += 1
    assert transition_vector(ROBIN, old, new, include_ecc=False) == tuple(oracle) == (8,) * 8


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.kind)
def test_transition_vector_all_bits_flip(scheme):
    assert transition_vector(scheme, bytes(64), bytes([0xFF]) * 64, include_ecc=False) == (64,) * 8


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.kind)
def test_transition_totals_match_hamming_distance(scheme):
    rng = np.random.default_rng(11)
    for _ in range(20):
        old = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
        new = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
        hamming = int((block_to_bits(old) != block_to_bits(new)).sum())
        assert sum(transition_vector(scheme, old, new, include_ecc=False)) == hamming
        with_ecc = transition_vector(scheme, old, new, include_ecc=True)
        check_dist = 0
        for n in range(8):
            c_old = oracle.encode(int(datawords(scheme, old)[n]))
            c_new = oracle.encode(int(datawords(scheme, new)[n]))
            check_dist += bin(c_old ^ c_new).count("1")
        assert sum(with_ecc) == hamming + check_dist


@pytest.mark.parametrize("scheme", (INTERLEAVED, ROBIN), ids=lambda s: s.kind)
def test_single_word_writes_bounded(scheme):
    rng = np.random.default_rng(5)
    for _ in range(50):
        word = int(rng.integers(8))
        payload = bytearray(64)
        payload[8 * word : 8 * word + 8] = rng.integers(0, 256, 8, dtype=np.uint8).tobytes()
        assert max(transition_vector(scheme, bytes(64), bytes(payload), include_ecc=False)) <= 8


def test_datawords_slot_order():
    # flat index f set in isolation appears as slot s where oracle.codeword_bits(kind, n)[s] == f
    for scheme in SCHEMES:
        for flat in (0, 17, 100, 309, 511):
            bits = np.zeros(512, dtype=np.uint8)
            bits[flat] = 1
            block = bits_to_block(bits)
            n = scheme.assignment[flat]
            slot = oracle.codeword_bits(scheme.kind, n).index(flat)
            words = datawords(scheme, block)
            assert int(words[n]) == 1 << slot
            assert all(int(words[m]) == 0 for m in range(8) if m != n)


@pytest.mark.parametrize(
    ("payload", "size"),
    [
        (bytes(63), 63),
        (bytes(65), 65),
        # 64 items but 128 bytes; zero high bytes, then high bytes that do not fit 64 bytes
        (np.zeros(64, dtype=np.uint16), 128),
        (np.full(64, 0xFFFF, dtype=np.uint16), 128),
    ],
    ids=("63-bytes", "65-bytes", "uint16-zeros", "uint16-ones"),
)
@pytest.mark.parametrize("include_ecc", (False, True), ids=("data", "ecc"))
def test_transition_vector_rejects_payloads_that_are_not_64_bytes(payload, size, include_ecc):
    message = f"block payload must be 64 bytes, got {size}$"
    with pytest.raises(ValueError, match=message):
        transition_vector(ROBIN, payload, bytes(64), include_ecc)
    with pytest.raises(ValueError, match=message):
        transition_vector(ROBIN, bytes(64), payload, include_ecc)


codewords = st.integers(0, 7)
index8 = st.integers(0, 7)


@given(st.sampled_from(SCHEMES), codewords)
def test_every_codeword_owns_64_distinct_bits(scheme, n):
    bits = oracle.codeword_bits(scheme.kind, n)
    assert len(set(bits)) == 64
    for flat in bits:
        assert scheme.assignment[flat] == n
        assert oracle.owner(scheme.kind, flat) == n


def robin_owner(word, byte, pos):
    return owner(ROBIN, word, byte, pos)


@given(codewords, index8, index8)
def test_robin_takes_one_bit_from_every_byte(n, word, byte):
    assert [robin_owner(word, byte, pos) for pos in range(8)].count(n) == 1


@given(codewords, index8)
def test_robin_takes_eight_bits_from_every_word(n, word):
    owners = [robin_owner(word, byte, pos) for byte in range(8) for pos in range(8)]
    assert owners.count(n) == 8


@given(codewords, index8)
def test_robin_takes_every_intra_byte_position_eight_times(n, pos):
    owners = [robin_owner(word, byte, pos) for word in range(8) for byte in range(8)]
    assert owners.count(n) == 8
