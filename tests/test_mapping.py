import numpy as np
import pytest

import oracle
from robinsim import secded
from robinsim.bits import bits_to_block, block_to_bits
from robinsim.mapping import (
    INTERLEAVED,
    PER_WORD,
    ROBIN,
    BitCoordinate,
    InvalidSchemeError,
    MappingScheme,
    codeword_counts,
    codeword_data_bits,
    datawords,
    map_bit,
    transition_vector,
    verify_partition,
)

SCHEMES = (PER_WORD, INTERLEAVED, ROBIN)


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
    assert map_bit(ROBIN, BitCoordinate(0, 0, 0)) == 0
    assert map_bit(ROBIN, BitCoordinate(1, 2, 3)) == 0
    assert map_bit(PER_WORD, BitCoordinate.from_flat(100)) == 1
    assert map_bit(INTERLEAVED, BitCoordinate.from_flat(100)) == 4


def test_robin_matches_forward_enumeration():
    oracle = robin_forward_assignment()
    for flat, expected in oracle.items():
        assert map_bit(ROBIN, BitCoordinate.from_flat(flat)) == expected


def test_flat_coordinate_roundtrip():
    for flat in range(512):
        coord = BitCoordinate.from_flat(flat)
        assert coord.flat == flat
        assert 64 * coord.word + 8 * coord.byte + coord.pos == flat


def test_coordinate_validation():
    with pytest.raises(ValueError):
        BitCoordinate(8, 0, 0)
    with pytest.raises(ValueError):
        BitCoordinate(0, -1, 0)
    with pytest.raises(ValueError):
        BitCoordinate.from_flat(512)


def test_codeword_data_bits_reference_points():
    assert codeword_data_bits(PER_WORD, 0) == list(range(64))
    assert codeword_data_bits(PER_WORD, 3) == list(range(192, 256))
    assert codeword_data_bits(INTERLEAVED, 0) == list(range(0, 512, 8))
    robin0 = codeword_data_bits(ROBIN, 0)
    assert len(robin0) == 64
    # exactly one bit from each of the 64 bytes
    assert sorted(flat // 8 for flat in robin0) == list(range(64))
    oracle = sorted(f for f, n in robin_forward_assignment().items() if n == 0)
    assert robin0 == oracle


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.kind)
def test_partition_property(scheme):
    seen = []
    for n in range(8):
        bits = codeword_data_bits(scheme, n)
        assert len(bits) == 64
        assert bits == sorted(bits)
        seen.extend(bits)
    assert sorted(seen) == list(range(512))


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.kind)
def test_map_bit_roundtrip_with_codeword_data_bits(scheme):
    for n in range(8):
        for flat in codeword_data_bits(scheme, n):
            assert map_bit(scheme, BitCoordinate.from_flat(flat)) == n


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
    data, check = codeword_counts(scheme, olds ^ news, include_ecc)
    assert data.shape == (len(olds), 8)
    assert (check is None) == (not include_ecc)
    for i, (old, new) in enumerate(zip(olds, news)):
        want_data, want_check = oracle.flip_counts(scheme.kind, old.tobytes(), new.tobytes(), include_ecc)
        assert data[i].tolist() == want_data
        if include_ecc:
            assert check[i].tolist() == want_check


def test_codeword_counts_takes_byte_xor_only():
    with pytest.raises(ValueError, match="uint8"):
        codeword_counts(ROBIN, np.zeros((2, 512), dtype=np.uint8))
    with pytest.raises(ValueError, match="uint8"):
        codeword_counts(ROBIN, np.zeros((2, 64), dtype=bool))
    data, check = codeword_counts(ROBIN, np.zeros((0, 64), dtype=np.uint8))
    assert data.shape == check.shape == (0, 8)


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.kind)
def test_transition_vector_identical_blocks(scheme):
    block = bytes(range(64))
    tv = transition_vector(scheme, block, block, include_ecc=True)
    assert tv.k == (0,) * 8
    assert tv.total == 0


def test_transition_vector_word0_all_ones():
    old = bytes(64)
    new = bytes([0xFF] * 8 + [0] * 56)
    assert transition_vector(PER_WORD, old, new, include_ecc=False).k == (64,) + (0,) * 7
    assert transition_vector(INTERLEAVED, old, new, include_ecc=False).k == (8,) * 8
    # oracle: enumerate the 64 coordinates of word 0 under the robin rule
    oracle = [0] * 8
    for j in range(8):
        for pos in range(8):
            oracle[(pos - 0 - j) % 8] += 1
    assert transition_vector(ROBIN, old, new, include_ecc=False).k == tuple(oracle) == (8,) * 8


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.kind)
def test_transition_vector_all_bits_flip(scheme):
    tv = transition_vector(scheme, bytes(64), bytes([0xFF]) * 64, include_ecc=False)
    assert tv.k == (64,) * 8


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.kind)
def test_transition_totals_match_hamming_distance(scheme):
    rng = np.random.default_rng(11)
    for _ in range(20):
        old = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
        new = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
        hamming = int((block_to_bits(old) != block_to_bits(new)).sum())
        assert transition_vector(scheme, old, new, include_ecc=False).total == hamming
        with_ecc = transition_vector(scheme, old, new, include_ecc=True)
        check_dist = 0
        for n in range(8):
            c_old = secded.encode(int(datawords(scheme, old)[n]))
            c_new = secded.encode(int(datawords(scheme, new)[n]))
            check_dist += bin(c_old ^ c_new).count("1")
        assert with_ecc.total == hamming + check_dist


@pytest.mark.parametrize("scheme", (INTERLEAVED, ROBIN), ids=lambda s: s.kind)
def test_single_word_writes_bounded(scheme):
    rng = np.random.default_rng(5)
    for _ in range(50):
        word = int(rng.integers(8))
        payload = bytearray(64)
        payload[8 * word : 8 * word + 8] = rng.integers(0, 256, 8, dtype=np.uint8).tobytes()
        tv = transition_vector(scheme, bytes(64), bytes(payload), include_ecc=False)
        assert max(tv.k) <= 8


def test_datawords_slot_order():
    # flat index f set in isolation appears as slot s where codeword_data_bits[n][s] == f
    for scheme in SCHEMES:
        for flat in (0, 17, 100, 309, 511):
            bits = np.zeros(512, dtype=np.uint8)
            bits[flat] = 1
            block = bits_to_block(bits)
            n = map_bit(scheme, BitCoordinate.from_flat(flat))
            slot = codeword_data_bits(scheme, n).index(flat)
            words = datawords(scheme, block)
            assert int(words[n]) == 1 << slot
            assert all(int(words[m]) == 0 for m in range(8) if m != n)


def test_transition_vector_validation():
    from robinsim.mapping import TransitionVector

    with pytest.raises(ValueError):
        TransitionVector((1, 2, 3))
    with pytest.raises(ValueError):
        TransitionVector((65,) + (0,) * 7, include_ecc=False)
    assert TransitionVector((72,) + (0,) * 7, include_ecc=True).total == 72
