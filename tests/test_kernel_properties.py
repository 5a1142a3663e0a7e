"""Property tests: the byte-level kernel against per-bit definitions."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from robinsim.bits import block_bytes, blocks_to_bits
from robinsim.mapping import (
    BATCH,
    INTERLEAVED,
    PER_WORD,
    ROBIN,
    _lane_table,
    block_datawords,
    scheme_counts,
    transition_vector,
)

SCHEMES = (PER_WORD, INTERLEAVED, ROBIN)
# every ordered non-empty subset of the kinds
SCHEME_TUPLES = [t for r in range(1, 4) for t in itertools.permutations(SCHEMES, r)]


def seeded_batch(n, seed, zero_row, ones_row):
    """(olds, news) of n random writes; row ``zero_row`` flips nothing, ``ones_row`` every bit.

    Each other row flips bits at its own density, from none to every bit.
    """
    rng = np.random.default_rng(seed)
    olds = rng.integers(0, 256, (n, 64), dtype=np.uint8)
    density = rng.random((n, 1))
    news = olds ^ np.packbits(rng.random((n, 512)) < density, axis=1, bitorder="little")
    news[zero_row] = olds[zero_row]
    news[ones_row] = ~olds[ones_row]
    return olds, news


@st.composite
def write_batches(draw, rows):
    """A :func:`seeded_batch` of a number of writes drawn from ``rows``, at least 1.

    The rows come from a drawn seed, since hypothesis buffers cannot hold
    hundreds of blocks. A single row is the all-ones one.
    """
    n = draw(rows)
    seed = draw(st.integers(0, 2**32 - 1))
    zero_row = draw(st.integers(0, n - 1))
    ones_row = (zero_row + draw(st.integers(1, max(1, n - 1)))) % n
    return seeded_batch(n, seed, zero_row, ones_row)


@settings(max_examples=12, deadline=None)
@given(write_batches(st.integers(1, BATCH + 40)))
@example(seeded_batch(BATCH + 40, 0, 0, BATCH))
# one row, and either side of 16 rows, where the one-scheme count once changed route
@example(seeded_batch(1, 1, 0, 0))
@example(seeded_batch(15, 6, 0, 14))
@example(seeded_batch(16, 7, 15, 0))
@example(seeded_batch(17, 8, 1, 16))
def test_codeword_counts_match_per_bit_oracle(batch):
    olds, news = batch
    for scheme in SCHEMES:
        data, cells = scheme_counts((scheme,), olds ^ news, include_ecc=True)
        data_only, data_cells = scheme_counts((scheme,), olds ^ news, include_ecc=False)
        for counts in (data, cells, data_only, data_cells):
            assert counts.dtype == np.uint8 and counts.shape == (len(olds), 1, 8)
        data, cells, data_only, data_cells = (counts[:, 0] for counts in (data, cells, data_only, data_cells))
        assert np.array_equal(data, data_only)
        # without ECC a write touches only its data cells
        assert np.array_equal(data_cells, data_only)
        for i, (old, new) in enumerate(zip(olds, news)):
            want_data, want_check = oracle.flip_counts(scheme.kind, old.tobytes(), new.tobytes(), True)
            assert data[i].tolist() == want_data
            assert (cells[i] - data[i]).tolist() == want_check


@settings(max_examples=8, deadline=None)
@given(write_batches(st.sampled_from([1, 15, 16, 17, BATCH])))
@example(seeded_batch(BATCH, 9, BATCH - 1, 0))
def test_scheme_counts_match_codeword_counts_and_oracle(batch):
    olds, news = batch
    diff = olds ^ news
    want = {}
    for scheme in SCHEMES:
        rows = [oracle.flip_counts(scheme.kind, old.tobytes(), new.tobytes(), True) for old, new in zip(olds, news)]
        want[scheme] = np.array([data for data, _ in rows]), np.array([check for _, check in rows])
    for schemes in SCHEME_TUPLES:
        for include_ecc in (False, True):
            data, cells = scheme_counts(schemes, diff, include_ecc)
            assert data.dtype == cells.dtype == np.uint8
            assert data.shape == cells.shape == (len(diff), len(schemes), 8)
            for s, scheme in enumerate(schemes):
                want_data, want_check = want[scheme]
                assert np.array_equal(data[:, s], want_data)
                assert np.array_equal(cells[:, s], want_data + want_check if include_ecc else want_data)
                # a scheme's counts do not depend on the other schemes of the call
                one_data, one_cells = scheme_counts((scheme,), diff, include_ecc)
                assert np.array_equal(data[:, s], one_data[:, 0]) and np.array_equal(cells[:, s], one_cells[:, 0])


@pytest.mark.parametrize("schemes", SCHEME_TUPLES, ids=lambda t: ",".join(s.kind for s in t))
def test_lane_tables_are_read_only(schemes):
    scheme_counts(schemes, np.zeros((1, 64), dtype=np.uint8))
    for table in (_lane_table(schemes, check) for check in (False, True)):
        # one uint64 per scheme, padded to a power of two
        assert table.shape == (64 * 256,) and table.dtype.itemsize in {8 * len(schemes), 32}
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[:1] = table[1:2]


def slot_datawords(scheme, bits):
    """Dataword n of each row: slot s holds flat bit ``oracle.codeword_bits(kind, n)[s]``."""
    return [
        [sum(int(row[flat]) << s for s, flat in enumerate(oracle.codeword_bits(scheme.kind, n))) for n in range(8)]
        for row in bits
    ]


EMPTY_BATCH = (np.zeros((0, 64), dtype=np.uint8),) * 2
# neither is C-contiguous: every other column of a wider array, and a Fortran-ordered copy
STRIDED_BATCH = tuple(half.repeat(2, axis=1)[:, ::2] for half in seeded_batch(7, 2, 0, 1))
FORTRAN_BATCH = tuple(np.asfortranarray(half) for half in seeded_batch(9, 3, 2, 5))


@settings(max_examples=25, deadline=None)
@given(write_batches(st.integers(1, 40)))
@example(EMPTY_BATCH)
@example(seeded_batch(1, 1, 0, 0))
@example(STRIDED_BATCH)
@example(FORTRAN_BATCH)
def test_datawords_match_slot_definition(batch):
    _, news = batch
    bits = blocks_to_bits(news)
    for scheme in SCHEMES:
        want = slot_datawords(scheme, bits)
        got = block_datawords(scheme, news)
        assert got.shape == (len(news), 8) and got.dtype == np.uint64
        assert got.tolist() == want
        for row, words in zip(news, want):
            assert block_datawords(scheme, block_bytes(row.tobytes())[None])[0].tolist() == words


payloads = st.binary(min_size=64, max_size=64)
ZERO, ONES = bytes(64), b"\xff" * 64


@settings(max_examples=40, deadline=None)
@given(payloads, payloads)
# the zero diff and the all-ones diff, from a blank and from a patterned block
@example(ZERO, ZERO)
@example(bytes(range(64)), bytes(range(64)))
@example(ZERO, ONES)
@example(bytes(range(64)), bytes(255 - b for b in range(64)))
def test_transition_vector_matches_batch_kernel_and_oracle(old, new):
    diff = np.frombuffer(old, dtype=np.uint8) ^ np.frombuffer(new, dtype=np.uint8)
    for scheme in SCHEMES:
        want_data, want_check = oracle.flip_counts(scheme.kind, old, new, True)
        for include_ecc in (False, True):
            data, cells = (counts[:, 0] for counts in scheme_counts((scheme,), diff[None], include_ecc))
            assert data.dtype == cells.dtype == np.uint8 and data.shape == cells.shape == (1, 8)
            assert data[0].tolist() == want_data
            assert (cells - data)[0].tolist() == (want_check if include_ecc else [0] * 8)
            assert transition_vector(scheme, old, new, include_ecc) == tuple(cells[0].tolist())
