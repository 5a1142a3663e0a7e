"""Property tests: the byte-level kernel against per-bit definitions."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from robinsim.bits import blocks_to_bits
from robinsim.mapping import (
    BATCH,
    INTERLEAVED,
    PER_WORD,
    ROBIN,
    block_datawords,
    codeword_counts,
    codeword_data_bits,
    datawords,
)

SCHEMES = (PER_WORD, INTERLEAVED, ROBIN)


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
def write_batches(draw, max_rows):
    """A :func:`seeded_batch` of 1 to ``max_rows`` writes.

    The rows come from a drawn seed, since hypothesis buffers cannot hold
    hundreds of blocks. A single row is the all-ones one.
    """
    n = draw(st.integers(1, max_rows))
    seed = draw(st.integers(0, 2**32 - 1))
    zero_row = draw(st.integers(0, n - 1))
    ones_row = (zero_row + draw(st.integers(1, max(1, n - 1)))) % n
    return seeded_batch(n, seed, zero_row, ones_row)


@settings(max_examples=12, deadline=None)
@given(write_batches(BATCH + 40))
@example(seeded_batch(BATCH + 40, 0, 0, BATCH))
def test_codeword_counts_match_per_bit_oracle(batch):
    olds, news = batch
    for scheme in SCHEMES:
        data, check = codeword_counts(scheme, olds ^ news, include_ecc=True)
        data_only, none = codeword_counts(scheme, olds ^ news, include_ecc=False)
        assert none is None
        assert np.array_equal(data, data_only)
        for i, (old, new) in enumerate(zip(olds, news)):
            want_data, want_check = oracle.flip_counts(scheme.kind, old.tobytes(), new.tobytes(), True)
            assert data[i].tolist() == want_data
            assert check[i].tolist() == want_check


def slot_datawords(scheme, bits):
    """Dataword n of each row: slot s holds flat bit ``codeword_data_bits(scheme, n)[s]``."""
    return [
        [sum(int(row[flat]) << s for s, flat in enumerate(codeword_data_bits(scheme, n))) for n in range(8)]
        for row in bits
    ]


@settings(max_examples=25, deadline=None)
@given(write_batches(40))
def test_datawords_match_slot_definition(batch):
    _, news = batch
    bits = blocks_to_bits(news)
    for scheme in SCHEMES:
        want = slot_datawords(scheme, bits)
        assert block_datawords(scheme, news).tolist() == want
        for row, words in zip(news, want):
            assert datawords(scheme, row.tobytes()).tolist() == words
