"""Bit-exact SEC-DED(72, 64) codec built on an odd-weight-column parity-check matrix.

Every column of H has odd weight, which gives the classic guarantees: a
single-bit error produces an odd-weight syndrome equal to that bit's column,
while any double-bit error produces an even-weight nonzero syndrome that
matches no column, so it is detected but never miscorrected.

The matrix is fixed and deterministic so encodings are reproducible across
implementations: check bit ``r`` owns the weight-1 column ``1 << r``; the 64
data columns are the 56 weight-3 bytes in ascending numeric order followed by
the 8 numerically smallest weight-5 bytes. Codeword bit order is data slots
0..63 then check bits 64..71; datawords and check words are plain ints with
bit ``s`` = slot ``s``.

The codec is three tables, read at call time: the check contribution of
each 16-bit quarter of a dataword, the codeword bit of each syndrome, and the
dataword and check-word masks each syndrome's correction flips.
:func:`repair_words` is the one decoder: a syndrome and three lookups.
:func:`encode_words` is the one encoder; one dataword's check word is
``int(encode_words(np.uint64(x)))``. It checks any input but a uint64 array,
and has two routes to the same check words: fewer than ``_SMALL_WORDS`` words
take one gather of all their quarters and one XOR reduction, a fixed three
numpy calls; more take one array lookup per quarter, which costs less per word.
"""

from __future__ import annotations

import numpy as np

DATA_BITS = 64
CHECK_BITS = 8
CODEWORD_BITS = DATA_BITS + CHECK_BITS


def _data_columns() -> tuple[int, ...]:
    weight3 = [v for v in range(256) if bin(v).count("1") == 3]
    weight5 = [v for v in range(256) if bin(v).count("1") == 5]
    return tuple(weight3 + weight5[:8])


DATA_COLUMNS = _data_columns()
CHECK_COLUMNS = tuple(1 << r for r in range(CHECK_BITS))
COLUMNS = DATA_COLUMNS + CHECK_COLUMNS


def _encoder_table() -> np.ndarray:
    """(4, 65536) uint8: check contribution of each value of 16-bit half-word p (bits 16p..16p+15)."""
    columns = np.array(DATA_COLUMNS, dtype=np.uint8).reshape(4, 16)
    table = np.zeros((4, 1 << 16), dtype=np.uint8)
    for t in range(16):
        # values with top bit t are those below 2**t, XOR column t
        np.bitwise_xor(table[:, : 1 << t], columns[:, t : t + 1], out=table[:, 1 << t : 2 << t])
    table.setflags(write=False)
    return table


_ENCODER = _encoder_table()
# syndrome -> the codeword bit whose column equals it, or -1 (all 72 columns are distinct)
_SYNDROME_BIT = np.full(1 << CHECK_BITS, -1, dtype=np.int8)
_SYNDROME_BIT[list(COLUMNS)] = np.arange(CODEWORD_BITS)
_SYNDROME_BIT.setflags(write=False)
# syndrome -> the dataword bit and the check bit its correction flips, 0 for a
# zero or uncorrectable syndrome (Hsiao: correction is one syndrome lookup)
_FIX_DATA = np.zeros(1 << CHECK_BITS, dtype=np.uint64)
_FIX_DATA[list(DATA_COLUMNS)] = np.uint64(1) << np.arange(DATA_BITS, dtype=np.uint64)
_FIX_DATA.setflags(write=False)
_FIX_CHECK = np.zeros(1 << CHECK_BITS, dtype=np.uint8)
_FIX_CHECK[list(CHECK_COLUMNS)] = CHECK_COLUMNS
_FIX_CHECK.setflags(write=False)
# encode_words gathers inputs of fewer words at once; the gather beat the
# per-quarter route up to 56 words, and the two took the same time at 64 to
# 96 (2-core x86-64 virtual machine)
_SMALL_WORDS = 64
# quarter p of a dataword indexes row p of the encoder table, at offset p << 16
_QUARTER_OFFSETS = np.arange(4) << 16


def encode_words(words: np.ndarray) -> np.ndarray:
    """Vectorized encode: uint64 dataword array -> uint8 check words of the same shape.

    As with numpy ufuncs, a 0-d input gives a numpy scalar. Fewer than
    ``_SMALL_WORDS`` words are encoded by one gather of every quarter, more
    by one array lookup per quarter; both give the same check words.
    Datawords other than a uint64 array must be integers in [0, 2**64) (ValueError).
    """
    if type(words) is not np.ndarray or words.dtype != np.uint64:
        words = np.asarray(_unsigned(words, np.uint64, "datawords"))
    if words.size < _SMALL_WORDS:
        quarters = words.ravel().view("<u2").reshape(-1, 4)
        checks = np.bitwise_xor.reduce(_ENCODER.take(quarters + _QUARTER_OFFSETS), axis=1)
        return checks if words.ndim == 1 else checks.reshape(words.shape)[()]
    halves = np.ascontiguousarray(words).view("<u2").reshape(words.shape + (4,))
    check = _ENCODER[0].take(halves[..., 0])
    for half in range(1, 4):
        check ^= _ENCODER[half].take(halves[..., half])
    return check


def _unsigned(values: np.ndarray, dtype: type, what: str) -> np.ndarray:
    """``values`` as a ``dtype`` array; values of another type must be integers in its range."""
    if getattr(values, "dtype", None) == dtype:
        return values
    # as objects, Python ints past int64 stay exact; a fraction or NaN leaves a nonzero % 1
    exact = np.asarray(values, dtype=object)
    if not np.all((exact >= 0) & (exact <= np.iinfo(dtype).max) & (exact % 1 == 0)):
        raise ValueError(f"{what} must be unsigned {np.iinfo(dtype).bits}-bit integers")
    return exact.astype(dtype)


def repair_words(
    data: np.ndarray, check: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decode received codewords: (syndromes, bits, data, check), each the shape of ``data``.

    ``bits`` is the codeword bit (0..63 data, 64..71 check) whose column
    equals the syndrome, or -1: a zero syndrome is a valid codeword, a nonzero
    one with bit -1 a detected, uncorrectable error. Three or more flips may
    alias to a column and be corrected at the wrong bit. The returned words
    have the correction applied. Unless already uint64 and uint8 arrays, data
    and check words must be integers in [0, 2**64) and [0, 256) (ValueError).
    """
    data = _unsigned(data, np.uint64, "datawords")
    check = _unsigned(check, np.uint8, "check words")
    syndromes = encode_words(data) ^ check
    return syndromes, _SYNDROME_BIT[syndromes], data ^ _FIX_DATA[syndromes], check ^ _FIX_CHECK[syndromes]
