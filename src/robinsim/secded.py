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

The codec is two tables, the check contribution of each 16-bit quarter of a
dataword and the codeword bit of each syndrome; the array functions and the
scalar ones index the same two, read at call time. :func:`encode_words` has
two routes to the same check words: an input of fewer than
``_SMALL_WORDS`` words is encoded one word at a time by the scalar lookups of
:func:`encode`, which costs less than numpy's per-call overhead at that size;
a larger one takes one array lookup per quarter over all its words.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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
# encode_words encodes inputs of fewer words one at a time; the two routes
# took the same time at 11 words (2-core x86-64 virtual machine)
_SMALL_WORDS = 12


class DecodeStatus(Enum):
    NO_ERROR = "no-error"
    CORRECTED = "corrected"
    UNCORRECTABLE = "detected-uncorrectable"


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of decoding one 72-bit codeword.

    ``bit_index`` is set only for CORRECTED and addresses the codeword bit
    that was repaired: 0..63 for data slots, 64..71 for check bits.
    """

    status: DecodeStatus
    bit_index: int | None = None

    @property
    def recoverable(self) -> bool:
        return self.status is not DecodeStatus.UNCORRECTABLE


def encode(data: int) -> int:
    """Compute the 8 check bits of a 64-bit dataword.

    Equivalent to the GF(2) product of the data part of H with the dataword;
    linear, so encode(a ^ b) == encode(a) ^ encode(b).
    """
    if data < 0 or data >> DATA_BITS:
        raise ValueError("dataword must be an unsigned 64-bit value")
    return _encode_ints([data])[0]


def _encode_ints(words: list[int]) -> list[int]:
    """Check words of 64-bit Python ints, by scalar lookups in the encoder table.

    A flat memoryview gives a Python int per lookup, without a numpy call per
    word; quarter p of a word indexes row p, at offset ``p << 16``.
    """
    table = _ENCODER.data.cast("B")
    return [
        table[w & 0xFFFF]
        ^ table[0x10000 | (w >> 16) & 0xFFFF]
        ^ table[0x20000 | (w >> 32) & 0xFFFF]
        ^ table[0x30000 | w >> 48]
        for w in words
    ]


def syndrome(data: int, check: int) -> int:
    """Syndrome of a received codeword; zero iff it is a valid codeword."""
    if check < 0 or check >> CHECK_BITS:
        raise ValueError("check word must be an unsigned 8-bit value")
    return encode(data) ^ check


def decode(data: int, check: int) -> DecodeOutcome:
    """Classify a received codeword.

    Zero syndrome is NO_ERROR; a syndrome matching an H column is CORRECTED at
    that column's bit; anything else is UNCORRECTABLE. Errors touching three
    or more bits may alias to a column and be reported as CORRECTED; callers
    that know the true error count must classify those separately.
    """
    s = syndrome(data, check)
    if s == 0:
        return DecodeOutcome(DecodeStatus.NO_ERROR)
    bit = int(_SYNDROME_BIT[s])
    if bit < 0:
        return DecodeOutcome(DecodeStatus.UNCORRECTABLE)
    return DecodeOutcome(DecodeStatus.CORRECTED, bit)


def repair(data: int, check: int) -> tuple[DecodeOutcome, int, int]:
    """Decode and apply any single-bit correction, returning (outcome, data, check)."""
    outcome = decode(data, check)
    if outcome.status is DecodeStatus.CORRECTED:
        if outcome.bit_index < DATA_BITS:
            data ^= 1 << outcome.bit_index
        else:
            check ^= 1 << (outcome.bit_index - DATA_BITS)
    return outcome, data, check


def encode_words(words: np.ndarray) -> np.ndarray:
    """Vectorized encode: uint64 dataword array -> uint8 check words of the same shape.

    As with numpy ufuncs, a 0-d input gives a numpy scalar. Fewer than
    ``_SMALL_WORDS`` words are encoded by :func:`encode`'s scalar lookups,
    more by one array lookup per quarter; both give the same check words.
    """
    words = np.asarray(words, dtype="<u8")
    if words.size < _SMALL_WORDS:
        checks = np.array(_encode_ints(words.ravel().tolist()), dtype=np.uint8)
        return checks if words.ndim == 1 else checks.reshape(words.shape)[()]
    halves = np.ascontiguousarray(words).view("<u2").reshape(words.shape + (4,))
    check = _ENCODER[0].take(halves[..., 0])
    for half in range(1, 4):
        check ^= _ENCODER[half].take(halves[..., half])
    return check


def repair_words(
    data: np.ndarray, check: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`repair`: (syndromes, bits, data, check), each the shape of ``data``.

    ``bits`` is the corrected codeword bit (0..63 data, 64..71 check) or -1,
    so a zero syndrome is NO_ERROR and a nonzero one with bit -1 UNCORRECTABLE.
    The returned data and check words have the correction applied.
    """
    data = np.asarray(data, dtype=np.uint64)
    check = np.asarray(check, dtype=np.uint8)
    syndromes = encode_words(data) ^ check
    bits = _SYNDROME_BIT[syndromes]
    # bit -1 is in neither part, so its masked shift amount does not matter
    in_data = (bits >= 0) & (bits < DATA_BITS)
    in_check = bits >= DATA_BITS
    fixed_data = np.left_shift(in_data, (bits & (DATA_BITS - 1)).view(np.uint8), dtype=np.uint64)
    fixed_data ^= data
    fixed_check = np.left_shift(in_check, (bits & (CHECK_BITS - 1)).view(np.uint8), dtype=np.uint8)
    fixed_check ^= check
    return syndromes, bits, fixed_data, fixed_check
