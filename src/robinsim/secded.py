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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

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

# syndrome value -> codeword bit it implicates (all 72 columns are distinct)
_BIT_FOR_SYNDROME = {column: bit for bit, column in enumerate(COLUMNS)}


def _byte_tables() -> list[list[int]]:
    """Check contribution of each payload byte: table[byte_pos][byte_value]."""
    table = []
    for byte_pos in range(8):
        cols = DATA_COLUMNS[8 * byte_pos : 8 * byte_pos + 8]
        row = []
        for value in range(256):
            acc = 0
            for t in range(8):
                if (value >> t) & 1:
                    acc ^= cols[t]
            row.append(acc)
        table.append(row)
    return table


_ENCODE_BYTE = _byte_tables()


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
    table = _ENCODE_BYTE
    return (
        table[0][data & 0xFF]
        ^ table[1][(data >> 8) & 0xFF]
        ^ table[2][(data >> 16) & 0xFF]
        ^ table[3][(data >> 24) & 0xFF]
        ^ table[4][(data >> 32) & 0xFF]
        ^ table[5][(data >> 40) & 0xFF]
        ^ table[6][(data >> 48) & 0xFF]
        ^ table[7][(data >> 56) & 0xFF]
    )


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
    bit = _BIT_FOR_SYNDROME.get(s)
    if bit is None:
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


@lru_cache(maxsize=None)
def _half_word_tables() -> np.ndarray:
    """(4, 65536) uint8: check contribution of each value of 16-bit half-word p (bits 16p..16p+15)."""
    byte_tables = np.array(_ENCODE_BYTE, dtype=np.uint8)
    values = np.arange(1 << 16)
    # C order, so each row is one contiguous table for take()
    tables = np.ascontiguousarray(byte_tables[0::2, values & 0xFF] ^ byte_tables[1::2, values >> 8])
    tables.setflags(write=False)
    return tables


def encode_words(words: np.ndarray) -> np.ndarray:
    """Vectorized encode: uint64 dataword array -> uint8 check words of the same shape.

    As with numpy ufuncs, a 0-d input gives a numpy scalar.
    """
    shape = np.shape(words)   # ascontiguousarray makes a 0-d array 1-d
    halves = np.ascontiguousarray(words, dtype="<u8").view("<u2").reshape(shape + (4,))
    tables = _half_word_tables()
    check = tables[0].take(halves[..., 0])
    for half in range(1, 4):
        check ^= tables[half].take(halves[..., half])
    return check
