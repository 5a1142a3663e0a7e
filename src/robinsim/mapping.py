"""Static bit-to-codeword partitioning schemes for 512-bit cache blocks.

A 64-byte block is eight 64-bit words, each word eight bytes; a write is
protected by eight SEC-DED(72, 64) codewords. The scheme decides which
codeword owns each data bit:

* ``per-word``     codeword n owns the 64 bits of word n (eight consecutive bytes)
* ``interleaved``  codeword n owns the bit in intra-byte position n of every byte
* ``robin``        codeword n owns bit position (i + j + n) mod 8 of byte j in
                   word i: one bit from every byte, eight from every word, and
                   every bit position exactly eight times

Bit addressing follows :mod:`robinsim.bits`: ``flat = 64*word + 8*byte + pos``.
Inside a codeword, data bits are ordered by ascending flat index; that order
defines the dataword slots fed to the codec, so check bits are bit-exact
functions of the scheme.

All three layouts are byte-structured: the 64 bits of word i land in eight
bytes of the datawords. :func:`block_datawords` therefore builds datawords
from payload bytes with one lookup per byte and one fixed byte gather, never
touching single bits. :func:`codeword_counts` is the one place that counts,
for a batch of writes, how many cells of each codeword must flip;
:func:`transition_vector` is its one-write wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import secded
from .bits import BLOCK_BITS, BLOCK_BYTES, block_bytes

KINDS = ("per-word", "interleaved", "robin")

WORDS = 8
BYTES_PER_WORD = 8
BITS_PER_BYTE = 8
CODEWORDS = 8
DATAWORD_BITS = 64
# writes per codeword_counts call on the batch paths; float sums are reduced
# per batch, so rates depend on it
BATCH = 512


class InvalidSchemeError(ValueError):
    """Scheme kind outside :data:`KINDS`."""


@dataclass(frozen=True)
class MappingScheme:
    """One of the three partitioning schemes of the 8-word, 8-byte, 8-bit block."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidSchemeError(f"unknown scheme kind {self.kind!r}; expected one of {KINDS}")


PER_WORD = MappingScheme("per-word")
INTERLEAVED = MappingScheme("interleaved")
ROBIN = MappingScheme("robin")


@dataclass(frozen=True)
class BitCoordinate:
    """(word, byte, pos) address of one data bit; bijective with the flat index."""

    word: int
    byte: int
    pos: int

    def __post_init__(self) -> None:
        if not (0 <= self.word < WORDS and 0 <= self.byte < BYTES_PER_WORD and 0 <= self.pos < BITS_PER_BYTE):
            raise ValueError(f"coordinate out of range: word={self.word} byte={self.byte} pos={self.pos}")

    @property
    def flat(self) -> int:
        return 64 * self.word + 8 * self.byte + self.pos

    @classmethod
    def from_flat(cls, flat: int) -> "BitCoordinate":
        if not 0 <= flat < BLOCK_BITS:
            raise ValueError(f"flat index out of range: {flat}")
        return cls(flat // 64, (flat % 64) // 8, flat % 8)


@lru_cache(maxsize=None)
def scheme_assignment(scheme: MappingScheme) -> np.ndarray:
    """Length-512 vector mapping each flat bit index to its codeword id."""
    flats = np.arange(BLOCK_BITS)
    word = flats // 64
    byte = (flats % 64) // 8
    pos = flats % 8
    if scheme.kind == "per-word":
        ids = word
    elif scheme.kind == "interleaved":
        ids = pos
    else:
        # robin: inverse of "codeword n owns position (i + j + n) mod 8 of byte j in word i"
        ids = (pos - word - byte) % 8
    ids = ids.astype(np.int64)
    ids.setflags(write=False)
    return ids


def map_bit(scheme: MappingScheme, coord: BitCoordinate) -> int:
    """Codeword id in [0, 8) that owns the given data bit."""
    return int(scheme_assignment(scheme)[coord.flat])


@lru_cache(maxsize=None)
def scheme_perm(scheme: MappingScheme) -> np.ndarray:
    """Flat indices sorted by (codeword, flat): row n of the (8, 64) reshape is codeword n's slots."""
    perm = np.argsort(scheme_assignment(scheme), kind="stable")
    perm.setflags(write=False)
    return perm


def codeword_data_bits(scheme: MappingScheme, n: int) -> list[int]:
    """The 64 flat indices of codeword n's data bits, in dataword slot order."""
    if not 0 <= n < CODEWORDS:
        raise ValueError(f"codeword id out of range: {n}")
    return scheme_perm(scheme).reshape(CODEWORDS, DATAWORD_BITS)[n].tolist()


@lru_cache(maxsize=None)
def _byte_tables(scheme: MappingScheme) -> tuple[np.ndarray, np.ndarray]:
    """The byte lookup table and the 64-byte gather of :func:`block_datawords`.

    Bit ``flat`` lands at bit ``rank % 8`` of dataword byte ``rank // 8``,
    where ``rank = 64 * codeword + slot``. Word i's bits fill eight dataword
    bytes, which become, in ascending order, the eight byte lanes of word i's
    uint64. Row j of the (64, 256) table, returned flattened, maps each value
    of payload byte j to its bits placed in those lanes; ``gather[b]`` is the
    lane byte that holds dataword byte b.
    """
    rank = np.empty(BLOCK_BITS, dtype=np.int64)
    rank[scheme_perm(scheme)] = np.arange(BLOCK_BITS)
    out_byte, out_bit = np.divmod(rank, BITS_PER_BYTE)
    word_fills = np.zeros((WORDS, BLOCK_BYTES), dtype=bool)
    word_fills[np.arange(BLOCK_BITS) // DATAWORD_BITS, out_byte] = True
    # row-major, so word i's eight dataword bytes, ascending, become lanes 8i .. 8i+7
    gather = np.empty(BLOCK_BYTES, dtype=np.intp)
    gather[np.nonzero(word_fills)[1]] = np.arange(BLOCK_BYTES)
    lane = gather[out_byte] % BYTES_PER_WORD
    bit_value = np.uint64(1) << (BITS_PER_BYTE * lane + out_bit).astype(np.uint64)
    bit_value = bit_value.reshape(BLOCK_BYTES, BITS_PER_BYTE)
    table = np.zeros((BLOCK_BYTES, 256), dtype="<u8")
    for t in range(BITS_PER_BYTE):
        # values with top bit t are those below 2**t plus bit t's contribution
        np.bitwise_or(table[:, : 1 << t], bit_value[:, t : t + 1], out=table[:, 1 << t : 2 << t])
    table = table.ravel()
    table.setflags(write=False)
    gather.setflags(write=False)
    return table, gather


# offset of each payload byte's row in the flattened table
_TABLE_ROWS = 256 * np.arange(BLOCK_BYTES, dtype=np.intp)
# payloads looked up per step, so each temporary stays at 64 KB
_LOOKUP_ROWS = 128


def block_datawords(scheme: MappingScheme, blocks: np.ndarray) -> np.ndarray:
    """The ``(n, 8)`` uint64 datawords, one per codeword, of ``(n, 64)`` uint8 payloads."""
    if blocks.dtype != np.uint8 or blocks.shape[1:] != (BLOCK_BYTES,):
        raise ValueError(f"payloads must be (n, {BLOCK_BYTES}) uint8, got {blocks.shape} {blocks.dtype}")
    table, gather = _byte_tables(scheme)
    lanes = np.empty((len(blocks), WORDS), dtype="<u8")
    for start in range(0, len(blocks), _LOOKUP_ROWS):
        rows = blocks[start : start + _LOOKUP_ROWS]
        parts = np.take(table, rows + _TABLE_ROWS).reshape(len(rows), WORDS, BYTES_PER_WORD)
        np.bitwise_or.reduce(parts, axis=2, out=lanes[start : start + _LOOKUP_ROWS])
    return np.take(lanes.view(np.uint8), gather, axis=1).view("<u8")


def datawords(scheme: MappingScheme, data: bytes) -> np.ndarray:
    """Extract the eight 64-bit datawords of a block, one uint64 per codeword."""
    return block_datawords(scheme, block_bytes(data)[None])[0]


@dataclass(frozen=True)
class PartitionReport:
    """Enumeration-derived summary of how a scheme spreads bits over codewords."""

    kind: str
    bijective: bool
    codeword_sizes: tuple[int, ...]
    words_per_codeword: tuple[int, ...]
    bytes_per_codeword: tuple[int, ...]
    positions_per_codeword: tuple[int, ...]
    bits_per_word: tuple[tuple[int, ...], ...]
    bits_per_position: tuple[tuple[int, ...], ...]
    max_bits_per_byte: tuple[int, ...]

    def describe(self) -> str:
        lines = [
            f"scheme: {self.kind}",
            f"bijective 8x64 partition: {'yes' if self.bijective else 'NO'}",
            f"data bits per codeword: {list(self.codeword_sizes)}",
            f"distinct words per codeword: {list(self.words_per_codeword)}",
            f"distinct bytes per codeword: {list(self.bytes_per_codeword)}",
            f"distinct bit positions per codeword: {list(self.positions_per_codeword)}",
            f"max bits drawn from any single byte: {list(self.max_bits_per_byte)}",
        ]
        return "\n".join(lines)


def verify_partition(scheme: MappingScheme) -> PartitionReport:
    """Exhaustively enumerate all 512 bits and report the partition structure.

    A failing check is reported in the flags, never raised.
    """
    ids = scheme_assignment(scheme)
    sizes = np.bincount(ids, minlength=CODEWORDS)
    bijective = bool(len(ids) == BLOCK_BITS and np.all(sizes == DATAWORD_BITS))

    flats = np.arange(BLOCK_BITS)
    word = flats // 64
    byte = flats // 8
    pos = flats % 8

    bits_per_word = np.zeros((CODEWORDS, WORDS), dtype=np.int64)
    bits_per_pos = np.zeros((CODEWORDS, BITS_PER_BYTE), dtype=np.int64)
    bits_per_byte = np.zeros((CODEWORDS, 64), dtype=np.int64)
    np.add.at(bits_per_word, (ids, word), 1)
    np.add.at(bits_per_pos, (ids, pos), 1)
    np.add.at(bits_per_byte, (ids, byte), 1)

    to_tuples = lambda m: tuple(tuple(int(v) for v in row) for row in m)
    return PartitionReport(
        kind=scheme.kind,
        bijective=bijective,
        codeword_sizes=tuple(int(v) for v in sizes),
        words_per_codeword=tuple(int(np.count_nonzero(row)) for row in bits_per_word),
        bytes_per_codeword=tuple(int(np.count_nonzero(row)) for row in bits_per_byte),
        positions_per_codeword=tuple(int(np.count_nonzero(row)) for row in bits_per_pos),
        bits_per_word=to_tuples(bits_per_word),
        bits_per_position=to_tuples(bits_per_pos),
        max_bits_per_byte=tuple(int(row.max()) for row in bits_per_byte),
    )


@dataclass(frozen=True)
class TransitionVector:
    """Per-codeword flip counts for one block write."""

    k: tuple[int, ...]
    include_ecc: bool = False

    def __post_init__(self) -> None:
        if len(self.k) != CODEWORDS:
            raise ValueError(f"transition vector needs {CODEWORDS} entries, got {len(self.k)}")
        cap = DATAWORD_BITS + (secded.CHECK_BITS if self.include_ecc else 0)
        for i, v in enumerate(self.k):
            if not 0 <= v <= cap:
                raise ValueError(f"k[{i}]={v} outside [0, {cap}]")

    @property
    def total(self) -> int:
        return sum(self.k)


def codeword_counts(
    scheme: MappingScheme, diff: np.ndarray, include_ecc: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-codeword flip counts of a batch of block writes.

    ``diff`` is the ``(n, 64)`` uint8 XOR of the old and new payloads,
    ``olds ^ news``. Returns the ``(n, 8)`` data-bit flip counts and, with
    ``include_ecc``, the ``(n, 8)`` check-bit flip counts (``None`` without).
    The layout only moves bits, so the datawords of ``old ^ new`` are the
    XOR of the two writes' datawords; since encoding is linear over GF(2),
    ``encode(old) ^ encode(new) == encode(old ^ new)``, and the check bits
    that flip are those encoded from the dataword diff.
    """
    words = block_datawords(scheme, diff)
    data_counts = np.bitwise_count(words).astype(np.int64)
    if not include_ecc:
        return data_counts, None
    return data_counts, np.bitwise_count(secded.encode_words(words)).astype(np.int64)


def transition_vector(
    scheme: MappingScheme, old: bytes, new: bytes, include_ecc: bool = True
) -> TransitionVector:
    """Count the bits that must flip in each codeword when `old` is overwritten by `new`.

    With ``include_ecc`` the check-bit flips are added per codeword, since a
    write touches all k+r cells of a codeword. One-write form of
    :func:`codeword_counts`.
    """
    diff = block_bytes(old) ^ block_bytes(new)
    data, check = codeword_counts(scheme, diff[None], include_ecc)
    counts = data[0] if check is None else data[0] + check[0]
    return TransitionVector(tuple(counts.tolist()), include_ecc=include_ecc)
