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

:func:`codeword_counts` is the one place that counts, for a batch of writes,
how many cells of each codeword must flip; :func:`transition_vector` is its
one-write wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import secded
from .bits import BLOCK_BITS, block_to_bits, popcount8

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


def datawords(scheme: MappingScheme, data: bytes) -> np.ndarray:
    """Extract the eight 64-bit datawords of a block, one uint64 per codeword."""
    bits = block_to_bits(data)
    slots = bits[scheme_perm(scheme)].reshape(CODEWORDS, DATAWORD_BITS)
    return np.packbits(slots, axis=1, bitorder="little").copy().view("<u8").ravel()


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

    ``diff`` is the ``(n, 512)`` 0/1 bit matrix of ``old ^ new`` in flat bit
    order, e.g. ``blocks_to_bits(olds) != blocks_to_bits(news)``. Returns the
    ``(n, 8)`` data-bit flip counts and, with ``include_ecc``, the ``(n, 8)``
    check-bit flip counts (``None`` without). Since encoding is linear over
    GF(2), ``encode(old) ^ encode(new) == encode(old ^ new)``: the check bits
    that flip are those encoded from the dataword diff.
    """
    n = diff.shape[0]
    slots = diff[:, scheme_perm(scheme)].reshape(n, CODEWORDS, DATAWORD_BITS)
    data_counts = slots.sum(axis=2, dtype=np.int64)
    if not include_ecc:
        return data_counts, None
    words = np.packbits(slots, axis=2, bitorder="little").view("<u8").reshape(n, CODEWORDS)
    return data_counts, popcount8(secded.encode_words(words)).astype(np.int64)


def transition_vector(
    scheme: MappingScheme, old: bytes, new: bytes, include_ecc: bool = True
) -> TransitionVector:
    """Count the bits that must flip in each codeword when `old` is overwritten by `new`.

    With ``include_ecc`` the check-bit flips are added per codeword, since a
    write touches all k+r cells of a codeword. One-write form of
    :func:`codeword_counts`.
    """
    diff = block_to_bits(old) ^ block_to_bits(new)
    data, check = codeword_counts(scheme, diff[None], include_ecc)
    counts = data[0] if check is None else data[0] + check[0]
    return TransitionVector(tuple(counts.tolist()), include_ecc=include_ecc)
