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

:data:`KINDS` are the keys of one table of owner rules. A :class:`MappingScheme`
derives its layout from its kind's rule on first use: :attr:`~MappingScheme.assignment`
gives each bit's codeword, and :attr:`~MappingScheme.perm` lists the bits in slot
order. :func:`scheme_counts` is the batch kernel, valid for any assignment of
bits to codewords: each payload byte is looked up once in a data table and,
when check bits count, once in a check table, built from ``perm`` with one byte
lane per codeword of every scheme of the call; it is the one counting rule, at
every row count and scheme count. :func:`check_words` XORs a payload's check
lanes, and :func:`verify_partition` reads the partition from a scheme's data
lanes. :func:`block_datawords` and :func:`transition_vector`, one write's row
of eight ints, pack bits by the scheme's slot order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import secded
from .bits import BLOCK_BITS, BLOCK_BYTES, block_bytes

# kind -> owner rule: the codeword of bit ``pos`` of byte ``byte`` in word ``word``,
# each the inverse of its layout above
_OWNER_RULES = {
    "per-word": lambda word, byte, pos: word,
    "interleaved": lambda word, byte, pos: pos,
    "robin": lambda word, byte, pos: (pos - word - byte) % 8,
}
KINDS = tuple(_OWNER_RULES)

WORDS = 8
BITS_PER_BYTE = 8
CODEWORDS = 8
# writes per batch of trace.pair_batches and reliability.trace_error_rate;
# float sums are reduced per batch, so rates depend on it. Must stay <= 65535:
# per-bit histograms sum one batch in uint16.
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

    def __reduce__(self):
        return type(self), (self.kind,)

    @cached_property
    def assignment(self) -> np.ndarray:
        """Read-only length-512 vector mapping each flat bit index to its codeword id."""
        flats = np.arange(BLOCK_BITS)
        ids = _OWNER_RULES[self.kind](flats // 64, (flats % 64) // 8, flats % 8).astype(np.int64)
        ids.setflags(write=False)
        return ids

    @cached_property
    def perm(self) -> np.ndarray:
        """Read-only flat indices by (codeword, flat): row n of the (8, 64) reshape is codeword n's slots."""
        perm = np.argsort(self.assignment, kind="stable")
        perm.setflags(write=False)
        return perm

    @cached_property
    def _slots(self) -> np.ndarray:
        """:attr:`perm` in numpy's bit order (bit i ^ 7); writable, as take copies read-only indices."""
        return self.perm[np.arange(BLOCK_BITS) ^ 7] ^ 7


PER_WORD = MappingScheme("per-word")
INTERLEAVED = MappingScheme("interleaved")
ROBIN = MappingScheme("robin")


_BYTE_OFFSETS = (256 * np.arange(BLOCK_BYTES, dtype=np.uint16))[:, None]   # byte j's table entries


def _check_payloads(blocks: np.ndarray) -> None:
    if blocks.dtype != np.uint8 or blocks.shape[1:] != (BLOCK_BYTES,):
        raise ValueError(f"payloads must be (n, {BLOCK_BYTES}) uint8, got {blocks.shape} {blocks.dtype}")


def block_datawords(scheme: MappingScheme, blocks: np.ndarray) -> np.ndarray:
    """The ``(n, 8)`` uint64 datawords, one per codeword, of ``(n, 64)`` uint8 payloads.

    The bits are unpacked, permuted by :attr:`MappingScheme.perm` so that slot s
    of codeword n is bit 64n + s, and packed again: the slot-order definition itself.
    """
    _check_payloads(blocks)
    slots = np.unpackbits(blocks, axis=1).take(scheme._slots, axis=1)
    return np.packbits(slots, axis=1).view("<u8")


def check_words(scheme: MappingScheme, blocks: np.ndarray) -> np.ndarray:
    """The ``(n,)`` ``<u8`` check words of ``(n, 64)`` uint8 payloads, byte n codeword n's.

    Each is the XOR of its payload's 64 entries in the check table of
    :func:`scheme_counts`, not an :func:`robinsim.secded.encode_words` call.
    """
    _check_payloads(blocks)
    lanes = _lane_table((scheme,), True).take(blocks + _BYTE_OFFSETS.T).view("<u8")
    return np.bitwise_xor.reduce(lanes, axis=1)


@dataclass(frozen=True)
class PartitionReport:
    """How a scheme spreads bits over codewords, as its lane table counts them."""

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
    """The partition structure that :func:`scheme_counts` counts with, for all 512 bits.

    Read from the data lanes of the scheme's lane table: at payload byte j,
    the entry of value ``1 << pos`` counts bit ``pos`` in its codeword's lane
    and the entry of ``0xFF`` counts the whole byte. The partition is
    bijective when every bit is counted in exactly one lane, each byte's
    lanes add up, and every codeword holds 64 bits. A failing check is
    reported in the flags, never raised.
    """
    # counts[j, v, n]: the bits of value v at byte j that codeword n owns
    counts = _lane_table((scheme,), False).view(np.uint8).reshape(BLOCK_BYTES, 256, CODEWORDS)
    per_bit, per_byte = counts[:, 1 << np.arange(BITS_PER_BYTE)], counts[:, 0xFF]
    sizes = per_byte.sum(axis=0)
    bijective = bool(
        np.all(per_bit.sum(axis=2) == 1)
        and np.array_equal(per_byte, per_bit.sum(axis=1))
        and np.all(sizes == secded.DATA_BITS)
    )
    bits_per_byte = per_byte.T
    bits_per_word = per_byte.reshape(WORDS, -1, CODEWORDS).sum(axis=1).T
    bits_per_pos = per_bit.sum(axis=0).T

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


@lru_cache(maxsize=16)
def _lane_table(schemes: tuple[MappingScheme, ...], check: bool) -> np.ndarray:
    """The read-only data table of :func:`scheme_counts`, or with ``check`` its check table.

    Entry ``256 * j + v`` is one ``V(8 * lanes)`` item: a ``<u8`` per scheme,
    zero-padded to a power-of-two count, the item sizes ``np.take`` copies
    fastest. Data lane n counts the bits of value v at payload byte j that
    codeword n owns (at most 8, and 64 per block, so sums never carry);
    check lane n is the XOR of those bits' H columns. So over a payload's 64
    bytes, the XOR of a scheme's check lanes is its eight check words, byte
    n codeword n's: :func:`check_words`.
    """
    # rank[j, b, s] = 64 * codeword + slot of bit b of payload byte j under scheme s
    rank = np.argsort([scheme.perm for scheme in schemes], axis=1).T
    codeword, slot = np.divmod(rank.reshape(BLOCK_BYTES, BITS_PER_BYTE, len(schemes)), secded.DATA_BITS)
    lane = (BITS_PER_BYTE * codeword).astype(np.uint64)
    if check:
        combine, bit_value = np.bitwise_xor, np.array(secded.DATA_COLUMNS, dtype=np.uint64)[slot] << lane
    else:
        combine, bit_value = np.add, np.uint64(1) << lane
    lanes, used = 1 << (len(schemes) - 1).bit_length(), len(schemes)
    table = np.zeros((BLOCK_BYTES, 256, lanes), dtype="<u8")
    for t in range(BITS_PER_BYTE):
        # values with top bit t are those below 2**t plus bit t's contribution
        combine(table[:, : 1 << t, :used], bit_value[:, t : t + 1], out=table[:, 1 << t : 2 << t, :used])
    table = table.reshape(-1).view(f"V{8 * lanes}")
    table.setflags(write=False)
    return table


def scheme_counts(
    schemes: tuple[MappingScheme, ...], diff: np.ndarray, include_ecc: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Per-codeword flip counts of a batch of block writes under S schemes at once.

    ``diff`` is the ``(n, 64)`` uint8 XOR ``olds ^ news`` of the old and new
    payloads. Returns ``(data, cells)``, both ``(n, S, 8)`` uint8 in the
    given scheme order: ``data`` counts the data bits that flip in each
    codeword, and ``cells`` the cells a write touches, data plus check bits
    with ``include_ecc`` and ``data`` itself without. The layout only moves
    bits, so the datawords of ``old ^ new`` are the XOR of the two writes'
    datawords; since encoding is linear over GF(2), ``encode(old) ^
    encode(new) == encode(old ^ new)``, and the check bits that flip are
    those encoded from the dataword diff. The byte-major ``(64, n * lanes)``
    lookups are reduced over their outer axis: data lanes summed, check
    lanes XORed and then bit-counted.
    """
    schemes = tuple(schemes)
    if not schemes:
        raise ValueError("scheme_counts needs at least one scheme")
    _check_payloads(diff)
    table = _lane_table(schemes, False)
    # C order: each byte's row of indices is contiguous for its take
    index = np.add(diff.T, _BYTE_OFFSETS, order="C")
    shape, used = (len(diff), table.itemsize // 8, CODEWORDS), len(schemes)
    data = np.add.reduce(table.take(index).view("<u8"), axis=0).view(np.uint8).reshape(shape)[:, :used]
    if not include_ecc:
        return data, data
    check = np.bitwise_xor.reduce(_lane_table(schemes, True).take(index).view("<u8"), axis=0).view(np.uint8)
    return data, data + np.bitwise_count(check).reshape(shape)[:, :used]


def transition_vector(
    scheme: MappingScheme, old: bytes, new: bytes, include_ecc: bool = True
) -> tuple[int, ...]:
    """The cells that must flip in each codeword when `old` is overwritten by `new`.

    The eight counts of one write's ``cells`` row under :func:`scheme_counts`,
    from the diff's datawords: with ``include_ecc`` a write touches all k + r
    cells of a codeword, so the flips of the words' check bits count too.
    """
    olds, news = np.frombuffer(old, np.uint8), np.frombuffer(new, np.uint8)
    if len(olds) != BLOCK_BYTES or len(news) != BLOCK_BYTES:
        block_bytes(old), block_bytes(new)   # raises block_bytes' error for the first bad one
    words = np.packbits(np.unpackbits(olds ^ news).take(scheme._slots)).view("<u8")
    cells = np.bitwise_count(words)
    if include_ecc:
        cells += np.bitwise_count(secded.encode_words(words))
    return tuple(cells.tolist())
