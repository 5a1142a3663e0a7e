"""Cache-write traces: file formats, shadow store, and per-write statistics.

A trace is an ordered stream of (address, 64-byte payload) records, each a
:class:`WriteRecord` (an immutable named tuple). Two file formats are
supported:

* ``jsonl``   one JSON object per line: {"addr": "0x...", "data": "<128 hex chars>"}.
              :func:`save_trace` writes one canonical form of that line. The
              loader reads about 256 KiB at a time, cut at the last newline,
              and decodes the block's canonical lines at once: fixed text
              checked at fixed offsets, every address and every payload
              joined into one ``unhexlify`` call each, alignment checked
              vectorized. Each other line, in its place, goes through
              ``json.loads``: a JSON object with both keys (other key order
              or spacing, uppercase hex, escapes, CRLF) is read, anything
              else is an error.
* ``binary``  magic ``RBTR`` + version byte 0x01, then repeated
              [8-byte little-endian address][64-byte payload]. The loader reads
              and validates 1024 records at a time.

Old/new block pairs are derived by replaying records against a shadow store,
a plain dict of the last payload written to each address; only
:func:`old_new_pairs` reads a never-written address, as all zeros. A warmup
count can suppress the first records from statistics while still updating
the store. :func:`pair_batches` is the one batching of a pair stream, one join
per batch. :func:`codeword_stats` folds each batch with
:class:`robinsim.reliability.TraceAccumulator`, as ``run_experiment`` does; at
``include_ecc=False`` its fixed float order makes the two agree exactly for any
set of schemes (``run_experiment`` spreads data bits even with ECC on).
"""

from __future__ import annotations

import json
import sys
from binascii import unhexlify
from itertools import chain, islice, repeat
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bits import BLOCK_BYTES, _int_setting, stack_blocks
from .mapping import BATCH, MappingScheme, scheme_counts
from .reliability import CodewordStats, TraceAccumulator, _codeword_major

TRACE_MAGIC = b"RBTR"
TRACE_VERSION = 1
_RECORD_BYTES = 8 + BLOCK_BYTES
# binary records decoded per read: a 72 KB buffer
_CHUNK_RECORDS = 1024
_BINARY_RECORD = np.dtype([("addr", "<u8"), ("data", f"V{BLOCK_BYTES}")])
# save_trace's JSONL line: _PREFIX, the address in lowercase hex, _MIDDLE, the
# payload in lowercase hex, _SUFFIX and a newline
_PREFIX, _MIDDLE, _SUFFIX = '{"addr": "0x', '", "data": "', '"}'
_PREFIX_CHARS, _MIDDLE_CHARS, _SUFFIX_CHARS = (
    np.frombuffer(text.encode(), np.uint8) for text in (_PREFIX, _MIDDLE, _SUFFIX)
)
# JSONL bytes read per step; each block is cut at its last newline. Loading
# a 16,384-line trace was fastest at 256 KiB (128 KiB to 1 MiB tried), and
# 512 KiB raised a trace-replay run's peak RSS by 2.4 MB
_JSONL_BLOCK = 1 << 18
_HEX_CHARS = 2 * BLOCK_BYTES
# a canonical line's length, newline excluded, is this plus its 1 to 16 address digits
_FIXED_CHARS = len(_PREFIX) + len(_MIDDLE) + _HEX_CHARS + len(_SUFFIX)

FORMATS = ("jsonl", "binary")


class TraceFormatError(ValueError):
    """Malformed trace file; message carries the file and record index."""


class _WriteRecordFields(NamedTuple):
    addr: int
    data: bytes


class WriteRecord(_WriteRecordFields):
    """One cache write: block-aligned address and the new 64-byte content.

    An immutable named tuple; the constructor checks both fields, and an
    integer address of another type (a numpy integer) becomes an ``int``.
    An address that is not an integer in [0, 2**64 - 1] raises ``ValueError``
    as ``address must be an integer, got <addr!r>`` or ``address must lie in
    [0, 18446744073709551615], got <addr>``.
    """

    __slots__ = ()

    def __new__(cls, addr: int, data: bytes) -> WriteRecord:
        addr = _int_setting("address", addr, 0, 2**64 - 1)
        if addr % BLOCK_BYTES:
            raise ValueError(f"address {addr:#x} not aligned to {BLOCK_BYTES} bytes")
        if len(data) != BLOCK_BYTES:
            raise ValueError(f"payload must be {BLOCK_BYTES} bytes, got {len(data)}")
        return tuple.__new__(cls, (addr, data))

    @classmethod
    def _make(cls, iterable: Iterable) -> WriteRecord:
        # through the checks, and so is _replace, which calls _make
        return cls(*iterable)


def _records(addrs: Iterable[int], datas: Iterable[bytes]) -> Iterator[WriteRecord]:
    """Records from parallel address and payload sequences, without per-record checks.

    Only for a producer that has already checked every address (aligned, in
    the 64-bit range) and every payload (64 bytes) it passes.
    """
    return map(tuple.__new__, repeat(WriteRecord), zip(addrs, datas))


def detect_format(path: str | Path) -> str:
    return "jsonl" if str(path).endswith(".jsonl") else "binary"


def _check_format(fmt: str) -> str:
    if fmt not in FORMATS:
        raise TraceFormatError(f"unknown trace format {fmt!r}; expected one of {FORMATS}")
    return fmt


def load_trace(path: str | Path, fmt: str | None = None) -> Iterator[WriteRecord]:
    """An iterator over the records of a trace file, in order.

    The format is inferred from the ``.jsonl`` suffix unless given explicitly;
    an unknown format raises at once, and the file is opened on the first
    ``next()``.
    """
    fmt = _check_format(fmt or detect_format(path))
    return (_load_jsonl if fmt == "jsonl" else _load_binary)(Path(path))


def _load_jsonl(path: Path) -> Iterator[WriteRecord]:
    with path.open("rb") as handle:
        index = 0
        for block in _line_blocks(handle):
            starts, ends, addrs, datas, others = _scan_block(block)
            canonical = _records(addrs, datas)
            done = 0  # lines of the block handled so far
            for line in others:
                yield from islice(canonical, line - done)
                index += line - done
                done = line + 1
                text = block[starts[line] : ends[line] + 1]
                if not text.strip():
                    continue
                try:
                    record = _parse_json_line(text)
                except (json.JSONDecodeError, KeyError, TypeError, ValueError, RecursionError) as exc:
                    raise TraceFormatError(f"{path}: record {index}: {exc}") from exc
                yield record
                index += 1
            yield from canonical
            index += len(starts) - done


def _line_blocks(handle: BinaryIO) -> Iterator[bytes]:
    """The file's bytes in blocks of whole lines; only the last may lack its newline."""
    pieces = []
    while chunk := handle.read(_JSONL_BLOCK):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            pieces.append(chunk[:cut])
            yield b"".join(pieces)
            pieces = [chunk[cut:]]
        else:
            pieces.append(chunk)
    if tail := b"".join(pieces):
        yield tail


def _scan_block(block: bytes) -> tuple[np.ndarray, np.ndarray, list[int], list[bytes], list[int]]:
    """A block's lines, with its canonical lines decoded at once.

    Returns the lines' start offsets, their end offsets (the newline, or the
    block's end for a last line without one), the addresses and payloads of
    the canonical lines in order, and the indices of the other lines. A line
    is canonical when its fixed text, its 1 to 16 lowercase address digits
    and its 128 lowercase payload digits are exactly where save_trace puts
    them and its address is aligned, so that it holds a valid record.
    """
    chars = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(chars == ord("\n"))
    if not len(ends) or ends[-1] != len(chars) - 1:
        ends = np.append(ends, len(chars))
    starts = np.concatenate(([0], ends[:-1] + 1))
    addr_len = ends - starts - _FIXED_CHARS
    # the lines of a canonical length; every offset read below lies inside them
    sized = np.flatnonzero((addr_len >= 1) & (addr_len <= 16))
    if not len(sized):
        return starts, ends, [], [], list(range(len(starts)))
    start, end = starts[sized], ends[sized]
    data_at = end - len(_SUFFIX) - _HEX_CHARS
    middle_at = data_at - len(_MIDDLE)
    # row i: the bytes from byte i on, as many as the payload and the suffix
    rows = sliding_window_view(chars, _HEX_CHARS + len(_SUFFIX))
    tails = rows[data_at]
    # the 16 bytes before the middle, '0' where they precede the address (those
    # before a short first address are clipped to the block's first byte)
    at = np.maximum(middle_at[:, None] + np.arange(-16, 0), 0)
    addr_chars = np.where(at >= (start + len(_PREFIX))[:, None], chars[at], ord("0"))
    data_chars = tails[:, :_HEX_CHARS]
    hexed = (
        _rows_all(rows[start, : len(_PREFIX)] == _PREFIX_CHARS)
        & _rows_all(rows[middle_at, : len(_MIDDLE)] == _MIDDLE_CHARS)
        & _rows_all(tails[:, _HEX_CHARS:] == _SUFFIX_CHARS)
        & _rows_all(_lower_hex(addr_chars))
        & _rows_all(_lower_hex(data_chars))
    )
    # drop the lines that fail, if any: none in a block save_trace wrote
    if not hexed.all():
        sized, addr_chars, data_chars = sized[hexed], addr_chars[hexed], data_chars[hexed]
    addrs = np.frombuffer(unhexlify(addr_chars.tobytes()), ">u8")
    aligned = addrs % BLOCK_BYTES == 0
    if not aligned.all():
        sized, addrs, data_chars = sized[aligned], addrs[aligned], data_chars[aligned]
    datas = np.frombuffer(unhexlify(data_chars.tobytes()), f"V{BLOCK_BYTES}")
    other = np.ones(len(starts), bool)
    other[sized] = False
    return starts, ends, addrs.tolist(), datas.tolist(), np.flatnonzero(other).tolist()


def _lower_hex(chars: np.ndarray) -> np.ndarray:
    """Whether each byte is a digit or a lowercase hex letter."""
    return ((chars - ord("0")) < 10) | ((chars - ord("a")) < 6)


def _rows_all(matches: np.ndarray) -> np.ndarray:
    """Per row, whether all of it is true; a single pass when everything is."""
    return np.ones(len(matches), bool) if matches.all() else matches.all(axis=1)


def _parse_json_line(line: bytes) -> WriteRecord:
    # decoded per line, so an undecodable byte (a ValueError) names its record; a
    # line nested too deep makes json.loads raise RecursionError
    obj = json.loads(line.decode("ascii"))
    addr, data_hex = int(obj["addr"], 16), obj["data"]
    # len() and fromhex() raise TypeError on a non-string data field
    if len(data_hex) != 2 * BLOCK_BYTES:
        raise ValueError(f"data must be {2 * BLOCK_BYTES} hex chars, got {len(data_hex)}")
    return WriteRecord(addr, bytes.fromhex(data_hex))


def _load_binary(path: Path) -> Iterator[WriteRecord]:
    with path.open("rb") as handle:
        header = handle.read(len(TRACE_MAGIC) + 1)
        if header[: len(TRACE_MAGIC)] != TRACE_MAGIC:
            raise TraceFormatError(f"{path}: bad magic {header[:4]!r}, expected {TRACE_MAGIC!r}")
        if len(header) < len(TRACE_MAGIC) + 1 or header[-1] != TRACE_VERSION:
            raise TraceFormatError(f"{path}: unsupported version byte {header[4:]!r}")
        index = 0
        while chunk := handle.read(_CHUNK_RECORDS * _RECORD_BYTES):
            # a short read ends on a whole record unless the file ends first
            while (tail := len(chunk) % _RECORD_BYTES) and (more := handle.read(_RECORD_BYTES - tail)):
                chunk += more
            rows = np.frombuffer(chunk, _BINARY_RECORD, count=len(chunk) // _RECORD_BYTES)
            misaligned = np.flatnonzero(rows["addr"] % BLOCK_BYTES)
            valid = int(misaligned[0]) if len(misaligned) else len(rows)
            yield from _records(rows["addr"][:valid].tolist(), rows["data"][:valid].tolist())
            if valid < len(rows):
                addr = int(rows["addr"][valid])
                raise TraceFormatError(
                    f"{path}: record {index + valid}: address {addr:#x} not aligned to {BLOCK_BYTES} bytes"
                )
            index += len(rows)
            if tail:
                raise TraceFormatError(
                    f"{path}: record {index}: truncated ({tail} of {_RECORD_BYTES} bytes)"
                )


def save_trace(
    path: str | Path, records: Iterable[WriteRecord | tuple[int, bytes]], fmt: str | None = None
) -> int:
    """Write records to a trace file; returns the record count.

    A record is a :class:`WriteRecord` or an ``(addr, data)`` pair; a pair
    gets the record's checks, and one that fails them raises ValueError with
    its index, so every file written loads back.
    """
    fmt = _check_format(fmt or detect_format(path))
    count = 0
    if fmt == "jsonl":
        with Path(path).open("w", encoding="ascii") as handle:
            for count, record in enumerate(records, 1):
                if type(record) is not WriteRecord:
                    record = _checked(count - 1, record)
                handle.write(f"{_PREFIX}{record.addr:x}{_MIDDLE}{record.data.hex()}{_SUFFIX}\n")
    else:
        with Path(path).open("wb") as handle:
            handle.write(TRACE_MAGIC + bytes([TRACE_VERSION]))
            for count, record in enumerate(records, 1):
                if type(record) is not WriteRecord:
                    record = _checked(count - 1, record)
                handle.write(record.addr.to_bytes(8, "little"))
                handle.write(record.data)
    return count


def _checked(index: int, record: tuple[int, bytes]) -> WriteRecord:
    """An ``(addr, data)`` pair as a WriteRecord; ValueError names its index if it fails the checks."""
    try:
        return WriteRecord(*record)
    except ValueError as exc:
        raise ValueError(f"record {index}: {exc}") from exc


_ZERO_BLOCK = bytes(BLOCK_BYTES)
# the replay store: block address -> last payload written there. old_new_pairs
# reads a cold address as zeros; the name stays for callers that pass a store
ShadowStore = dict


def old_new_pairs(
    records: Iterable[WriteRecord],
    store: dict[int, bytes] | None = None,
    warmup: int = 0,
) -> Iterator[tuple[bytes, bytes]]:
    """Replay records against a shadow store, yielding (old, new) content pairs.

    ``store`` maps each address written so far to its last payload, and an
    address it lacks reads as zeros; a store passed in is updated in place.
    The first ``warmup`` records update the store but are not emitted;
    ``warmup`` must be an integer >= 0 (numpy integers too), and any other
    raises ``ValueError`` as ``warmup must be an integer, got <value!r>`` or
    ``warmup must lie in [0, inf], got <value>``.
    """
    warmup = _int_setting("warmup", warmup, 0)
    store = {} if store is None else store
    get = store.get
    records = iter(records)
    # islice takes no stop above sys.maxsize, and no trace holds that many records
    for addr, data in islice(records, min(warmup, sys.maxsize)):
        store[addr] = data
    for addr, data in records:
        old = get(addr, _ZERO_BLOCK)
        store[addr] = data
        yield old, data


def pair_batches(pairs: Iterable[tuple[bytes, bytes]]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The ``(n, 64)`` uint8 ``olds`` and ``news`` of each run of up to BATCH pairs.

    A batch's 2n payloads are stacked by one join into an ``(n, 2, 64)``
    array, and ``olds`` and ``news`` are its two column views: read-only,
    with a row stride of 128 bytes. A batch's pairs are drawn only when the
    batch is, so at most BATCH pairs are held at a time, whatever the length
    of the stream.
    """
    pairs = iter(pairs)
    while batch := list(islice(pairs, BATCH)):
        stacked = stack_blocks(list(chain.from_iterable(batch))).reshape(len(batch), 2, BLOCK_BYTES)
        yield stacked[:, 0], stacked[:, 1]


def codeword_stats(
    pairs: Iterable[tuple[bytes, bytes]],
    scheme: MappingScheme,
    include_ecc: bool = False,
) -> CodewordStats:
    """Per-write sorted/normalized codeword transitions aggregated over a trace.

    The spread of a one-scheme :class:`robinsim.reliability.TraceAccumulator`
    over each write's cells, check bits too with ``include_ecc``, where
    ``run_experiment`` spreads data bits only; it folds no rates, so pw 1
    stands in for a p_write.
    """
    acc = TraceAccumulator(1.0)
    for olds, news in pair_batches(pairs):
        acc._fold(None, _codeword_major(scheme_counts((scheme,), olds ^ news, include_ecc)[1], 1))
    return acc.stats((scheme.kind,))[0]
