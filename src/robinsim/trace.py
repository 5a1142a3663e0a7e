"""Cache-write traces: file formats, shadow store, and per-write statistics.

A trace is an ordered stream of (address, 64-byte payload) records. Two file
formats are supported:

* ``jsonl``   one JSON object per line: {"addr": "0x...", "data": "<128 hex chars>"}
* ``binary``  magic ``RBTR`` + version byte 0x01, then repeated
              [8-byte little-endian address][64-byte payload]

Old/new block pairs are derived by replaying records against a shadow store
that remembers the last payload written to each address; never-written
addresses read as all zeros. A warmup count can suppress the first records
from statistics while still updating the store.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .bits import BLOCK_BITS, BLOCK_BYTES, blocks_to_bits, stack_blocks
from .mapping import BATCH, CODEWORDS, MappingScheme, codeword_counts

TRACE_MAGIC = b"RBTR"
TRACE_VERSION = 1
_RECORD_BYTES = 8 + BLOCK_BYTES

FORMATS = ("jsonl", "binary")


class TraceFormatError(ValueError):
    """Malformed trace file; message carries the file and record index."""


@dataclass(frozen=True)
class WriteRecord:
    """One cache write: block-aligned address and the new 64-byte content."""

    addr: int
    data: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.addr < 1 << 64:
            raise ValueError(f"address out of 64-bit range: {self.addr:#x}")
        if self.addr % BLOCK_BYTES:
            raise ValueError(f"address {self.addr:#x} not aligned to {BLOCK_BYTES} bytes")
        if len(self.data) != BLOCK_BYTES:
            raise ValueError(f"payload must be {BLOCK_BYTES} bytes, got {len(self.data)}")


def detect_format(path: str | Path) -> str:
    return "jsonl" if str(path).endswith(".jsonl") else "binary"


def _check_format(fmt: str) -> str:
    if fmt not in FORMATS:
        raise TraceFormatError(f"unknown trace format {fmt!r}; expected one of {FORMATS}")
    return fmt


def load_trace(path: str | Path, fmt: str | None = None) -> Iterator[WriteRecord]:
    """Yield the records of a trace file in order.

    The format is inferred from the ``.jsonl`` suffix unless given explicitly.
    """
    fmt = _check_format(fmt or detect_format(path))
    if fmt == "jsonl":
        yield from _load_jsonl(Path(path))
    else:
        yield from _load_binary(Path(path))


def _load_jsonl(path: Path) -> Iterator[WriteRecord]:
    # read bytes and decode per line, so an undecodable byte (a ValueError) names its record
    with path.open("rb") as handle:
        lines = (line for line in handle if line.strip())
        for index, line in enumerate(lines):
            try:
                obj = json.loads(line.decode("ascii"))
                addr = int(obj["addr"], 16)
                data_hex = obj["data"]
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise TraceFormatError(f"{path}: record {index}: {exc}") from exc
            if len(data_hex) != 2 * BLOCK_BYTES:
                raise TraceFormatError(
                    f"{path}: record {index}: data must be {2 * BLOCK_BYTES} hex chars,"
                    f" got {len(data_hex)}"
                )
            try:
                record = WriteRecord(addr, bytes.fromhex(data_hex))
            except ValueError as exc:
                raise TraceFormatError(f"{path}: record {index}: {exc}") from exc
            yield record


def _load_binary(path: Path) -> Iterator[WriteRecord]:
    with path.open("rb") as handle:
        header = handle.read(len(TRACE_MAGIC) + 1)
        if header[: len(TRACE_MAGIC)] != TRACE_MAGIC:
            raise TraceFormatError(f"{path}: bad magic {header[:4]!r}, expected {TRACE_MAGIC!r}")
        if len(header) < len(TRACE_MAGIC) + 1 or header[-1] != TRACE_VERSION:
            raise TraceFormatError(f"{path}: unsupported version byte {header[4:]!r}")
        index = 0
        while True:
            chunk = handle.read(_RECORD_BYTES)
            if not chunk:
                return
            if len(chunk) != _RECORD_BYTES:
                raise TraceFormatError(
                    f"{path}: record {index}: truncated ({len(chunk)} of {_RECORD_BYTES} bytes)"
                )
            addr = int.from_bytes(chunk[:8], "little")
            try:
                record = WriteRecord(addr, chunk[8:])
            except ValueError as exc:
                raise TraceFormatError(f"{path}: record {index}: {exc}") from exc
            yield record
            index += 1


def save_trace(path: str | Path, records: Iterable[WriteRecord], fmt: str | None = None) -> int:
    """Write records to a trace file; returns the record count."""
    fmt = _check_format(fmt or detect_format(path))
    count = 0
    if fmt == "jsonl":
        with Path(path).open("w", encoding="ascii") as handle:
            for record in records:
                handle.write(json.dumps({"addr": f"0x{record.addr:x}", "data": record.data.hex()}))
                handle.write("\n")
                count += 1
    else:
        with Path(path).open("wb") as handle:
            handle.write(TRACE_MAGIC + bytes([TRACE_VERSION]))
            for record in records:
                handle.write(record.addr.to_bytes(8, "little"))
                handle.write(record.data)
                count += 1
    return count


_ZERO_BLOCK = bytes(BLOCK_BYTES)


class ShadowStore:
    """Last-written content per block address; cold addresses read as zeros."""

    def __init__(self) -> None:
        self._blocks: dict[int, bytes] = {}

    def get(self, addr: int) -> bytes:
        return self._blocks.get(addr, _ZERO_BLOCK)

    def put(self, addr: int, data: bytes) -> None:
        self._blocks[addr] = data

    def __len__(self) -> int:
        return len(self._blocks)


def old_new_pairs(
    records: Iterable[WriteRecord],
    store: ShadowStore | None = None,
    warmup: int = 0,
) -> Iterator[tuple[bytes, bytes]]:
    """Replay records against a shadow store, yielding (old, new) content pairs.

    The first ``warmup`` records update the store but are not emitted.
    """
    if warmup < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup}")
    store = store if store is not None else ShadowStore()
    for index, record in enumerate(records):
        old = store.get(record.addr)
        store.put(record.addr, record.data)
        if index >= warmup:
            yield old, record.data


def _batch_diffs(pairs: Iterable[tuple[bytes, bytes]]) -> Iterator[np.ndarray]:
    """The ``(n, 64)`` uint8 ``olds ^ news`` of each run of up to BATCH pairs."""
    pairs = iter(pairs)
    while batch := list(islice(pairs, BATCH)):
        yield stack_blocks([p[0] for p in batch]) ^ stack_blocks([p[1] for p in batch])


def per_bit_histogram(pairs: Iterable[tuple[bytes, bytes]]) -> np.ndarray:
    """Count, per flat bit position, how many writes transitioned that data bit."""
    counts = np.zeros(BLOCK_BITS, dtype=np.int64)
    for diff in _batch_diffs(pairs):
        counts += blocks_to_bits(diff).sum(axis=0, dtype=np.int64)
    return counts


@dataclass(frozen=True)
class CodewordStats:
    """Trace-level spread of per-codeword transitions, normalized to each write's mean.

    For every write with K > 0 transitions the eight counts are divided by
    K/8 (the uniform share, 100%); the per-write minimum and maximum are then
    averaged over the trace and their extremes kept.
    """

    scheme: str
    writes: int
    skipped_zero: int
    min_avg_pct: float
    max_avg_pct: float
    min_extreme_pct: float
    max_extreme_pct: float

    @property
    def gap_pct(self) -> float:
        return self.max_avg_pct - self.min_avg_pct


class StatsAccumulator:
    """Streaming accumulator behind :func:`codeword_stats`; mergeable across batches."""

    def __init__(self, scheme_kind: str) -> None:
        self.scheme_kind = scheme_kind
        self.writes = 0
        self.skipped_zero = 0
        self._min_sum = 0.0
        self._max_sum = 0.0
        self._min_extreme = float("inf")
        self._max_extreme = float("-inf")

    def add_counts(self, counts: np.ndarray) -> None:
        """Fold a (batch, 8) matrix of per-codeword transition counts."""
        counts = np.asarray(counts, dtype=np.float64)
        totals = counts.sum(axis=1)
        live = totals > 0
        self.skipped_zero += int(len(totals) - live.sum())
        if not live.any():
            return
        share = totals[live] / CODEWORDS
        mins = counts[live].min(axis=1) / share * 100.0
        maxs = counts[live].max(axis=1) / share * 100.0
        self.writes += int(live.sum())
        self._min_sum += float(mins.sum())
        self._max_sum += float(maxs.sum())
        self._min_extreme = min(self._min_extreme, float(mins.min()))
        self._max_extreme = max(self._max_extreme, float(maxs.max()))

    def finalize(self) -> CodewordStats:
        if self.writes == 0:
            return CodewordStats(self.scheme_kind, 0, self.skipped_zero, 0.0, 0.0, 0.0, 0.0)
        return CodewordStats(
            scheme=self.scheme_kind,
            writes=self.writes,
            skipped_zero=self.skipped_zero,
            min_avg_pct=self._min_sum / self.writes,
            max_avg_pct=self._max_sum / self.writes,
            min_extreme_pct=self._min_extreme,
            max_extreme_pct=self._max_extreme,
        )


def codeword_stats(
    pairs: Iterable[tuple[bytes, bytes]],
    scheme: MappingScheme,
    include_ecc: bool = False,
) -> CodewordStats:
    """Per-write sorted/normalized codeword transitions aggregated over a trace."""
    acc = StatsAccumulator(scheme.kind)
    for diff in _batch_diffs(pairs):
        data, check = codeword_counts(scheme, diff, include_ecc)
        acc.add_counts(data if check is None else data + check)
    return acc.finalize()
