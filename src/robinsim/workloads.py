"""Synthetic write-trace generators covering four observed transition patterns.

* ``float64walk``  blocks of eight doubles nudged by a small multiplicative
                   random walk. The low mantissa churns while sign/exponent
                   stay put; values are packed big-endian so the churn lands
                   in the upper flat positions of each word. A per-word,
                   per-write jitter on the step size makes word activity
                   fluctuate the way mixed floating-point data does.
* ``narrowint32``  sixteen 32-bit fields holding narrow unsigned values
                   (magnitude < 2^width), rewritten with some probability per
                   field; activity concentrates in the low bits of each field.
* ``partialvalid`` only the first V words of a block (V drawn per address)
                   carry live float64walk data; the tail words never change.
* ``irregular``    32-bit fields rewritten with a per-address random rate and
                   fresh random content, except a few pinned top bits per
                   field, giving an irregular profile with quiet spots just
                   below each 32-bit boundary.

Streams (version 2) are reproducible bit for bit from (spec, seed) on every
machine: they use integer arithmetic only. Every random number is one output
of a counter-based splitmix64 stream (:func:`robinsim.injection.splitmix`):

* record ``r`` reads positions ``17r .. 17r+16`` of the record stream, keyed
  ``mix_seed(seed, 0)``: the address index (draw modulo ``addresses``), then
  16 payload draws;
* the first write to address index ``i`` sets up its state from positions
  ``16i .. 16i+15`` of the cold stream, keyed ``mix_seed(seed, 1)``.

A draw depends only on its position, so records are made a chunk at a time:
a chunk takes its ``(n, 17)`` draws at once, sorts its records stably by
address and resolves each address's state with segmented scans. The chunk
size does not change the stream. ``tests/oracle.py`` computes the same stream
one record at a time; it is the specification.

Field kinds: field f of a record is rewritten when the high 32 bits of its
draw lie below the field's rate threshold (rate x 2^32); the new value is the
field's pinned top bits OR the draw's low bits under the field mask. A
field's current value is the one from its latest rewrite, found by a running
maximum over the update indices within each address's segment.

Walk kinds: a word's state is an integer position on the bit patterns of the
doubles in [0.25, 8). Each write adds a step of about ``walk_scale * 2^52 *
z`` to it, where the step size's log2 carries ``walk_jitter * z'`` and z, z'
are Irwin-Hall draws with mean 0 and standard deviation 1 (range +-3). The
size is 2^x in 16.16 fixed point, capped below 2^50 (a relative step of 1/4),
with 2^frac(x) from a cubic and 17 random bits below the product's
resolution, so the low mantissa churns uniformly. Positions accumulate as an
int64 cumulative sum. Band rule: the unbounded sum is reflected at both ends
of the band (a triangle wave), so a word never leaves [0.25, 8) and never
jumps across it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .bits import BLOCK_BYTES, _int_setting
from .injection import mix_seed, splitmix
from .trace import WriteRecord, _records

_WORDS = 8
_FIELDS32 = 16
# records drawn at once; at most 1024, so a chunk's int64 walk sums (steps
# below 2^51.6 each) cannot overflow
_CHUNK = 1024
_RECORD_DRAWS = 1 + _FIELDS32   # the address, then 16 payload draws
_COLD_DRAWS = 16
# walk band: bit patterns of the doubles 0.25 <= v < 8.0, five binades
_BAND_LO = 0x3FD0000000000000
_BAND = 5 << 52
_ONE = 0x3FF0000000000000
_MAX_LOG2_STEP = (50 << 16) - 1     # 16.16 fixed point


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one synthetic workload; unused kind-specific fields are ignored.

    Integer fields must be integers (numpy integers too), stored as ``int``:
    ``records`` >= 1, ``addresses`` in [1, 2**58], ``base_addr`` block aligned
    in [0, 2**64 - 64 * addresses], ``width`` in [1, 32], ``pinned_top_bits``
    in [0, 8], and ``valid_words`` ends named by their config keys,
    ``valid_words_min`` in [1, 8] and ``valid_words_max`` in [min, 8]. Any
    other raises ``ValueError``: ``<name> must be an integer, got <value!r>``
    or ``<name> must lie in [lo, hi], got <value>``.
    """

    kind: str
    records: int
    addresses: int = 64
    base_addr: int = 0
    walk_scale: float = 2.0**-14        # typical relative step of the float walk
    walk_jitter: float = 4.0            # log2 std-dev of the per-word step size (capped at 64)
    width: int = 12                     # narrowint32: significant low bits per field
    update_rate: float = 0.6            # narrowint32: per-field rewrite probability
    valid_words: tuple[int, int] = (1, 8)   # partialvalid: inclusive range of live words
    pinned_top_bits: int = 3            # irregular: constant high bits per field

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown workload kind {self.kind!r}; expected one of {KINDS}")
        # as ints, a numpy integer gives the stream of its value; 2**58 blocks of
        # 64 bytes fill the 64-bit address space
        for name, lo, hi in (("records", 1, math.inf), ("addresses", 1, 2**58), ("width", 1, 32),
                             ("pinned_top_bits", 0, 8)):
            object.__setattr__(self, name, _int_setting(name, getattr(self, name), lo, hi))
        base = _int_setting("base_addr", self.base_addr, 0, 2**64 - BLOCK_BYTES * self.addresses)
        if base % BLOCK_BYTES:
            raise ValueError(f"base address {base:#x} not block aligned")
        object.__setattr__(self, "base_addr", base)
        lo, hi = self.valid_words
        lo = _int_setting("valid_words_min", lo, 1, _WORDS)
        object.__setattr__(self, "valid_words", (lo, _int_setting("valid_words_max", hi, lo, _WORDS)))
        if not 0.0 < self.walk_scale < 1.0:
            raise ValueError(f"walk_scale must lie in (0, 1), got {self.walk_scale}")
        if not 0 <= self.walk_jitter < math.inf:
            raise ValueError(f"walk_jitter must be non-negative and finite, got {self.walk_jitter}")
        if not 0.0 < self.update_rate <= 1.0:
            raise ValueError(f"update_rate must lie in (0, 1], got {self.update_rate}")


def gen_workload(spec: WorkloadSpec, seed: int) -> Iterator[WriteRecord]:
    """Deterministic stream of ``spec.records`` write records.

    Each record picks an address; a cold address first draws its state once,
    then every write advances that state and stores its payload. The seed
    must be an integer (numpy integers too) in [0, 2**64 - 1]; any other
    raises ``ValueError`` here, before any record is drawn: ``seed must be an
    integer, got <seed!r>`` or ``seed must lie in [0, 18446744073709551615],
    got <seed>``.
    """
    # seeds are mixed modulo 2**64, so a larger one would alias a smaller one
    return _stream(spec, _int_setting("seed", seed, 0, 2**64 - 1))


def _stream(spec: WorkloadSpec, seed: int) -> Iterator[WriteRecord]:
    cold, step = _KIND_RULES[spec.kind]
    record_key, cold_key = mix_seed(seed, 0), mix_seed(seed, 1)
    rows: dict[int, int] = {}   # address index -> its row of ``table``
    table = None
    for start in range(0, spec.records, _CHUNK):
        n = min(_CHUNK, spec.records - start)
        positions = np.arange(start * _RECORD_DRAWS, (start + n) * _RECORD_DRAWS, dtype=np.uint64)
        draws = splitmix(record_key, positions).reshape(n, _RECORD_DRAWS)
        index = draws[:, 0] % np.uint64(spec.addresses)
        # a stable sort by address keeps each address's records in stream order
        order = np.argsort(index, kind="stable")
        sorted_index = index[order]
        first = np.flatnonzero(np.concatenate(([True], sorted_index[1:] != sorted_index[:-1])))
        lengths = np.diff(np.append(first, n))
        seen = sorted_index[first].tolist()
        new = [i for i in seen if i not in rows]
        if new:
            cold_positions = np.array(new, dtype=np.uint64)[:, None] * np.uint64(_COLD_DRAWS)
            cold_positions = cold_positions + np.arange(_COLD_DRAWS, dtype=np.uint64)
            table = _store(table, len(rows), cold(spec, splitmix(cold_key, cold_positions)))
            rows.update(zip(new, range(len(rows), len(rows) + len(new))))
        sorted_rows = np.repeat([rows[i] for i in seen], lengths)
        seg_start = np.repeat(first, lengths)
        values = step(spec, table, sorted_rows, draws[order, 1:], seg_start, first + lengths - 1)
        payload = np.empty_like(values)
        payload[order] = values
        addrs = (np.uint64(spec.base_addr) + index * np.uint64(BLOCK_BYTES)).tolist()
        # one 64-byte void scalar per row: tolist() gives each row's bytes.
        # WorkloadSpec keeps every address aligned and in range, so no record needs checking
        yield from _records(addrs, payload.view(f"V{BLOCK_BYTES}").ravel().tolist())


def _store(table: np.ndarray | None, used: int, new: np.ndarray) -> np.ndarray:
    """``table`` with ``new`` as rows ``used`` on; capacity doubles when full."""
    if table is None:
        table = np.empty((0,) + new.shape[1:], dtype=new.dtype)
    if used + len(new) > len(table):
        grown = np.empty((max(2 * used, used + len(new)),) + new.shape[1:], dtype=new.dtype)
        grown[:used] = table[:used]
        table = grown
    table[used : used + len(new)] = new
    return table


def _field_mask(spec: WorkloadSpec) -> int:
    bits = spec.width if spec.kind == "narrowint32" else 32 - spec.pinned_top_bits
    return (1 << bits) - 1


def _fields_cold(spec: WorkloadSpec, cold: np.ndarray) -> np.ndarray:
    """Rows of (rate thresholds, pinned bits, values), each one per 32-bit field."""
    mask = np.uint64(_field_mask(spec))
    if spec.kind == "narrowint32":
        thresholds = np.full_like(cold, int(spec.update_rate * 2**32))
        pins = np.zeros_like(cold)
    else:
        pinned = spec.pinned_top_bits
        pins = ((cold >> np.uint64(32)) & np.uint64((1 << pinned) - 1)) << np.uint64(32 - pinned)
        # a rate uniform in [0.1, 0.9) from the top 24 bits
        span = np.uint64(8 * 2**32 // 10)
        thresholds = np.uint64(2**32 // 10) + (((cold >> np.uint64(40)) * span) >> np.uint64(24))
    return np.stack([thresholds, pins, pins | (cold & mask)], axis=1)


def _fields_step(
    spec: WorkloadSpec,
    table: np.ndarray,
    rows: np.ndarray,
    draws: np.ndarray,
    seg_start: np.ndarray,
    seg_last: np.ndarray,
) -> np.ndarray:
    """Each record's 16 field values; a field keeps its value until its next rewrite."""
    thresholds, pins, values = table[rows].transpose(1, 0, 2)
    rewritten = (draws >> np.uint64(32)) < thresholds
    fresh = pins | (draws & np.uint64(_field_mask(spec)))
    # 1 + the latest rewrite at or before each record, 0 if none; a rewrite
    # counts only inside the record's own address segment
    rank = np.arange(1, len(rows) + 1, dtype=np.int32)[:, None]
    latest = np.maximum.accumulate(rewritten * rank, axis=0)
    # latest == 0 takes a wrapped index here; np.where discards it
    rewrites = fresh.take((latest - 1) * _FIELDS32 + np.arange(_FIELDS32, dtype=np.int32))
    current = np.where(latest > seg_start[:, None], rewrites, values)
    table[rows[seg_last], 2] = current[seg_last]
    return current.astype("<u4")


def _walk_cold(spec: WorkloadSpec, cold: np.ndarray) -> np.ndarray:
    """Rows of eight band positions (doubles uniform in [1, 2)) and the live word count."""
    live = np.full(len(cold), _WORDS, dtype=np.int64)
    if spec.kind == "partialvalid":
        lo, hi = spec.valid_words
        live = lo + (cold[:, 8] % np.uint64(hi - lo + 1)).astype(np.int64)
    start = ((cold[:, :_WORDS] >> np.uint64(12)) | np.uint64(_ONE)).astype(np.int64) - _BAND_LO
    return np.column_stack([start, live])


def _normal16(draws: np.ndarray) -> np.ndarray:
    """Irwin-Hall sum of three 16-bit lanes, scaled to mean 0 and std 2^16 (range +-3 std)."""
    lane = np.uint64(0xFFFF)
    total = (draws & lane) + ((draws >> np.uint64(16)) & lane) + ((draws >> np.uint64(32)) & lane)
    return 2 * total.astype(np.int64) - 196605


def _walk_step(
    spec: WorkloadSpec,
    table: np.ndarray,
    rows: np.ndarray,
    draws: np.ndarray,
    seg_start: np.ndarray,
    seg_last: np.ndarray,
) -> np.ndarray:
    """Each record's eight big-endian doubles after its walk step; dead words stand still."""
    base = round((52 + math.log2(spec.walk_scale)) * 65536)
    jitter = round(min(spec.walk_jitter, 64.0) * 65536)
    z = _normal16(draws)
    log2_step = np.clip(base + ((jitter * z[:, :_WORDS]) >> 16), 0, _MAX_LOG2_STEP)
    frac = log2_step & 0xFFFF
    mantissa = 0x10000 + (((((5186 * frac >> 16) + 14742) * frac >> 16) + 45608) * frac >> 16)
    top = (draws >> np.uint64(48)).astype(np.int64)
    dither = (top[:, :_WORDS] | (top[:, _WORDS:] << 16)) & 0x1FFFF
    steps = ((mantissa * z[:, _WORDS:] << 17) + dither) >> (49 - (log2_step >> 16))
    state = table[rows]
    steps[np.arange(_WORDS) >= state[:, _WORDS:]] = 0
    # per-segment inclusive sums: the chunk's running sum minus its value before the segment
    total = np.cumsum(steps, axis=0)
    position = (state[:, :_WORDS] + total - (total - steps)[seg_start]) % (2 * _BAND)
    table[rows[seg_last], :_WORDS] = position[seg_last]
    reflected = np.where(position < _BAND, position, 2 * _BAND - 1 - position)
    return (_BAND_LO + reflected).astype(">i8")


# kind -> (cold-address state rows, chunk step); float64walk is partialvalid
# with all eight words live, narrowint32 is irregular with one rate and no pins.
# A step gets a chunk's records sorted stably by address: their table rows and
# 16 payload draws, the index of each record's segment start and the indices of
# each segment's last record. It returns their payloads and writes each
# address's final state back to its row.
_KIND_RULES = {
    "float64walk": (_walk_cold, _walk_step),
    "narrowint32": (_fields_cold, _fields_step),
    "partialvalid": (_walk_cold, _walk_step),
    "irregular": (_fields_cold, _fields_step),
}
KINDS = tuple(_KIND_RULES)
