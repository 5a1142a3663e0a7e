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

Streams are reproducible bit for bit from (spec, seed): every record consumes
a fixed pattern of draws from a single generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .bits import BLOCK_BYTES
from .trace import WriteRecord

_WORDS = 8
_FIELDS32 = 16


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one synthetic workload; unused kind-specific fields are ignored."""

    kind: str
    records: int
    addresses: int = 64
    base_addr: int = 0
    walk_scale: float = 2.0**-14        # median relative step of the float walk
    walk_jitter: float = 4.0            # log2 std-dev of the per-word step size
    width: int = 12                     # narrowint32: significant low bits per field
    update_rate: float = 0.6            # narrowint32: per-field rewrite probability
    valid_words: tuple[int, int] = (1, 8)   # partialvalid: inclusive range of live words
    pinned_top_bits: int = 3            # irregular: constant high bits per field

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown workload kind {self.kind!r}; expected one of {KINDS}")
        if self.records < 1:
            raise ValueError(f"record count must be >= 1, got {self.records}")
        if self.addresses < 1:
            raise ValueError(f"address count must be >= 1, got {self.addresses}")
        if self.base_addr % BLOCK_BYTES:
            raise ValueError(f"base address {self.base_addr:#x} not block aligned")
        if not 0 <= self.base_addr <= 2**64 - BLOCK_BYTES * self.addresses:
            raise ValueError(
                f"{self.addresses} blocks from base address {self.base_addr:#x} leave the 64-bit range"
            )
        if not 0.0 < self.walk_scale < 1.0:
            raise ValueError(f"walk_scale must lie in (0, 1), got {self.walk_scale}")
        if not 0 <= self.walk_jitter < math.inf:
            raise ValueError(f"walk_jitter must be non-negative and finite, got {self.walk_jitter}")
        if not 1 <= self.width <= 32:
            raise ValueError(f"width must lie in [1, 32], got {self.width}")
        if not 0.0 < self.update_rate <= 1.0:
            raise ValueError(f"update_rate must lie in (0, 1], got {self.update_rate}")
        lo, hi = self.valid_words
        if not 1 <= lo <= hi <= _WORDS:
            raise ValueError(f"valid_words range must satisfy 1 <= lo <= hi <= 8, got {self.valid_words}")
        if not 0 <= self.pinned_top_bits <= 8:
            raise ValueError(f"pinned_top_bits must lie in [0, 8], got {self.pinned_top_bits}")


def gen_workload(spec: WorkloadSpec, seed: int) -> Iterator[WriteRecord]:
    """Deterministic stream of ``spec.records`` write records.

    Each record picks an address; a cold address first draws its state once,
    then every write advances that state and stores its payload.
    """
    cold, step = _KIND_RULES[spec.kind]
    rng = np.random.default_rng(seed)
    states: dict[int, tuple] = {}
    for _ in range(spec.records):
        addr = spec.base_addr + BLOCK_BYTES * int(rng.integers(spec.addresses))
        state = states.get(addr)
        if state is None:
            state = states[addr] = cold(spec, rng)
        yield WriteRecord(addr, step(state, spec, rng))


def _walk_step(state: tuple, spec: WorkloadSpec, rng: np.random.Generator) -> bytes:
    """Nudge the first ``live`` doubles in place; draw sizes are fixed per call."""
    live, values = state
    scale = spec.walk_scale * np.exp2(spec.walk_jitter * rng.standard_normal(_WORDS))
    noise = rng.standard_normal(_WORDS)
    values[:live] *= 1.0 + np.minimum(scale[:live], 0.25) * noise[:live]
    # keep magnitudes in a band so exponents stay near-constant
    escaped = (np.abs(values[:live]) < 0.25) | (np.abs(values[:live]) > 8.0)
    if escaped.any():
        values[:live][escaped] = rng.uniform(1.0, 2.0, int(escaped.sum()))
    return values.astype(">f8").tobytes()


def _rewrite_step(state: tuple, spec: WorkloadSpec, rng: np.random.Generator) -> bytes:
    """Rewrite each 32-bit field with its rate: pinned high bits, fresh low bits below ``limit``."""
    rates, pins, limit, values = state
    update = rng.random(_FIELDS32) < rates
    fresh = rng.integers(0, limit, _FIELDS32, dtype=np.uint64).astype(np.uint32)
    if pins is not None:  # narrowint32 pins no bits and skips the OR
        fresh |= pins
    values[update] = fresh[update]
    return values.astype("<u4").tobytes()


def _partialvalid_cold(spec: WorkloadSpec, rng: np.random.Generator) -> tuple:
    lo, hi = spec.valid_words
    return int(rng.integers(lo, hi + 1)), rng.uniform(1.0, 2.0, _WORDS)


def _narrowint32_cold(spec: WorkloadSpec, rng: np.random.Generator) -> tuple:
    limit = np.uint64(1) << spec.width
    values = rng.integers(0, limit, _FIELDS32, dtype=np.uint64).astype(np.uint32)
    return spec.update_rate, None, limit, values


def _irregular_cold(spec: WorkloadSpec, rng: np.random.Generator) -> tuple:
    pin_shift = np.uint64(32 - spec.pinned_top_bits)
    limit = np.uint64(1) << pin_shift
    rates = rng.uniform(0.1, 0.9, _FIELDS32)
    pins = (
        rng.integers(0, 1 << spec.pinned_top_bits, _FIELDS32, dtype=np.uint64) << pin_shift
    ).astype(np.uint32)
    values = pins | rng.integers(0, limit, _FIELDS32, dtype=np.uint64).astype(np.uint32)
    return rates, pins, limit, values


# kind -> (cold-address state draw, write step); float64walk is partialvalid
# with all eight words live, narrowint32 is irregular with one rate and no pins
_KIND_RULES = {
    "float64walk": (lambda spec, rng: (_WORDS, rng.uniform(1.0, 2.0, _WORDS)), _walk_step),
    "narrowint32": (_narrowint32_cold, _rewrite_step),
    "partialvalid": (_partialvalid_cold, _walk_step),
    "irregular": (_irregular_cold, _rewrite_step),
}
KINDS = tuple(_KIND_RULES)
