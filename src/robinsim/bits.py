"""Packed-block helpers: 64-byte cache-line payloads as byte vectors and bit matrices.

Flat bit index convention used everywhere in this package:
``flat = 64*word + 8*byte + pos`` where ``pos`` counts from the least
significant bit of a byte, so ``flat`` is simply ``8 * byte_offset + pos``
over the 64-byte payload.

:func:`_int_setting` is the one check of an integer setting, from a workload's
``records`` to a record's address (numpy integers and bools pass). Its
``ValueError`` names the setting: ``<name> must be an integer, got
<value!r>`` or ``<name> must lie in [lo, hi], got <value>``.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

BLOCK_BYTES = 64
BLOCK_BITS = 512


def _int_setting(name: str, value: object, lo: int, hi: float = math.inf) -> int:
    """``value`` as an ``int`` in [lo, hi]; a float, a string or None raises ValueError."""
    try:
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not lo <= number <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value}")
    return number


def block_bytes(data: bytes) -> np.ndarray:
    """A 64-byte payload as a read-only uint8 vector."""
    # checked by bytes, not items: a 64-item uint16 array is 128 bytes
    payload = np.frombuffer(data, dtype=np.uint8)
    if len(payload) != BLOCK_BYTES:
        raise ValueError(f"block payload must be {BLOCK_BYTES} bytes, got {len(payload)}")
    return payload


def blocks_to_bits(blocks: np.ndarray) -> np.ndarray:
    """Unpack an ``(n, 64)`` uint8 payload matrix into an ``(n, 512)`` bit matrix."""
    return np.unpackbits(blocks, axis=1, bitorder="little")


def stack_blocks(payloads: Sequence[bytes]) -> np.ndarray:
    """Stack 64-byte payloads into an ``(n, 64)`` uint8 matrix."""
    bad = set(map(len, payloads)) - {BLOCK_BYTES}
    if bad:
        raise ValueError(f"block payload must be {BLOCK_BYTES} bytes, got {min(bad)}")
    return np.frombuffer(b"".join(payloads), dtype=np.uint8).reshape(len(payloads), BLOCK_BYTES)

