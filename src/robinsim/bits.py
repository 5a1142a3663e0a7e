"""Packed-block helpers: 64-byte cache-line payloads to flat bit vectors and back.

Flat bit index convention used everywhere in this package:
``flat = 64*word + 8*byte + pos`` where ``pos`` counts from the least
significant bit of a byte, so ``flat`` is simply ``8 * byte_offset + pos``
over the 64-byte payload.
"""

from __future__ import annotations

import numpy as np

BLOCK_BYTES = 64
BLOCK_BITS = 512


def check_block(data: bytes) -> bytes:
    if len(data) != BLOCK_BYTES:
        raise ValueError(f"block payload must be {BLOCK_BYTES} bytes, got {len(data)}")
    return data


def block_bytes(data: bytes) -> np.ndarray:
    """A 64-byte payload as a read-only uint8 vector."""
    return np.frombuffer(check_block(data), dtype=np.uint8)


def block_to_bits(data: bytes) -> np.ndarray:
    """Unpack a 64-byte payload into a 512-element 0/1 vector indexed by flat position."""
    return np.unpackbits(block_bytes(data), bitorder="little")


def bits_to_block(bits: np.ndarray) -> bytes:
    return np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little").tobytes()


def blocks_to_bits(blocks: np.ndarray) -> np.ndarray:
    """Unpack an ``(n, 64)`` uint8 payload matrix into an ``(n, 512)`` bit matrix."""
    return np.unpackbits(blocks, axis=1, bitorder="little")


def stack_blocks(payloads: list[bytes]) -> np.ndarray:
    """Stack 64-byte payloads into an ``(n, 64)`` uint8 matrix."""
    bad = set(map(len, payloads)) - {BLOCK_BYTES}
    if bad:
        raise ValueError(f"block payload must be {BLOCK_BYTES} bytes, got {min(bad)}")
    return np.frombuffer(b"".join(payloads), dtype=np.uint8).reshape(len(payloads), BLOCK_BYTES)

