"""Property tests: both trace loaders against the one-record-at-a-time reference
loader in ``oracle``, on valid files and on files with one bad record."""

import io
import json
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from robinsim import trace
from robinsim.trace import TRACE_MAGIC, TRACE_VERSION, TraceFormatError, WriteRecord, load_trace

ADDRS = st.one_of(st.sampled_from((0, 2**64 - 64)), st.integers(0, 2**58 - 1).map(lambda i: 64 * i))


def load(path, fmt):
    """(records as (addr, payload) tuples, index named by the error or None)."""
    records = []
    try:
        for record in load_trace(path, fmt):
            assert type(record) is WriteRecord
            records.append(tuple(record))
    except TraceFormatError as exc:
        return records, int(re.search(r": record (\d+): ", str(exc))[1])
    return records, None


# -- JSONL ---------------------------------------------------------------------


@st.composite
def jsonl_lines(draw, addr, data):
    """One line holding the record: canonical, or rewritten in ways JSON allows."""
    addr_hex, data_hex = f"{addr:x}", data.hex()
    if draw(st.booleans()):
        addr_hex = addr_hex.upper()
    if draw(st.booleans()):
        data_hex = data_hex.upper()
    addr_hex = "0" * draw(st.integers(0, 3)) + addr_hex
    prefix = draw(st.sampled_from(("0x", "0X")))
    fields = {"addr": f'"{prefix}{addr_hex}"'}
    # a drawn share of the data characters written as \u00XX escapes
    escaped = draw(st.lists(st.booleans(), min_size=len(data_hex), max_size=len(data_hex)))
    fields["data"] = '"' + "".join(
        f"\\u{ord(c):04x}" if e else c for c, e in zip(data_hex, escaped)
    ) + '"'
    keys = draw(st.permutations(("addr", "data")))
    colon, comma = draw(st.sampled_from(((": ", ", "), (":", ","), (" : ", " ,  "))))
    body = "{" + comma.join(f'"{key}"{colon}{fields[key]}' for key in keys) + "}"
    pad = draw(st.sampled_from(("", " ", "\t")))
    end = draw(st.sampled_from(("\n", "\r\n", " \n")))
    return (pad + body + end).encode()


def canonical(addr, data):
    return (json.dumps({"addr": f"0x{addr:x}", "data": data.hex()}) + "\n").encode()


BAD_LINES = st.sampled_from(
    (
        canonical(32, bytes(64)),                                   # misaligned
        canonical(2**64 - 1, bytes(64)),                            # misaligned, top of range
        b'{"addr": "0x10000000000000000", "data": "' + b"00" * 64 + b'"}\n',   # above 2^64
        b'{"addr": "0x40", "data": "' + b"0" * 127 + b'"}\n',        # 127 hex digits
        b'{"addr": "0x40", "data": "' + b"0g" * 64 + b'"}\n',        # not hex
        b'{"addr": "0x40", "data": "' + b"00" * 64 + b'"\n',         # unterminated object
        b'{"addr": "0x40", "data": "\xff' + b"0" * 127 + b'"}\n',    # not ASCII
        b'{"addr": "0x40"}\n',                                       # missing key
        b'{"addr": "0x40", "data": 5}\n',                            # data not a string
        b'[1, 2]\n',                                                 # not an object
    )
)
BLANKS = st.sampled_from((b"\n", b"  \n", b"\r\n", b"\t \n"))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_jsonl_loader_matches_reference(tmp_path_factory, data):
    count = data.draw(st.integers(0, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    records = [(data.draw(ADDRS), rng.bytes(64)) for _ in range(count)]
    lines = [
        canonical(addr, payload) if data.draw(st.booleans()) else data.draw(jsonl_lines(addr, payload))
        for addr, payload in records
    ]
    bad = data.draw(st.none() | st.integers(0, count))
    if bad is not None:
        lines.insert(bad, data.draw(BAD_LINES))
    for position in data.draw(st.lists(st.integers(0, len(lines)), max_size=3)):
        lines.insert(position, data.draw(BLANKS))
    if lines and data.draw(st.booleans()):
        lines[-1] = lines[-1].rstrip(b"\r\n")   # no newline at the end of the file
    text = b"".join(lines)
    path = tmp_path_factory.mktemp("jsonl") / "trace.jsonl"
    path.write_bytes(text)

    want = (records, None) if bad is None else (records[:bad], bad)
    assert oracle.load_trace(text, "jsonl") == want
    assert load(path, "jsonl") == want


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_jsonl_loader_matches_reference_across_blocks(tmp_path_factory, data):
    """Blocks of a few hundred bytes: each holds at most a few lines, so blocks of
    canonical lines (decoded at once) alternate with blocks read line by line."""
    count = data.draw(st.integers(0, 30))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    records = [(data.draw(ADDRS), rng.bytes(64)) for _ in range(count)]
    variants = set(data.draw(st.lists(st.integers(0, max(0, count - 1)), max_size=4)))
    lines = [
        data.draw(jsonl_lines(addr, payload)) if i in variants else canonical(addr, payload)
        for i, (addr, payload) in enumerate(records)
    ]
    bad = data.draw(st.none() | st.integers(0, count))
    if bad is not None:
        lines.insert(bad, data.draw(BAD_LINES))
    for position in data.draw(st.lists(st.integers(0, len(lines)), max_size=3)):
        lines.insert(position, data.draw(BLANKS))
    if lines:
        lines[-1] = lines[-1].rstrip(b"\r\n")   # no newline at the end of the file
    text = b"".join(lines)
    path = tmp_path_factory.mktemp("jsonl") / "trace.jsonl"
    path.write_bytes(text)

    want = (records, None) if bad is None else (records[:bad], bad)
    assert oracle.load_trace(text, "jsonl") == want
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace, "_JSONL_BLOCK", data.draw(st.integers(100, 600)))
        assert load(path, "jsonl") == want


# -- binary --------------------------------------------------------------------


def binary_file(records):
    return TRACE_MAGIC + bytes([TRACE_VERSION]) + b"".join(
        addr.to_bytes(8, "little") + payload for addr, payload in records
    )


@settings(max_examples=60, deadline=None)
@given(
    count=st.sampled_from((0, 1, 1023, 1024, 1025, 2049)),
    defect=st.sampled_from((None, "misaligned", "truncated")),
    data=st.data(),
)
def test_binary_loader_matches_reference(tmp_path_factory, count, defect, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    addrs = (rng.integers(0, 2**58, count, dtype=np.uint64) * np.uint64(64)).tolist()
    addrs[: min(count, 2)] = [0, 2**64 - 64][: min(count, 2)]
    payloads = rng.bytes(64 * count)
    records = [(addr, payloads[64 * i : 64 * i + 64]) for i, addr in enumerate(addrs)]
    bad = None
    text = binary_file(records)
    if defect == "truncated":
        bad = data.draw(st.integers(0, count))
        cut = data.draw(st.integers(1, 71))
        text = binary_file(records[:bad]) + binary_file([(64, bytes(64))])[5 : 5 + cut]
    elif defect == "misaligned" and count:
        bad = data.draw(st.integers(0, count - 1))
        later = data.draw(st.lists(st.integers(bad, count - 1), max_size=2))
        broken = list(records)
        for i in [bad, *later]:
            broken[i] = (records[i][0] | data.draw(st.integers(1, 63)), records[i][1])
        text = binary_file(broken)
    path = tmp_path_factory.mktemp("binary") / "trace.bin"
    path.write_bytes(text)

    want = (records, None) if bad is None else (records[:bad], bad)
    assert oracle.load_trace(text, "binary") == want
    assert load(path, "binary") == want


class ShortReads:
    """A file whose reads return at most 1000 bytes, as a pipe's may."""

    def __init__(self, data):
        self._data = io.BytesIO(data)

    def read(self, size):
        return self._data.read(min(size, 1000))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_binary_loader_completes_short_reads(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    records = [(64 * i, rng.bytes(64)) for i in range(300)]
    for text, want in (
        (binary_file(records), (records, None)),
        (binary_file(records)[:-10], (records[:-1], 299)),
    ):
        monkeypatch.setattr(pathlib.Path, "open", lambda self, mode="r": ShortReads(text))
        assert load(tmp_path / "trace.bin", "binary") == want
