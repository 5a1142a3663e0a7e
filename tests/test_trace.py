import json

import numpy as np
import pytest

import oracle
from oracle import block_to_bits
from robinsim import report, trace
from robinsim.bits import stack_blocks
from robinsim.injection import InjectionConfig, monte_carlo_block
from robinsim.mapping import BATCH, INTERLEAVED, PER_WORD, ROBIN, scheme_counts
from robinsim.report import ExperimentConfig, run_experiment
from robinsim.trace import (
    ShadowStore,
    TraceFormatError,
    WriteRecord,
    codeword_stats,
    load_trace,
    old_new_pairs,
    pair_batches,
    save_trace,
)
from robinsim.workloads import KINDS, WorkloadSpec

SCHEMES = (PER_WORD, INTERLEAVED, ROBIN)


def make_records(count, seed=0, addresses=4):
    rng = np.random.default_rng(seed)
    return [
        WriteRecord(
            addr=64 * int(rng.integers(addresses)),
            data=rng.integers(0, 256, 64, dtype=np.uint8).tobytes(),
        )
        for _ in range(count)
    ]


def test_record_validation():
    WriteRecord(addr=0, data=bytes(64))
    with pytest.raises(ValueError):
        WriteRecord(addr=0, data=bytes(63))
    with pytest.raises(ValueError):
        WriteRecord(addr=0, data=bytes(65))
    with pytest.raises(ValueError):
        WriteRecord(addr=32, data=bytes(64))
    with pytest.raises(ValueError):
        WriteRecord(addr=-64, data=bytes(64))
    with pytest.raises(ValueError):
        WriteRecord(addr=1 << 64, data=bytes(64))
    with pytest.raises(ValueError, match="integer"):
        WriteRecord(addr=64.0, data=bytes(64))


def test_record_is_an_immutable_named_tuple():
    record = WriteRecord(addr=64, data=bytes(64))
    with pytest.raises(AttributeError):
        record.addr = 128
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == WriteRecord(64, bytes(64)) != WriteRecord(128, bytes(64))
    assert hash(record) == hash(WriteRecord(64, bytes(64)))
    assert repr(record) == f"WriteRecord(addr=64, data={bytes(64)!r})"
    addr, data = record
    assert (addr, data) == (record.addr, record.data) == (64, bytes(64))
    assert record._replace(addr=128) == WriteRecord(128, bytes(64))
    with pytest.raises(ValueError, match="aligned"):
        record._replace(addr=32)


def test_jsonl_lines_equal_json_dumps(tmp_path):
    records = [WriteRecord(0, bytes(64)), WriteRecord(2**64 - 64, bytes([0xFF]) * 64)]
    records += make_records(20, seed=2, addresses=1 << 20)
    path = tmp_path / "trace.jsonl"
    save_trace(path, records)
    want = "".join(json.dumps({"addr": f"0x{r.addr:x}", "data": r.data.hex()}) + "\n" for r in records)
    assert path.read_bytes() == want.encode()


@pytest.mark.parametrize("fmt,suffix", [("jsonl", ".jsonl"), ("binary", ".trace")])
def test_roundtrip(tmp_path, fmt, suffix):
    records = make_records(25, seed=3)
    path = tmp_path / f"trace{suffix}"
    assert save_trace(path, records, fmt) == 25
    loaded = list(load_trace(path, fmt))
    assert loaded == records
    # format inferred from the suffix
    assert list(load_trace(path)) == records


@pytest.mark.parametrize("fmt", trace.FORMATS)
def test_save_trace_writes_plain_pairs_as_records(tmp_path, fmt):
    records = make_records(25, seed=4)
    path = tmp_path / "pairs"
    assert save_trace(path, [tuple(r) for r in records], fmt) == 25
    assert list(load_trace(path, fmt)) == records


@pytest.mark.parametrize("fmt", trace.FORMATS)
@pytest.mark.parametrize(
    "bad,message",
    [
        ((-64, bytes(64)), "address must lie in"),
        ((1 << 64, bytes(64)), "address must lie in"),
        ((96, bytes(64)), "not aligned"),
        ((64, bytes(63)), "64 bytes, got 63"),
        ((64, bytes(65)), "64 bytes, got 65"),
        ((64.0, bytes(64)), "must be an integer, got 64.0"),
    ],
)
def test_save_trace_rejects_a_pair_its_loader_would(tmp_path, fmt, bad, message):
    records = [tuple(r) for r in make_records(3, seed=5)]
    records.insert(2, bad)
    with pytest.raises(ValueError, match=f"^record 2: .*{message}"):
        save_trace(tmp_path / "bad", records, fmt)


@pytest.mark.parametrize("fmt", trace.FORMATS)
def test_numpy_integer_address_is_saved_and_loaded_as_an_int(tmp_path, fmt):
    record = WriteRecord(np.uint64(64), bytes(64))
    assert type(record.addr) is int
    path = tmp_path / "numpy"
    assert save_trace(path, [record, (np.uint64(2**64 - 64), bytes(64))], fmt) == 2
    loaded = list(load_trace(path, fmt))
    assert loaded == [WriteRecord(64, bytes(64)), WriteRecord(2**64 - 64, bytes(64))]
    assert [type(r.addr) for r in loaded] == [int, int]


def test_binary_single_record_file_is_77_bytes(tmp_path):
    path = tmp_path / "one.trace"
    save_trace(path, make_records(1), "binary")
    assert path.stat().st_size == 5 + 72
    assert len(list(load_trace(path))) == 1


def test_binary_empty_after_header(tmp_path):
    path = tmp_path / "empty.trace"
    path.write_bytes(b"RBTR\x01")
    assert list(load_trace(path)) == []


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_bytes(b"NOPE\x01" + bytes(72))
    with pytest.raises(TraceFormatError, match="magic"):
        list(load_trace(path))


def test_binary_bad_version(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_bytes(b"RBTR\x02")
    with pytest.raises(TraceFormatError, match="version"):
        list(load_trace(path))


def test_binary_truncated_record(tmp_path):
    path = tmp_path / "trunc.trace"
    path.write_bytes(b"RBTR\x01" + bytes(72) + bytes(10))
    with pytest.raises(TraceFormatError, match="record 1"):
        list(load_trace(path))


def test_jsonl_short_hex_rejected_with_index(tmp_path):
    path = tmp_path / "short.jsonl"
    good = {"addr": "0x0", "data": "00" * 64}
    bad = {"addr": "0x40", "data": "00" * 64 + "0"}  # 129 chars
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(TraceFormatError, match="record 1"):
        list(load_trace(path))
    bad127 = {"addr": "0x40", "data": "0" * 127}
    path.write_text(json.dumps(bad127) + "\n")
    with pytest.raises(TraceFormatError, match="record 0"):
        list(load_trace(path))


def test_jsonl_blank_lines_are_not_records(tmp_path):
    path = tmp_path / "blank.jsonl"
    path.write_text("\n  \n" + '{"addr": "0x0"\n')
    with pytest.raises(TraceFormatError, match="record 0"):
        list(load_trace(path))
    good = json.dumps({"addr": "0x0", "data": "00" * 64})
    path.write_text(good + "\n\n\n" + '{"addr": "0x0"\n')
    with pytest.raises(TraceFormatError, match="record 1"):
        list(load_trace(path))


def test_jsonl_malformed_json(tmp_path):
    path = tmp_path / "garbled.jsonl"
    path.write_text('{"addr": "0x0"\n')
    with pytest.raises(TraceFormatError, match="record 0"):
        list(load_trace(path))


def test_jsonl_near_canonical_line_keeps_the_json_error(tmp_path):
    # laid out like a canonical line but not hex: the json.loads path reports it
    path = tmp_path / "nothex.jsonl"
    path.write_text('{"addr": "0x40", "data": "' + "0g" * 64 + '"}\n')
    with pytest.raises(TraceFormatError, match="record 0: non-hexadecimal number found in fromhex"):
        list(load_trace(path))


def test_jsonl_misaligned_addr(tmp_path):
    path = tmp_path / "misaligned.jsonl"
    path.write_text(json.dumps({"addr": "0x20", "data": "00" * 64}) + "\n")
    with pytest.raises(TraceFormatError, match="aligned"):
        list(load_trace(path))


def test_jsonl_canonical_lines_decode_at_once(tmp_path):
    # a one-digit address on the first line: its padding reaches back before the block
    records = [WriteRecord(0, bytes(64))] + make_records(40, seed=4, addresses=1 << 20)
    path = tmp_path / "trace.jsonl"
    save_trace(path, records)
    text = path.read_bytes()
    _, _, addrs, datas, others = trace._scan_block(text)
    assert (addrs, datas, others) == ([r.addr for r in records], [r.data for r in records], [])
    # uppercase payload digits on line 1, a CRLF end on line 0, a misaligned address
    # on line 2 and a blank line after it: only those lines are left to json.loads
    lines = text.splitlines(keepends=True)
    lines[1] = lines[1].upper().replace(b"0X", b"0x")
    lines[0] = lines[0].replace(b"}\n", b"}\r\n")
    lines[2] = lines[2].replace(f"0x{records[2].addr:x}".encode(), f"0x{records[2].addr + 8:x}".encode())
    lines.insert(3, b"\n")
    starts, ends, addrs, datas, others = trace._scan_block(b"".join(lines))
    assert others == [0, 1, 2, 3]
    assert (addrs, datas) == ([r.addr for r in records[3:]], [r.data for r in records[3:]])
    assert len(starts) == len(ends) == len(lines)
    # a final canonical line without its newline still decodes at once
    _, ends, addrs, _, others = trace._scan_block(text[:-1])
    assert ends[-1] == len(text) - 1 and len(addrs) == len(records) and others == []
    # a block too short to hold a canonical line
    assert trace._scan_block(b"\n{}")[2:] == ([], [], [0, 1])


def test_jsonl_lone_cr_is_json_whitespace(tmp_path, monkeypatch):
    # bytes.splitlines would end a line at the \r; file iteration and the loader do not
    records = make_records(6, seed=5, addresses=1 << 10)
    path = tmp_path / "cr.jsonl"
    save_trace(path, records)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[3] = lines[3].replace(b", ", b",\r", 1)
    path.write_bytes(b"".join(lines))
    for block in (trace._JSONL_BLOCK, 200):
        monkeypatch.setattr(trace, "_JSONL_BLOCK", block)
        assert list(load_trace(path)) == records


def test_jsonl_misaligned_line_in_a_canonical_block(tmp_path):
    records = make_records(5, seed=6, addresses=1 << 10)
    path = tmp_path / "misaligned.jsonl"
    save_trace(path, records)
    bad = records[2].addr + 32
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(f'"0x{records[2].addr:x}"'.encode(), f'"0x{bad:x}"'.encode())
    path.write_bytes(b"".join(lines))
    loaded = []
    with pytest.raises(TraceFormatError) as error:
        loaded.extend(load_trace(path))
    assert loaded == records[:2]
    assert str(error.value) == f"{path}: record 2: address {bad:#x} not aligned to 64 bytes"


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(TraceFormatError):
        list(load_trace(tmp_path / "x.jsonl", "parquet"))


def test_shadow_store_cold_reads_zero():
    # the store is a dict that old_new_pairs fills, and only old_new_pairs reads a
    # cold address, as zeros
    a, b, c = (bytes([value]) * 64 for value in (1, 2, 3))
    store = ShadowStore()
    records = [WriteRecord(0, a), WriteRecord(64, b), WriteRecord(0, c)]
    assert list(old_new_pairs(records, store)) == [(bytes(64), a), (bytes(64), b), (a, c)]
    assert store == {0: c, 64: b}
    assert len(store) == 2


def test_pairs_first_write_sees_zeros():
    records = [WriteRecord(0, bytes([0xAB]) * 64)]
    (old, new), = old_new_pairs(records)
    assert old == bytes(64)
    assert new == bytes([0xAB]) * 64


def test_pairs_repeated_write_old_equals_new():
    data = bytes(range(64))
    pairs = list(old_new_pairs([WriteRecord(0, data), WriteRecord(0, data)]))
    assert pairs[1] == (data, data)


def test_pairs_distinct_addresses_do_not_interact():
    a = bytes([1]) * 64
    b = bytes([2]) * 64
    records = [WriteRecord(0, a), WriteRecord(64, b), WriteRecord(0, a)]
    pairs = list(old_new_pairs(records))
    assert pairs[2] == (a, a)


def test_pairs_warmup_updates_store_but_skips_emission():
    a = bytes([1]) * 64
    b = bytes([2]) * 64
    records = [WriteRecord(0, a), WriteRecord(0, b)]
    pairs = list(old_new_pairs(records, warmup=1))
    assert pairs == [(a, b)]  # old reflects the warmup write
    with pytest.raises(ValueError):
        list(old_new_pairs(records, warmup=-1))


def test_pairs_warmup_beyond_any_trace_emits_nothing():
    records = make_records(10, seed=8, addresses=3)
    store = ShadowStore()
    # islice rejects a stop above sys.maxsize; a larger warmup still consumes every record
    assert list(old_new_pairs(records, store, warmup=2**70)) == []
    expected = {record.addr: record.data for record in records}
    assert len(store) == len(expected)
    assert all(store.get(addr) == data for addr, data in expected.items())


def test_pairs_replay_is_deterministic():
    records = make_records(100, seed=9)
    first = list(old_new_pairs(records))
    second = list(old_new_pairs(records))
    assert first == second


def run_histogram(tmp_path, records, warmup=0):
    """``run_experiment``'s per-bit transition histogram of a trace of ``records``."""
    path = tmp_path / "histogram.trace"
    save_trace(path, records)
    cfg = ExperimentConfig(trace_path=str(path), pw=0.999, schemes=("robin",), warmup=warmup)
    return run_experiment(cfg).histogram


def test_histogram_identical_writes_all_zero(tmp_path):
    data = bytes(range(64))
    # the cold write is warmup; the four rewrites of the same data flip nothing
    hist = run_histogram(tmp_path, [WriteRecord(0, data)] * 5, warmup=1)
    assert hist.shape == (512,)
    assert not hist.any()


def test_histogram_full_flip_counts_every_bit(tmp_path):
    hist = run_histogram(tmp_path, [WriteRecord(0, bytes([0xFF]) * 64)])
    assert (hist == 1).all()


def test_histogram_conservation(tmp_path):
    records = make_records(60, seed=10)
    pairs = list(old_new_pairs(records))
    hist = run_histogram(tmp_path, records)
    total = sum(int((block_to_bits(o) != block_to_bits(n)).sum()) for o, n in pairs)
    assert int(hist.sum()) == total


def test_histogram_across_batches_matches_per_pair_sum(tmp_path):
    # more pairs than one batch, counted bit by bit per pair as the reference
    records = make_records(700, seed=4, addresses=16)
    want = [0] * 512
    for old, new in old_new_pairs(records):
        for flat in range(512):
            want[flat] += (old[flat // 8] ^ new[flat // 8]) >> (flat % 8) & 1
    hist = run_histogram(tmp_path, records)
    assert hist.dtype == np.int64
    assert hist.tolist() == want


def test_histogram_rejects_short_payload(monkeypatch):
    # trace files cannot hold a short payload, so the pair stream is handed in directly
    monkeypatch.setattr(report, "make_pairs", lambda cfg: iter([(bytes(64), bytes(63))]))
    cfg = ExperimentConfig(workload=WorkloadSpec(kind=KINDS[0], records=1), pw=0.999, schemes=("robin",))
    with pytest.raises(ValueError, match="64 bytes"):
        run_experiment(cfg)


class CountingIterator:
    """An iterator over ``items`` that counts the items handed out so far."""

    def __init__(self, items):
        self._items = iter(items)
        self.drawn = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._items)
        self.drawn += 1
        return item


@pytest.mark.parametrize("n", [0, 1, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 1])
def test_pair_batches_stack_every_pair_a_bounded_run_at_a_time(n):
    pairs = list(old_new_pairs(make_records(n, seed=n, addresses=16)))
    source = CountingIterator(pairs)
    batches = pair_batches(source)
    assert source.drawn == 0
    got, yielded = [], 0
    for olds, news in batches:
        yielded += len(olds)
        # memory stays bounded: no more than one batch is drawn ahead of what was handed out
        assert source.drawn <= yielded + BATCH
        assert olds.dtype == news.dtype == np.uint8
        assert olds.shape == news.shape == (len(olds), 64)
        got.append((olds, news))
    assert [len(olds) for olds, _ in got] == [BATCH] * (n // BATCH) + [n % BATCH] * (n % BATCH > 0)
    for side in (0, 1):
        stacked = np.concatenate([stack_blocks([])] + [batch[side] for batch in got])
        np.testing.assert_array_equal(stacked, stack_blocks([pair[side] for pair in pairs]))


def test_pair_batches_reject_a_short_payload_when_its_batch_is_drawn():
    good = (bytes(64), bytes(64))
    batches = pair_batches([good] * BATCH + [good, (bytes(64), bytes(63))])
    olds, news = next(batches)
    assert len(olds) == len(news) == BATCH
    with pytest.raises(ValueError, match="64 bytes"):
        next(batches)


def test_batch_views_count_and_inject_like_contiguous_copies():
    pairs = list(old_new_pairs(make_records(BATCH + 37, seed=6, addresses=16)))
    cfg = InjectionConfig(pw=0.9, scheme=ROBIN, trials=64, seed=3)
    first = 0
    for olds, news in pair_batches(pairs):
        # column views of one (n, 2, 64) stack: rows 128 bytes apart
        assert olds.strides == news.strides == (128, 1)
        copies = np.ascontiguousarray(olds), np.ascontiguousarray(news)
        for include_ecc in (False, True):
            for got, want in zip(
                scheme_counts(SCHEMES, olds ^ news, include_ecc),
                scheme_counts(SCHEMES, copies[0] ^ copies[1], include_ecc),
            ):
                np.testing.assert_array_equal(got, want)
        got = monte_carlo_block(scheme_counts(SCHEMES, olds ^ news)[1], first, cfg)
        want = monte_carlo_block(scheme_counts(SCHEMES, copies[0] ^ copies[1])[1], first, cfg)
        np.testing.assert_array_equal(got, want)
        first += len(olds)
    assert first == len(pairs)


def test_codeword_stats_uniform_write():
    stats = codeword_stats([(bytes(64), bytes([0xFF]) * 64)], ROBIN)
    assert stats.min_avg_pct == pytest.approx(100.0)
    assert stats.max_avg_pct == pytest.approx(100.0)
    assert stats.writes == 1


def test_codeword_stats_concentrated_write():
    # 16 flips all inside word 0: per-word sees [16,0,...], K/8 = 2
    new = bytes([0xFF, 0xFF] + [0] * 62)
    stats = codeword_stats([(bytes(64), new)], PER_WORD)
    assert stats.max_avg_pct == pytest.approx(800.0)
    assert stats.min_avg_pct == pytest.approx(0.0)


def test_codeword_stats_skips_zero_writes():
    data = bytes(range(64))
    stats = codeword_stats([(data, data), (bytes(64), bytes([0xFF]) * 64)], ROBIN)
    assert stats.writes == 1
    assert stats.skipped_zero == 1


def test_codeword_stats_min_below_mean_below_max():
    records = make_records(50, seed=12)
    stats = codeword_stats(old_new_pairs(records), ROBIN)
    assert stats.min_avg_pct <= 100.0 <= stats.max_avg_pct
    assert stats.min_extreme_pct <= stats.min_avg_pct
    assert stats.max_extreme_pct >= stats.max_avg_pct


@pytest.mark.parametrize("include_ecc", (False, True), ids=("data", "ecc"))
def test_codeword_stats_across_batches_matches_oracle(include_ecc):
    # more pairs than one counting batch, so batch boundaries are crossed
    pairs = list(old_new_pairs(make_records(700, seed=9, addresses=16)))
    stats = codeword_stats(pairs, ROBIN, include_ecc=include_ecc)
    rows = []
    for old, new in pairs:
        data, check = oracle.flip_counts("robin", old, new, include_ecc)
        rows.append(data if check is None else [d + c for d, c in zip(data, check)])
    min_avg, max_avg = oracle.spread(rows)
    assert stats.writes == 700
    assert stats.min_avg_pct == pytest.approx(min_avg, rel=1e-12)
    assert stats.max_avg_pct == pytest.approx(max_avg, rel=1e-12)


def test_codeword_stats_rejects_short_payload():
    with pytest.raises(ValueError, match="64 bytes"):
        codeword_stats([(bytes(63), bytes(65))], ROBIN)
