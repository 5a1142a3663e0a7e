import json

import numpy as np
import pytest

import oracle
from robinsim.mapping import PER_WORD, ROBIN
from robinsim.trace import (
    ShadowStore,
    TraceFormatError,
    WriteRecord,
    codeword_stats,
    load_trace,
    old_new_pairs,
    per_bit_histogram,
    save_trace,
)


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


@pytest.mark.parametrize("fmt,suffix", [("jsonl", ".jsonl"), ("binary", ".trace")])
def test_roundtrip(tmp_path, fmt, suffix):
    records = make_records(25, seed=3)
    path = tmp_path / f"trace{suffix}"
    assert save_trace(path, records, fmt) == 25
    loaded = list(load_trace(path, fmt))
    assert loaded == records
    # format inferred from the suffix
    assert list(load_trace(path)) == records


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


def test_jsonl_misaligned_addr(tmp_path):
    path = tmp_path / "misaligned.jsonl"
    path.write_text(json.dumps({"addr": "0x20", "data": "00" * 64}) + "\n")
    with pytest.raises(TraceFormatError, match="aligned"):
        list(load_trace(path))


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(TraceFormatError):
        list(load_trace(tmp_path / "x.jsonl", "parquet"))


def test_shadow_store_cold_reads_zero():
    store = ShadowStore()
    assert store.get(0) == bytes(64)
    store.put(0, bytes([1]) * 64)
    assert store.get(0) == bytes([1]) * 64
    assert store.get(64) == bytes(64)
    assert len(store) == 1


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


def test_pairs_replay_is_deterministic():
    records = make_records(100, seed=9)
    first = list(old_new_pairs(records))
    second = list(old_new_pairs(records))
    assert first == second


def test_histogram_identical_writes_all_zero():
    data = bytes(range(64))
    hist = per_bit_histogram([(data, data)] * 4)
    assert hist.shape == (512,)
    assert not hist.any()


def test_histogram_full_flip_counts_every_bit():
    hist = per_bit_histogram([(bytes(64), bytes([0xFF]) * 64)])
    assert (hist == 1).all()


def test_histogram_conservation():
    records = make_records(60, seed=10)
    pairs = list(old_new_pairs(records))
    hist = per_bit_histogram(pairs)
    from robinsim.bits import block_to_bits

    total = sum(int((block_to_bits(o) != block_to_bits(n)).sum()) for o, n in pairs)
    assert int(hist.sum()) == total


def test_histogram_across_batches_matches_per_pair_sum():
    # more pairs than one batch, counted bit by bit per pair as the reference
    pairs = list(old_new_pairs(make_records(700, seed=4, addresses=16)))
    want = [0] * 512
    for old, new in pairs:
        for flat in range(512):
            want[flat] += (old[flat // 8] ^ new[flat // 8]) >> (flat % 8) & 1
    hist = per_bit_histogram(iter(pairs))
    assert hist.dtype == np.int64
    assert hist.tolist() == want


def test_histogram_rejects_short_payload():
    with pytest.raises(ValueError, match="64 bytes"):
        per_bit_histogram([(bytes(64), bytes(63))])


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
