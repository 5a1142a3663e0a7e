import tracemalloc
from collections import defaultdict, deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from robinsim import workloads
from robinsim.bits import BLOCK_BITS
from robinsim.report import ExperimentConfig, run_experiment
from robinsim.workloads import KINDS, WorkloadSpec, gen_workload


def histogram_for(spec, seed=1, warmup=0):
    cfg = ExperimentConfig(workload=spec, seed=seed, warmup=warmup, pw=0.999, schemes=("robin",))
    return run_experiment(cfg).histogram


def payloads_by_address(spec, seed=1):
    """Each address's payloads in write order, the cold write first."""
    by_addr = defaultdict(list)
    for record in gen_workload(spec, seed):
        by_addr[record.addr].append(record.data)
    return by_addr


@pytest.mark.parametrize("kind", KINDS)
def test_streams_are_reproducible(kind):
    spec = WorkloadSpec(kind=kind, records=200, addresses=8)
    first = list(gen_workload(spec, seed=42))
    second = list(gen_workload(spec, seed=42))
    assert first == second
    other_seed = list(gen_workload(spec, seed=43))
    assert other_seed != first


@pytest.mark.parametrize("kind", KINDS)
def test_records_are_valid_and_counted(kind):
    spec = WorkloadSpec(kind=kind, records=50, addresses=4, base_addr=0x1000)
    records = list(gen_workload(spec, seed=7))
    assert len(records) == 50
    for record in records:
        assert len(record.data) == 64
        assert record.addr % 64 == 0
        assert 0x1000 <= record.addr < 0x1000 + 64 * 4


def test_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(kind="bogus", records=10)
    with pytest.raises(ValueError):
        WorkloadSpec(kind="float64walk", records=0)
    with pytest.raises(ValueError):
        WorkloadSpec(kind="float64walk", records=10, base_addr=10)
    with pytest.raises(ValueError):
        WorkloadSpec(kind="narrowint32", records=10, width=0)
    with pytest.raises(ValueError):
        WorkloadSpec(kind="narrowint32", records=10, update_rate=0.0)
    with pytest.raises(ValueError):
        WorkloadSpec(kind="partialvalid", records=10, valid_words=(0, 8))
    with pytest.raises(ValueError):
        WorkloadSpec(kind="partialvalid", records=10, valid_words=(5, 2))
    with pytest.raises(ValueError):
        WorkloadSpec(kind="irregular", records=10, pinned_top_bits=9)


def test_narrow_width_one_touches_only_bit0_of_each_field():
    spec = WorkloadSpec(kind="narrowint32", records=500, addresses=4, width=1)
    hist = histogram_for(spec)
    active = np.flatnonzero(hist)
    assert len(active) > 0
    assert all(flat % 32 == 0 for flat in active)


def test_narrow_activity_confined_to_low_width_bits():
    spec = WorkloadSpec(kind="narrowint32", records=500, addresses=4, width=12)
    hist = histogram_for(spec)
    for flat in np.flatnonzero(hist):
        assert flat % 32 < 12


def test_float64walk_upper_region_dominates():
    # big-endian packing puts the churning low mantissa in the upper flat
    # positions of each word while sign/exponent bytes stay quiet
    spec = WorkloadSpec(kind="float64walk", records=10_000, addresses=16)
    hist = histogram_for(spec)
    per_word = hist.reshape(8, 64)
    for word in range(8):
        upper = per_word[word, 40:].mean()
        lower = per_word[word, :16].mean()
        assert upper >= 2.0 * max(lower, 1e-9)


def test_float64walk_words_have_similar_profiles():
    spec = WorkloadSpec(kind="float64walk", records=5_000, addresses=16)
    totals = histogram_for(spec).reshape(8, 64).sum(axis=1)
    assert totals.min() > 0.5 * totals.max()


def test_partialvalid_tail_words_never_change():
    # warmup skips the cold-store writes, where even dead words go zeros -> content
    spec = WorkloadSpec(kind="partialvalid", records=2_000, addresses=8, valid_words=(2, 5))
    hist = histogram_for(spec, warmup=200).reshape(8, 64)
    assert hist[:2].sum() > 0  # words 0-1 are always live
    assert hist[5:].sum() == 0  # words 5-7 never valid


def test_partialvalid_all_words_valid_matches_walk_shape():
    spec = WorkloadSpec(kind="partialvalid", records=5_000, addresses=16, valid_words=(8, 8))
    hist = histogram_for(spec).reshape(8, 64)
    for word in range(8):
        assert hist[word, 40:].mean() >= 2.0 * max(hist[word, :16].mean(), 1e-9)
    assert hist.sum(axis=1).min() > 0


def test_irregular_quiet_pinned_tops():
    spec = WorkloadSpec(kind="irregular", records=1_000, addresses=8, pinned_top_bits=3)
    hist = histogram_for(spec, warmup=200)
    assert hist.shape == (BLOCK_BITS,)
    pinned = [flat for flat in range(BLOCK_BITS) if flat % 32 >= 29]
    live = [flat for flat in range(BLOCK_BITS) if flat % 32 < 29]
    assert hist[pinned].sum() == 0
    assert hist[live].sum() > 0


def test_irregular_field_rates_differ():
    spec = WorkloadSpec(kind="irregular", records=4_000, addresses=2)
    per_field = histogram_for(spec).reshape(16, 32).sum(axis=1)
    assert per_field.max() > 2 * per_field.min()


@pytest.mark.parametrize("valid_words", [(1, 8), (2, 5), (3, 3)])
def test_partialvalid_words_from_v_on_never_transition(valid_words):
    # per address, the words that change after its cold write are words
    # 0 .. V-1 for one V in the valid_words range; words V .. 7 never transition
    lo, hi = valid_words
    spec = WorkloadSpec(kind="partialvalid", records=3_000, addresses=16, valid_words=valid_words)
    seen_live = set()
    for payloads in payloads_by_address(spec).values():
        words = np.frombuffer(b"".join(payloads), dtype=">u8").reshape(-1, 8)
        changed = (words[1:] != words[:-1]).any(axis=0)
        live = int(changed.sum())
        assert lo <= live <= hi
        assert changed[:live].all() and not changed[live:].any()
        seen_live.add(live)
    assert len(seen_live) >= min(2, hi - lo + 1)


@pytest.mark.parametrize("pinned", [1, 3, 8])
def test_irregular_pinned_top_bits_never_transition(pinned):
    spec = WorkloadSpec(kind="irregular", records=3_000, addresses=16, pinned_top_bits=pinned)
    for payloads in payloads_by_address(spec).values():
        fields = np.frombuffer(b"".join(payloads), dtype="<u4").reshape(-1, 16)
        tops = fields >> (32 - pinned)
        assert (tops == tops[0]).all()
        low = fields & ((1 << (32 - pinned)) - 1)
        assert (low != low[0]).any(axis=0).all()  # every field's free bits do change


@st.composite
def workload_specs(draw):
    kind = draw(st.sampled_from(KINDS))
    addresses = draw(st.one_of(st.integers(1, 40), st.integers(1, 2**58)))
    lo = draw(st.integers(1, 8))
    return WorkloadSpec(
        kind=kind,
        records=draw(st.integers(1, 300)),
        addresses=addresses,
        base_addr=64 * draw(st.integers(0, 2**58 - addresses)),
        walk_scale=draw(st.floats(1e-12, 0.99)),
        walk_jitter=draw(st.floats(0.0, 80.0)),
        width=draw(st.integers(1, 32)),
        update_rate=draw(st.floats(1e-9, 1.0, exclude_min=True)),
        valid_words=(lo, draw(st.integers(lo, 8))),
        pinned_top_bits=draw(st.integers(0, 8)),
    )


@settings(max_examples=60, deadline=None)
@given(spec=workload_specs(), seed=st.integers(0, 2**64 - 1), chunk=st.sampled_from([1, 7, 64, 1024]))
def test_generator_matches_reference(spec, seed, chunk):
    with mock.patch.object(workloads, "_CHUNK", chunk):
        fast = [(record.addr, record.data) for record in gen_workload(spec, seed)]
    assert fast == list(oracle.workload_stream(spec, seed))


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3])
def test_generator_rejects_seeds_outside_64_bits(seed):
    # the call itself raises, so a writer given its stream never opens its output
    with pytest.raises(ValueError, match="seed"):
        gen_workload(WorkloadSpec(kind="irregular", records=10), seed)


@pytest.mark.parametrize("kind", KINDS)
def test_stream_does_not_depend_on_chunk_size(kind):
    spec = WorkloadSpec(kind=kind, records=2_500, addresses=24)
    streams = []
    for chunk in (1, 7, workloads._CHUNK):
        with mock.patch.object(workloads, "_CHUNK", chunk):
            streams.append(list(gen_workload(spec, seed=5)))
    assert streams[0] == streams[1] == streams[2]


def test_generator_memory_is_bounded():
    # irregular carries the most state per record: rates, pins and values per field
    def peak(records):
        tracemalloc.start()
        try:
            spec = WorkloadSpec(kind="irregular", records=records, addresses=64)
            deque(gen_workload(spec, seed=2), maxlen=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(200_000) <= 2 * peak(20_000)
