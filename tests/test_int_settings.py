"""Every integer setting takes integers only: a float, a string or None raises a
ValueError naming the setting, and a numpy integer acts as the int of its value."""

import re

import numpy as np
import pytest

from robinsim import ROBIN
from robinsim.injection import InjectionConfig, MonteCarloAccumulator, mix_seed, monte_carlo_block
from robinsim.mapping import scheme_counts
from robinsim.reliability import TraceAccumulator
from robinsim.report import ConfigError, ExperimentConfig, make_pairs
from robinsim.trace import WriteRecord, old_new_pairs
from robinsim.workloads import WorkloadSpec, gen_workload

# the cells of three writes of 0x0F bytes over zero blocks, under ROBIN alone
CELLS = scheme_counts((ROBIN,), np.full((3, 64), 0x0F, dtype=np.uint8))[1]
RECORDS = [WriteRecord(64 * (i % 2), bytes([i]) * 64) for i in range(6)]


def workload(kind, **fields):
    return list(gen_workload(WorkloadSpec(kind, **{"records": 40, "addresses": 6, **fields}), 3))


def estimate(trials=40, seed=2, record_index=0):
    cfg = InjectionConfig(pw=0.9, scheme=ROBIN, trials=trials, seed=seed)
    # (1, 3): one row, ROBIN's, of the three writes
    return monte_carlo_block(CELLS, record_index, cfg).tolist(), cfg


def accumulate(schemes):
    acc = TraceAccumulator(0.9, schemes)
    acc.add(np.full((4, 3, 8), 2, dtype=np.uint8))   # four writes of three schemes
    return acc.rates()


def mc_accumulate(schemes):
    acc = MonteCarloAccumulator(InjectionConfig(pw=0.9, scheme=ROBIN, trials=40, seed=2), schemes)
    acc.add_batch(np.full((4, 3, 8), 2, dtype=np.uint8))   # four writes of three schemes
    return acc.finalize()


def experiment(**fields):
    cfg = ExperimentConfig(workload=WorkloadSpec("narrowint32", records=30), pw=0.99, **fields)
    return cfg.validate(), list(make_pairs(cfg))


# setting name (as its ValueError and config key name it), a valid value, the
# result of a call with that value, and the error the call raises
SETTINGS = [
    ("records", 20, lambda v: workload("irregular", records=v), ValueError),
    ("addresses", 5, lambda v: workload("irregular", addresses=v), ValueError),
    ("base_addr", 4096, lambda v: workload("irregular", base_addr=v), ValueError),
    ("width", 7, lambda v: workload("narrowint32", width=v), ValueError),
    ("pinned_top_bits", 2, lambda v: workload("irregular", pinned_top_bits=v), ValueError),
    ("valid_words_min", 2, lambda v: workload("partialvalid", valid_words=(v, 5)), ValueError),
    ("valid_words_max", 5, lambda v: workload("partialvalid", valid_words=(2, v)), ValueError),
    ("seed", 7, lambda v: list(gen_workload(WorkloadSpec("float64walk", records=30), v)), ValueError),
    ("trials", 50, lambda v: estimate(trials=v), ValueError),
    ("seed", 9, lambda v: estimate(seed=v), ValueError),
    ("record_index", 3, lambda v: estimate(record_index=v), ValueError),
    ("seed", 5, lambda v: mix_seed(v, 2), ValueError),
    ("index", 2, lambda v: mix_seed(5, v), ValueError),
    ("schemes", 3, accumulate, ValueError),
    ("schemes", 3, mc_accumulate, ValueError),
    ("warmup", 4, lambda v: list(old_new_pairs(RECORDS, warmup=v)), ValueError),
    ("address", 128, lambda v: WriteRecord(v, bytes(64)), ValueError),
    ("warmup", 4, lambda v: experiment(warmup=v), ConfigError),
    ("seed", 11, lambda v: experiment(seed=v), ConfigError),
    ("trials", 30, lambda v: experiment(trials=v), ConfigError),
]
IDS = [
    "WorkloadSpec.records", "WorkloadSpec.addresses", "WorkloadSpec.base_addr", "WorkloadSpec.width",
    "WorkloadSpec.pinned_top_bits", "WorkloadSpec.valid_words_min", "WorkloadSpec.valid_words_max",
    "gen_workload.seed", "InjectionConfig.trials", "InjectionConfig.seed",
    "monte_carlo_block.record_index", "mix_seed.seed", "mix_seed.index", "TraceAccumulator.schemes",
    "MonteCarloAccumulator.schemes", "old_new_pairs.warmup", "WriteRecord.address",
    "ExperimentConfig.warmup", "ExperimentConfig.seed", "ExperimentConfig.trials",
]


@pytest.mark.parametrize("bad", [1.5, 2.0, "1", None], ids=repr)
@pytest.mark.parametrize("name,valid,call,error", SETTINGS, ids=IDS)
def test_a_non_integer_setting_is_refused_by_name(name, valid, call, error, bad):
    with pytest.raises(error, match=f"^{re.escape(f'{name} must be an integer, got {bad!r}')}$"):
        call(bad)


@pytest.mark.parametrize("name,valid,call,error", SETTINGS, ids=IDS)
def test_a_setting_below_its_range_is_refused_by_name(name, valid, call, error):
    # every range above starts at or above 0
    with pytest.raises(error, match=f"^{re.escape(name)} must lie in \\[\\d+, \\w+\\], got -64$"):
        call(-64)


@pytest.mark.parametrize("numpy_type", [np.int32, np.uint64])
@pytest.mark.parametrize("name,valid,call,error", SETTINGS, ids=IDS)
def test_a_numpy_integer_setting_acts_as_its_int(name, valid, call, error, numpy_type):
    assert call(numpy_type(valid)) == call(valid)


def test_a_fractional_seed_or_address_pool_does_not_replay_an_integer_one():
    spec = WorkloadSpec("irregular", records=200)
    with pytest.raises(ValueError, match="^seed must be an integer, got 1.5$"):
        gen_workload(spec, 1.5)
    with pytest.raises(ValueError, match="^addresses must be an integer, got 2.5$"):
        WorkloadSpec("irregular", records=200, addresses=2.5)


def test_numpy_integer_fields_are_stored_as_ints():
    spec = WorkloadSpec("partialvalid", records=np.uint64(9), addresses=np.int32(4), valid_words=(np.uint8(2), 5))
    assert [type(value) for value in (spec.records, spec.addresses, *spec.valid_words)] == [int] * 4
    cfg = InjectionConfig(pw=0.5, scheme=ROBIN, trials=np.uint64(3), seed=np.uint64(2**64 - 1))
    assert (type(cfg.trials), type(cfg.seed)) == (int, int)
