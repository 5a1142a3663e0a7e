"""Golden SHA-256 digests of generator streams and emitted CSVs.

The digests were computed once from the code before the workload generators
and the fault injector were rewritten, and must never be re-frozen from
changed code: a mismatch means a stream or a CSV changed.

The float-walk kinds (``float64walk``, ``partialvalid``) are left out on
purpose. Their payloads come from ``np.exp2``, which numpy may dispatch to a
vectorized math library on some CPUs, so their bytes can differ between
machines.
"""

import hashlib

import pytest

from robinsim.report import ExperimentConfig, emit_csv, run_experiment
from robinsim.workloads import WorkloadSpec, gen_workload

STREAM_RECORDS = 3000

STREAMS = {
    "narrowint32-default": (
        dict(kind="narrowint32"),
        "3aaccd483429449e343e28a35156c0d3e7c4f16d7e70602670acbe92eeed1f93",
    ),
    "narrowint32-knobs": (
        dict(kind="narrowint32", width=5, update_rate=0.3, addresses=7, base_addr=0x4000),
        "184f233c64bce11447bca2bfb5fddd61c6106d8bbf09201c2f49ce683ce8ff05",
    ),
    "irregular-default": (
        dict(kind="irregular"),
        "50bab87f2c44f7726fd0ac84fdbad2107e759134d844387d44d93d03c7aca2cd",
    ),
    "irregular-knobs": (
        dict(kind="irregular", pinned_top_bits=0, addresses=5, base_addr=0x40),
        "bf9af6db80cea6585d9536523780f68150d6e0d574a9a85a039d9e568b39ab48",
    ),
}

RUNS = {
    "narrowint32-analytic": (
        dict(workload=WorkloadSpec("narrowint32", records=1500), pw=0.999, seed=3),
        {
            "histogram.csv": "a4ee5d7afead5b7778e60c8e9e0da56d22c38c695e77d237926d5bd4b2a70c24",
            "codeword_stats.csv": "3fb3f88b9348615b1664591c1416efd9c94e0b3b8100b1f7eead540c76a1534c",
            "error_rates.csv": "b6d7367ccf98368092169e2daa7c52ef083ded626346dfd19e0006c47d1d8093",
        },
    ),
    "irregular-analytic": (
        dict(workload=WorkloadSpec("irregular", records=1500, addresses=16), pw=0.99, seed=3),
        {
            "histogram.csv": "4b6ab4d136a4986b2b28ccd0b825cc1776c3ac05305633f5ba26aa767a0fc71b",
            "codeword_stats.csv": "349fac5d9e203c13114c25166a524544ea0fa8bf0edbad8f1abe4d15ce5c90ae",
            "error_rates.csv": "d572298515763e4e3a6e3891efa26c001e3f87c8024c67fb75a744d00896c8c8",
        },
    ),
    "narrowint32-monte-carlo": (
        dict(
            workload=WorkloadSpec("narrowint32", records=200, addresses=16),
            pw=0.99,
            seed=4,
            monte_carlo=True,
            trials=500,
        ),
        {
            "histogram.csv": "175a081cec90b8c13f55a41d4627665659e92a1cf725a8a7d48b83ab0d6add06",
            "codeword_stats.csv": "db5fd53ff5950619dfd0d33da9a4676dae8bcc36745679aaf579544d6f8ff69e",
            "error_rates.csv": "4faac82bfed8766873fb610d3c2dfc253f2fddc39590fc7dc5a603b58a6fb587",
        },
    ),
}


def stream_digest(spec: WorkloadSpec, seed: int) -> str:
    digest = hashlib.sha256()
    for record in gen_workload(spec, seed):
        digest.update(record.addr.to_bytes(8, "little"))
        digest.update(record.data)
    return digest.hexdigest()


def csv_digests(cfg: ExperimentConfig, out_dir) -> dict[str, str]:
    paths = emit_csv(run_experiment(cfg), out_dir)
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


@pytest.mark.parametrize("name", STREAMS)
def test_generator_stream_digest(name):
    kwargs, expected = STREAMS[name]
    assert stream_digest(WorkloadSpec(records=STREAM_RECORDS, **kwargs), seed=11) == expected


@pytest.mark.parametrize("name", RUNS)
def test_emitted_csv_digests(name, tmp_path):
    kwargs, expected = RUNS[name]
    assert csv_digests(ExperimentConfig(**kwargs), tmp_path) == expected
