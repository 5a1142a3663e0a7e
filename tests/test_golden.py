"""Golden SHA-256 digests of generator streams, emitted CSVs and SVG charts.

The stream digests are of the v2 workload stream, computed from the slow
per-record reference ``oracle.workload_stream``, never from
``robinsim.workloads``; the CSV and SVG digests are of the files
``emit_csv`` and ``emit_svg`` write for ``run_experiment`` of each RUNS
config. They must never be re-frozen from changed code: a mismatch means a
stream, a CSV or a chart changed.

All four kinds are covered. The v2 walk of ``float64walk`` and
``partialvalid`` is integer arithmetic on the doubles' bit patterns, so its
bytes do not depend on the machine's math library.

The Monte Carlo columns of ``narrowint32-monte-carlo``'s ``error_rates.csv``
come from the v2 Monte Carlo stream; that digest was re-frozen when the
stream was declared, and ``test_monte_carlo_columns_match_reference`` checks
those columns against the gap-by-gap reference ``oracle.mc_trace``.
"""

import hashlib

import pytest

import oracle
from robinsim.report import ExperimentConfig, emit_csv, emit_svg, format_sig, run_experiment
from robinsim.workloads import WorkloadSpec, gen_workload

STREAM_RECORDS = 3000

STREAMS = {
    "float64walk-default": (
        dict(kind="float64walk"),
        "d5639aa3eb03e2cde04a49919ce67a4e2c15f69d03870ef27ee2ed676b549e5c",
    ),
    "float64walk-knobs": (
        dict(kind="float64walk", walk_scale=2.0**-10, walk_jitter=1.5, addresses=9, base_addr=0x1000),
        "8be590274457efe208c694855507da4328dd2ae83f18f5797ba7bf6bc5f0a19b",
    ),
    "narrowint32-default": (
        dict(kind="narrowint32"),
        "e74829f0eb47a1fd75a0fccbb34dabe4972f9729e3e7c7f6deed99a7c3b23c09",
    ),
    "narrowint32-knobs": (
        dict(kind="narrowint32", width=5, update_rate=0.3, addresses=7, base_addr=0x4000),
        "3ce90ecedc00c9def32b8bd10a095776b1b4e4d5c527d7b64e198856aa5f5ce0",
    ),
    "partialvalid-default": (
        dict(kind="partialvalid"),
        "599cd5e7c6e61dcd4168ed93aca487c151b34205c50ceffb008fd645662ec7ba",
    ),
    "partialvalid-knobs": (
        dict(kind="partialvalid", valid_words=(2, 5), addresses=5, base_addr=0x80),
        "0af5c0b3512d50aba5a59a6ee362b1cd8dc031720f4102e1e2dbf1a6f5ed375e",
    ),
    "irregular-default": (
        dict(kind="irregular"),
        "457a26b7a17b315b778c68234649a38666c1d901f3f932c52d0b80029f593aa1",
    ),
    "irregular-knobs": (
        dict(kind="irregular", pinned_top_bits=0, addresses=5, base_addr=0x40),
        "451b9446e77e5f0b17fd08745f86c91af43cd2ab5b62ae02f4da288d576c287d",
    ),
}

RUNS = {
    "narrowint32-analytic": (
        dict(workload=WorkloadSpec("narrowint32", records=1500), pw=0.999, seed=3),
        {
            "histogram.csv": "828b01ddfb71f7332b9415fd37952825c622e7f7320434027fe40d48e1cb99e5",
            "codeword_stats.csv": "d15d63cc7bc40857a0a3809eb6d61baee2cceb4a87955c52fe71d6b35a53c78f",
            "error_rates.csv": "aa5c8ed35e9bd5908aa5926448baf23bf226260a3d8093e2998409d85b767415",
        },
    ),
    "irregular-analytic": (
        dict(workload=WorkloadSpec("irregular", records=1500, addresses=16), pw=0.99, seed=3),
        {
            "histogram.csv": "a17b37d85d2bb442a98f7b0cc5ab8765a871cef43a41a45c837c7c3995a0a72e",
            "codeword_stats.csv": "4cf63a6361464067761b603abab852824e27b7ea82e90de84e8e3e4a9dcc3761",
            "error_rates.csv": "a20cddc077c5de1826e3daacaf39e754854dc0b8eb9da42dd8156a8eee6b170b",
        },
    ),
    "partialvalid-analytic": (
        dict(workload=WorkloadSpec("partialvalid", records=1500, addresses=16), pw=0.999, seed=3),
        {
            "histogram.csv": "ef393001a05507e7547aa7000f468ca574b634f0991c577e92c05e8249761b66",
            "codeword_stats.csv": "7520d5cfaecc9287ffb0786baccf898e57989cccd470d1fc38275b37da1b2fce",
            "error_rates.csv": "3c61efbd46620fe1ff139f1ccafe514bdc888f0662f941416ef403a877362e48",
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
            "histogram.csv": "eaae2d3acc4a2a8fc56800045f88ec32751b84df6afd761a4e0ed7ff42caf10b",
            "codeword_stats.csv": "ec1cafcd20bc13edde2fdaf4ddcbeb5b7a705bcc131c6b8625c4dd999900acdc",
            "error_rates.csv": "6e3c4c1f929cfd87bb4e5f6cc3fa1a183561bf67fc7f183e5ac413575baa1eaa",
        },
    ),
}


# the three SVG charts of each RUNS config
SVG_DIGESTS = {
    "narrowint32-analytic": {
        "histogram.svg": "ef8572810258afb1f6e76658edd0a86ea88957004955d8582f4132726f055ce2",
        "variation.svg": "2f0630e8d69c8c288884f533d16baab074f0ebc029e0917b8543054645d61690",
        "error_increase.svg": "ac0c36c43c6454e64cb7944d30c184e0e590dab275463bdee610c6870508a835",
    },
    "irregular-analytic": {
        "histogram.svg": "53c0facd35cd714493c9cc3c121e1e1b30fe7922acfb71391bb4eb5b6013a286",
        "variation.svg": "54db86dd86ec631320e2e3cc7fe52d2f306384731b25342af66cd990864506ff",
        "error_increase.svg": "67539684b3eae973643fe6031e34540861f2d47268a2eb037262edd4813da123",
    },
    "partialvalid-analytic": {
        "histogram.svg": "93e572dbb5e1d265caa240e481039a0521344e8847fa4eb683682f28c52dd90e",
        "variation.svg": "aec41528e85d3e60117447dcfca914eecb7f5e73ef86d3326eea8a8a38489936",
        "error_increase.svg": "1ab8d31d9c4bc954026ddbd3823be1c3d40950a954f073734c7b9c2369ed535a",
    },
    "narrowint32-monte-carlo": {
        "histogram.svg": "3949cd6f70237813fbf4fb6d69a6f4290560b82d0703520d58ea29e2dff543a7",
        "variation.svg": "90595ef9098843b6a4b72f262a5c43780c6a6265bd9193ac7d82ff381631dfe3",
        "error_increase.svg": "7d21280b1ec746fd2cab9c971a0fd6da91f1a7a913ad487debb6bef2ffa7839d",
    },
}


def stream_digest(records) -> str:
    """Digest of (addr, payload) pairs: 8-byte little-endian address, then the payload."""
    digest = hashlib.sha256()
    for addr, data in records:
        digest.update(addr.to_bytes(8, "little"))
        digest.update(data)
    return digest.hexdigest()


def file_digests(paths) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


def csv_digests(cfg: ExperimentConfig, out_dir) -> dict[str, str]:
    return file_digests(emit_csv(run_experiment(cfg), out_dir))


@pytest.mark.parametrize("name", STREAMS)
def test_generator_stream_digest(name):
    kwargs, expected = STREAMS[name]
    records = gen_workload(WorkloadSpec(records=STREAM_RECORDS, **kwargs), seed=11)
    assert stream_digest((r.addr, r.data) for r in records) == expected


@pytest.mark.parametrize("name", STREAMS)
def test_reference_stream_digest(name):
    kwargs, expected = STREAMS[name]
    assert stream_digest(oracle.workload_stream(WorkloadSpec(records=STREAM_RECORDS, **kwargs), seed=11)) == expected


@pytest.mark.parametrize("name", RUNS)
def test_emitted_csv_digests(name, tmp_path):
    kwargs, expected = RUNS[name]
    assert csv_digests(ExperimentConfig(**kwargs), tmp_path) == expected


@pytest.mark.parametrize("name", RUNS)
def test_emitted_svg_digests(name, tmp_path):
    kwargs, _ = RUNS[name]
    digests = file_digests(emit_svg(run_experiment(ExperimentConfig(**kwargs)), tmp_path))
    # a dict compares unordered, so the return order is checked on its own
    assert list(digests) == ["histogram.svg", "variation.svg", "error_increase.svg"]
    assert digests == SVG_DIGESTS[name]


def test_monte_carlo_columns_match_reference(tmp_path):
    kwargs, _ = RUNS["narrowint32-monte-carlo"]
    cfg = ExperimentConfig(**kwargs)
    # the reference stream replayed against a dict store, counted bit by bit
    store, rows = {}, {kind: [] for kind in cfg.schemes}
    for addr, new in oracle.workload_stream(cfg.workload, cfg.seed):
        old = store.get(addr, bytes(64))
        store[addr] = new
        for kind in cfg.schemes:
            data, check = oracle.flip_counts(kind, old, new, cfg.include_ecc)
            rows[kind].append([d + c for d, c in zip(data, check)])
    emit_csv(run_experiment(cfg), tmp_path)
    lines = (tmp_path / "error_rates.csv").read_text().splitlines()
    assert len(lines) == 1 + len(cfg.schemes)
    for line in lines[1:]:
        scheme, *_, mc_rate, mc_stderr = line.split(",")
        rate, stderr = oracle.mc_trace(rows[scheme], cfg.pw, cfg.trials, cfg.seed)
        assert (mc_rate, mc_stderr) == (format_sig(rate), format_sig(stderr))
