import csv
import math
import xml.etree.ElementTree as ET
from dataclasses import fields

import numpy as np
import pytest

import oracle
from robinsim import config, mapping
from robinsim.config import config_from_values, load_config, parse_config_text
from robinsim.injection import InjectionConfig, MonteCarloAccumulator
from robinsim.mapping import MappingScheme, scheme_counts, transition_vector
from robinsim.reliability import DeviceParams, normalized_increase, trace_error_rate
from robinsim.report import (
    ConfigError,
    ExperimentConfig,
    emit_csv,
    emit_svg,
    format_sig,
    make_pairs,
    run_experiment,
)
from robinsim.trace import WriteRecord, codeword_stats, old_new_pairs, pair_batches, save_trace
from robinsim.workloads import KINDS as WORKLOAD_KINDS
from robinsim.workloads import WorkloadSpec, gen_workload


def small_config(**overrides):
    base = dict(
        workload=WorkloadSpec(kind="narrowint32", records=300, addresses=8),
        pw=0.999,
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_validation_requires_one_input_source():
    with pytest.raises(ConfigError):
        ExperimentConfig(pw=0.9).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(
            trace_path="x.jsonl",
            workload=WorkloadSpec(kind="irregular", records=1),
            pw=0.9,
        ).validate()


def test_validation_requires_one_pw_source():
    from robinsim.reliability import DeviceParams

    with pytest.raises(ConfigError):
        small_config(pw=None).validate()
    device = DeviceParams(t_write=2.0, i_write=1.5, i_c0=1.0, polarization=0.5,
                          magnetic_moment=0.75, mu_b=1.25, delta=4.0, e_charge=2.0)
    with pytest.raises(ConfigError):
        small_config(device=device).validate()
    cfg = small_config(pw=None, device=device)
    assert 0 < cfg.validate()[1].pw < 1


def test_validation_rejects_bad_trials_without_monte_carlo():
    with pytest.raises(ConfigError, match="trials"):
        small_config(trials=-5, monte_carlo=False).validate()
    with pytest.raises(ConfigError, match="trials"):
        config_from_values({"workload": "irregular", "records": "10", "pw": "0.999", "trials": "0"})


def test_validation_rejects_seeds_outside_64_bits():
    small_config(seed=2**64 - 1).validate()
    for seed in (-1, 2**64, 2**64 + 5):
        with pytest.raises(ConfigError, match="seed"):
            small_config(seed=seed).validate()


def test_validation_rejects_trials_past_32_bits():
    small_config(trials=2**32 - 1).validate()
    for trials in (2**32, 2**63):
        with pytest.raises(ConfigError, match="trials"):
            small_config(trials=trials).validate()


def test_validation_maps_device_formula_errors_to_config_error():
    from robinsim.reliability import DeviceParams

    # ln(pi^2 * delta / 4) < 0 for a small delta, and a large moment then drives
    # the formula's denominator negative (about -16.9 here)
    device = DeviceParams(t_write=2.0, i_write=1.5, i_c0=1.0, polarization=0.5,
                          magnetic_moment=10.0, mu_b=1.25, delta=0.1, e_charge=1.0)
    with pytest.raises(ConfigError, match="denominator"):
        small_config(pw=None, device=device).validate()


def test_validation_schemes():
    with pytest.raises(ConfigError):
        small_config(schemes=()).validate()
    with pytest.raises(ConfigError):
        small_config(schemes=("per-word", "per-word")).validate()
    with pytest.raises(ConfigError):
        small_config(schemes=("diagonal",)).validate()


def test_identical_write_trace_reports_zero_rates(tmp_path):
    data = bytes(range(64))
    path = tmp_path / "same.jsonl"
    save_trace(path, [WriteRecord(0, data)] * 5)
    # warmup=1 so every analyzed write overwrites identical content
    cfg = ExperimentConfig(trace_path=str(path), pw=0.999, warmup=1)
    bundle = run_experiment(cfg)
    assert bundle.writes == 4
    assert not bundle.histogram.any()
    for report in bundle.schemes:
        assert report.analytic_rate == 0.0
        assert report.optimal_rate == 0.0
        assert report.increase_pct is None  # absent when the optimal rate is zero
        assert normalized_increase(report.analytic_rate, report.optimal_rate) == 0.0


def test_empty_input_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ConfigError, match="no write records"):
        run_experiment(ExperimentConfig(trace_path=str(path), pw=0.999))


@pytest.mark.parametrize("include_ecc", [True, False])
def test_run_experiment_matches_streaming_oracles(include_ecc):
    """The batched engine must agree with the per-bit, one-pair-at-a-time reference."""
    # more records than one 512-pair batch, so a batch boundary is crossed
    cfg = small_config(
        workload=WorkloadSpec(kind="narrowint32", records=600, addresses=8), include_ecc=include_ecc
    )
    bundle = run_experiment(cfg)
    pairs = list(old_new_pairs(gen_workload(cfg.workload, cfg.seed)))
    assert bundle.writes == len(pairs) == 600
    for report in bundle.schemes:
        counts = [oracle.flip_counts(report.scheme, o, n, include_ecc) for o, n in pairs]
        rate, optimal = oracle.trace_rates(
            [data if check is None else [d + c for d, c in zip(data, check)] for data, check in counts],
            cfg.pw,
        )
        assert report.analytic_rate == pytest.approx(rate, rel=1e-9)
        assert report.optimal_rate == pytest.approx(optimal, rel=1e-9)
        assert report.increase_pct == pytest.approx((rate / optimal - 1.0) * 100.0, rel=1e-9)
        min_avg, max_avg = oracle.spread([data for data, _ in counts])
        assert report.stats.min_avg_pct == pytest.approx(min_avg, rel=1e-9)
        assert report.stats.max_avg_pct == pytest.approx(max_avg, rel=1e-9)
    # the per-bit histogram, counted bit by bit per pair
    want = [0] * 512
    for old, new in pairs:
        for flat in range(512):
            want[flat] += (old[flat // 8] ^ new[flat // 8]) >> (flat % 8) & 1
    assert bundle.histogram.dtype == np.int64
    assert bundle.histogram.tolist() == want


@pytest.mark.parametrize("kind", WORKLOAD_KINDS)
def test_per_write_api_equals_run_experiment(kind):
    """One write at a time, the library API gives run_experiment's numbers exactly."""
    # 600 records cross one 512-write batch boundary, where both sides reduce their sums
    cfg = small_config(workload=WorkloadSpec(kind=kind, records=600))
    bundle = run_experiment(cfg)
    pairs = list(make_pairs(cfg))
    for report in bundle.schemes:
        scheme = MappingScheme(report.scheme)
        rates = trace_error_rate([transition_vector(scheme, old, new) for old, new in pairs], cfg.pw)
        assert rates.rate == report.analytic_rate
        assert rates.optimal_rate == report.optimal_rate
        assert rates.writes == bundle.writes == 600
        assert codeword_stats(pairs, scheme, include_ecc=False) == report.stats


SUBSETS = (("per-word", "interleaved", "robin"), ("robin", "per-word"), ("robin",), ("per-word",))


@pytest.mark.parametrize("include_ecc", [True, False], ids=("ecc", "data"))
def test_scheme_rows_do_not_depend_on_the_other_schemes(tmp_path, include_ecc):
    """A scheme's CSV lines are the same text with 1, 2 or 3 schemes in the run, and its numbers equal."""
    # 2000 records are four batches, the last one short
    workload = WorkloadSpec(kind="irregular", records=2000, addresses=256)
    reports = {}
    for schemes in SUBSETS:
        bundle = run_experiment(small_config(workload=workload, schemes=schemes, include_ecc=include_ecc))
        emit_csv(bundle, tmp_path / "+".join(schemes))
        for report in bundle.schemes:
            reports.setdefault(report.scheme, []).append(report)
    for scheme in ("robin", "per-word"):
        assert len(reports[scheme]) == 3 and reports[scheme].count(reports[scheme][0]) == 3
        runs = [
            [
                line
                for name in ("error_rates.csv", "codeword_stats.csv")
                for line in (tmp_path / "+".join(schemes) / name).read_text().splitlines()
                if line.startswith(scheme + ",")
            ]
            for schemes in SUBSETS
            if scheme in schemes
        ]
        assert len(runs) == 3 and len(runs[0]) == 5
        assert runs[1] == runs[0] and runs[2] == runs[0], scheme


def test_run_experiment_monte_carlo_within_three_sigma():
    cfg = small_config(
        workload=WorkloadSpec(kind="narrowint32", records=40, addresses=4),
        monte_carlo=True,
        trials=20_000,
    )
    bundle = run_experiment(cfg)
    for report in bundle.schemes:
        assert report.mc is not None
        assert abs(report.mc.error_rate - report.analytic_rate) <= 3 * max(report.mc.stderr, 1e-9)


@pytest.mark.parametrize("records,warmup", [(600, 0), (750, 150)])
def test_run_experiment_monte_carlo_independent_of_batches(records, warmup):
    # 600 writes after warmup span two 512-write batches of the streaming pass
    cfg = small_config(
        workload=WorkloadSpec(kind="irregular", records=records, addresses=16),
        monte_carlo=True,
        trials=20,
        warmup=warmup,
    )
    bundle = run_experiment(cfg)
    pairs = list(make_pairs(cfg))
    assert len(pairs) == 600
    for report in bundle.schemes:
        inj = InjectionConfig(pw=cfg.pw, scheme=MappingScheme(report.scheme), trials=cfg.trials, seed=cfg.seed)
        # the scheme alone, fed the pairs in pair_batches' batches: record 0 is
        # the first write after warmup
        accumulator = MonteCarloAccumulator(inj)
        for olds, news in pair_batches(pairs):
            accumulator.add_batch(scheme_counts((inj.scheme,), olds ^ news)[1])
        assert [report.mc] == accumulator.finalize()


@pytest.mark.parametrize("include_ecc", [False, True], ids=["data", "ecc"])
def test_monte_carlo_run_counts_each_batch_once(monkeypatch, include_ecc):
    # Monte Carlo simulates the cells of the run's own counts: every batch
    # takes one data-table lookup, and one check-table lookup with ECC on
    lookups = []
    lane_table = mapping._lane_table

    def counted(schemes, check):
        lookups.append(check)
        return lane_table(schemes, check)

    monkeypatch.setattr(mapping, "_lane_table", counted)
    # 1100 records are three 512-write batches
    cfg = small_config(
        workload=WorkloadSpec(kind="irregular", records=1100, addresses=16),
        monte_carlo=True,
        trials=10,
        include_ecc=include_ecc,
    )
    bundle = run_experiment(cfg)
    assert all(report.mc.records == 1100 for report in bundle.schemes)
    assert (lookups.count(False), lookups.count(True)) == (3, 3 if include_ecc else 0)


def test_results_holding_arrays_compare_by_identity():
    # an array has no one truth value, so a field-wise == would raise
    cfg = small_config(workload=WorkloadSpec(kind="irregular", records=200, addresses=8))
    first, second = (run_experiment(cfg) for _ in range(2))
    assert first == first and not first != first
    assert (first == second) is False and first != second
    assert len({first, second}) == 2


def test_csv_emission_schema(tmp_path):
    bundle = run_experiment(small_config())
    paths = emit_csv(bundle, tmp_path)
    names = sorted(p.name for p in paths)
    assert names == ["codeword_stats.csv", "error_rates.csv", "histogram.csv"]

    hist = read_csv(tmp_path / "histogram.csv")
    assert hist[0] == ["flat_index", "count"]
    assert len(hist) == 1 + 512
    assert [row[0] for row in hist[1:]] == [str(i) for i in range(512)]

    stats = read_csv(tmp_path / "codeword_stats.csv")
    assert stats[0] == ["scheme", "stat", "value-%"]
    assert len(stats) == 1 + 3 * 4

    rates = read_csv(tmp_path / "error_rates.csv")
    assert rates[0] == ["scheme", "analytic_rate", "optimal_rate", "increase_pct", "mc_rate", "mc_stderr"]
    assert len(rates) == 1 + 3
    assert [row[0] for row in rates[1:]] == ["per-word", "interleaved", "robin"]
    # without Monte Carlo the mc columns are empty
    assert all(row[4] == "" and row[5] == "" for row in rates[1:])


def test_csv_increase_recomputable_to_six_digits(tmp_path):
    bundle = run_experiment(small_config())
    emit_csv(bundle, tmp_path)
    for row in read_csv(tmp_path / "error_rates.csv")[1:]:
        rate, optimal, increase = float(row[1]), float(row[2]), float(row[3])
        recomputed = (rate / optimal - 1.0) * 100.0
        assert increase == pytest.approx(recomputed, rel=2e-5)


def test_csv_reruns_are_byte_identical(tmp_path):
    cfg = small_config()
    emit_csv(run_experiment(cfg), tmp_path / "a")
    emit_csv(run_experiment(cfg), tmp_path / "b")
    for name in ("histogram.csv", "codeword_stats.csv", "error_rates.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_svg_emission_parses_and_reflects_bundle(tmp_path):
    bundle = run_experiment(small_config(monte_carlo=True, trials=200))
    paths = emit_svg(bundle, tmp_path)
    assert sorted(p.name for p in paths) == ["error_increase.svg", "histogram.svg", "variation.svg"]
    for path in paths:
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")

    variation = (tmp_path / "variation.svg").read_text()
    assert variation.count("<rect") >= 1 + 9  # frame + 3 bars per scheme
    for report in bundle.schemes:
        assert report.scheme in variation
        assert format_sig(report.stats.max_avg_pct) in variation

    increase = (tmp_path / "error_increase.svg").read_text()
    for report in bundle.schemes:
        assert format_sig(report.increase_pct) in increase
        assert format_sig(report.mc.error_rate) in increase  # mc series present

    no_mc = run_experiment(small_config())
    emit_svg(no_mc, tmp_path / "plain")
    plain = (tmp_path / "plain" / "error_increase.svg").read_text()
    assert "mc_rate" not in plain


def test_histogram_svg_has_word_gridlines(tmp_path):
    bundle = run_experiment(small_config())
    emit_svg(bundle, tmp_path)
    text = (tmp_path / "histogram.svg").read_text()
    assert text.count("<line") >= 9
    assert "word 7" in text
    assert "<polyline" in text


def test_histogram_svg_uniform_counts_render_flat(tmp_path):
    # a full-flip write touches every position once: the polyline is a flat line
    path = tmp_path / "flip.jsonl"
    save_trace(path, [WriteRecord(0, bytes(64)), WriteRecord(0, bytes([0xFF]) * 64)])
    bundle = run_experiment(ExperimentConfig(trace_path=str(path), pw=0.999, warmup=1))
    assert (bundle.histogram == 1).all()
    emit_svg(bundle, tmp_path)
    text = (tmp_path / "histogram.svg").read_text()
    points = text.split('points="')[1].split('"')[0].split()
    ys = {point.split(",")[1] for point in points}
    assert len(ys) == 1


def test_format_sig():
    assert format_sig(None) == ""
    assert format_sig(0.0) == "0"
    assert format_sig(1.0) == "1"
    assert format_sig(math.inf) == "inf"
    assert format_sig(0.0123456789) == "0.0123457"
    assert format_sig(123456789.0) == "123457000"
    assert format_sig(1.23456789e-7) == "0.000000123457"
    assert "e" not in format_sig(9.87654321e-9)


def test_parse_config_text_and_build():
    text = """
    # comment
    workload = narrowint32
    records = 120
    addresses = 8
    width = 10
    schemes = robin , per-word
    pw = 0.995
    include_ecc = false
    monte_carlo = true
    trials = 50
    seed = 9
    warmup = 10
    out = somewhere
    """
    values = parse_config_text(text)
    cfg = config_from_values(values)
    assert cfg.workload.kind == "narrowint32"
    assert cfg.workload.width == 10
    assert cfg.schemes == ("robin", "per-word")
    assert cfg.pw == 0.995
    assert cfg.include_ecc is False
    assert cfg.monte_carlo is True
    assert (cfg.trials, cfg.seed, cfg.warmup) == (50, 9, 10)
    assert cfg.out_dir == "somewhere"


def test_config_parses_every_workload_key():
    text = """
    workload = irregular
    records = 0x20
    addresses = 8
    base_addr = 0x40
    walk_scale = 0.5
    walk_jitter = 1.5
    width = 10
    update_rate = 0.25
    valid_words_min = 2
    valid_words_max = 5
    pinned_top_bits = 4
    pw = 0.9
    """
    assert config_from_values(parse_config_text(text)).workload == WorkloadSpec(
        kind="irregular", records=32, addresses=8, base_addr=64, walk_scale=0.5, walk_jitter=1.5,
        width=10, update_rate=0.25, valid_words=(2, 5), pinned_top_bits=4,
    )
    for key in ("addresses", "base_addr", "width", "valid_words_min", "pinned_top_bits"):
        with pytest.raises(ConfigError, match=f"^{key}: expected an integer, got '1.5'$"):
            config_from_values(parse_config_text(f"workload = irregular\nrecords = 5\n{key} = 1.5"))
    # the missing records count is reported before any bad value
    with pytest.raises(ConfigError, match="requires a records count"):
        config_from_values(parse_config_text("workload = irregular\nwidth = junk\npw = x"))
    # scalar keys are parsed in a fixed order: pw, include_ecc, monte_carlo, trials, seed, warmup
    with pytest.raises(ConfigError, match="^trials: "):
        config_from_values(parse_config_text("workload = irregular\nrecords = 5\nwarmup = x\ntrials = x"))


def test_parse_config_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("bogus = 1")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("pw = 0.9\npw = 0.8")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just words")


CONFIG_KEYS = [
    "addresses", "base_addr", "device_delta", "device_e_charge", "device_i_c0", "device_i_write",
    "device_magnetic_moment", "device_mu_b", "device_polarization", "device_t_write",
    "include_ecc", "monte_carlo", "out", "pinned_top_bits", "pw", "records", "schemes", "seed",
    "trace", "trace_format", "trials", "update_rate", "valid_words_max", "valid_words_min",
    "walk_jitter", "walk_scale", "warmup", "width", "workload",
]
# the keys that set each field that is not an int, float or bool; every other
# field is set by the key of its name, device_ before a DeviceParams field's
NAMED_KEYS = {
    (ExperimentConfig, "trace_path"): {"trace"},
    (ExperimentConfig, "trace_format"): {"trace_format"},
    (ExperimentConfig, "workload"): {"workload"},
    (ExperimentConfig, "schemes"): {"schemes"},
    (ExperimentConfig, "device"): {f"device_{item.name}" for item in fields(DeviceParams)},
    (ExperimentConfig, "out_dir"): {"out"},
    (WorkloadSpec, "kind"): {"workload"},
    (WorkloadSpec, "valid_words"): {"valid_words_min", "valid_words_max"},
}


def test_every_field_of_the_run_types_is_set_by_a_config_key():
    # a field whose annotation has no parser gets no derived key and fails here
    assert sorted(config._KNOWN_KEYS) == CONFIG_KEYS
    for cls, prefix in ((ExperimentConfig, ""), (WorkloadSpec, ""), (DeviceParams, "device_")):
        for item in fields(cls):
            keys = NAMED_KEYS.get((cls, item.name), {prefix + item.name})
            assert keys <= config._KNOWN_KEYS, f"{cls.__name__}.{item.name}: no key {sorted(keys)}"


def test_config_device_params_path():
    values = parse_config_text(
        """
        workload = irregular
        records = 10
        device_t_write = 2.0
        device_i_write = 1.5
        device_i_c0 = 1.0
        device_polarization = 0.5
        device_magnetic_moment = 0.75
        device_mu_b = 1.25
        device_delta = 4.0
        device_e_charge = 2.0
        """
    )
    cfg = config_from_values(values)
    assert cfg.pw is None
    assert cfg.validate()[1].pw == pytest.approx(0.22638117613454956, rel=1e-12)


def test_config_device_params_incomplete():
    with pytest.raises(ConfigError, match="incomplete"):
        config_from_values(parse_config_text("workload = irregular\nrecords = 5\ndevice_t_write = 1"))


def test_config_workload_keys_without_kind():
    with pytest.raises(ConfigError, match="without a workload kind"):
        config_from_values(parse_config_text("trace = x.jsonl\npw = 0.9\nrecords = 10"))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")
