"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[acceptance] <criterion>: PASS/FAIL` line (visible with
`pytest -s` or on failure).
"""

import math
import time
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

import oracle
from robinsim import secded
from robinsim.cli import main as cli_main
from robinsim.injection import InjectionConfig, monte_carlo_block
from robinsim.mapping import (
    INTERLEAVED,
    PER_WORD,
    ROBIN,
    scheme_counts,
    transition_vector,
    verify_partition,
)
from robinsim.reliability import (
    DeviceParams,
    codeword_log_success_array,
    p_write_from_device,
)
from robinsim.report import ExperimentConfig, run_experiment
from robinsim.workloads import KINDS, WorkloadSpec

SCHEMES = (PER_WORD, INTERLEAVED, ROBIN)
SEEDS = (1, 2, 3)
RECORDS = 10_000
PW = 0.999


def report(name, ok):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {name}"


# -- criterion: partition validity -------------------------------------------


def test_partition_validity():
    start = time.monotonic()
    ok = True
    for scheme in SCHEMES:
        rep = verify_partition(scheme)
        ok &= rep.bijective and rep.codeword_sizes == (64,) * 8
    robin = verify_partition(ROBIN)
    ok &= robin.max_bits_per_byte == (1,) * 8
    ok &= all(row == (8,) * 8 for row in robin.bits_per_word)
    ok &= all(row == (8,) * 8 for row in robin.bits_per_position)
    ok &= (time.monotonic() - start) < 1.0
    report("partition-validity (3 schemes, robin uniformity, <1s)", ok)


# -- criterion: codec soundness ----------------------------------------------


def flipped(data, check, bits):
    """``(data, check)`` with the given codeword bits flipped: 0..63 data, 64..71 check."""
    for bit in bits:
        if bit < 64:
            data ^= 1 << bit
        else:
            check ^= 1 << (bit - 64)
    return data, check


def test_codec_soundness():
    start = time.monotonic()
    rng = np.random.default_rng(0xACCE97)
    drawn = rng.integers(0, 1 << 64, 100, dtype=np.uint64)
    # each of the 64 bits, the top one too, is set in some dataword and clear in another
    bits = np.unpackbits(drawn.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
    assert bits.any(axis=0).all() and not bits.all(axis=0).any()
    datawords = [int(v) for v in drawn]

    miscorrections = 0
    uncorrected_singles = 0
    for data in datawords:
        check = int(secded.encode_words(np.uint64(data)))
        singles = zip(*(flipped(data, check, [bit]) for bit in range(72)))
        _, found, fixed_data, fixed_check = secded.repair_words(*singles)
        uncorrected_singles += int(np.count_nonzero(
            (found != np.arange(72)) | (fixed_data != data) | (fixed_check != check)
        ))
        doubles = zip(*(flipped(data, check, pair) for pair in combinations(range(72), 2)))
        # a double flip must be detected (nonzero syndrome) and never corrected
        syndromes, found = secded.repair_words(*doubles)[:2]
        miscorrections += int(np.count_nonzero((syndromes == 0) | (found != -1)))
    elapsed = time.monotonic() - start
    ok = uncorrected_singles == 0 and miscorrections == 0 and elapsed < 30.0
    report(
        f"codec-soundness (100x72 singles, 100x2556 doubles, {elapsed:.1f}s<30s)",
        ok,
    )


# -- criterion: analytic/empirical agreement ----------------------------------


def test_monte_carlo_matches_analytic():
    start = time.monotonic()
    k_values = (0, 1, 2, 8, 16, 64, 512)
    pws = (0.9, 0.99, 0.999)
    cases = [(k, pw) for k in k_values for pw in pws]
    cases.remove((0, 0.99))  # 21 combos; drop a degenerate K=0 duplicate to get 20
    assert len(cases) == 20

    zero = bytes(64)
    within = 0
    for index, (k, pw) in enumerate(cases):
        payload = bytearray(64)
        for flat in range(k):
            payload[flat // 8] |= 1 << (flat % 8)
        new = bytes(payload)
        tv = transition_vector(ROBIN, zero, new, include_ecc=False)
        assert sum(tv) == k
        expected = math.prod(oracle.codeword_success(k, pw) for k in tv)
        cfg = InjectionConfig(pw=pw, scheme=ROBIN, trials=1_000_000, seed=2024, include_ecc=False)
        # written over a zero block, the payload is its own diff
        cells = scheme_counts((ROBIN,), np.frombuffer(new, np.uint8)[None], include_ecc=False)[1]
        successes = monte_carlo_block(cells, index, cfg)
        sigma = math.sqrt(expected * (1.0 - expected) / cfg.trials)
        if abs(successes[0, 0] / cfg.trials - expected) <= 3.0 * sigma:
            within += 1
    elapsed = time.monotonic() - start
    ok = within >= 19 and elapsed < 300.0
    report(
        f"analytic-empirical-agreement ({within}/20 within 3 sigma at 1e6 trials,"
        f" {elapsed:.0f}s<300s)",
        ok,
    )


# -- criterion: uniformity-optimality oracle ----------------------------------


def compositions(total, parts):
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def test_uniform_split_is_optimal():
    start = time.monotonic()
    pw = 0.99
    success = np.exp(codeword_log_success_array(np.arange(17), pw)).tolist()
    ok = True
    for total in range(0, 17):
        # the real-valued K/8 split, in plain float arithmetic
        bound = oracle.codeword_success(total / 8, pw) ** 8
        best_value = -1.0
        best = None
        for comp in compositions(total, 8):
            value = math.prod(success[k] for k in comp)
            if value > best_value:
                best_value, best = value, comp
            if value > bound + 1e-12:
                ok = False
        base, extra = divmod(total, 8)
        uniform = tuple(sorted([base + 1] * extra + [base] * (8 - extra)))
        ok &= tuple(sorted(best)) == uniform
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    report(f"uniformity-optimality (all compositions K<=16, {elapsed:.0f}s<60s)", ok)


# -- criteria: ordering reproduction and variation gap ------------------------


@pytest.fixture(scope="module")
def workload_metrics():
    metrics = {}
    for kind in KINDS:
        for seed in SEEDS:
            cfg = ExperimentConfig(
                workload=WorkloadSpec(kind=kind, records=RECORDS), pw=PW, seed=seed
            )
            bundle = run_experiment(cfg)
            metrics[kind, seed] = {
                report.scheme: (report.increase_pct, report.stats.gap_pct)
                for report in bundle.schemes
            }
    return metrics


def test_error_rate_increase_ordering(workload_metrics):
    ok = True
    for (kind, seed), by_scheme in workload_metrics.items():
        per_word = by_scheme["per-word"][0]
        interleaved = by_scheme["interleaved"][0]
        robin = by_scheme["robin"][0]
        run_ok = per_word >= interleaved >= robin and robin <= 10.0
        if not run_ok:
            print(f"  ordering violated for {kind} seed={seed}: "
                  f"pw={per_word:.2f} il={interleaved:.2f} rb={robin:.2f}")
        ok &= run_ok
    report(
        "ordering-reproduction (per-word >= interleaved >= robin, robin <= 10%,"
        " 4 kinds x 3 seeds x 10k records)",
        ok,
    )


def test_variation_gap(workload_metrics):
    ok = True
    for kind in ("float64walk", "narrowint32"):
        for seed in SEEDS:
            by_scheme = workload_metrics[kind, seed]
            robin_gap = by_scheme["robin"][1]
            run_ok = (
                robin_gap < by_scheme["per-word"][1] and robin_gap < by_scheme["interleaved"][1]
            )
            if not run_ok:
                print(f"  gap not smallest for {kind} seed={seed}: {by_scheme}")
            ok &= run_ok
    report("variation-gap (robin max-min spread strictly smallest)", ok)


# -- criterion: device formula behavior ---------------------------------------


def test_device_formula_behavior():
    base = dict(
        t_write=2.0,
        i_write=1.5,
        i_c0=1.0,
        polarization=0.5,
        magnetic_moment=0.75,
        mu_b=1.25,
        delta=4.0,
        e_charge=2.0,
    )
    ok = p_write_from_device(DeviceParams(**{**base, "i_write": base["i_c0"]})) == 0.0

    t_grid = np.linspace(0.5, 8.0, 10)
    i_grid = np.linspace(1.05, 4.0, 10)
    surface = np.array(
        [
            [
                p_write_from_device(DeviceParams(**{**base, "t_write": float(t), "i_write": float(i)}))
                for i in i_grid
            ]
            for t in t_grid
        ]
    )
    ok &= bool(np.all(np.diff(surface, axis=0) > 0))  # strictly increasing in t_write
    ok &= bool(np.all(np.diff(surface, axis=1) > 0))  # strictly increasing in i_write
    report("device-formula (p_write=0 at zero overdrive, strict 10x10 monotonicity)", ok)


# -- criterion: determinism ----------------------------------------------------


def test_run_determinism(tmp_path, capsys):
    config = tmp_path / "determinism.cfg"
    config.write_text(
        "workload = irregular\n"
        "records = 400\n"
        "addresses = 16\n"
        "pw = 0.999\n"
        "seed = 77\n"
        "monte_carlo = true\n"
        "trials = 200\n"
    )
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    ok = True
    for name in ("histogram.csv", "codeword_stats.csv", "error_rates.csv"):
        ok &= (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    report("determinism (identical config+seed -> byte-identical CSVs)", ok)
