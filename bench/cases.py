"""The four benchmark workloads, driven only through robinsim's public API.

Each case builds its configs in ``__init__`` (timed as set-up), writes its
fixtures in ``prepare`` (before the clock starts), runs one timed ``op`` and
checks that op's result in ``check``. Layer entry points are looked up on
their modules at call time, so ``tracing.instrument`` can wrap them.

Every check is one that the planned changes to robinsim (a stable closed form,
one batch kernel, a streamed Monte Carlo) must keep true.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from robinsim import injection, mapping, reliability, report, trace
from robinsim.report import ExperimentConfig
from robinsim.workloads import KINDS, WorkloadSpec

from spec import SCHEMES

PW = 0.999
# The decoder cross-check writes at a higher per-bit failure rate so that
# codewords see the 1- and 2-failure cases the decoder must classify.
CROSSCHECK_PW = 0.99
TRIALS = 1000
# MC rate vs analytic rate, in standard errors of the mean of records x trials
# Bernoulli draws; sqrt(r (1 - r) / (records * trials)) at the analytic rate r
# bounds that standard error from above, whatever the per-record spread.
MC_SIGMAS = 4.0
# per-write results vs run_experiment on the same pairs (summation order differs)
PERWRITE_RTOL = 1e-6
# robin's error-rate increase over the uniform-split optimum, in percent
ROBIN_MAX_INCREASE = 10.0
# Scheme ordering tolerates a statistical tie: on partialvalid and float64walk,
# interleaved and robin differ by about 0.15%, and at 5000 records the order
# flipped on 5 of 40 seeds by at most 0.12%.
ORDER_TIE_RTOL = 0.01


def _kind_seed(seed: int, index: int) -> int:
    return seed * len(KINDS) + index


def digest(files: dict[str, bytes]) -> str:
    """SHA-256 over (name, length, content) of every emitted CSV, in name order."""
    sha = hashlib.sha256()
    for name in sorted(files):
        sha.update(f"{name}\0{len(files[name])}\0".encode())
        sha.update(files[name])
    return sha.hexdigest()


def _emit_csv(bundle, outdir: Path, prefix: str) -> dict[str, bytes]:
    return {f"{prefix}/{p.name}": p.read_bytes() for p in report.emit_csv(bundle, outdir)}


def _by_scheme(bundle) -> dict:
    return {r.scheme: r for r in bundle.schemes}


@dataclass
class Result:
    """One op's outputs: bundles or per-write results, plus the emitted CSV bytes."""

    bundles: dict
    files: dict[str, bytes]
    extra: dict


class SynthAnalytic:
    """robinsim run's workload path on all four generators, analytic mode, CSV + SVG."""

    name = "synth-analytic"

    def __init__(self, seed: int, tmp: Path, records: int = 5000) -> None:
        self.out = tmp / "out"
        self.cfgs = {
            kind: ExperimentConfig(
                workload=WorkloadSpec(kind, records=records),
                schemes=SCHEMES,
                pw=PW,
                include_ecc=True,
                seed=_kind_seed(seed, i),
            )
            for i, kind in enumerate(KINDS)
        }
        self.records = records
        self.writes_per_op = records * len(KINDS)

    def prepare(self) -> None:
        pass

    def op(self) -> Result:
        bundles, files = {}, {}
        for kind, cfg in self.cfgs.items():
            bundle = report.run_experiment(cfg)
            files.update(_emit_csv(bundle, self.out / kind, kind))
            report.emit_svg(bundle, self.out / kind)
            bundles[kind] = bundle
        return Result(bundles, files, {})

    def check(self, result: Result) -> list[str]:
        failures = []
        for kind, bundle in result.bundles.items():
            if bundle.writes != self.records:
                failures.append(f"{kind}: {bundle.writes} writes, expected {self.records}")
            by = _by_scheme(bundle)
            rates = [by[s].analytic_rate for s in SCHEMES]
            if any(later > earlier * (1 + ORDER_TIE_RTOL) for earlier, later in zip(rates, rates[1:])):
                failures.append(f"{kind}: rates not ordered per-word >= interleaved >= robin: {rates}")
            robin = by["robin"]
            if robin.increase_pct is None or robin.increase_pct > ROBIN_MAX_INCREASE:
                failures.append(f"{kind}: robin increase {robin.increase_pct}% above {ROBIN_MAX_INCREASE}%")
            gaps = {s: by[s].stats.gap_pct for s in SCHEMES}
            if any(gaps["robin"] >= gaps[s] for s in SCHEMES if s != "robin"):
                failures.append(f"{kind}: robin's max_avg - min_avg gap is not the narrowest: {gaps}")
        return failures


class TraceReplay:
    """One pre-generated large-pool trace, analysed from its binary and its JSONL file."""

    name = "trace-replay"

    def __init__(self, seed: int, tmp: Path, records: int = 16384, addresses: int = 4096) -> None:
        self.out = tmp / "out"
        self.spec = WorkloadSpec("irregular", records=records, addresses=addresses)
        self.seed = seed
        # warm the shadow store with about one write per address before counting
        self.writes = records - addresses
        self.writes_per_op = 2 * self.writes
        self.cfgs = {
            fmt: ExperimentConfig(
                trace_path=str(tmp / f"replay.{fmt}"),
                trace_format=fmt,
                schemes=SCHEMES,
                pw=PW,
                include_ecc=True,
                seed=seed,
                warmup=addresses,
            )
            for fmt in ("binary", "jsonl")
        }

    def prepare(self) -> None:
        for fmt, cfg in self.cfgs.items():
            # streamed from the generator, so the fixture never sits in memory
            trace.save_trace(cfg.trace_path, report.gen_workload(self.spec, self.seed), fmt)

    def op(self) -> Result:
        bundles, per_format = {}, {}
        for fmt, cfg in self.cfgs.items():
            bundle = report.run_experiment(cfg)
            per_format[fmt] = _emit_csv(bundle, self.out / fmt, "replay")
            bundles[fmt] = bundle
        return Result(bundles, per_format["binary"], {"jsonl_files": per_format["jsonl"]})

    def check(self, result: Result) -> list[str]:
        failures = []
        if result.files != result.extra["jsonl_files"]:
            failures.append("binary and JSONL runs emitted different CSVs")
        for fmt, bundle in result.bundles.items():
            if bundle.writes != self.writes:
                failures.append(f"{fmt}: {bundle.writes} writes, expected records - warmup = {self.writes}")
        return failures


class MonteCarlo:
    """run_experiment with 1000-trial Monte Carlo, plus a sampled decoder cross-check."""

    name = "monte-carlo"

    def __init__(self, seed: int, tmp: Path, records: int = 64, crosscheck_pairs: int = 8) -> None:
        self.out = tmp / "out"
        self.cfgs = {
            kind: ExperimentConfig(
                workload=WorkloadSpec(kind, records=records),
                schemes=SCHEMES,
                pw=PW,
                include_ecc=True,
                monte_carlo=True,
                trials=TRIALS,
                seed=_kind_seed(seed, i),
            )
            for i, kind in enumerate(KINDS)
        }
        self.inject_cfgs = {
            name: injection.InjectionConfig(
                pw=CROSSCHECK_PW, scheme=mapping.MappingScheme(name), include_ecc=True
            )
            for name in SCHEMES
        }
        self.seed = seed
        self.crosscheck_pairs = crosscheck_pairs
        self.records = records
        self.writes_per_op = records * len(KINDS)
        self.record_trials_per_op = self.writes_per_op * TRIALS * len(SCHEMES)

    def prepare(self) -> None:
        # every step-th write of each Monte Carlo input, cold and warm addresses alike
        step = max(1, self.records // self.crosscheck_pairs)
        self.pairs = []
        for cfg in self.cfgs.values():
            pairs = trace.old_new_pairs(report.gen_workload(cfg.workload, cfg.seed))
            self.pairs += list(itertools.islice(pairs, 0, step * self.crosscheck_pairs, step))

    def op(self) -> Result:
        bundles, files = {}, {}
        for kind, cfg in self.cfgs.items():
            bundle = report.run_experiment(cfg)
            files.update(_emit_csv(bundle, self.out / kind, kind))
            bundles[kind] = bundle
        checks = []
        for index, (old, new) in enumerate(self.pairs):
            rng = np.random.default_rng((self.seed, index))
            for name, inj in self.inject_cfgs.items():
                outcome = injection.inject_write(old, new, inj, rng)
                cross = injection.end_to_end_check(outcome, new, inj.scheme)
                checks.append((index, name, outcome.failures_per_codeword, cross.agree, cross.aliased))
        files["crosscheck.csv"] = "".join(
            f"{i},{name},{' '.join(map(str, fails))},{agree},{aliased}\n"
            for i, name, fails, agree, aliased in checks
        ).encode()
        return Result(bundles, files, {"checks": checks})

    def check(self, result: Result) -> list[str]:
        failures = []
        draws = self.records * TRIALS
        for kind, bundle in result.bundles.items():
            for s in bundle.schemes:
                if s.mc is None or s.mc.records != self.records:
                    failures.append(f"{kind}/{s.scheme}: Monte Carlo estimate missing or short")
                    continue
                rate = s.analytic_rate
                bound = MC_SIGMAS * math.sqrt(rate * (1.0 - rate) / draws)
                if abs(s.mc.error_rate - rate) > bound:
                    failures.append(
                        f"{kind}/{s.scheme}: MC rate {s.mc.error_rate} more than {MC_SIGMAS} standard"
                        f" errors from analytic {rate}"
                    )
        disagree = [c for c in result.extra["checks"] if not c[3]]
        if disagree:
            failures.append(f"{len(disagree)} decoder cross-checks disagree with the count rule")
        return failures


class PerWriteApi:
    """The per-write library functions, checked against run_experiment on the same pairs."""

    name = "perwrite-api"

    def __init__(self, seed: int, tmp: Path, records: int = 512) -> None:
        self.cfgs = {
            kind: ExperimentConfig(
                workload=WorkloadSpec(kind, records=records),
                schemes=SCHEMES,
                pw=PW,
                include_ecc=True,
                seed=_kind_seed(seed, i),
            )
            for i, kind in enumerate(KINDS)
        }
        self.schemes = [mapping.MappingScheme(name) for name in SCHEMES]
        self.writes_per_op = records * len(KINDS)

    def prepare(self) -> None:
        self.pairs = {
            kind: list(trace.old_new_pairs(report.gen_workload(cfg.workload, cfg.seed)))
            for kind, cfg in self.cfgs.items()
        }
        self.reference = {kind: report.run_experiment(cfg) for kind, cfg in self.cfgs.items()}

    def op(self) -> Result:
        results = {}
        for kind, pairs in self.pairs.items():
            for scheme in self.schemes:
                tvs = [mapping.transition_vector(scheme, old, new, include_ecc=True) for old, new in pairs]
                rate = reliability.trace_error_rate(tvs, PW)
                stats = trace.codeword_stats(pairs, scheme, include_ecc=False)
                results[kind, scheme.kind] = (rate, stats)
        rows = "".join(
            f"{kind},{name},{rate.rate:.6g},{rate.optimal_rate:.6g},{stats.min_avg_pct:.6g},"
            f"{stats.max_avg_pct:.6g},{stats.min_extreme_pct:.6g},{stats.max_extreme_pct:.6g}\n"
            for (kind, name), (rate, stats) in results.items()
        )
        return Result(results, {"perwrite.csv": rows.encode()}, {})

    def check(self, result: Result) -> list[str]:
        failures = []
        for (kind, name), (rate, stats) in result.bundles.items():
            ref = _by_scheme(self.reference[kind])[name]
            pairs = [
                ("analytic_rate", rate.rate, ref.analytic_rate),
                ("optimal_rate", rate.optimal_rate, ref.optimal_rate),
                ("min_avg_pct", stats.min_avg_pct, ref.stats.min_avg_pct),
                ("max_avg_pct", stats.max_avg_pct, ref.stats.max_avg_pct),
                ("min_extreme_pct", stats.min_extreme_pct, ref.stats.min_extreme_pct),
                ("max_extreme_pct", stats.max_extreme_pct, ref.stats.max_extreme_pct),
            ]
            for field, got, want in pairs:
                if not math.isclose(got, want, rel_tol=PERWRITE_RTOL):
                    failures.append(f"{kind}/{name}: per-write {field} {got} != run_experiment {want}")
            if stats.writes != ref.stats.writes:
                failures.append(f"{kind}/{name}: codeword_stats saw {stats.writes} writes, expected {ref.stats.writes}")
        return failures


CASES = {case.name: case for case in (SynthAnalytic, TraceReplay, MonteCarlo, PerWriteApi)}
