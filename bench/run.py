"""robinsim benchmark: end-to-end host-time metrics, or a traced per-layer run.

Run from the repository root; it imports robinsim from ``src/`` beside it:

    python3 bench/run.py --workload trace-replay --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20   # each workload in its own process
    python3 bench/selftest.py                                    # the benchmark's own checks

One run measures one workload in this process, single-threaded. It imports
robinsim and builds the configs several times (``setup_s`` is their median),
writes its fixtures, runs one warm-up operation and then repeats the timed
operation for ``--seconds``. Every operation's output is checked and its CSV
digest must match the warm-up's. ``--trace 1`` spends half the time untraced
and half with every layer wrapped in spans, and reports per-layer self times
instead. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any check
failed and 2 when robinsim cannot be found.

Reported times are in reference seconds. On a shared 2-core virtual machine
the same operation ran anywhere from 0.47 s to 0.86 s, in host states that
last from seconds to minutes, so a median of raw times moved by 15-25%
between 25-second runs. A fixed calibration loop of numpy and interpreter
work (``calibrate``) therefore runs just before every timed operation and
every set-up, and each time is rescaled by CAL_REF_S / (that loop's time).
The host's speed cancels in the ratio; the program's does not. Raw times
and the calibration time are printed beside every result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np  # robinsim's dependency, loaded once so set-up times robinsim alone

import spec
import tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPS = 15
# at least this many timed operations, however long they take
MIN_OPS = 4
# One reference second is the host time of 1 / CAL_REF_S calibration loops.
# The loop took 13-25 ms on a 2-core x86-64 virtual machine, depending on
# how busy its host was.
CAL_REF_S = 0.02
_CAL_PERM = np.argsort(np.arange(512) % 8, kind="stable")


def calibrate() -> float:
    """Host time of a fixed loop shaped like robinsim's work: small numpy calls in Python loops."""
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    acc = 0.0
    blocks = {}
    for i in range(900):
        values = rng.standard_normal(8)
        blocks[i % 64] = (values * 1.5).astype(">f8").tobytes()
        acc += float(values.sum())
    matrix = np.frombuffer(b"".join(blocks.values()), dtype=np.uint8).reshape(-1, 64)
    for _ in range(60):
        bits = np.unpackbits(matrix, axis=1)
        acc += int(bits[:, _CAL_PERM].reshape(-1, 8, 64).sum(axis=2).max())
        acc += float((rng.random((64, 300)) < 0.01).sum())
    for _ in range(4):
        acc += float((rng.random((1000, 300)) < 0.001).sum(axis=1).max())
    return time.perf_counter() - start


def ref_seconds(samples: list[tuple[float, float]]) -> float:
    """Median of (host time, calibration time) samples, in reference seconds."""
    return statistics.median(host / cal for host, cal in samples) * CAL_REF_S


def load_robinsim() -> None:
    """Put the checkout's ``src/`` first on the path; exit 2 if robinsim is not there."""
    if not (SRC / "robinsim" / "__init__.py").is_file():
        print(f"bench: no robinsim package under {SRC}; run from a robinsim checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import robinsim

    if Path(robinsim.__file__).resolve().parent != SRC / "robinsim":
        print(f"bench: imported robinsim from {robinsim.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def setup(name: str, seed: int, tmp: Path):
    """Import robinsim afresh and build the workload's configs, SETUP_REPS times.

    Returns the cases module, the last case built and (host, calibration)
    time samples of each repetition.
    """
    samples = []
    for _ in range(SETUP_REPS):
        for module in [m for m in sys.modules if m.split(".")[0] in ("robinsim", "cases")]:
            del sys.modules[module]
        before = calibrate()
        start = time.perf_counter()
        cases = importlib.import_module("cases")
        case = cases.CASES[name](seed, tmp)
        elapsed = time.perf_counter() - start
        samples.append((elapsed, (before + calibrate()) / 2))
    return cases, case, samples


class Runner:
    """Runs and checks operations, counting attempts and failures."""

    def __init__(self, cases, case) -> None:
        self.cases = cases
        self.case = case
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self._cal = None

    def run(self, tracer=None, profile=None) -> tuple[float, float]:
        """One checked operation; returns its host time and the calibration time around it.

        Calibration loops run between operations, and each operation is
        compared with the mean of the loops just before and just after it.
        """
        if self._cal is None:
            self._cal = calibrate()
        start = time.perf_counter()
        root = tracer.begin(tracing.ROOT_SPAN) if tracer else None
        result = self.case.op()
        if tracer:
            tracer.end(root)
        elapsed = time.perf_counter() - start
        if profile:
            profile.fold(tracer)
        failures = self.case.check(result)
        sha = self.cases.digest(result.files)
        if self.reference is None:
            self.reference = sha
        elif sha != self.reference:
            failures.append(f"CSV digest {sha} differs from the first operation's {self.reference}")
        self.attempted += 1
        if failures:
            self.failed += 1
            for failure in failures[:5]:
                print(f"bench: check failed: {failure}", file=sys.stderr)
        before, self._cal = self._cal, calibrate()
        return elapsed, (before + self._cal) / 2

    def repeat(self, seconds: float, **traced) -> list[tuple[float, float]]:
        samples = []
        deadline = time.perf_counter() + seconds
        while len(samples) < MIN_OPS or time.perf_counter() < deadline:
            samples.append(self.run(**traced))
        return samples


def layer_metrics(profile, tracer, case, untraced, traced) -> dict[str, float]:
    """Per-layer numbers from the traced samples, rescaled to reference seconds."""
    ops = profile.ops
    counts = tracer.counts
    scale = CAL_REF_S / statistics.median(cal for _, cal in traced)
    untraced_s, traced_s = ref_seconds(untraced), ref_seconds(traced)

    def self_s(span: str) -> float:
        return profile.self_ns.get(span, 0) / 1e9 / ops * scale

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "workloads.gen_s": self_s("workloads.gen"),
        "workloads.records_per_s": ratio(counts["workloads.gen.items"] / ops, self_s("workloads.gen")),
        "trace.load_binary_s": self_s("trace.load_binary"),
        "trace.load_jsonl_s": self_s("trace.load_jsonl"),
        "trace.replay_s": self_s("trace.replay"),
        "trace.shadow_blocks": tracer.gauges.get("trace.shadow_blocks", 0),
        "bits.unpack_s": self_s("bits.unpack"),
        "secded.encode_words_s": self_s("secded.encode_words"),
        "secded.words_encoded": counts["secded.words_encoded"] / ops,
        "reliability.closed_form_s": self_s("reliability.closed_form"),
        "reliability.closed_form_evals": counts["reliability.closed_form_evals"] / ops,
        "report.run_experiment_self_s": self_s("report.run_experiment"),
        "report.emit_s": self_s("report.emit"),
        "injection.mc_block_s": self_s("injection.mc_block"),
        "injection.mc_record_trials": counts["injection.mc_record_trials"] / ops,
        "injection.inject_write_s": self_s("injection.inject_write"),
        "injection.crosscheck_s": self_s("injection.crosscheck"),
        "injection.crosscheck_agree_ratio": ratio(counts["crosscheck.agreed"], counts["crosscheck.checked"]),
        "mapping.transition_vector_s": self_s("mapping.transition_vector"),
        "reliability.trace_error_rate_s": self_s("reliability.trace_error_rate"),
        "trace.codeword_stats_s": self_s("trace.codeword_stats"),
        "mc_trials_per_s": getattr(case, "record_trials_per_op", 0) / untraced_s,
        "bench.untraced_s": self_s(tracing.ROOT_SPAN),
        "tracing_overhead_pct": (traced_s - untraced_s) / untraced_s * 100.0,
        "host.calibration_s": statistics.median(cal for _, cal in untraced + traced),
        "host.raw_writes_per_s": case.writes_per_op / statistics.median(op for op, _ in untraced),
    }


def measure(args) -> int:
    load_robinsim()
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        cases, case, setup_samples = setup(args.workload, args.seed, tmp)
        case.prepare()
        runner = Runner(cases, case)
        runner.run()  # warm-up: fills lazy caches and fixes the reference digest
        if not args.trace:
            samples = runner.repeat(args.seconds)
            values = {
                "writes_per_s": case.writes_per_op / ref_seconds(samples),
                "setup_s": ref_seconds(setup_samples),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            table = spec.END_TO_END
        else:
            untraced = runner.repeat(args.seconds / 2)
            tracer, profile = tracing.Tracer(), tracing.Profile()
            with tracing.instrument(tracer):
                traced = runner.repeat(args.seconds / 2, tracer=tracer, profile=profile)
            # self times partition the root spans exactly; the root spans cover the op walls
            wall_ns = sum(op for op, _ in traced) * 1e9
            if profile.accounted_ns() != profile.root_ns or abs(profile.root_ns - wall_ns) > 0.01 * wall_ns:
                print("bench: span self times do not account for the operations' wall time", file=sys.stderr)
                runner.failed += 1
            profile.write_spans(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.csv")
            samples = untraced + traced
            values = layer_metrics(profile, tracer, case, untraced, traced)
            table = spec.PER_LAYER
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = runner.failed == 0
    raw_op = statistics.median(op for op, _ in samples)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(samples)} timed ops,"
          f" {case.writes_per_op} writes/op; host time: median {raw_op:.4f} s/op"
          f" ({case.writes_per_op / raw_op:.6g} writes/s raw), calibration loop median"
          f" {statistics.median(cal for _, cal in samples):.4f} s")
    print(f"  csv_sha256 {runner.reference}")
    print(f"  ops_failed_ratio {runner.failed / runner.attempted} ({runner.failed}/{runner.attempted})")
    metrics = {}
    for name, unit, *_ in table:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process, one after another."""
    status = 0
    for name in spec.WORKLOADS:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        print(done.stdout, end="")
        status = max(status, done.returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else measure(args)


if __name__ == "__main__":
    sys.exit(main())
