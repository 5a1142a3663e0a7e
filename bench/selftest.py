"""Self-test of the benchmark's own checks.

    python3 bench/selftest.py

A tiny-size operation of every workload must pass its checks, traced and
untraced; a deliberately tampered result (swapped scheme rates, a flipped CSV
byte, a disagreeing cross-check) must be counted as a failure; the metric
tables must match BENCHMARK.json; and in a directory without robinsim the
benchmark must exit non-zero without printing a result. Exits 1 if any of
this does not hold.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import spec
import tracing

run.load_robinsim()
import cases  # noqa: E402  needs robinsim on the path

TINY = {
    "synth-analytic": {"records": 2500},
    "trace-replay": {"records": 600, "addresses": 128},
    "monte-carlo": {"records": 16, "crosscheck_pairs": 2},
    "perwrite-api": {"records": 40},
}

# the layer spans each workload must produce, and ones it must not
EXPECTED_SPANS = {
    "synth-analytic": ({"workloads.gen", "trace.replay", "report.run_experiment", "report.emit"},
                       {"trace.load_binary", "injection.mc_block"}),
    "trace-replay": ({"trace.load_binary", "trace.load_jsonl", "trace.replay", "bits.unpack"},
                     {"workloads.gen", "injection.mc_block"}),
    "monte-carlo": ({"injection.mc_block", "injection.inject_write", "injection.crosscheck"},
                    {"trace.load_binary", "mapping.transition_vector"}),
    "perwrite-api": ({"mapping.transition_vector", "reliability.trace_error_rate",
                      "trace.codeword_stats", "secded.encode_words"},
                     {"report.run_experiment", "workloads.gen"}),
}


def _tamper_synth(result: cases.Result) -> None:
    """Exchange per-word's and robin's analytic rates on narrowint32, where they differ most."""
    schemes = result.bundles["narrowint32"].schemes
    first, last = schemes[0], schemes[-1]
    schemes[0] = dataclasses.replace(first, analytic_rate=last.analytic_rate)
    schemes[-1] = dataclasses.replace(last, analytic_rate=first.analytic_rate)


def _tamper_replay(result: cases.Result) -> None:
    files = result.extra["jsonl_files"]
    name = sorted(files)[-1]
    data = bytearray(files[name])
    data[-2] ^= 1
    files[name] = bytes(data)


def _tamper_mc_rate(result: cases.Result) -> None:
    bundle = next(iter(result.bundles.values()))
    robin = bundle.schemes[-1]
    mc = dataclasses.replace(robin.mc, error_rate=3.0 * robin.mc.error_rate + 1e-3)
    bundle.schemes[-1] = dataclasses.replace(robin, mc=mc)


def _tamper_mc_crosscheck(result: cases.Result) -> None:
    index, name, fails, _, aliased = result.extra["checks"][0]
    result.extra["checks"][0] = (index, name, fails, False, aliased)


def _tamper_perwrite(result: cases.Result) -> None:
    kind = next(iter(result.bundles))[0]
    a, b = result.bundles[kind, "per-word"], result.bundles[kind, "robin"]
    result.bundles[kind, "per-word"], result.bundles[kind, "robin"] = (b[0], a[1]), (a[0], b[1])


TAMPERS = {
    "synth-analytic": [_tamper_synth],
    "trace-replay": [_tamper_replay],
    "monte-carlo": [_tamper_mc_rate, _tamper_mc_crosscheck],
    "perwrite-api": [_tamper_perwrite],
}


class SelfTest:
    def __init__(self) -> None:
        self.failures = 0

    def expect(self, label: str, ok: bool, detail: str = "") -> None:
        print(f"[selftest] {label}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail and not ok else ""))
        self.failures += not ok

    def workload(self, name: str, tmp: Path) -> None:
        case = cases.CASES[name](7, tmp, **TINY[name])
        case.prepare()
        runner = run.Runner(cases, case)
        runner.run()
        runner.run()
        self.expect(f"{name}: tiny run passes its checks", runner.failed == 0 and runner.attempted == 2)

        tracer, profile = tracing.Tracer(), tracing.Profile()
        with tracing.instrument(tracer):
            runner.run(tracer=tracer, profile=profile)
        seen = {span for span, ns in profile.self_ns.items() if ns > 0}
        must, must_not = EXPECTED_SPANS[name]
        self.expect(f"{name}: traced run passes and matches the untraced digest", runner.failed == 0)
        self.expect(f"{name}: traced run records its layers", must <= seen and not (must_not & seen),
                    f"missing {sorted(must - seen)}, unexpected {sorted(must_not & seen)}")
        self.expect(f"{name}: self times sum to the operation's span", profile.accounted_ns() == profile.root_ns)
        from robinsim import report, secded

        self.expect(f"{name}: instrumentation is removed afterwards",
                    report.run_experiment.__module__ == "robinsim.report"
                    and secded.encode_words.__module__ == "robinsim.secded")

        result = case.op()
        self.expect(f"{name}: untampered result passes", not case.check(result))
        for tamper in TAMPERS[name]:
            bad = copy.deepcopy(result)
            tamper(bad)
            self.expect(f"{name}: {tamper.__name__} is caught", bool(case.check(bad)))

        flipped = copy.deepcopy(result)
        key = sorted(flipped.files)[0]
        flipped.files[key] = flipped.files[key][:-2] + bytes([flipped.files[key][-2] ^ 1]) + b"\n"
        case.op = lambda: flipped
        before = runner.failed
        runner.run()
        self.expect(f"{name}: a flipped CSV byte changes the digest and counts as failed",
                    runner.failed == before + 1)

    def benchmark_json(self) -> None:
        data = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        self.expect("BENCHMARK.json workloads match spec.WORKLOADS",
                    [(w["name"], w["why"]) for w in data["workloads"]]
                    == [(n, w["why"]) for n, w in spec.WORKLOADS.items()])
        self.expect("BENCHMARK.json end_to_end matches spec.END_TO_END",
                    [tuple(m.values()) for m in data["end_to_end"]] == [tuple(m) for m in spec.END_TO_END])
        self.expect("BENCHMARK.json per_layer matches spec.PER_LAYER",
                    [tuple(m.values()) for m in data["per_layer"]] == [m[:3] for m in spec.PER_LAYER])
        names = [m["name"] for m in data["end_to_end"] + data["per_layer"]] + list(spec.WORKLOADS)
        self.expect("metric and workload names are well formed and unique",
                    all(name_ok.match(n) for n in names) and len(set(names)) == len(names))
        self.expect("whys fit on one line of at most 200 characters",
                    all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in data["workloads"]))

    def bare_directory(self, tmp: Path) -> None:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
        shutil.copytree(run.ROOT / "bench", tmp / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "synth-analytic", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60,
        )
        self.expect("without robinsim the benchmark exits non-zero and prints no result",
                    done.returncode != 0 and "{" not in done.stdout, f"exit {done.returncode}")


def main() -> int:
    test = SelfTest()
    scratch = run.ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=scratch) as tmp:
        for name in spec.WORKLOADS:
            workdir = Path(tmp) / name
            workdir.mkdir()
            test.workload(name, workdir)
        bare = Path(tmp) / "bare"
        bare.mkdir()
        test.bare_directory(bare)
    test.benchmark_json()
    print(f"[selftest] {'all checks PASS' if not test.failures else f'{test.failures} FAILED'}")
    return 1 if test.failures else 0


if __name__ == "__main__":
    sys.exit(main())
