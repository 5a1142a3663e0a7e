"""Command-line front end.

Subcommands:
  run               run an experiment from a config file, emit CSV + SVG
  gen               generate a synthetic workload trace file
  verify-partition  enumerate and print a scheme's partition structure
  codec-selftest    exhaustive single/double error sweeps of the codec

Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 self-test failure.
"""

from __future__ import annotations

import argparse
import sys
from itertools import combinations

import numpy as np

from . import secded
from .config import load_config
from .mapping import KINDS, MappingScheme, verify_partition
from .report import ConfigError, emit_csv, emit_svg, format_sig, run_experiment
from .trace import TraceFormatError, save_trace
from .workloads import KINDS as WORKLOAD_KINDS
from .workloads import WorkloadSpec, gen_workload

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_SELFTEST = 3


class _Parser(argparse.ArgumentParser):
    # spec'd contract: usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _build_parser() -> _Parser:
    parser = _Parser(prog="robinsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="run an experiment from a config file")
    run.add_argument("--config", required=True, help="key=value config file")
    run.add_argument("--out", default=None, help="output directory (overrides config)")

    gen = sub.add_parser("gen", help="generate a synthetic workload trace")
    gen.add_argument("--kind", required=True, choices=WORKLOAD_KINDS)
    gen.add_argument("--n", required=True, type=int, help="record count")
    gen.add_argument("--seed", required=True, type=int)
    gen.add_argument("--out", required=True, help="trace path (.jsonl for JSONL, else binary)")
    gen.add_argument("--addresses", type=int, default=64)

    verify = sub.add_parser("verify-partition", help="print a scheme's partition report")
    verify.add_argument("--scheme", required=True, choices=KINDS)

    sub.add_parser("codec-selftest", help="exhaustive codec error sweeps")
    return parser


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config, out_override=args.out)
        bundle = run_experiment(cfg)
        csv_paths = emit_csv(bundle, cfg.out_dir)
        svg_paths = emit_svg(bundle, cfg.out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TraceFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    print(f"writes analyzed: {bundle.writes}  p_write: {format_sig(bundle.pw)}")
    for report in bundle.schemes:
        increase = f"{format_sig(report.increase_pct)}%" if report.increase_pct is not None else "n/a"
        line = (
            f"  {report.scheme:<11} rate {format_sig(report.analytic_rate)}"
            f"  optimal {format_sig(report.optimal_rate)}  increase {increase}"
        )
        if report.mc is not None:
            line += f"  mc {format_sig(report.mc.error_rate)} +/- {format_sig(report.mc.stderr)}"
        print(line)
    for path in csv_paths + svg_paths:
        print(f"  wrote {path}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    try:
        if args.seed < 0:
            raise ValueError(f"seed must be non-negative, got {args.seed}")
        spec = WorkloadSpec(kind=args.kind, records=args.n, addresses=args.addresses)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        count = save_trace(args.out, gen_workload(spec, args.seed))
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {count} records to {args.out}")
    return EXIT_OK


def _cmd_verify_partition(args) -> int:
    report = verify_partition(MappingScheme(args.scheme))
    print(report.describe())
    return EXIT_OK if report.bijective else EXIT_SELFTEST


def _cmd_codec_selftest() -> int:
    """Sweep all single and double flips over random datawords."""
    rng = np.random.default_rng(0xC0DEC)
    words = [int(v) for v in rng.integers(0, 1 << 63, 10, dtype=np.uint64)]
    failures = 0
    for data in words:
        check = secded.encode(data)
        if secded.decode(data, check).status is not secded.DecodeStatus.NO_ERROR:
            failures += 1
        for bit in range(secded.CODEWORD_BITS):
            bad_data = data ^ (1 << bit) if bit < 64 else data
            bad_check = check ^ (1 << (bit - 64)) if bit >= 64 else check
            outcome, fixed_data, fixed_check = secded.repair(bad_data, bad_check)
            if (
                outcome.status is not secded.DecodeStatus.CORRECTED
                or outcome.bit_index != bit
                or (fixed_data, fixed_check) != (data, check)
            ):
                failures += 1
        for a, b in combinations(range(secded.CODEWORD_BITS), 2):
            bad_data = data
            bad_check = check
            for bit in (a, b):
                if bit < 64:
                    bad_data ^= 1 << bit
                else:
                    bad_check ^= 1 << (bit - 64)
            if secded.decode(bad_data, bad_check).status is not secded.DecodeStatus.UNCORRECTABLE:
                failures += 1
    pairs = secded.CODEWORD_BITS * (secded.CODEWORD_BITS - 1) // 2
    print(
        f"codec self-test: {len(words)} datawords x ({secded.CODEWORD_BITS} single"
        f" + {pairs} double) flips, {failures} failures"
    )
    return EXIT_OK if failures == 0 else EXIT_SELFTEST


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "gen":
        return _cmd_gen(args)
    if args.command == "verify-partition":
        return _cmd_verify_partition(args)
    return _cmd_codec_selftest()


def run_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run_main()
