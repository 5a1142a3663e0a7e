"""Command-line front end.

Subcommands:
  run               run an experiment from a config file, emit CSV + SVG
  gen               generate a synthetic workload trace file
  verify-partition  enumerate and print a scheme's partition structure
  codec-selftest    exhaustive single/double error sweeps of the codec

Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 self-test failure.
Every subcommand maps its errors the same way, in :func:`main`, with one
line on stderr.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import secded
from .config import load_config
from .mapping import KINDS, MappingScheme, verify_partition
from .report import emit_csv, emit_svg, format_sig, run_experiment
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
    run.add_argument("--out", help="output directory (overrides config)")

    gen = sub.add_parser("gen", help="generate a synthetic workload trace")
    gen.add_argument("--kind", required=True, choices=WORKLOAD_KINDS)
    gen.add_argument("--n", required=True, type=int, help="record count")
    gen.add_argument("--seed", required=True, type=int)
    gen.add_argument("--out", required=True, help="trace path (.jsonl for JSONL, else binary)")
    gen.add_argument("--addresses", type=int, default=WorkloadSpec.addresses)

    verify = sub.add_parser("verify-partition", help="print a scheme's partition report")
    verify.add_argument("--scheme", required=True, choices=KINDS)

    sub.add_parser("codec-selftest", help="exhaustive codec error sweeps")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config, out_override=args.out)
    bundle = run_experiment(cfg)
    csv_paths = emit_csv(bundle, cfg.out_dir)
    svg_paths = emit_svg(bundle, cfg.out_dir)
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
    spec = WorkloadSpec(kind=args.kind, records=args.n, addresses=args.addresses)
    count = save_trace(args.out, gen_workload(spec, args.seed))
    print(f"wrote {count} records to {args.out}")
    return EXIT_OK


def _cmd_verify_partition(args) -> int:
    report = verify_partition(MappingScheme(args.scheme))
    print(report.describe())
    return EXIT_OK if report.bijective else EXIT_SELFTEST


def _cmd_codec_selftest(args) -> int:
    """Sweep all single and double flips over random datawords, every flip at once."""
    rng = np.random.default_rng(0xC0DEC)
    words = rng.integers(0, 1 << 63, 1000, dtype=np.uint64)
    checks = secded.encode_words(words)
    n_bits = secded.CODEWORD_BITS
    eye = np.eye(n_bits, dtype=np.uint8)
    first, second = np.triu_indices(n_bits, k=1)
    # one 72-bit error mask per flip: single flips, then double flips in combinations() order
    masks = np.packbits(np.concatenate([eye, eye[first] | eye[second]]), axis=1, bitorder="little")
    data_masks = np.ascontiguousarray(masks[:, :8]).view("<u8")[:, 0]

    syndromes, found, _, _ = secded.repair_words(words, checks)
    failures = np.count_nonzero((syndromes != 0) | (found != -1))
    syndromes, found, data, check = secded.repair_words(
        words[:, None] ^ data_masks, checks[:, None] ^ masks[:, 8]
    )
    single, double = slice(None, n_bits), slice(n_bits, None)
    # a single flip is corrected at its own bit and restores the codeword
    failures += np.count_nonzero(
        (found[:, single] != np.arange(n_bits))
        | (data[:, single] != words[:, None])
        | (check[:, single] != checks[:, None])
    )
    # a double flip is detected and never corrected
    failures += np.count_nonzero((syndromes[:, double] == 0) | (found[:, double] != -1))
    print(
        f"codec self-test: {len(words)} datawords x ({n_bits} single"
        f" + {first.size} double) flips, {failures} failures"
    )
    return EXIT_OK if failures == 0 else EXIT_SELFTEST


_COMMANDS = {
    "run": _cmd_run,
    "gen": _cmd_gen,
    "verify-partition": _cmd_verify_partition,
    "codec-selftest": _cmd_codec_selftest,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (TraceFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # ConfigError, and any other bad value the library rejects
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run_main()
