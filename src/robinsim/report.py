"""Experiment runner: wires traces or generators through schemes and models.

One streaming pass over the old/new pair stream, in batches of 512 writes,
takes each batch's byte XOR ``olds ^ news``, counts each scheme's codeword
flips from it with :func:`robinsim.mapping.codeword_counts` and folds them
into a :class:`robinsim.reliability.RateAccumulator` (analytic error rate
with its optimal companions) and a :class:`robinsim.trace.StatsAccumulator`
(codeword-spread statistics), and sums the per-bit transition histogram.
With Monte Carlo on, each batch's pairs also feed one
:class:`robinsim.injection.MonteCarloAccumulator` per scheme, so memory stays
bounded in the trace length. Results are emitted as CSV tables and
self-contained SVG charts; reruns with the same config and seed are
byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterator

import numpy as np

from . import reliability
from .bits import BLOCK_BITS, blocks_to_bits, stack_blocks
from .injection import InjectionConfig, MonteCarloAccumulator, TraceEstimate
from .mapping import BATCH, KINDS, MappingScheme, codeword_counts
from .reliability import DeviceParams, ParameterError, RateAccumulator
from .trace import CodewordStats, StatsAccumulator, load_trace, old_new_pairs
from .workloads import WorkloadSpec, gen_workload


class ConfigError(ValueError):
    """Invalid or self-contradictory experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one `run` needs; exactly one input source and one pw source."""

    trace_path: str | None = None
    trace_format: str | None = None
    workload: WorkloadSpec | None = None
    schemes: tuple[str, ...] = KINDS
    pw: float | None = None
    device: DeviceParams | None = None
    include_ecc: bool = True
    monte_carlo: bool = False
    trials: int = 1000
    seed: int = 0
    warmup: int = 0
    out_dir: str = "results"

    def validate(self) -> None:
        if not self.schemes:
            raise ConfigError("at least one scheme must be selected")
        for name in self.schemes:
            if name not in KINDS:
                raise ConfigError(f"unknown scheme {name!r}; expected one of {KINDS}")
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigError("schemes must not repeat")
        if (self.trace_path is None) == (self.workload is None):
            raise ConfigError("exactly one input source required: a trace file or a workload spec")
        if (self.pw is None) == (self.device is None):
            raise ConfigError("exactly one p_write source required: pw or device parameters")
        if self.pw is not None and not 0.0 <= self.pw <= 1.0:
            raise ConfigError(f"pw must lie in [0, 1], got {self.pw}")
        if self.warmup < 0:
            raise ConfigError(f"warmup must be non-negative, got {self.warmup}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        try:
            self.resolve_pw()
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc

    def resolve_pw(self) -> float:
        return self.pw if self.pw is not None else reliability.p_write_from_device(self.device)


@dataclass(frozen=True)
class SchemeReport:
    scheme: str
    analytic_rate: float
    optimal_rate: float
    optimal_rate_int: float
    increase_pct: float | None
    stats: CodewordStats
    mc: TraceEstimate | None = None


@dataclass
class ReportBundle:
    pw: float
    include_ecc: bool
    writes: int
    histogram: np.ndarray
    schemes: list[SchemeReport] = field(default_factory=list)


def make_pairs(cfg: ExperimentConfig) -> Iterator[tuple[bytes, bytes]]:
    """The experiment's old/new pair stream per the configured input source."""
    if cfg.trace_path is not None:
        records = load_trace(cfg.trace_path, cfg.trace_format)
    else:
        records = gen_workload(cfg.workload, cfg.seed)
    return old_new_pairs(records, warmup=cfg.warmup)


def run_experiment(cfg: ExperimentConfig) -> ReportBundle:
    """Single pass over the input pairs; returns all per-scheme results."""
    cfg.validate()
    pw = cfg.resolve_pw()
    schemes = [MappingScheme(name) for name in cfg.schemes]
    rates = [RateAccumulator(pw) for _ in schemes]
    spreads = [StatsAccumulator(s.kind) for s in schemes]
    histogram = np.zeros(BLOCK_BITS, dtype=np.int64)
    mcs = [
        MonteCarloAccumulator(
            InjectionConfig(
                pw=pw, scheme=s, trials=cfg.trials, seed=cfg.seed, include_ecc=cfg.include_ecc
            )
        )
        if cfg.monte_carlo
        else None
        for s in schemes
    ]

    pairs = iter(make_pairs(cfg))
    while batch := list(islice(pairs, BATCH)):
        olds = stack_blocks([p[0] for p in batch])
        news = stack_blocks([p[1] for p in batch])
        diff = olds ^ news
        histogram += blocks_to_bits(diff).sum(axis=0, dtype=np.int64)
        for scheme, rate, spread in zip(schemes, rates, spreads):
            data_counts, check_counts = codeword_counts(scheme, diff, cfg.include_ecc)
            spread.add_counts(data_counts)
            rate.add_counts(data_counts if check_counts is None else data_counts + check_counts)
        if cfg.monte_carlo:
            for mc in mcs:
                for old, new in batch:
                    mc.add(old, new)

    writes = rates[0].writes
    if writes == 0:
        raise ConfigError("input produced no write records after warmup")

    bundle = ReportBundle(pw=pw, include_ecc=cfg.include_ecc, writes=writes, histogram=histogram)
    for scheme, rate, spread, mc in zip(schemes, rates, spreads, mcs):
        means = rate.finalize()
        increase = (
            reliability.normalized_increase(means.rate, means.optimal_rate)
            if means.optimal_rate > 0
            else None
        )
        bundle.schemes.append(
            SchemeReport(
                scheme=scheme.kind,
                analytic_rate=means.rate,
                optimal_rate=means.optimal_rate,
                optimal_rate_int=means.optimal_rate_int,
                increase_pct=increase,
                stats=spread.finalize(),
                mc=mc.finalize() if mc is not None else None,
            )
        )
    return bundle


def format_sig(value: float | None) -> str:
    """Plain-decimal rendering with 6 significant digits; empty for missing values."""
    if value is None:
        return ""
    if math.isinf(value):
        return "inf"
    if value == 0:
        return "0"
    return np.format_float_positional(
        value, precision=6, unique=False, fractional=False, trim="-"
    )


def emit_csv(bundle: ReportBundle, outdir: str | Path) -> list[Path]:
    """Write histogram.csv, codeword_stats.csv, and error_rates.csv."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []

    path = outdir / "histogram.csv"
    with path.open("w", encoding="ascii", newline="\n") as handle:
        handle.write("flat_index,count\n")
        for flat, count in enumerate(bundle.histogram):
            handle.write(f"{flat},{int(count)}\n")
    paths.append(path)

    path = outdir / "codeword_stats.csv"
    with path.open("w", encoding="ascii", newline="\n") as handle:
        handle.write("scheme,stat,value-%\n")
        for report in bundle.schemes:
            stats = report.stats
            for stat, value in (
                ("min_avg", stats.min_avg_pct),
                ("max_avg", stats.max_avg_pct),
                ("min_extreme", stats.min_extreme_pct),
                ("max_extreme", stats.max_extreme_pct),
            ):
                handle.write(f"{report.scheme},{stat},{format_sig(value)}\n")
    paths.append(path)

    path = outdir / "error_rates.csv"
    with path.open("w", encoding="ascii", newline="\n") as handle:
        handle.write("scheme,analytic_rate,optimal_rate,increase_pct,mc_rate,mc_stderr\n")
        for report in bundle.schemes:
            mc_rate = format_sig(report.mc.error_rate) if report.mc else ""
            mc_stderr = format_sig(report.mc.stderr) if report.mc else ""
            handle.write(
                f"{report.scheme},{format_sig(report.analytic_rate)},"
                f"{format_sig(report.optimal_rate)},{format_sig(report.increase_pct)},"
                f"{mc_rate},{mc_stderr}\n"
            )
    paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# SVG emission: dependency-free static charts; every plotted value also lives
# in one of the CSV tables.
# ---------------------------------------------------------------------------

_SVG_HEADER = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
    'viewBox="0 0 {w} {h}" font-family="monospace" font-size="11">\n'
)
_BAR_COLORS = ("#4878a8", "#e49444", "#59935c", "#b05ca8")


def _svg_text(x: float, y: float, text: str, anchor: str = "middle") -> str:
    return f'<text x="{x:.1f}" y="{y:.1f}" text-anchor="{anchor}">{text}</text>\n'


def _histogram_svg(histogram: np.ndarray) -> str:
    width, height = 1084, 360
    left, right, top, bottom = 56, 12, 16, 40
    plot_w = width - left - right
    plot_h = height - top - bottom
    peak = max(1, int(histogram.max()))
    parts = [_SVG_HEADER.format(w=width, h=height)]
    parts.append(f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
                 'fill="#fcfcfc" stroke="#cccccc"/>\n')
    # word boundaries every 64 bits
    for word in range(9):
        x = left + plot_w * (word * 64) / BLOCK_BITS
        parts.append(f'<line x1="{x:.1f}" y1="{top}" x2="{x:.1f}" y2="{top + plot_h}" '
                     'stroke="#dddddd"/>\n')
        if word < 8:
            parts.append(_svg_text(x + plot_w / 16, top + plot_h + 16, f"word {word}"))
    points = []
    for flat, count in enumerate(histogram):
        x = left + plot_w * (flat + 0.5) / BLOCK_BITS
        y = top + plot_h * (1.0 - int(count) / peak)
        points.append(f"{x:.1f},{y:.1f}")
    parts.append(f'<polyline fill="none" stroke="{_BAR_COLORS[0]}" stroke-width="1" '
                 f'points="{" ".join(points)}"/>\n')
    parts.append(_svg_text(left - 6, top + 12, str(peak), anchor="end"))
    parts.append(_svg_text(left - 6, top + plot_h, "0", anchor="end"))
    parts.append(_svg_text(width / 2, height - 6, "transitions per flat bit position"))
    parts.append("</svg>\n")
    return "".join(parts)


def _bar_chart_svg(
    title: str,
    groups: list[tuple[str, list[tuple[str, float]]]],
    unit: str,
    baseline: float | None = None,
) -> str:
    width, height = 640, 360
    left, right, top, bottom = 64, 16, 28, 56
    plot_w = width - left - right
    plot_h = height - top - bottom
    values = [v for _, bars in groups for _, v in bars if math.isfinite(v)]
    peak = max([abs(v) for v in values] + [baseline or 0.0, 1e-12])
    parts = [_SVG_HEADER.format(w=width, h=height)]
    parts.append(f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
                 'fill="#fcfcfc" stroke="#cccccc"/>\n')
    group_w = plot_w / max(1, len(groups))
    for g, (label, bars) in enumerate(groups):
        bar_w = group_w / (len(bars) + 1)
        for b, (name, value) in enumerate(bars):
            shown = min(abs(value), peak)
            x = left + g * group_w + bar_w * (b + 0.5)
            h = plot_h * shown / peak
            y = top + plot_h - h
            color = _BAR_COLORS[b % len(_BAR_COLORS)]
            parts.append(f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" height="{h:.1f}" '
                         f'fill="{color}"><title>{name}</title></rect>\n')
            parts.append(_svg_text(x + bar_w / 2, y - 4, format_sig(value)))
        parts.append(_svg_text(left + (g + 0.5) * group_w, top + plot_h + 16, label))
    if baseline is not None:
        y = top + plot_h * (1.0 - baseline / peak)
        parts.append(f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" y2="{y:.1f}" '
                     'stroke="#999999" stroke-dasharray="4 3"/>\n')
        parts.append(_svg_text(left - 6, y + 4, format_sig(baseline), anchor="end"))
    parts.append(_svg_text(left - 6, top + 12, format_sig(peak), anchor="end"))
    parts.append(_svg_text(width / 2, height - 8, f"{title} [{unit}]"))
    parts.append("</svg>\n")
    return "".join(parts)


def emit_svg(bundle: ReportBundle, outdir: str | Path) -> list[Path]:
    """Write histogram.svg, variation.svg, and error_increase.svg."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []

    path = outdir / "histogram.svg"
    path.write_text(_histogram_svg(bundle.histogram), encoding="ascii")
    paths.append(path)

    variation = [
        (
            report.scheme,
            [
                ("min_avg", report.stats.min_avg_pct),
                ("avg", 100.0 if report.stats.writes else 0.0),
                ("max_avg", report.stats.max_avg_pct),
            ],
        )
        for report in bundle.schemes
    ]
    path = outdir / "variation.svg"
    path.write_text(
        _bar_chart_svg("codeword transitions, normalized to uniform share", variation, "%",
                       baseline=100.0),
        encoding="ascii",
    )
    paths.append(path)

    increase = [
        (
            report.scheme,
            [("increase", report.increase_pct if report.increase_pct is not None else 0.0)]
            + (
                [
                    ("analytic_rate", report.analytic_rate),
                    ("mc_rate", report.mc.error_rate),
                ]
                if report.mc is not None
                else []
            ),
        )
        for report in bundle.schemes
    ]
    path = outdir / "error_increase.svg"
    path.write_text(
        _bar_chart_svg("error-rate increase over optimal", increase, "% / rate"),
        encoding="ascii",
    )
    paths.append(path)
    return paths
