"""Experiment runner: wires traces or generators through schemes and models.

One streaming pass over the old/new pair stream, in the batches of up to
512 writes of :func:`robinsim.trace.pair_batches`, takes each batch's byte XOR
``olds ^ news``, counts every scheme's codeword flips from it with one
:func:`robinsim.mapping.scheme_counts` call, folds all of them with one
:meth:`robinsim.reliability.TraceAccumulator.add` call (each scheme's
analytic error rate, its uniform-split optimum and its codeword-spread
statistics, in a fixed float order that makes a scheme's rows independent of
the schemes run with it), and sums the per-bit transition histogram.
With Monte Carlo on, each batch's ``olds`` and ``news`` also feed one
:class:`robinsim.injection.MonteCarloAccumulator` for all schemes, which draws
a record's failures once and scores every scheme on them (the draws do not
depend on the scheme), so memory stays bounded in the trace length.
:func:`emit_csv` builds three CSV tables and :func:`emit_svg` three
self-contained SVG charts, each as text, and each writes its three with one
``_write`` call: ASCII with ``\n`` line ends, in a fixed order. Reruns with
the same config and seed are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import reliability
from .bits import BLOCK_BITS, blocks_to_bits
from .injection import InjectionConfig, MonteCarloAccumulator, TraceEstimate
from .mapping import KINDS, MappingScheme, scheme_counts
from .reliability import CodewordStats, DeviceParams, TraceAccumulator
from .trace import FORMATS, load_trace, old_new_pairs, pair_batches
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
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigError("schemes must not repeat")
        if (self.trace_path is None) == (self.workload is None):
            raise ConfigError("exactly one input source required: a trace file or a workload spec")
        if self.trace_format is not None and self.trace_path is None:
            raise ConfigError("trace_format given without a trace")
        if self.trace_format not in (None, *FORMATS):
            raise ConfigError(f"unknown trace_format {self.trace_format!r}; expected one of {FORMATS}")
        if (self.pw is None) == (self.device is None):
            raise ConfigError("exactly one p_write source required: pw or device parameters")
        if self.warmup < 0:
            raise ConfigError(f"warmup must be non-negative, got {self.warmup}")
        self._settings()

    def resolve_pw(self) -> float:
        return self.pw if self.pw is not None else reliability.p_write_from_device(self.device)

    def _settings(self) -> tuple[tuple[MappingScheme, ...], InjectionConfig]:
        """The run's schemes and its Monte Carlo settings; their checks raise ``ConfigError``.

        The injection config's own scheme is the first one; the run's
        accumulator scores all of them and does not read it.
        """
        try:
            schemes = tuple(MappingScheme(name) for name in self.schemes)
            injection = InjectionConfig(
                pw=self.resolve_pw(), scheme=schemes[0], trials=self.trials, seed=self.seed,
                include_ecc=self.include_ecc,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return schemes, injection


@dataclass(frozen=True)
class SchemeReport:
    scheme: str
    analytic_rate: float
    optimal_rate: float
    increase_pct: float | None
    stats: CodewordStats
    mc: TraceEstimate | None = None


@dataclass
class ReportBundle:
    pw: float
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
    schemes, injection = cfg._settings()
    pw = injection.pw
    acc = TraceAccumulator(pw, len(schemes))
    histogram = np.zeros(BLOCK_BITS, dtype=np.int64)
    mc = MonteCarloAccumulator(injection, schemes) if cfg.monte_carlo else None

    for olds, news in pair_batches(make_pairs(cfg)):
        diff = olds ^ news
        # exact: a batch holds at most BATCH <= 65535 flips per bit
        histogram += blocks_to_bits(diff).sum(axis=0, dtype=np.uint16)
        acc.add(*scheme_counts(schemes, diff, cfg.include_ecc))
        if mc is not None:
            mc.add_batch(olds, news)

    if acc.writes == 0:
        raise ConfigError("input produced no write records after warmup")

    bundle = ReportBundle(pw=pw, writes=acc.writes, histogram=histogram)
    estimates = mc.finalize() if mc is not None else [None] * len(schemes)
    for means, stats, estimate in zip(acc.rates(), acc.stats(cfg.schemes), estimates):
        rate, optimal = means.rate, means.optimal_rate
        increase = reliability.normalized_increase(rate, optimal) if optimal > 0 else None
        bundle.schemes.append(SchemeReport(stats.scheme, rate, optimal, increase, stats, estimate))
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


def _write(outdir: str | Path, files: dict[str, str]) -> list[Path]:
    """Write each file name's text under ``outdir`` as ASCII with ``\\n`` line ends.

    ``outdir`` is created if missing; the paths come back in ``files``' order.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = [outdir / name for name in files]
    for path, text in zip(paths, files.values()):
        path.write_text(text, encoding="ascii", newline="\n")
    return paths


def _table(header: str, rows: Iterable[str]) -> str:
    """A CSV table: the header line, then one line per row of comma-joined fields."""
    return "\n".join([header, *rows]) + "\n"


def emit_csv(bundle: ReportBundle, outdir: str | Path) -> list[Path]:
    """Write histogram.csv, codeword_stats.csv, and error_rates.csv."""
    histogram = (f"{flat},{count}" for flat, count in enumerate(bundle.histogram.tolist()))
    stats = (
        f"{report.scheme},{stat},{format_sig(getattr(report.stats, stat + '_pct'))}"
        for report in bundle.schemes
        for stat in ("min_avg", "max_avg", "min_extreme", "max_extreme")
    )
    rates = (
        ",".join([
            report.scheme,
            *map(format_sig, (report.analytic_rate, report.optimal_rate, report.increase_pct)),
            format_sig(report.mc.error_rate) if report.mc else "",
            format_sig(report.mc.stderr) if report.mc else "",
        ])
        for report in bundle.schemes
    )
    return _write(outdir, {
        "histogram.csv": _table("flat_index,count", histogram),
        "codeword_stats.csv": _table("scheme,stat,value-%", stats),
        "error_rates.csv": _table(
            "scheme,analytic_rate,optimal_rate,increase_pct,mc_rate,mc_stderr", rates
        ),
    })


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
    # the per-point float operations, in their order, over all 512 points at once
    xs = left + plot_w * (np.arange(BLOCK_BITS) + 0.5) / BLOCK_BITS
    ys = top + plot_h * (1.0 - histogram.astype(np.float64) / peak)
    points = [f"{x:.1f},{y:.1f}" for x, y in zip(xs.tolist(), ys.tolist())]
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
    increase = [
        (
            report.scheme,
            [("increase", report.increase_pct or 0.0)]
            + ([("analytic_rate", report.analytic_rate), ("mc_rate", report.mc.error_rate)]
               if report.mc else []),
        )
        for report in bundle.schemes
    ]
    return _write(outdir, {
        "histogram.svg": _histogram_svg(bundle.histogram),
        "variation.svg": _bar_chart_svg(
            "codeword transitions, normalized to uniform share", variation, "%", baseline=100.0
        ),
        "error_increase.svg": _bar_chart_svg("error-rate increase over optimal", increase, "% / rate"),
    })
