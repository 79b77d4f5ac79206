"""Evaluation reports: per-cell metrics, aggregate rows, tables, plot data.

`evaluate` is a pure function of (datasets, baselines, cap mode); two
calls with the same inputs produce byte-identical rendered output. Raw
scores are the only stored quantity; every metric cell is recomputed.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from hwrbench.aggregate import AggregateRow, MetricColumn, aggregate, per_game_leader
from hwrbench.datasets import Dataset
from hwrbench.errors import DatasetError, ValidationError
from hwrbench.games import CANONICAL_GAMES, BaselineRegistry
from hwrbench.metrics import (
    METRIC_KINDS,
    CapMode,
    MetricKind,
    MetricValue,
    chns,
    game_time_days,
    hns,
    hwrns,
    saber,
)
from hwrbench.numfmt import format_efficiency, format_number, format_percent


@dataclass(frozen=True)
class CellMetrics:
    """Every metric for one (algorithm, game) raw score."""

    raw: float
    metrics: dict[MetricKind, MetricValue]


@dataclass(frozen=True)
class EvaluationReport:
    cap_mode: CapMode
    baseline_source: str
    dataset_labels: tuple[str, ...]
    cells: dict[tuple[str, str], CellMetrics]
    aggregates: dict[str, dict[MetricKind, AggregateRow]]
    leaders: dict[str, tuple[str, ...]]
    frames: dict[str, int]
    missing: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def algorithms(self) -> list[str]:
        return list(self.aggregates)


def evaluate(
    datasets: list[Dataset],
    baselines: BaselineRegistry,
    cap_mode: CapMode = CapMode.SPEC_FLOOR,
) -> EvaluationReport:
    """Compute every metric cell, aggregate row, and per-game leader set."""
    if not datasets:
        raise DatasetError("no datasets to evaluate")
    cells: dict[tuple[str, str], CellMetrics] = {}
    frames_by_algo: dict[str, int] = {}  # in order of first appearance
    omitted: dict[str, list[str]] = {}
    for ds in datasets:
        for rec in ds.records:
            key = (rec.algorithm, rec.game)
            if key in cells:
                raise DatasetError(
                    f"duplicate cell {key} across datasets "
                    f"(second occurrence in {ds.label!r})")
            prior = frames_by_algo.setdefault(rec.algorithm, rec.frames)
            if prior != rec.frames:
                raise DatasetError(
                    f"{rec.algorithm}: inconsistent frame counts "
                    f"{prior} vs {rec.frames}")
            base = baselines.lookup(rec.game)
            h = hns(rec.score, base)
            w = hwrns(rec.score, base)
            cells[key] = CellMetrics(
                raw=rec.score,
                metrics={
                    MetricKind.HNS: h,
                    MetricKind.CHNS: chns(h),
                    MetricKind.HWRNS: w,
                    MetricKind.SABER: saber(w, cap_mode),
                },
            )
        for algorithm, game in ds.omitted:
            omitted.setdefault(algorithm, []).append(game)

    raw_columns: list[MetricColumn] = []
    aggregates: dict[str, dict[MetricKind, AggregateRow]] = {}
    for algo in frames_by_algo:
        entries = {g: cells[(algo, g)] for g in CANONICAL_GAMES if (algo, g) in cells}
        raw_columns.append(MetricColumn(
            algo, MetricKind.RAW,
            {g: MetricValue(c.raw, MetricKind.RAW) for g, c in entries.items()}))
        aggregates[algo] = {
            kind: aggregate(
                MetricColumn(algo, kind, {g: c.metrics[kind] for g, c in entries.items()}),
                frames_by_algo[algo])
            for kind in METRIC_KINDS
        }

    leaders = {
        game: tuple(per_game_leader(raw_columns, game))
        for game in CANONICAL_GAMES
        if any(game in c.entries for c in raw_columns)
    }
    return EvaluationReport(
        cap_mode=cap_mode,
        baseline_source=baselines.source,
        dataset_labels=tuple(ds.label for ds in datasets),
        cells=cells,
        aggregates=aggregates,
        leaders=leaders,
        frames=frames_by_algo,
        missing={a: tuple(sorted(games)) for a, games in omitted.items()},
    )


# --- rendering ---------------------------------------------------------------

@dataclass(frozen=True)
class TableLayout:
    """Which metric and algorithm columns a rendered table shows."""

    metric: MetricKind
    algorithms: tuple[str, ...]
    title: str = ""


def _layout_algorithms(report: EvaluationReport, layout: TableLayout) -> list[str]:
    missing = [a for a in layout.algorithms if a not in report.aggregates]
    if missing:
        raise ValidationError(f"algorithms not in the report: {', '.join(missing)}")
    repeated = [a for a, n in Counter(layout.algorithms).items() if n > 1]
    if repeated:
        raise ValidationError(f"algorithms repeated in the layout: {', '.join(repeated)}")
    if not layout.algorithms:
        raise ValidationError("layout selects no algorithm")
    return list(layout.algorithms)


def render_table(report: EvaluationReport, layout: TableLayout, fmt: str = "text") -> str:
    """Render one metric table; deterministic bytes for fixed inputs.

    Each algorithm contributes a raw column and a percent column; the
    per-game leader's cells are marked with ``*``. The footer carries
    the aggregate rows.
    """
    if fmt not in ("text", "csv"):
        raise ValidationError(f"unknown table format {fmt!r}")
    algos = _layout_algorithms(report, layout)
    metric = layout.metric
    header = ["game"]
    for algo in algos:
        header += [algo, f"{algo} {metric.value}%"]

    rows: list[list[str]] = []
    for game in CANONICAL_GAMES:
        if not any((a, game) in report.cells for a in algos):
            continue
        row = [game]
        game_leaders = report.leaders.get(game, ())
        for algo in algos:
            cell = report.cells.get((algo, game))
            if cell is None:
                row += ["N/A", "N/A"]
                continue
            mark = "*" if algo in game_leaders else ""
            row += [format_number(cell.raw) + mark,
                    format_percent(cell.metrics[metric].value)]
        rows.append(row)

    footer: list[list[str]] = []

    def agg_row(label: str, value_of) -> list[str]:
        out = [label]
        for algo in algos:
            out += ["", value_of(report.aggregates[algo][metric])]
        return out

    footer.append(agg_row(f"mean {metric.value}%", lambda r: format_percent(r.mean)))
    footer.append(agg_row("learning efficiency",
                          lambda r: format_efficiency(r.efficiency_mean.value)))
    footer.append(agg_row(f"median {metric.value}%", lambda r: format_percent(r.median)))
    footer.append(agg_row("learning efficiency",
                          lambda r: format_efficiency(r.efficiency_median.value)))
    if metric is MetricKind.HWRNS:
        footer.append(agg_row("hwrb", lambda r: str(r.hwrb_count)))
    footer.append(agg_row("coverage", lambda r: f"{r.coverage}/57"))

    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(row) for row in rows + footer]
        return "\n".join(lines) + "\n"

    table = [header] + rows + footer
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0 or i == len(rows):
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    title = layout.title or f"{metric.value} | {', '.join(algos)}"
    return title + "\n" + "\n".join(lines) + "\n"


def report_to_dict(report: EvaluationReport) -> dict:
    """Machine-readable report; floats keep full precision through JSON."""
    per_game: dict[str, dict[str, dict]] = {}
    for (algo, game), cell in report.cells.items():
        per_game.setdefault(algo, {})[game] = {
            "raw": cell.raw,
            "frames": report.frames[algo],
            **{kind.value: cell.metrics[kind].value for kind in METRIC_KINDS},
        }
    aggregates = {}
    for algo, rows in report.aggregates.items():
        aggregates[algo] = {"frames": report.frames[algo]}
        for kind, row in rows.items():
            aggregates[algo][kind.value] = {
                "mean": row.mean,
                "median": row.median,
                "coverage": row.coverage,
                "efficiency_mean": row.efficiency_mean.value,
                "efficiency_median": row.efficiency_median.value,
            }
            if row.hwrb_count is not None:
                aggregates[algo][kind.value]["hwrb"] = row.hwrb_count
    return {
        "cap_mode": report.cap_mode.value,
        "baselines": report.baseline_source,
        "datasets": list(report.dataset_labels),
        "per_game": per_game,
        "aggregates": aggregates,
        "leaders": {g: list(v) for g, v in report.leaders.items()},
        "coverage": {
            algo: {
                "present": sum(1 for (a, _g) in report.cells if a == algo),
                "missing": list(report.missing.get(algo, ())),
            }
            for algo in report.aggregates
        },
    }


def report_to_json(report: EvaluationReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True)


# --- figure data -------------------------------------------------------------

FIGURES = ("metric_vs_scale", "hwrb_vs_gametime", "efficiency")


@dataclass(frozen=True)
class PlotSeries:
    """One figure line: points sorted by x, one per algorithm."""

    name: str
    points: tuple[tuple[float, float], ...]
    labels: tuple[str, ...]  # algorithm per point
    flagged: tuple[str, ...] = ()  # omit these labels on log-scale plots

    def __post_init__(self) -> None:
        xs = [x for x, _ in self.points]
        if xs != sorted(xs):
            raise ValidationError(f"{self.name}: points not sorted by x")


def _sorted_points(
    pairs: list[tuple[str, float, float]],
) -> list[tuple[str, float, float]]:
    return sorted(pairs, key=lambda p: (p[1], p[0]))


def emit_plot_series(report: EvaluationReport, figure: str) -> list[PlotSeries]:
    """Point series behind the summary figures; plotting is external."""
    if figure not in FIGURES:
        raise ValidationError(f"unknown figure {figure!r}; choose from {FIGURES}")
    algos = report.algorithms()
    series: list[PlotSeries] = []
    if figure == "metric_vs_scale":
        for kind in (MetricKind.HNS, MetricKind.HWRNS, MetricKind.SABER):
            for stat in ("mean", "median"):
                pairs = _sorted_points([
                    (a, float(report.frames[a]),
                     getattr(report.aggregates[a][kind], stat))
                    for a in algos])
                series.append(PlotSeries(
                    name=f"{stat}-{kind.value}-vs-scale",
                    points=tuple((x, y) for _, x, y in pairs),
                    labels=tuple(a for a, _, _ in pairs),
                ))
    elif figure == "hwrb_vs_gametime":
        pairs = _sorted_points([
            (a, game_time_days(report.frames[a]),
             float(report.aggregates[a][MetricKind.HWRNS].hwrb_count))
            for a in algos])
        series.append(PlotSeries(
            name="hwrb-vs-gametime",
            points=tuple((x, y) for _, x, y in pairs),
            labels=tuple(a for a, _, _ in pairs),
            flagged=tuple(a for a, _, y in pairs if y == 0),
        ))
    else:
        for kind in (MetricKind.HNS, MetricKind.HWRNS):
            pairs = _sorted_points([
                (a, float(report.frames[a]),
                 report.aggregates[a][kind].efficiency_mean.value)
                for a in algos])
            series.append(PlotSeries(
                name=f"mean-{kind.value}-efficiency-vs-scale",
                points=tuple((x, y) for _, x, y in pairs),
                labels=tuple(a for a, _, _ in pairs),
            ))
    return series
