"""Evaluation reports: per-cell metrics, aggregate rows, tables, plot data.

`evaluate` is a pure function of (datasets, baselines, cap mode); two
calls with the same inputs produce byte-identical rendered output. Raw
scores are the only stored quantity; every metric cell is recomputed.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from math import isfinite

from hwrbench.aggregate import AggregateRow, leaders, summarize
from hwrbench.datasets import Dataset
from hwrbench.errors import DatasetError, ValidationError
from hwrbench.games import CANONICAL_GAMES, BaselineRegistry
from hwrbench.metrics import METRIC_KINDS, CapMode, MetricKind, game_time_days, normalize
from hwrbench.numfmt import format_efficiency, format_number, format_percent


@dataclass(frozen=True)
class CellMetrics:
    """Every metric for one (algorithm, game) raw score, as plain ratios."""

    raw: float
    metrics: dict[MetricKind, float]


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
    """Compute every metric cell, aggregate row, and per-game leader set.

    Cells are plain floats, capped as ``metrics.chns`` and ``metrics.saber``
    do. Scores, baselines and denominators were checked at load; only the
    ratios' finiteness is left to check.
    """
    if not datasets:
        raise DatasetError("no datasets to evaluate")
    floor = cap_mode is CapMode.SPEC_FLOOR
    cells: dict[tuple[str, str], CellMetrics] = {}
    frames_by_algo: dict[str, int] = {}  # in order of first appearance
    rows: dict[str, list[tuple[float, ...]]] = {}  # algorithm -> metric values per cell
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
            h = normalize(rec.score, base.random, base.human_average)
            w = normalize(rec.score, base.random, base.human_world_record)
            if not (isfinite(h) and isfinite(w)):
                raise ValidationError(f"{rec.algorithm}/{rec.game}: normalized score overflows")
            s = min(w, 2.0)
            values = (h, min(max(h, 0.0), 1.0), w, max(s, 0.0) if floor else s)
            cells[key] = CellMetrics(rec.score, dict(zip(METRIC_KINDS, values)))
            rows.setdefault(rec.algorithm, []).append(values)
        for algorithm, game in ds.omitted:
            omitted.setdefault(algorithm, []).append(game)

    # Mean and median do not depend on the order of a column's values.
    aggregates = {
        algo: {kind: summarize(column, frames_by_algo[algo], kind)
               for kind, column in zip(METRIC_KINDS, zip(*rows[algo]))}
        for algo in frames_by_algo
    }
    best: dict[str, tuple[str, ...]] = {}
    for game in CANONICAL_GAMES:
        raw = {a: cells[(a, game)].raw for a in frames_by_algo if (a, game) in cells}
        if raw:
            best[game] = tuple(leaders(raw))
    return EvaluationReport(
        cap_mode=cap_mode,
        baseline_source=baselines.source,
        dataset_labels=tuple(ds.label for ds in datasets),
        cells=cells,
        aggregates=aggregates,
        leaders=best,
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
                    format_percent(cell.metrics[metric])]
        rows.append(row)

    stats = [(f"mean {metric.value}%", lambda r: format_percent(r.mean)),
             ("learning efficiency", lambda r: format_efficiency(r.efficiency_mean)),
             (f"median {metric.value}%", lambda r: format_percent(r.median)),
             ("learning efficiency", lambda r: format_efficiency(r.efficiency_median))]
    if metric is MetricKind.HWRNS:
        stats.append(("hwrb", lambda r: str(r.hwrb_count)))
    stats.append(("coverage", lambda r: f"{r.coverage}/57"))
    footer = [[label] + [text for algo in algos
                         for text in ("", value_of(report.aggregates[algo][metric]))]
              for label, value_of in stats]

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
            **{kind.value: cell.metrics[kind] for kind in METRIC_KINDS},
        }
    aggregates = {}
    for algo, rows in report.aggregates.items():
        aggregates[algo] = {"frames": report.frames[algo]}
        for kind, row in rows.items():
            aggregates[algo][kind.value] = {
                "mean": row.mean,
                "median": row.median,
                "coverage": row.coverage,
                "efficiency_mean": row.efficiency_mean,
                "efficiency_median": row.efficiency_median,
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
                "present": report.aggregates[algo][MetricKind.HNS].coverage,
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


def _series(name: str, points: list[tuple[str, float, float]],
            flag_zero: bool = False) -> PlotSeries:
    """A figure line from (algorithm, x, y) triples, sorted by x, then algorithm."""
    points = sorted(points, key=lambda p: (p[1], p[0]))
    return PlotSeries(name, tuple((x, y) for _, x, y in points),
                      tuple(a for a, _, _ in points),
                      tuple(a for a, _, y in points if y == 0) if flag_zero else ())


def emit_plot_series(report: EvaluationReport, figure: str) -> list[PlotSeries]:
    """Point series behind the summary figures; plotting is external."""
    if figure not in FIGURES:
        raise ValidationError(f"unknown figure {figure!r}; choose from {FIGURES}")
    algos, aggs, frames = report.algorithms(), report.aggregates, report.frames
    if figure == "metric_vs_scale":
        return [_series(f"{stat}-{kind.value}-vs-scale",
                        [(a, float(frames[a]), getattr(aggs[a][kind], stat)) for a in algos])
                for kind in (MetricKind.HNS, MetricKind.HWRNS, MetricKind.SABER)
                for stat in ("mean", "median")]
    if figure == "hwrb_vs_gametime":
        return [_series("hwrb-vs-gametime",
                        [(a, game_time_days(frames[a]),
                          float(aggs[a][MetricKind.HWRNS].hwrb_count)) for a in algos],
                        flag_zero=True)]
    return [_series(f"mean-{kind.value}-efficiency-vs-scale",
                    [(a, float(frames[a]), aggs[a][kind].efficiency_mean) for a in algos])
            for kind in (MetricKind.HNS, MetricKind.HWRNS)]
