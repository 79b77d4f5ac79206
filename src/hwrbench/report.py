"""Evaluation reports: per-cell metrics, aggregate rows, tables, plot data.

`evaluate` is a pure function of (datasets, baselines, cap mode); two
calls with the same inputs produce byte-identical rendered output. Raw
scores are the only stored quantity; every metric cell is recomputed.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from hwrbench.aggregate import leaders, summarize
from hwrbench.datasets import Dataset
from hwrbench.errors import DatasetError, ValidationError
from hwrbench.games import CANONICAL_GAMES, BaselineRegistry
from hwrbench.metrics import METRIC_KINDS, CapMode, MetricKind, cell_ratios, game_time_days
from hwrbench.numfmt import format_efficiency, format_number, format_percent, json_text


class CellMetrics(namedtuple("CellMetrics", "raw metrics")):
    """Every metric for one (algorithm, game) raw score, as plain ratios.

    ``metrics`` maps each MetricKind to its float.
    """

    __slots__ = ()


class EvaluationReport(namedtuple(
        "EvaluationReport",
        "cap_mode baseline_source dataset_labels cells aggregates leaders frames missing")):
    """Every cell, aggregate row and leader set of one evaluation.

    ``cells`` maps an algorithm, then a game, to CellMetrics, ``aggregates``
    an algorithm to its AggregateRow per MetricKind, ``leaders`` a game to
    its leading algorithms, ``frames`` an algorithm to its frame count
    and ``missing`` an algorithm to its sorted N/A games.
    """

    __slots__ = ()

    def algorithms(self) -> list[str]:
        return list(self.aggregates)


def evaluate(
    datasets: list[Dataset],
    baselines: BaselineRegistry,
    cap_mode: CapMode = CapMode.SPEC_FLOOR,
) -> EvaluationReport:
    """Compute every metric cell, aggregate row, and per-game leader set.

    Cells are the plain floats of ``metrics.cell_ratios``. Scores,
    baselines and denominators were checked at load; a hand-built record
    may still hold frames below 1 or a non-finite score.
    """
    if not datasets:
        raise DatasetError("no datasets to evaluate")
    cells: dict[str, dict[str, CellMetrics]] = {}  # algorithms in order of first appearance
    frames_by_algo: dict[str, int] = {}
    omitted: dict[str, list[str]] = {}
    for ds in datasets:
        for rec in ds.records:
            column = cells.setdefault(rec.algorithm, {})
            if rec.game in column:
                raise DatasetError(
                    f"duplicate cell {(rec.algorithm, rec.game)} across datasets "
                    f"(second occurrence in {ds.label!r})")
            if rec.frames < 1:
                raise ValidationError(f"{rec.algorithm}: frames must be positive: {rec.frames}")
            prior = frames_by_algo.setdefault(rec.algorithm, rec.frames)
            if prior != rec.frames:
                raise DatasetError(
                    f"{rec.algorithm}: inconsistent frame counts "
                    f"{prior} vs {rec.frames}")
            values = cell_ratios(rec.score, baselines.lookup(rec.game), cap_mode,
                                 f"{rec.algorithm}/{rec.game}")
            column[rec.game] = CellMetrics(rec.score, dict(zip(METRIC_KINDS, values)))
        for algorithm, game in ds.omitted:
            omitted.setdefault(algorithm, []).append(game)

    # Mean and median do not depend on the order of a column's values.
    aggregates = {algo: {kind: summarize([c.metrics[kind] for c in column.values()],
                                         frames_by_algo[algo], kind) for kind in METRIC_KINDS}
                  for algo, column in cells.items()}
    best: dict[str, tuple[str, ...]] = {}
    for game in CANONICAL_GAMES:
        raw = {a: column[game].raw for a, column in cells.items() if game in column}
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

class TableLayout(namedtuple("TableLayout", "metric algorithms")):
    """Which metric and algorithm columns a rendered table shows."""

    __slots__ = ()


def _layout_algorithms(report: EvaluationReport, layout: TableLayout) -> list[str]:
    missing = [repr(a) for a in layout.algorithms if a not in report.aggregates]
    if missing:
        raise ValidationError(f"algorithms not in the report: {', '.join(missing)}")
    repeated = [repr(a) for a, n in Counter(layout.algorithms).items() if n > 1]
    if repeated:
        raise ValidationError(f"algorithms repeated in the layout: {', '.join(repeated)}")
    if not layout.algorithms:
        raise ValidationError("layout selects no algorithm")
    return list(layout.algorithms)


def render_table(report: EvaluationReport, layout: TableLayout, fmt: str = "table") -> str:
    """Render one metric table as ``table`` or ``csv``; deterministic bytes for fixed inputs.

    Each algorithm contributes a raw column and a percent column; the
    per-game leader's cells are marked with ``*``. The footer carries
    the aggregate rows.
    """
    if fmt not in ("table", "csv"):
        raise ValidationError(f"unknown table format {fmt!r}")
    algos = _layout_algorithms(report, layout)
    metric = layout.metric
    header = ["game"]
    for algo in algos:
        header += [algo, f"{algo} {metric.value}%"]

    rows: list[list[str]] = []
    for game in CANONICAL_GAMES:
        if not any(game in report.cells[a] for a in algos):
            continue
        row = [game]
        game_leaders = report.leaders.get(game, ())
        for algo in algos:
            cell = report.cells[algo].get(game)
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
    stats.append(("coverage", lambda r: f"{r.coverage}/{len(CANONICAL_GAMES)}"))
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
    return f"{metric.value} | {', '.join(algos)}\n" + "\n".join(lines) + "\n"


def report_to_json(report: EvaluationReport) -> str:
    """The report's fields as ``json.dumps(fields, indent=2, sort_keys=True)`` writes them.

    Floats keep full precision.
    """
    names = {kind: kind.value for kind in METRIC_KINDS}  # ``Enum.value`` is a slow property
    per_game = {algo: {game: {**{name: cell.metrics[kind] for kind, name in names.items()},
                              "raw": cell.raw, "frames": report.frames[algo]}
                       for game, cell in column.items()}
                for algo, column in report.cells.items()}
    aggregates, coverage = {}, {}
    for algo, rows in report.aggregates.items():
        # Each row's fields, ``hwrb_count`` as "hwrb" and only when set (HWRNS).
        aggregates[algo] = {"frames": report.frames[algo], **{
            names[kind]: {field.removesuffix("_count"): value
                          for field, value in zip(row._fields, row) if value is not None}
            for kind, row in rows.items()}}
        coverage[algo] = {"present": rows[MetricKind.HNS].coverage,
                          "missing": report.missing.get(algo, ())}
    return json_text({
        "cap_mode": report.cap_mode.value,
        "baselines": report.baseline_source,
        "datasets": report.dataset_labels,
        "per_game": per_game,
        "aggregates": aggregates,
        "leaders": report.leaders,
        "coverage": coverage,
    }, sort_keys=True)


# --- figure data -------------------------------------------------------------

FIGURES = ("metric_vs_scale", "hwrb_vs_gametime", "efficiency")


class PlotSeries(namedtuple("PlotSeries", "name points labels flagged", defaults=((),))):
    """One figure line: (x, y) points sorted by x, one per algorithm.

    ``labels`` names the algorithm of each point; ``flagged`` lists the
    labels to omit on log-scale plots. ``_series`` builds and sorts them.
    """

    __slots__ = ()


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
