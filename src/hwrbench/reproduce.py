"""Recompute the bundled reference score tables and diff against them.

The bundled datasets store raw scores only; this module recomputes every
metric cell and aggregate row, compares them with the printed values
shipped in ``data/golden/``, one printed column at a time, and collects
every disagreement into a machine-readable inconsistency log. The
reference tables are known to contain a handful of internal
contradictions (malformed cells, values that disagree with the same
table's raw column, aggregate rows that disagree with their own cells);
those are reported, never patched.

Printed percents carry two decimals, so a recomputed cell matches when
it agrees within 0.02 percentage points. Aggregate rows use a looser
0.5-point tolerance and are only expected to match when the printed
column is self-consistent. A printed ``nan`` or ``inf`` is not a number.
"""

from __future__ import annotations

from collections import namedtuple
from math import isfinite
from pathlib import Path

from hwrbench.aggregate import fmean, median
from hwrbench.datasets import Dataset, load_all_bundled
from hwrbench.errors import DatasetError
from hwrbench.games import _CANONICAL_SET, BaselineRegistry, data_path, read_csv
from hwrbench.metrics import METRIC_KINDS, CapMode, MetricKind
from hwrbench.numfmt import format_percent, json_text
from hwrbench.report import (
    FIGURES,
    TableLayout,
    emit_plot_series,
    evaluate,
    render_table,
)

CELL_TOLERANCE_PP = 0.02
AGGREGATE_TOLERANCE_PP = 0.5
AGGREGATE_ROWS = ("mean", "median", "mean_eff", "median_eff", "hwrb")
CELL_COLUMNS = ("table", "metric", "algorithm", "game", "printed_raw", "printed_pct")
AGGREGATE_COLUMNS = ("table", "metric", "algorithm", "row", "printed")


class Inconsistency(namedtuple(
        "Inconsistency", "table algorithm game kind recomputed printed")):
    """One disagreement between a recomputed value and a printed one.

    ``game`` is empty for aggregate rows; ``kind`` is one of "value",
    "malformed", "coverage", "aggregate" and "hwrb".
    """

    __slots__ = ()


class TableStats(namedtuple("TableStats", "table cells matches")):
    __slots__ = ()

    @property
    def match_rate(self) -> float:
        return self.matches / self.cells if self.cells else 1.0


class ReproductionResult(namedtuple(
        "ReproductionResult",
        "report layouts table_stats inconsistencies aggregate_checks hwrb")):
    """The diff of one reproduction against the golden files.

    ``layouts`` maps a table id to its TableLayout (metric and columns in
    print order). ``aggregate_checks`` counts the mean/median footers
    compared, those expected to match (clean column, footer consistent
    with its own printed cells) and those that do, under the names
    ``summary.json`` prints. ``hwrb`` maps an algorithm to its recomputed
    and printed breakthrough counts.
    """

    __slots__ = ()

    @property
    def total_cells(self) -> int:
        return sum(t.cells for t in self.table_stats)

    @property
    def total_matches(self) -> int:
        return sum(t.matches for t in self.table_stats)

    @property
    def match_rate(self) -> float:
        return self.total_matches / self.total_cells


def load_golden_cells(
    path: str | Path | None = None,
) -> tuple[dict[str, TableLayout], dict[tuple[str, str], dict[str, str]]]:
    """Table layouts, and (table, algorithm) -> {game: printed percent text}.

    The layouts come from the file itself: each table's ``metric`` column,
    and its algorithms in order of first appearance, which is print order.
    Every game must be a canonical game name.
    """
    src = Path(path) if path is not None else data_path("golden", "printed_cells.csv")
    known = {kind.value: kind for kind in METRIC_KINDS}
    metrics: dict[str, MetricKind] = {}
    printed: dict[tuple[str, str], dict[str, str]] = {}
    for lineno, (table, metric_text, algo, game, raw, pct) in read_csv(
            src, CELL_COLUMNS, DatasetError, ("printed_raw", "printed_pct")):
        metric = known.get(metric_text)
        if metric is None:
            raise DatasetError(f"{src}:{lineno}: unknown metric {metric_text!r}")
        if metrics.setdefault(table, metric) is not metric:
            raise DatasetError(
                f"{src}:{lineno}: table {table} mixes metrics "
                f"{metrics[table].value} and {metric.value}")
        if game not in _CANONICAL_SET:
            raise DatasetError(f"{src}:{lineno}: unknown game {game!r}")
        column = printed.setdefault((table, algo), {})
        if game in column:
            raise DatasetError(f"{src}:{lineno}: duplicate cell {table}/{algo}/{game}")
        column[game] = pct
    layouts = {
        table: TableLayout(metric, tuple(a for t, a in printed if t == table))
        for table, metric in metrics.items()
    }
    return layouts, printed


def load_golden_aggregates(
    layouts: dict[str, TableLayout], path: str | Path | None = None,
) -> dict[tuple[str, str, str], str]:
    """(table, algorithm, row) -> printed text, checked against the cell layouts.

    Each row must name a (table, algorithm) column of ``layouts`` and that
    table's metric, with a ``row`` of ``AGGREGATE_ROWS``, at most once. An
    ``hwrb`` row that is a number must be a nonnegative integer; one that is
    not a number (``N/A``, ``inf``...) is recorded as None and not compared.
    """
    src = Path(path) if path is not None else data_path("golden", "printed_aggregates.csv")
    rows = {}
    for lineno, (table, metric, algo, stat, text) in read_csv(
            src, AGGREGATE_COLUMNS, DatasetError, ("printed",)):
        layout = layouts.get(table)
        if layout is None or algo not in layout.algorithms:
            raise DatasetError(f"{src}:{lineno}: no golden cells for {table}/{algo}")
        if metric != layout.metric.value:
            raise DatasetError(f"{src}:{lineno}: metric {metric!r} disagrees "
                               f"with table {table} ({layout.metric.value})")
        if stat not in AGGREGATE_ROWS:
            raise DatasetError(f"{src}:{lineno}: unknown row {stat!r}")
        if (table, algo, stat) in rows:
            raise DatasetError(f"{src}:{lineno}: duplicate row {table}/{algo}/{stat}")
        count = _parse_number(text) if stat == "hwrb" else None
        if count is not None and not (count >= 0 and count.is_integer()):
            raise DatasetError(
                f"{src}:{lineno}: hwrb count {text!r} is not a nonnegative integer")
        rows[(table, algo, stat)] = text
    return rows


def _parse_number(text: str | None) -> float | None:
    try:
        value = float(text)
    except (TypeError, ValueError):
        return None
    return value if isfinite(value) else None


def run_reproduction(
    baselines: BaselineRegistry | None = None,
    datasets: list[Dataset] | None = None,
) -> ReproductionResult:
    """Recompute all reference tables (table-compat caps) and diff them.

    Each golden (table, algorithm) column is walked once, in print order:
    its cells, its mean and median footers, then its HWRB count. The log
    lists the cell findings, then the aggregate ones, then the hwrb ones.
    """
    registry = baselines if baselines is not None else BaselineRegistry.load()
    data = datasets if datasets is not None else load_all_bundled()
    report = evaluate(data, registry, CapMode.TABLE_COMPAT)
    layouts, golden_cells = load_golden_cells()
    golden_aggs = load_golden_aggregates(layouts)

    cell_log: list[Inconsistency] = []
    aggregate_log: list[Inconsistency] = []
    hwrb_log: list[Inconsistency] = []
    table_stats: list[TableStats] = []
    n_checks = clean_checks = clean_matches = 0
    hwrb: dict[str, dict[str, int | None]] = {}

    for table_id, layout in layouts.items():
        metric = layout.metric
        cells = matches = 0
        for algo in layout.algorithms:
            if algo not in report.cells:
                raise DatasetError(
                    f"golden table {table_id} has algorithm {algo!r}, "
                    f"absent from the evaluated datasets")
            golden = golden_cells[(table_id, algo)]
            golden_values = {game: _parse_number(text) for game, text in golden.items()}
            logged = len(cell_log)
            column = report.cells[algo]
            for game, cell in column.items():
                cells += 1
                # The text the table prints, so the diff and the tables round alike.
                pct_text = format_percent(cell.metrics[metric])
                printed_value = golden_values.get(game)
                if printed_value is not None and (
                        abs(float(pct_text) - printed_value) <= CELL_TOLERANCE_PP + 1e-9):
                    matches += 1
                    continue
                printed = golden.get(game)
                kind = ("coverage" if printed is None or printed.upper() == "N/A"
                        else "malformed" if printed_value is None else "value")
                cell_log.append(Inconsistency(
                    table_id, algo, game, kind, pct_text,
                    printed if printed is not None else "<absent>"))
            # An omitted game is not counted; a value printed for it is a coverage conflict.
            for game, printed in golden.items():
                if game not in column and printed.upper() != "N/A":
                    cell_log.append(Inconsistency(
                        table_id, algo, game, "coverage", "N/A", printed))
            column_clean = len(cell_log) == logged

            # A footer is expected to match only if its column is clean and it agrees
            # with its own printed cells (not so with a wrong denominator, say).
            row = report.aggregates[algo][metric]
            printed_col = [v for v in golden_values.values() if v is not None]
            for stat, recomputed, of_cells in (("mean", row.mean, fmean),
                                               ("median", row.median, median)):
                printed_text = golden_aggs.get((table_id, algo, stat))
                if printed_text is None:
                    continue
                printed_value = _parse_number(printed_text)
                within = printed_value is not None and (
                    abs(recomputed * 100.0 - printed_value) <= AGGREGATE_TOLERANCE_PP)
                if not within:
                    aggregate_log.append(Inconsistency(
                        table_id, algo, "", "aggregate",
                        f"{recomputed * 100.0:.2f}", printed_text))
                n_checks += 1
                if column_clean and printed_value is not None and printed_col and (
                        abs(of_cells(printed_col) - printed_value) <= AGGREGATE_TOLERANCE_PP):
                    clean_checks += 1
                    clean_matches += within

            # HWRNS tables print HWRB counts and SABER tables reprint them; a conflict
            # in either is logged, but only the HWRNS printings are recorded.
            if metric not in (MetricKind.HWRNS, MetricKind.SABER):
                continue
            recomputed = report.aggregates[algo][MetricKind.HWRNS].hwrb_count
            printed_text = golden_aggs.get((table_id, algo, "hwrb"))
            printed_value = _parse_number(printed_text)  # integral: checked at load
            if metric is MetricKind.HWRNS:
                entry = hwrb.setdefault(algo, {"recomputed": recomputed})
                entry[f"printed:{table_id}"] = (
                    int(printed_value) if printed_value is not None else None)
            if printed_value is not None and printed_value != recomputed:
                hwrb_log.append(Inconsistency(
                    table_id, algo, "", "hwrb", str(recomputed), printed_text))
        table_stats.append(TableStats(table_id, cells, matches))

    counts = {"aggregate_checks": n_checks, "clean_aggregate_checks": clean_checks,
              "clean_aggregate_matches": clean_matches}
    return ReproductionResult(report, layouts, table_stats,
                              cell_log + aggregate_log + hwrb_log, counts, hwrb)


def write_artifacts(result: ReproductionResult, out_dir: str | Path) -> list[Path]:
    """Write the inconsistency log, summary, recomputed tables and figure series."""
    out = Path(out_dir)
    written: list[Path] = []

    def write(path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        written.append(path)

    write(out / "inconsistency_log.json",
          json_text([m._asdict() for m in result.inconsistencies]) + "\n")
    write(out / "summary.json", json_text({
        "cells": result.total_cells,
        "matches": result.total_matches,
        "match_rate": result.match_rate,
        "tables": {t.table: {"cells": t.cells, "matches": t.matches,
                             "match_rate": t.match_rate}
                   for t in result.table_stats},
        **result.aggregate_checks,
        "inconsistencies": len(result.inconsistencies),
        "hwrb": result.hwrb,
    }, sort_keys=True) + "\n")
    for table_id, layout in result.layouts.items():
        write(out / "tables" / f"{table_id}.csv",
              render_table(result.report, layout, fmt="csv"))
    for figure in FIGURES:
        series = [s._asdict() for s in emit_plot_series(result.report, figure)]
        write(out / "figures" / f"{figure}.json", json_text(series) + "\n")
    return written


def summary_lines(result: ReproductionResult) -> list[str]:
    lines = [
        f"cells compared: {result.total_cells}",
        f"cells matched:  {result.total_matches} ({result.match_rate:.2%})",
        f"inconsistencies logged: {len(result.inconsistencies)}",
    ]
    for t in result.table_stats:
        lines.append(f"  {t.table:35s} {t.matches:4d}/{t.cells:4d} ({t.match_rate:.2%})")
    lines.append("breakthrough counts (recomputed):")
    for algo, entry in result.hwrb.items():
        lines.append(f"  {algo:12s} {entry['recomputed']}")
    return lines
