"""Recompute the bundled reference score tables and diff against them.

The bundled datasets store raw scores only; this module recomputes every
metric cell and aggregate row, compares them with the printed values
shipped in ``data/golden/``, and collects every disagreement into a
machine-readable inconsistency log. The reference tables are known to
contain a handful of internal contradictions (malformed cells, values
that disagree with the same table's raw column, aggregate rows that
disagree with their own cells); those are reported, never patched.

Printed percents carry two decimals, so a recomputed cell matches when
it agrees within 0.02 percentage points. Aggregate rows use a looser
0.5-point tolerance and are only expected to match when the printed
column is self-consistent.
"""

from __future__ import annotations

import json
from collections import namedtuple
from pathlib import Path

from hwrbench.aggregate import fmean, median
from hwrbench.datasets import Dataset, load_all_bundled
from hwrbench.errors import DatasetError
from hwrbench.games import _CANONICAL_SET, BaselineRegistry, data_path, read_csv
from hwrbench.metrics import METRIC_KINDS, CapMode, MetricKind
from hwrbench.numfmt import round_half_up
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


class AggregateCheck(namedtuple(
        "AggregateCheck", "table algorithm stat recomputed_pp printed_pp printed_text "
                          "column_clean printed_self_consistent")):
    """Recomputed vs printed mean/median for one table column.

    ``stat`` is "mean" or "median"; ``printed_pp`` is None when the
    printed text is not a number. ``column_clean`` means no cell of the
    printed column was logged as inconsistent; ``printed_self_consistent``
    means the printed footer agrees with the aggregate of the table's own
    printed cells. Only checks with both properties are expected to be
    within tolerance.
    """

    __slots__ = ()

    @property
    def within_tolerance(self) -> bool:
        return (self.printed_pp is not None
                and abs(self.recomputed_pp - self.printed_pp) <= AGGREGATE_TOLERANCE_PP)


class ReproductionResult(namedtuple(
        "ReproductionResult",
        "report layouts table_stats inconsistencies aggregate_checks hwrb")):
    """The diff of one reproduction against the golden files.

    ``layouts`` maps a table id to its TableLayout (metric and columns in
    print order); ``hwrb`` maps an algorithm to its recomputed and printed
    breakthrough counts.
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
    for lineno, (table, metric_text, algo, game, _raw, pct) in read_csv(
            src, CELL_COLUMNS, DatasetError):
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
        table: TableLayout(metric, tuple(a for t, a in printed if t == table), title=table)
        for table, metric in metrics.items()
    }
    return layouts, printed


def load_golden_aggregates(
    layouts: dict[str, TableLayout], path: str | Path | None = None,
) -> dict[tuple[str, str, str], str]:
    """(table, algorithm, row) -> printed text, checked against the cell layouts.

    Each row must name a (table, algorithm) column of ``layouts`` and that
    table's metric, with a ``row`` of ``AGGREGATE_ROWS``, at most once.
    """
    src = Path(path) if path is not None else data_path("golden", "printed_aggregates.csv")
    rows = {}
    for lineno, (table, metric, algo, stat, text) in read_csv(
            src, AGGREGATE_COLUMNS, DatasetError):
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
        rows[(table, algo, stat)] = text
    return rows


def _parse_number(text: str | None) -> float | None:
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def run_reproduction(
    baselines: BaselineRegistry | None = None,
    datasets: list[Dataset] | None = None,
) -> ReproductionResult:
    """Recompute all reference tables (table-compat caps) and diff them."""
    registry = baselines if baselines is not None else BaselineRegistry.load()
    data = datasets if datasets is not None else load_all_bundled()
    report = evaluate(data, registry, CapMode.TABLE_COMPAT)
    layouts, golden_cells = load_golden_cells()
    golden_aggs = load_golden_aggregates(layouts)

    report_games: dict[str, list[str]] = {}  # algorithm -> games, in report order
    for algo, game in report.cells:
        report_games.setdefault(algo, []).append(game)

    inconsistencies: list[Inconsistency] = []
    table_stats: list[TableStats] = []

    for table_id, layout in layouts.items():
        cells = matches = 0
        for algo in layout.algorithms:
            if algo not in report_games:
                raise DatasetError(
                    f"golden table {table_id} has algorithm {algo!r}, "
                    f"absent from the evaluated datasets")
            golden = golden_cells[(table_id, algo)]
            for game in report_games[algo]:
                cells += 1
                value = report.cells[(algo, game)].metrics[layout.metric]
                recomputed_pct = round_half_up(value * 100.0)
                printed = golden.get(game)
                printed_value = _parse_number(printed)
                if printed_value is not None and (
                        abs(recomputed_pct - printed_value) <= CELL_TOLERANCE_PP + 1e-9):
                    matches += 1
                    continue
                kind = ("coverage" if printed is None or printed.upper() == "N/A"
                        else "malformed" if printed_value is None else "value")
                inconsistencies.append(Inconsistency(
                    table_id, algo, game, kind, f"{recomputed_pct:.2f}",
                    printed if printed is not None else "<absent>"))
            # An omitted game is not counted; a value printed for it is a coverage conflict.
            for game, printed in golden.items():
                if (algo, game) not in report.cells and printed.upper() != "N/A":
                    inconsistencies.append(Inconsistency(
                        table_id, algo, game, "coverage", "N/A", printed))
        table_stats.append(TableStats(table_id, cells, matches))

    # Aggregate rows: compare recomputed mean/median per column against the
    # printed footer. A printed footer that disagrees with its own printed
    # cells (e.g. a wrong denominator) is itself inconsistent; it is logged
    # and not expected to match the recomputation.
    cell_mismatch_keys = {(m.table, m.algorithm) for m in inconsistencies if m.game}
    aggregate_checks: list[AggregateCheck] = []
    for table_id, layout in layouts.items():
        for algo in layout.algorithms:
            row = report.aggregates[algo][layout.metric]
            printed_col = [v for text in golden_cells[(table_id, algo)].values()
                           if (v := _parse_number(text)) is not None]
            for stat, recomputed, of_cells in (("mean", row.mean, fmean),
                                               ("median", row.median, median)):
                printed_text = golden_aggs.get((table_id, algo, stat))
                if printed_text is None:
                    continue
                printed_value = _parse_number(printed_text)
                self_consistent = printed_value is not None and bool(printed_col) and (
                    abs(of_cells(printed_col) - printed_value) <= AGGREGATE_TOLERANCE_PP)
                check = AggregateCheck(
                    table=table_id,
                    algorithm=algo,
                    stat=stat,
                    recomputed_pp=recomputed * 100.0,
                    printed_pp=printed_value,
                    printed_text=printed_text,
                    column_clean=(table_id, algo) not in cell_mismatch_keys,
                    printed_self_consistent=self_consistent,
                )
                aggregate_checks.append(check)
                if not check.within_tolerance:
                    inconsistencies.append(Inconsistency(
                        table_id, algo, "", "aggregate",
                        f"{check.recomputed_pp:.2f}", printed_text))

    # Breakthrough counts: HWRNS tables print them and SABER tables reprint
    # them; a disagreement in either is a conflict. Only the HWRNS printings
    # are recorded per table.
    hwrb: dict[str, dict[str, int | None]] = {}
    for table_id, layout in layouts.items():
        if layout.metric not in (MetricKind.HWRNS, MetricKind.SABER):
            continue
        for algo in layout.algorithms:
            recomputed = report.aggregates[algo][MetricKind.HWRNS].hwrb_count
            printed_text = golden_aggs.get((table_id, algo, "hwrb"))
            printed_value = _parse_number(printed_text)
            if layout.metric is MetricKind.HWRNS:
                entry = hwrb.setdefault(algo, {"recomputed": recomputed})
                entry[f"printed:{table_id}"] = (
                    int(printed_value) if printed_value is not None else None)
            if printed_value is not None and int(printed_value) != recomputed:
                inconsistencies.append(Inconsistency(
                    table_id, algo, "", "hwrb", str(recomputed), printed_text))

    return ReproductionResult(report, layouts, table_stats, inconsistencies,
                              aggregate_checks, hwrb)


def write_artifacts(result: ReproductionResult, out_dir: str | Path) -> list[Path]:
    """Write the inconsistency log, summary, and recomputed tables."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    log_path = out / "inconsistency_log.json"
    log_path.write_text(json.dumps(
        [m._asdict() for m in result.inconsistencies], indent=2) + "\n",
        encoding="utf-8")
    written.append(log_path)

    summary_path = out / "summary.json"
    clean = [c for c in result.aggregate_checks
             if c.column_clean and c.printed_self_consistent]
    summary_path.write_text(json.dumps({
        "cells": result.total_cells,
        "matches": result.total_matches,
        "match_rate": result.match_rate,
        "tables": {t.table: {"cells": t.cells, "matches": t.matches,
                             "match_rate": t.match_rate}
                   for t in result.table_stats},
        "aggregate_checks": len(result.aggregate_checks),
        "clean_aggregate_checks": len(clean),
        "clean_aggregate_matches": sum(1 for c in clean if c.within_tolerance),
        "inconsistencies": len(result.inconsistencies),
        "hwrb": result.hwrb,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    written.append(summary_path)

    tables_dir = out / "tables"
    tables_dir.mkdir(exist_ok=True)
    for table_id, layout in result.layouts.items():
        path = tables_dir / f"{table_id}.csv"
        path.write_text(render_table(result.report, layout, fmt="csv"),
                        encoding="utf-8")
        written.append(path)

    figures_dir = out / "figures"
    figures_dir.mkdir(exist_ok=True)
    for figure in FIGURES:
        payload = [
            {
                "name": s.name,
                "points": [list(p) for p in s.points],
                "labels": list(s.labels),
                "flagged": list(s.flagged),
            }
            for s in emit_plot_series(result.report, figure)
        ]
        path = figures_dir / f"{figure}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        written.append(path)
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
