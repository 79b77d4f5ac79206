import csv
import re

import pytest

from hwrbench import reproduce
from hwrbench.datasets import load_bundled_dataset
from hwrbench.errors import DatasetError
from hwrbench.games import BaselineRegistry, data_path
from hwrbench.metrics import MetricKind
from hwrbench.reproduce import (
    Inconsistency,
    load_golden_aggregates,
    load_golden_cells,
    run_reproduction,
)

GOLDEN_CELLS = data_path("golden", "printed_cells.csv")
GOLDEN_AGGREGATES = data_path("golden", "printed_aggregates.csv")

# Column order of the printed tables, per table family.
PRINT_ORDER = {
    "sota-200m-model-free": ("Rainbow", "IMPALA", "LASER", "GDI-I3", "GDI-H3"),
    "sota-10bplus-model-free": ("R2D2", "NGU", "Agent57", "GDI-I3", "GDI-H3"),
    "sota-model-based": ("MuZero", "DreamerV2", "SimPLe", "GDI-I3", "GDI-H3"),
    "sota-other": ("Muesli", "Go-Explore", "GDI-I3", "GDI-H3"),
}


@pytest.fixture(scope="module")
def golden():
    return load_golden_cells()


def golden_copy(tmp_path, metric_at=None, duplicate=None, game_at=None):
    """The bundled golden cells in a temp file, with file line ``metric_at[0]``
    given metric ``metric_at[1]``, file line ``game_at[0]`` given game
    ``game_at[1]``, and file line ``duplicate`` appended again."""
    lines = GOLDEN_CELLS.read_text(encoding="utf-8").splitlines(keepends=True)
    if metric_at is not None:
        lineno, metric = metric_at
        table, _metric, rest = lines[lineno - 1].split(",", 2)
        lines[lineno - 1] = f"{table},{metric},{rest}"
    if game_at is not None:
        lineno, game = game_at
        cells = lines[lineno - 1].split(",")
        cells[3] = game
        lines[lineno - 1] = ",".join(cells)
    if duplicate is not None:
        lines.append(lines[duplicate - 1])
    path = tmp_path / "printed_cells.csv"
    path.write_text("".join(lines), encoding="utf-8")
    return path, re.escape(str(path))


def test_layouts_follow_print_order(golden):
    layouts, _cells = golden
    expected = [(f"{m.value}-{family}", m, algos)
                for m in (MetricKind.HNS, MetricKind.HWRNS, MetricKind.SABER)
                for family, algos in PRINT_ORDER.items()]
    assert [(t, lay.metric, lay.algorithms) for t, lay in layouts.items()] == expected
    assert all(lay.title == t for t, lay in layouts.items())


def test_index_holds_every_golden_cell(golden):
    _layouts, cells = golden
    assert sum(len(column) for column in cells.values()) == 3249
    assert cells[("hns-sota-200m-model-free", "Rainbow")]["alien"] == "134.26"


def test_bundled_golden_files_agree(golden):
    layouts, _cells = golden
    with open(data_path("golden", "printed_aggregates.csv"), newline="",
              encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        layout = layouts[row["table"]]
        assert row["algorithm"] in layout.algorithms, row
        assert row["metric"] == layout.metric.value, row


def test_unknown_metric_rejected(tmp_path):
    path, where = golden_copy(tmp_path, metric_at=(3, "bogus"))
    with pytest.raises(DatasetError, match=f"{where}:3: unknown metric 'bogus'"):
        load_golden_cells(path)


@pytest.mark.parametrize("metric", ["raw", "minmax", ""])
def test_non_table_metric_rejected(tmp_path, metric):
    path, where = golden_copy(tmp_path, metric_at=(2, metric))
    with pytest.raises(DatasetError, match=f"{where}:2: unknown metric"):
        load_golden_cells(path)


def test_table_mixing_metrics_rejected(tmp_path):
    path, where = golden_copy(tmp_path, metric_at=(4, "hwrns"))
    with pytest.raises(DatasetError, match=f"{where}:4: table hns-sota-200m-model-free "
                                           "mixes metrics hns and hwrns"):
        load_golden_cells(path)


def test_duplicate_cell_rejected(tmp_path):
    path, where = golden_copy(tmp_path, duplicate=6)
    with pytest.raises(DatasetError, match=f"{where}:3251: duplicate cell "
                                           "hns-sota-200m-model-free/GDI-H3/alien"):
        load_golden_cells(path)


def test_unknown_game_rejected(tmp_path):
    path, where = golden_copy(tmp_path, game_at=(619, "berzrek"))
    with pytest.raises(DatasetError, match=f"{where}:619: unknown game 'berzrek'"):
        load_golden_cells(path)


def test_number_printed_for_an_omitted_game_is_a_coverage_inconsistency(
        monkeypatch, golden):
    layouts, cells = golden
    column = ("hns-sota-model-based", "SimPLe")
    assert cells[column]["berzerk"] == "N/A"  # file line 619
    edited = {**cells, column: {**cells[column], "berzerk": "55.55"}}
    monkeypatch.setattr(reproduce, "load_golden_cells", lambda: (layouts, edited))
    result = run_reproduction()
    # The omitted game adds no compared cell, only one logged inconsistency.
    assert (result.total_cells, result.total_matches) == (3174, 3134)
    assert len(result.inconsistencies) == 43
    assert Inconsistency(*column, "berzerk", "coverage", "N/A", "55.55") in (
        result.inconsistencies)


def aggregates_copy(tmp_path, line=None, field=None, value=None, duplicate=None):
    """The bundled golden aggregates in a temp file, with column ``field`` of
    file line ``line`` set to ``value``, and file line ``duplicate`` appended again."""
    lines = GOLDEN_AGGREGATES.read_text(encoding="utf-8").splitlines(keepends=True)
    if line is not None:
        header = lines[0].rstrip("\n").split(",")
        cells = lines[line - 1].rstrip("\n").split(",")
        cells[header.index(field)] = value
        lines[line - 1] = ",".join(cells) + "\n"
    if duplicate is not None:
        lines.append(lines[duplicate - 1])
    path = tmp_path / "printed_aggregates.csv"
    path.write_text("".join(lines), encoding="utf-8")
    return path, re.escape(str(path))


def test_bundled_golden_aggregates_load(golden):
    rows = load_golden_aggregates(golden[0])
    assert len(rows) == 266
    assert rows[("hns-sota-200m-model-free", "Rainbow", "mean")] == "873.97"
    assert len(run_reproduction().inconsistencies) == 42


@pytest.mark.parametrize("field, value, message", [
    ("algorithm", "Nope", "no golden cells for hns-sota-200m-model-free/Nope"),
    ("table", "hns-nowhere", "no golden cells for hns-nowhere/Rainbow"),
    ("metric", "hwrns", "metric 'hwrns' disagrees with table hns-sota-200m-model-free \\(hns\\)"),
    ("row", "max", "unknown row 'max'"),
])
def test_bad_aggregate_row_rejected(tmp_path, golden, field, value, message):
    path, where = aggregates_copy(tmp_path, line=2, field=field, value=value)
    with pytest.raises(DatasetError, match=f"{where}:2: {message}"):
        load_golden_aggregates(golden[0], path)


def test_duplicate_aggregate_row_rejected(tmp_path, golden):
    path, where = aggregates_copy(tmp_path, duplicate=2)
    with pytest.raises(DatasetError, match=f"{where}:268: duplicate row "
                                           "hns-sota-200m-model-free/Rainbow/mean"):
        load_golden_aggregates(golden[0], path)


def test_golden_algorithm_absent_from_datasets():
    with pytest.raises(DatasetError, match="'R2D2', absent from the evaluated datasets"):
        run_reproduction(BaselineRegistry.load(),
                         [load_bundled_dataset("sota-200m-model-free")])


def test_result_carries_layouts(golden):
    result = run_reproduction()
    assert result.layouts == golden[0]
    assert [t.table for t in result.table_stats] == list(golden[0])


def test_hwrb_counts_from_hwrns_and_saber_tables():
    result = run_reproduction()
    # Only the HWRNS tables' printings are recorded per table ...
    assert result.hwrb["Rainbow"] == {
        "recomputed": 4, "printed:hwrns-sota-200m-model-free": 4}
    assert sorted(result.hwrb["GDI-H3"]) == [
        f"printed:hwrns-{family}" for family in sorted(PRINT_ORDER)] + ["recomputed"]
    # ... while a SABER table's reprint that disagrees is still logged.
    hwrb_conflicts = [(m.table, m.algorithm, m.recomputed, m.printed)
                      for m in result.inconsistencies if m.kind == "hwrb"]
    assert hwrb_conflicts == [("saber-sota-10bplus-model-free", "NGU", "8", "9")]
