import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hwrbench
from hwrbench import numfmt, report, reproduce
from hwrbench.cli import main
from hwrbench.datasets import load_bundled_dataset
from hwrbench.errors import DatasetError
from hwrbench.games import BaselineRegistry, data_path
from hwrbench.metrics import MetricKind
from hwrbench.reproduce import (
    CELL_COLUMNS,
    Inconsistency,
    load_golden_aggregates,
    load_golden_cells,
    run_reproduction,
    write_artifacts,
)

SRC = str(Path(hwrbench.__file__).parents[1])
GOLDEN_CELLS = data_path("golden", "printed_cells.csv")
GOLDEN_AGGREGATES = data_path("golden", "printed_aggregates.csv")

# Column order of the printed tables, per table family.
PRINT_ORDER = {
    "sota-200m-model-free": ("Rainbow", "IMPALA", "LASER", "GDI-I3", "GDI-H3"),
    "sota-10bplus-model-free": ("R2D2", "NGU", "Agent57", "GDI-I3", "GDI-H3"),
    "sota-model-based": ("MuZero", "DreamerV2", "SimPLe", "GDI-I3", "GDI-H3"),
    "sota-other": ("Muesli", "Go-Explore", "GDI-I3", "GDI-H3"),
}


def run_cli(*argv) -> subprocess.CompletedProcess:
    """``python -m hwrbench.cli *argv`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "hwrbench.cli", *argv], capture_output=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)


@pytest.fixture(scope="module")
def golden():
    return load_golden_cells()


def golden_copy(tmp_path, cell_at=None, duplicate=None):
    """The bundled golden cells in a temp file, with column ``cell_at[1]`` of
    file line ``cell_at[0]`` set to ``cell_at[2]``, and file line
    ``duplicate`` appended again."""
    lines = GOLDEN_CELLS.read_text(encoding="utf-8").splitlines(keepends=True)
    if cell_at is not None:
        lineno, field, value = cell_at
        cells = lines[lineno - 1].rstrip("\n").split(",")
        cells[CELL_COLUMNS.index(field)] = value
        lines[lineno - 1] = ",".join(cells) + "\n"
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
    path, where = golden_copy(tmp_path, cell_at=(3, "metric", "bogus"))
    with pytest.raises(DatasetError, match=f"{where}:3: unknown metric 'bogus'"):
        load_golden_cells(path)


@pytest.mark.parametrize("metric", ["raw", "minmax", ""])
def test_non_table_metric_rejected(tmp_path, metric):
    path, where = golden_copy(tmp_path, cell_at=(2, "metric", metric))
    with pytest.raises(DatasetError, match=f"{where}:2: unknown metric"):
        load_golden_cells(path)


def test_table_mixing_metrics_rejected(tmp_path):
    path, where = golden_copy(tmp_path, cell_at=(4, "metric", "hwrns"))
    with pytest.raises(DatasetError, match=f"{where}:4: table hns-sota-200m-model-free "
                                           "mixes metrics hns and hwrns"):
        load_golden_cells(path)


def test_duplicate_cell_rejected(tmp_path):
    path, where = golden_copy(tmp_path, duplicate=6)
    with pytest.raises(DatasetError, match=f"{where}:3251: duplicate cell "
                                           "hns-sota-200m-model-free/GDI-H3/alien"):
        load_golden_cells(path)


def test_unknown_game_rejected(tmp_path):
    path, where = golden_copy(tmp_path, cell_at=(619, "game", "berzrek"))
    with pytest.raises(DatasetError, match=f"{where}:619: unknown game 'berzrek'"):
        load_golden_cells(path)


@pytest.mark.parametrize("field, text", [("printed_pct", "13_4.26"), ("printed_raw", "9_491.7")])
def test_underscore_in_a_printed_number_rejected(tmp_path, field, text):
    path, where = golden_copy(tmp_path, cell_at=(2, field, text))
    with pytest.raises(DatasetError, match=f"^{where}:2: '_' in number '{text}'$"):
        load_golden_cells(path)


def test_non_ascii_printed_number_rejected(tmp_path):
    text = "\u0661\u0663\u0664.\u0662\u0666"  # Arabic-Indic 134.26, which float() reads
    path, where = golden_copy(tmp_path, cell_at=(2, "printed_pct", text))
    with pytest.raises(DatasetError,
                       match=f"^{where}:2: non-ASCII character in number '{text}'$"):
        load_golden_cells(path)


UNREADABLE = pytest.mark.parametrize("text, detail", [
    (b"1\x80", "'utf-8' codec can't decode byte 0x80 in position {}: invalid start byte"),
    (b"9" * 131_073, "field larger than field limit (131072)"),
], ids=["not-utf8", "over-field-limit"])


@UNREADABLE
def test_unreadable_printed_cell_raises_at_its_line(tmp_path, text, detail):
    # Line 3000 is far past the first chunk a text file decodes.
    path, _where = golden_copy(tmp_path, cell_at=(3000, "printed_pct", "PCT"))
    data = path.read_bytes()
    detail = detail.format(data.splitlines()[2999].index(b"PCT") + 1)
    path.write_bytes(data.replace(b"PCT", text))
    with pytest.raises(DatasetError, match=f"^{re.escape(f'{path}:3000: {detail}')}$"):
        load_golden_cells(path)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_printed_cell_is_malformed(monkeypatch, golden, text):
    layouts, cells = golden
    column = ("hns-sota-200m-model-free", "Rainbow")
    edited = {**cells, column: {**cells[column], "alien": text}}
    monkeypatch.setattr(reproduce, "load_golden_cells", lambda: (layouts, edited))
    result = run_reproduction()
    assert Inconsistency(*column, "alien", "malformed", "134.26", text) in (
        result.inconsistencies)


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


def test_underscore_in_a_printed_aggregate_rejected(tmp_path, golden):
    path, where = aggregates_copy(tmp_path, line=2, field="printed", value="87_3.97")
    with pytest.raises(DatasetError, match=f"^{where}:2: '_' in number '87_3.97'$"):
        load_golden_aggregates(golden[0], path)


@UNREADABLE
def test_unreadable_printed_aggregate_raises_at_its_line(tmp_path, golden, text, detail):
    path, _where = aggregates_copy(tmp_path, line=200, field="printed", value="TEXT")
    data = path.read_bytes()
    detail = detail.format(data.splitlines()[199].index(b"TEXT") + 1)
    path.write_bytes(data.replace(b"TEXT", text))
    with pytest.raises(DatasetError, match=f"^{re.escape(f'{path}:200: {detail}')}$"):
        load_golden_aggregates(golden[0], path)


HWRB_LINE = 98  # hwrns-sota-200m-model-free,hwrns,Rainbow,hwrb,4


@pytest.mark.parametrize("value", ["4.7", "-1", "-0.5", "1e-3"])
def test_printed_hwrb_count_must_be_a_nonnegative_integer(tmp_path, golden, value):
    path, where = aggregates_copy(tmp_path, line=HWRB_LINE, field="printed", value=value)
    with pytest.raises(DatasetError, match=f"^{where}:{HWRB_LINE}: hwrb count '{value}' "
                                           "is not a nonnegative integer$"):
        load_golden_aggregates(golden[0], path)


@pytest.mark.parametrize("value, recorded", [
    ("4.0", 4), ("5", 5), ("nan", None), ("inf", None), ("N/A", None)])
def test_printed_hwrb_count_compared_only_when_a_number(
        monkeypatch, tmp_path, golden, value, recorded):
    path, _where = aggregates_copy(tmp_path, line=HWRB_LINE, field="printed", value=value)
    rows = load_golden_aggregates(golden[0], path)
    monkeypatch.setattr(reproduce, "load_golden_aggregates", lambda layouts: rows)
    result = run_reproduction()
    table = "hwrns-sota-200m-model-free"
    assert result.hwrb["Rainbow"] == {"recomputed": 4, f"printed:{table}": recorded}
    conflicts = [(m.table, m.algorithm, m.recomputed, m.printed)
                 for m in result.inconsistencies if m.kind == "hwrb"]
    assert conflicts == [(table, "Rainbow", "4", "5")] * (value == "5") + [
        ("saber-sota-10bplus-model-free", "NGU", "8", "9")]


def test_a_footer_the_golden_file_omits_is_not_compared(monkeypatch, tmp_path, golden):
    # SimPLe's HNS mean (line 44) is the one footer off its recomputed value;
    # without it the column's cells and median are still compared, and its mean is not.
    expected = run_reproduction()
    path, _where = aggregates_copy(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    removed = lines.pop(43)
    assert removed == "hns-sota-model-based,hns,SimPLe,mean,25.3\n"
    path.write_text("".join(lines), encoding="utf-8")
    rows = load_golden_aggregates(golden[0], path)
    monkeypatch.setattr(reproduce, "load_golden_aggregates", lambda layouts: rows)
    result = run_reproduction()
    assert result.aggregate_checks == {"aggregate_checks": 113, "clean_aggregate_checks": 59,
                                       "clean_aggregate_matches": 59}
    assert result.inconsistencies == [m for m in expected.inconsistencies if m.kind != "aggregate"]
    assert len(expected.inconsistencies) - len(result.inconsistencies) == 1
    assert result.table_stats == expected.table_stats


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


# The sha256 of each file ``reproduce`` writes from the bundled data. Any change
# to an artifact's bytes, the order of the log or the layout of a figure
# included, fails here.
ARTIFACT_SHA256 = {
    "inconsistency_log.json":
        "212dba37898552b96932bf6a61b25b9b324bde84810bf4f8b8a39682834a8d14",
    "summary.json":
        "7aa77c1ca7b71206c9fdffce459dd5f5f46f272217adeb4071e0d9c11e5d9fee",
    "tables/hns-sota-10bplus-model-free.csv":
        "cafd0b6ea5061e13d4ccac4a6b2e08210346723572d671ff6eec9e7599526e55",
    "tables/hns-sota-200m-model-free.csv":
        "22bf84446e0918fd3c6976f502eabea8f7219d79bf6adfac52a3ec9961694144",
    "tables/hns-sota-model-based.csv":
        "d48601b3d48ad74d35a96ce5bec41ecda8fe18343ab3def565e960e6422650cc",
    "tables/hns-sota-other.csv":
        "efefe0da258db893d58f09bedeceb89f982074baf489a1cdcfdfd3d3c368e337",
    "tables/hwrns-sota-10bplus-model-free.csv":
        "a6e8ea38bac49fcfee0edcde9de219bdb1bd8dabf6f36a13c5fb40b7d001889d",
    "tables/hwrns-sota-200m-model-free.csv":
        "8a78ea5be8080cb63fb15175087571300a4688a9b5bc5efbb3c5118cda3e938b",
    "tables/hwrns-sota-model-based.csv":
        "d2922227597b29c3b1c26e5bbb8ffd73b93723fbe5776f55481a584d6ce3c399",
    "tables/hwrns-sota-other.csv":
        "36ececaa364d5dc696b176cdf62dabfcc2369b045a822e7e9346e85ca321a3d1",
    "tables/saber-sota-10bplus-model-free.csv":
        "755a1cfcf17299c4b0b99e88ecfd89ee54f8542e53c67106c1bb6c3de6d3d2a2",
    "tables/saber-sota-200m-model-free.csv":
        "d09bbd6373ccc8948cfaa901a85d5c7027c394999062fabcdf65edaf3aa629e7",
    "tables/saber-sota-model-based.csv":
        "9d4f61dc2cf5de8295fd5dc65f9cdf380ef4c026f51ae874a640dc45489412f7",
    "tables/saber-sota-other.csv":
        "aa34765b5997791750e2ecfaa1197b2f421a6c52eb586165291d27177a1fa8bd",
    "figures/efficiency.json":
        "8785144766635d662bc52ecd3068987c3b576b2cb575418d7ecb686a4f84ec0c",
    "figures/hwrb_vs_gametime.json":
        "f57aa094ab4c4cf9eb388d32aa65e5be9b3d9cbfb282789312ab26b300213312",
    "figures/metric_vs_scale.json":
        "a40b5abba979b5d3bd4bd5e65d0c6cf639056ffd26db32b20fc8b5da71d1dfe8",
}


@pytest.mark.parametrize("fresh", [False, True], ids=["in-process", "fresh-interpreter"])
def test_artifact_bytes_are_pinned(tmp_path, fresh):
    if fresh:  # the whole ``reproduce`` process, its exit included
        result = run_cli("reproduce", "--out", str(tmp_path))
        assert (result.returncode, result.stderr) == (0, b"")
        written = [p for p in tmp_path.rglob("*") if p.is_file()]
    else:
        written = write_artifacts(run_reproduction(), tmp_path)
    assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == sorted(written)
    assert {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in written} == ARTIFACT_SHA256


def test_each_distinct_value_is_formatted_once(monkeypatch, tmp_path):
    # The golden diff and the 12 tables share the percent memo: a nonzero
    # ratio is rounded once however often it is printed, and a zero every
    # time (it is never memoised). Without the memo, round_half_up ran 6,462
    # times here.
    monkeypatch.setattr(numfmt, "_PERCENTS", {})
    ratios, scores, rounded = [], [], []

    def spy(log, function):
        def call(value):
            log.append(value)
            return function(value)
        return call

    monkeypatch.setattr(numfmt, "round_half_up", spy(rounded, numfmt.round_half_up))
    for module in (report, reproduce):
        monkeypatch.setattr(module, "format_percent", spy(ratios, numfmt.format_percent))
    monkeypatch.setattr(report, "format_number", spy(scores, numfmt.format_number))

    write_artifacts(run_reproduction(), tmp_path)
    assert len(ratios) == 6462 and len(scores) == 3174
    zeros = [r for r in ratios if not r]
    assert len(rounded) == len(set(ratios) - {0.0}) + len(zeros) <= 1443
    assert {type(s) for s in scores} == {float}


def test_logged_cells_agree_with_the_tables(tmp_path):
    result = run_reproduction()
    write_artifacts(result, tmp_path)
    log = json.loads((tmp_path / "inconsistency_log.json").read_text(encoding="utf-8"))
    checked = 0
    for entry in log:
        try:
            float(entry["recomputed"])
        except ValueError:  # "N/A": a game the evaluated datasets omit
            continue
        if not entry["game"]:  # an aggregate or hwrb row
            continue
        table = entry["table"]
        with open(tmp_path / "tables" / f"{table}.csv", encoding="utf-8", newline="") as fh:
            row = next(r for r in csv.DictReader(fh) if r["game"] == entry["game"])
        column = f"{entry['algorithm']} {result.layouts[table].metric.value}%"
        assert row[column] == entry["recomputed"]
        checked += 1
    assert checked == 40


# sha256 of the stdout of each read-only verb on the bundled data, with the
# bundled data directory written as "<data>".
STDOUT_SHA256 = {
    ("aggregate",):
        "12c9ba46ec173e4e3140200a10c7f5a0cc13646f68efa5574cb06658d978d4b1",
    ("aggregate", "--cap-mode", "table-compat"):
        "373482737bae9f15dbcd2cac4ab4717fa0b0eaf7688a3f8bc443fd9c133842f5",
    ("aggregate", "--format", "json"):
        "7bd0fd1a4c0e799a3ed135b4049f39652bae36eb7517914df1f354aa3c6a2cae",
    ("aggregate", "--format", "json", "--cap-mode", "table-compat"):
        "879aa08740683d6cb138891c401fd480f666a29c36bc2e0b7d305239cfc868dc",
    ("report", "--format", "csv", "--metric", "hns"):
        "f543bc5312893fc9a4e34a8010129ddc2908fb0f98f020d467bdff9d2b4e6101",
    ("report", "--format", "csv", "--metric", "chns"):
        "252af38636885f2c13d65d488a6dbf0233ad679454b119d2a41b3029cf507bb5",
    ("report", "--format", "csv", "--metric", "hwrns"):
        "f31cb113d85e2f78b138dd74bbd8be45c157118e97a50dc6e8f9497b2b8af0c0",
    ("report", "--format", "csv", "--metric", "saber"):
        "018a57f9a3b1f597d95d6ef8338321f18fca1588c263b78d4203f3a6bd7585a2",
    ("compare", "GDI-H3", "Agent57"):
        "152efd950528d31193f6f1ebf675abe295cb4fa2ccc23ce83c28a08e03be2757",
    ("validate",):
        "b452ba0c9395fc50a7576545ad65fd576560a604780aa40909c85a7689b0983f",
    ("score", "--format", "json", "--game", "alien", "--score", "9491.7", "--frames", "2e8"):
        "393678d349e8fb5e04904c8d27db6590288976b5deb180927fe739cad921d275",
    ("score", "--format", "json", "--game", "pong", "--score", "-20.7"):
        "30a567657ddfe9b2a79184dabf5371729ff19408e890efe776e9fc1571bbcd7c",
    # above the world record of 864
    ("score", "--format", "json", "--game", "breakout", "--score", "900"):
        "d140e54bb8902b23600aaf1cb612fa9ed77d59f2551bdcd0ad51871c6cf7481d",
    # text tables are the only output with a title line
    ("report", "--metric", "hns"):
        "e2181eef8a20465823c56859d2231b348739717d26860729eb4cd9cb92d83b19",
    ("report", "--metric", "chns"):
        "35e45a7eb62489003f71fae9967945fa9b5ebefd8a094580e9e3633bc934c933",
    ("report", "--metric", "hwrns"):
        "f98ca51ed6fef41dab24d4b6aef82b06deefbb796f9e0ad7cd0a6cafc9cee91f",
    ("report", "--metric", "saber"):
        "1ca9fa5a58f177cc89f3fcb06410674d4a1d85bc59682a629b4ff827e42f3e45",
    # SimPLe has no row for the games its dataset omits
    ("report", "--algorithms", "SimPLe", "--metric", "hns"):
        "66c364ceeed09d6bb7d334a4cff6305840fd8af9ea9b3eb35abb3093a938386d",
    ("score", "--game", "alien", "--score", "9491.7", "--frames", "2e8"):
        "c2f885b7a30bfa566127ec93004c7c33c2c51788154bb6f69ba41a0b73ac300e",
    ("score", "--cap-mode", "table-compat", "--format", "json", "--game", "skiing",
     "--score", "-29970.32"):
        "2a3136fc5a1821fec1343e75de24cc553667338d30c80ef15dc52126660df6eb",
}


@pytest.mark.parametrize("argv, fresh", [
    *(pytest.param(argv, False, id=" ".join(argv)) for argv in STDOUT_SHA256),
    *(pytest.param(argv, True, id=" ".join(argv) + " in a fresh interpreter")
      for argv in STDOUT_SHA256),
])
def test_verb_stdout_bytes_are_pinned(capsys, argv, fresh):
    if fresh:  # the whole process, its exit included
        result = run_cli(*argv)
        assert (result.returncode, result.stderr) == (0, b"")
        out = result.stdout.decode("utf-8")
    else:
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
    out = out.replace(str(data_path()), "<data>")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == STDOUT_SHA256[argv]
