import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import SRC, bundled_copy, cell, decoded, raises, run_cli, run_main

from hwrbench import numfmt, report, reproduce
from hwrbench.datasets import load_bundled_dataset
from hwrbench.errors import DatasetError
from hwrbench.games import BaselineRegistry, data_path, read_csv
from hwrbench.metrics import MetricKind
from hwrbench.reproduce import (
    AGGREGATE_COLUMNS,
    Inconsistency,
    load_golden_aggregates,
    load_golden_cells,
    run_reproduction,
    write_artifacts,
)

CELLS = "golden/printed_cells.csv"
AGGREGATES = "golden/printed_aggregates.csv"

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
    rows = list(read_csv(data_path(*AGGREGATES.split("/")), AGGREGATE_COLUMNS, DatasetError))
    assert rows
    for _, (table, metric, algorithm, *_) in rows:
        assert algorithm in layouts[table].algorithms, (table, algorithm)
        assert metric == layouts[table].metric.value, (table, metric)


def test_unknown_metric_rejected(tmp_path):
    path, _ = bundled_copy(tmp_path, CELLS, cell(3, "metric", "bogus"))
    with raises(DatasetError, f"{path}:3: unknown metric 'bogus'"):
        load_golden_cells(path)


@pytest.mark.parametrize("metric", ["raw", "minmax", ""])
def test_non_table_metric_rejected(tmp_path, metric):
    path, _ = bundled_copy(tmp_path, CELLS, cell(2, "metric", metric))
    with raises(DatasetError, f"{path}:2: unknown metric {metric!r}"):
        load_golden_cells(path)


def test_table_mixing_metrics_rejected(tmp_path):
    path, _ = bundled_copy(tmp_path, CELLS, cell(4, "metric", "hwrns"))
    with raises(DatasetError, f"{path}:4: table hns-sota-200m-model-free "
                              "mixes metrics hns and hwrns"):
        load_golden_cells(path)


def test_duplicate_cell_rejected(tmp_path):
    path, _ = bundled_copy(tmp_path, CELLS, lambda lines: lines.append(lines[5]))
    with raises(DatasetError, f"{path}:3251: duplicate cell "
                              "hns-sota-200m-model-free/GDI-H3/alien"):
        load_golden_cells(path)


def test_unknown_game_rejected(tmp_path):
    path, _ = bundled_copy(tmp_path, CELLS, cell(619, "game", "berzrek"))
    with raises(DatasetError, f"{path}:619: unknown game 'berzrek'"):
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


def test_bundled_golden_aggregates_load(golden):
    rows = load_golden_aggregates(golden[0])
    assert len(rows) == 266
    assert rows[("hns-sota-200m-model-free", "Rainbow", "mean")] == "873.97"
    assert len(run_reproduction().inconsistencies) == 42


@pytest.mark.parametrize("field, value, message", [
    ("algorithm", "Nope", "no golden cells for hns-sota-200m-model-free/Nope"),
    ("table", "hns-nowhere", "no golden cells for hns-nowhere/Rainbow"),
    ("metric", "hwrns", "metric 'hwrns' disagrees with table hns-sota-200m-model-free (hns)"),
    ("row", "max", "unknown row 'max'"),
])
def test_bad_aggregate_row_rejected(tmp_path, golden, field, value, message):
    path, _ = bundled_copy(tmp_path, AGGREGATES, cell(2, field, value))
    with raises(DatasetError, f"{path}:2: {message}"):
        load_golden_aggregates(golden[0], path)


HWRB_LINE = 98  # hwrns-sota-200m-model-free,hwrns,Rainbow,hwrb,4


@pytest.mark.parametrize("value", ["4.7", "-1", "-0.5", "1e-3"])
def test_printed_hwrb_count_must_be_a_nonnegative_integer(tmp_path, golden, value):
    path, _ = bundled_copy(tmp_path, AGGREGATES, cell(HWRB_LINE, "printed", value))
    with raises(DatasetError, f"{path}:{HWRB_LINE}: hwrb count '{value}' "
                              "is not a nonnegative integer"):
        load_golden_aggregates(golden[0], path)


@pytest.mark.parametrize("value, recorded", [
    ("4.0", 4), ("5", 5), ("nan", None), ("inf", None), ("N/A", None)])
def test_printed_hwrb_count_compared_only_when_a_number(
        monkeypatch, tmp_path, golden, value, recorded):
    path, _ = bundled_copy(tmp_path, AGGREGATES, cell(HWRB_LINE, "printed", value))
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
    path, removed = bundled_copy(tmp_path, AGGREGATES, lambda lines: lines.pop(43))
    assert removed == b"hns-sota-model-based,hns,SimPLe,mean,25.3\r\n"
    rows = load_golden_aggregates(golden[0], path)
    monkeypatch.setattr(reproduce, "load_golden_aggregates", lambda layouts: rows)
    result = run_reproduction()
    assert result.aggregate_checks == {"aggregate_checks": 113, "clean_aggregate_checks": 59,
                                       "clean_aggregate_matches": 59}
    assert result.inconsistencies == [m for m in expected.inconsistencies if m.kind != "aggregate"]
    assert len(expected.inconsistencies) - len(result.inconsistencies) == 1
    assert result.table_stats == expected.table_stats


def test_duplicate_aggregate_row_rejected(tmp_path, golden):
    path, _ = bundled_copy(tmp_path, AGGREGATES, lambda lines: lines.append(lines[1]))
    with raises(DatasetError, f"{path}:268: duplicate row "
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


# The logs that ``protocol-check`` reads below, written into a temp dir, "<logs>".
PIN_LOGS = {"conforming.log": "1 3 0 4\n-2 3 0 4\n3 0 1 4\n---\n5 1 0 4\n0 0 1 4\n",
            "tenths.log": "0.1 0 1 4\n---\n" * 10}
# sha256 of the stdout of each read-only verb on the bundled data, with the
# bundled data directory written as "<data>", and of ``protocol-check`` on a log.
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
    ("protocol-check", "--log", "<logs>/conforming.log", "--k", "2"):
        "20c99bee605ee1d917f0d2cb0a7646814142574cb18eba66844ecc4e83f63192",
    # Ten one-step episodes of reward 0.1: the training score, added in order, is
    # 0.09999999999999999 on every Python, where sum() makes 0.1 from 3.12.
    ("protocol-check", "--log", "<logs>/tenths.log", "--k", "10"):
        "c1e56a80c5aef8f3ea493f85ea28ed0033c98c6f9148f09f465cb50bf52ad7ab",
}


@pytest.mark.parametrize("argv, fresh", [
    *(pytest.param(argv, False, id=" ".join(argv)) for argv in STDOUT_SHA256),
    *(pytest.param(argv, True, id=" ".join(argv) + " in a fresh interpreter")
      for argv in STDOUT_SHA256),
])
def test_verb_stdout_bytes_are_pinned(tmp_path, argv, fresh):
    for name, text in PIN_LOGS.items():
        (tmp_path / name).write_bytes(text.encode())
    command = [arg.replace("<logs>", str(tmp_path)) for arg in argv]
    if fresh:  # the whole process, its exit included
        code, out, err = decoded(run_cli(*command))
    else:
        code, out, err = run_main(*command)
    assert (code, err) == (0, "")
    out = out.replace(str(data_path()), "<data>")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == STDOUT_SHA256[argv]


# Writes the pinned logs into a temp dir, runs every pinned argv through ``main``
# in-process, then ``reproduce`` into the temp dir, and prints the outcomes as
# JSON. It needs only the standard library, so it runs under a Python that has
# no pytest.
PINS_CHILD = """\
import contextlib, hashlib, io, json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from hwrbench.cli import main
from hwrbench.games import data_path

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
    text = out.getvalue().replace(str(data_path()), "<data>")
    return [code, err.getvalue(), hashlib.sha256(text.encode("utf-8")).hexdigest()]

logs, argvs = json.loads(sys.argv[2])
with tempfile.TemporaryDirectory() as tmp:
    for name, text in logs.items():
        Path(tmp, name).write_bytes(text.encode())
    stdout = {" ".join(argv): run([arg.replace("<logs>", tmp) for arg in argv])
              for argv in argvs}
    out = Path(tmp, "reproduce")
    code, err, _ = run(["reproduce", "--out", str(out)])
    artifacts = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in out.rglob("*") if p.is_file()}
print(json.dumps({"stdout": stdout, "reproduce": [code, err], "artifacts": artifacts}))
"""


def other_pythons(version):
    """Every distinct ``python<version>`` that runs, one per ``sys.version``: each
    on PATH, then each installed beside this interpreter, as pyenv lays versions out."""
    found = [Path(folder, f"python{version}") for folder in os.get_exec_path()]
    found += sorted(Path(sys.base_prefix).parent.glob(f"{version}.*/bin/python{version}"))
    pythons = {}
    for python in found:
        if not (python.is_file() and os.access(python, os.X_OK)):
            continue
        result = subprocess.run([python, "-I", "-c", "import sys; print(sys.version)"],
                                capture_output=True, text=True, timeout=60)
        if result.returncode == 0:
            pythons.setdefault(result.stdout, str(python))
    return list(pythons.values())


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_pins_hold_under_other_pythons(version):
    pythons = other_pythons(version)
    if not pythons:
        pytest.skip(f"python{version} is absent or does not run")
    argvs = json.dumps([PIN_LOGS, list(STDOUT_SHA256)])
    for python in pythons:
        result = subprocess.run([python, "-I", "-B", "-c", PINS_CHILD, SRC, argvs],
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, (python, result.stderr)
        assert json.loads(result.stdout) == {
            "stdout": {" ".join(argv): [0, "", sha] for argv, sha in STDOUT_SHA256.items()},
            "reproduce": [0, ""],
            "artifacts": ARTIFACT_SHA256,
        }, python
