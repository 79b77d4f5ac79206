import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hwrbench
from hwrbench.datasets import (
    BUNDLED_DATASETS,
    DATASET_COLUMNS,
    load_all_bundled,
    load_bundled_dataset,
    load_dataset,
)
from hwrbench.errors import DatasetError
from hwrbench.games import data_path, read_csv
from hwrbench.numfmt import parse_frames, scale_label_for


def write_dataset(tmp_path, rows, header="algorithm,game,score,frames,scale_label"):
    path = tmp_path / "ds.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_bundled_datasets_load():
    datasets = load_all_bundled()
    assert [ds.label for ds in datasets] == list(BUNDLED_DATASETS)
    by_label = {ds.label: ds for ds in datasets}

    free_200m = by_label["sota-200m-model-free"]
    algorithms = list(dict.fromkeys(r.algorithm for r in free_200m.records))
    assert algorithms == ["Rainbow", "IMPALA", "LASER", "GDI-I3", "GDI-H3"]
    assert len(free_200m.records) == 5 * 57
    assert free_200m.omitted == ()

    model_based = by_label["sota-model-based"]
    assert ("SimPLe", "berzerk") in model_based.omitted
    simple = [r for r in model_based.records if r.algorithm == "SimPLe"]
    assert len(simple) == 36
    assert all(r.frames == 1_000_000 for r in simple)


def test_every_algorithm_appears_once_across_bundles():
    seen = {}
    for ds in load_all_bundled():
        for rec in ds.records:
            key = (rec.algorithm, rec.game)
            assert key not in seen, f"{key} duplicated in {ds.label} and {seen[key]}"
            seen[key] = ds.label
    algorithms = {a for a, _ in seen}
    assert len(algorithms) == 13


def test_known_cells():
    records = {(r.algorithm, r.game): r
               for ds in load_all_bundled() for r in ds.records}
    assert records[("Rainbow", "alien")].score == 9491.7
    assert records[("Rainbow", "alien")].frames == 200_000_000
    assert records[("Agent57", "skiing")].score == -4202.6
    assert records[("Agent57", "skiing")].frames == 100_000_000_000
    assert records[("GDI-H3", "breakout")].score == 864


def test_na_rows_are_omitted_with_note(tmp_path):
    path = write_dataset(tmp_path, [
        "SimPLe,berzerk,N/A,1000000,1M",
        "SimPLe,alien,616.9,1000000,1M",
    ])
    ds = load_dataset(path)
    assert len(ds.records) == 1
    assert ds.omitted == (("SimPLe", "berzerk"),)


def test_duplicate_cell_rejected(tmp_path):
    path = write_dataset(tmp_path, [
        "A,alien,1,100,100",
        "A,alien,2,100,100",
    ])
    with pytest.raises(DatasetError, match="duplicate"):
        load_dataset(path)


def test_unknown_game_rejected(tmp_path):
    path = write_dataset(tmp_path, ["A,foo,1,100,100"])
    with pytest.raises(DatasetError, match="unknown game"):
        load_dataset(path)


def test_non_numeric_score_rejected(tmp_path):
    path = write_dataset(tmp_path, ["A,alien,twelve,100,100"])
    with pytest.raises(DatasetError):
        load_dataset(path)


def test_empty_dataset_rejected(tmp_path):
    path = write_dataset(tmp_path, ["A,alien,N/A,100,100"])
    with pytest.raises(DatasetError, match="empty"):
        load_dataset(path)


def test_bad_header_rejected(tmp_path):
    path = write_dataset(tmp_path, ["A,alien,1,100"],
                         header="algorithm,game,score,frames")
    with pytest.raises(DatasetError, match="header"):
        load_dataset(path)


def test_unknown_bundled_label_rejected():
    with pytest.raises(DatasetError, match="unknown bundled dataset"):
        load_bundled_dataset("nope")


def test_frames_accept_scientific_notation(tmp_path):
    path = write_dataset(tmp_path, ["A,alien,1,2e8,200M"])
    assert load_dataset(path).records[0].frames == 200_000_000


@pytest.mark.parametrize("row", [
    "A,alien,1,2.5,x",      # fractional frame count
    "A,alien,1,0,x",        # frames must be positive
    "A,alien,1,-4,x",
    "A,alien,1,inf,x",
    "A,alien,1,nan,x",
    "A,alien,inf,100,x",    # non-finite score
    "A,alien,nan,100,x",
    "A,alien,1,100,x",      # scale_label disagrees with frames
    "A,alien,1,100",        # a cell short
    # an omitted score does not exempt the row's frames and label
    "A,alien,N/A,abc,x",
    "A,alien,N/A,2.5,x",
    "A,alien,N/A,0,0",
    "A,alien,N/A,-4,-4",
    "A,alien,N/A,inf,x",
    "A,alien,N/A,100,x",
    # float() would drop the ``_`` and read 10.0 and 200000000
    "A,alien,1_0,100,100",
    "A,alien,1,2_00000000,200M",
    "A,alien,N/A,1_00,100",
    # an algorithm name must be nonempty and fit in one unquoted CSV cell
    " ,alien,100,200000000,200M",
    '"A,B",alien,1,100,100',
    '"""Q",alien,100,200000000,200M',
    # one frame count per algorithm within a file, an N/A row's included
    "A,alien,1,200,200",
    "A,alien,N/A,200,200",
])
def test_bad_row_names_file_and_line(tmp_path, row):
    path = write_dataset(tmp_path, ["A,pong,1,100,100", row])
    with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}:3: "):
        load_dataset(path)


@pytest.mark.parametrize("row, message", [
    ("A,alien,1,200000000,100M", "scale_label '100M' does not match 200000000 frames (200M)"),
    ("A,alien,1,100,200M", "scale_label '200M' does not match 100 frames (100)"),
    ("A,alien,1,2_00000000,200M", "'_' in number '2_00000000'"),
    ("A,alien,1_0,2_00000000,200M", "'_' in number '1_0'"),
    ("A,alien,1_0,200000000,200M", "'_' in number '1_0'"),
    ("A,alien,1,200000000.5,200M", "frame count must be integral: '200000000.5'"),
    ("A,alien,1,2.5,200M", "frame count must be integral: '2.5'"),
    ("A,alien,1,100,100", "A: inconsistent frame counts 200000000 vs 100"),
    ("A,alien,N/A,100,100", "A: inconsistent frame counts 200000000 vs 100"),
])
def test_a_later_row_of_a_checked_algorithm_is_checked_in_full(tmp_path, row, message):
    # A later row of an algorithm already seen has its frames and label checked in full.
    # The earlier rows hold each of the bad row's other cells, and are valid.
    path = write_dataset(tmp_path, ["A,pong,1,200000000,200M", "B,boxing,N/A,100,100", row])
    with pytest.raises(DatasetError, match=f"^{re.escape(f'{path}:4: {message}')}$"):
        load_dataset(path)


@pytest.mark.parametrize("row, cell", [
    ("A,alien,\u0661\u0660,200000000,200M", "\u0661\u0660"),  # Arabic-Indic 10
    ("A,alien,1,\uff11\uff10\uff10,100", "\uff11\uff10\uff10"),  # fullwidth 100
    ("A,alien,N/A,\uff11\uff10\uff10,100", "\uff11\uff10\uff10"),
], ids=["arabic-indic-score", "fullwidth-frames", "fullwidth-frames-na"])
def test_non_ascii_number_rejected_at_its_line(tmp_path, row, cell):
    # float() and int() read any Unicode digit: these would load as 10.0 and 100
    path = write_dataset(tmp_path, ["A,pong,1,100,100", row])
    message = f"{path}:3: non-ASCII character in number {cell!r}"
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        load_dataset(path)


@pytest.mark.parametrize("row, detail", [
    (b"A,alien,1\xc3,100,100",
     "'utf-8' codec can't decode byte 0xc3 in position 9: invalid continuation byte"),
    (b"\xff,alien,1,100,100",
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (b"A,alien," + b"9" * 131_073 + b",100,100", "field larger than field limit (131072)"),
], ids=["not-utf8", "not-utf8-at-line-start", "over-field-limit"])
def test_unreadable_row_raises_at_its_line(tmp_path, row, detail):
    path = write_dataset(tmp_path, ["A,pong,1,100,100", "ROW"])
    path.write_bytes(path.read_bytes().replace(b"ROW", row).replace(b"\n", b"\r\n"))
    with pytest.raises(DatasetError, match=f"^{re.escape(f'{path}:3: {detail}')}$"):
        load_dataset(path)


def test_blank_row_is_skipped_and_later_rows_keep_their_line(tmp_path):
    rows = ["A,pong,1,100,100", "A,alien,2,100,100"]
    expected = load_dataset(write_dataset(tmp_path, rows))
    path = write_dataset(tmp_path, [rows[0], "", rows[1]])
    assert load_dataset(path) == expected
    path = write_dataset(tmp_path, [rows[0], "", "A,alien,2,100,200M"])
    message = f"{path}:4: scale_label '200M' does not match 100 frames (100)"
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        load_dataset(path)


def test_padded_algorithm_cell_names_the_same_algorithm(tmp_path):
    path = write_dataset(tmp_path, ["Rainbow,pong,1,100,100", " Rainbow,alien,2,100,100 "])
    assert {r.algorithm for r in load_dataset(path).records} == {"Rainbow"}
    path = write_dataset(tmp_path, ["Rainbow,alien,1,100,100", " Rainbow ,alien,2,100,100"])
    with pytest.raises(DatasetError, match=re.escape(
            f"{path}:3: duplicate cell ('Rainbow', 'alien')")):
        load_dataset(path)


def with_bom(path):
    """A copy of ``path`` saved with a UTF-8 byte-order mark."""
    marked = path.with_name("bom.csv")
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return marked


def test_byte_order_mark_is_skipped(tmp_path):
    plain = write_dataset(tmp_path, ["A,pong,1,100,100", "A,alien,N/A,100,100",
                                     "B,alien,2.5,200000000,200M"])
    assert load_dataset(with_bom(plain))[1:] == load_dataset(plain)[1:]


def test_byte_order_mark_keeps_error_lines(tmp_path):
    plain = write_dataset(tmp_path, ["A,pong,1,100,100", "A,alien,1,100,x"])
    for path in (plain, with_bom(plain)):
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}:3: scale_label "):
            load_dataset(path)


@pytest.mark.parametrize("name", ["A\nB", "A\rB"])
def test_line_break_in_algorithm_name_rejected(tmp_path, name):
    # The record starts on line 3 and ends on line 4; it is named by line 3.
    path = write_dataset(tmp_path, ["A,pong,1,100,100", f'"{name}",alien,1,100,100'])
    with pytest.raises(DatasetError,
                       match=f"^{re.escape(str(path))}:3: bad algorithm name"):
        load_dataset(path)


@pytest.mark.parametrize("score", ["inf", "-inf", "nan", "1e999"])
def test_non_finite_score_names_file_and_line(tmp_path, score):
    # The loader is the only place a dataset score is checked for finiteness.
    path = write_dataset(tmp_path, ["A,pong,1,100,100", f"A,alien,{score},100,100"])
    with pytest.raises(DatasetError,
                       match=f"^{re.escape(str(path))}:3: A/alien: non-finite score$"):
        load_dataset(path)


@pytest.mark.parametrize("frames, label", [("abc", "1M"), ("1000000", "x")])
def test_perturbed_bundled_na_row_rejected(tmp_path, frames, label):
    # sota-model-based.csv with one N/A row's frames or label replaced
    text = data_path("datasets", "sota-model-based.csv").read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    lineno = lines.index("SimPLe,berzerk,N/A,1000000,1M\n") + 1
    lines[lineno - 1] = f"SimPLe,berzerk,N/A,{frames},{label}\n"
    path = tmp_path / "sota-model-based.csv"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}:{lineno}: "):
        load_dataset(path)


@pytest.mark.parametrize("frames, label", [
    ("1000000", "1.0M"), ("200000000", "0.2B"), ("2500000", "2500K"), ("2e8", "2e8"),
])
def test_mismatched_scale_label_rejected(tmp_path, frames, label):
    path = write_dataset(tmp_path, ["A,pong,1,100,100", f"A,alien,1,{frames},{label}"])
    with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}:3: scale_label "):
        load_dataset(path)


def test_bundled_scale_labels_match_frames():
    # Every bundled row, N/A cells included, carries the derived label.
    rows = [row for label in BUNDLED_DATASETS
            for _, row in read_csv(data_path("datasets", f"{label}.csv"),
                                   DATASET_COLUMNS, DatasetError)]
    assert len(rows) == 741
    assert all(label == scale_label_for(parse_frames(frames))
               for *_, frames, label in rows)


def test_datasets_module_does_not_load_protocol():
    code = ("import sys, hwrbench.datasets; "
            "sys.exit('hwrbench.protocol' in sys.modules)")
    src = str(Path(hwrbench.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
