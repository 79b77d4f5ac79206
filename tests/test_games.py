import codecs
from collections import namedtuple
from functools import partial

import pytest
from helpers import bundled_copy, cell, data_error, raises, run_main, set_cell
from hypothesis import given, settings
from hypothesis import strategies as st

from hwrbench.datasets import BUNDLED_DATASETS, load_dataset
from hwrbench.errors import BenchmarkError, DatasetError, UnknownGameError, ValidationError
from hwrbench.games import (
    BASELINE_COLUMNS,
    CANONICAL_GAMES,
    BaselineRegistry,
    canonical_game,
    data_path,
    game_key,
)
from hwrbench.reproduce import load_golden_aggregates, load_golden_cells


@pytest.fixture(scope="module")
def registry():
    return BaselineRegistry.load()


def test_canonical_list_has_57_unique_games():
    assert len(CANONICAL_GAMES) == 57
    assert len(set(CANONICAL_GAMES)) == 57
    assert all(g == g.lower().strip() for g in CANONICAL_GAMES)


@pytest.mark.parametrize("raw,expected", [
    ("SKIING", "skiing"),
    ("tennis ", "tennis"),
    ("  Montezuma Revenge", "montezuma revenge"),
    ("ms_pacman", "ms pacman"),
    ("up-n-down", "up n down"),
    ("Montezuma's Revenge", "montezuma revenge"),
    ("Ms. Pac-Man", "ms pacman"),
    ("Up'n Down", "up n down"),
    ("MsPacman", "ms pacman"),
    ("Battlezone", "battle zone"),
])
def test_lookup_canonicalization(raw, expected):
    assert canonical_game(raw) == expected


def test_canonical_games_have_distinct_keys():
    assert len({game_key(g) for g in CANONICAL_GAMES}) == len(CANONICAL_GAMES)


def test_unknown_game_rejected():
    with pytest.raises(UnknownGameError):
        canonical_game("foo")


def test_bundled_registry_loads_all_games(registry):
    assert len(registry) == 57
    assert registry.warnings == ()


def test_lookup_known_rows(registry):
    alien = registry.lookup("alien")
    assert (alien.random, alien.human_average, alien.human_world_record) == \
        (227.8, 7127.8, 251916)

    pong = registry.lookup("pong")
    assert (pong.random, pong.human_average, pong.human_world_record) == \
        (-20.7, 14.6, 21)

    skiing = registry.lookup("skiing")
    assert (skiing.random, skiing.human_average, skiing.human_world_record) == \
        (-17098, -4336.9, -3272)
    assert registry.lookup("SKIING") is skiing


def test_hard_invariants(registry):
    for rec in registry:
        assert rec.human_average > rec.random
        assert rec.human_world_record > rec.random


def registry_with(registry, game, **fields):
    """A registry built from the bundled records, ``game``'s with ``fields`` replaced."""
    return BaselineRegistry(
        [r._replace(**fields) if r.game == game else r for r in registry])


def test_human_average_at_or_below_random_is_hard_error(registry):
    with pytest.raises(ValidationError,
                       match="^pong: human_average 10.0 must exceed random 10.0$"):
        registry_with(registry, "pong", random=10.0, human_average=10.0,
                      human_world_record=21.0)


def test_record_below_random_is_hard_error(registry):
    with pytest.raises(ValidationError,
                       match="^pong: human_world_record 9.0 must exceed random 10.0$"):
        registry_with(registry, "pong", random=10.0, human_average=14.0,
                      human_world_record=9.0)


def test_record_below_average_is_soft_warning(registry):
    edited = registry_with(registry, "pong", random=-20.7, human_average=20.0,
                           human_world_record=14.0)
    assert edited.warnings == ("pong: human_world_record 14.0 below human_average 20.0",)


def test_registry_requires_every_game(registry):
    records = [r for r in registry if r.game != "pong"]
    with pytest.raises(ValidationError, match="missing baseline rows: pong"):
        BaselineRegistry(records)


def test_registry_rejects_duplicates(registry):
    records = list(registry) + [registry.lookup("pong")]
    with pytest.raises(ValidationError, match="duplicate"):
        BaselineRegistry(records)


def test_non_numeric_cell_rejected(tmp_path):
    path, _ = bundled_copy(tmp_path, "baselines.csv", cell(2, "random", "not-a-number"))
    with pytest.raises(ValidationError, match="non-numeric"):
        BaselineRegistry.load(path)


def test_unknown_game_row_rejected(tmp_path):
    path, _ = bundled_copy(tmp_path, "baselines.csv", cell(2, "game", "foo"))
    with raises(UnknownGameError, f"{path}:2: unknown game: 'foo'"):
        BaselineRegistry.load(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("column", ["random", "human_average", "human_world_record"])
def test_non_finite_baseline_is_hard_error(registry, column, value):
    with pytest.raises(ValidationError, match=f"^pong: {column} must be finite, got {value}$"):
        registry_with(registry, "pong", **{column: value})


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["random", "human_average", "human_world_record"])
def test_load_rejects_non_finite_with_location(tmp_path, column, text):
    path, _ = bundled_copy(tmp_path, "baselines.csv", cell(2, column, text))
    with raises(ValidationError, f"{path}:2: alien: {column} must be finite, got {float(text)}"):
        BaselineRegistry.load(path)


def test_load_ordering_error_names_line(tmp_path):
    path, _ = bundled_copy(tmp_path, "baselines.csv", cell(38, "human_average", "-30"))
    with raises(ValidationError, f"{path}:38: pong: human_average -30.0 must exceed random -20.7"):
        BaselineRegistry.load(path)


def test_load_duplicate_row_names_line(tmp_path):
    path, _ = bundled_copy(tmp_path, "baselines.csv",
                           lambda lines: lines.append(lines[1].replace(b"alien", b"Alien")))
    with raises(ValidationError, f"{path}:59: duplicate baseline row for 'alien'"):
        BaselineRegistry.load(path)


# Each bundled data file the package reads: its loader, whose value compares
# equal for files that read the same, the error it raises, and its number columns.
Loader = namedtuple("Loader", "load error numbers")
LOADERS = {
    "baselines.csv": Loader(lambda path: tuple(BaselineRegistry.load(path)), ValidationError,
                            BASELINE_COLUMNS[1:4]),
    **{f"datasets/{label}.csv": Loader(load_dataset, DatasetError, ("score", "frames"))
       for label in BUNDLED_DATASETS},
    "golden/printed_cells.csv": Loader(load_golden_cells, DatasetError,
                                       ("printed_raw", "printed_pct")),
    "golden/printed_aggregates.csv": Loader(
        lambda path: load_golden_aggregates(load_golden_cells()[0], path), DatasetError,
        ("printed",)),
}


# The rules every loader keeps, as ``read_csv`` enforces them. A rule edits a
# bundled file's lines, given the row to edit and a number column, and returns
# what loading the file then raises: (line, message), a line of None for the
# whole file; or None, when the file must load to the bundled file's value.
def cell_rule(value, message):
    """The number cell set to ``value``; ``message`` may name its position, ``{at}``."""
    return lambda lines, row, column: (
        row, message.format(at=set_cell(lines, row, column, value)))


def ff_at_line_start(lines, row, column):
    lines[row - 1] = b"\xff" + lines[row - 1]
    return row, "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


def cut_short_at_line_end(lines, row, column):
    at = len(lines[row - 1].rstrip(b"\r\n"))
    lines[row - 1] = lines[row - 1][:at] + b"\xc3" + lines[row - 1][at:]
    return row, f"'utf-8' codec can't decode byte 0xc3 in position {at}: unexpected end of data"


def changed_header(lines, row, column):
    header = lines[0].decode().rstrip("\r\n")
    lines[0] = lines[0].upper()
    return None, f"expected header {header}"


def line_ends(end, lines, row):  # the bundled files end each line with "\r\n"
    lines[:] = [line.rstrip(b"\r\n") + end for line in lines]
    return row


# Changes after which every row loads as before: each returns the edited row's new line.
LAYOUTS = {
    "byte-order-mark": lambda lines, row: lines.insert(0, codecs.BOM_UTF8 + lines.pop(0)) or row,
    "lf-line-ends": partial(line_ends, b"\n"),
    "cr-line-ends": partial(line_ends, b"\r"),
    "blank-line-above": lambda lines, row: lines.insert(row - 1, b"\n") or row + 1,
}


def laid_out(layout, defect):
    """``layout`` after ``defect``, if any: the defect is named at the row's new line."""
    def rule(lines, row, column):
        if defect is None:
            layout(lines, row)
            return None
        line, message = defect(lines, row, column)
        return layout(lines, line), message
    return rule


def first_defect(line_of_ff):
    """A ``_`` on the row, and a 0xff starting a later line: the ``_`` is named."""
    def rule(lines, row, column):
        ff_at_line_start(lines, line_of_ff(row, len(lines)), column)
        return underscore(lines, row, column)
    return rule


underscore = cell_rule(b"1_0", "'_' in number '1_0'")  # float() reads 10.0
RULES = {
    "underscore": underscore,
    "non-ascii-digit": cell_rule("١٠".encode(), "non-ASCII character in number '١٠'"),
    "0xff-in-cell": cell_rule(
        b"\xff", "'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte"),
    "0xff-at-line-start": ff_at_line_start,
    "cut-short-at-line-end": cut_short_at_line_end,
    # 131,073 characters, the first a line break: the limit is passed on the next line.
    "over-field-limit": cell_rule(b'"\n' + b"9" * 131_072 + b'"',
                                  "field larger than field limit (131072)"),
    **{f"quoted-{name}": cell_rule(b'"1_' + brk + b'0"',
                                   f"'_' in number {'1_' + brk.decode() + '0'!r}")
       for name, brk in [("lf", b"\n"), ("cr", b"\r"), ("crlf", b"\r\n")]},
    **{f"{name}{then}": laid_out(layout, defect) for name, layout in LAYOUTS.items()
       for then, defect in [("", None), ("-then-underscore", underscore),
                            ("-then-cut-short", cut_short_at_line_end)]},
    "changed-header": changed_header,
    "first-defect-next-line": first_defect(lambda row, n: row + 1),
    "first-defect-last-line": first_defect(lambda row, n: n),
}
PER_COLUMN = ("underscore", "non-ascii-digit")  # run on each number column
# The ``validate`` command line that reads a copy of a file, ahead of its path. One
# dataset stands for all four, and the smallest keeps a baselines run short.
VALIDATE = {"baselines.csv": ("--dataset", "sota-other", "--baselines"),
            "datasets/sota-other.csv": ("--dataset",)}


@pytest.mark.parametrize("name, rule, column", [
    pytest.param(name, rule, column, id=f"{name}-{rule}" + f"-{column}" * (rule in PER_COLUMN))
    for name, loader in LOADERS.items() for rule in RULES
    for column in (loader.numbers if rule in PER_COLUMN else loader.numbers[:1])])
def test_every_loader_keeps_every_csv_rule(tmp_path, name, rule, column):
    # The row edited is the third line from the end: its next line and the last
    # line fall within the 8 KiB that a text-mode file decodes ahead of the rows.
    path, outcome = bundled_copy(
        tmp_path, name, lambda lines: RULES[rule](lines, len(lines) - 2, column))
    loader = LOADERS[name]
    if outcome is None:
        assert loader.load(path) == loader.load(data_path(*name.split("/")))
    else:
        line, message = outcome
        detail = f"{path}{'' if line is None else f':{line}'}: {message}"
        with raises(loader.error, detail):
            loader.load(path)
    if name in VALIDATE:  # ``validate`` exits 0, or reports the loader's own error
        validated = run_main("validate", *VALIDATE[name], str(path))
        assert validated[0] == 0 if outcome is None else data_error(validated) == {
            "error": loader.error.__name__, "detail": detail}, validated


# Digits, CSV syntax, the refused ``_``, line breaks, a byte-order mark, an
# Arabic-Indic digit and bytes that are not UTF-8.
MUTATION_BYTES = [b"0", b"7", b".", b",", b'"', b"_", b"\r", b"\n", b"\xef\xbb\xbf",
                  "١".encode(), b"\xff", b"\xc3", b"\x80"]
# What a file, not one of its rows, can fail on.
FILE_ERRORS = ("expected header", "missing baseline rows", "dataset is empty")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(LOADERS)), st.data())
def test_mutated_bundled_file_loads_or_names_file_and_line(tmp_path_factory, name, data):
    mutated = data_path(*name.split("/")).read_bytes()
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(mutated)))
        edit = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        piece = b"" if edit == "delete" else data.draw(st.sampled_from(MUTATION_BYTES))
        mutated = mutated[:at] + piece + mutated[at + (edit != "insert"):]
    path = tmp_path_factory.mktemp("mutated") / name.split("/")[-1]
    path.write_bytes(mutated)
    try:
        LOADERS[name].load(path)
    except BenchmarkError as exc:
        where, _, rest = str(exc).partition(": ")
        assert where == str(path) or where.startswith(f"{path}:"), str(exc)
        if where == str(path):
            assert rest.startswith(FILE_ERRORS), str(exc)
        else:
            assert 1 <= int(where.removeprefix(f"{path}:")) <= len(mutated.splitlines())
