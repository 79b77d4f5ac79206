import re

import pytest

from hwrbench.errors import UnknownGameError, ValidationError
from hwrbench.games import (
    CANONICAL_GAMES,
    BaselineRegistry,
    canonical_game,
    data_path,
    game_key,
)


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
    path = tmp_path / "bad.csv"
    path.write_text(
        "game,random,human_average,human_world_record,source_tag\n"
        "alien,not-a-number,7127.8,251916,x\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="non-numeric"):
        BaselineRegistry.load(path)


def test_unknown_game_row_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "game,random,human_average,human_world_record,source_tag\n"
        "foo,0,1,2,x\n", encoding="utf-8")
    with pytest.raises(UnknownGameError):
        BaselineRegistry.load(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("column", ["random", "human_average", "human_world_record"])
def test_non_finite_baseline_is_hard_error(registry, column, value):
    with pytest.raises(ValidationError, match=f"^pong: {column} must be finite, got {value}$"):
        registry_with(registry, "pong", **{column: value})


def baselines_with(registry, tmp_path, game, column, text):
    """The bundled baselines with one cell replaced; returns the file and its line."""
    lines = data_path("baselines.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    index = 1 + [r.game for r in registry].index(game)
    cells = lines[index].rstrip("\n").split(",")
    cells[("random", "human_average", "human_world_record").index(column) + 1] = text
    lines[index] = ",".join(cells) + "\n"
    path = tmp_path / "baselines.csv"
    path.write_text("".join(lines), encoding="utf-8")
    return path, index + 1


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["random", "human_average", "human_world_record"])
def test_load_rejects_non_finite_with_location(registry, tmp_path, column, text):
    path, lineno = baselines_with(registry, tmp_path, "alien", column, text)
    where = f"{re.escape(str(path))}:{lineno}"
    with pytest.raises(ValidationError, match=f"{where}: alien: {column} must be finite"):
        BaselineRegistry.load(path)


@pytest.mark.parametrize("column, text", [
    ("random", "22_7.8"), ("human_average", "7_127.8"), ("human_world_record", "251_916")])
def test_load_rejects_underscore_in_numbers(registry, tmp_path, column, text):
    # float() drops the ``_``: each of these reads as alien's own bundled value
    path, lineno = baselines_with(registry, tmp_path, "alien", column, text)
    where = f"{re.escape(str(path))}:{lineno}"
    with pytest.raises(ValidationError, match=f"^{where}: '_' in number '{text}'$"):
        BaselineRegistry.load(path)


@pytest.mark.parametrize("column", ["random", "human_average", "human_world_record"])
def test_load_rejects_non_ascii_numbers(registry, tmp_path, column):
    # float() reads the fullwidth digits of alien's bundled random score, 227.8
    text = "\uff12\uff12\uff17.\uff18"
    path, lineno = baselines_with(registry, tmp_path, "alien", column, text)
    where = f"{re.escape(str(path))}:{lineno}"
    with pytest.raises(ValidationError,
                       match=f"^{where}: non-ASCII character in number '{text}'$"):
        BaselineRegistry.load(path)


def test_load_ordering_error_names_line(registry, tmp_path):
    path, lineno = baselines_with(registry, tmp_path, "pong", "human_average", "-30")
    with pytest.raises(ValidationError,
                       match=f"{re.escape(str(path))}:{lineno}: pong: human_average"):
        BaselineRegistry.load(path)


def test_load_duplicate_row_names_line(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        "game,random,human_average,human_world_record,source_tag\n"
        "alien,0,1,2,x\n"
        "Alien,0,1,2,x\n", encoding="utf-8")
    where = f"{re.escape(str(path))}:3"
    with pytest.raises(ValidationError, match=f"{where}: duplicate baseline row"):
        BaselineRegistry.load(path)
