"""Canonical game list and the three-column baseline registry.

The registry owns the fixed 57-game identifier list and, per game, the
random, human-average, and human-world-record raw scores that every
normalization divides by. It is immutable once loaded and safe to share
across threads.
"""

from __future__ import annotations

import csv
import math
import re
from collections import namedtuple
from collections.abc import Iterator
from pathlib import Path

from hwrbench.errors import BenchmarkError, UnknownGameError, ValidationError

CANONICAL_GAMES: tuple[str, ...] = (
    "alien", "amidar", "assault", "asterix", "asteroids", "atlantis",
    "bank heist", "battle zone", "beam rider", "berzerk", "bowling",
    "boxing", "breakout", "centipede", "chopper command", "crazy climber",
    "defender", "demon attack", "double dunk", "enduro", "fishing derby",
    "freeway", "frostbite", "gopher", "gravitar", "hero", "ice hockey",
    "jamesbond", "kangaroo", "krull", "kung fu master", "montezuma revenge",
    "ms pacman", "name this game", "phoenix", "pitfall", "pong",
    "private eye", "qbert", "riverraid", "road runner", "robotank",
    "seaquest", "skiing", "solaris", "space invaders", "star gunner",
    "surround", "tennis", "time pilot", "tutankham", "up n down", "venture",
    "video pinball", "wizard of wor", "yars revenge", "zaxxon",
)

_CANONICAL_SET = frozenset(CANONICAL_GAMES)

BASELINE_COLUMNS = ("game", "random", "human_average", "human_world_record", "source_tag")


def data_path(*parts: str) -> Path:
    """Path to a bundled data file."""
    return Path(__file__).parent.joinpath("data", *parts)


def read_csv(
    src: Path, columns: tuple[str, ...], error: type[BenchmarkError],
) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) of each nonblank row of a CSV file.

    The header must be exactly ``columns`` and every row as wide; otherwise
    ``error`` is raised naming the file and, for a row, the line. A row is
    numbered by its first line: a quoted cell may hold a line break.
    """
    with open(src, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != columns:
            raise error(f"{src}: expected header {','.join(columns)}")
        end = reader.line_num
        for row in reader:
            lineno, end = end + 1, reader.line_num
            if len(row) != len(columns):
                if not row:
                    continue
                raise error(f"{src}:{lineno}: expected {len(columns)} cells, "
                            f"got {len(row)}")
            yield lineno, row


def check_numbers(src: Path, lineno: int, error: type[BenchmarkError], *cells: str) -> None:
    """Refuse a number cell holding ``_`` or a non-ASCII character.

    ``float`` drops a ``_``, reading 22_7.8 as 227.8, and reads any Unicode
    digit, ١٠ as 10.0; the episode-log parser refuses both too.
    """
    for cell in cells:
        if "_" in cell:
            raise error(f"{src}:{lineno}: '_' in number {cell!r}")
        if not cell.isascii():
            raise error(f"{src}:{lineno}: non-ASCII character in number {cell!r}")


# A possessive 's and every character but a letter or digit.
_NOT_IN_KEY = re.compile(r"['’]s\b|[^a-z0-9]")


def game_key(name: str) -> str:
    """Lookup key of a game name: lowercased, a possessive 's dropped, then
    only its letters and digits.

    So "Montezuma's Revenge", "Ms. Pac-Man", "Up'n Down" and "MsPacman"
    have the keys of their canonical names.
    """
    return _NOT_IN_KEY.sub("", name.lower())


_BY_KEY = {game_key(g): g for g in CANONICAL_GAMES}


def canonical_game(name: str) -> str:
    """Canonical lowercase form of a game identifier, found by its ``game_key``."""
    if name in _CANONICAL_SET:
        return name
    try:
        return _BY_KEY[game_key(name)]
    except KeyError:
        raise UnknownGameError(f"unknown game: {name!r}") from None


class BaselineRecord(namedtuple(
        "BaselineRecord", "game random human_average human_world_record source_tag",
        defaults=("",))):
    """Per-game baseline triple; the denominators of every normalization.

    ``BaselineRegistry`` checks it.
    """

    __slots__ = ()


class BaselineRegistry:
    """Immutable mapping from canonical game id to its BaselineRecord."""

    def __init__(
        self,
        records: list[BaselineRecord],
        source: str = "<memory>",
        lines: list[int] | None = None,
    ) -> None:
        """``lines`` gives each record's line in ``source``, for error messages."""
        seen: dict[str, BaselineRecord] = {}
        warnings: list[str] = []
        for i, rec in enumerate(records):
            where = f"{source}:{lines[i]}: " if lines else ""
            game, random, human, record = rec[:4]
            if game in seen:
                raise ValidationError(f"{where}duplicate baseline row for {game!r}")
            for column, value in zip(BASELINE_COLUMNS[1:4], (random, human, record)):
                if not math.isfinite(value):
                    raise ValidationError(f"{where}{game}: {column} must be finite, got {value}")
            for column, value in (("human_average", human), ("human_world_record", record)):
                if value <= random:
                    raise ValidationError(
                        f"{where}{game}: {column} {value} must exceed random {random}")
            if record < human:
                warnings.append(
                    f"{game}: human_world_record {record} below human_average {human}")
            seen[game] = rec
        missing = [g for g in CANONICAL_GAMES if g not in seen]
        if missing:
            raise ValidationError(f"{source}: missing baseline rows: {', '.join(missing)}")
        self._records = {g: seen[g] for g in CANONICAL_GAMES}
        self.warnings = tuple(warnings)
        self.source = source

    @classmethod
    def load(cls, path: str | Path | None = None) -> "BaselineRegistry":
        """Load from a baselines CSV; the bundled file when no path is given."""
        src = Path(path) if path is not None else data_path("baselines.csv")
        records = []
        lines = []
        for lineno, (game, random, human, record, tag) in read_csv(
                src, BASELINE_COLUMNS, ValidationError):
            try:
                game = canonical_game(game)
            except UnknownGameError as exc:
                raise UnknownGameError(f"{src}:{lineno}: {exc}") from None
            check_numbers(src, lineno, ValidationError, random, human, record)
            try:
                records.append(BaselineRecord(
                    game, float(random), float(human), float(record), tag))
            except ValueError as exc:
                raise ValidationError(
                    f"{src}:{lineno}: non-numeric cell for {game}: {exc}") from None
            lines.append(lineno)
        return cls(records, source=str(src), lines=lines)

    def lookup(self, game: str) -> BaselineRecord:
        return self._records[canonical_game(game)]

    def __iter__(self) -> Iterator[BaselineRecord]:
        return iter(self._records.values())

    def __len__(self) -> int:
        return len(self._records)
