"""Canonical game list and the three-column baseline registry.

The registry owns the fixed 57-game identifier list and, per game, the
random, human-average, and human-world-record raw scores that every
normalization divides by. It is immutable once loaded and safe to share
across threads.
"""

from __future__ import annotations

import codecs
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
    src: Path, columns: tuple[str, ...], error: type[BenchmarkError], numbers: tuple[str, ...] = (),
) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) of each nonblank row of a CSV file.

    The header must be exactly ``columns``, every row as wide, every byte UTF-8
    and every cell within csv's field limit; a ``numbers`` cell may hold no ``_``
    (``float`` reads 22_7.8 as 227.8) and no non-ASCII character (it reads ١٠
    as 10.0). Otherwise ``error`` names the file and, for a row, the line: the
    row's first line, as a quoted cell may hold a line break. The file is read
    once, split as text mode with ``newline=""`` splits it, a leading byte-order
    mark dropped; each line is decoded on its own when csv asks for it, so the
    first defect in file order is named.
    """
    import csv  # here, not at the top: ``protocol-check`` reads no CSV

    at = [columns.index(name) for name in numbers]
    lines = src.read_bytes().removeprefix(codecs.BOM_UTF8).splitlines(keepends=True)
    reader = csv.reader(line.decode() for line in lines)
    end = 0
    try:
        if tuple(next(reader, ())) != columns:
            raise error(f"{src}: expected header {','.join(columns)}")
        end = reader.line_num
        for row in reader:
            lineno, end = end + 1, reader.line_num
            if len(row) != len(columns):
                if not row:
                    continue
                raise error(f"{src}:{lineno}: expected {len(columns)} cells, got {len(row)}")
            for i in at:
                cell = row[i]
                if "_" in cell or not cell.isascii():
                    what = "'_'" if "_" in cell else "non-ASCII character"
                    raise error(f"{src}:{lineno}: {what} in number {cell!r}")
            yield lineno, row
    except csv.Error as exc:
        raise error(f"{src}:{end + 1}: {exc}") from None
    except UnicodeDecodeError:
        # The line csv asked for next; decoded again without its line end, a
        # sequence cut short before it reads "unexpected end of data".
        try:
            lines[reader.line_num].rstrip(b"\r\n").decode()
        except UnicodeDecodeError as exc:
            raise error(f"{src}:{reader.line_num + 1}: {exc}") from None
        raise


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
                src, BASELINE_COLUMNS, ValidationError, BASELINE_COLUMNS[1:4]):
            try:
                game = canonical_game(game)
            except UnknownGameError as exc:
                raise UnknownGameError(f"{src}:{lineno}: {exc}") from None
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
