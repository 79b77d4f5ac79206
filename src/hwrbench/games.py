"""Canonical game list and the three-column baseline registry.

The registry owns the fixed 57-game identifier list and, per game, the
random, human-average, and human-world-record raw scores that every
normalization divides by. It is immutable once loaded and safe to share
across threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path
from typing import Iterator

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
    return Path(str(files("hwrbench").joinpath("data", *parts)))


def read_csv(
    src: Path, columns: tuple[str, ...], error: type[BenchmarkError],
) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) of each nonblank row of a CSV file.

    The header must be exactly ``columns`` and every row as wide; otherwise
    ``error`` is raised naming the file and, for a row, the line.
    """
    with open(src, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != columns:
            raise error(f"{src}: expected header {','.join(columns)}")
        for row in reader:
            if len(row) != len(columns):
                if not row:
                    continue
                raise error(f"{src}:{reader.line_num}: expected {len(columns)} cells, "
                            f"got {len(row)}")
            yield reader.line_num, row


def canonical_game(name: str) -> str:
    """Normalize a game identifier to canonical lowercase form.

    Lookup is forgiving about case, surrounding whitespace, and the
    usual separator spellings ("MsPacman" is not recognized, but
    "ms_pacman" and "MS PACMAN " are).
    """
    if name in _CANONICAL_SET:
        return name
    cleaned = name.strip().lower().replace("_", " ").replace("-", " ")
    cleaned = cleaned.replace("'", "").replace("’", "").replace(".", "")
    cleaned = " ".join(cleaned.split())
    if cleaned not in _CANONICAL_SET:
        raise UnknownGameError(f"unknown game: {name!r}")
    return cleaned


@dataclass(frozen=True)
class BaselineRecord:
    """Per-game baseline triple; the denominators of every normalization."""

    game: str
    random: float
    human_average: float
    human_world_record: float
    source_tag: str = ""

    def validate(self) -> list[str]:
        """Check invariants; returns soft warnings, raises on hard violations."""
        for column in ("random", "human_average", "human_world_record"):
            if not math.isfinite(getattr(self, column)):
                raise ValidationError(
                    f"{self.game}: {column} must be finite, got {getattr(self, column)}")
        if self.human_average <= self.random:
            raise ValidationError(
                f"{self.game}: human_average {self.human_average} must exceed "
                f"random {self.random}")
        if self.human_world_record <= self.random:
            raise ValidationError(
                f"{self.game}: human_world_record {self.human_world_record} must "
                f"exceed random {self.random}")
        warnings = []
        if self.human_world_record < self.human_average:
            warnings.append(
                f"{self.game}: human_world_record {self.human_world_record} below "
                f"human_average {self.human_average}")
        return warnings


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
            if rec.game in seen:
                raise ValidationError(f"{where}duplicate baseline row for {rec.game!r}")
            try:
                warnings.extend(rec.validate())
            except ValidationError as exc:
                raise ValidationError(f"{where}{exc}") from None
            seen[rec.game] = rec
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
