"""Run-record datasets: loading, validation, and the bundled collections.

A dataset file is comma-separated with header
``algorithm,game,score,frames,scale_label``; the literal ``N/A`` in the
score column marks a game the source never reported, which is omitted
from the records and kept as a coverage note.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from hwrbench.errors import DatasetError, UnknownGameError, ValidationError
from hwrbench.games import canonical_game, data_path
from hwrbench.numfmt import parse_frames

BUNDLED_DATASETS = (
    "sota-200m-model-free",
    "sota-10bplus-model-free",
    "sota-model-based",
    "sota-other",
)

DATASET_COLUMNS = ("algorithm", "game", "score", "frames", "scale_label")


@dataclass(frozen=True)
class RunRecord:
    """One algorithm's reported result on one game."""

    algorithm: str
    game: str
    score: float
    frames: int
    scale_label: str = ""

    def __post_init__(self) -> None:
        if self.frames <= 0:
            raise ValidationError(
                f"{self.algorithm}/{self.game}: frames must be positive")
        if not math.isfinite(self.score):
            raise ValidationError(f"{self.algorithm}/{self.game}: non-finite score")


@dataclass(frozen=True)
class Dataset:
    """A labelled collection of run records with unique (algorithm, game) pairs."""

    label: str
    records: tuple[RunRecord, ...]
    omitted: tuple[tuple[str, str], ...] = ()  # (algorithm, game) N/A cells

    def algorithms(self) -> list[str]:
        seen: list[str] = []
        for rec in self.records:
            if rec.algorithm not in seen:
                seen.append(rec.algorithm)
        return seen


def load_dataset(path: str | Path, label: str | None = None) -> Dataset:
    """Load and validate one dataset file."""
    src = Path(path)
    name = label if label is not None else src.stem
    records: list[RunRecord] = []
    omitted: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    with open(src, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != DATASET_COLUMNS:
            raise DatasetError(f"{src}: expected header {','.join(DATASET_COLUMNS)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                game = canonical_game(row["game"])
            except UnknownGameError as exc:
                raise DatasetError(f"{src}:{lineno}: {exc}")
            algorithm = row["algorithm"].strip()
            key = (algorithm, game)
            if key in seen:
                raise DatasetError(f"{src}:{lineno}: duplicate cell {key}")
            seen.add(key)
            score_text = row["score"].strip()
            if score_text.upper() == "N/A":
                omitted.append(key)
                continue
            try:
                records.append(RunRecord(
                    algorithm=algorithm,
                    game=game,
                    score=float(score_text),
                    frames=parse_frames(row["frames"]),
                    scale_label=row["scale_label"].strip(),
                ))
            except (ValueError, ValidationError) as exc:
                raise DatasetError(f"{src}:{lineno}: {exc}") from None
    if not records:
        raise DatasetError(f"{src}: dataset is empty")
    return Dataset(name, tuple(records), tuple(omitted))


def load_bundled_dataset(label: str) -> Dataset:
    if label not in BUNDLED_DATASETS:
        raise DatasetError(
            f"unknown bundled dataset {label!r}; available: {', '.join(BUNDLED_DATASETS)}")
    return load_dataset(data_path("datasets", f"{label}.csv"), label=label)


def load_all_bundled() -> list[Dataset]:
    return [load_bundled_dataset(label) for label in BUNDLED_DATASETS]
