"""Run-record datasets: loading, validation, and the bundled collections.

A dataset file is comma-separated with header
``algorithm,game,score,frames,scale_label``; the literal ``N/A`` in the
score column marks a game the source never reported, which is omitted
from the records and kept as a coverage note. ``scale_label`` is derived
data: it must equal ``scale_label_for(frames)`` and is not kept. Every
row, ``N/A`` or not, needs a positive integral ``frames`` and its label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from hwrbench.errors import DatasetError, UnknownGameError, ValidationError
from hwrbench.games import canonical_game, data_path, read_csv
from hwrbench.numfmt import parse_frames, scale_label_for

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


def load_dataset(path: str | Path, label: str | None = None) -> Dataset:
    """Load and validate one dataset file."""
    src = Path(path)
    name = label if label is not None else src.stem
    records: list[RunRecord] = []
    omitted: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for lineno, (algorithm, game, score, frames, label) in read_csv(
            src, DATASET_COLUMNS, DatasetError):
        try:
            game = canonical_game(game)
        except UnknownGameError as exc:
            raise DatasetError(f"{src}:{lineno}: {exc}")
        algorithm = algorithm.strip()
        key = (algorithm, game)
        if key in seen:
            raise DatasetError(f"{src}:{lineno}: duplicate cell {key}")
        seen.add(key)
        try:
            frames = parse_frames(frames)
        except ValueError as exc:
            raise DatasetError(f"{src}:{lineno}: {exc}") from None
        if frames <= 0:
            raise DatasetError(f"{src}:{lineno}: frames must be positive: {frames}")
        expected = scale_label_for(frames)
        if label.strip() != expected:
            raise DatasetError(f"{src}:{lineno}: scale_label {label!r} does not match "
                               f"{frames} frames ({expected})")
        score = score.strip()
        if score.upper() == "N/A":
            omitted.append(key)
            continue
        try:
            records.append(RunRecord(algorithm, game, float(score), frames))
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
