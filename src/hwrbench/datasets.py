"""Run-record datasets: loading, validation, and the bundled collections.

A dataset file is comma-separated with header
``algorithm,game,score,frames,scale_label``; the literal ``N/A`` in the
score column marks a game the source never reported, which is omitted
from the records and kept as a coverage note. ``scale_label`` is derived
data: it must equal ``scale_label_for(frames)`` and is not kept. Every row,
``N/A`` or not, needs its label and one positive integral ``frames`` per algorithm.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from pathlib import Path

from hwrbench.errors import DatasetError, UnknownGameError
from hwrbench.games import canonical_game, data_path, read_csv
from hwrbench.numfmt import parse_frames, scale_label_for

BUNDLED_DATASETS = (
    "sota-200m-model-free",
    "sota-10bplus-model-free",
    "sota-model-based",
    "sota-other",
)

DATASET_COLUMNS = ("algorithm", "game", "score", "frames", "scale_label")


class RunRecord(namedtuple("RunRecord", "algorithm game score frames")):
    """One algorithm's reported result on one game; ``load_dataset`` checks it."""

    __slots__ = ()


class Dataset(namedtuple("Dataset", "label records omitted", defaults=((),))):
    """A labelled collection of run records with unique (algorithm, game) pairs.

    ``omitted`` holds the (algorithm, game) N/A cells.
    """

    __slots__ = ()


def load_dataset(path: str | Path) -> Dataset:
    """Load and validate one dataset file, labelled by its file stem."""
    src = Path(path)
    records: list[RunRecord] = []
    omitted: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    frames_by_algo: dict[str, int] = {}  # each algorithm's first frame count
    bad_name = re.compile('[",\r\n]').search  # a CSV table prints a name unquoted
    for lineno, (algorithm, game, score, raw_frames, label) in read_csv(
            src, DATASET_COLUMNS, DatasetError, ("score", "frames")):
        try:
            game = canonical_game(game)
        except UnknownGameError as exc:
            raise DatasetError(f"{src}:{lineno}: {exc}")
        algorithm = algorithm.strip()
        if not algorithm or bad_name(algorithm):
            raise DatasetError(f"{src}:{lineno}: bad algorithm name {algorithm!r}")
        key = (algorithm, game)
        if key in seen:
            raise DatasetError(f"{src}:{lineno}: duplicate cell {key}")
        seen.add(key)
        try:
            frames = parse_frames(raw_frames)
        except ValueError as exc:
            raise DatasetError(f"{src}:{lineno}: {exc}") from None
        expected = scale_label_for(frames)
        if label.strip() != expected:
            raise DatasetError(f"{src}:{lineno}: scale_label {label!r} does not match "
                               f"{frames} frames ({expected})")
        prior = frames_by_algo.setdefault(algorithm, frames)
        if prior != frames:
            raise DatasetError(f"{src}:{lineno}: {algorithm}: inconsistent frame counts "
                               f"{prior} vs {frames}")
        score = score.strip()
        if score.upper() == "N/A":
            omitted.append(key)
            continue
        try:
            value = float(score)
            if not math.isfinite(value):
                raise ValueError(f"{algorithm}/{game}: non-finite score")
        except ValueError as exc:
            raise DatasetError(f"{src}:{lineno}: {exc}") from None
        records.append(RunRecord(algorithm, game, value, frames))
    if not records:
        raise DatasetError(f"{src}: dataset is empty")
    return Dataset(src.stem, tuple(records), tuple(omitted))


def load_bundled_dataset(label: str) -> Dataset:
    if label not in BUNDLED_DATASETS:
        raise DatasetError(
            f"unknown bundled dataset {label!r}; available: {', '.join(BUNDLED_DATASETS)}")
    return load_dataset(data_path("datasets", f"{label}.csv"))


def load_all_bundled() -> list[Dataset]:
    return [load_bundled_dataset(label) for label in BUNDLED_DATASETS]
