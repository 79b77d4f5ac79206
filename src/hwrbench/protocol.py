"""Benchmark-protocol harness over episode-event logs.

Enforces the evaluation protocol without an emulator: episodes end on
the game-over signal or at the 30-minute frame cap (108,000 environment
frames), training runs must fit a frame budget with the full 18-action
set declared, and the reported score is the mean over the last k
consecutive episodes.

Log file format, one step per line, whitespace separated::

    reward lives game_over env_frames

`game_over` is 0 or 1. Episodes are separated by a line containing only
`---`. Blank lines and lines starting with `#` are ignored. A log is
parsed and folded line by line as it is read, so memory grows with the
number of episodes, not of steps.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from hwrbench.datasets import RunRecord
from hwrbench.errors import MalformedLogError, ValidationError
from hwrbench.games import canonical_game, data_path

MAX_EPISODE_FRAMES = 108000  # 30 minutes at 60 fps
DEFAULT_FRAME_BUDGET = 200_000_000
FULL_ACTION_SET = 18

RESET_MARKER = "---"


@dataclass(frozen=True)
class StepEvent:
    reward: float
    lives: int
    game_over: bool
    env_frames: int  # frames consumed by this step (agent step x action repeat)

    def __post_init__(self) -> None:
        if self.env_frames < 1:
            raise ValidationError(f"env_frames must be >= 1: {self.env_frames}")
        if self.lives < 0:
            raise ValidationError(f"lives must be nonnegative: {self.lives}")


@dataclass(frozen=True, slots=True)  # a ledger holds one per episode
class EpisodeSummary:
    episode_return: float
    env_frames_used: int
    terminated_by: str  # "game_over" | "frame_cap"
    anomalies: tuple[str, ...] = ()


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str


@dataclass(frozen=True)
class ConformanceVerdict:
    conforming: bool
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class RunLedger:
    """Accounting for one training run: episodes, frames, declared settings."""

    episodes: tuple[EpisodeSummary, ...]
    total_env_frames: int
    action_set: int = FULL_ACTION_SET
    averaging_k: int = 1
    budget: int = DEFAULT_FRAME_BUDGET

    def __post_init__(self) -> None:
        if self.averaging_k < 1:
            raise ValidationError(f"averaging_k must be >= 1: {self.averaging_k}")
        if self.total_env_frames < 0:
            raise ValidationError("total_env_frames must be nonnegative")


class TrainingScore(NamedTuple):
    series: list[float]
    final: float


def accumulate_episode(stream: Iterable[StepEvent]) -> EpisodeSummary:
    """Fold one episode's steps into its return and frame accounting.

    Runs the same fold as ``ledger_from_log``: the episode ends at the
    game-over signal or at the frame cap, and the step that would push it
    past the cap, and every step after that, is checked but not counted.
    Life losses never end the episode, but a game-over with lives
    remaining is flagged as an anomaly (it suggests the log was produced
    with life-loss termination). A step after the game-over step is an
    error. Errors name a step by its 1-based position in ``stream``.
    """
    steps = ((i, s.reward, s.lives, s.game_over, s.env_frames)
             for i, s in enumerate(stream, start=1))
    summary = next(_fold_episodes(steps, "<episode>"), None)
    if summary is None:
        raise MalformedLogError("<episode>: no step events")
    return summary


def check_budget(ledger: RunLedger) -> ConformanceVerdict:
    """Protocol conformance: frame budget (inclusive) and full action set."""
    violations = []
    if ledger.total_env_frames > ledger.budget:
        violations.append(Violation(
            "budget_exceeded",
            f"{ledger.total_env_frames} environment frames exceed the "
            f"{ledger.budget}-frame budget"))
    if ledger.action_set != FULL_ACTION_SET:
        violations.append(Violation(
            "reduced_action_set",
            f"declared action set has {ledger.action_set} actions; the full "
            f"set has {FULL_ACTION_SET}"))
    return ConformanceVerdict(not violations, tuple(violations))


def final_score(returns: list[float], k: int) -> float:
    """The reported training score: the mean of the last k episode returns."""
    if k < 1:
        raise ValidationError(f"k must be >= 1: {k}")
    if len(returns) < k:
        raise ValidationError(f"need at least k={k} episodes, got {len(returns)}")
    return sum(returns[-k:]) / k


def training_score(returns: list[float], k: int) -> TrainingScore:
    """Sliding mean over k consecutive episode returns (stride 1).

    The final score is the last window's mean (``final_score``).
    """
    final = final_score(returns, k)
    prefix = list(accumulate(returns, initial=0.0))
    series = [(prefix[i + k] - prefix[i]) / k for i in range(len(returns) - k + 1)]
    return TrainingScore(series, final)


def to_run_record(ledger: RunLedger, game: str, algorithm: str) -> RunRecord:
    """Bridge a finished ledger to the metrics pipeline."""
    returns = [ep.episode_return for ep in ledger.episodes]
    return RunRecord(
        algorithm=algorithm,
        game=canonical_game(game),
        score=final_score(returns, ledger.averaging_k),
        frames=ledger.total_env_frames,
        scale_label=scale_label_for(ledger.total_env_frames),
    )


def scale_label_for(frames: int) -> str:
    """Compact training-scale label: 200000000 -> '200M'."""
    for unit, width in (("B", 10 ** 9), ("M", 10 ** 6), ("K", 10 ** 3)):
        if frames >= width and frames % width == 0:
            return f"{frames // width}{unit}"
        if frames >= width:
            return f"{frames / width:g}{unit}"
    return str(frames)


@contextmanager
def _open_log(source: str | Path | Iterable[str]) -> Iterator[tuple[Iterable[str], str]]:
    """``(lines, name)`` of a log path or of an iterable of lines, read lazily."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            yield fh, str(source)
    else:
        yield source, getattr(source, "name", "<log>")


def _parse_steps(lines: Iterable[str], name: str) -> Iterator[tuple]:
    """Parse log lines as they are read into plain step tuples.

    Yields ``(lineno, reward, lives, game_over, env_frames)`` for each step
    line and ``(lineno, None, 0, False, 0)`` for each ``---`` line; blank
    and ``#`` lines are skipped. Every step line is checked here, whether
    the fold counts it or not: four fields, numeric values, a
    ``game_over`` of 0 or 1, lives >= 0 and env_frames >= 1.
    """
    stepped = False
    for lineno, raw in enumerate(lines, start=1):
        # Step lines take this path; any other line raises ValueError here
        # (a blank, comment or reset line has no four numeric fields).
        try:
            reward, lives, game_over, env_frames = raw.split()
            reward = float(reward)
            lives = int(lives)
            env_frames = int(env_frames)
        except ValueError as exc:
            parts = raw.split()
            if not parts or parts[0][0] == "#":
                continue
            if parts == [RESET_MARKER]:
                yield lineno, None, 0, False, 0
                continue
            if len(parts) == 4:
                raise MalformedLogError(f"{name}:{lineno}: {exc}") from None
            raise MalformedLogError(
                f"{name}:{lineno}: expected 'reward lives game_over env_frames' "
                f"on line {lineno}, got {raw.strip()!r}") from None
        if game_over != "0" and game_over != "1":
            raise MalformedLogError(f"{name}:{lineno}: game_over must be 0 or 1: {game_over!r}")
        if lives < 0:
            raise MalformedLogError(f"{name}:{lineno}: lives must be nonnegative: {lives}")
        if env_frames < 1:
            raise MalformedLogError(f"{name}:{lineno}: env_frames must be >= 1: {env_frames}")
        stepped = True
        yield lineno, reward, lives, game_over == "1", env_frames
    if not stepped:
        raise MalformedLogError(f"{name}: log contains no step events")


def _close_episode(episode_return: float, frames_used: int, ended: str | None,
                   anomalies: tuple[str, ...], where: str) -> EpisodeSummary:
    if ended is None:
        if frames_used != MAX_EPISODE_FRAMES:
            raise MalformedLogError(
                f"{where}: episode stream ended after {frames_used} frames without "
                f"game over or frame cap")
        ended = "frame_cap"
    return EpisodeSummary(episode_return, frames_used, ended, anomalies)


def _fold_episodes(steps: Iterable[tuple], name: str) -> Iterator[EpisodeSummary]:
    """Fold step tuples into one EpisodeSummary per episode, as each closes.

    ``steps`` holds ``_parse_steps`` tuples. An episode closes at a
    ``---`` tuple or at the end of ``steps``; only the open episode's
    running totals are kept, so memory does not grow with its length.
    """
    isfinite = math.isfinite
    episode_return, frames_used, prev_lives, ended, anomalies = 0.0, 0, None, None, ()
    for lineno, reward, lives, game_over, env_frames in steps:
        if reward is None:
            if prev_lives is not None:
                yield _close_episode(episode_return, frames_used, ended, anomalies,
                                     f"{name}:{lineno}")
                episode_return, frames_used, prev_lives, ended, anomalies = (
                    0.0, 0, None, None, ())
            continue
        if not isfinite(reward):
            raise MalformedLogError(f"{name}:{lineno}: NaN or infinite reward: {reward}")
        if ended is not None:
            if ended == "game_over":
                raise MalformedLogError(
                    f"{name}:{lineno}: step after the game-over step; "
                    f"an episode ends with '{RESET_MARKER}'")
            continue  # past the frame cap: checked, not counted
        if prev_lives is not None and lives > prev_lives and not game_over:
            raise MalformedLogError(
                f"{name}:{lineno}: lives increased {prev_lives} -> {lives} "
                f"without episode reset")
        prev_lives = lives
        if frames_used + env_frames > MAX_EPISODE_FRAMES:
            ended = "frame_cap"
            continue
        frames_used += env_frames
        episode_return += reward
        if game_over:
            ended = "game_over"
            if lives > 0:
                anomalies = ("life_loss_termination",)
    if prev_lives is not None:
        yield _close_episode(episode_return, frames_used, ended, anomalies, f"{name}:EOF")


def read_episode_log(source: str | Path | Iterable[str]) -> list[list[StepEvent]]:
    """Parse an episode log into per-episode step lists.

    Holds every step in memory; ``ledger_from_log`` streams instead.
    """
    episodes: list[list[StepEvent]] = []
    current: list[StepEvent] = []
    with _open_log(source) as (lines, name):
        for _, reward, lives, game_over, env_frames in _parse_steps(lines, name):
            if reward is not None:
                current.append(StepEvent(reward, lives, game_over, env_frames))
            elif current:
                episodes.append(current)
                current = []
    if current:
        episodes.append(current)
    return episodes


def ledger_from_log(
    source: str | Path | Iterable[str],
    *,
    action_set: int = FULL_ACTION_SET,
    averaging_k: int = 1,
    budget: int = DEFAULT_FRAME_BUDGET,
) -> RunLedger:
    """Fold a log into a RunLedger in one pass, keeping only episode summaries.

    ``source`` is a path or an iterable of lines, such as an open file;
    errors name ``file:line`` (an iterable is named by its ``name``
    attribute, else ``<log>``). The first defect in file order is reported.
    """
    with _open_log(source) as (lines, name):
        summaries = tuple(_fold_episodes(_parse_steps(lines, name), name))
    return RunLedger(
        episodes=summaries,
        total_env_frames=sum(ep.env_frames_used for ep in summaries),
        action_set=action_set,
        averaging_k=averaging_k,
        budget=budget,
    )


@dataclass(frozen=True)
class AlgorithmSettings:
    """Published benchmark settings for one algorithm."""

    algorithm: str
    max_episode_frames: int
    action_repeats: int
    frame_stacks: int
    image_size: str
    color: str
    life_information: bool
    episode_termination: str
    action_space: int
    averaging_k: int


def load_protocol_settings(path: str | Path | None = None) -> dict[str, AlgorithmSettings]:
    """Per-algorithm settings table, keyed by lowercase algorithm name."""
    src = Path(path) if path is not None else data_path("protocol_settings.csv")
    settings = {}
    with open(src, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            entry = AlgorithmSettings(
                algorithm=row["algorithm"],
                max_episode_frames=int(row["max_episode_frames"]),
                action_repeats=int(row["action_repeats"]),
                frame_stacks=int(row["frame_stacks"]),
                image_size=row["image_size"],
                color=row["color"],
                life_information=row["life_information"] == "yes",
                episode_termination=row["episode_termination"],
                action_space=int(row["action_space"]),
                averaging_k=int(row["averaging_k"]),
            )
            settings[entry.algorithm.lower()] = entry
    return settings
