"""Benchmark-protocol harness over episode-event logs.

Enforces the evaluation protocol without an emulator: episodes end on
the game-over signal or at the 30-minute frame cap (108,000 environment
frames), training runs must fit a frame budget with the full 18-action
set declared, and the reported score is the mean over the last k
consecutive episodes.

Log file format, one step per line, whitespace separated::

    reward lives game_over env_frames

`game_over` is 0 or 1. Episodes are separated by a line containing only
`---`. Blank lines and lines starting with `#` are ignored.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

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


@dataclass(frozen=True)
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
    """Consume one episode's steps into its return and frame accounting.

    Consumption stops at the game-over signal or just before the step
    that would push the episode past the frame cap; a capped step's
    reward is excluded. Life losses never terminate the episode, but a
    game-over with lives remaining is flagged as an anomaly (it suggests
    the log was produced with life-loss termination).
    """
    episode_return = 0.0
    frames_used = 0
    anomalies: list[str] = []
    prev_lives: int | None = None
    for step in stream:
        if math.isnan(step.reward):
            raise MalformedLogError("NaN reward in episode stream")
        if prev_lives is not None and step.lives > prev_lives and not step.game_over:
            raise MalformedLogError(
                f"lives increased {prev_lives} -> {step.lives} without episode reset")
        if frames_used + step.env_frames > MAX_EPISODE_FRAMES:
            return EpisodeSummary(
                episode_return, frames_used, "frame_cap", tuple(anomalies))
        frames_used += step.env_frames
        episode_return += step.reward
        prev_lives = step.lives
        if step.game_over:
            if step.lives > 0 and "life_loss_termination" not in anomalies:
                anomalies.append("life_loss_termination")
            return EpisodeSummary(
                episode_return, frames_used, "game_over", tuple(anomalies))
    if frames_used == MAX_EPISODE_FRAMES:
        return EpisodeSummary(episode_return, frames_used, "frame_cap", tuple(anomalies))
    raise MalformedLogError(
        f"episode stream ended after {frames_used} frames without game over "
        f"or frame cap")


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


def training_score(returns: list[float], k: int) -> TrainingScore:
    """Sliding mean over k consecutive episode returns (stride 1).

    The final score is the last window's mean, i.e. the mean of the last
    k episodes of training.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1: {k}")
    if len(returns) < k:
        raise ValidationError(f"need at least k={k} episodes, got {len(returns)}")
    series = [sum(returns[i:i + k]) / k for i in range(len(returns) - k + 1)]
    return TrainingScore(series, series[-1])


def to_run_record(ledger: RunLedger, game: str, algorithm: str) -> RunRecord:
    """Bridge a finished ledger to the metrics pipeline."""
    returns = [ep.episode_return for ep in ledger.episodes]
    final = training_score(returns, ledger.averaging_k).final
    return RunRecord(
        algorithm=algorithm,
        game=canonical_game(game),
        score=final,
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


def _parse_step_line(line: str, lineno: int) -> StepEvent:
    parts = line.split()
    if len(parts) != 4:
        raise MalformedLogError(
            f"line {lineno}: expected 'reward lives game_over env_frames', "
            f"got {line!r}")
    try:
        reward = float(parts[0])
        lives = int(parts[1])
        game_over = bool(int(parts[2]))
        env_frames = int(parts[3])
    except ValueError as exc:
        raise MalformedLogError(f"line {lineno}: {exc}")
    try:
        return StepEvent(reward, lives, game_over, env_frames)
    except ValidationError as exc:
        raise MalformedLogError(f"line {lineno}: {exc}")


def read_episode_log(source: str | Path | Iterable[str]) -> list[list[StepEvent]]:
    """Parse an episode log into per-episode step streams."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            return read_episode_log(list(fh))
    episodes: list[list[StepEvent]] = []
    current: list[StepEvent] = []
    for lineno, raw_line in enumerate(source, start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line == RESET_MARKER:
            if current:
                episodes.append(current)
                current = []
            continue
        current.append(_parse_step_line(line, lineno))
    if current:
        episodes.append(current)
    if not episodes:
        raise MalformedLogError("log contains no step events")
    return episodes


def ledger_from_log(
    source: str | Path | Iterable[str],
    *,
    action_set: int = FULL_ACTION_SET,
    averaging_k: int = 1,
    budget: int = DEFAULT_FRAME_BUDGET,
) -> RunLedger:
    """Accumulate every episode in a log into a RunLedger."""
    summaries = tuple(accumulate_episode(ep) for ep in read_episode_log(source))
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
