"""Benchmark-protocol harness over episode-event logs.

Enforces the evaluation protocol without an emulator: episodes end on
the game-over signal or at the 30-minute frame cap (108,000 environment
frames), training runs must fit a frame budget with the full 18-action
set declared, and the reported score is the mean over the last k
consecutive episodes. ``check_conformance`` takes a run's frame total
with its declared action set and budget; a log carries neither, so
neither is kept with the episodes.

Log file format, one step per line, whitespace separated::

    reward lives game_over env_frames

`game_over` is 0 or 1. Episodes are separated by a line containing only
`---`. Blank lines and lines starting with `#` are ignored. A log is
parsed and folded line by line as it is read, and a step line that
repeats is parsed once. ``iter_episodes`` streams the episode summaries,
so a caller that keeps only what it prints (``protocol-check`` keeps the
last k returns) needs memory that grows with k, not with episodes or
steps; ``ledger_from_log`` keeps one summary per episode.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from math import isfinite
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from hwrbench.errors import DatasetError, MalformedLogError, ValidationError
from hwrbench.games import data_path, read_csv

MAX_EPISODE_FRAMES = 108000  # 30 minutes at 60 fps
DEFAULT_FRAME_BUDGET = 200_000_000
FULL_ACTION_SET = 18

RESET_MARKER = "---"
MEMO_LINES = 1024  # distinct lines (and line tails) parsed once per log


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
    """Accounting for one training run: episodes, frames, the averaging window."""

    episodes: tuple[EpisodeSummary, ...]
    total_env_frames: int
    averaging_k: int = 1

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
    steps = ((s.reward, s.lives, s.game_over, s.env_frames) for s in stream)
    # The fields of a StepEvent are parsed already; the fold checks them.
    return next(_fold_log(steps, "<episode>", parse=lambda step, *_: step))


def check_conformance(total_env_frames: int, action_set: int,
                      budget: int) -> ConformanceVerdict:
    """Protocol conformance: frame budget (inclusive) and full action set."""
    violations = []
    if total_env_frames > budget:
        violations.append(Violation(
            "budget_exceeded",
            f"{total_env_frames} environment frames exceed the {budget}-frame budget"))
    if action_set != FULL_ACTION_SET:
        violations.append(Violation(
            "reduced_action_set",
            f"declared action set has {action_set} actions; the full "
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

    The final score is the last window's mean (``final_score``). Each
    window is summed on its own: a running sum would carry the rounding
    error of a large return into the windows after it.
    """
    final = final_score(returns, k)
    series = [sum(returns[i:i + k]) / k for i in range(len(returns) - k + 1)]
    return TrainingScore(series, final)


@contextmanager
def _open_log(source: str | Path | Iterable[str]) -> Iterator[tuple[Iterable[str], str]]:
    """``(lines, name)`` of a log path or of an iterable of lines, read lazily."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            yield fh, str(source)
    else:
        yield source, getattr(source, "name", "<log>")


def _close_episode(episode_return: float, frames_used: int, ended: str | None,
                   anomalies: tuple[str, ...], where: str) -> EpisodeSummary:
    if ended is None:
        if frames_used != MAX_EPISODE_FRAMES:
            raise MalformedLogError(
                f"{where}: episode stream ended after {frames_used} frames without "
                f"game over or frame cap")
        ended = "frame_cap"
    return EpisodeSummary(episode_return, frames_used, ended, anomalies)


def _parse_step(raw: str, name: str, lineno: int,
                tails: dict[str, tuple[int, bool, int]]) -> tuple | None:
    """One log line as ``(reward, lives, game_over, env_frames)``.

    Returns ``()`` for a ``---`` line and None for a blank or ``#`` line.
    Checks four fields, a numeric reward with no ``_``, lives and
    env_frames in ASCII digits, a ``game_over`` of 0 or 1, lives >= 0 and
    env_frames >= 1; the fold checks that the reward is finite. ``tails``
    maps the text after the reward to its parsed fields, for up to
    ``MEMO_LINES`` distinct tails: in a log whose rewards never repeat,
    the rest of the line still does.
    """
    # Step lines take the try path; any other line raises ValueError in it
    # (a blank, comment or reset line has no four numeric fields).
    try:
        text, tail = raw.split(None, 1)
        reward = float(text)
        rest = tails.get(tail)
        if rest is None:
            lives, game_over, env_frames = tail.split()
            rest = (int(lives), game_over == "1", int(env_frames))
            if game_over != "0" and game_over != "1":
                raise MalformedLogError(
                    f"{name}:{lineno}: game_over must be 0 or 1: {game_over!r}")
            if rest[0] < 0:
                raise MalformedLogError(f"{name}:{lineno}: lives must be nonnegative: {rest[0]}")
            if rest[2] < 1:
                raise MalformedLogError(f"{name}:{lineno}: env_frames must be >= 1: {rest[2]}")
            if not (lives.isdigit() and env_frames.isdigit() and tail.isascii()):
                raise MalformedLogError(
                    f"{name}:{lineno}: lives and env_frames must be ASCII digits: "
                    f"{lives!r}, {env_frames!r}")
            if len(tails) < MEMO_LINES:
                tails[tail] = rest
    except ValueError as exc:
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            return None
        if fields == [RESET_MARKER]:
            return ()
        if len(fields) == 4:
            raise MalformedLogError(f"{name}:{lineno}: {exc}") from None
        raise MalformedLogError(
            f"{name}:{lineno}: expected 'reward lives game_over env_frames' "
            f"on line {lineno}, got {raw.strip()!r}") from None
    if "_" in text:
        raise MalformedLogError(f"{name}:{lineno}: reward must not contain '_': {text!r}")
    return (reward, *rest)


def _fold_log(lines: Iterable, name: str,
              parse: Callable = _parse_step) -> Iterator[EpisodeSummary]:
    """Parse and fold log lines in one pass, yielding each episode as it closes.

    ``parse`` turns an item of ``lines`` into a step tuple, ``()`` or None,
    as ``_parse_step`` does for a log line. An episode closes at a ``---``
    line or at the end of ``lines``; only the open episode's running
    totals are kept. ``memo`` maps up to ``MEMO_LINES`` distinct step
    lines that passed every per-line check to their parsed fields, so a
    repeated line is not parsed again; an error is never stored. The fold
    checks run on every step line, so the first defect in file order is
    reported, at its ``file:line``.
    """
    memo: dict[str, tuple[float, int, bool, int]] = {}
    tails: dict[str, tuple[int, bool, int]] = {}
    memo_get = memo.get
    room = MEMO_LINES
    closed = 0
    episode_return, frames_used, prev_lives, ended, anomalies = 0.0, 0, None, None, ()
    for lineno, raw in enumerate(lines, start=1):
        step = memo_get(raw)
        if step is None:
            step = parse(raw, name, lineno, tails)
            if not step:
                if step is not None and prev_lives is not None:
                    yield _close_episode(episode_return, frames_used, ended, anomalies,
                                         f"{name}:{lineno}")
                    closed += 1
                    episode_return, frames_used, prev_lives, ended, anomalies = (
                        0.0, 0, None, None, ())
                continue
            if not isfinite(step[0]):
                raise MalformedLogError(f"{name}:{lineno}: NaN or infinite reward: {step[0]}")
            if room:
                memo[raw] = step
                room -= 1
        reward, lives, game_over, env_frames = step
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
    elif not closed:
        raise MalformedLogError(f"{name}: log contains no step events")


def read_episode_log(source: str | Path | Iterable[str]) -> list[list[StepEvent]]:
    """Parse an episode log into per-episode step lists, with no fold checks.

    A non-finite reward passes here; the fold rejects it. Holds every step
    in memory; ``iter_episodes`` streams instead.
    """
    episodes: list[list[StepEvent]] = []
    current: list[StepEvent] = []
    tails: dict[str, tuple[int, bool, int]] = {}
    with _open_log(source) as (lines, name):
        for lineno, raw in enumerate(lines, start=1):
            step = _parse_step(raw, name, lineno, tails)
            if step:
                current.append(StepEvent(*step))
            elif step is not None and current:
                episodes.append(current)
                current = []
        if current:
            episodes.append(current)
        if not episodes:
            raise MalformedLogError(f"{name}: log contains no step events")
    return episodes


def iter_episodes(source: str | Path | Iterable[str]) -> Iterator[EpisodeSummary]:
    """Fold a log in one pass, yielding each episode's summary as it closes.

    ``source`` is a path or an iterable of lines, such as an open file;
    errors name ``file:line`` (an iterable is named by its ``name``
    attribute, else ``<log>``). The first defect in file order is reported.
    Memory does not grow with the log.
    """
    with _open_log(source) as (lines, name):
        yield from _fold_log(lines, name)


def ledger_from_log(source: str | Path | Iterable[str], *, averaging_k: int = 1) -> RunLedger:
    """Fold a log into a RunLedger, keeping one summary per episode.

    Reads ``source`` as ``iter_episodes`` does.
    """
    summaries = tuple(iter_episodes(source))
    return RunLedger(
        episodes=summaries,
        total_env_frames=sum(ep.env_frames_used for ep in summaries),
        averaging_k=averaging_k,
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
    """Per-algorithm settings table, keyed by lowercase algorithm name.

    The header is the fields of ``AlgorithmSettings``, in order. Its int
    columns must be positive integers and its bool column ``yes`` or
    ``no``; an algorithm may appear once, in any case. A violation is a
    DatasetError naming file:line.
    """
    src = Path(path) if path is not None else data_path("protocol_settings.csv")
    columns = fields(AlgorithmSettings)  # types are the annotation strings "int", "bool"
    settings = {}
    for lineno, row in read_csv(src, tuple(c.name for c in columns), DatasetError):
        values: dict = {}
        for column, text in zip(columns, row):
            if column.type == "int":
                if not (text.isascii() and text.isdigit() and int(text) > 0):
                    raise DatasetError(f"{src}:{lineno}: {column.name} must be a positive "
                                       f"integer, got {text!r}")
                values[column.name] = int(text)
            elif column.type == "bool":
                if text not in ("yes", "no"):
                    raise DatasetError(
                        f"{src}:{lineno}: {column.name} must be yes or no, got {text!r}")
                values[column.name] = text == "yes"
            else:
                values[column.name] = text
        key = values["algorithm"].lower()
        if key in settings:
            raise DatasetError(f"{src}:{lineno}: repeated algorithm {values['algorithm']!r}")
        settings[key] = AlgorithmSettings(**values)
    return settings
