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
`---`. Blank lines and lines starting with `#` are ignored. A log file
is read as raw bytes, from a path or a binary file such as stdin, in
blocks of ``CHUNK_BYTES`` (16 KiB), each finished at the end of its last
line and split at ``\n`` only. Each block of lines is parsed and folded
before the next is read.
A line is remembered by its raw bytes: a step or ``---`` line that
repeats is neither decoded nor parsed again. A line the memo misses (a
new line, or any line once it is full) costs a full decode and parse.
``iter_episodes`` streams the episode summaries, so a caller that keeps
only what it prints (``protocol-check`` keeps the last k returns) needs
the last k returns, the memo and one block of lines: memory that grows
with k, not with episodes or steps. ``ledger_from_log`` keeps one
summary per episode.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager, nullcontext
from functools import partial, reduce
from io import BufferedIOBase, BytesIO
from itertools import chain
from math import inf, isfinite
from operator import add, length_hint
from pathlib import Path

from hwrbench.errors import MalformedLogError, ValidationError

MAX_EPISODE_FRAMES = 108000  # 30 minutes at 60 fps
DEFAULT_FRAME_BUDGET = 200_000_000
FULL_ACTION_SET = 18

RESET_MARKER = "---"
MEMO_LINES = 1024  # distinct lines parsed once per log; a miss is a full parse
CHUNK_BYTES = 16384  # bytes of a log file read, then folded, at a time


class StepEvent(namedtuple("StepEvent", "reward lives game_over env_frames")):
    """One log step; ``env_frames`` is agent steps x action repeat."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # ``_replace`` checks too

    def __new__(cls, reward: float, lives: int, game_over: bool, env_frames: int):
        if env_frames < 1:
            raise ValidationError(f"env_frames must be >= 1: {env_frames}")
        if lives < 0:
            raise ValidationError(f"lives must be nonnegative: {lives}")
        return tuple.__new__(cls, (reward, lives, game_over, env_frames))


class EpisodeSummary(namedtuple(
        "EpisodeSummary", "episode_return env_frames_used terminated_by anomalies",
        defaults=((),))):
    """One folded episode; ``terminated_by`` is "game_over" or "frame_cap"."""

    __slots__ = ()


class Violation(namedtuple("Violation", "code detail")):
    __slots__ = ()


class ConformanceVerdict(namedtuple("ConformanceVerdict", "conforming violations")):
    __slots__ = ()


class RunLedger(namedtuple("RunLedger", "episodes total_env_frames averaging_k",
                           defaults=(1,))):
    """Accounting for one training run: episodes, frames, the averaging window."""

    __slots__ = ()


TrainingScore = namedtuple("TrainingScore", "series final")


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
    # A StepEvent is its own parsed step tuple; the fold checks it.
    return next(_fold_log((list(stream),), "<episode>", parse=lambda step, *_: step))


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


def _sum_left_to_right(values: list[float]) -> float:
    """``values`` added in order, as the fold adds rewards: from Python 3.12
    ``sum()`` compensates float rounding, so its total depends on the version."""
    return reduce(add, values, 0)


def final_score(returns: list[float], k: int) -> float:
    """The reported training score: the mean of the last k episode returns."""
    if k < 1:
        raise ValidationError(f"k must be >= 1: {k}")
    if len(returns) < k:
        raise ValidationError(f"need at least k={k} episodes, got {len(returns)}")
    mean = _sum_left_to_right(returns[-k:]) / k
    if not isfinite(mean):
        raise ValidationError(f"mean of the last {k} returns overflows: {mean}")
    return mean


def training_score(returns: list[float], k: int) -> TrainingScore:
    """Sliding mean over k consecutive episode returns (stride 1).

    The final score is the last window's mean (``final_score``). Each
    window is summed on its own, left to right: a running sum would carry
    the rounding error of a large return into the windows after it. A
    window whose mean is not finite is a ValidationError naming its
    1-based returns.
    """
    final = final_score(returns, k)
    series = [_sum_left_to_right(returns[i:i + k]) / k
              for i in range(len(returns) - k + 1)]
    for i, mean in enumerate(series, start=1):
        if not isfinite(mean):
            raise ValidationError(f"mean of returns {i}..{i + k - 1} overflows: {mean}")
    return TrainingScore(series, final)


def _read_block(fh) -> list[bytes]:
    """The lines of the file's next ``CHUNK_BYTES``, the last read to its end; [] at EOF."""
    block = fh.read(CHUNK_BYTES)
    if block[-1:] != b"\n":  # a line longer than a block is read whole here
        block += fh.readline()
    # Each line keeps its "\n", as iterating the file gives it: a character cut
    # short before "\n" is a decode error of its own ("invalid continuation byte").
    return BytesIO(block).readlines()


@contextmanager
def _open_log(source: str | Path | BufferedIOBase) -> Iterator[tuple[Iterator, str]]:
    """``(chunks, name)``: the lines of a log path or binary file, in lists, read lazily.

    A path is opened in binary, and closed after; a file object (such as
    ``sys.stdin.buffer``) is read from where it stands, and left open. Both
    are read in blocks, so a line is raw bytes ending in ``\n`` (a ``\r``
    before it is whitespace to the parser, and a lone ``\r`` breaks no
    line), as iterating the file gives it; ``_parse_step`` decodes the lines
    it parses. A log is named by its file's ``name``, else ``<log>``.
    """
    with open(source, "rb") if isinstance(source, (str, Path)) else nullcontext(source) as fh:
        yield iter(partial(_read_block, fh), []), getattr(fh, "name", "<log>")


def _close_episode(episode_return: float, frames_used: int, ended: str | None,
                   anomalies: tuple[str, ...], where: str) -> EpisodeSummary:
    if ended is None:
        if frames_used != MAX_EPISODE_FRAMES:
            raise MalformedLogError(
                f"{where}: episode stream ended after {frames_used} frames without "
                f"game over or frame cap")
        ended = "frame_cap"
    if not isfinite(episode_return):
        raise MalformedLogError(f"{where}: episode return overflows: {episode_return}")
    return EpisodeSummary(episode_return, frames_used, ended, anomalies)


def _echo(text: str) -> str:
    """``repr(text)`` of at most 80 characters: a log may be one huge line."""
    if len(text) <= 80:
        return repr(text)
    return f"{text[:80]!r} and {len(text) - 80} more characters"


def _parse_step(raw: bytes, name: str, lineno: int) -> tuple | None:
    """Parse one log line in full; the fold calls this on each memo miss.

    Returns ``(reward, lives, game_over, env_frames)``, ``()`` for a ``---``
    line, or None for a blank or ``#`` line. The line is decoded first; one
    that is not UTF-8 is a MalformedLogError at its line. A step line
    needs four fields, a numeric reward with no ``_``, lives and env_frames
    in ASCII digits, a ``game_over`` of 0 or 1, lives >= 0, env_frames >= 1
    and ASCII characters only; the fold checks that the reward is finite.
    """
    try:
        raw = raw.decode()
    except UnicodeDecodeError as exc:
        raise MalformedLogError(f"{name}:{lineno}: {exc}") from None
    fields = raw.split()
    if not fields or fields[0][0] == "#":
        return None
    if len(fields) != 4:
        if fields == [RESET_MARKER]:
            return ()
        raise MalformedLogError(f"{name}:{lineno}: expected 'reward lives game_over "
                                f"env_frames' on line {lineno}, got {_echo(raw.strip())}")
    text, lives, game_over, env_frames = fields
    field = text  # the field being converted
    try:
        reward = float(text)
        field = lives
        n_lives = int(lives)
        field = env_frames
        step = (reward, n_lives, game_over == "1", int(env_frames))
    except ValueError as exc:
        # float() quotes the whole field and int() 200 characters of it
        message = str(exc) if len(field) <= 80 else (
            f"{str(exc).partition(': ')[0]}: {_echo(field)}")
        raise MalformedLogError(f"{name}:{lineno}: {message}") from None
    if game_over != "0" and game_over != "1":
        raise MalformedLogError(f"{name}:{lineno}: game_over must be 0 or 1: {_echo(game_over)}")
    if step[1] < 0:
        raise MalformedLogError(f"{name}:{lineno}: lives must be nonnegative: {step[1]}")
    if step[3] < 1:
        raise MalformedLogError(f"{name}:{lineno}: env_frames must be >= 1: {step[3]}")
    if not (lives.isdigit() and env_frames.isdigit() and (lives + env_frames).isascii()):
        raise MalformedLogError(f"{name}:{lineno}: lives and env_frames must be ASCII "
                                f"digits: {_echo(lives)}, {_echo(env_frames)}")
    if "_" in text:
        raise MalformedLogError(f"{name}:{lineno}: reward must not contain '_': {_echo(text)}")
    if not raw.isascii():  # float() reads non-ASCII digits, split() non-ASCII spaces
        raise MalformedLogError(f"{name}:{lineno}: non-ASCII character in step line: "
                                f"{max(raw)!r}")
    return step


def _fold_log(chunks: Iterable[list], name: str,
              parse: Callable = _parse_step) -> Iterator[EpisodeSummary]:
    """Parse and fold log lines in one pass, yielding each episode as it closes.

    ``chunks`` yields lists of lines, as ``_open_log`` reads them, and
    ``parse`` turns a line into a step tuple, ``()`` or None, as
    ``_parse_step`` does for a log line. A chunk is folded in full, and
    dropped, before the next is read; so an error that reading raises
    comes before any defect in the lines of its chunk. An episode closes
    at a ``---`` line or at the end of the lines; only the open episode's
    running totals are kept. ``memo`` maps up to ``MEMO_LINES`` distinct
    raw lines that passed every per-line check to their parsed fields,
    ``()`` for a ``---`` line, so a repeated line is neither decoded nor
    parsed again; an error is never stored. The fold checks run on every step line, so the first defect in
    file order is reported, at its ``file:line``.
    """
    memo: dict[bytes, tuple] = {}
    memo_get = memo.get
    # ``end`` numbers the chunk's last line; a line's number, worked out only
    # where it is used, is ``end`` less the chunk's lines not yet looked up.
    closed = end = 0
    # ``left`` counts the frames before the cap; ``prev_lives`` starts above
    # any lives, so an episode's first step never reads as a rise.
    episode_return, left, prev_lives, ended, anomalies = (
        0.0, MAX_EPISODE_FRAMES, inf, None, ())
    for chunk in chunks:
        end += len(chunk)
        rest = iter(chunk)
        for step in map(memo_get, rest):
            if not step:  # a memo miss (None) or a ``---`` line (())
                lineno = end - length_hint(rest)
                if step is None:
                    raw = chunk[lineno - end - 1]  # the line just looked up
                    step = parse(raw, name, lineno)
                    if step is None:
                        continue  # a blank or comment line
                    if step and not isfinite(step[0]):
                        raise MalformedLogError(
                            f"{name}:{lineno}: NaN or infinite reward: {step[0]}")
                    if len(memo) < MEMO_LINES:
                        memo[raw] = step
                if not step:  # a ``---`` line closes the episode, if it has a step
                    if left < MAX_EPISODE_FRAMES or ended is not None:
                        yield _close_episode(episode_return, MAX_EPISODE_FRAMES - left,
                                             ended, anomalies, f"{name}:{lineno}")
                        closed += 1
                        episode_return, left, prev_lives, ended, anomalies = (
                            0.0, MAX_EPISODE_FRAMES, inf, None, ())
                    continue
            reward, lives, game_over, env_frames = step
            if ended is not None:
                if ended == "game_over":
                    raise MalformedLogError(
                        f"{name}:{end - length_hint(rest)}: step after the game-over "
                        f"step; an episode ends with '{RESET_MARKER}'")
                continue  # past the frame cap: checked, not counted
            if lives > prev_lives and not game_over:
                raise MalformedLogError(
                    f"{name}:{end - length_hint(rest)}: lives increased {prev_lives} "
                    f"-> {lives} without episode reset")
            prev_lives = lives
            if env_frames > left:
                ended = "frame_cap"
                continue
            left -= env_frames
            episode_return += reward
            if game_over:
                ended = "game_over"
                if lives > 0:
                    anomalies = ("life_loss_termination",)
        del chunk, rest  # else the next chunk is read while this one is held
    if left < MAX_EPISODE_FRAMES or ended is not None:
        yield _close_episode(episode_return, MAX_EPISODE_FRAMES - left, ended, anomalies,
                             f"{name}:EOF")
    elif not closed:
        raise MalformedLogError(f"{name}: log contains no step events")


def read_episode_log(source: str | Path | BufferedIOBase) -> list[list[StepEvent]]:
    """Parse an episode log into per-episode step lists, with no fold checks.

    Reads ``source``, a path or a binary file object, as ``iter_episodes``
    does. A non-finite reward passes here; the fold rejects it. Holds every step
    in memory; ``iter_episodes`` streams instead.
    """
    episodes: list[list[StepEvent]] = []
    current: list[StepEvent] = []
    with _open_log(source) as (chunks, name):
        for lineno, raw in enumerate(chain.from_iterable(chunks), start=1):
            step = _parse_step(raw, name, lineno)
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


def iter_episodes(source: str | Path | BufferedIOBase) -> Iterator[EpisodeSummary]:
    """Fold a log in one pass, yielding each episode's summary as it closes.

    ``source`` is a path or a binary file object, such as ``sys.stdin.buffer``,
    ``open(path, "rb")`` or ``io.BytesIO``; errors name ``file:line`` (a file
    object is named by its ``name`` attribute, else ``<log>``). The first
    defect in file order is reported. Either is read ``CHUNK_BYTES`` at a
    time, and a summary is yielded as soon as the block holding its closing
    line is read: a first episode that closes within the first block arrives
    after one block. Memory does not grow with the log.
    """
    with _open_log(source) as (chunks, name):
        yield from _fold_log(chunks, name)


def ledger_from_log(source: str | Path | BufferedIOBase, *,
                    averaging_k: int = 1) -> RunLedger:
    """Fold a log into a RunLedger, keeping one summary per episode.

    Reads ``source`` as ``iter_episodes`` does.
    """
    if averaging_k < 1:
        raise ValidationError(f"averaging_k must be >= 1: {averaging_k}")
    summaries = tuple(iter_episodes(source))
    return RunLedger(
        episodes=summaries,
        total_env_frames=sum(ep.env_frames_used for ep in summaries),
        averaging_k=averaging_k,
    )
