import functools
import io
import math
import operator
import random
import re
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hwrbench import protocol
from hwrbench.errors import MalformedLogError, ValidationError
from hwrbench.metrics import game_time_days
from hwrbench.numfmt import scale_label_for
from hwrbench.protocol import (
    CHUNK_BYTES,
    DEFAULT_FRAME_BUDGET,
    FULL_ACTION_SET,
    MAX_EPISODE_FRAMES,
    MEMO_LINES,
    RESET_MARKER,
    EpisodeSummary,
    RunLedger,
    StepEvent,
    accumulate_episode,
    check_conformance,
    final_score,
    iter_episodes,
    ledger_from_log,
    read_episode_log,
    training_score,
)


def step(reward=0.0, lives=3, game_over=False, env_frames=4):
    return StepEvent(reward, lives, game_over, env_frames)


def capped_episode(frames=MAX_EPISODE_FRAMES):
    return EpisodeSummary(0.0, frames, "frame_cap")


class TestAccumulateEpisode:
    def test_return_is_reward_sum(self):
        steps = [step(1.0), step(-2.0), step(3.0, lives=0, game_over=True)]
        summary = accumulate_episode(steps)
        assert summary.episode_return == 2.0
        assert summary.terminated_by == "game_over"
        assert summary.env_frames_used == 12

    def test_frame_cap_excludes_crossing_step(self):
        # 27001 steps of 4 frames: the cap fires entering step 27001
        steps = [step(reward=1.0) for _ in range(27001)]
        summary = accumulate_episode(steps)
        assert summary.terminated_by == "frame_cap"
        assert summary.env_frames_used == 108000
        assert summary.episode_return == 27000.0

    def test_life_loss_does_not_terminate(self):
        steps = [step(1.0, lives=3), step(1.0, lives=2), step(1.0, lives=2),
                 step(1.0, lives=0, game_over=True)]
        summary = accumulate_episode(steps)
        assert summary.episode_return == 4.0
        assert summary.terminated_by == "game_over"
        assert summary.anomalies == ()

    def test_game_over_with_lives_left_is_flagged(self):
        steps = [step(1.0, lives=3), step(0.0, lives=2, game_over=True)]
        summary = accumulate_episode(steps)
        assert summary.terminated_by == "game_over"
        assert "life_loss_termination" in summary.anomalies

    def test_nan_reward_rejected(self):
        with pytest.raises(MalformedLogError, match="NaN"):
            accumulate_episode([step(math.nan)])

    def test_lives_increase_rejected(self):
        with pytest.raises(MalformedLogError, match="lives increased"):
            accumulate_episode([step(lives=1), step(lives=3)])

    def test_truncated_stream_rejected(self):
        with pytest.raises(MalformedLogError, match="ended"):
            accumulate_episode([step(), step()])

    def test_stream_ending_exactly_at_cap_is_capped(self):
        steps = [step(reward=1.0) for _ in range(27000)]
        summary = accumulate_episode(steps)
        assert summary.terminated_by == "frame_cap"
        assert summary.env_frames_used == MAX_EPISODE_FRAMES

    @given(st.lists(
        st.tuples(st.floats(min_value=-100, max_value=100, allow_nan=False),
                  st.integers(min_value=1, max_value=8)),
        min_size=1, max_size=300))
    def test_return_matches_bruteforce_sum(self, raw_steps):
        steps = [step(reward=r, lives=1, env_frames=f) for r, f in raw_steps]
        steps.append(step(reward=0.5, lives=0, game_over=True))
        summary = accumulate_episode(steps)
        consumed, total = [], 0
        for s in steps:
            if total + s.env_frames > MAX_EPISODE_FRAMES:
                break
            total += s.env_frames
            consumed.append(s.reward)
            if s.game_over:
                break
        assert summary.episode_return == pytest.approx(sum(consumed))
        assert summary.env_frames_used == total <= MAX_EPISODE_FRAMES


def check(total_env_frames, action_set=FULL_ACTION_SET):
    return check_conformance(total_env_frames, action_set, DEFAULT_FRAME_BUDGET)


class TestCheckBudget:
    def test_exact_budget_is_conforming(self):
        # 50M agent steps x repeat 4 = 2e8 frames, inclusive boundary
        verdict = check(200_000_000)
        assert verdict.conforming and verdict.violations == ()

    def test_budget_overrun_flagged(self):
        verdict = check(200_000_004)
        assert not verdict.conforming
        assert [v.code for v in verdict.violations] == ["budget_exceeded"]

    def test_reduced_action_set_flagged(self):
        verdict = check(1000, action_set=4)
        assert [v.code for v in verdict.violations] == ["reduced_action_set"]

    def test_monotone_adding_frames_never_helps(self):
        for frames in (0, 10 ** 6, DEFAULT_FRAME_BUDGET, DEFAULT_FRAME_BUDGET * 2):
            assert check(frames).conforming or not check(frames + 1).conforming


class TestTrainingScore:
    def test_sliding_window_example(self):
        # brute-force oracle: mean(returns[i:i+k])
        result = training_score([10, 20, 30, 40], k=3)
        assert result.series == [20, 30]
        assert result.final == 30

    def test_k1_identity(self):
        result = training_score([5.0, 7.0, 9.0], k=1)
        assert result.series == [5.0, 7.0, 9.0]
        assert result.final == 9.0

    def test_constant_sequence(self):
        result = training_score([5, 5, 5, 5], k=2)
        assert result.series == [5, 5, 5]
        assert result.final == 5

    def test_too_few_episodes_rejected(self):
        with pytest.raises(ValidationError):
            training_score([1.0], k=2)

    @pytest.mark.parametrize("returns, k", [([1.0], 2), ([1.0], 0), ([], 1)])
    def test_final_score_checks_k_and_episode_count(self, returns, k):
        with pytest.raises(ValidationError):
            final_score(returns, k)

    def test_overflowing_mean_rejected(self):
        # Each return is finite; their sum is not.
        for score in (final_score, training_score):
            with pytest.raises(ValidationError, match="mean of the last 2 returns overflows"):
                score([0.0, 1e308, 1e308], 2)

    @pytest.mark.parametrize("returns, window", [
        ([1e308, 1e308, 0.0], "returns 1..2"),
        ([0.0, -1e308, -1e308, 0.0, 0.0], "returns 2..3"),
    ], ids=["first", "second"])
    def test_overflowing_earlier_window_rejected_by_name(self, returns, window):
        # The last window is finite, so only the series check can catch it.
        assert math.isfinite(final_score(returns, 2))
        with pytest.raises(ValidationError, match=f"^mean of {re.escape(window)} overflows"):
            training_score(returns, 2)

    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
                    min_size=1, max_size=60),
           st.integers(min_value=1, max_value=60))
    def test_matches_bruteforce_windows(self, returns, k):
        if k > len(returns):
            with pytest.raises(ValidationError):
                training_score(returns, k)
            return
        result = training_score(returns, k)
        # Added left to right: from Python 3.12 ``sum()`` compensates rounding.
        expected = [functools.reduce(operator.add, returns[i:i + k]) / k
                    for i in range(len(returns) - k + 1)]
        assert len(result.series) == max(0, len(returns) - k + 1)
        assert result.series == pytest.approx(expected)
        assert result.final == expected[-1] == final_score(returns, k)

    def test_windows_are_added_left_to_right(self):
        # Added in order, ten 0.1 returns make 0.9999999999999999, as the fold
        # adds rewards; sum() makes 1.0 from Python 3.12.
        score = 0.09999999999999999
        assert final_score([0.1] * 10, 10) == score
        assert training_score([0.1] * 11, 10) == ([score, score], score)


class TestEpisodeLog:
    LOG = """\
# reward lives game_over env_frames
1 3 0 4
-2 3 0 4
3 0 1 4
---
5 1 0 4
0 0 1 4
"""

    def test_parse_two_episodes(self, tmp_path):
        path = tmp_path / "episodes.log"
        path.write_text(self.LOG, encoding="utf-8")
        episodes = read_episode_log(path)
        assert [len(ep) for ep in episodes] == [3, 2]

    def test_ledger_from_log(self, tmp_path):
        path = tmp_path / "episodes.log"
        path.write_text(self.LOG, encoding="utf-8")
        ledger = ledger_from_log(path, averaging_k=2)
        assert [ep.episode_return for ep in ledger.episodes] == [2.0, 5.0]
        assert ledger.total_env_frames == 20
        assert ledger.averaging_k == 2
        assert check(ledger.total_env_frames).conforming

    @pytest.mark.parametrize("k", [0, -1])
    def test_ledger_rejects_averaging_window_below_one(self, tmp_path, k):
        path = tmp_path / "episodes.log"
        path.write_text(self.LOG, encoding="utf-8")
        with pytest.raises(ValidationError, match=f"^averaging_k must be >= 1: {k}$"):
            ledger_from_log(path, averaging_k=k)

    def test_malformed_line_rejected(self):
        with pytest.raises(MalformedLogError, match="line 1"):
            read_episode_log(io.BytesIO(b"1 2 3"))

    def test_empty_log_rejected(self):
        with pytest.raises(MalformedLogError, match="no step events"):
            read_episode_log(io.BytesIO(b"# nothing\n\n"))

    def test_bad_env_frames_rejected(self):
        with pytest.raises(MalformedLogError, match="env_frames"):
            read_episode_log(io.BytesIO(b"1 2 0 0\n0 0 1 4\n"))

    @pytest.mark.parametrize("line, match", [
        ("1_0 3 0 4", "reward must not contain '_'"),  # float() reads 10
        ("0 +3 0 4", "lives and env_frames must be ASCII digits"),  # int() reads 3
        ("0 3 0 0_4", "lives and env_frames must be ASCII digits"),  # int() reads 4
        ("0 \u0663 0 4", "lives and env_frames must be ASCII digits"),  # int() reads 3
        ("\u0663 3 0 4", "non-ASCII character in step line: '\u0663'"),  # float() reads 3
        ("\uff11 3 0 4", "non-ASCII character in step line: '\uff11'"),  # float() reads 1
        ("0\xa03 0 4", r"non-ASCII character in step line: '\xa0'"),  # split() splits there
        ("0 3\xa00 4", r"non-ASCII character in step line: '\xa0'"),
        ("0 3 0 4 \u2003", r"non-ASCII character in step line: '\u2003'"),
    ])
    def test_out_of_contract_numerals_rejected(self, log_file, line, match):
        log = ["1 3 0 4\n", line + "\n", "0 0 1 4\n"]
        assert fold_everywhere(log, log_file, oracle=False).startswith(f":2: {match}")
        with pytest.raises(MalformedLogError, match=f"^<log>:2: {re.escape(match)}"):
            read_episode_log(io.BytesIO("".join(log).encode()))  # as every route reads it

    def test_open_file_is_named_by_its_name(self, tmp_path):
        path = tmp_path / "episodes.log"
        path.write_text("1 3 0 4\n", encoding="utf-8")
        with open(path, "rb") as fh:
            with pytest.raises(MalformedLogError, match=f"^{re.escape(str(path))}:EOF: "):
                ledger_from_log(fh)

    def test_steps_past_the_cap_are_checked_not_counted(self):
        log = f"1 1 0 {MAX_EPISODE_FRAMES}\n5 1 0 4\n7 2 1 4\n{RESET_MARKER}\n2 0 1 4\n"
        ledger = ledger_from_log(io.BytesIO(log.encode()))
        assert ledger.episodes == (
            EpisodeSummary(1.0, MAX_EPISODE_FRAMES, "frame_cap"),
            EpisodeSummary(2.0, 4, "game_over"))

    def test_overflowing_return_rejected_where_the_episode_closes(self):
        with pytest.raises(MalformedLogError, match="^<episode>:EOF: episode return overflows"):
            accumulate_episode([step(1e308), step(1e308, lives=0, game_over=True)])

    def test_step_after_game_over_rejected_by_fold(self):
        with pytest.raises(MalformedLogError, match="^<episode>:2: step after"):
            accumulate_episode([step(lives=0, game_over=True), step(lives=0)])

    @pytest.mark.parametrize("reward", [math.inf, -math.inf])
    def test_infinite_reward_rejected_by_fold(self, reward):
        with pytest.raises(MalformedLogError, match="^<episode>:1: NaN or infinite"):
            accumulate_episode([step(reward), step(lives=0, game_over=True)])

    def test_memory_does_not_grow_with_steps(self):
        # One capped episode of 200k one-frame steps: 108,000 counted, the
        # rest checked past the cap. A StepEvent per step would hold MBs.
        n = 200_000
        stream = io.BytesIO(b"1 1 0 1\n" * n)
        tracemalloc.start()
        try:
            ledger = ledger_from_log(stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ledger.episodes == (
            EpisodeSummary(float(MAX_EPISODE_FRAMES), MAX_EPISODE_FRAMES, "frame_cap"),)
        assert peak < n * sys.getsizeof(step()) / 100

    @pytest.mark.parametrize("route", ["stream", "path"])
    def test_first_summary_arrives_after_one_chunk(self, tmp_path, route):
        # The first episode closes at line 3: the fold reads one block.
        path = tmp_path / "long.log"
        data = b"1 3 0 4\n0 0 1 4\n---\n" * (4 * CHUNK_BYTES // 20)
        path.write_bytes(data)
        with open(path, "rb") as fh, mock.patch.object(protocol, "open", lambda *_: fh,
                                                       create=True):
            episodes = iter_episodes(fh if route == "stream" else path)
            assert next(episodes) == EpisodeSummary(1.0, 8, "game_over")
            assert fh.tell() == data.index(b"\n", CHUNK_BYTES - 1) + 1
            episodes.close()
            assert fh.closed == (route == "path")


class TestInvariants:
    def test_no_episode_exceeds_cap_random_streams(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 400)
            steps = [step(reward=rng.uniform(-5, 5), lives=1,
                          env_frames=rng.choice([1, 4, 1000, 40000]))
                     for _ in range(n)]
            steps.append(step(lives=0, game_over=True))
            summary = accumulate_episode(steps)
            assert summary.env_frames_used <= MAX_EPISODE_FRAMES

    def test_conforming_200m_ledger_game_time(self):
        ledger = RunLedger((capped_episode(),), 200_000_000)
        assert check(ledger.total_env_frames).conforming
        assert game_time_days(ledger.total_env_frames) == pytest.approx(38.580, abs=5e-4)


class TestScaleLabel:
    @pytest.mark.parametrize("frames,label", [
        (200_000_000, "200M"),
        (1_000_000, "1M"),
        (10_000_000_000, "10B"),
        (35_000_000_000, "35B"),
        (999, "999"),
    ])
    def test_labels(self, frames, label):
        assert scale_label_for(frames) == label


# Reference implementation: the read-then-fold parser that ledger_from_log
# replaced. It reads every line, builds a StepEvent per step line and keeps
# every episode's steps before folding any; it is the oracle of ``fold_everywhere``.

def _oracle_accumulate_episode(stream):
    episode_return = 0.0
    frames_used = 0
    anomalies = []
    prev_lives = None
    for step_event in stream:
        if math.isnan(step_event.reward):
            raise MalformedLogError("NaN reward in episode stream")
        if (prev_lives is not None and step_event.lives > prev_lives
                and not step_event.game_over):
            raise MalformedLogError(
                f"lives increased {prev_lives} -> {step_event.lives} without episode reset")
        if frames_used + step_event.env_frames > MAX_EPISODE_FRAMES:
            return EpisodeSummary(
                episode_return, frames_used, "frame_cap", tuple(anomalies))
        frames_used += step_event.env_frames
        episode_return += step_event.reward
        prev_lives = step_event.lives
        if step_event.game_over:
            if step_event.lives > 0 and "life_loss_termination" not in anomalies:
                anomalies.append("life_loss_termination")
            return EpisodeSummary(
                episode_return, frames_used, "game_over", tuple(anomalies))
    if frames_used == MAX_EPISODE_FRAMES:
        return EpisodeSummary(episode_return, frames_used, "frame_cap", tuple(anomalies))
    raise MalformedLogError(
        f"episode stream ended after {frames_used} frames without game over "
        f"or frame cap")


def _oracle_parse_step_line(line, lineno):
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


def _oracle_read_episode_log(lines):
    episodes = []
    current = []
    for lineno, raw_line in enumerate(list(lines), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line == RESET_MARKER:
            if current:
                episodes.append(current)
                current = []
            continue
        current.append(_oracle_parse_step_line(line, lineno))
    if current:
        episodes.append(current)
    if not episodes:
        raise MalformedLogError("log contains no step events")
    return episodes


def _oracle_ledger_from_log(lines):
    summaries = tuple(_oracle_accumulate_episode(ep)
                      for ep in _oracle_read_episode_log(lines))
    return RunLedger(summaries, sum(ep.env_frames_used for ep in summaries))


REWARDS = st.one_of(
    st.integers(min_value=-50, max_value=50).map(str),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(repr))
# Frame runs that reach the cap exactly, or cross it (steps after the
# crossing step follow in the strategy).
EXACT_RUNS = ([MAX_EPISODE_FRAMES], [54000, 54000], [36000] * 3, [100000, 7996, 4])
CROSSING_RUNS = ([54000] * 3, [100000, 7000, 4000], [36000] * 3 + [4],
                 [MAX_EPISODE_FRAMES + 1], [107999, 1, 4])


@st.composite
def episode_lines(draw, rewards=REWARDS):
    """One valid episode: a game over (lives may remain) or a frame cap."""
    kind = draw(st.sampled_from(("game_over", "cap_exact", "cap_crossing")))
    if kind == "game_over":
        frames = draw(st.lists(st.sampled_from([1, 3, 4, 7000]), min_size=1, max_size=12))
    elif kind == "cap_exact":
        frames = list(draw(st.sampled_from(EXACT_RUNS)))
    else:
        frames = list(draw(st.sampled_from(CROSSING_RUNS)))
        frames += draw(st.lists(st.sampled_from([1, 4, 50000]), max_size=4))
    lives = draw(st.integers(min_value=0, max_value=5))
    lines, used = [], 0
    for i, env_frames in enumerate(frames):
        crossed = used > MAX_EPISODE_FRAMES
        used += env_frames
        over = 0
        if used > MAX_EPISODE_FRAMES:
            # The crossing step and those after it are not counted and may
            # set game over; lives may rise only after the crossing step.
            if crossed:
                lives = draw(st.integers(min_value=0, max_value=5))
            over = draw(st.integers(min_value=0, max_value=1))
        elif kind == "game_over" and i == len(frames) - 1:
            lives = draw(st.integers(min_value=0, max_value=5))  # may rise at game over
            over = 1
        elif lives and draw(st.integers(min_value=0, max_value=3)) == 0:
            lives -= 1  # a life loss, which never ends the episode
        lines.append(f"{draw(rewards)} {lives} {over} {env_frames}")
    return lines


# Exactly one defect that both parsers reject, placed at an episode's start.
DEFECTS = {
    "fields": lambda ep: ["1 2 3"] + ep,
    "number": lambda ep: ["x 3 0 4"] + ep,
    "env_frames": lambda ep: ["0 3 0 0"] + ep,
    "negative_lives": lambda ep: ["0 -1 0 4"] + ep,
    "nan_reward": lambda ep: ["nan 3 0 4"] + ep,
    "lives_increased": lambda ep: ["0 1 0 4", "0 2 0 4"] + ep,
    "truncated": lambda ep: ["0 1 0 4"],
}


@st.composite
def episode_logs(draw, defect=None, rewards=REWARDS):
    """A log of valid episodes with blank, comment and empty-episode lines."""
    episodes = draw(st.lists(episode_lines(rewards), min_size=1, max_size=6))
    if defect is not None:
        i = draw(st.integers(min_value=0, max_value=len(episodes) - 1))
        episodes[i] = DEFECTS[defect](episodes[i])
    lines = []
    for episode in episodes:
        lines += episode + [RESET_MARKER]
        lines += draw(st.lists(st.sampled_from(["", RESET_MARKER]), max_size=2))
    if draw(st.booleans()):
        lines.pop()  # no reset marker before the end of the file
    noisy = []
    for line in lines:
        noisy += draw(st.lists(st.sampled_from(["", "  ", "# note", "#a 1 0 4"]),
                               max_size=1))
        noisy.append(draw(st.sampled_from(["", " ", "\t"])) + line)
    return [line + "\n" for line in noisy]


@pytest.fixture(scope="module")
def log_file(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn") / "drawn.log"


# Each knob value, run on every route; the first is every default. Small blocks
# put an edge at nearly every line, and a small memo is full at once.
SETTINGS = [*(("MEMO_LINES", n) for n in (MEMO_LINES, 1, 2, 3)),
            *(("CHUNK_BYTES", n) for n in (1, 2, 3, 7))]


def outcome(read, source, name):
    """``read(source())``, or the text of its MalformedLogError after ``name``."""
    try:
        return read(source())
    except MalformedLogError as exc:
        assert str(exc).startswith(name), exc
        return str(exc)[len(name):]


def fold_everywhere(data, path, oracle=True):
    """Fold a log (bytes, or str lines) on every route under every setting: one outcome.

    The routes are a binary stream, as stdin gives it, and ``path``. All give one
    ledger, or one error text after the log's name, and ``read_episode_log`` one
    outcome. With ``oracle`` the ``_oracle_*`` fold runs once: the ledger is its ledger,
    and a log it rejects (one not UTF-8, too) is rejected, at any line it names."""
    data = data if isinstance(data, bytes) else "".join(data).encode()
    path.write_bytes(data)
    sources = {"stream": (lambda: io.BytesIO(data), "<log>"), "path": (lambda: path, str(path))}
    folds = {}
    for knob, value in SETTINGS:
        with mock.patch.object(protocol, knob, value):
            folds.update((f"{route} {knob}={value}", outcome(ledger_from_log, *source))
                         for route, source in sources.items())
    reads = {route: outcome(read_episode_log, *source) for route, source in sources.items()}
    ledger, episodes = folds[f"path MEMO_LINES={MEMO_LINES}"], reads["path"]
    for setting, got in [*folds.items(), *reads.items()]:  # a read reward may be NaN
        assert repr(got) == repr(episodes if setting in reads else ledger), setting
    if isinstance(ledger, str) and "codec can't decode" in ledger:  # the read decodes every line
        assert episodes == ledger
    if oracle:
        try:
            lines = data.decode().split("\n")
            want = _oracle_ledger_from_log(lines), _oracle_read_episode_log(lines)
        except (MalformedLogError, UnicodeDecodeError) as exc:
            assert isinstance(ledger, str), exc
            if named := re.match(r"line (\d+): ", str(exc)):
                assert ledger.startswith(f":{named[1]}: "), (ledger, exc)
        else:
            assert (ledger, episodes) == want
    return ledger


def at_block_edge(before, line, size, where):
    """``before``, padding, ``line`` and a closing step, with ``line`` "first" in a block,
    "last" in one, or "cut" by a block's first ``size`` bytes; and ``line``'s number."""
    room = size - len(before) - 1
    for pad in [b"#" * m + b"\n" for m in (room, room - len(line), room - len(line) // 2,
                                          *range(9)) if m >= 0] + [b"\n" * j for j in range(9)]:
        start, end = len(before + pad), len(before + pad + line)
        data = before + pad + line + b"0 0 1 4\n"
        starts, fh = [], io.BytesIO(data)  # where each block read from ``data`` starts
        with mock.patch.object(protocol, "CHUNK_BYTES", size):
            while lines := (starts.append(fh.tell()) or protocol._read_block(fh)):
                assert b"".join(lines) == data[starts[-1]:fh.tell()]
        if {"first": start in starts[1:-1], "last": end in starts,
                "cut": any(start < s + size < end for s in starts)}[where]:
            return data, (before + pad).count(b"\n") + 1
    raise AssertionError(f"no padding puts {line!r} {where} in a {size}-byte block")


def at_memo_edge(before, line, size, where):
    """``before``, ``line`` and a closing step after ``size - 1`` distinct steps, so that
    ``before``'s first line takes the last of ``size`` memo slots ("last"), or after ``size``,
    so that the memo is full before ``before`` is read ("next-first"); and ``line``'s number."""
    pad = b"".join(b"%d 3 0 4\n" % n for n in range(10, 10 + size - (where == "last")))
    first = before[:before.index(b"\n") + 1]
    parsed = []  # as the fold's memo keeps ``first``: seen again, it is parsed again or not

    def spy(raw, *_):
        parsed.append(raw)
        return 0.0, 0, False, 1

    with mock.patch.object(protocol, "MEMO_LINES", size), pytest.raises(MalformedLogError):
        list(protocol._fold_log([(pad + first * 2).splitlines(keepends=True)], "", parse=spy))
    assert parsed.count(first) == 1 + (where == "next-first"), (size, where)
    return pad + before + line + b"0 0 1 4\n", (pad + before).count(b"\n") + 1


# A line, what comes before it, and the error at its line; the "lives" line is remembered.
EDGE_LINES = {
    "parse": (b"0 2 0 4\n", b"x 2 0 4\n", "could not convert string to float: 'x'"),
    "bad-byte": (b"0 2 0 4\n", b"0 2 0 4 \xff\n",
                 "'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"),
    # A character cut short before "\n" reads as a bad continuation byte.
    "cut-char": (b"0 2 0 4\n", b"0 2 0 4\xe2\x82\n", "'utf-8' codec can't decode bytes in "
                 "position 7-8: invalid continuation byte"),
    "lives": (b"0 3 0 4\n0 2 0 4\n", b"0 3 0 4\n", "lives increased 2 -> 3"),
    "after-game-over": (b"0 2 1 4\n", b"0 3 0 4\n", "step after the game-over step"),
    "cut-short": (b"0 2 0 4\n", b"---\n", "episode stream ended after"),
    "blank": (b"1 3 0 4\n", b"\n", None),
    "comment": (b"1 3 0 4\n", b"#" * 10 + b"\n", None),
    "reset": (b"1 0 1 4\n", b"---\n", None),
}
EDGES = {"memo": (at_memo_edge, (MEMO_LINES, 1, 2, 3), ("last", "next-first")),
         "block": (at_block_edge, (1, 2, 3, 7, CHUNK_BYTES), ("first", "last", "cut"))}
# Logs, each with the error at its first defect (a regex), or None when it is valid:
PLACED_LOGS = {
    # ... some that a block must be read to the end of (whole lines across blocks,
    # with or without a final "\n", "\r\n" ends, a lone "\r");
    b"1 3 0 4\n# " + b"x" * (2 * CHUNK_BYTES) + b"\n0." + b"5" * 40 + b" 3 0 4\n0 0 1 4\n"
    b"---\n2 1 1 4\n": None,
    b"1 3 0 4\n0 0 1 4\n---\n2 1 1 4": None,
    b"1 3 0 4\r\n\r\n0 0 1 4\r\n---\r\n2 1 1 4\r\n": None,
    b"\n1 3 0 4\n0 0 1 4\n\n---\n\n---\n2 1 1 4\n---\n": None,
    b"1 3 0 4\r0 3 0 4\n0 0 1 4\n": ":1: expected 'reward lives game_over",
    # ... "\r\n" ends before a defect, named as "\n" ends are, with no "\r" echoed;
    b"# c\r\n1 3 0 4\r\n1 2 3\r\n": ":3: expected .* on line 3, got '1 2 3'$",
    b"1 3 0 4\r\n---\r\n": ":2: episode stream ended after 4 frames without",
    # ... a character cut short at the end of the file, read as the end of the data;
    b"1 3 0 4\n0 2 0 4\xe2\x82":
        ":2: 'utf-8' codec can't decode bytes in position 7-8: unexpected end of data",
    # ... a line held from line 2 or 3 that at line 4 raises lives or follows a game over;
    b"0 1 0 4\n0 1 0 4\n0 0 0 4\n0 1 0 4\n": ":4: lives increased 0 -> 1",
    b"0 0 1 4\n---\n0 0 1 4\n0 0 1 4\n": ":4: step after the game-over",
    # ... more defects than one (lives rise ahead of a byte 0xff and after one, a cut-short
    # episode before a bad line, holes at lines 4, 5 and 7), the first reported;
    b"1 1 0 4\n1 3 0 4\n0 0 1 4\n---\n\xff 3 0 4\n0 0 1 4\n": ":2: lives increased",
    b"1 3 0 4\n1 \xff 0 4\n1 1 0 4\n1 3 0 4\n":
        ":2: 'utf-8' codec can't decode byte 0xff in position 2: invalid start byte",
    "1 3 0 4\n---\n1 2 3\n": ":2: .*ended",
    "1 3 0 4\n0 0 1 4\n---\n2 3 2 4\ninf 1 0 4\n0 0 1 4\n5 0 0 4": ":4: game_over",
    "1 3 0 4\n0 0 1 4\n---\n2 3 1 4\ninf 1 0 4\n0 0 1 4\n5 0 0 4": ":5: NaN or infinite",
    "1 3 0 4\n0 0 1 4\n---\n2 3 0 4\n1 1 0 4\n0 0 1 4\n5 0 0 4": ":7: step after the game-over",
    # ... and one defect, as an error names it.
    "1 3 0 4\nnan 3 0 4\n0 0 1 4\n": ":2: .*NaN",
    "1 1 0 4\n1 3 0 4\n0 0 1 4\n": ":2: .*lives increased",
    "1 3 0 4\n---\n": ":2: .*ended after 4 frames",
    "# a\n1 3 0 4\n\n": ":EOF: .*ended after 4 frames",
    "# nothing\n\n---\n": ": .*no step events",
    "1 x 0 4\n": ":1: .*invalid literal",
    "1 2 3\n": ":1: .*line 1",
    # A line without four fields is echoed up to 80 characters...
    "1" * 80 + "\n": ":1: .*got '1{80}'$",
    "1" * 81 + "\n": ":1: .*got '1{80}' and 1 more characters$",
    b"1 3 0 4\r" * (1 << 17): r":1: .*got '(1 3 0 4\\r){10}' and 1048495 more characters$",
    # ... and so is a field that is not a number, whichever conversion rejects it.
    "x" * 80 + " 3 0 4\n": ":1: .*could not convert string to float: 'x{80}'$",
    "x" * 81 + " 3 0 4\n":
        ":1: .*could not convert string to float: 'x{80}' and 1 more characters$",
    b"x" * 1_000_000 + b" 3 0 4\n": ":1: .*float: 'x{80}' and 999920 more characters$",
    "0 " + "x" * 81 + " 0 4\n":
        r":1: .*invalid literal for int\(\) with base 10: 'x{80}' and 1 more characters$",
    "0 3 0 " + "x" * 300 + "\n":
        r":1: .*invalid literal for int\(\) with base 10: 'x{80}' and 220 more characters$",
    "0 3 " + "2" * 81 + " 4\n": ":1: .*game_over must be 0 or 1: '2{80}' and 1 more characters$",
    "1_" + "0" * 80 + " 3 0 4\n":
        ":1: .*reward must not contain '_': '1_0{78}' and 2 more characters$",
    "0 3 0 " + "\u0663" * 81 + "\n":
        ":1: .*ASCII digits: '3', '\u0663{80}' and 1 more characters$",
    # A game_over other than 0/1, a non-finite reward past the cap, a step
    # between a game over and its ---.
    "1 3 2 4\n": ":1: .*game_over must be 0 or 1",
    "1 3 00 4\n": ":1: .*game_over must be 0 or 1",
    f"1 1 0 {MAX_EPISODE_FRAMES}\n2 1 0 4\ninf 1 0 4\n": ":3: .*NaN or infinite",
    "-inf 1 0 4\n": ":1: .*NaN or infinite",
    # An episode return that overflows, at the line or EOF that closes the episode.
    "1e308 1 0 4\n1e308 1 1 4\n": ":EOF: episode return overflows: inf",
    "1e308 1 0 4\n1e308 1 1 4\n---\n0 0 1 4\n": ":3: episode return overflows: inf",
    "1 3 0 4\n0 0 1 4\n1 0 0 4\n---\n": ":3: .*after the game-over step",
}


def placed_id(log):  # pytest's own id, or the size of a log longer than a block
    return f"{len(log)}-bytes" if len(log) > CHUNK_BYTES else None


class TestFoldOnEveryRoute:
    @pytest.mark.parametrize("defects", [[None], sorted(DEFECTS)], ids=["valid", "one-defect"])
    @given(data=st.data())
    def test_drawn_log_folds_as_the_oracle_folds(self, log_file, defects, data):
        lines = data.draw(st.sampled_from(defects).flatmap(episode_logs))
        assert isinstance(fold_everywhere(lines, log_file), RunLedger) == (defects == [None])

    @pytest.mark.parametrize("place, size, where, case", [
        pytest.param(place, size, where, case, id=f"{kind}-{case}-{where}-{size}")
        for kind, (place, sizes, wheres) in EDGES.items() for size in sizes for where in wheres
        for case in EDGE_LINES if not (case == "blank" and where == "cut")])  # "\n" is never cut
    def test_line_at_an_edge(self, log_file, place, size, where, case):
        before, line, match = EDGE_LINES[case]
        data, lineno = place(before, line, size, where)
        got = fold_everywhere(data, log_file, oracle=match is None)
        assert re.match(f":{lineno}: {match}", got) if match else isinstance(got, RunLedger), got

    @pytest.mark.parametrize("log", PLACED_LOGS, ids=placed_id)
    def test_placed_log(self, log_file, log):
        error = PLACED_LOGS[log]
        got = fold_everywhere(log, log_file, oracle=error is None)
        assert re.match(error, got) if error else isinstance(got, RunLedger), got


# Rewards from a small pool, so most step lines repeat and hit the memo.
POOLED_LOGS = episode_logs(rewards=st.sampled_from(["0", "1", "-1", "2.5"]))
# A step that no drawn log holds, so the line that closes its episode is known.
CUT_SHORT = "7777 1 0 4\n"
# Lines that fail a per-line check, whatever comes before them.
DEFECT_LINES = ["1 2 3", "x 3 0 4", "0 3 0 0", "0 -1 0 4", "nan 3 0 4", "-inf 3 0 4",
                "0 3 2 4", "1_0 3 0 4", "0 +3 0 4", "0 3 0 0_4"]


def parsed_lines(source):
    """The episodes of ``source``, and each line ``_parse_step`` parsed, as text."""
    parsed = []

    def spy(raw, *where):
        parsed.append(raw.decode())
        return protocol._parse_step(raw, *where)

    with protocol._open_log(source) as (chunks, name):
        return tuple(protocol._fold_log(chunks, name, parse=spy)), parsed


class TestMemo:
    @given(POOLED_LOGS, st.integers(min_value=0), st.booleans(), st.sampled_from(DEFECT_LINES),
           st.lists(st.integers(min_value=0), min_size=2, max_size=4))
    def test_pooled_log_as_drawn_cut_short_and_with_a_repeated_defect(
            self, log_file, lines, pick, at_eof, defect, cuts):
        # As drawn, each distinct line is parsed once, and a blank or comment line each time.
        ledger = fold_everywhere(lines, log_file)
        skipped = [line for line in lines if not line.strip() or line.lstrip()[0] == "#"]
        for source in (io.BytesIO("".join(lines).encode()), log_file):  # as just written
            episodes, parsed = parsed_lines(source)
            assert episodes == ledger.episodes
            assert sorted(parsed) == sorted(skipped + list(set(lines) - set(skipped)))
        # An episode cut short is named at the ``---`` or EOF that closes it.
        if at_eof:
            short, where = lines + [RESET_MARKER + "\n", CUT_SHORT], "EOF"
        else:
            starts = [i for i in range(len(lines) + 1)
                      if i == 0 or lines[i - 1].strip() == RESET_MARKER]
            i = starts[pick % len(starts)]
            short, where = lines[:i] + [CUT_SHORT, RESET_MARKER + "\n"] + lines[i:], i + 2
        got = fold_everywhere(short, log_file)
        assert re.match(f":{where}: episode stream ended after 4 ", got), got
        # A defect is never stored, so one that repeats is reported at its first
        # line. The oracle reads some of these lines as steps (``float("1_0")``).
        lines = list(lines)
        for cut in sorted(cuts, reverse=True):
            lines.insert(cut % (len(lines) + 1), defect + "\n")
        first = lines.index(defect + "\n") + 1
        got = fold_everywhere(lines, log_file, oracle=False)
        assert got.startswith(f":{first}: "), got

    def test_more_distinct_lines_than_the_memo_holds(self, log_file):
        # Three times the memo in distinct lines, then each of them again: no line is
        # parsed more often than by a memo that keeps the first MEMO_LINES lines it meets.
        first = [f"{i} 1 0 1\n" for i in range(3 * MEMO_LINES)]
        lines = first + first[::-1] + ["0 0 1 1\n"]
        assert fold_everywhere(lines, log_file).episodes == (
            EpisodeSummary(float(sum(range(3 * MEMO_LINES)) * 2), 6 * MEMO_LINES + 1,
                           "game_over"),)
        kept = set(first[:MEMO_LINES])
        misses = len(kept) + sum(line not in kept for line in lines)
        for source in (io.BytesIO("".join(lines).encode()), log_file):  # as just written
            assert len(parsed_lines(source)[1]) <= misses
        # Once the memo is full, a new line is still checked in full.
        got = fold_everywhere(lines[:-1] + ["nan 1 0 1\n", "0 0 1 1\n"], log_file)
        assert got.startswith(f":{len(lines)}: NaN or infinite reward"), got
