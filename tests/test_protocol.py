import math
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
        expected = [sum(returns[i:i + k]) / k for i in range(len(returns) - k + 1)]
        assert len(result.series) == max(0, len(returns) - k + 1)
        assert result.series == pytest.approx(expected)
        assert result.final == expected[-1] == final_score(returns, k)


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
            read_episode_log(["1 2 3"])

    def test_empty_log_rejected(self):
        with pytest.raises(MalformedLogError, match="no step events"):
            read_episode_log(["# nothing", ""])

    def test_bad_env_frames_rejected(self):
        with pytest.raises(MalformedLogError, match="env_frames"):
            read_episode_log(["1 2 0 0\n", "0 0 1 4\n"])

    @pytest.mark.parametrize("text, where, match", [
        ("1 3 0 4\nnan 3 0 4\n0 0 1 4\n", ":2: ", "NaN"),
        ("1 1 0 4\n1 3 0 4\n0 0 1 4\n", ":2: ", "lives increased"),
        ("1 3 0 4\n---\n", ":2: ", "ended after 4 frames"),
        ("# a\n1 3 0 4\n\n", ":EOF: ", "ended after 4 frames"),
        ("# nothing\n\n---\n", ": ", "no step events"),
        ("1 x 0 4\n", ":1: ", "invalid literal"),
        ("1 2 3\n", ":1: ", "line 1"),
        # a line without four fields is echoed up to 80 characters
        ("1" * 80 + "\n", ":1: ", "got '1{80}'$"),
        ("1" * 81 + "\n", ":1: ", "got '1{80}' and 1 more characters$"),
        # so is a field that is not a number, whichever conversion rejects it
        ("x" * 80 + " 3 0 4\n", ":1: ", "could not convert string to float: 'x{80}'$"),
        ("x" * 81 + " 3 0 4\n", ":1: ",
         "could not convert string to float: 'x{80}' and 1 more characters$"),
        ("0 " + "x" * 81 + " 0 4\n", ":1: ",
         r"invalid literal for int\(\) with base 10: 'x{80}' and 1 more characters$"),
        ("0 3 0 " + "x" * 300 + "\n", ":1: ",
         r"invalid literal for int\(\) with base 10: 'x{80}' and 220 more characters$"),
        ("0 3 " + "2" * 81 + " 4\n", ":1: ",
         "game_over must be 0 or 1: '2{80}' and 1 more characters$"),
        ("1_" + "0" * 80 + " 3 0 4\n", ":1: ",
         "reward must not contain '_': '1_0{78}' and 2 more characters$"),
        ("0 3 0 " + "\u0663" * 81 + "\n", ":1: ",
         "ASCII digits: '3', '\u0663{80}' and 1 more characters$"),
        # rejections: game_over other than 0/1, a non-finite reward on a
        # step past the cap, a step between a game over and its ---
        ("1 3 2 4\n", ":1: ", "game_over must be 0 or 1"),
        ("1 3 00 4\n", ":1: ", "game_over must be 0 or 1"),
        (f"1 1 0 {MAX_EPISODE_FRAMES}\n2 1 0 4\ninf 1 0 4\n", ":3: ", "NaN or infinite"),
        ("-inf 1 0 4\n", ":1: ", "NaN or infinite"),
        ("1 3 0 4\n0 0 1 4\n1 0 0 4\n---\n", ":3: ", "after the game-over step"),
    ])
    def test_errors_name_file_and_line(self, tmp_path, text, where, match):
        path = tmp_path / "episodes.log"
        path.write_text(text, encoding="utf-8")
        prefix = re.escape(f"{path}{where}")
        with pytest.raises(MalformedLogError, match=f"^{prefix}.*{match}"):
            ledger_from_log(path)

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
    def test_out_of_contract_numerals_rejected(self, line, match):
        log = ["1 3 0 4\n", line + "\n", "0 0 1 4\n"]
        for lines in (log, [text.encode() for text in log]):
            with pytest.raises(MalformedLogError, match=f"^<log>:2: {re.escape(match)}"):
                ledger_from_log(lines)
            with pytest.raises(MalformedLogError, match=f"^<log>:2: {re.escape(match)}"):
                read_episode_log(lines)

    @pytest.mark.parametrize("data, where, match", [
        # Lives rise at line 2, ahead of the byte 0xff on line 5.
        (b"1 1 0 4\n1 3 0 4\n0 0 1 4\n---\n\xff 3 0 4\n0 0 1 4\n", 2, "lives increased"),
        # The byte 0xff on line 2, ahead of lives that rise at line 4.
        (b"1 3 0 4\n1 \xff 0 4\n1 1 0 4\n1 3 0 4\n", 2,
         "'utf-8' codec can't decode byte 0xff in position 2: invalid start byte"),
    ], ids=["rise-first", "not-utf8-first"])
    def test_line_not_utf8_is_reported_at_its_line(self, tmp_path, data, where, match):
        path = tmp_path / "episodes.log"
        path.write_bytes(data)
        prefix = re.escape(f"{path}:{where}: ")
        with pytest.raises(MalformedLogError, match=f"^{prefix}{match}"):
            ledger_from_log(path)
        with pytest.raises(MalformedLogError, match=f"^<log>:{where}: {match}"):
            ledger_from_log(data.splitlines(keepends=True))
        if "utf-8" in match:
            with pytest.raises(MalformedLogError, match=f"^{prefix}{match}"):
                read_episode_log(path)

    def test_first_defect_in_file_order_is_reported(self):
        # The truncated episode closes at line 2, before the malformed line 3.
        with pytest.raises(MalformedLogError, match="^<log>:2: .*ended"):
            ledger_from_log(["1 3 0 4\n", "---\n", "1 2 3\n"])

    def test_open_file_is_named_by_its_name(self, tmp_path):
        path = tmp_path / "episodes.log"
        path.write_text("1 3 0 4\n", encoding="utf-8")
        with open(path, encoding="utf-8") as fh:
            with pytest.raises(MalformedLogError, match=f"^{re.escape(str(path))}:EOF: "):
                ledger_from_log(fh)

    def test_steps_past_the_cap_are_checked_not_counted(self):
        log = [f"1 1 0 {MAX_EPISODE_FRAMES}", "5 1 0 4", "7 2 1 4", RESET_MARKER,
               "2 0 1 4"]
        ledger = ledger_from_log(log)
        assert ledger.episodes == (
            EpisodeSummary(1.0, MAX_EPISODE_FRAMES, "frame_cap"),
            EpisodeSummary(2.0, 4, "game_over"))

    def test_example_with_three_holes_rejects_the_first(self):
        log = ["1 3 0 4", "0 0 1 4", RESET_MARKER, "2 3 2 4", "inf 1 0 4", "0 0 1 4",
               "5 0 0 4"]
        with pytest.raises(MalformedLogError, match="^<log>:4: game_over"):
            ledger_from_log(log)
        with pytest.raises(MalformedLogError, match="^<log>:5: NaN or infinite"):
            ledger_from_log(log[:3] + ["2 3 1 4"] + log[4:])
        with pytest.raises(MalformedLogError, match="^<log>:7: step after the game-over"):
            ledger_from_log(log[:3] + ["2 3 0 4", "1 1 0 4"] + log[5:])

    @pytest.mark.parametrize("text, where", [
        ("1e308 1 0 4\n1e308 1 1 4\n", "EOF"),
        ("1e308 1 0 4\n1e308 1 1 4\n---\n0 0 1 4\n", "3"),
    ], ids=["eof", "reset"])
    def test_overflowing_return_rejected_where_the_episode_closes(self, text, where):
        with pytest.raises(MalformedLogError,
                           match=f"^<log>:{where}: episode return overflows: inf"):
            ledger_from_log(text.splitlines())
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
        lines = ("1 1 0 1\n" for _ in range(n))
        tracemalloc.start()
        try:
            ledger = ledger_from_log(lines)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ledger.episodes == (
            EpisodeSummary(float(MAX_EPISODE_FRAMES), MAX_EPISODE_FRAMES, "frame_cap"),)
        assert peak < n * sys.getsizeof(step()) / 100


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
# every episode's steps before folding any; it is kept only as the oracle of
# the differential tests below.

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


def fold_file(path, lines):
    """Write ``lines`` to ``path`` and fold the path, which reads them as bytes.

    Returns the ledger, or the error text after the file's name.
    """
    path.write_bytes("".join(lines).encode("utf-8"))
    try:
        return ledger_from_log(path)
    except MalformedLogError as exc:
        return str(exc).removeprefix(str(path))


class TestStreamingMatchesOracle:
    @given(episode_logs())
    def test_valid_logs_give_equal_ledgers(self, log_file, lines):
        ledger = ledger_from_log(lines)
        assert ledger == _oracle_ledger_from_log(lines)
        assert fold_file(log_file, lines) == ledger
        assert read_episode_log(lines) == _oracle_read_episode_log(lines)
        assert read_episode_log(log_file) == read_episode_log(lines)  # as just written

    @given(st.sampled_from(sorted(DEFECTS)).flatmap(episode_logs))
    def test_one_defect_is_rejected_by_both(self, log_file, lines):
        with pytest.raises(MalformedLogError):
            _oracle_ledger_from_log(lines)
        with pytest.raises(MalformedLogError) as exc:
            ledger_from_log(lines)
        assert fold_file(log_file, lines) == str(exc.value).removeprefix("<log>")


# Rewards from a small pool, so most step lines repeat and hit the memo.
POOLED_LOGS = episode_logs(rewards=st.sampled_from(["0", "1", "-1", "2.5"]))
# Lines that fail a per-line check, whatever comes before them.
DEFECT_LINES = ["1 2 3", "x 3 0 4", "0 3 0 0", "0 -1 0 4", "nan 3 0 4", "-inf 3 0 4",
                "0 3 2 4", "1_0 3 0 4", "0 +3 0 4", "0 3 0 0_4"]


class TestMemo:
    @given(POOLED_LOGS, st.sampled_from([MEMO_LINES, 2, 1]))
    def test_repeated_lines_give_the_oracle_ledger(self, log_file, lines, cap):
        # A small cap fills the memo, so later distinct lines are parsed
        # every time they occur.
        with mock.patch.object(protocol, "MEMO_LINES", cap):
            ledger = ledger_from_log(lines)
            assert ledger == _oracle_ledger_from_log(lines)
            assert fold_file(log_file, lines) == ledger
            assert read_episode_log(lines) == _oracle_read_episode_log(lines)

    @given(POOLED_LOGS)
    def test_parser_runs_once_per_distinct_line(self, lines):
        # A blank or comment line is never stored, so it is parsed each time.
        parsed = []

        def spy(raw, name, lineno):
            parsed.append(raw)
            return protocol._parse_step(raw, name, lineno)

        episodes = tuple(protocol._fold_log(lines, "<log>", parse=spy))
        assert episodes == ledger_from_log(lines).episodes
        skipped = [line for line in lines if not line.strip() or line.lstrip()[0] == "#"]
        assert sorted(parsed) == sorted(skipped + list(set(lines) - set(skipped)))

    def test_more_distinct_lines_than_the_memo_holds(self, log_file):
        # Three times the cap in distinct lines, then each of them again.
        first = [f"{i} 1 0 1\n" for i in range(3 * MEMO_LINES)]
        lines = first + first[::-1] + ["0 0 1 1\n"]
        ledger = ledger_from_log(lines)
        assert ledger == _oracle_ledger_from_log(lines)
        assert fold_file(log_file, lines) == ledger
        assert ledger.episodes == (
            EpisodeSummary(float(sum(range(3 * MEMO_LINES)) * 2), 6 * MEMO_LINES + 1,
                           "game_over"),)
        # Once the memo is full, a new line is still checked in full.
        with pytest.raises(MalformedLogError, match=f"^<log>:{len(lines)}: NaN or infinite"):
            ledger_from_log(lines[:-1] + ["nan 1 0 1\n", "0 0 1 1\n"])

    @pytest.mark.parametrize("lines, where, match", [
        # "0 1 0 4" is stored at line 1; at line 4 it raises lives from 0.
        (["0 1 0 4", "0 1 0 4", "0 0 0 4", "0 1 0 4"], 4, "lives increased 0 -> 1"),
        # "0 0 1 4" is stored at line 1; at line 4 it follows a game over.
        (["0 0 1 4", RESET_MARKER, "0 0 1 4", "0 0 1 4"], 4, "step after the game-over"),
    ])
    def test_remembered_line_still_meets_the_fold_checks(self, lines, where, match):
        with pytest.raises(MalformedLogError, match=f"^<log>:{where}: {match}"):
            ledger_from_log(lines)

    @given(POOLED_LOGS, st.sampled_from(DEFECT_LINES),
           st.lists(st.integers(min_value=0), min_size=2, max_size=4),
           st.sampled_from([MEMO_LINES, 1]))
    def test_repeated_defect_is_reported_at_its_first_line(self, log_file, lines, defect,
                                                           cuts, cap):
        lines = list(lines)
        for cut in sorted(cuts, reverse=True):
            lines.insert(cut % (len(lines) + 1), defect + "\n")
        first = lines.index(defect + "\n") + 1
        with mock.patch.object(protocol, "MEMO_LINES", cap):
            with pytest.raises(MalformedLogError, match=f"^<log>:{first}: ") as exc:
                ledger_from_log(lines)
            assert fold_file(log_file, lines) == str(exc.value).removeprefix("<log>")
