"""Seeded synthetic episode log, written together with its own ground truth.

The generator decides every episode's true return, frame count and ending
as it writes the log, so ``protocol-check`` output can be compared with
values that never went through the program. Rewards are multiples of
0.5, so every return and every window sum is exact in any summation
order. Each log holds:

* ordinary episodes that end on a game-over with no lives left, after
  life losses that do not end them;
* episodes that end on a game-over with lives left (the
  ``life_loss_termination`` anomaly);
* ``CAP_EPISODES`` episodes near the end that run past the 108,000-frame
  cap, so the step that would cross the cap, and every later step, is
  excluded.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

MAX_EPISODE_FRAMES = 108000
FRAMES_PER_DAY = 108000 * 2 * 24
CAP_EPISODES = 2
REWARDS = [x * 0.5 for x in range(-4, 21) if x]


@dataclass
class LogTruth:
    """What the log holds, decided by the generator."""

    k: int
    steps: int = 0  # step lines written
    returns: list[float] = field(default_factory=list)
    frames: list[int] = field(default_factory=list)
    endings: list[str] = field(default_factory=list)
    anomalous: list[bool] = field(default_factory=list)

    @property
    def anomalies(self) -> list[str]:
        return ["life_loss_termination"] if any(self.anomalous) else []

    def expected_check(self) -> dict:
        """The ``protocol-check`` JSON this log must produce (default budget)."""
        total = sum(self.frames)
        return {
            "conforming": True,
            "violations": [],
            "episodes": len(self.returns),
            "total_env_frames": total,
            "game_time_days": round(total / FRAMES_PER_DAY, 3),
            "anomalies": self.anomalies,
            "training_score": sum(self.returns[-self.k:]) / self.k,
        }


def published_ks(data_dir: Path) -> list[int]:
    with open(data_dir / "protocol_settings.csv", newline="", encoding="utf-8") as fh:
        return sorted({int(row["averaging_k"]) for row in csv.DictReader(fh)})


def _episode(rng: random.Random, truth: LogTruth, capped: bool) -> str:
    """One episode's log text; its return, frames and ending go to ``truth``."""
    lines: list[str] = []
    lives = rng.randint(3, 5)
    if capped:
        # Enough steps to cross the cap, with life losses that keep one life.
        length = MAX_EPISODE_FRAMES // 3 + rng.randint(1, 50)
        losses = set(rng.sample(range(length), lives - 1))
        anomalous = False
    else:
        length = rng.randint(20, 300)
        anomalous = rng.random() < 0.05
        kept = rng.randint(1, lives - 1) if anomalous else 0
        losses = set(rng.sample(range(length - 1), lives - kept - 1)) | {length - 1}
    episode_return, used, ending = 0.0, 0, ""
    for i in range(length):
        frames = 4 if rng.random() < 0.9 else 3
        # The step that crosses the cap always carries a reward, so that
        # counting it would change the return.
        crossing = not ending and used + frames > MAX_EPISODE_FRAMES
        reward = rng.choice(REWARDS) if crossing or rng.random() < 0.2 else 0.0
        if i in losses:
            lives -= 1
        over = int(i == length - 1 and not capped)
        lines.append(f"{reward} {lives} {over} {frames}")
        if ending:
            continue
        if crossing:
            ending = "frame_cap"
            continue
        used += frames
        episode_return += reward
        if over:
            ending = "game_over"
    lines.append("---")
    truth.steps += length
    truth.returns.append(episode_return)
    truth.frames.append(used)
    truth.endings.append(ending)
    truth.anomalous.append(anomalous)
    if rng.random() < 0.01:
        lines.append("")
    return "\n".join(lines) + "\n"


def generate(path: Path, seed: int, ks: list[int], target_steps: int = 300_000) -> LogTruth:
    """Write a log of about ``target_steps`` step lines; return its truth.

    ``k`` is drawn from ``ks`` (the published averaging windows). The log
    holds more episodes than the largest of them, and the capped episodes
    sit among the last ``min(ks)`` episodes, so the training score over
    the last k returns depends on them whatever k is.
    """
    rng = random.Random(seed)
    truth = LogTruth(k=rng.choice(ks))
    tail = [True] * CAP_EPISODES + [False] * (min(ks) - CAP_EPISODES)
    rng.shuffle(tail)
    head_steps = target_steps - CAP_EPISODES * (MAX_EPISODE_FRAMES // 3)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# reward lives game_over env_frames\n")
        while truth.steps < head_steps or len(truth.returns) < max(ks):
            fh.write(_episode(rng, truth, capped=False))
        for capped in tail:
            fh.write(_episode(rng, truth, capped))
    return truth


def check_protocol(out: str, truth: LogTruth) -> list[str]:
    """Compare ``protocol-check`` JSON with the generator's truth, exactly."""
    try:
        got = json.loads(out)
    except ValueError as exc:
        return [f"protocol-check: not JSON ({exc})"]
    expected = truth.expected_check()
    if got != expected:
        keys = sorted(set(got) | set(expected)) if isinstance(got, dict) else ["$"]
        return [f"protocol-check {k}: {got.get(k) if isinstance(got, dict) else got!r} "
                f"!= expected {expected.get(k)!r}"
                for k in keys if not isinstance(got, dict) or got.get(k) != expected.get(k)]
    return []


def check_episodes(summaries, truth: LogTruth) -> list[str]:
    """Per-episode comparison of folded ``EpisodeSummary`` values."""
    got = [(s.episode_return, s.env_frames_used, s.terminated_by,
            "life_loss_termination" in s.anomalies) for s in summaries]
    want = list(zip(truth.returns, truth.frames, truth.endings, truth.anomalous))
    if len(got) != len(want):
        return [f"{len(got)} episodes != expected {len(want)}"]
    return [f"episode {i}: {g} != expected {w}"
            for i, (g, w) in enumerate(zip(got, want)) if g != w][:5]
