"""Human-world-record benchmark evaluation for Atari game scores.

Normalizes raw game scores against random, human-average, and
human-world-record baselines, aggregates them into leaderboard rows,
checks episode logs against the benchmark protocol, and reproduces the
bundled reference score tables.
"""

__version__ = "0.1.0"
