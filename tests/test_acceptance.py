"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the test ids.
"""

import json
import random
from contextlib import contextmanager

import pytest

from hwrbench.aggregate import MetricColumn, aggregate, leaders
from hwrbench.games import CANONICAL_GAMES, BaselineRegistry
from hwrbench.metrics import (
    CapMode,
    MetricKind,
    MetricValue,
    chns,
    game_time_days,
    hns,
    hwrns,
    saber,
)
from hwrbench.numfmt import format_efficiency
from hwrbench.protocol import (
    DEFAULT_FRAME_BUDGET,
    FULL_ACTION_SET,
    MAX_EPISODE_FRAMES,
    EpisodeSummary,
    RunLedger,
    StepEvent,
    accumulate_episode,
    check_conformance,
    training_score,
)
from hwrbench.reproduce import run_reproduction, write_artifacts


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE C{number} FAIL - {description}")
        raise
    print(f"ACCEPTANCE C{number} PASS - {description}")


@pytest.fixture(scope="module")
def registry():
    return BaselineRegistry.load()


@pytest.fixture(scope="module")
def reproduction():
    return run_reproduction()


def test_c1_golden_cell_reproduction(reproduction, tmp_path):
    with criterion(1, "golden per-game metric reproduction (>=95% within 0.02pp)"):
        assert reproduction.total_cells == 3174
        assert reproduction.match_rate >= 0.95
        for stats in reproduction.table_stats:
            assert stats.match_rate >= 0.95, stats.table

        # every non-matching comparison lands in the machine-readable log
        written = write_artifacts(reproduction, tmp_path)
        log_path = next(p for p in written if p.name == "inconsistency_log.json")
        log = json.loads(log_path.read_text(encoding="utf-8"))
        cell_entries = [m for m in log if m["game"]]
        assert len(cell_entries) == sum(
            1 for m in reproduction.inconsistencies if m.game)
        mismatched = reproduction.total_cells - reproduction.total_matches
        assert len(cell_entries) == mismatched

        # known offenders are present
        assert any(m["kind"] == "malformed" and m["printed"] == "441/32"
                   and m["algorithm"] == "NGU" and m["game"] == "gravitar"
                   for m in log)
        assert any(m["algorithm"] == "R2D2" and m["game"] == "phoenix"
                   for m in cell_entries)  # cross-table contradiction


def test_c2_aggregate_rows(reproduction):
    with criterion(2, "aggregate mean/median rows within 0.5pp for clean columns"):
        # Most columns are clean (>= 40 checks: the check has teeth), and every
        # clean check matches; a failure lists the logged aggregate mismatches.
        counts = reproduction.aggregate_checks
        assert counts["clean_aggregate_matches"] == counts["clean_aggregate_checks"] >= 40, (
            counts, [m for m in reproduction.inconsistencies if m.kind == "aggregate"])

        aggregates = reproduction.report.aggregates
        expected = [
            ("Rainbow", MetricKind.HNS, "mean", 873.97),
            ("Rainbow", MetricKind.HNS, "median", 230.99),
            ("Rainbow", MetricKind.HWRNS, "mean", 28.39),
            ("GDI-H3", MetricKind.HWRNS, "mean", 154.27),
            ("Agent57", MetricKind.HWRNS, "mean", 125.92),
        ]
        for algo, kind, stat, want in expected:
            got = getattr(aggregates[algo][kind], stat) * 100.0
            assert abs(got - want) <= 0.5, (algo, kind, stat, got, want)


def test_c3_hwrb_counts(reproduction):
    with criterion(3, "breakthrough counts exact; NGU conflict logged"):
        expected = {
            "Rainbow": 4, "IMPALA": 3, "LASER": 7, "R2D2": 15, "Agent57": 18,
            "MuZero": 19, "DreamerV2": 3, "SimPLe": 0, "Go-Explore": 15,
            "Muesli": 5, "GDI-I3": 17, "GDI-H3": 22,
        }
        for algo, count in expected.items():
            assert reproduction.hwrb[algo]["recomputed"] == count, algo

        # NGU: 8 in the hwrns family, 9 in the saber family; the recomputed
        # value is accepted and the disagreement is logged.
        ngu = reproduction.hwrb["NGU"]
        assert ngu["recomputed"] == 8
        assert ngu["printed:hwrns-sota-10bplus-model-free"] == 8
        assert any(m.kind == "hwrb" and m.algorithm == "NGU"
                   and m.printed == "9" for m in reproduction.inconsistencies)


def test_c4_learning_efficiency(reproduction):
    with criterion(4, "learning efficiency to 3 significant figures"):
        aggregates = reproduction.report.aggregates
        expected = [
            ("Rainbow", MetricKind.HNS, "4.37E-08"),
            ("IMPALA", MetricKind.HNS, "4.79E-08"),
            ("LASER", MetricKind.HNS, "8.71E-08"),
            ("Agent57", MetricKind.HWRNS, "1.26E-11"),
        ]
        for algo, kind, want in expected:
            got = format_efficiency(aggregates[algo][kind].efficiency_mean)
            assert got == want, (algo, kind, got, want)


def test_c5_game_time():
    with criterion(5, "game time from the frame-count formula"):
        assert game_time_days(200_000_000) == pytest.approx(38.58, abs=0.01)
        # the formula value for 100B frames; prose that rounds it to 19250
        # days is a recorded deviation, not a target
        assert game_time_days(100_000_000_000) == pytest.approx(19290.12, abs=0.01)


def test_c6_property_suites(registry):
    with criterion(6, "property suites (anchors, caps, oracles, episode sums)"):
        # normalization anchor identities, exactly, for all 57 baselines
        for rec in registry:
            assert hns(rec.random, rec).value == 0.0
            assert hns(rec.human_average, rec).value == 1.0
            assert hwrns(rec.random, rec).value == 0.0
            assert hwrns(rec.human_world_record, rec).value == 1.0

        rng = random.Random(57_000)

        # cap idempotence and ranges, both modes
        for _ in range(1000):
            ratio = rng.uniform(-3.0, 4.0)
            h = chns(MetricValue(ratio, MetricKind.HNS))
            assert 0.0 <= h.value <= 1.0 and chns(h) == h
            w = MetricValue(ratio, MetricKind.HWRNS)
            floor = saber(w, CapMode.SPEC_FLOOR)
            compat = saber(w, CapMode.TABLE_COMPAT)
            assert 0.0 <= floor.value <= 2.0 and compat.value <= 2.0
            assert saber(floor, CapMode.SPEC_FLOOR) == floor
            assert saber(compat, CapMode.TABLE_COMPAT) == compat
            if ratio >= 0:
                assert floor.value == compat.value

        # argmax invariance of per-game leaders under normalization
        baselines = list(registry)
        for _ in range(250):
            rec = rng.choice(baselines)
            raws = {f"algo{i}": rng.choice([rng.uniform(rec.random, 2e6),
                                            rng.uniform(rec.random, 1e3)])
                    for i in range(rng.randint(2, 6))}
            if rng.random() < 0.3:  # force ties sometimes
                raws["algo_tie"] = max(raws.values())
            best = leaders(raws)
            assert leaders({a: hns(v, rec).value for a, v in raws.items()}) == best
            assert leaders({a: hwrns(v, rec).value for a, v in raws.items()}) == best

        # median and breakthrough count vs a sort/scan oracle, 1000 columns
        for _ in range(1000):
            size = rng.randint(1, 12)
            games = rng.sample(CANONICAL_GAMES, size)
            values = [round(rng.uniform(-2, 3), 6) for _ in range(size)]
            col = MetricColumn(
                "a", MetricKind.HWRNS,
                {g: MetricValue(v, MetricKind.HWRNS)
                 for g, v in zip(games, values)})
            ordered = sorted(values)
            mid = len(ordered) // 2
            oracle_median = (ordered[mid] if len(ordered) % 2
                             else (ordered[mid - 1] + ordered[mid]) / 2)
            row = aggregate(col, 1)
            assert row.median == pytest.approx(oracle_median)
            assert row.hwrb_count == sum(1 for v in values if v >= 1.0)

        # episode return vs brute-force reward sum, 1000 random logs;
        # no episode ever exceeds the frame cap
        for _ in range(1000):
            steps = [StepEvent(
                reward=round(rng.uniform(-10, 10), 3),
                lives=1,
                game_over=False,
                env_frames=rng.choice([1, 4, 4, 7000, 50000]),
            ) for _ in range(rng.randint(1, 80))]
            steps.append(StepEvent(0.0, 0, True, 4))
            summary = accumulate_episode(steps)
            expected_sum, frames = 0.0, 0
            for s in steps:
                if frames + s.env_frames > MAX_EPISODE_FRAMES:
                    break
                frames += s.env_frames
                expected_sum += s.reward
                if s.game_over:
                    break
            assert summary.episode_return == pytest.approx(expected_sum)
            assert summary.env_frames_used == frames
            assert summary.env_frames_used <= MAX_EPISODE_FRAMES

        # sliding-window training score vs brute force
        for _ in range(300):
            n = rng.randint(1, 40)
            returns = [round(rng.uniform(-100, 900), 2) for _ in range(n)]
            k = rng.randint(1, n)
            oracle = [sum(returns[i:i + k]) / k for i in range(n - k + 1)]
            result = training_score(returns, k)
            assert result.series == pytest.approx(oracle)
            assert result.final == pytest.approx(oracle[-1])


def _synthetic_ledger(total_frames: int) -> RunLedger:
    full, remainder = divmod(total_frames, MAX_EPISODE_FRAMES)
    episodes = [EpisodeSummary(100.0, MAX_EPISODE_FRAMES, "frame_cap")
                for _ in range(full)]
    if remainder:
        episodes.append(EpisodeSummary(100.0, remainder, "game_over"))
    return RunLedger(tuple(episodes), total_frames, averaging_k=32)


def _check(total_frames: int, action_set: int = FULL_ACTION_SET):
    ledger = _synthetic_ledger(total_frames)
    return check_conformance(ledger.total_env_frames, action_set, DEFAULT_FRAME_BUDGET)


def test_c7_protocol_conformance_fixtures(tmp_path, capsys):
    with criterion(7, "protocol conformance fixtures (200M pass, 10B and "
                      "4-action violations)"):
        conforming = _check(200_000_000)
        assert conforming.conforming and conforming.violations == ()

        over_budget = _check(10_000_000_000)
        assert not over_budget.conforming
        assert [v.code for v in over_budget.violations] == ["budget_exceeded"]

        reduced = _check(200_000_000, action_set=4)
        assert not reduced.conforming
        assert [v.code for v in reduced.violations] == ["reduced_action_set"]

        # same verdicts through the CLI on a generated 200M-frame log
        from hwrbench.cli import main

        lines = []
        for _ in range(1851):  # 1851 x 108000 frames, capped episodes
            lines += ["0 1 0 36000"] * 3 + ["---"]
        lines += ["0 1 0 46000", "0 0 1 46000"]  # +92000, game over
        log = tmp_path / "train-200m.log"
        log.write_text("\n".join(lines) + "\n", encoding="utf-8")

        assert main(["protocol-check", "--log", str(log), "--k", "32"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_env_frames"] == 200_000_000
        assert payload["conforming"] is True

        assert main(["protocol-check", "--log", str(log), "--action-set", "4"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [v["code"] for v in payload["violations"]] == ["reduced_action_set"]
