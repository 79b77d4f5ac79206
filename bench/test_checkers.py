"""Self-tests of the benchmark's checkers and log generator.

Each checker must accept the program's real output and reject the same
output with one small perturbation. Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import loggen
import oracle
from run import DATA, Children

SCORE = ("alien", "9491.7")


@pytest.fixture(scope="module")
def tables() -> oracle.Tables:
    return oracle.Tables(DATA)


@pytest.fixture(scope="module")
def small_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("log") / "train.log"
    return path, loggen.generate(path, seed=7, ks=[10], target_steps=20_000)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory, small_log) -> dict:
    """Real outputs of every verb the workloads run."""
    work = tmp_path_factory.mktemp("work")
    children = Children(work)
    log, truth = small_log
    argvs = {
        "score": ["score", "--game", SCORE[0], f"--score={SCORE[1]}", "--frames", "2e8"],
        "validate": ["validate"],
        "aggregate": ["aggregate", "--format", "json"],
        "report": ["report", "--metric", "hwrns", "--format", "csv"],
        "compare": ["compare", "Rainbow", "LASER"],
        "reproduce": ["reproduce", "--out", str(work / "out")],
        "protocol": ["protocol-check", "--log", str(log), "--k", str(truth.k)],
    }
    got = {}
    for name, argv in argvs.items():
        _wall, code, out = children.cli(*argv)
        assert code == 0, name
        got[name] = out
    got["reproduce_dir"] = work / "out"
    return got


def edit_line(text: str, n: int, old: str, new: str) -> str:
    lines = text.split("\n")
    assert old in lines[n]
    lines[n] = lines[n].replace(old, new, 1)
    return "\n".join(lines)


def bump_percent(cell: str) -> str:
    return f"{float(cell) + 0.01:.2f}"


# -- table verbs ---------------------------------------------------------------

def check_all(outputs, tables) -> dict[str, list[str]]:
    return {
        "score": oracle.check_score(outputs["score"], tables, SCORE[0], SCORE[1], 200_000_000),
        "validate": oracle.check_validate(outputs["validate"], tables),
        "aggregate": oracle.check_report_json(outputs["aggregate"], tables, "spec-floor"),
        "report": oracle.check_report_csv(outputs["report"], tables, "hwrns"),
        "compare": oracle.check_compare(outputs["compare"], tables, "Rainbow", "LASER"),
        "reproduce": oracle.check_reproduce_dir(
            outputs["reproduce_dir"], outputs["reproduce"], tables),
    }


def test_real_outputs_pass(outputs, tables, small_log):
    assert check_all(outputs, tables) == {k: [] for k in
                                          ("score", "validate", "aggregate", "report",
                                           "compare", "reproduce")}
    assert loggen.check_protocol(outputs["protocol"], small_log[1]) == []


def test_score_altered_percent_rejected(outputs, tables):
    lines = outputs["score"].splitlines()
    n = next(i for i, line in enumerate(lines) if line.startswith("hwrns_pct: "))
    cell = lines[n].split(": ")[1]
    bad = edit_line(outputs["score"], n, cell, bump_percent(cell))
    assert oracle.check_score(bad, tables, SCORE[0], SCORE[1], 200_000_000)


def test_validate_count_off_by_one_rejected(outputs, tables):
    bad = outputs["validate"].replace("285 records", "284 records")
    assert bad != outputs["validate"]
    assert oracle.check_validate(bad, tables)


def test_aggregate_perturbations_rejected(outputs, tables):
    base = json.loads(outputs["aggregate"])
    perturb = [
        lambda d: d["per_game"]["Rainbow"]["alien"].update(hwrns=d["per_game"]["Rainbow"]["alien"]["hwrns"] * (1 + 1e-6)),
        lambda d: d["aggregates"]["LASER"]["hwrns"].update(hwrb=d["aggregates"]["LASER"]["hwrns"]["hwrb"] + 1),
        lambda d: d["leaders"]["alien"].append("Rainbow"),
        lambda d: d["per_game"]["SimPLe"].popitem(),
        lambda d: d["aggregates"]["MuZero"]["saber"].update(median=d["aggregates"]["MuZero"]["saber"]["median"] + 0.001),
    ]
    for change in perturb:
        data = json.loads(outputs["aggregate"])
        change(data)
        assert data != base
        assert oracle.check_report_json(json.dumps(data), tables, "spec-floor")


def test_report_altered_cell_rejected(outputs, tables):
    lines = outputs["report"].split("\n")
    cells = lines[1].split(",")
    cells[2] = bump_percent(cells[2])
    bad = "\n".join([lines[0], ",".join(cells), *lines[2:]])
    assert oracle.check_report_csv(bad, tables, "hwrns")


def test_report_wrong_leader_mark_rejected(outputs, tables):
    lines = outputs["report"].split("\n")
    row = lines[1].split(",")
    marked = next(i for i, c in enumerate(row) if c.endswith("*"))
    unmarked = next(i for i in range(1, len(row), 2) if not row[i].endswith("*"))
    row[marked], row[unmarked] = row[marked][:-1], row[unmarked] + "*"
    bad = "\n".join([lines[0], ",".join(row), *lines[2:]])
    assert oracle.check_report_csv(bad, tables, "hwrns")


def test_compare_moved_game_rejected(outputs, tables):
    data = json.loads(outputs["compare"])
    winner = "Rainbow" if data["Rainbow"]["games"] else "LASER"
    data["ties"].append(data[winner]["games"].pop())
    data[winner]["wins"] -= 1
    assert oracle.check_compare(json.dumps(data), tables, "Rainbow", "LASER")


# -- reproduce -----------------------------------------------------------------

@pytest.fixture
def reproduce_copy(outputs, tmp_path) -> Path:
    copy = tmp_path / "out"
    shutil.copytree(outputs["reproduce_dir"], copy)
    return copy


def test_reproduce_altered_table_cell_rejected(outputs, tables, reproduce_copy):
    path = reproduce_copy / "tables" / "saber-sota-other.csv"
    lines = path.read_text(encoding="utf-8").split("\n")
    cells = lines[5].split(",")
    cells[4] = bump_percent(cells[4])
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")
    assert oracle.check_reproduce_dir(reproduce_copy, outputs["reproduce"], tables)


def test_reproduce_summary_count_rejected(outputs, tables, reproduce_copy):
    path = reproduce_copy / "summary.json"
    summary = json.loads(path.read_text(encoding="utf-8"))
    summary["matches"] += 1
    path.write_text(json.dumps(summary), encoding="utf-8")
    assert oracle.check_reproduce_dir(reproduce_copy, outputs["reproduce"], tables)


def test_reproduce_dropped_inconsistency_rejected(outputs, tables, reproduce_copy):
    path = reproduce_copy / "inconsistency_log.json"
    log = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(log[1:]), encoding="utf-8")
    assert oracle.check_reproduce_dir(reproduce_copy, outputs["reproduce"], tables)


def test_reproduce_missing_artifact_rejected(outputs, tables, reproduce_copy):
    (reproduce_copy / "figures" / "efficiency.json").unlink()
    assert oracle.check_reproduce_dir(reproduce_copy, outputs["reproduce"], tables)


def test_reproduce_stdout_count_rejected(outputs, tables):
    bad = outputs["reproduce"].replace("cells compared: ", "cells compared: 1", 1)
    assert oracle.check_reproduce_dir(outputs["reproduce_dir"], bad, tables)


# -- protocol-check and the log generator --------------------------------------

@pytest.mark.parametrize("change", [
    lambda d: d.update(episodes=d["episodes"] - 1),
    lambda d: d.update(total_env_frames=d["total_env_frames"] + 1),
    lambda d: d.update(anomalies=[]),
    lambda d: d.update(training_score=d["training_score"] + 0.5),
    lambda d: d.update(conforming=False),
])
def test_protocol_perturbations_rejected(outputs, small_log, change):
    data = json.loads(outputs["protocol"])
    change(data)
    assert loggen.check_protocol(json.dumps(data), small_log[1])


def test_episode_checker_rejects_drop_and_off_by_one(small_log):
    truth = small_log[1]

    class Summary:
        def __init__(self, i, frames_delta=0):
            self.episode_return = truth.returns[i]
            self.env_frames_used = truth.frames[i] + frames_delta
            self.terminated_by = truth.endings[i]
            self.anomalies = ("life_loss_termination",) if truth.anomalous[i] else ()

    exact = [Summary(i) for i in range(len(truth.returns))]
    assert loggen.check_episodes(exact, truth) == []
    assert loggen.check_episodes(exact[:3] + exact[4:], truth)
    assert loggen.check_episodes(exact[:3] + [Summary(3, 1)] + exact[4:], truth)


def test_log_holds_every_episode_kind(small_log):
    path, truth = small_log
    assert truth.endings.count("frame_cap") == loggen.CAP_EPISODES
    assert any(truth.anomalous)
    assert len(truth.returns) > truth.k
    episodes, steps = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line == "---":
            episodes.append(steps)
            steps = []
        elif line and not line.startswith("#"):
            steps.append([float(x) for x in line.split()])
    assert len(episodes) == len(truth.returns)
    # Life losses that do not end an episode: lives fall before the last step.
    mid_losses = sum(1 for ep in episodes
                     for before, after in zip(ep[:-2], ep[1:-1]) if after[1] < before[1])
    assert mid_losses > len(episodes)
    for ep, ending, frames in zip(episodes, truth.endings, truth.frames):
        logged = sum(step[3] for step in ep)
        if ending == "frame_cap":  # the log runs past the cap; the truth stops short of it
            assert logged > loggen.MAX_EPISODE_FRAMES >= frames
        else:
            assert logged == frames
    assert all(r * 2 == int(r * 2) for r in truth.returns)


def test_log_is_a_function_of_the_seed(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    ta = loggen.generate(a, 3, [10], target_steps=1000)
    tb = loggen.generate(b, 3, [10], target_steps=1000)
    loggen.generate(c, 4, [10], target_steps=1000)
    assert a.read_bytes() == b.read_bytes() != c.read_bytes()
    assert ta == tb
