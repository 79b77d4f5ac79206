import argparse
import importlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import hwrbench
from hwrbench.cli import build_parser, main
from hwrbench.games import data_path


SRC = str(Path(hwrbench.__file__).parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_log(tmp_path, text, name="episodes.log"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestScore:
    def test_alien_example(self, capsys):
        code, out, _ = run(capsys, "score", "--game", "alien",
                           "--score", "9491.7", "--frames", "2e8")
        assert code == 0
        assert "hns_pct: 134.26" in out
        assert "hwrns_pct: 3.68" in out
        assert "saber_pct: 3.68" in out
        assert "hwrb: False" in out
        assert "game_time_days: 38.58" in out

    def test_boxing_breakthrough(self, capsys):
        code, out, _ = run(capsys, "score", "--game", "boxing", "--score", "100",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["hns_pct"] == "832.50"
        assert payload["hwrns_pct"] == "100.00"
        assert payload["hwrb"] is True

    def test_random_anchor_all_zero(self, capsys):
        code, out, _ = run(capsys, "score", "--game", "pong", "--score", "-20.7",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["hns_pct"] == payload["hwrns_pct"] == "0.00"

    def test_unknown_game_is_data_error(self, capsys):
        code, out, err = run(capsys, "score", "--game", "foo", "--score", "1")
        assert code == 1
        assert json.loads(err)["error"] == "UnknownGameError"
        assert out == ""

    def test_cap_mode_flag(self, capsys):
        _, out, _ = run(capsys, "score", "--game", "skiing", "--score", "-29970.32",
                        "--cap-mode", "table-compat", "--format", "json")
        assert json.loads(out)["saber_pct"] == "-93.10"
        _, out, _ = run(capsys, "score", "--game", "skiing", "--score", "-29970.32",
                        "--format", "json")
        assert json.loads(out)["saber_pct"] == "0.00"

    def test_cap_mode_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("HWRBENCH_CAP_MODE", "table-compat")
        _, out, _ = run(capsys, "score", "--game", "skiing", "--score", "-29970.32",
                        "--format", "json")
        assert json.loads(out)["saber_pct"] == "-93.10"


# Each verb registers exactly the flags that change its output.
VERB_OPTIONS = {
    "validate": {"--baselines", "--dataset"},
    "score": {"--baselines", "--cap-mode", "--format", "--game", "--score", "--frames"},
    "aggregate": {"--baselines", "--dataset", "--cap-mode", "--format", "--out"},
    "report": {"--baselines", "--dataset", "--cap-mode", "--format", "--out",
               "--metric", "--algorithms"},
    "protocol-check": {"--log", "--k", "--budget", "--action-set"},
    "compare": {"--baselines", "--dataset"},
    "reproduce": {"--baselines", "--out"},
}
FORMATS = {"score": ("table", "json"), "aggregate": ("table", "json"),
           "report": ("table", "csv")}
VERB_ARGV = {
    "validate": ["validate"],
    "score": ["score", "--game", "alien", "--score", "1"],
    "aggregate": ["aggregate"],
    "report": ["report"],
    "compare": ["compare", "Rainbow", "LASER"],
}


def verb_parsers():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


class TestSurface:
    def test_option_sets(self):
        parsers = verb_parsers()
        options = {verb: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
                   for verb, p in parsers.items()}
        assert options == VERB_OPTIONS
        formats = {verb: tuple(a.choices) for verb, p in parsers.items()
                   for a in p._actions if "--format" in a.option_strings}
        assert formats == FORMATS

    @pytest.mark.parametrize("verb, flag, value", [
        ("validate", "--cap-mode", "table-compat"), ("validate", "--format", "json"),
        ("validate", "--out", None), ("compare", "--cap-mode", "table-compat"),
        ("compare", "--format", "json"), ("compare", "--out", None), ("score", "--out", None),
        ("score", "--format", "csv"), ("aggregate", "--format", "csv"),
        ("report", "--format", "json"),
    ])
    def test_removed_flag_or_format_is_usage_error(self, capsys, tmp_path, verb, flag, value):
        out_file = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as exc:
            main([*VERB_ARGV[verb], flag, value or str(out_file)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert not out_file.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--score", "nan"), ("--score", "inf"), ("--score", "abc"),
        ("--frames", "2.5"), ("--frames", "inf"),
    ])
    def test_bad_score_values_are_usage_errors(self, capsys, flag, value):
        argv = ["score", "--game", "alien", "--score", "1", "--frames", "2e8"]
        argv[argv.index(flag) + 1] = value
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err


class TestDeferredImports:
    # Prints the hwrbench modules loaded after running the verb in argv, and
    # ``decimal`` or ``statistics`` if either is loaded.
    CHILD = ("import sys\n"
             "from hwrbench.cli import main\n"
             "code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
             "print(*sorted(m for m in sys.modules if m.startswith('hwrbench.') "
             "or m in ('decimal', 'statistics')), file=sys.stderr)\n"
             "sys.exit(code)\n")
    DEFERRED = {"datasets", "protocol", "report", "aggregate", "reproduce"}
    # No verb needs these; importing them costs milliseconds of start-up.
    SLOW = {"decimal", "statistics"}
    TABLES = {"datasets", "report", "aggregate"}
    TRACED = {"evaluate": "report", "render_table": "report", "report_to_json": "report",
              "load_all_bundled": "datasets"}

    @pytest.mark.parametrize("argv, loaded", [
        ([], set()),
        (VERB_ARGV["score"], set()),
        (VERB_ARGV["validate"], {"datasets"}),
        (VERB_ARGV["aggregate"], TABLES),
        (VERB_ARGV["report"], TABLES),
        (VERB_ARGV["compare"], TABLES),
        (["protocol-check", "--log", "{log}"], {"protocol"}),
        (["reproduce", "--out", "{out}"], TABLES | {"reproduce"}),
    ], ids=["import", "score", "validate", "aggregate", "report", "compare", "protocol-check",
            "reproduce"])
    def test_verb_loads_only_what_it_runs(self, tmp_path, argv, loaded):
        log = write_log(tmp_path, TestProtocolCheck.CONFORMING)
        argv = [a.format(log=log, out=tmp_path / "repro") for a in argv]
        result = subprocess.run([sys.executable, "-c", self.CHILD, *argv],
                                capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
        assert result.returncode == 0, result.stderr
        modules = {m.removeprefix("hwrbench.") for m in result.stderr.splitlines()[-1].split()}
        assert modules & self.DEFERRED == loaded
        assert not modules & self.SLOW

    def test_traced_names_resolve_on_first_use(self):
        import hwrbench.cli as cli
        for name, module in self.TRACED.items():
            assert getattr(cli, name) is getattr(importlib.import_module(f"hwrbench.{module}"),
                                                 name)
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            cli.nope

    @pytest.mark.parametrize("argv, calls", [
        (["aggregate", "--format", "json"], ["load_all_bundled", "evaluate", "report_to_json"]),
        (["report"], ["load_all_bundled", "evaluate", "render_table"]),
        (["compare", "Rainbow", "LASER"], ["load_all_bundled", "evaluate"]),
    ], ids=["aggregate", "report", "compare"])
    def test_verbs_call_through_the_module(self, capsys, monkeypatch, argv, calls):
        import hwrbench.cli as cli
        seen = []
        for name in self.TRACED:
            def wrapped(*args, _fn=getattr(cli, name), _name=name, **kwargs):
                seen.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, wrapped)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert seen == calls


class TestEnvironment:
    @pytest.mark.parametrize("var, value, argv", [
        ("HWRBENCH_K", "x", ["protocol-check", "--log", "missing.log"]),
        ("HWRBENCH_BUDGET", "2.5", ["protocol-check", "--log", "missing.log"]),
        ("HWRBENCH_CAP_MODE", "bogus", VERB_ARGV["score"]),
        ("HWRBENCH_FORMAT", "csv", VERB_ARGV["score"]),
        ("HWRBENCH_FORMAT", "json", VERB_ARGV["report"]),
        ("HWRBENCH_K", "0", ["protocol-check", "--log", "missing.log"]),
        ("HWRBENCH_BUDGET", "-5", ["protocol-check", "--log", "missing.log"]),
        ("HWRBENCH_ACTION_SET", "-3", ["protocol-check", "--log", "missing.log"]),
    ])
    def test_bad_value_is_usage_error(self, capsys, monkeypatch, var, value, argv):
        monkeypatch.setenv(var, value)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        flag = "--" + var.removeprefix("HWRBENCH_").lower().replace("_", "-")
        assert f"argument {flag}: invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["validate", "score"])
    def test_other_verbs_ignore_bad_k(self, capsys, monkeypatch, verb):
        monkeypatch.setenv("HWRBENCH_K", "x")
        code, out, _ = run(capsys, *VERB_ARGV[verb])
        assert code == 0 and out

    def test_flag_wins_over_bad_value(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("HWRBENCH_K", "x")
        log = write_log(tmp_path, TestProtocolCheck.CONFORMING)
        code, out, _ = run(capsys, "protocol-check", "--log", log, "--k", "2")
        assert code == 0
        assert json.loads(out)["training_score"] == 3.5

    def test_dataset_flag_replaces_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("HWRBENCH_DATASET", "sota-other")
        _, out, _ = run(capsys, "validate", "--dataset", "sota-model-based")
        assert [l.split(":")[0] for l in out.splitlines()[1:]] == [
            "dataset sota-model-based"]
        _, out, _ = run(capsys, "validate")
        assert [l.split(":")[0] for l in out.splitlines()[1:]] == ["dataset sota-other"]

    def test_out_variable_names_a_file_not_the_reproduce_directory(
            self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("HWRBENCH_OUT", "o.txt")
        code, out, _ = run(capsys, "reproduce")
        assert code == 0 and out.endswith("under reproduce-out/\n")
        assert (tmp_path / "reproduce-out" / "summary.json").is_file()
        assert not (tmp_path / "o.txt").exists()
        code, out, _ = run(capsys, "aggregate")
        assert code == 0 and out == ""
        assert (tmp_path / "o.txt").is_file()


class TestUsageErrors:
    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["score", "--game", "alien", "--score", "1", "--bogus"])
        assert exc.value.code == 2

    def test_unknown_verb_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestValidate:
    def test_bundled_data_validates(self, capsys):
        code, out, _ = run(capsys, "validate")
        assert code == 0
        assert "57 games OK" in out

    def test_bad_baselines_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "game,random,human_average,human_world_record,source_tag\n"
            "alien,10,5,251916,x\n", encoding="utf-8")
        code, _, err = run(capsys, "validate", "--baselines", str(path))
        assert code == 1
        assert json.loads(err)["error"] == "ValidationError"


    def test_non_finite_baseline_exit_1(self, capsys, tmp_path):
        lines = data_path("baselines.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[1].startswith("alien,")
        lines[1] = "alien,nan," + lines[1].split(",", 2)[2]
        path = tmp_path / "nan.csv"
        path.write_text("".join(lines), encoding="utf-8")
        code, out, err = run(capsys, "validate", "--baselines", str(path))
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["error"] == "ValidationError"
        assert error["detail"] == f"{path}:2: alien: random must be finite, got nan"


class TestReport:
    def test_hns_table_contains_rainbow_alien_cell(self, capsys):
        code, out, _ = run(capsys, "report", "--metric", "hns",
                           "--dataset", "sota-200m-model-free", "--format", "csv")
        assert code == 0
        alien = next(l for l in out.splitlines() if l.startswith("alien"))
        cells = alien.split(",")
        assert cells[1] == "9491.7" and cells[2] == "134.26"

    def test_leader_marks_boxing_tie(self, capsys):
        _, out, _ = run(capsys, "report", "--metric", "hns",
                        "--dataset", "sota-200m-model-free", "--format", "csv",
                        "--algorithms", "Rainbow", "LASER", "GDI-H3")
        boxing = next(l for l in out.splitlines() if l.startswith("boxing"))
        assert boxing.count("100*") == 2  # LASER and GDI-H3, not Rainbow

    def test_unknown_algorithms_are_data_errors(self, capsys):
        code, out, err = run(capsys, "report", "--algorithms", "Rainbow", "Nope", "Zip")
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["error"] == "ValidationError"
        assert error["detail"] == "algorithms not in the report: Nope, Zip"

    def test_repeated_algorithm_is_data_error(self, capsys):
        code, out, err = run(capsys, "report", "--algorithms", "Rainbow", "LASER", "Rainbow")
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["error"] == "ValidationError"
        assert error["detail"] == "algorithms repeated in the layout: Rainbow"

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, out, _ = run(capsys, "report", "--format", "csv",
                           "--out", str(out_path))
        assert code == 0 and out == ""
        assert out_path.read_text(encoding="utf-8").startswith("game,")


class TestAggregate:
    def test_json_aggregates(self, capsys):
        code, out, _ = run(capsys, "aggregate", "--format", "json",
                           "--cap-mode", "table-compat")
        assert code == 0
        payload = json.loads(out)
        rainbow = payload["aggregates"]["Rainbow"]
        assert rainbow["hns"]["mean"] == pytest.approx(8.7397, abs=5e-4)
        assert rainbow["hwrns"]["hwrb"] == 4

    def test_text_aggregates(self, capsys):
        code, out, _ = run(capsys, "aggregate", "--dataset", "sota-other")
        assert code == 0
        assert "Muesli" in out and "Go-Explore" in out and "hwrb" in out


class TestCompare:
    def test_leader_diff(self, capsys):
        code, out, _ = run(capsys, "compare", "Rainbow", "LASER",
                           "--dataset", "sota-200m-model-free")
        assert code == 0
        payload = json.loads(out)
        assert payload["games_compared"] == 57
        assert payload["Rainbow"]["wins"] + payload["LASER"]["wins"] + \
            len(payload["ties"]) == 57
        assert "pong" in payload["LASER"]["games"]  # 21 beats 20.9
        assert "amidar" in payload["Rainbow"]["games"]

    def test_ties_reported(self, capsys):
        _, out, _ = run(capsys, "compare", "LASER", "GDI-H3",
                        "--dataset", "sota-200m-model-free")
        payload = json.loads(out)
        assert "boxing" in payload["ties"] and "pong" in payload["ties"]

    def test_missing_algorithm_is_data_error(self, capsys):
        code, _, err = run(capsys, "compare", "Rainbow", "NotAnAlgo")
        assert code == 1
        assert json.loads(err)["error"] == "BenchmarkError"

    def test_repeated_algorithm_is_data_error(self, capsys):
        code, out, err = run(capsys, "compare", "Rainbow", "Rainbow")
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["error"] == "BenchmarkError"
        assert error["detail"] == "algorithm 'Rainbow' compared with itself"


class TestProtocolCheck:
    CONFORMING = "1 3 0 4\n-2 3 0 4\n3 0 1 4\n---\n5 1 0 4\n0 0 1 4\n"

    def test_conforming_log(self, capsys, tmp_path):
        log = write_log(tmp_path, self.CONFORMING)
        code, out, _ = run(capsys, "protocol-check", "--log", log, "--k", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["conforming"] is True
        assert payload["episodes"] == 2
        assert payload["total_env_frames"] == 20
        assert payload["training_score"] == 3.5  # mean of [2.0, 5.0]

    def test_budget_violation(self, capsys, tmp_path):
        log = write_log(tmp_path, self.CONFORMING)
        code, out, _ = run(capsys, "protocol-check", "--log", log, "--budget", "16")
        assert code == 1
        payload = json.loads(out)
        assert [v["code"] for v in payload["violations"]] == ["budget_exceeded"]

    def test_reduced_action_set_violation(self, capsys, tmp_path):
        log = write_log(tmp_path, self.CONFORMING)
        code, out, _ = run(capsys, "protocol-check", "--log", log,
                           "--action-set", "4")
        assert code == 1
        payload = json.loads(out)
        assert [v["code"] for v in payload["violations"]] == ["reduced_action_set"]

    def test_malformed_log_is_data_error(self, capsys, tmp_path):
        log = write_log(tmp_path, "1 2 0 4\n")  # truncated episode
        code, _, err = run(capsys, "protocol-check", "--log", log)
        assert code == 1
        assert json.loads(err)["error"] == "MalformedLogError"

    @pytest.mark.parametrize("text, line, detail", [
        ("1 3 0 4\n0 0 1 4\n---\n2 3 2 4\n0 0 1 4\n", 4, "game_over must be 0 or 1"),
        ("1 3 0 4\n1 3 0 108000\ninf 3 0 4\n", 3, "NaN or infinite reward"),
        ("1 3 0 4\n0 0 1 4\n5 0 0 4\n---\n", 3, "step after the game-over step"),
        ("1 2 0 4\n", "EOF", "episode stream ended after 4 frames"),
    ])
    def test_log_defects_are_data_errors_with_file_and_line(self, capsys, tmp_path,
                                                             text, line, detail):
        log = write_log(tmp_path, text)
        code, out, err = run(capsys, "protocol-check", "--log", log)
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["error"] == "MalformedLogError"
        assert error["detail"].startswith(f"{log}:{line}: {detail}")

    @pytest.mark.parametrize("flag, value", [
        ("--k", "0"), ("--k", "-1"), ("--budget", "-5"), ("--budget", "0"),
        ("--action-set", "-3"), ("--action-set", "0"),
    ])
    def test_nonpositive_flags_are_usage_errors(self, capsys, tmp_path, flag, value):
        log = write_log(tmp_path, self.CONFORMING)
        with pytest.raises(SystemExit) as exc:
            main(["protocol-check", "--log", log, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("distinct", [False, True], ids=["repeated", "distinct"])
    def test_memory_does_not_grow_with_episodes(self, capsys, tmp_path, distinct):
        # 20-step episodes; with distinct rewards every line is new, so the
        # bounded line memo fills up on both logs.
        def peak(episodes):
            lines = []
            for e in range(episodes):
                lines += [f"{f'{e}.{i}' if distinct else '1'} 3 0 4" for i in range(19)]
                lines += ["0 0 1 4", "---"]
            log = write_log(tmp_path, "\n".join(lines) + "\n")
            tracemalloc.start()
            try:
                code, out, _ = run(capsys, "protocol-check", "--log", log, "--k", "5")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 0 and json.loads(out)["episodes"] == episodes
            return peak

        peak(300)  # a first run also loads modules and fills interpreter caches
        small, large = peak(300), peak(3000)
        # A summary and a return kept per episode would add about 250 KB.
        assert abs(large - small) < 64 * 1024, (small, large)

    def test_log_from_stdin(self, capsys, tmp_path):
        def check(text):
            return subprocess.run(
                [sys.executable, "-m", "hwrbench.cli", "protocol-check", "--log", "-",
                 "--k", "2"], input=text, capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
        _, expected, _ = run(capsys, "protocol-check", "--k", "2",
                             "--log", write_log(tmp_path, self.CONFORMING))
        result = check(self.CONFORMING)
        assert (result.returncode, result.stdout) == (0, expected)
        result = check(self.CONFORMING + "---\n1 3 0 4\n")
        assert result.returncode == 1
        assert json.loads(result.stderr)["detail"].startswith("<stdin>:EOF: ")


class TestReproduce:
    def test_writes_artifacts_and_is_idempotent(self, capsys, tmp_path):
        out_dir = tmp_path / "repro"
        code, out, _ = run(capsys, "reproduce", "--out", str(out_dir))
        assert code == 0
        assert "cells compared: 3174" in out
        log = json.loads((out_dir / "inconsistency_log.json").read_text())
        assert any(m["printed"] == "441/32" for m in log)
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["match_rate"] >= 0.95
        first = (out_dir / "summary.json").read_bytes()
        code, _, _ = run(capsys, "reproduce", "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "summary.json").read_bytes() == first
        assert (out_dir / "tables" / "hwrns-sota-200m-model-free.csv").exists()
        assert (out_dir / "figures" / "hwrb_vs_gametime.json").exists()

    @pytest.mark.parametrize("flag", [["--cap-mode", "spec-floor"], ["--format", "json"]])
    def test_mode_flags_are_usage_errors(self, capsys, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--out", str(tmp_path / "repro"), *flag])
        assert exc.value.code == 2
        assert not (tmp_path / "repro").exists()
