import argparse
import ast
import atexit
import contextlib
import errno
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import re
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from helpers import run_cli, run_python
from hypothesis import strategies as st

import hwrbench
from hwrbench.cli import VERBS, _parse_flags, build_parser, main
from hwrbench.datasets import Dataset, RunRecord
from hwrbench.games import CANONICAL_GAMES, BaselineRegistry, data_path
from hwrbench.metrics import METRIC_KINDS, CapMode, MetricKind, MetricValue
from hwrbench.numfmt import format_percent
from hwrbench.report import evaluate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import loggen  # noqa: E402


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_log(tmp_path, text, name="episodes.log"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def check_stdin(data: bytes, *flags):
    """``protocol-check --log -`` in a fresh interpreter: (exit code, stdout, stderr)."""
    result = run_cli("protocol-check", "--log", "-", *flags, input=data)
    return result.returncode, result.stdout.decode(), result.stderr.decode()


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == hwrbench.__version__


def test_package_imports_only_itself_and_the_standard_library():
    # ``dependencies = []`` holds only while no module imports a third-party one.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = Path(__file__).parents[1]
    modules = sorted((root / "src" / "hwrbench").glob("*.py"))
    assert modules
    imported = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module)
    imported.update(hwrbench.cli._DEFERRED.values())  # imported by name on first use
    outside = {name for name in imported
               if name.split(".")[0] not in {"hwrbench", *sys.stdlib_module_names}}
    assert not outside
    with open(root / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


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


REGISTRY = BaselineRegistry.load()


@given(st.sampled_from(CANONICAL_GAMES), st.sampled_from(list(CapMode)), st.data())
def test_score_prints_the_cell_evaluate_computes(game, cap_mode, data):
    base = REGISTRY.lookup(game)
    raw = data.draw(st.one_of(
        st.sampled_from([base.random, base.human_average, base.human_world_record]),
        st.floats(min_value=-1e7, max_value=1e7, allow_nan=False)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["score", "--game", game, f"--score={raw!r}",
                     "--cap-mode", cap_mode.value, "--format", "json"]) == 0
    payload = json.loads(out.getvalue())
    report = evaluate([Dataset("d", (RunRecord("A", game, raw, 200_000_000),))],
                      REGISTRY, cap_mode)
    cell = report.cells["A"][game].metrics
    assert ([payload[f"{kind.value}_pct"] for kind in METRIC_KINDS]
            == [format_percent(cell[kind]) for kind in METRIC_KINDS])
    assert payload["hwrb"] == report.aggregates["A"][MetricKind.HWRNS].hwrb_count


def test_no_verb_builds_a_metric_value(capsys, monkeypatch, tmp_path):
    def refuse(cls, *args, **kwargs):
        raise AssertionError("a verb built a MetricValue")

    monkeypatch.setattr(MetricValue, "__new__", refuse)
    with pytest.raises(AssertionError):
        MetricValue(1.0, MetricKind.HNS)
    for argv in (["score", "--game", "alien", "--score", "9491.7", "--frames", "2e8"],
                 ["aggregate", "--format", "json"],
                 ["reproduce", "--out", str(tmp_path / "repro")]):
        assert run(capsys, *argv)[0] == 0, argv


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


def verb_options():
    return {verb: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for verb, p in verb_parsers().items()}


def table_options():
    return {verb: {name for name in arguments if name.startswith("--")}
            for verb, (_summary, _func, arguments) in VERBS.items()}


class TestSurface:
    def test_option_sets(self):
        assert verb_options() == table_options() == VERB_OPTIONS
        formats = {verb: tuple(a.choices) for verb, p in verb_parsers().items()
                   for a in p._actions if "--format" in a.option_strings}
        assert formats == FORMATS

    @pytest.mark.parametrize("verb", list(VERB_OPTIONS))
    def test_parser_states_the_table(self, verb):
        # The fast path reads the table, argparse the parser built from it.
        parser = verb_parsers()[verb]
        _summary, func, arguments = VERBS[verb]
        actions = {(a.option_strings or [a.dest])[0]: a for a in parser._actions
                   if a.dest != "help"}
        assert list(actions) == list(arguments)
        for name, options in arguments.items():
            action = actions[name]
            assert action.dest == name.lstrip("-").replace("-", "_")
            assert isinstance(action, argparse._AppendAction) == ("action" in options), name
            # argparse's value for each keyword the table leaves out
            unset = {"type": None, "choices": None, "default": None, "nargs": None,
                     "required": not name.startswith("--"), "help": None}
            for key, value in unset.items():
                assert getattr(action, key) == options.get(key, value), (name, key)
        assert parser.get_default("func") is func

    @pytest.mark.parametrize("verb, flag, value", [
        ("validate", "--cap-mode", "table-compat"), ("validate", "--format", "json"),
        ("validate", "--out", None), ("compare", "--cap-mode", "table-compat"),
        ("compare", "--format", "json"), ("compare", "--out", None), ("score", "--out", None),
        ("score", "--format", "csv"), ("aggregate", "--format", "csv"),
        ("report", "--format", "json"),
        # an empty ``--out`` names no file or directory
        ("aggregate", "--out", ""), ("report", "--out", ""), ("reproduce", "--out", ""),
    ])
    def test_removed_flag_or_format_is_usage_error(self, capsys, monkeypatch, tmp_path, verb,
                                                   flag, value):
        monkeypatch.chdir(tmp_path)
        value = "out.txt" if value is None else value
        for tail in ([flag, value], [f"{flag}={value}"]):
            with pytest.raises(SystemExit) as exc:
                main([*VERB_ARGV.get(verb, [verb]), *tail])
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""
            assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, value", [
        ("--score", "nan"), ("--score", "inf"), ("--score", "abc"),
        ("--frames", "2.5"), ("--frames", "inf"), ("--frames", "0"), ("--frames", "-5"),
        # float("22_7.8") is 227.8 and float("2_0e8") is 2e9.
        ("--score", "22_7.8"), ("--frames", "2_0e8"), ("--frames", "200_000_000"),
        # float() reads any Unicode digit: Arabic-Indic 10 and fullwidth 100.
        ("--score", "\u0661\u0660"), ("--frames", "\uff11\uff10\uff10"),
    ])
    def test_bad_score_values_are_usage_errors(self, capsys, flag, value):
        argv = ["score", "--game", "alien", "--score", "1", "--frames", "2e8"]
        argv[argv.index(flag) + 1] = value
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err


# One usage error per verb that the verb's own parser reports, besides an
# unknown flag, which the top-level parser reports.
VERB_USAGE_ERROR = {
    "validate": ["--dataset"], "score": ["--game", "alien"], "aggregate": ["--format", "csv"],
    "report": ["--metric", "zz"], "protocol-check": ["--k", "1"], "compare": ["A"],
    "reproduce": ["--out"],
}


def parse_outcome(parse, argv):
    """(exit code, stdout, stderr) of a parse that exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


# Help and usage errors of each verb, which ``main`` leaves to argparse.
HELP_AND_USAGE_ERRORS = {
    f"{verb}-{tail}": [verb, *{"help": ["-h"], "unknown-flag": ["--nope"],
                               "usage-error": VERB_USAGE_ERROR[verb]}[tail]]
    for verb in VERB_OPTIONS for tail in ("help", "unknown-flag", "usage-error")}


class TestHelpAndUsageErrorsGoThroughArgparse:
    """Help and usage errors, of each verb and of the top level, go through argparse."""

    @pytest.mark.parametrize("tail", ["help", "unknown-flag", "usage-error"])
    @pytest.mark.parametrize("verb", list(VERB_OPTIONS))
    def test_help_and_usage_errors_match_the_full_parser(self, verb, tail):
        code, out, err = parse_outcome(main, HELP_AND_USAGE_ERRORS[f"{verb}-{tail}"])
        if tail == "help":
            assert (code, err) == (0, "") and out.startswith(f"usage: hwrbench {verb} ")
        else:
            assert (code, out) == (2, "") and "error: " in err

    @pytest.mark.parametrize("argv", [["-h"], [], ["scor"], ["--nope"]],
                             ids=["help", "no-verb", "unknown-verb", "unknown-flag"])
    def test_top_level_lists_every_verb(self, argv):
        code, out, err = parse_outcome(main, argv)
        assert code == (0 if argv == ["-h"] else 2)
        assert "{" + ",".join(VERB_OPTIONS) + "}" in out + err


# Command lines that ``main`` must parse without argparse: the ones above,
# and those of each verb in the benchmark's workloads.
FAST_ARGV = [
    *VERB_ARGV.values(),
    ["score", "--game", "alien", "--score=-20.7", "--frames", "2e8"],
    ["aggregate", "--format", "json"],
    ["report", "--metric", "hwrns", "--format", "csv"],
    ["reproduce", "--out", "out"],
    ["protocol-check", "--log", "train.log", "--k", "100"],
    ["protocol-check", "--log", "-", "--k", "100"],  # a lone "-" is a value
]
REQUIRED = {"score": [["--game", "alien"], ["--score", "1"]], "compare": [["A"], ["B"]],
            "protocol-check": [["--log", "train.log"]]}
FLAGS = sorted({flag for flags in VERB_OPTIONS.values() for flag in flags})
VALUES = ["alien", "pong", "Rainbow", "LASER", "1", "9491.7", "-20.7", "2e8", "2.5", "0", "-5",
          "nan", "inf", "1_0", "\u0661\u0660", "\uff11\uff10\uff10", "table", "json", "csv",
          "hns", "hwrns", "spec-floor", "table-compat", "-", "", "-h", "--help", "--", "a=b"]


@st.composite
def command_lines(draw):
    """A verb, then flags (exact or abbreviated, ``=`` or space form) and loose values.

    The verb's own flags, its required arguments and one value a flag are the
    likelier draws, so that about one line in twenty is one the fast path reads.
    """
    verb = draw(st.sampled_from([*VERB_OPTIONS] * 3 + ["scor", "-h"]))
    own = sorted(VERB_OPTIONS.get(verb, FLAGS))
    value = st.sampled_from(VALUES) | st.text(max_size=3)
    pieces = list(draw(st.sampled_from([[], REQUIRED.get(verb, [])])))
    for flag in draw(st.lists(st.sampled_from(own * 4 + FLAGS), max_size=6)):
        if len(flag) > 3 and draw(st.integers(0, 9)) == 0:
            flag = flag[:draw(st.integers(3, len(flag) - 1))]  # an abbreviation
        values = draw(st.lists(value, min_size=1, max_size=draw(st.sampled_from([1, 1, 1, 3]))))
        pieces.append([f"{flag}={values[0]}"] if draw(st.booleans()) else [flag, *values])
    pieces += [[text] for text in draw(st.lists(value, max_size=draw(st.sampled_from([0, 2, 3]))))]
    return [verb, *itertools.chain.from_iterable(draw(st.permutations(pieces)))]


# Drawing a line takes many steps, and on a busy machine the first draws can
# trip the too_slow health check; they are not what the test times.
@settings(max_examples=1000, suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
def test_fast_parse_agrees_with_argparse(argv):
    args = _parse_flags(argv)
    if args is not None:  # then argparse must accept argv, with the same values
        assert vars(args) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", FAST_ARGV, ids=" ".join)
def test_plain_command_lines_take_the_fast_path(argv):
    args = _parse_flags(argv)
    assert args is not None
    assert vars(args) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["score", "--game", "alien", "--score", "-20.7"],  # a value that starts with ``-``
    ["score", "--game", "alien", "--sc", "1"], ["score", "--game", "alien", "--score", "1", "-h"],
    ["compare", "--", "A", "B"], ["compare", "A"],
    ["aggregate", "--format", "json", "--format", "table"], ["report", "--algorithms=A"],
    ["score", "--game", "alien", "--score", "\u0661"], ["validate", "--dataset"],
    # the flags that take a list: the table reader reads one-value flags only
    ["validate", "--dataset", "sota-other"], ["validate", "--dataset=sota-other"],
    ["report", "--algorithms", "Rainbow", "LASER"], *HELP_AND_USAGE_ERRORS.values(),
], ids=["negative", "abbreviation", "help", "double-dash", "positional-missing",
        "repeated", "nargs-equals", "non-ascii", "value-missing", "append", "append-equals",
        "nargs", *HELP_AND_USAGE_ERRORS])
def test_other_command_lines_are_left_to_argparse(argv):
    assert _parse_flags(argv) is None


# A command line with each verb's required arguments, so that only the flag
# under test can fail.
BASE_ARGV = {**VERB_ARGV, "protocol-check": ["protocol-check", "--log", "train.log"],
             "reproduce": ["reproduce"]}


@pytest.mark.parametrize("argv, argument", [
    *(([*BASE_ARGV[verb], f"{name}=--"], name)
      for verb, (_summary, _func, arguments) in VERBS.items()
      for name in arguments if name.startswith("--")),
    (["compare", "A", "--", "--"], "algorithm_b"),
], ids=" ".join)
def test_double_dash_value_is_a_usage_error(capsys, argv, argument):
    # argparse drops the ``--`` and stored an empty list, on which the verb
    # crashed (``Path([])``, an unhashable game) or, for ``--algorithms``,
    # printed every column.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"hwrbench {argv[0]}: error: argument {argument}: "
                        "expected one argument\n")


def test_readme_lists_each_verbs_flags():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", readme, re.MULTILINE)
    listed = {verb: set(re.findall(r"--[a-z-]+", flags)) for verb, flags in rows}
    assert listed == verb_options() == table_options()
    formats = {verb: re.findall(r"`--format \{([a-z,]+)\}`", flags) for verb, flags in rows}
    assert formats == {verb: [",".join(arguments["--format"]["choices"])] if "--format" in arguments
                       else [] for verb, (_summary, _func, arguments) in VERBS.items()}


def test_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"^## Library\n\n```python\n(.*?)^```$", readme,
                        re.MULTILINE | re.DOTALL).group(1)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(example, "README.md", "exec"), {})
    hns, cell, _aggregates = out.getvalue().splitlines()
    assert hns.startswith("1.34259") and float(cell) > 0


# Values a user might type by mistake: separators, the stdin name, the empty
# string, a missing file and a directory, besides valid ones.
FUZZ_VALUES = ["--", "-", "=", "", "missing.csv", "missing/", ".", "sota-other", "alien", "Rainbow",
               "LASER", "1", "-20.7", "2e8", "json", "csv", "hns", "table-compat",
               "99999999999999999999999"]  # above sys.maxsize


@st.composite
def fuzzed_command_lines(draw):
    """A verb, each of its arguments or not, a flag's value in either form,
    and perhaps a loose value."""
    verb = draw(st.sampled_from(list(VERBS)))
    value = st.sampled_from(FUZZ_VALUES)
    argv = [verb]
    for name in VERBS[verb][2]:
        if not name.startswith("--"):
            argv.append(draw(value))
        elif draw(st.booleans()):
            text = draw(value)
            argv += [f"{name}={text}"] if draw(st.booleans()) else [name, text]
    return argv + draw(st.lists(value, max_size=1))


@settings(max_examples=80, deadline=None)
@given(fuzzed_command_lines())
def test_no_command_line_crashes_main(tmp_path_factory, argv):
    # In an empty directory, with stdin closed: a verb succeeds or fails
    # (0 or 1), or the line is a usage error (exit 2); nothing else escapes.
    stdin = io.TextIOWrapper(io.BytesIO())
    stdin.close()
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("fuzz"))
    try:
        with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()),
              pytest.MonkeyPatch.context() as patch):
            patch.setattr(sys, "stdin", stdin)
            try:
                assert main(argv) in (0, 1)
            except SystemExit as exc:
                assert exc.code == 2
    finally:
        os.chdir(cwd)


class TestDeferredImports:
    # Prints the names of every module loaded after running the verb in argv,
    # or after ``main`` exits on help or a usage error.
    CHILD = ("import sys\n"
             "from hwrbench.cli import main\n"
             "try:\n"
             "    code = main(sys.argv[2:]) if sys.argv[1] == 'main' else 0\n"
             "finally:\n"
             "    print(*sorted(sys.modules), file=sys.stderr)\n"
             "sys.exit(code)\n")
    # ``json`` too, which no verb loads: ``numfmt.json_text`` writes their JSON;
    # and ``csv``, which only the verbs that read a CSV load.
    DEFERRED = {"datasets", "protocol", "report", "aggregate", "reproduce", "json", "csv", "_csv"}
    # No verb needs these; importing them costs milliseconds of start-up.
    SLOW = {"decimal", "statistics", "dataclasses", "inspect"}
    # The same for these, which this environment's ``site`` may preload;
    # ``python -S`` shows whether a verb imports them itself.
    SLOW_WITHOUT_SITE = {"typing", "importlib.resources", "dataclasses", "inspect"}
    # A valid command line is read without argparse, which would load these.
    ARGPARSE = {"argparse", "gettext", "locale"}
    CSV = {"csv", "_csv"}  # ``score`` reads the baselines
    TABLES = {"datasets", "report", "aggregate"} | CSV
    TRACED = {"evaluate": "report", "render_table": "report", "report_to_json": "report",
              "load_all_bundled": "datasets"}
    VERBS = pytest.mark.parametrize("argv, loaded", [
        ([], set()),
        (VERB_ARGV["score"], CSV),
        ([*VERB_ARGV["score"], "--format", "json"], CSV),
        (VERB_ARGV["validate"], TABLES),
        (VERB_ARGV["aggregate"], TABLES),
        (["aggregate", "--format", "json"], TABLES),
        (VERB_ARGV["report"], TABLES),
        (VERB_ARGV["compare"], TABLES),
        (["protocol-check", "--log", "{log}"], {"protocol"}),
        (["protocol-check", "--log", "-"], {"protocol"}),
        (["reproduce", "--out", "{out}"], TABLES | {"reproduce"}),
    ], ids=["import", "score", "score-json", "validate", "aggregate", "aggregate-json", "report",
            "compare", "protocol-check", "protocol-check-stdin", "reproduce"])

    def loaded_modules(self, tmp_path, argv, *python_flags) -> set[str]:
        # ``[]`` only imports the module.
        return self.child_modules(tmp_path, ["main", *argv] if argv else ["import"],
                                  python_flags, 0)

    def child_modules(self, tmp_path, child_argv, python_flags, code) -> set[str]:
        # The conforming log, at ``{log}`` and on stdin.
        log = write_log(tmp_path, TestProtocolCheck.CONFORMING)
        child_argv = [a.format(log=log, out=tmp_path / "repro") for a in child_argv]
        result = run_python(*python_flags, "-c", self.CHILD, *child_argv,
                            input=TestProtocolCheck.CONFORMING, text=True)
        assert result.returncode == code, result.stderr
        return set(result.stderr.splitlines()[-1].split())

    @VERBS
    def test_verb_loads_only_what_it_runs(self, tmp_path, argv, loaded):
        modules = self.loaded_modules(tmp_path, argv)
        assert {m.removeprefix("hwrbench.") for m in modules} & self.DEFERRED == loaded
        assert modules & self.SLOW == set()
        assert modules & self.ARGPARSE == set()

    @VERBS
    def test_verb_imports_no_slow_module_without_site(self, tmp_path, argv, loaded):
        modules = self.loaded_modules(tmp_path, argv, "-S")
        assert {m.removeprefix("hwrbench.") for m in modules} & self.DEFERRED == loaded
        assert modules & self.SLOW_WITHOUT_SITE == set()
        assert modules & self.ARGPARSE == set()

    @pytest.mark.parametrize("python_flags", [(), ("-S",)], ids=["site", "no-site"])
    @pytest.mark.parametrize("argv, code", [
        ([], 2), (["-h"], 0), (["score", "-h"], 0),
        (["score", "--game", "alien"], 2), (["report", "--metric", "zz"], 2),
    ], ids=["no-verb", "help", "verb-help", "missing-flag", "bad-choice"])
    def test_help_and_usage_errors_go_through_argparse(self, tmp_path, argv, code,
                                                        python_flags):
        modules = self.child_modules(tmp_path, ["main", *argv], python_flags, code)
        assert self.ARGPARSE <= modules

    # The package re-exports nothing, so importing a module loads only that
    # module and what it imports itself.
    @pytest.mark.parametrize("module, loaded", [
        ("hwrbench", {"hwrbench"}),
        ("hwrbench.protocol", {"hwrbench", "hwrbench.errors", "hwrbench.protocol"}),
        ("hwrbench.cli", {"hwrbench", "hwrbench.cli", "hwrbench.errors", "hwrbench.games",
                          "hwrbench.metrics", "hwrbench.numfmt"}),
    ])
    def test_import_loads_only_what_the_module_imports(self, module, loaded):
        child = ("import sys\n"
                 "before = set(sys.modules)\n"
                 "__import__(sys.argv[1])\n"
                 "print(*sorted(set(sys.modules) - before))\n")
        result = run_python("-c", child, module, text=True)
        assert result.returncode == 0, result.stderr
        assert {m for m in result.stdout.split()
                if m.split(".")[0] in ("hwrbench", "csv")} == loaded

    def test_traced_names_resolve_on_first_use(self):
        import hwrbench.cli as cli
        for name, module in self.TRACED.items():
            assert getattr(cli, name) is getattr(importlib.import_module(f"hwrbench.{module}"),
                                                 name)
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            cli.nope

    @pytest.mark.parametrize("argv, calls", [
        (["validate"], ["load_all_bundled", "evaluate"]),
        (["aggregate", "--format", "json"], ["load_all_bundled", "evaluate", "report_to_json"]),
        (["report"], ["load_all_bundled", "evaluate", "render_table"]),
        (["compare", "Rainbow", "LASER"], ["load_all_bundled", "evaluate"]),
    ], ids=["validate", "aggregate", "report", "compare"])
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


# Flags are the only configuration: these variables once set defaults.
FORMER_VARIABLES = {
    "HWRBENCH_K": "x", "HWRBENCH_BUDGET": "2.5", "HWRBENCH_CAP_MODE": "bogus",
    "HWRBENCH_FORMAT": "csv", "HWRBENCH_DATASET": "nope", "HWRBENCH_OUT": "o.txt",
    "HWRBENCH_BASELINES": "/missing", "HWRBENCH_ACTION_SET": "-3",
}


def exit_code_and_stdout(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    *VERB_ARGV.values(), ["protocol-check", "--log", "episodes.log"],
], ids=[*VERB_ARGV, "protocol-check"])
def test_environment_changes_no_verb(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    write_log(tmp_path, TestProtocolCheck.CONFORMING)
    clean = exit_code_and_stdout(capsys, argv)
    for var, value in FORMER_VARIABLES.items():
        monkeypatch.setenv(var, value)
    assert exit_code_and_stdout(capsys, argv) == clean
    assert clean[0] == 0 and not (tmp_path / "o.txt").exists()


class TestUsageErrors:
    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["score", "--game", "alien", "--score", "1", "--bogus"])
        assert exc.value.code == 2

    def test_unknown_verb_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_algorithms_without_names_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--algorithms"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


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

    @pytest.mark.parametrize("cell, detail", [
        (b"\xff", "'utf-8' codec can't decode byte 0xff in position 6: invalid start byte"),
        (b"9" * 131_073, "field larger than field limit (131072)"),
    ], ids=["not-utf8", "over-field-limit"])
    def test_unreadable_baselines_exit_1(self, capsys, tmp_path, cell, detail):
        # Once a decode error with no file or line, and a csv traceback.
        data = data_path("baselines.csv").read_bytes()
        path = tmp_path / "baselines.csv"
        path.write_bytes(data.replace(b"alien,227.8,", b"alien," + cell + b",", 1))
        code, out, err = run(capsys, "validate", "--baselines", str(path))
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "ValidationError", "detail": f"{path}:2: {detail}"}

    @pytest.mark.parametrize("case, detail", [
        ("duplicate", "duplicate cell ('Muesli', 'alien') across datasets "
                      "(second occurrence in 'sota-other')"),
        ("frames", "A: inconsistent frame counts 100 vs 200"),
        ("overflow", "Muesli/alien: normalized score overflows"),
    ], ids=["duplicate", "frames", "overflow"])
    def test_rejects_what_aggregate_rejects(self, capsys, tmp_path, case, detail):
        # Checks that span records and datasets run in evaluate, which validate calls.
        baselines = data_path("baselines.csv")
        if case == "duplicate":
            flags = ["--dataset", "sota-other", "--dataset", "sota-other"]
        elif case == "frames":
            flags = []
            for name, row in (("a", "A,alien,1,100,100"), ("b", "A,pong,1,200,200")):
                path = tmp_path / f"{name}.csv"
                path.write_text(f"algorithm,game,score,frames,scale_label\n{row}\n",
                                encoding="utf-8")
                flags += ["--dataset", str(path)]
        else:
            baselines = tiny_baselines(tmp_path)
            flags = ["--dataset", "sota-other", "--baselines", baselines]
        code, _, err = run(capsys, "aggregate", *flags)
        assert code == 1
        assert json.loads(err)["detail"] == detail
        code, out, err = run(capsys, "validate", *flags)
        assert (code, out) == (1, "")
        assert json.loads(err)["detail"] == detail


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


def crafted_baselines(tmp_path, rows: dict[str, str]) -> str:
    """The bundled baselines with each game in ``rows`` given that row."""
    lines = data_path("baselines.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    lines = [rows.get(line.split(",", 1)[0], line) for line in lines]
    path = tmp_path / "crafted.csv"
    path.write_text("".join(lines), encoding="utf-8")
    return str(path)


# Valid references: 139409 / 1e-305 overflows. A human average one point
# above random normalizes 1.7e308 to 1.7e308, finite, yet its percent is
# not, and two such cells overflowed fsum.
TINY = {"alien": "alien,0,1e-305,1e-305,x\n"}
NEAR = {"boxing": "boxing,0.1,1.1,100,x\n", "pong": "pong,-20.7,-19.7,21,x\n"}
HUGE = "huge.csv"  # three 1.7e308 cells, written by the test


def tiny_baselines(tmp_path) -> str:
    return crafted_baselines(tmp_path, TINY)


@pytest.mark.parametrize("argv, rows, detail", [
    (["score", "--game", "alien", "--score", "139409"], TINY, "alien"),
    (["aggregate", "--dataset", "sota-other"], TINY, "Muesli/alien"),
    (["score", "--game", "boxing", "--score", "1e308"], {}, "boxing"),
    (["aggregate", "--dataset", HUGE], {}, "Big/boxing"),
    *(([*verb, "--dataset", HUGE], NEAR, "Big/boxing") for verb in (
        ["validate"], ["aggregate"], ["report"],
        ["compare", "Big", "Rainbow", "--dataset", "sota-200m-model-free"])),
], ids=["score", "aggregate", "score-percent", "aggregate-percent", "validate-fsum",
        "aggregate-fsum", "report-fsum", "compare-fsum"])
def test_normalization_overflow_names_the_game(capsys, tmp_path, argv, rows, detail):
    (tmp_path / HUGE).write_text("algorithm,game,score,frames,scale_label\n" + "".join(
        f"Big,{game},1.7e308,200000000,200M\n" for game in ("boxing", "pong", "alien")),
        encoding="utf-8")
    baselines = crafted_baselines(tmp_path, rows)
    argv = [str(tmp_path / a) if a == HUGE else a for a in argv]
    code, out, err = run(capsys, *argv, "--baselines", baselines)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ValidationError",
                               "detail": f"{detail}: normalized score overflows"}


def child_outcome(tmp_path, argv, unbuffered, **stdout):
    """(exit code, stderr) of ``argv`` in a child with ``PYTHONUNBUFFERED`` set to
    ``unbuffered``: ``"1"``, or ``""``, which Python reads as unset."""
    result = run_cli(*argv, **stdout, cwd=tmp_path, env={"PYTHONUNBUFFERED": unbuffered})
    return result.returncode, result.stderr


def lost_stdout_outcomes(tmp_path, argv):
    """(exit code, stderr) of ``argv`` in a child whose stdout is lost three ways,
    each with stdout buffered and with ``PYTHONUNBUFFERED=1``."""
    # The reader has left before the verb writes: stdout is a pipe whose read
    # end is closed, so the outcome does not depend on timing as ``| head`` does.
    # No reader was ever there: fd 1 is closed (``>&-``), so ``sys.stdout`` is
    # None; with fd 0 closed too, ``os.pipe()`` in the child returns (0, 1).
    read, write = os.pipe()
    os.close(read)
    with os.fdopen(write, "wb") as reader_gone:
        return [child_outcome(tmp_path, argv, unbuffered, **stdout) for stdout in (
            {"stdout": reader_gone}, {"preexec_fn": lambda: os.close(1)},
            {"preexec_fn": lambda: (os.close(0), os.close(1))}) for unbuffered in ("", "1")]


@pytest.mark.parametrize("argv", [
    VERB_ARGV["score"], VERB_ARGV["validate"], ["aggregate", "--format", "json"],
    ["reproduce", "--out", "repro"], ["report", "--format", "csv"], VERB_ARGV["compare"],
    ["protocol-check", "--log", "episodes.log"],
], ids=["score", "validate", "aggregate-json", "reproduce", "report-csv", "compare",
        "protocol-check"])
def test_closed_stdout_exits_1_with_nothing_on_stderr(tmp_path, argv):
    write_log(tmp_path, TestProtocolCheck.CONFORMING)
    assert lost_stdout_outcomes(tmp_path, argv) == [(1, b"")] * 6


def test_data_error_with_lost_stdout_is_reported(tmp_path):
    # ``validate`` fails on the dataset before it prints, so nothing is lost.
    error = {"error": "FileNotFoundError",
             "detail": "[Errno 2] No such file or directory: 'missing.csv'"}
    outcomes = lost_stdout_outcomes(tmp_path, ["validate", "--dataset", "missing.csv"])
    assert [(code, json.loads(err)) for code, err in outcomes] == [(1, error)] * 6


@pytest.mark.parametrize("argv", [
    ["report", "--format", "csv"], ["aggregate", "--format", "json"],
], ids=["report-csv", "aggregate-json"])
def test_closed_stdout_with_out_file_exits_0(capsys, tmp_path, argv):
    # However stdout is lost, nothing meant for it is when the output goes to
    # ``--out``: the file holds what the verb prints in-process.
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert lost_stdout_outcomes(tmp_path, [*argv, "--out", "out.txt"]) == [(0, b"")] * 6
    assert (tmp_path / "out.txt").read_bytes() == printed.encode("utf-8")


@pytest.mark.parametrize("argv", [["-h"], ["score", "-h"], ["score"]],
                         ids=["help", "verb-help", "usage-error"])
def test_help_with_closed_stdout_prints_nothing(tmp_path, argv):
    # Help meant for stdout is dropped however stdout is lost, where argparse
    # would write it to stderr; a usage error goes to stderr. Buffered, help
    # fails to reach a reader that left at the flush; unbuffered, in argparse's
    # own write.
    outcomes = lost_stdout_outcomes(tmp_path, argv)
    if argv[-1] == "-h":
        assert outcomes == [(0, b"")] * 6
    else:
        assert [(code, err[:22]) for code, err in outcomes] == [(2, b"usage: hwrbench score ")] * 6


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", [
    VERB_ARGV["score"], ["reproduce", "--out", "repro"], ["-h"], ["score", "-h"],
], ids=["score", "reproduce", "help", "verb-help"])
def test_full_stdout_is_a_data_error(tmp_path, argv):
    # A write error other than a broken pipe is a data error, buffered or not,
    # and help still exits 0 with nothing on stderr.
    with open("/dev/full", "wb") as full:
        outcomes = [child_outcome(tmp_path, argv, unbuffered, stdout=full)
                    for unbuffered in ("", "1")]
    if argv[-1] == "-h":
        assert outcomes == [(0, b"")] * 2
    else:
        error = {"error": "OSError",
                 "detail": f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"}
        assert [(code, json.loads(err)) for code, err in outcomes] == [(1, error)] * 2


class TestExitPath:
    # ``main`` has ``atexit`` freeze the collector, so the interpreter's
    # exit-time collections skip every object still alive. This child
    # registers its own callback first, which therefore runs after that one,
    # and writes to stderr the freeze count at its start and the one it sees
    # at exit: some interpreters start with objects frozen (3.12.1 does).
    CHILD = ("import atexit, gc, os, sys\n"
             "start = gc.get_freeze_count()\n"
             "atexit.register(lambda: os.write(2, b'%d %d' % (start, gc.get_freeze_count())))\n"
             "from hwrbench.cli import main\n"
             "sys.exit(main(sys.argv[2:]) if sys.argv[1] == 'main' else 0)\n")

    @pytest.mark.parametrize("call_main", [False, True], ids=["import", "main"])
    def test_objects_alive_at_exit_are_frozen_only_after_main(self, call_main):
        child_argv = ["main", *VERB_ARGV["score"]] if call_main else ["import"]
        result = run_python("-c", self.CHILD, *child_argv)
        assert result.returncode == 0
        start, at_exit = map(int, result.stderr.split())
        assert at_exit > start if call_main else at_exit == start

    def test_main_neither_freezes_nor_disables_the_collector(self, capsys):
        before = gc.get_freeze_count(), gc.isenabled()
        assert main(VERB_ARGV["score"]) == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_repeated_calls_register_one_callback(self, capsys):
        assert main(VERB_ARGV["score"]) == 0
        callbacks = atexit._ncallbacks()
        for argv in VERB_ARGV.values():
            assert main(argv) == 0
        assert atexit._ncallbacks() == callbacks


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

    @pytest.mark.parametrize("name", ["algorithms", "games_compared", "ties"])
    def test_name_of_an_output_key_is_data_error(self, capsys, tmp_path, name):
        # ``name`` leads alien; as a key of the JSON its entry would be lost.
        path = tmp_path / "keys.csv"
        path.write_text("algorithm,game,score,frames,scale_label\n"
                        f"{name},alien,9000,200000000,200M\nB,alien,1000,200000000,200M\n",
                        encoding="utf-8")
        for argv in ([name, "B"], ["B", name]):
            code, out, err = run(capsys, "compare", *argv, "--dataset", str(path))
            assert (code, out) == (1, "")
            assert json.loads(err) == {"error": "BenchmarkError",
                                       "detail": f"algorithm {name!r} is a key of compare's output"}


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

    # sha256 of stdout, and the exit code, on the conforming log.
    @pytest.mark.parametrize("flags, code, digest", [
        (("--k", "2"), 0, "20c99bee605ee1d917f0d2cb0a7646814142574cb18eba66844ecc4e83f63192"),
        (("--budget", "1e2", "--action-set", "4"), 1,
         "b3790dd0860213eb84462eee42842a653f0014039658cefbbd10b881e7558532"),
    ], ids=["k-2", "budget-action-set"])
    def test_stdout_bytes_are_pinned(self, capsys, tmp_path, flags, code, digest):
        log = write_log(tmp_path, self.CONFORMING)
        status, out, _ = run(capsys, "protocol-check", "--log", log, *flags)
        assert status == code
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

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

    @pytest.mark.parametrize("text, k, error, detail", [
        ("1e308 1 0 4\n1e308 1 1 4\n", "1", "MalformedLogError",
         "{log}:EOF: episode return overflows"),
        ("1e308 0 1 4\n---\n1e308 0 1 4\n", "2", "ValidationError",
         "mean of the last 2 returns overflows"),
    ], ids=["episode", "window"])
    def test_overflowing_returns_are_data_errors(self, capsys, tmp_path, text, k, error,
                                                 detail):
        # Finite rewards whose sum is infinite; JSON has no Infinity.
        log = write_log(tmp_path, text)
        code, out, err = run(capsys, "protocol-check", "--log", log, "--k", k)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == error
        assert json.loads(err)["detail"].startswith(detail.format(log=log))

    @pytest.mark.parametrize("flag, value", [
        ("--k", "0"), ("--k", "-1"), ("--budget", "-5"), ("--budget", "0"),
        ("--action-set", "-3"), ("--action-set", "0"),
        # Like the data files, a number flag refuses ``_``: int("1_0") is 10.
        ("--k", "1_0"), ("--budget", "1_000"), ("--budget", "1_6"), ("--action-set", "1_8"),
        # and non-ASCII digits: int("\u0661") is 1.
        ("--k", "\u0661"), ("--budget", "\uff11\uff10\uff10"), ("--action-set", "\uff11\uff18"),
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

    def test_k_above_sys_maxsize_is_a_k_above_the_episode_count(self, capsys, tmp_path):
        log = write_log(tmp_path, self.CONFORMING)
        _, expected, _ = run(capsys, "protocol-check", "--log", log, "--k", "3")
        code, out, err = run(capsys, "protocol-check", "--log", log,
                             "--k", str(sys.maxsize * 10**4))
        assert (code, out, err) == (0, expected, "")
        assert "training_score" not in json.loads(out)

    def test_closed_stdin_is_a_data_error(self):
        # fd 0 is closed (``<&-``), so ``sys.stdin`` is None in the child.
        result = run_cli("protocol-check", "--log", "-", preexec_fn=lambda: os.close(0))
        assert (result.returncode, result.stdout) == (1, b"")
        assert json.loads(result.stderr) == {"error": "BenchmarkError",
                                             "detail": "<stdin>: standard input is closed"}

    def test_log_from_stdin(self, capsys, tmp_path):
        _, expected, _ = run(capsys, "protocol-check", "--k", "2",
                             "--log", write_log(tmp_path, self.CONFORMING))
        code, out, _ = check_stdin(self.CONFORMING.encode(), "--k", "2")
        assert (code, out) == (0, expected)
        code, _, err = check_stdin((self.CONFORMING + "---\n1 3 0 4\n").encode(), "--k", "2")
        assert code == 1
        assert json.loads(err)["detail"].startswith("<stdin>:EOF: ")

    @pytest.mark.parametrize("data, line, detail", [
        # Lives rise at line 2, ahead of the byte 0xff on line 5.
        (b"1 1 0 4\n1 3 0 4\n0 0 1 4\n---\n\xff 3 0 4\n0 0 1 4\n", 2,
         "lives increased 1 -> 3"),
        # The byte 0xff on line 2, ahead of lives that rise at line 4.
        (b"1 3 0 4\n1 \xff 0 4\n1 1 0 4\n1 3 0 4\n", 2,
         "'utf-8' codec can't decode byte 0xff in position 2: invalid start byte"),
    ], ids=["rise-first", "not-utf8-first"])
    @pytest.mark.parametrize("stdin", [False, True], ids=["path", "stdin"])
    def test_line_not_utf8_is_a_data_error_in_file_order(self, capsys, tmp_path, data, line,
                                                          detail, stdin):
        if stdin:
            name, (code, out, err) = "<stdin>", check_stdin(data)
        else:
            name = tmp_path / "episodes.log"
            name.write_bytes(data)
            code, out, err = run(capsys, "protocol-check", "--log", str(name))
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["error"] == "MalformedLogError"
        assert error["detail"].startswith(f"{name}:{line}: {detail}")

    @pytest.mark.parametrize("text", [CONFORMING, "# c\n1 3 0 4\n1 2 3\n", "1 3 0 4\n---\n"],
                             ids=["conforming", "three-fields", "truncated"])
    def test_crlf_log_gives_the_output_of_its_lf_original(self, capsys, tmp_path, text):
        def check(name, data):
            path = tmp_path / name
            path.write_bytes(data)
            code, out, err = run(capsys, "protocol-check", "--log", str(path), "--k", "1")
            return code, out, err.replace(str(path), "{log}")

        assert (check("crlf.log", text.replace("\n", "\r\n").encode())
                == check("lf.log", text.encode()))

    def test_lone_carriage_return_breaks_no_line(self, capsys, tmp_path):
        # A log is read as bytes and split at "\n" only, so a log whose lines
        # end in a lone "\r" is one line of too many fields.
        log = tmp_path / "episodes.log"
        log.write_bytes(self.CONFORMING.replace("\n", "\r").encode())
        code, out, err = run(capsys, "protocol-check", "--log", str(log))
        assert code == 1 and out == ""
        assert json.loads(err)["detail"].startswith(
            f"{log}:1: expected 'reward lives game_over env_frames' on line 1, got ")

    @pytest.mark.parametrize("stdin", [False, True], ids=["path", "stdin"])
    def test_one_huge_malformed_line_is_echoed_in_part(self, capsys, tmp_path, stdin):
        data = b"1 3 0 4\r" * (1 << 17)  # 1 MiB with no "\n": one line
        if stdin:
            name, (code, out, err) = "<stdin>", check_stdin(data)
        else:
            name = tmp_path / "episodes.log"
            name.write_bytes(data)
            code, out, err = run(capsys, "protocol-check", "--log", str(name))
        assert code == 1 and out == ""
        # The first 80 characters, then the count of the rest (the trailing
        # "\r" is stripped).
        head = "1 3 0 4\r" * 10
        assert json.loads(err)["detail"] == (
            f"{name}:1: expected 'reward lives game_over env_frames' on line 1, "
            f"got {head!r} and {len(data) - 1 - len(head)} more characters")
        assert len(err) < 400

    @pytest.mark.parametrize("stdin", [False, True], ids=["path", "stdin"])
    def test_one_huge_non_numeric_field_is_echoed_in_part(self, capsys, tmp_path, stdin):
        data = b"x" * 1_000_000 + b" 3 0 4\n"  # a reward float() rejects
        if stdin:
            name, (code, out, err) = "<stdin>", check_stdin(data)
        else:
            name = tmp_path / "episodes.log"
            name.write_bytes(data)
            code, out, err = run(capsys, "protocol-check", "--log", str(name))
        assert code == 1 and out == ""
        assert json.loads(err)["detail"] == (
            f"{name}:1: could not convert string to float: {'x' * 80!r} "
            f"and {1_000_000 - 80} more characters")
        assert len(err) < 400

    def test_generated_log_from_path_crlf_copy_and_stdin(self, capsys, tmp_path):
        log = tmp_path / "train.log"
        truth = loggen.generate(log, seed=7, ks=[5, 10], target_steps=2000)
        crlf = tmp_path / "train-crlf.log"
        crlf.write_bytes(log.read_bytes().replace(b"\n", b"\r\n"))
        k = str(truth.k)
        results = [run(capsys, "protocol-check", "--log", str(path), "--k", k)
                   for path in (log, crlf)]
        results.append(check_stdin(log.read_bytes(), "--k", k))
        assert [code for code, _, _ in results] == [0, 0, 0]
        outs = {out for _, out, _ in results}
        assert len(outs) == 1
        assert loggen.check_protocol(outs.pop(), truth) == []

    def test_long_log_from_path_and_stdin_prints_the_same_bytes(self, tmp_path):
        # 15,000 lines in 121,909 bytes, about eight 16 KiB blocks: block edges fall
        # inside episodes and on their ``---``.
        lines = []
        for e in range(1000):
            lines += [f"{(e * 7 + i) % 11 - 5} 3 0 4" for i in range(13)] + ["0 0 1 4", "---"]
        data = ("\n".join(lines) + "\n").encode()
        log = tmp_path / "long.log"
        log.write_bytes(data)
        results = [run_cli("protocol-check", "--log", name, "--k", "100", input=data)
                   for name in (str(log), "-")]
        assert [(r.returncode, r.stderr) for r in results] == [(0, b"")] * 2
        assert results[0].stdout == results[1].stdout
        assert json.loads(results[0].stdout)["episodes"] == 1000


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
