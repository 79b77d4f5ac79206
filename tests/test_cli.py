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

import loggen
import pytest
from helpers import bundled_copy, data_error, decoded, run_cli, run_main, run_python, set_cell
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_protocol import PLACED_LOGS, placed_id

import hwrbench
from hwrbench.cli import VERBS, _parse_flags, build_parser
from hwrbench.datasets import Dataset, RunRecord
from hwrbench.errors import MalformedLogError
from hwrbench.games import CANONICAL_GAMES, BaselineRegistry
from hwrbench.metrics import METRIC_KINDS, CapMode, MetricKind, MetricValue
from hwrbench.numfmt import format_percent
from hwrbench.protocol import CHUNK_BYTES, iter_episodes
from hwrbench.report import evaluate


def usage_error(outcome) -> str:
    """The stderr of a command line that is a usage error: exit 2, nothing on stdout."""
    code, out, err = outcome
    assert (code, out) == (2, ""), err
    return err


LOG = "1 3 0 4\n-2 3 0 4\n3 0 1 4\n---\n5 1 0 4\n0 0 1 4\n"  # two conforming episodes


def write_log(tmp_path, text=LOG) -> str:
    path = tmp_path / "episodes.log"
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_log(tmp_path, data, *flags, stdin=False):
    """``protocol-check`` on a log of ``data`` (str or bytes), by path in this
    process or on stdin in a child (``--log -``): (exit code, stdout, stderr),
    and the name the log is reported under."""
    data = data.encode() if isinstance(data, str) else data
    if stdin:
        return decoded(run_cli("protocol-check", "--log", "-", *flags, input=data)), "<stdin>"
    log = tmp_path / "episodes.log"
    log.write_bytes(data)
    return run_main("protocol-check", "--log", str(log), *flags), str(log)


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
    def test_alien_example(self):
        code, out, _ = run_main("score", "--game", "alien", "--score", "9491.7", "--frames", "2e8")
        assert code == 0
        assert "hns_pct: 134.26" in out
        assert "hwrns_pct: 3.68" in out
        assert "saber_pct: 3.68" in out
        assert "hwrb: False" in out
        assert "game_time_days: 38.58" in out

    def test_boxing_breakthrough(self):
        code, out, _ = run_main("score", "--game", "boxing", "--score", "100", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["hns_pct"] == "832.50"
        assert payload["hwrns_pct"] == "100.00"
        assert payload["hwrb"] is True

    def test_random_anchor_all_zero(self):
        code, out, _ = run_main("score", "--game", "pong", "--score", "-20.7", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["hns_pct"] == payload["hwrns_pct"] == "0.00"

    def test_unknown_game_is_data_error(self):
        assert data_error(run_main("score", "--game", "foo", "--score", "1")) == {
            "error": "UnknownGameError", "detail": "unknown game: 'foo'"}

    def test_cap_mode_flag(self):
        _, out, _ = run_main("score", "--game", "skiing", "--score", "-29970.32",
                             "--cap-mode", "table-compat", "--format", "json")
        assert json.loads(out)["saber_pct"] == "-93.10"
        _, out, _ = run_main("score", "--game", "skiing", "--score", "-29970.32",
                             "--format", "json")
        assert json.loads(out)["saber_pct"] == "0.00"


REGISTRY = BaselineRegistry.load()


@given(st.sampled_from(CANONICAL_GAMES), st.sampled_from(list(CapMode)), st.data())
def test_score_prints_the_cell_evaluate_computes(game, cap_mode, data):
    base = REGISTRY.lookup(game)
    raw = data.draw(st.one_of(
        st.sampled_from([base.random, base.human_average, base.human_world_record]),
        st.floats(min_value=-1e7, max_value=1e7, allow_nan=False)))
    code, out, err = run_main("score", "--game", game, f"--score={raw!r}",
                              "--cap-mode", cap_mode.value, "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    report = evaluate([Dataset("d", (RunRecord("A", game, raw, 200_000_000),))],
                      REGISTRY, cap_mode)
    cell = report.cells["A"][game].metrics
    assert ([payload[f"{kind.value}_pct"] for kind in METRIC_KINDS]
            == [format_percent(cell[kind]) for kind in METRIC_KINDS])
    assert payload["hwrb"] == report.aggregates["A"][MetricKind.HWRNS].hwrb_count


def test_no_verb_builds_a_metric_value(monkeypatch, tmp_path):
    def refuse(cls, *args, **kwargs):
        raise AssertionError("a verb built a MetricValue")

    monkeypatch.setattr(MetricValue, "__new__", refuse)
    with pytest.raises(AssertionError):
        MetricValue(1.0, MetricKind.HNS)
    for argv in (["score", "--game", "alien", "--score", "9491.7", "--frames", "2e8"],
                 ["aggregate", "--format", "json"],
                 ["reproduce", "--out", str(tmp_path / "repro")]):
        assert run_main(*argv)[0] == 0, argv


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
        ("report", "--format", "json"), ("score", "--bogus", None),
        # an empty ``--out`` names no file or directory
        ("aggregate", "--out", ""), ("report", "--out", ""), ("reproduce", "--out", ""),
    ])
    def test_removed_flag_or_format_is_usage_error(self, monkeypatch, tmp_path, verb, flag,
                                                   value):
        monkeypatch.chdir(tmp_path)
        value = "out.txt" if value is None else value
        for tail in ([flag, value], [f"{flag}={value}"]):
            usage_error(run_main(*VERB_ARGV.get(verb, [verb]), *tail))
            assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, value", [
        ("--score", "nan"), ("--score", "inf"), ("--score", "abc"),
        ("--frames", "2.5"), ("--frames", "inf"), ("--frames", "0"), ("--frames", "-5"),
        # float("22_7.8") is 227.8 and float("2_0e8") is 2e9.
        ("--score", "22_7.8"), ("--frames", "2_0e8"), ("--frames", "200_000_000"),
        # float() reads any Unicode digit: Arabic-Indic 10 and fullwidth 100.
        ("--score", "\u0661\u0660"), ("--frames", "\uff11\uff10\uff10"),
    ])
    def test_bad_score_values_are_usage_errors(self, flag, value):
        argv = ["score", "--game", "alien", "--score", "1", "--frames", "2e8"]
        argv[argv.index(flag) + 1] = value
        assert f"argument {flag}: invalid" in usage_error(run_main(*argv))


# One usage error per verb that the verb's own parser reports, besides an
# unknown flag, which the top-level parser reports.
VERB_USAGE_ERROR = {
    "validate": ["--dataset"], "score": ["--game", "alien"], "aggregate": ["--format", "csv"],
    "report": ["--metric", "zz"], "protocol-check": ["--k", "1"], "compare": ["A"],
    "reproduce": ["--out"],
}


# Help and usage errors of each verb, which ``main`` leaves to argparse.
HELP_AND_USAGE_ERRORS = {
    **{f"{verb}-{tail}": [verb, *{"help": ["-h"], "unknown-flag": ["--nope"],
                                  "usage-error": VERB_USAGE_ERROR[verb]}[tail]]
       for verb in VERB_OPTIONS for tail in ("help", "unknown-flag", "usage-error")},
    "unknown-verb": ["frobnicate"], "report-no-algorithm": ["report", "--algorithms"],
}


class TestHelpAndUsageErrorsGoThroughArgparse:
    """Help and usage errors, of each verb and of the top level, go through argparse."""

    @pytest.mark.parametrize("argv", HELP_AND_USAGE_ERRORS.values(), ids=HELP_AND_USAGE_ERRORS)
    def test_help_and_usage_errors_match_the_full_parser(self, argv):
        outcome = code, out, err = run_main(*argv)
        if argv[-1] == "-h":
            assert (code, err) == (0, "") and out.startswith(f"usage: hwrbench {argv[0]} ")
        else:
            assert "error: " in usage_error(outcome)

    @pytest.mark.parametrize("argv", [["-h"], [], ["scor"], ["--nope"]],
                             ids=["help", "no-verb", "unknown-verb", "unknown-flag"])
    def test_top_level_lists_every_verb(self, argv):
        code, out, err = run_main(*argv)
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
def test_double_dash_value_is_a_usage_error(argv, argument):
    # argparse drops the ``--`` and stored an empty list, on which the verb
    # crashed (``Path([])``, an unhashable game) or, for ``--algorithms``,
    # printed every column.
    err = usage_error(run_main(*argv))
    assert err.endswith(f"hwrbench {argv[0]}: error: argument {argument}: expected one argument\n")


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
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("fuzz"))
        patch.setattr(sys, "stdin", stdin)
        outcome = run_main(*argv)
    assert outcome[0] in (0, 1) or "error: " in usage_error(outcome)


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

    def child_modules(self, tmp_path, child_argv, python_flags, code) -> set[str]:
        # The conforming log, at ``{log}`` and on stdin.
        log = write_log(tmp_path)
        child_argv = [a.format(log=log, out=tmp_path / "repro") for a in child_argv]
        result = run_python(*python_flags, "-c", self.CHILD, *child_argv, input=LOG, text=True)
        assert result.returncode == code, result.stderr
        return set(result.stderr.splitlines()[-1].split())

    @pytest.mark.parametrize("python_flags, slow", [((), SLOW), (("-S",), SLOW_WITHOUT_SITE)],
                             ids=["site", "no-site"])
    @VERBS
    def test_verb_loads_only_what_it_runs(self, tmp_path, argv, loaded, python_flags, slow):
        # ``[]`` only imports the module.
        modules = self.child_modules(tmp_path, ["main", *argv] if argv else ["import"],
                                     python_flags, 0)
        assert {m.removeprefix("hwrbench.") for m in modules} & self.DEFERRED == loaded
        assert modules & slow == set()
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

    @pytest.mark.parametrize("python_flags", [(), ("-S",)], ids=["site", "no-site"])
    def test_data_error_loads_neither_json_nor_argparse(self, tmp_path, python_flags):
        modules = self.child_modules(
            tmp_path, ["main", "score", "--game", "nope", "--score", "1"], python_flags, 1)
        assert modules & {"json", *self.ARGPARSE} == set()

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
    def test_verbs_call_through_the_module(self, monkeypatch, argv, calls):
        import hwrbench.cli as cli
        seen = []
        for name in self.TRACED:
            def wrapped(*args, _fn=getattr(cli, name), _name=name, **kwargs):
                seen.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, wrapped)
        assert run_main(*argv)[0] == 0
        assert seen == calls


# Flags are the only configuration: these variables once set defaults.
FORMER_VARIABLES = {
    "HWRBENCH_K": "x", "HWRBENCH_BUDGET": "2.5", "HWRBENCH_CAP_MODE": "bogus",
    "HWRBENCH_FORMAT": "csv", "HWRBENCH_DATASET": "nope", "HWRBENCH_OUT": "o.txt",
    "HWRBENCH_BASELINES": "/missing", "HWRBENCH_ACTION_SET": "-3",
}


@pytest.mark.parametrize("argv", [
    *VERB_ARGV.values(), ["protocol-check", "--log", "episodes.log"],
], ids=[*VERB_ARGV, "protocol-check"])
def test_environment_changes_no_verb(monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    write_log(tmp_path)
    clean = run_main(*argv)
    for var, value in FORMER_VARIABLES.items():
        monkeypatch.setenv(var, value)
    assert run_main(*argv) == clean
    assert clean[0] == 0 and not (tmp_path / "o.txt").exists()


class TestValidate:
    def test_bundled_data_validates(self):
        code, out, _ = run_main("validate")
        assert code == 0
        assert "57 games OK" in out

    # The registry's own rules; ``tests/test_games.py`` runs the CSV rules through validate.
    @pytest.mark.parametrize("column, value, detail", [
        ("human_average", b"5", "alien: human_average 5.0 must exceed random 227.8"),
        ("random", b"nan", "alien: random must be finite, got nan"),
    ], ids=["below-random", "non-finite"])
    def test_bad_baselines_exit_1(self, tmp_path, column, value, detail):
        path, _ = bundled_copy(tmp_path, "baselines.csv",
                               lambda lines: set_cell(lines, 2, column, value))
        assert data_error(run_main("validate", "--baselines", str(path))) == {
            "error": "ValidationError", "detail": f"{path}:2: {detail}"}

    @pytest.mark.parametrize("case, detail", [
        ("duplicate", "duplicate cell ('Muesli', 'alien') across datasets "
                      "(second occurrence in 'sota-other')"),
        ("frames", "A: inconsistent frame counts 100 vs 200"),
        ("overflow", "Muesli/alien: normalized score overflows"),
    ], ids=["duplicate", "frames", "overflow"])
    def test_rejects_what_aggregate_rejects(self, tmp_path, case, detail):
        # Checks that span records and datasets run in evaluate, which validate calls.
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
            baselines, _ = bundled_copy(tmp_path, "baselines.csv", tiny)
            flags = ["--dataset", "sota-other", "--baselines", str(baselines)]
        for verb in ("aggregate", "validate"):
            assert data_error(run_main(verb, *flags))["detail"] == detail


class TestReport:
    def test_hns_table_contains_rainbow_alien_cell(self):
        code, out, _ = run_main("report", "--metric", "hns",
                                "--dataset", "sota-200m-model-free", "--format", "csv")
        assert code == 0
        alien = next(l for l in out.splitlines() if l.startswith("alien"))
        cells = alien.split(",")
        assert cells[1] == "9491.7" and cells[2] == "134.26"

    def test_leader_marks_boxing_tie(self):
        _, out, _ = run_main("report", "--metric", "hns",
                             "--dataset", "sota-200m-model-free", "--format", "csv",
                             "--algorithms", "Rainbow", "LASER", "GDI-H3")
        boxing = next(l for l in out.splitlines() if l.startswith("boxing"))
        assert boxing.count("100*") == 2  # LASER and GDI-H3, not Rainbow

    # Each name is quoted, so that an empty or space-padded one shows.
    @pytest.mark.parametrize("names, detail", [
        (["Rainbow", "Nope", "Zip"], "algorithms not in the report: 'Nope', 'Zip'"),
        ([""], "algorithms not in the report: ''"),
        ([" Rainbow"], "algorithms not in the report: ' Rainbow'"),
        (["Rainbow", "LASER", "Rainbow"], "algorithms repeated in the layout: 'Rainbow'"),
    ], ids=["unknown", "empty", "space-padded", "repeated"])
    def test_bad_algorithm_list_is_data_error(self, names, detail):
        assert data_error(run_main("report", "--algorithms", *names)) == {
            "error": "ValidationError", "detail": detail}

    def test_out_file(self, tmp_path):
        out_path = tmp_path / "table.csv"
        code, out, _ = run_main("report", "--format", "csv", "--out", str(out_path))
        assert code == 0 and out == ""
        assert out_path.read_text(encoding="utf-8").startswith("game,")


class TestAggregate:
    def test_json_aggregates(self):
        code, out, _ = run_main("aggregate", "--format", "json", "--cap-mode", "table-compat")
        assert code == 0
        payload = json.loads(out)
        rainbow = payload["aggregates"]["Rainbow"]
        assert rainbow["hns"]["mean"] == pytest.approx(8.7397, abs=5e-4)
        assert rainbow["hwrns"]["hwrb"] == 4

    def test_text_aggregates(self):
        code, out, _ = run_main("aggregate", "--dataset", "sota-other")
        assert code == 0
        assert "Muesli" in out and "Go-Explore" in out and "hwrb" in out


# Edits that leave the bundled baselines valid, yet let a score overflow.
def tiny(lines):
    """Alien's human average 1e-305 above a random score of 0: 139409 / 1e-305 overflows."""
    set_cell(lines, 2, "random", b"0")
    set_cell(lines, 2, "human_average", b"1e-305")


def near(lines):
    """Human averages one point above random, for boxing and pong. Each normalizes
    1.7e308 to 1.7e308, finite, yet its percent is not, and two such cells
    overflowed fsum."""
    set_cell(lines, 13, "human_average", b"1.1")
    set_cell(lines, 38, "human_average", b"-19.7")


HUGE = "huge.csv"  # three 1.7e308 cells, written by the test


@pytest.mark.parametrize("argv, edit, detail", [
    (["score", "--game", "alien", "--score", "139409"], tiny, "alien"),
    (["aggregate", "--dataset", "sota-other"], tiny, "Muesli/alien"),
    (["score", "--game", "boxing", "--score", "1e308"], None, "boxing"),
    (["aggregate", "--dataset", HUGE], None, "Big/boxing"),
    *(([*verb, "--dataset", HUGE], near, "Big/boxing") for verb in (
        ["validate"], ["aggregate"], ["report"],
        ["compare", "Big", "Rainbow", "--dataset", "sota-200m-model-free"])),
], ids=["score", "aggregate", "score-percent", "aggregate-percent", "validate-fsum",
        "aggregate-fsum", "report-fsum", "compare-fsum"])
def test_normalization_overflow_names_the_game(tmp_path, argv, edit, detail):
    (tmp_path / HUGE).write_text("algorithm,game,score,frames,scale_label\n" + "".join(
        f"Big,{game},1.7e308,200000000,200M\n" for game in ("boxing", "pong", "alien")),
        encoding="utf-8")
    baselines, _ = bundled_copy(tmp_path, "baselines.csv", edit)
    argv = [str(tmp_path / a) if a == HUGE else a for a in argv]
    assert data_error(run_main(*argv, "--baselines", str(baselines))) == {
        "error": "ValidationError", "detail": f"{detail}: normalized score overflows"}


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
    write_log(tmp_path)
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
def test_closed_stdout_with_out_file_exits_0(tmp_path, argv):
    # However stdout is lost, nothing meant for it is when the output goes to
    # ``--out``: the file holds what the verb prints in-process.
    code, printed, _ = run_main(*argv)
    assert code == 0
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

    def test_main_neither_freezes_nor_disables_the_collector(self):
        before = gc.get_freeze_count(), gc.isenabled()
        assert run_main(*VERB_ARGV["score"])[0] == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_repeated_calls_register_one_callback(self):
        assert run_main(*VERB_ARGV["score"])[0] == 0
        callbacks = atexit._ncallbacks()
        for argv in VERB_ARGV.values():
            assert run_main(*argv)[0] == 0
        assert atexit._ncallbacks() == callbacks


class TestCompare:
    def test_leader_diff(self):
        code, out, _ = run_main("compare", "Rainbow", "LASER", "--dataset", "sota-200m-model-free")
        assert code == 0
        payload = json.loads(out)
        assert payload["games_compared"] == 57
        assert payload["Rainbow"]["wins"] + payload["LASER"]["wins"] + \
            len(payload["ties"]) == 57
        assert "pong" in payload["LASER"]["games"]  # 21 beats 20.9
        assert "amidar" in payload["Rainbow"]["games"]

    def test_ties_reported(self):
        _, out, _ = run_main("compare", "LASER", "GDI-H3", "--dataset", "sota-200m-model-free")
        payload = json.loads(out)
        assert "boxing" in payload["ties"] and "pong" in payload["ties"]

    def test_missing_algorithm_is_data_error(self):
        assert data_error(run_main("compare", "Rainbow", "NotAnAlgo")) == {
            "error": "BenchmarkError",
            "detail": "algorithm 'NotAnAlgo' not present in the datasets"}

    def test_repeated_algorithm_is_data_error(self):
        assert data_error(run_main("compare", "Rainbow", "Rainbow")) == {
            "error": "BenchmarkError", "detail": "algorithm 'Rainbow' compared with itself"}

    @pytest.mark.parametrize("name", ["algorithms", "games_compared", "ties"])
    def test_name_of_an_output_key_is_data_error(self, tmp_path, name):
        # ``name`` leads alien; as a key of the JSON its entry would be lost.
        path = tmp_path / "keys.csv"
        path.write_text("algorithm,game,score,frames,scale_label\n"
                        f"{name},alien,9000,200000000,200M\nB,alien,1000,200000000,200M\n",
                        encoding="utf-8")
        for argv in ([name, "B"], ["B", name]):
            assert data_error(run_main("compare", *argv, "--dataset", str(path))) == {
                "error": "BenchmarkError",
                "detail": f"algorithm {name!r} is a key of compare's output"}


class TestProtocolCheck:
    @pytest.mark.parametrize("flag, value, violation", [
        ("--budget", "16", "budget_exceeded"), ("--action-set", "4", "reduced_action_set"),
    ], ids=["budget", "action-set"])
    def test_each_violation_exits_1(self, tmp_path, flag, value, violation):
        code, out, _ = run_log(tmp_path, LOG, flag, value)[0]
        assert code == 1
        assert [v["code"] for v in json.loads(out)["violations"]] == [violation]

    def test_stdout_bytes_are_pinned(self, tmp_path):
        # The exit-1 pin: stdout's sha256 on the conforming log, with two violations.
        code, out, _ = run_log(tmp_path, LOG, "--budget", "1e2", "--action-set", "4")[0]
        assert code == 1
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "b3790dd0860213eb84462eee42842a653f0014039658cefbbd10b881e7558532")

    @pytest.mark.parametrize("log", PLACED_LOGS, ids=placed_id)
    def test_reports_what_the_library_reads(self, tmp_path, log):
        # Each placed log by path, and on stdin in a child too if it holds a byte
        # that is not ASCII or a line longer than a block: the library's episodes,
        # or exit 1, an empty stdout and the library's own error on one line.
        data = log if isinstance(log, bytes) else log.encode()
        path = tmp_path / "episodes.log"
        path.write_bytes(data)
        routes = [(path, run_main("protocol-check", "--log", str(path)))]
        if len(data) > CHUNK_BYTES or not data.isascii():
            stdin = io.BytesIO(data)
            stdin.name = "<stdin>"  # as ``sys.stdin.buffer`` is named
            routes.append((stdin, decoded(run_cli("protocol-check", "--log", "-", input=data))))
        for source, outcome in routes:
            try:
                episodes = list(iter_episodes(source))
            except MalformedLogError as exc:
                assert data_error(outcome) == {"error": "MalformedLogError", "detail": str(exc)}
                assert len(outcome[2]) < 400 or len(data) <= CHUNK_BYTES  # echoed in part
            else:
                code, out, err = outcome
                assert (code, err) == (0, "")
                result = json.loads(out)
                assert (result["episodes"], result["total_env_frames"]) == (
                    len(episodes), sum(e.env_frames_used for e in episodes))

    def test_overflowing_returns_are_data_errors(self, tmp_path):
        # Finite returns whose window mean is infinite; JSON has no Infinity.
        outcome, _ = run_log(tmp_path, "1e308 0 1 4\n---\n1e308 0 1 4\n", "--k", "2")
        assert data_error(outcome) == {"error": "ValidationError",
                                       "detail": "mean of the last 2 returns overflows: inf"}

    def test_error_line_is_what_json_dumps_writes(self, tmp_path):
        # A log path may hold a quote, a backslash, a non-ASCII character and, for a
        # byte that is not UTF-8, a lone surrogate; the error's detail quotes it.
        path = tmp_path / 'a"b\\c\u00e9\udcff.log'
        path.write_bytes(b"1 2 3\n")
        line = json.dumps({"error": "MalformedLogError", "detail": (
            f"{path}:1: expected 'reward lives game_over env_frames' on line 1, got '1 2 3'")})
        assert run_main("protocol-check", "--log", str(path)) == (1, "", line + "\n")
        assert decoded(run_cli("protocol-check", "--log", str(path))) == (1, "", line + "\n")

    @pytest.mark.parametrize("flag, value", [
        ("--k", "0"), ("--k", "-1"), ("--budget", "-5"), ("--budget", "0"),
        ("--action-set", "-3"), ("--action-set", "0"),
        # Like the data files, a number flag refuses ``_``: int("1_0") is 10.
        ("--k", "1_0"), ("--budget", "1_000"), ("--budget", "1_6"), ("--action-set", "1_8"),
        # and non-ASCII digits: int("\u0661") is 1.
        ("--k", "\u0661"), ("--budget", "\uff11\uff10\uff10"), ("--action-set", "\uff11\uff18"),
    ])
    def test_nonpositive_flags_are_usage_errors(self, tmp_path, flag, value):
        outcome, _ = run_log(tmp_path, LOG, flag, value)
        assert f"argument {flag}: invalid" in usage_error(outcome)

    @pytest.mark.parametrize("distinct", [False, True], ids=["repeated", "distinct"])
    def test_memory_does_not_grow_with_episodes(self, tmp_path, distinct):
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
                code, out, _ = run_main("protocol-check", "--log", log, "--k", "5")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 0 and json.loads(out)["episodes"] == episodes
            return peak

        peak(300)  # a first run also loads modules and fills interpreter caches
        small, large = peak(300), peak(3000)
        # A summary and a return kept per episode would add about 250 KB.
        assert abs(large - small) < 64 * 1024, (small, large)

    def test_k_above_sys_maxsize_is_a_k_above_the_episode_count(self, tmp_path):
        (_, expected, _), log = run_log(tmp_path, LOG, "--k", "3")
        code, out, err = run_main("protocol-check", "--log", log, "--k", str(sys.maxsize * 10**4))
        assert (code, out, err) == (0, expected, "")
        assert "training_score" not in json.loads(out)

    def test_closed_stdin_is_a_data_error(self):
        # fd 0 is closed (``<&-``), so ``sys.stdin`` is None in the child.
        result = run_cli("protocol-check", "--log", "-", preexec_fn=lambda: os.close(0))
        assert data_error(decoded(result)) == {
            "error": "BenchmarkError", "detail": "<stdin>: standard input is closed"}

    def test_generated_log_from_path_crlf_copy_and_stdin(self, tmp_path):
        log = tmp_path / "train.log"
        truth = loggen.generate(log, seed=7, ks=[5, 10], target_steps=2000)
        data, k = log.read_bytes(), str(truth.k)
        results = [run_log(tmp_path, data, "--k", k)[0],
                   run_log(tmp_path, data.replace(b"\n", b"\r\n"), "--k", k)[0],
                   run_log(tmp_path, data, "--k", k, stdin=True)[0]]
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
    def test_writes_artifacts_and_is_idempotent(self, tmp_path):
        out_dir = tmp_path / "repro"
        code, out, _ = run_main("reproduce", "--out", str(out_dir))
        assert code == 0
        assert "cells compared: 3174" in out
        log = json.loads((out_dir / "inconsistency_log.json").read_text())
        assert any(m["printed"] == "441/32" for m in log)
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["match_rate"] >= 0.95
        first = (out_dir / "summary.json").read_bytes()
        assert run_main("reproduce", "--out", str(out_dir))[0] == 0
        assert (out_dir / "summary.json").read_bytes() == first
        assert (out_dir / "tables" / "hwrns-sota-200m-model-free.csv").exists()
        assert (out_dir / "figures" / "hwrb_vs_gametime.json").exists()

    @pytest.mark.parametrize("flag", [["--cap-mode", "spec-floor"], ["--format", "json"]])
    def test_mode_flags_are_usage_errors(self, tmp_path, flag):
        usage_error(run_main("reproduce", "--out", str(tmp_path / "repro"), *flag))
        assert not (tmp_path / "repro").exists()
