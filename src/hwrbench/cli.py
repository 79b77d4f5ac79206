"""Command-line interface.

Verbs: validate, score, aggregate, report, protocol-check, compare, reproduce.
Each verb registers only the flags that change its output; the JSON report is
``aggregate --format json``. Results go to stdout, diagnostics to stderr; exit
status is 0 on success, 1 on data errors, 2 on usage errors. A verb prints
only after its last check, so a data error leaves stdout empty. Output meant
for stdout that is lost exits 1 with nothing on stderr, buffered or not,
whether its reader has left or fd 1 is closed (``main`` then prints into a
pipe with no reader); ``--out`` with fd 1 closed loses nothing and exits 0.
Any other write error is a data error (exit 1, JSON on stderr), buffered or
not; help exits 0 silently. Flags are the only configuration. Each verb imports
only the modules it runs, and the value types are named tuples, so start-up
loads none of ``inspect``, ``typing`` or ``importlib.resources``. JSON, a data
error's line too, is written by ``numfmt``, so no verb imports ``json``. Each
verb's flags are stated once, in ``VERBS``: ``main`` reads a plain, valid
command line of one-value flags from that table itself, and argparse, built
from the same table, reads the rest: help, usage errors, ``--dataset``,
``--algorithms``, ``--score -20.7``, abbreviations. Exit is part of a verb's
wall time too: the first ``main`` call registers ``gc.freeze`` with ``atexit``,
so the interpreter's exit-time collections skip every object still alive.
"""

from __future__ import annotations

import atexit
import gc
import importlib
import math
import os
import sys
from collections import deque
from pathlib import Path
from types import SimpleNamespace

from hwrbench.errors import BenchmarkError
from hwrbench.games import CANONICAL_GAMES, BaselineRegistry
from hwrbench.metrics import (
    METRIC_KINDS,
    CapMode,
    MetricKind,
    cell_ratios,
    game_time_days,
    hwrb_indicator,
    learning_efficiency,
)
from hwrbench.numfmt import (
    format_efficiency,
    format_number,
    format_percent,
    json_string,
    json_text,
    parse_frames,
)

# Imported on first use. Verbs call these through ``_module``, so a caller
# that replaces the attribute (a tracer, say) sees the calls.
_DEFERRED = {
    "evaluate": "hwrbench.report",
    "render_table": "hwrbench.report",
    "report_to_json": "hwrbench.report",
    "load_all_bundled": "hwrbench.datasets",
}


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_DEFERRED[name]), name)


_module = sys.modules[__name__]


def _load_registry(args) -> BaselineRegistry:
    registry = BaselineRegistry.load(args.baselines)
    for warning in registry.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return registry


def _load_datasets(args) -> list:
    from hwrbench.datasets import BUNDLED_DATASETS, load_bundled_dataset, load_dataset

    if not args.dataset:
        return _module.load_all_bundled()
    return [load_bundled_dataset(p) if p in BUNDLED_DATASETS else load_dataset(p)
            for p in args.dataset]


# A number flag holding ``_`` or a non-ASCII character is refused, as in the
# data files: float("22_7.8") is 227.8 and float("١٠") is 10.0.

def _plain_number(text: str) -> str:
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return text


def finite_float(text: str) -> float:
    value = float(_plain_number(text))
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def positive_int(text: str) -> int:
    value = int(_plain_number(text))
    if value < 1:
        raise ValueError(f"must be >= 1: {text!r}")
    return value


def positive_frames(text: str) -> int:
    return parse_frames(_plain_number(text))


def out_path(text: str) -> str:  # ``--out ""`` names no file: refused, not read as stdout or "."
    if not text:
        raise ValueError(text)
    return text


def _emit(text: str, args) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")


def _cmd_validate(args) -> int:
    registry = _load_registry(args)
    datasets = _load_datasets(args)
    _module.evaluate(datasets, registry)  # the checks that span records and datasets
    print(f"baselines: {len(registry)} games OK ({registry.source})")
    for ds in datasets:
        print(f"dataset {ds.label}: {len(ds.records)} records, "
              f"{len(ds.omitted)} N/A cells OK")
    return 0


def _cmd_score(args) -> int:
    baseline = _load_registry(args).lookup(args.game)
    h, c, w, s = cell_ratios(args.score, baseline, args.cap_mode, baseline.game)
    result = {
        "game": baseline.game,
        "score": args.score,
        "hns_pct": format_percent(h),
        "chns_pct": format_percent(c),
        "hwrns_pct": format_percent(w),
        "saber_pct": format_percent(s),
        "cap_mode": args.cap_mode.value,
        "hwrb": hwrb_indicator(w),
    }
    if (frames := args.frames) is not None:
        result["frames"] = frames
        result["game_time_days"] = round(game_time_days(frames), 3)
        result["hns_efficiency"] = format_efficiency(learning_efficiency(h, frames))
        result["hwrns_efficiency"] = format_efficiency(learning_efficiency(w, frames))
    if args.format == "json":
        print(json_text(result))
    else:
        for key, value in result.items():
            print(f"{key}: {value}")
    return 0


def _cmd_aggregate(args) -> int:
    registry = _load_registry(args)
    report = _module.evaluate(_load_datasets(args), registry, args.cap_mode)
    if args.format == "json":
        _emit(_module.report_to_json(report) + "\n", args)
        return 0
    lines = []
    for algo in report.algorithms():
        rows = report.aggregates[algo]
        lines.append(f"{algo} (frames {format_number(report.frames[algo])}, "
                     f"coverage {rows[MetricKind.HNS].coverage}/{len(CANONICAL_GAMES)})")
        for kind in METRIC_KINDS:
            row = rows[kind]
            lines.append(
                f"  {kind.value:6s} mean {format_percent(row.mean):>10s}%  "
                f"median {format_percent(row.median):>9s}%  "
                f"eff {format_efficiency(row.efficiency_mean)}")
        lines.append(f"  hwrb   {rows[MetricKind.HWRNS].hwrb_count}")
    _emit("\n".join(lines) + "\n", args)
    return 0


def _cmd_report(args) -> int:
    from hwrbench.report import TableLayout

    registry = _load_registry(args)
    report = _module.evaluate(_load_datasets(args), registry, args.cap_mode)
    algos = tuple(args.algorithms) if args.algorithms else tuple(report.algorithms())
    layout = TableLayout(metric=MetricKind(args.metric), algorithms=algos)
    _emit(_module.render_table(report, layout, fmt=args.format), args)
    return 0


def _cmd_protocol_check(args) -> int:
    from hwrbench.protocol import (
        DEFAULT_FRAME_BUDGET,
        FULL_ACTION_SET,
        check_conformance,
        final_score,
        iter_episodes,
    )

    # Episodes are folded as they stream out of the log; only what is
    # printed is kept, so memory grows with k, not with the log.
    episodes = total_env_frames = 0
    anomalies: set[str] = set()
    last_returns: deque[float] = deque(maxlen=min(args.k, sys.maxsize))  # a C ssize_t
    if args.log == "-" and sys.stdin is None:  # fd 0 is closed, so Python set it to None
        raise BenchmarkError("<stdin>: standard input is closed")
    # Raw bytes from stdin, as from a path: a line is decoded only if parsed.
    log = sys.stdin.buffer if args.log == "-" else args.log
    for episode in iter_episodes(log):
        episodes += 1
        total_env_frames += episode.env_frames_used
        anomalies.update(episode.anomalies)
        last_returns.append(episode.episode_return)
    verdict = check_conformance(
        total_env_frames,
        FULL_ACTION_SET if args.action_set is None else args.action_set,
        DEFAULT_FRAME_BUDGET if args.budget is None else args.budget)
    result = {
        "conforming": verdict.conforming,
        "violations": [{"code": v.code, "detail": v.detail} for v in verdict.violations],
        "episodes": episodes,
        "total_env_frames": total_env_frames,
        "game_time_days": round(game_time_days(total_env_frames), 3),
        "anomalies": sorted(anomalies),
    }
    if episodes >= args.k:
        result["training_score"] = final_score(list(last_returns), args.k)
    print(json_text(result))
    return 0 if verdict.conforming else 1


def _cmd_compare(args) -> int:
    registry = _load_registry(args)
    report = _module.evaluate(_load_datasets(args), registry)
    a, b = args.algorithm_a, args.algorithm_b
    wins_a: list[str] = []
    wins_b: list[str] = []
    ties: list[str] = []
    result = {"algorithms": [a, b], "games_compared": 0, "ties": ties}  # the output's fixed keys
    for name in (a, b):
        if name not in report.aggregates:
            raise BenchmarkError(f"algorithm {name!r} not present in the datasets")
        if name in result:
            raise BenchmarkError(f"algorithm {name!r} is a key of compare's output")
    if a == b:
        raise BenchmarkError(f"algorithm {a!r} compared with itself")
    cells_a, cells_b = report.cells[a], report.cells[b]
    for game in sorted(cells_a.keys() & cells_b.keys()):
        value_a = cells_a[game].metrics[MetricKind.HWRNS]
        value_b = cells_b[game].metrics[MetricKind.HWRNS]
        if value_a == value_b:
            ties.append(game)
        elif value_a > value_b:
            wins_a.append(game)
        else:
            wins_b.append(game)
    result["games_compared"] = len(wins_a) + len(wins_b) + len(ties)
    result[a] = {"wins": len(wins_a), "games": wins_a}
    result[b] = {"wins": len(wins_b), "games": wins_b}
    result["ties"] = result.pop("ties")  # last, after the two algorithms
    print(json_text(result))
    return 0


def _cmd_reproduce(args) -> int:
    from hwrbench.report import FIGURES
    from hwrbench.reproduce import run_reproduction, summary_lines, write_artifacts

    # Reference tables apply only the upper cap, so reproduction always
    # runs in table-compat mode and writes fixed formats.
    result = run_reproduction(baselines=_load_registry(args))
    written = write_artifacts(result, args.out)
    for line in summary_lines(result):
        print(line)
    print(f"artifacts: {', '.join(str(p) for p in written[:2])}, "
          f"{len(result.layouts)} tables and {len(FIGURES)} figure series under {args.out}/")
    return 0


_BASELINES = {"help": "baseline CSV path (default: bundled)"}
_DATASET = {"action": "append",
            "help": "dataset CSV path or bundled label; repeatable (default: all bundled)"}
_CAP_MODE = {"type": CapMode, "choices": [m.value for m in CapMode],
             "default": CapMode.SPEC_FLOOR}
_OUT = {"type": out_path, "help": "write output to this path instead of stdout"}

# Each verb's summary, command and arguments in help order: an option string,
# or a positional's name, maps to the keywords of argparse's ``add_argument``.
# ``build_parser`` and ``_parse_flags`` both read this table.
VERBS = {
    "validate": ("check baseline and dataset integrity", _cmd_validate,
                 {"--baselines": _BASELINES, "--dataset": _DATASET}),
    "score": ("normalize one raw score", _cmd_score, {
        "--baselines": _BASELINES, "--cap-mode": _CAP_MODE,
        "--format": {"choices": ("table", "json"), "default": "table"},
        "--game": {"required": True},
        "--score": {"type": finite_float, "required": True},
        "--frames": {"type": positive_frames,
                     "help": "training frames, for game time and efficiency"}}),
    "aggregate": ("aggregate rows per algorithm", _cmd_aggregate, {
        "--baselines": _BASELINES, "--dataset": _DATASET, "--cap-mode": _CAP_MODE,
        "--out": _OUT, "--format": {"choices": ("table", "json"), "default": "table"}}),
    "report": ("render a full score table", _cmd_report, {
        "--baselines": _BASELINES, "--dataset": _DATASET, "--cap-mode": _CAP_MODE,
        "--out": _OUT, "--format": {"choices": ("table", "csv"), "default": "table"},
        "--metric": {"default": "hwrns", "choices": [k.value for k in METRIC_KINDS]},
        "--algorithms": {"nargs": "+", "help": "columns to include (default: all)"}}),
    "protocol-check": ("check an episode log for conformance", _cmd_protocol_check, {
        "--log": {"required": True, "help": "episode log path, or - for stdin"},
        "--k": {"type": positive_int, "default": 1, "help": "training-score averaging window"},
        "--budget": {"type": positive_frames,
                     "help": "frame budget (scientific notation accepted)"},
        "--action-set": {"type": positive_int, "help": "declared action-space dimension"}}),
    "compare": ("per-game HWRNS leader diff between two algorithms", _cmd_compare, {
        "--baselines": _BASELINES, "--dataset": _DATASET, "algorithm_a": {}, "algorithm_b": {}}),
    "reproduce": ("recompute the bundled reference tables and diff them", _cmd_reproduce, {
        "--baselines": _BASELINES,
        "--out": {"type": out_path, "default": "reproduce-out",
                  "help": "output directory (default: reproduce-out)"}}),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of all seven verbs, built from ``VERBS``."""
    import argparse

    class VerbParser(argparse.ArgumentParser):
        def _get_values(self, action, arg_strings):
            if arg_strings == ["--"]:  # ``--flag=--`` or a second ``--``: argparse would store []
                raise argparse.ArgumentError(action, "expected one argument")
            return super()._get_values(action, arg_strings)

    parser = argparse.ArgumentParser(
        prog="hwrbench", description="Human-world-record benchmark scoring for Atari results.")
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=VerbParser)
    for name, (summary, func, arguments) in VERBS.items():
        p = sub.add_parser(name, help=summary)
        for arg, options in arguments.items():
            p.add_argument(arg, **options)
        p.set_defaults(func=func)
    return parser


def _parse_flags(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns for a plain, valid ``argv``.

    It reads an exact verb, exact one-value flags as ``--flag value`` or
    ``--flag=value``, and the verb's positionals, and converts and defaults each
    value as argparse does; a lone ``-`` (stdin) is a value, as in argparse. On
    anything else (``-h``, ``--``, an abbreviation, another value that starts
    with ``-``, a repeated flag, a flag with ``nargs`` or an ``action``, a bad or
    missing value) it returns None for argparse to read.
    """
    if not argv or argv[0] not in VERBS:
        return None
    _summary, func, arguments = VERBS[argv[0]]
    given: dict[str, str] = {}  # an argument's name in the table -> its text
    free = []
    i = 1
    while i < len(argv):
        arg = argv[i]
        i += 1
        if arg == "-" or not arg.startswith("-"):
            free.append(arg)
            continue
        flag, eq, text = arg.partition("=")
        options = arguments.get(flag) if flag.startswith("--") else None
        if options is None or flag in given or "nargs" in options or "action" in options:
            return None
        if not eq and i < len(argv) and (argv[i] == "-" or not argv[i].startswith("-")):
            text, i = argv[i], i + 1
        elif not eq or text == "--":
            return None  # no value, or ``--flag=--``: a usage error for argparse to print
        given[flag] = text
    positionals = [name for name in arguments if not name.startswith("-")]
    if len(free) != len(positionals):
        return None
    given.update(zip(positionals, free))
    values = {}
    for name, options in arguments.items():
        value = options.get("default")
        if name in given:
            try:
                value = options.get("type", str)(given[name])
            except (TypeError, ValueError):
                return None
            if "choices" in options and value not in options["choices"]:
                return None
        elif options.get("required"):
            return None
        values[name.lstrip("-").replace("-", "_")] = value
    return SimpleNamespace(verb=argv[0], func=func, **values)


# Whether ``main`` has registered ``gc.freeze`` with ``atexit``; like the
# ``atexit`` registry itself, this is state of the whole process.
_freeze_registered = False


def main(argv: list[str] | None = None) -> int:
    global _freeze_registered
    # At exit the interpreter collects every module's cyclic garbage one object
    # at a time, memory the OS takes back anyway: 9-12 ms of a verb's child.
    # Freezing the collector first, in an ``atexit`` callback, skips that.
    if not _freeze_registered:
        atexit.register(gc.freeze)
        _freeze_registered = True
    argv = sys.argv[1:] if argv is None else argv
    if sys.stdout is None:  # fd 1 is closed: print into a pipe with no reader, as when one has left
        read, write = os.pipe()
        os.close(read)
        sys.stdout = open(write, "w", encoding="utf-8")
    try:
        try:  # argparse reads help, a usage error, or a line the table reader declines
            args = _parse_flags(argv) or build_parser().parse_args(argv)
            return args.func(args)
        finally:  # what was printed, help too, waits in stdout's buffer: lost, it fails here
            try:
                sys.stdout.flush()
            except OSError as exc:  # devnull takes the flush at exit, as in the ``signal`` docs
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                if isinstance(exc.__context__, SystemExit):  # help keeps its exit status, as
                    raise exc.__context__                     # argparse does when its write fails
                raise
    except BrokenPipeError:
        return 1
    except (BenchmarkError, ValueError, OSError) as exc:  # a verb prints after its last check
        print(f'{{"error": {json_string(type(exc).__name__)}, '
              f'"detail": {json_string(str(exc))}}}', file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
