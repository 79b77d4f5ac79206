"""Command-line interface.

Verbs: validate, score, aggregate, report, protocol-check, compare,
reproduce. Each verb registers only the flags that change its output;
the JSON report is ``aggregate --format json``. Results go to stdout,
diagnostics to stderr; exit status is 0 on success, 1 on data errors,
2 on usage errors. Most flags take their default from an ``HWRBENCH_``
variable (``HWRBENCH_K``, ...), which argparse parses like the flag.
Each verb imports only the modules it runs, so start-up stays short.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
from collections import deque
from pathlib import Path

from hwrbench.errors import BenchmarkError
from hwrbench.games import BaselineRegistry
from hwrbench.metrics import (
    METRIC_KINDS,
    CapMode,
    MetricKind,
    chns,
    game_time_days,
    hns,
    hwrb_indicator,
    hwrns,
    learning_efficiency,
    saber,
)
from hwrbench.numfmt import format_efficiency, format_number, format_percent, parse_frames

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


def _env_default(flag: str, fallback=None):
    return os.environ.get("HWRBENCH_" + flag.upper(), fallback)


def _load_registry(args) -> BaselineRegistry:
    registry = BaselineRegistry.load(args.baselines)
    for warning in registry.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return registry


def _load_datasets(args) -> list:
    from hwrbench.datasets import BUNDLED_DATASETS, load_bundled_dataset, load_dataset

    # --dataset appends, so the environment is read only when it is absent.
    env = _env_default("dataset")
    paths = args.dataset or (env.split(os.pathsep) if env else None)
    if not paths:
        return _module.load_all_bundled()
    return [load_bundled_dataset(p) if p in BUNDLED_DATASETS else load_dataset(p)
            for p in paths]


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be >= 1: {text!r}")
    return value


def positive_frames(text: str) -> int:
    return positive_int(parse_frames(text))


def _add_format(p: argparse.ArgumentParser, *choices: str) -> None:
    def check(text: str) -> str:  # argparse checks ``choices`` on argv, not on defaults
        if text not in choices:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {text!r} (choose from {', '.join(choices)})")
        return text
    p.add_argument("--format", type=check, choices=choices,
                   default=_env_default("format", "table"))


def _emit(text: str, args) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    registry = _load_registry(args)
    print(f"baselines: {len(registry)} games OK ({registry.source})")
    for ds in _load_datasets(args):
        print(f"dataset {ds.label}: {len(ds.records)} records, "
              f"{len(ds.omitted)} N/A cells OK")
    return 0


def _cmd_score(args) -> int:
    baseline = _load_registry(args).lookup(args.game)
    h = hns(args.score, baseline)
    w = hwrns(args.score, baseline)
    s = saber(w, args.cap_mode)
    result = {
        "game": baseline.game,
        "score": args.score,
        "hns_pct": format_percent(h.value),
        "chns_pct": format_percent(chns(h).value),
        "hwrns_pct": format_percent(w.value),
        "saber_pct": format_percent(s.value),
        "cap_mode": s.cap_mode.value,
        "hwrb": hwrb_indicator(w),
    }
    if (frames := args.frames) is not None:
        result["frames"] = frames
        result["game_time_days"] = round(game_time_days(frames), 3)
        result["hns_efficiency"] = format_efficiency(learning_efficiency(h.value, frames))
        result["hwrns_efficiency"] = format_efficiency(learning_efficiency(w.value, frames))
    if args.format == "json":
        print(json.dumps(result, indent=2))
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
                     f"coverage {rows[MetricKind.HNS].coverage}/57)")
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
    fmt = "text" if args.format == "table" else "csv"
    _emit(_module.render_table(report, layout, fmt=fmt), args)
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
    last_returns: deque[float] = deque(maxlen=args.k)
    for episode in iter_episodes(sys.stdin if args.log == "-" else args.log):
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
    print(json.dumps(result, indent=2))
    return 0 if verdict.conforming else 1


def _cmd_compare(args) -> int:
    registry = _load_registry(args)
    report = _module.evaluate(_load_datasets(args), registry)
    a, b = args.algorithm_a, args.algorithm_b
    for name in (a, b):
        if name not in report.aggregates:
            raise BenchmarkError(f"algorithm {name!r} not present in the datasets")
    if a == b:
        raise BenchmarkError(f"algorithm {a!r} compared with itself")
    wins_a: list[str] = []
    wins_b: list[str] = []
    ties: list[str] = []
    cells = report.cells
    for game in sorted(g for algo, g in cells if algo == a and (b, g) in cells):
        value_a = cells[(a, game)].metrics[MetricKind.HWRNS]
        value_b = cells[(b, game)].metrics[MetricKind.HWRNS]
        if value_a == value_b:
            ties.append(game)
        elif value_a > value_b:
            wins_a.append(game)
        else:
            wins_b.append(game)
    result = {
        "algorithms": [a, b],
        "games_compared": len(wins_a) + len(wins_b) + len(ties),
        a: {"wins": len(wins_a), "games": wins_a},
        b: {"wins": len(wins_b), "games": wins_b},
        "ties": ties,
    }
    print(json.dumps(result, indent=2))
    return 0


def _cmd_reproduce(args) -> int:
    from hwrbench.reproduce import run_reproduction, summary_lines, write_artifacts

    # Reference tables apply only the upper cap, so reproduction always
    # runs in table-compat mode and writes fixed formats.
    result = run_reproduction(baselines=_load_registry(args))
    written = write_artifacts(result, args.out)
    for line in summary_lines(result):
        print(line)
    tables = sum(1 for p in written if p.parent.name == "tables")
    figures = sum(1 for p in written if p.parent.name == "figures")
    print(f"artifacts: {', '.join(str(p) for p in written[:2])}, "
          f"{tables} tables and {figures} figure series under {args.out}/")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwrbench",
        description="Human-world-record benchmark scoring for Atari results.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    baselines = argparse.ArgumentParser(add_help=False)
    baselines.add_argument("--baselines", default=_env_default("baselines"),
                           help="baseline CSV path (default: bundled)")
    datasets = argparse.ArgumentParser(add_help=False)
    datasets.add_argument("--dataset", action="append",
                          help="dataset CSV path or bundled label; repeatable "
                               "(default: all bundled)")
    cap_mode = argparse.ArgumentParser(add_help=False)
    cap_mode.add_argument("--cap-mode", type=CapMode, choices=[m.value for m in CapMode],
                          default=_env_default("cap_mode", "spec-floor"))
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=_env_default("out"),
                     help="write output to this path instead of stdout")

    p = sub.add_parser("validate", parents=[baselines, datasets],
                       help="check baseline and dataset integrity")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("score", parents=[baselines, cap_mode], help="normalize one raw score")
    _add_format(p, "table", "json")
    p.add_argument("--game", required=True)
    p.add_argument("--score", type=finite_float, required=True)
    p.add_argument("--frames", type=parse_frames,
                   help="training frames, for game time and efficiency")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("aggregate", parents=[baselines, datasets, cap_mode, out],
                       help="aggregate rows per algorithm")
    _add_format(p, "table", "json")
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("report", parents=[baselines, datasets, cap_mode, out],
                       help="render a full score table")
    _add_format(p, "table", "csv")
    p.add_argument("--metric", default="hwrns", choices=[k.value for k in METRIC_KINDS])
    p.add_argument("--algorithms", nargs="*", default=None,
                   help="columns to include (default: all)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("protocol-check", help="check an episode log for conformance")
    p.add_argument("--log", required=True, help="episode log path, or - for stdin")
    p.add_argument("--k", type=positive_int, default=_env_default("k", "1"),
                   help="training-score averaging window")
    p.add_argument("--budget", type=positive_frames, default=_env_default("budget"),
                   help="frame budget (scientific notation accepted)")
    p.add_argument("--action-set", type=positive_int, default=_env_default("action_set"),
                   help="declared action-space dimension")
    p.set_defaults(func=_cmd_protocol_check)

    p = sub.add_parser("compare", parents=[baselines, datasets],
                       help="per-game HWRNS leader diff between two algorithms")
    p.add_argument("algorithm_a")
    p.add_argument("algorithm_b")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("reproduce", parents=[baselines],
                       help="recompute the bundled reference tables and diff them")
    p.add_argument("--out", default="reproduce-out",
                   help="output directory (default: reproduce-out)")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BenchmarkError, ValueError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
