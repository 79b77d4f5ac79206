"""Command-line interface.

Verbs: validate, score, aggregate, report, protocol-check, compare,
reproduce. Results go to stdout, diagnostics to stderr; exit status is
0 on success, 1 on data errors, 2 on usage errors. Every flag can also
be supplied through an environment variable with the ``HWRBENCH_``
prefix (``HWRBENCH_BASELINES``, ``HWRBENCH_CAP_MODE``, ...).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from hwrbench.datasets import (
    BUNDLED_DATASETS,
    load_all_bundled,
    load_bundled_dataset,
    load_dataset,
)
from hwrbench.errors import BenchmarkError
from hwrbench.games import BaselineRegistry
from hwrbench.metrics import (
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
from hwrbench.protocol import (
    DEFAULT_FRAME_BUDGET,
    FULL_ACTION_SET,
    check_budget,
    ledger_from_log,
    training_score,
)
from hwrbench.report import (
    METRIC_KINDS,
    TableLayout,
    evaluate,
    render_table,
    report_to_json,
)
from hwrbench.reproduce import run_reproduction, summary_lines, write_artifacts

ENV_PREFIX = "HWRBENCH_"


def _env_default(flag: str, fallback=None):
    return os.environ.get(ENV_PREFIX + flag.upper().replace("-", "_"), fallback)


def _load_registry(args) -> BaselineRegistry:
    registry = BaselineRegistry.load(args.baselines)
    for warning in registry.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return registry


def _load_datasets(args) -> list:
    paths = args.dataset or []
    if not paths:
        return load_all_bundled()
    return [load_bundled_dataset(p) if p in BUNDLED_DATASETS else load_dataset(p)
            for p in paths]


def _cap_mode(args) -> CapMode:
    return CapMode(args.cap_mode)


def _emit(text: str, args) -> None:
    if getattr(args, "out", None):
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
    registry = _load_registry(args)
    baseline = registry.lookup(args.game)
    raw = float(args.score)
    h = hns(raw, baseline)
    w = hwrns(raw, baseline)
    s = saber(w, _cap_mode(args))
    result = {
        "game": baseline.game,
        "score": raw,
        "hns_pct": format_percent(h.value),
        "chns_pct": format_percent(chns(h).value),
        "hwrns_pct": format_percent(w.value),
        "saber_pct": format_percent(s.value),
        "cap_mode": s.cap_mode.value,
        "hwrb": hwrb_indicator(w),
    }
    if args.frames:
        frames = parse_frames(args.frames)
        result["frames"] = frames
        result["game_time_days"] = round(game_time_days(frames), 3)
        result["hns_efficiency"] = format_efficiency(
            learning_efficiency(h.value, frames).value)
        result["hwrns_efficiency"] = format_efficiency(
            learning_efficiency(w.value, frames).value)
    if args.format == "json":
        print(json.dumps(result, indent=2))
    else:
        for key, value in result.items():
            print(f"{key}: {value}")
    return 0


def _cmd_aggregate(args) -> int:
    registry = _load_registry(args)
    report = evaluate(_load_datasets(args), registry, _cap_mode(args))
    if args.format == "json":
        _emit(report_to_json(report) + "\n", args)
        return 0
    lines = []
    for algo in report.algorithms():
        rows = report.aggregates[algo]
        hwrb = rows[MetricKind.HWRNS].hwrb_count
        lines.append(f"{algo} (frames {format_number(report.frames[algo])}, "
                     f"coverage {rows[MetricKind.HNS].coverage}/57)")
        for kind in METRIC_KINDS:
            row = rows[kind]
            lines.append(
                f"  {kind.value:6s} mean {format_percent(row.mean):>10s}%  "
                f"median {format_percent(row.median):>9s}%  "
                f"eff {format_efficiency(row.efficiency_mean.value)}")
        lines.append(f"  hwrb   {hwrb}")
    _emit("\n".join(lines) + "\n", args)
    return 0


def _cmd_report(args) -> int:
    registry = _load_registry(args)
    report = evaluate(_load_datasets(args), registry, _cap_mode(args))
    if args.format == "json":
        _emit(report_to_json(report) + "\n", args)
        return 0
    metric = MetricKind(args.metric)
    algos = tuple(args.algorithms) if args.algorithms else tuple(report.algorithms())
    layout = TableLayout(metric=metric, algorithms=algos)
    fmt = "csv" if args.format == "csv" else "text"
    _emit(render_table(report, layout, fmt=fmt), args)
    return 0


def _cmd_protocol_check(args) -> int:
    ledger = ledger_from_log(
        args.log,
        action_set=args.action_set,
        averaging_k=args.k,
        budget=parse_frames(args.budget),
    )
    verdict = check_budget(ledger)
    returns = [ep.episode_return for ep in ledger.episodes]
    result = {
        "conforming": verdict.conforming,
        "violations": [{"code": v.code, "detail": v.detail} for v in verdict.violations],
        "episodes": len(ledger.episodes),
        "total_env_frames": ledger.total_env_frames,
        "game_time_days": round(game_time_days(ledger.total_env_frames), 3),
        "anomalies": sorted({a for ep in ledger.episodes for a in ep.anomalies}),
    }
    if len(returns) >= args.k:
        result["training_score"] = training_score(returns, args.k).final
    print(json.dumps(result, indent=2))
    return 0 if verdict.conforming else 1


def _cmd_compare(args) -> int:
    registry = _load_registry(args)
    report = evaluate(_load_datasets(args), registry, _cap_mode(args))
    a, b = args.algorithm_a, args.algorithm_b
    for name in (a, b):
        if name not in report.aggregates:
            raise BenchmarkError(f"algorithm {name!r} not present in the datasets")
    wins_a: list[str] = []
    wins_b: list[str] = []
    ties: list[str] = []
    cells = report.cells
    for game in sorted(g for algo, g in cells if algo == a and (b, g) in cells):
        value_a = cells[(a, game)].metrics[MetricKind.HWRNS].value
        value_b = cells[(b, game)].metrics[MetricKind.HWRNS].value
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
    registry = _load_registry(args)
    # Reference tables apply only the upper cap, so reproduction always
    # runs in table-compat mode and writes fixed formats.
    result = run_reproduction(baselines=registry)
    out_dir = args.out or "reproduce-out"
    written = write_artifacts(result, out_dir)
    for line in summary_lines(result):
        print(line)
    tables = sum(1 for p in written if p.parent.name == "tables")
    figures = sum(1 for p in written if p.parent.name == "figures")
    print(f"artifacts: {', '.join(str(p) for p in written[:2])}, "
          f"{tables} tables and {figures} figure series under {out_dir}/")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwrbench",
        description="Human-world-record benchmark scoring for Atari results.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, datasets=True, modes=True):
        p.add_argument("--baselines", default=_env_default("baselines"),
                       help="baseline CSV path (default: bundled)")
        if modes:
            p.add_argument("--cap-mode", default=_env_default("cap_mode", "spec-floor"),
                           choices=[m.value for m in CapMode])
            p.add_argument("--format", default=_env_default("format", "table"),
                           choices=["table", "csv", "json"])
        p.add_argument("--out", default=_env_default("out"),
                       help="write output to this path instead of stdout")
        if datasets:
            p.add_argument("--dataset", action="append",
                           default=_env_default_datasets(),
                           help="dataset CSV path or bundled label; repeatable "
                                "(default: all bundled)")

    p = sub.add_parser("validate", help="check baseline and dataset integrity")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("score", help="normalize one raw score")
    common(p, datasets=False)
    p.add_argument("--game", required=True)
    p.add_argument("--score", required=True)
    p.add_argument("--frames", default=None,
                   help="training frames, for game time and efficiency")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("aggregate", help="aggregate rows per algorithm")
    common(p)
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("report", help="render a full score table")
    common(p)
    p.add_argument("--metric", default="hwrns",
                   choices=[k.value for k in METRIC_KINDS])
    p.add_argument("--algorithms", nargs="*", default=None,
                   help="columns to include (default: all)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("protocol-check", help="check an episode log for conformance")
    p.add_argument("--log", required=True, help="episode log path")
    p.add_argument("--k", type=int, default=int(_env_default("k", "1")),
                   help="training-score averaging window")
    p.add_argument("--budget", default=_env_default("budget", str(DEFAULT_FRAME_BUDGET)),
                   help="frame budget (scientific notation accepted)")
    p.add_argument("--action-set", type=int,
                   default=int(_env_default("action_set", str(FULL_ACTION_SET))),
                   help="declared action-space dimension")
    p.set_defaults(func=_cmd_protocol_check)

    p = sub.add_parser("compare", help="per-game leader diff between two algorithms")
    common(p)
    p.add_argument("algorithm_a")
    p.add_argument("algorithm_b")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("reproduce",
                       help="recompute the bundled reference tables and diff them")
    common(p, datasets=False, modes=False)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def _env_default_datasets():
    value = _env_default("dataset")
    return value.split(os.pathsep) if value else None


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
