"""Traced run: in-process spans around the public calls of each module.

Spans (name, start, end, parent) are kept in memory and written as JSON
when the run ends. Besides the direct calls named by the per-layer
metrics, a few module-level references inside ``hwrbench.cli`` and
``hwrbench.reproduce`` are wrapped while tracing, so nested calls show up
as child spans; a span's self time is its duration minus its children.
``reproduce.diff_self_ms`` is exactly that: ``run_reproduction`` minus
its own table-compat ``evaluate``.

Nothing here changes the program. This module imports ``hwrbench`` and
is loaded only for ``--trace 1``.
"""

from __future__ import annotations

import functools
import io
import shutil
import statistics
import time
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import hwrbench.cli
import hwrbench.reproduce
from hwrbench.aggregate import MetricColumn, aggregate
from hwrbench.datasets import load_all_bundled
from hwrbench.games import BaselineRegistry
from hwrbench.metrics import CapMode, MetricKind, chns, hns, hwrns, saber
from hwrbench.numfmt import format_percent
from hwrbench.protocol import (
    accumulate_episode,
    ledger_from_log,
    read_episode_log,
    training_score,
)
from hwrbench.report import (
    FIGURES,
    TableLayout,
    emit_plot_series,
    evaluate,
    render_table,
    report_to_json,
)
from hwrbench.reproduce import run_reproduction, write_artifacts

import loggen
import oracle

# Module references wrapped while tracing, so calls made inside the
# program appear as child spans.
INSTRUMENTED = [
    (hwrbench.cli, "evaluate"), (hwrbench.cli, "report_to_json"),
    (hwrbench.cli, "render_table"), (hwrbench.cli, "load_all_bundled"),
    (hwrbench.reproduce, "evaluate"),
]
TABLE_PASSES = 3


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start_ns": time.perf_counter_ns(), "end_ns": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def instrument(self, targets):
        saved = [(module, attr, getattr(module, attr)) for module, attr in targets]

        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with self.span(f"{fn.__module__}.{fn.__qualname__}"):
                    return fn(*args, **kwargs)
            return traced

        for module, attr, fn in saved:
            setattr(module, attr, wrap(fn))
        try:
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def finished(self) -> list[dict]:
        """Spans with their self time (duration minus child durations)."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
        return [{**s, "self_ns": s["end_ns"] - s["start_ns"] - child_ns[s["id"]]}
                for s in self.spans]


def _no_span(_name: str):
    return nullcontext()


def _cli(span, verb: str, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with span(f"cli.main_{verb}"), redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = hwrbench.cli.main(argv)
    return code, out.getvalue()


def table_layers(span, verbs, scratch: Path) -> dict:
    """One pass over the table layers; returns what the checks need."""
    got: dict = {"cli": [(check, *_cli(span, verb, argv)) for verb, argv, check in verbs]}
    with span("games.load_baselines"):
        registry = BaselineRegistry.load()
    with span("datasets.load_all"):
        datasets = load_all_bundled()
    records = [r for ds in datasets for r in ds.records]
    bases = [registry.lookup(r.game) for r in records]
    with span("metrics.kernel"):
        cells = []
        for rec, base in zip(records, bases):
            h, w = hns(rec.score, base), hwrns(rec.score, base)
            cells.append((rec, h, chns(h), w, saber(w, CapMode.SPEC_FLOOR)))
    columns: dict[tuple[str, MetricKind], dict] = {}
    frames = {}
    for rec, *values in cells:
        frames[rec.algorithm] = rec.frames
        for value in values:
            columns.setdefault((rec.algorithm, value.kind), {})[rec.game] = value
    columns = {key: MetricColumn(key[0], key[1], entries) for key, entries in columns.items()}
    with span("aggregate.rows"):
        for (algo, _kind), column in columns.items():
            aggregate(column, frames[algo])
    with span("report.evaluate"):
        report = evaluate(datasets, registry, CapMode.SPEC_FLOOR)
    with span("report.to_json"):
        got["json"] = report_to_json(report)
    layout = TableLayout(MetricKind.HWRNS, tuple(report.algorithms()))
    with span("report.render_csv"):
        got["csv"] = render_table(report, layout, fmt="csv")
    with span("report.evaluate_table_compat"):
        compat = evaluate(datasets, registry, CapMode.TABLE_COMPAT)
    with span("report.plot_series"):
        for figure in FIGURES:
            emit_plot_series(compat, figure)
    values = [v.value for _rec, *vs in cells for v in vs]
    with span("numfmt.format_percent"):
        for value in values:
            format_percent(value)
    with span("reproduce.run"):
        result = run_reproduction(registry, datasets)
    shutil.rmtree(scratch, ignore_errors=True)
    with span("reproduce.write_artifacts"):
        write_artifacts(result, scratch)
    got.update(records=len(records), percents=len(values), cells=result.total_cells)
    return got


def protocol_layers(span, log: Path, k: int) -> dict:
    with span("protocol.read_log"):
        episodes = read_episode_log(log)
    steps = sum(len(ep) for ep in episodes)
    with span("protocol.fold"):
        summaries = [accumulate_episode(ep) for ep in episodes]
    del episodes
    returns = [s.episode_return for s in summaries]
    with span("protocol.training_score"):
        final = training_score(returns, k).final
    with span("protocol.ledger"):
        ledger = ledger_from_log(log, averaging_k=k)
    return {"steps": steps, "summaries": summaries, "final": final, "ledger": ledger}


def check_tables(got: dict, tables: oracle.Tables, scratch: Path) -> list[str]:
    problems = []
    for check, code, out in got["cli"]:
        if code == 0:  # a failed call is counted in ``failed``, not checked
            problems += check(out)
    problems += oracle.check_report_json(got["json"], tables, "spec-floor")
    problems += oracle.check_report_csv(got["csv"], tables, "hwrns")
    problems += oracle.check_reproduce_dir(scratch, None, tables)
    if got["records"] != tables.records:
        problems.append(f"{got['records']} records != expected {tables.records}")
    return problems


def check_protocol(got: dict, truth: loggen.LogTruth) -> list[str]:
    problems = loggen.check_episodes(got["summaries"], truth)
    ledger = got["ledger"]
    expected = truth.expected_check()
    if got["steps"] != truth.steps:
        problems.append(f"{got['steps']} steps != expected {truth.steps}")
    if got["final"] != expected["training_score"]:
        problems.append(f"training score {got['final']} != {expected['training_score']}")
    if (len(ledger.episodes), ledger.total_env_frames) != \
            (expected["episodes"], expected["total_env_frames"]):
        problems.append("ledger episode or frame total differs from the log")
    return problems


def span_cost_us(n: int = 10_000) -> float:
    """Cost of recording one empty span, in microseconds."""
    tracer = Tracer()
    t0 = time.perf_counter()
    for _ in range(n):
        with tracer.span("empty"):
            pass
    return (time.perf_counter() - t0) / n * 1e6


def traced_run(seconds: float, verbs_for_round, tables: oracle.Tables,
               log: Path, truth: loggen.LogTruth, scratch: Path):
    """Whole rounds until ``seconds`` pass, after one untraced warm-up pass.

    A round runs the table layers ``TABLE_PASSES`` times traced and as
    often untraced (the difference is the tracing overhead), then the
    protocol layers once, traced. Returns (per-layer metrics
    except ``cli.import_self_ms``, attempted, failed, problems, trace
    document).
    """
    tracer = Tracer()
    traced_s: list[float] = []
    untraced_s: list[float] = []
    rounds = attempted = failed = 0
    problems: list[str] = []
    table_layers(_no_span, verbs_for_round(0), scratch)
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        verbs = verbs_for_round(rounds)
        first = len(tracer.spans)
        for p in range(TABLE_PASSES):
            # Which pass goes first alternates, so neither gains from the other's warm-up.
            for traced in (True, False) if (rounds * TABLE_PASSES + p) % 2 else (False, True):
                t0, before = time.perf_counter(), len(tracer.spans)
                if traced:
                    with tracer.instrument(INSTRUMENTED):
                        got = table_layers(tracer.span, verbs, scratch)
                    traced_s.append(time.perf_counter() - t0)
                    pass_spans = len(tracer.spans) - before
                else:
                    table_layers(_no_span, verbs, scratch)
                    untraced_s.append(time.perf_counter() - t0)
            problems += check_tables(got, tables, scratch)
            failed += sum(1 for _check, code, _out in got["cli"] if code != 0)
        with tracer.instrument(INSTRUMENTED):
            proto = protocol_layers(tracer.span, log, truth.k)
        problems += check_protocol(proto, truth)
        attempted += sum(1 for s in tracer.spans[first:] if s["parent"] is None)
        rounds += 1
    shutil.rmtree(scratch, ignore_errors=True)

    spans = tracer.finished()

    def med(name: str, unit: str, per: int = 1, self_time: bool = False) -> dict:
        ns = [s["self_ns"] if self_time else s["end_ns"] - s["start_ns"]
              for s in spans if s["name"] == name and s["parent"] is None]
        scale = {"s": 1e9, "ms": 1e6, "us": 1e3}[unit]
        return {"value": statistics.median(ns) / scale / per, "unit": unit}

    def count(n: int) -> dict:
        return {"value": n, "unit": "count"}

    metrics = {f"cli.main_{verb}_ms": med(f"cli.main_{verb}", "ms") for verb, _a, _c in verbs}
    metrics.update({
        "games.load_baselines_ms": med("games.load_baselines", "ms"),
        "datasets.load_all_ms": med("datasets.load_all", "ms"),
        "datasets.records": count(got["records"]),
        "metrics.kernel_us_per_record": med("metrics.kernel", "us", per=got["records"]),
        "aggregate.rows_ms": med("aggregate.rows", "ms"),
        "report.evaluate_ms": med("report.evaluate", "ms"),
        "report.evaluate_table_compat_ms": med("report.evaluate_table_compat", "ms"),
        "report.to_json_ms": med("report.to_json", "ms"),
        "report.render_csv_ms": med("report.render_csv", "ms"),
        "report.plot_series_ms": med("report.plot_series", "ms"),
        "numfmt.format_percent_us": med("numfmt.format_percent", "us", per=got["percents"]),
        "reproduce.run_ms": med("reproduce.run", "ms"),
        "reproduce.diff_self_ms": med("reproduce.run", "ms", self_time=True),
        "reproduce.write_artifacts_ms": med("reproduce.write_artifacts", "ms"),
        "reproduce.cells_compared": count(got["cells"]),
        "protocol.read_log_s": med("protocol.read_log", "s"),
        "protocol.fold_s": med("protocol.fold", "s"),
        "protocol.training_score_ms": med("protocol.training_score", "ms"),
        "protocol.ledger_s": med("protocol.ledger", "s"),
        "protocol.steps": count(proto["steps"]),
        "protocol.episodes": count(len(proto["summaries"])),
    })
    traced_ms = statistics.median(traced_s) * 1e3
    untraced_ms = statistics.median(untraced_s) * 1e3
    doc = {
        "rounds": rounds,
        "overhead": {
            "table_layers_traced_ms": traced_ms,
            "table_layers_untraced_ms": untraced_ms,
            "overhead_ms": traced_ms - untraced_ms,
            "overhead_pct": 100 * (traced_ms - untraced_ms) / untraced_ms,
            "span_cost_us": span_cost_us(),
            "spans_per_table_pass": pass_spans,
        },
        "spans": spans,
    }
    return metrics, attempted, failed, problems, doc
