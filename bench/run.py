#!/usr/bin/env python3
"""hwrbench benchmark: end-to-end CLI timings, or a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload tables --seed 1 --seconds 40 --trace 0

Workloads (closed loop, one client, one CLI child at a time):

* ``tables``: the read-only verbs on the bundled data: ``score``,
  ``validate``, ``aggregate --format json``, ``report --metric hwrns
  --format csv`` and ``compare A B``, interleaved across rounds;
* ``reproduce``: ``reproduce --out <fresh dir>``;
* ``protocol-log``: ``protocol-check --log <log> --k <k>`` on a seeded
  synthetic log of about 300,000 steps.

Every output is checked against ``oracle.py`` or the log generator's
truth (``loggen.py``), never against a saved copy of earlier output.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of ``layers.py`` and
the spans are written to ``.bench_build/traces/``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import loggen
import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "hwrbench" / "data"
BUILD = ROOT / ".bench_build"

WORKLOADS = ("tables", "reproduce", "protocol-log")
CLI = "import sys; from hwrbench.cli import main; sys.exit(main())"
IMPORT = "import hwrbench.cli"
BARE = "pass"  # the reference child: interpreter start-up, no hwrbench code
SETUP_SAMPLES = 11  # fresh interpreters per start-up measurement
FRAMES_TEXT, FRAMES = "2e8", 200_000_000
DEADLINE_S = 170


class Children:
    """Spawns one child at a time; records wall time and peak RSS via wait4."""

    def __init__(self, work: Path) -> None:
        # HWRBENCH_* variables would change the verbs' defaults. Bytecode
        # caching stays on, as it is for an installed package.
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("HWRBENCH_") and k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(SRC)
        self.out, self.err = work / "stdout", work / "stderr"
        self.pid: int | None = None
        self.peak_rss_kb = 0

    def spawn(self, *args: str) -> tuple[float, int, str, int]:
        """Run one child to its end: (wall s, exit code, stdout, peak RSS KiB)."""
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(self.out), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(self.err), flags, 0o644)]
        t0 = time.perf_counter()
        self.pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env,
                                  file_actions=actions)
        _, status, usage = os.wait4(self.pid, 0)
        wall = time.perf_counter() - t0
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            sys.stderr.write(self.err.read_text(encoding="utf-8", errors="replace"))
        return wall, code, self.out.read_text(encoding="utf-8"), usage.ru_maxrss

    def cli(self, *argv: str) -> tuple[float, int, str]:
        wall, code, out, rss_kb = self.spawn("-c", CLI, *argv)
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        return wall, code, out

    def startup(self, code: str, n: int) -> list[float]:
        """Wall times of ``n`` fresh interpreters running ``code``, after a
        warm-up that writes the bytecode caches."""
        self.spawn("-c", code)
        return [self.spawn("-c", code)[0] for _ in range(n)]

    def stop(self) -> None:
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def table_verbs(tables: oracle.Tables, rng: random.Random):
    """Round ``i`` of the ``tables`` workload: (verb, argv, check) triples.

    The seed picks the ``score`` game and raw score and the ``compare``
    pair; the verb order rotates from round to round.
    """
    def round_verbs(i: int):
        game = rng.choice(tables.games)
        low, _human, record = tables.base[game]
        score = f"{low + (record - low) * rng.uniform(-0.2, 2.5):.1f}"
        a, b = rng.sample(tables.algos, 2)
        verbs = [
            ("score", ["score", "--game", game, f"--score={score}", "--frames", FRAMES_TEXT],
             lambda out: oracle.check_score(out, tables, game, score, FRAMES)),
            ("validate", ["validate"], lambda out: oracle.check_validate(out, tables)),
            ("aggregate", ["aggregate", "--format", "json"],
             lambda out: oracle.check_report_json(out, tables, "spec-floor")),
            ("report", ["report", "--metric", "hwrns", "--format", "csv"],
             lambda out: oracle.check_report_csv(out, tables, "hwrns")),
            ("compare", ["compare", a, b], lambda out: oracle.check_compare(out, tables, a, b)),
        ]
        shift = i % len(verbs)
        return verbs[shift:] + verbs[:shift]
    return round_verbs


def make_log(work: Path, seed: int) -> tuple[Path, loggen.LogTruth]:
    log = work / "train.log"
    t0 = time.perf_counter()
    truth = loggen.generate(log, seed, loggen.published_ks(DATA))
    print(f"log: {truth.steps} steps, {len(truth.returns)} episodes, k={truth.k}, "
          f"generated in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return log, truth


def measure(workload: str, seed: int, seconds: float, children: Children, work: Path):
    """Closed loop of whole rounds until ``seconds`` pass; end-to-end metrics."""
    tables = oracle.Tables(DATA)
    rng = random.Random(seed)
    if workload == "tables":
        next_round = table_verbs(tables, rng)
    elif workload == "reproduce":
        def next_round(i: int):
            out = work / f"reproduce-{i}"

            def check(text: str) -> list[str]:
                try:
                    return oracle.check_reproduce_dir(out, text, tables)
                finally:
                    shutil.rmtree(out, ignore_errors=True)
            return [("reproduce", ["reproduce", "--out", str(out)], check)]
    else:
        log, truth = make_log(work, seed)

        def next_round(i: int):
            return [("protocol-check", ["protocol-check", "--log", str(log), "--k", str(truth.k)],
                     lambda text: loggen.check_protocol(text, truth))]

    # Start-up and the reference child are sampled before the loop and once
    # per round, so that their medians span the whole run.
    setup = children.startup(IMPORT, SETUP_SAMPLES // 2)
    bare = children.startup(BARE, SETUP_SAMPLES // 2)
    rounds: list[float] = []
    per_verb: dict[str, list[float]] = {}
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        setup.append(children.spawn("-c", IMPORT)[0])
        bare.append(children.spawn("-c", BARE)[0])
        round_s = 0.0
        for verb, argv, check in next_round(len(rounds)):
            wall, code, out = children.cli(*argv)
            attempted += 1
            if code != 0:
                failed += 1
                continue
            per_verb.setdefault(verb, []).append(wall)
            round_s += wall
            problems += check(out)
        rounds.append(round_s)

    for verb, walls in per_verb.items():
        print(f"{verb}: median {statistics.median(walls) * 1e3:.1f} ms over {len(walls)} runs",
              file=sys.stderr)
    print(f"round: median {statistics.median(rounds) * 1e3:.1f} ms over {len(rounds)} rounds; "
          f"bare interpreter: median {statistics.median(bare) * 1e3:.1f} ms", file=sys.stderr)
    if workload == "protocol-log" and per_verb:
        rate = truth.steps / statistics.median(per_verb["protocol-check"])
        print(f"protocol-check: {rate:,.0f} steps/s", file=sys.stderr)
    # The machine's speed drifts by a fifth or more over minutes; dividing by
    # a bare interpreter start measured in the same run cancels most of it.
    metrics = {
        "round_rel": {"value": statistics.median(rounds) / statistics.median(bare),
                      "unit": "x"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": children.peak_rss_kb / 1024, "unit": "MB"},
    }
    return metrics, attempted, failed, problems


def trace(workload: str, seed: int, seconds: float, children: Children, work: Path):
    """Per-layer metrics from in-process spans; also writes the trace JSON."""
    bare = children.startup(BARE, SETUP_SAMPLES)
    imported = children.startup(IMPORT, SETUP_SAMPLES)
    sys.path.insert(0, str(SRC))
    import layers  # imports hwrbench from the checkout

    tables = oracle.Tables(DATA)
    log, truth = make_log(work, seed)
    verbs = table_verbs(tables, random.Random(seed))
    metrics, attempted, failed, problems, doc = layers.traced_run(
        seconds, verbs, tables, log, truth, work / "artifacts")
    metrics["cli.import_self_ms"] = {
        "value": (statistics.median(imported) - statistics.median(bare)) * 1e3, "unit": "ms"}

    out_dir = BUILD / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}.json"
    doc.update(workload=workload, seed=seed, metrics=metrics)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    over = doc["overhead"]
    print(f"trace: {doc['rounds']} rounds, {len(doc['spans'])} spans -> {path}; a table-layer "
          f"pass takes {over['table_layers_traced_ms']:.1f} ms traced, "
          f"{over['table_layers_untraced_ms']:.1f} ms untraced ({over['overhead_pct']:+.2f}%); "
          f"one span costs {over['span_cost_us']:.2f} us", file=sys.stderr)
    return metrics, attempted, failed, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hwrbench" / "cli.py").is_file():
        print(f"error: no hwrbench sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    def expire(_signum, _frame):
        raise TimeoutError(f"benchmark exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE_S)
    work = BUILD / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    children = Children(work)
    try:
        run = trace if args.trace else measure
        metrics, attempted, failed, problems = run(
            args.workload, args.seed, args.seconds, children, work)
    finally:
        signal.alarm(0)
        children.stop()
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
