"""Independent recomputation of every table output, and the checks that use it.

Standard library only, and nothing here imports ``hwrbench``: the
expected values are derived straight from ``baselines.csv``, the dataset
CSVs and ``golden/printed_cells.csv`` / ``printed_aggregates.csv`` using
the definitions stated in the project README (HNS, CHNS, HWRNS, SABER in
both cap modes, mean/median, HWRB, leaders, learning efficiency, the
0.02 pp golden-cell match). Each ``check_*`` function returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

# The CLI's default dataset list, in its documented order.
BUNDLED = ("sota-200m-model-free", "sota-10bplus-model-free",
           "sota-model-based", "sota-other")
KINDS = ("hns", "chns", "hwrns", "saber")
FRAMES_PER_DAY = 108000 * 2 * 24
CELL_TOLERANCE_PP = 0.02
AGGREGATE_TOLERANCE_PP = 0.5


def pct(ratio: float) -> str:
    """Percent text with two half-up-rounded decimals."""
    return f"{Decimal(repr(ratio * 100.0)).quantize(Decimal('0.01'), ROUND_HALF_UP)}"


def num(value: float) -> str:
    """Integral values print without a decimal point."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def eff(value: float) -> str:
    return f"{value:.2E}"


def _number(text: str | None) -> float | None:
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _median(values: list[float]) -> float:
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Tables:
    """Expected outputs of the table verbs and of ``reproduce``."""

    def __init__(self, data_dir: Path) -> None:
        self.data_dir = data_dir
        self.base: dict[str, tuple[float, float, float]] = {}
        for row in _rows(data_dir / "baselines.csv"):
            self.base[row["game"]] = (float(row["random"]), float(row["human_average"]),
                                      float(row["human_world_record"]))
        self.games = list(self.base)
        self.algos: list[str] = []
        self.frames: dict[str, int] = {}
        self.raw: dict[tuple[str, str], float] = {}
        self.missing: dict[str, list[str]] = {}
        self.dataset_counts: list[tuple[str, int, int]] = []
        for label in BUNDLED:
            n = na = 0
            for row in _rows(data_dir / "datasets" / f"{label}.csv"):
                algo, game = row["algorithm"], row["game"]
                if algo not in self.algos:
                    self.algos.append(algo)
                if row["score"].strip().upper() == "N/A":
                    self.missing.setdefault(algo, []).append(game)
                    na += 1
                    continue
                self.raw[(algo, game)] = float(row["score"])
                self.frames[algo] = int(row["frames"])
                n += 1
            self.dataset_counts.append((label, n, na))
        self.records = len(self.raw)
        best: dict[str, float] = {}
        for (algo, game), score in self.raw.items():
            best[game] = max(best.get(game, score), score)
        self.leaders = {g: sorted(a for a in self.algos if self.raw.get((a, g)) == best[g])
                        for g in self.games if g in best}
        self._cells: dict[str, dict] = {}
        self._aggs: dict[str, dict] = {}
        self._reproduction: dict | None = None

    # -- metric kernel ---------------------------------------------------------

    def metrics(self, game: str, score: float, mode: str) -> dict[str, float]:
        random, human, record = self.base[game]
        h = (score - random) / (human - random)
        w = (score - random) / (record - random)
        s = min(w, 2.0)
        if mode == "spec-floor":
            s = max(s, 0.0)
        return {"hns": h, "chns": min(max(h, 0.0), 1.0), "hwrns": w, "saber": s}

    def cells(self, mode: str) -> dict:
        if mode not in self._cells:
            self._cells[mode] = {key: self.metrics(key[1], score, mode)
                                 for key, score in self.raw.items()}
        return self._cells[mode]

    def aggregates(self, mode: str) -> dict[str, dict[str, dict]]:
        if mode not in self._aggs:
            cells = self.cells(mode)
            out: dict[str, dict[str, dict]] = {}
            for algo in self.algos:
                out[algo] = {}
                for kind in KINDS:
                    values = [cells[(algo, g)][kind] for g in self.games if (algo, g) in cells]
                    mean, median = math.fsum(values) / len(values), _median(values)
                    row = {"mean": mean, "median": median, "coverage": len(values),
                           "efficiency_mean": mean / self.frames[algo],
                           "efficiency_median": median / self.frames[algo]}
                    if kind == "hwrns":
                        row["hwrb"] = sum(1 for v in values if v >= 1.0)
                    out[algo][kind] = row
            self._aggs[mode] = out
        return self._aggs[mode]

    # -- expected outputs of the read-only verbs -------------------------------

    def validate_text(self) -> list[str]:
        """Expected ``validate`` lines after the first (which names the file)."""
        return [f"dataset {label}: {n} records, {na} N/A cells OK"
                for label, n, na in self.dataset_counts]

    def score(self, game: str, score_text: str, frames: int) -> dict[str, str]:
        score = float(score_text)
        m = self.metrics(game, score, "spec-floor")
        return {
            "game": game, "score": str(score),
            "hns_pct": pct(m["hns"]), "chns_pct": pct(m["chns"]),
            "hwrns_pct": pct(m["hwrns"]), "saber_pct": pct(m["saber"]),
            "cap_mode": "spec-floor", "hwrb": str(m["hwrns"] >= 1.0),
            "frames": str(frames), "game_time_days": str(round(frames / FRAMES_PER_DAY, 3)),
            "hns_efficiency": eff(m["hns"] / frames),
            "hwrns_efficiency": eff(m["hwrns"] / frames),
        }

    def report_dict(self, mode: str) -> dict:
        cells = self.cells(mode)
        per_game: dict[str, dict] = {}
        for (algo, game), m in cells.items():
            per_game.setdefault(algo, {})[game] = {
                "raw": self.raw[(algo, game)], "frames": self.frames[algo], **m}
        aggs = self.aggregates(mode)
        return {
            "cap_mode": mode,
            "baselines": str(self.data_dir / "baselines.csv"),
            "datasets": list(BUNDLED),
            "per_game": per_game,
            "aggregates": {a: {"frames": self.frames[a], **aggs[a]} for a in self.algos},
            "leaders": self.leaders,
            "coverage": {a: {"present": aggs[a]["hns"]["coverage"],
                             "missing": sorted(self.missing.get(a, []))}
                         for a in self.algos},
        }

    def table_csv(self, metric: str, algos: list[str], mode: str) -> str:
        cells, aggs = self.cells(mode), self.aggregates(mode)
        header = ["game"]
        for a in algos:
            header += [a, f"{a} {metric}%"]
        lines = [header]
        for game in self.games:
            if not any((a, game) in cells for a in algos):
                continue
            row = [game]
            for a in algos:
                if (a, game) not in cells:
                    row += ["N/A", "N/A"]
                    continue
                mark = "*" if a in self.leaders[game] else ""
                row += [num(self.raw[(a, game)]) + mark, pct(cells[(a, game)][metric])]
            lines.append(row)
        footer = [
            (f"mean {metric}%", lambda r: pct(r["mean"])),
            ("learning efficiency", lambda r: eff(r["efficiency_mean"])),
            (f"median {metric}%", lambda r: pct(r["median"])),
            ("learning efficiency", lambda r: eff(r["efficiency_median"])),
        ]
        if metric == "hwrns":
            footer.append(("hwrb", lambda r: str(r["hwrb"])))
        footer.append(("coverage", lambda r: f"{r['coverage']}/57"))
        for label, value_of in footer:
            row = [label]
            for a in algos:
                row += ["", value_of(aggs[a][metric])]
            lines.append(row)
        return "\n".join(",".join(r) for r in lines) + "\n"

    def compare(self, a: str, b: str) -> dict:
        cells = self.cells("spec-floor")
        wins: dict[str, list[str]] = {a: [], b: []}
        ties = []
        for game in sorted(g for g in self.games if (a, g) in cells and (b, g) in cells):
            va, vb = cells[(a, game)]["hwrns"], cells[(b, game)]["hwrns"]
            if va == vb:
                ties.append(game)
            else:
                wins[a if va > vb else b].append(game)
        return {"algorithms": [a, b],
                "games_compared": len(wins[a]) + len(wins[b]) + len(ties),
                a: {"wins": len(wins[a]), "games": wins[a]},
                b: {"wins": len(wins[b]), "games": wins[b]},
                "ties": ties}

    # -- expected reproduction -------------------------------------------------

    def reproduction(self) -> dict:
        """Expected ``summary.json``, inconsistency entries and table CSVs."""
        if self._reproduction is None:
            self._reproduction = self._reproduce()
        return self._reproduction

    def _reproduce(self) -> dict:
        cells = self.cells("table-compat")
        aggs = self.aggregates("table-compat")
        golden: dict[tuple[str, str, str], str] = {}
        layout: dict[str, tuple[str, list[str]]] = {}
        for row in _rows(self.data_dir / "golden" / "printed_cells.csv"):
            golden[(row["table"], row["algorithm"], row["game"])] = row["printed_pct"]
            algos = layout.setdefault(row["table"], (row["metric"], []))[1]
            if row["algorithm"] not in algos:
                algos.append(row["algorithm"])
        printed_aggs = {(r["table"], r["algorithm"], r["row"]): r["printed"]
                        for r in _rows(self.data_dir / "golden" / "printed_aggregates.csv")}

        entries: list[tuple[str, str, str, str, str, str]] = []
        tables = {}
        for table, (metric, algos) in layout.items():
            n = matches = 0
            for a in algos:
                for game in self.games:
                    if (a, game) not in cells:
                        continue
                    n += 1
                    text = pct(cells[(a, game)][metric])
                    printed = golden.get((table, a, game))
                    if printed is None or printed.upper() == "N/A":
                        kind = "coverage"
                    elif _number(printed) is None:
                        kind = "malformed"
                    elif abs(float(text) - float(printed)) <= CELL_TOLERANCE_PP + 1e-9:
                        matches += 1
                        continue
                    else:
                        kind = "value"
                    entries.append((table, a, game, kind, text,
                                    "<absent>" if printed is None else printed))
            tables[table] = {"cells": n, "matches": matches,
                             "match_rate": matches / n if n else 1.0}
        dirty = {(e[0], e[1]) for e in entries}

        checks = clean = clean_matches = 0
        for table, (metric, algos) in layout.items():
            for a in algos:
                printed_col = [v for (t, al, g), text in golden.items()
                               if t == table and al == a and (v := _number(text)) is not None]
                for stat in ("mean", "median"):
                    text = printed_aggs.get((table, a, stat))
                    if text is None:
                        continue
                    checks += 1
                    recomputed = aggs[a][metric][stat] * 100.0
                    printed = _number(text)
                    within = printed is not None and abs(recomputed - printed) <= AGGREGATE_TOLERANCE_PP
                    if printed is not None and printed_col:
                        own = (math.fsum(printed_col) / len(printed_col) if stat == "mean"
                               else _median(printed_col))
                        consistent = abs(own - printed) <= AGGREGATE_TOLERANCE_PP
                    else:
                        consistent = False
                    if (table, a) not in dirty and consistent:
                        clean += 1
                        clean_matches += within
                    if not within:
                        entries.append((table, a, "", "aggregate", f"{recomputed:.2f}", text))

        hwrb: dict[str, dict] = {}
        for table, (metric, algos) in layout.items():
            if metric not in ("hwrns", "saber"):
                continue
            for a in algos:
                count = aggs[a]["hwrns"]["hwrb"]
                text = printed_aggs.get((table, a, "hwrb"))
                printed = _number(text) if text else None
                if metric == "hwrns":
                    entry = hwrb.setdefault(a, {"recomputed": count})
                    entry[f"printed:{table}"] = int(printed) if printed is not None else None
                if printed is not None and int(printed) != count:
                    entries.append((table, a, "", "hwrb", str(count), text))

        total = sum(t["cells"] for t in tables.values())
        total_matches = sum(t["matches"] for t in tables.values())
        summary = {
            "cells": total, "matches": total_matches, "match_rate": total_matches / total,
            "tables": tables, "aggregate_checks": checks,
            "clean_aggregate_checks": clean, "clean_aggregate_matches": clean_matches,
            "inconsistencies": len(entries), "hwrb": hwrb,
        }
        csvs = {f"{t}.csv": self.table_csv(metric, algos, "table-compat")
                for t, (metric, algos) in layout.items()}
        return {"summary": summary, "entries": sorted(entries), "tables": csvs}


# -- comparison helpers --------------------------------------------------------

def diff(actual, expected, path: str = "$") -> list[str]:
    """Structural comparison; floats agree to 1e-9 relative, all else exactly."""
    if isinstance(expected, float) and isinstance(actual, (int, float)) \
            and not isinstance(actual, bool):
        if math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-12):
            return []
        return [f"{path}: {actual!r} != expected {expected!r}"]
    if type(actual) is not type(expected):
        return [f"{path}: {actual!r} != expected {expected!r}"]
    if isinstance(expected, dict):
        if set(actual) != set(expected):
            extra, lost = set(actual) - set(expected), set(expected) - set(actual)
            return [f"{path}: keys differ (extra {sorted(extra)}, missing {sorted(lost)})"]
        return [p for k in expected for p in diff(actual[k], expected[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if len(actual) != len(expected):
            return [f"{path}: length {len(actual)} != expected {len(expected)}"]
        return [p for i, (x, y) in enumerate(zip(actual, expected))
                for p in diff(x, y, f"{path}[{i}]")]
    return [] if actual == expected else [f"{path}: {actual!r} != expected {expected!r}"]


def diff_text(actual: str, expected: str, what: str) -> list[str]:
    if actual == expected:
        return []
    a, e = actual.splitlines(), expected.splitlines()
    for i, (x, y) in enumerate(zip(a, e), start=1):
        if x != y:
            return [f"{what} line {i}: {x!r} != expected {y!r}"]
    return [f"{what}: {len(a)} lines != expected {len(e)}"]


def _json(text: str, what: str) -> tuple[object, list[str]]:
    try:
        return json.loads(text), []
    except ValueError as exc:
        return None, [f"{what}: not JSON ({exc})"]


# -- checks of program outputs -------------------------------------------------

def check_score(out: str, tables: Tables, game: str, score_text: str, frames: int) -> list[str]:
    got = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    return diff(got, tables.score(game, score_text, frames), "score")


def check_validate(out: str, tables: Tables) -> list[str]:
    lines = out.splitlines()
    head = f"baselines: {len(tables.games)} games OK ("
    if not lines or not lines[0].startswith(head) or not lines[0].endswith(")"):
        return [f"validate line 1: {lines[:1]!r}"]
    where = Path(lines[0][len(head):-1])
    if where.resolve() != (tables.data_dir / "baselines.csv").resolve():
        return [f"validate names baselines {where}"]
    return diff_text("\n".join(lines[1:]), "\n".join(tables.validate_text()), "validate")


def check_report_json(out: str, tables: Tables, mode: str) -> list[str]:
    got, problems = _json(out, "aggregate json")
    if problems:
        return problems
    expected = tables.report_dict(mode)
    if isinstance(got, dict) and isinstance(got.get("baselines"), str) \
            and Path(got["baselines"]).resolve() == Path(expected["baselines"]).resolve():
        got["baselines"] = expected["baselines"]
    return diff(got, expected, "aggregate")


def check_report_csv(out: str, tables: Tables, metric: str) -> list[str]:
    return diff_text(out, tables.table_csv(metric, tables.algos, "spec-floor"), "report csv")


def check_compare(out: str, tables: Tables, a: str, b: str) -> list[str]:
    got, problems = _json(out, "compare")
    return problems or diff(got, tables.compare(a, b), "compare")


def check_reproduce_dir(out_dir: Path, stdout: str | None, tables: Tables) -> list[str]:
    """``summary.json``, the inconsistency log, the table CSVs and the file set.

    ``stdout``, when given, is the ``reproduce`` verb's output, whose
    first three lines carry the cell, match and inconsistency counts.
    """
    expected = tables.reproduction()
    files = sorted(str(p.relative_to(out_dir)) for p in out_dir.rglob("*") if p.is_file())
    want = sorted(["summary.json", "inconsistency_log.json"]
                  + [f"tables/{n}" for n in expected["tables"]]
                  + [f"figures/{n}.json" for n in
                     ("metric_vs_scale", "hwrb_vs_gametime", "efficiency")])
    if files != want:
        return [f"reproduce wrote {files}, expected {want}"]
    summary, problems = _json((out_dir / "summary.json").read_text(encoding="utf-8"), "summary")
    problems += diff(summary, expected["summary"], "summary") if summary is not None else []
    log, more = _json((out_dir / "inconsistency_log.json").read_text(encoding="utf-8"), "log")
    problems += more
    if isinstance(log, list):
        keys = ("table", "algorithm", "game", "kind", "recomputed", "printed")
        got = sorted(tuple(e.get(k) for k in keys) for e in log)
        problems += diff([list(e) for e in got], [list(e) for e in expected["entries"]],
                         "inconsistency_log")
    for name, text in expected["tables"].items():
        problems += diff_text((out_dir / "tables" / name).read_text(encoding="utf-8"),
                              text, f"tables/{name}")
    if stdout is None:
        return problems
    s = expected["summary"]
    head = [f"cells compared: {s['cells']}",
            f"cells matched:  {s['matches']} ({s['match_rate']:.2%})",
            f"inconsistencies logged: {s['inconsistencies']}"]
    problems += diff_text("\n".join(stdout.splitlines()[:3]), "\n".join(head), "reproduce stdout")
    return problems
