"""Differential test: the table verbs against the bench's independent oracle.

``bench/oracle.py`` recomputes every metric, aggregate row, leader and
comparison from the CSV files alone, with no ``hwrbench`` import. Here
random valid data directories in the layout it reads (``baselines.csv``
plus ``datasets/<label>.csv`` for the four bundled labels) go through
the CLI, and every output must agree with the oracle.
"""

import tempfile
from pathlib import Path

import oracle
from helpers import run_main
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from hwrbench.games import CANONICAL_GAMES
from hwrbench.numfmt import scale_label_for

# Mixed training scales, including one whose label is not integral ("2.5M").
FRAMES = (1_000_000, 2_500_000, 200_000_000, 10_000_000_000, 35_000_000_000)


@st.composite
def baselines(draw):
    rows = {}
    for game in CANONICAL_GAMES:
        low = draw(st.integers(-500, 500)) / 4
        human = low + draw(st.integers(1, 10**6)) / 8
        record = low + draw(st.integers(1, 10**7)) / 8  # may sit below human
        rows[game] = (low, human, record)
    return rows


@st.composite
def score_for(draw, base):
    low, human, record = base
    return draw(st.one_of(
        st.just("N/A"),
        st.sampled_from([low, human, record]),  # 0 %, 100 % HNS, HWRNS exactly 1
        # Multiples of 1/800 of a span: percents on .xx5 rounding ties, SABER < 0 and > 2.
        st.builds(lambda n, ref: low + (ref - low) * n / 800,
                  st.integers(-800, 3200), st.sampled_from([human, record])),
        st.floats(-1e6, 1e7, allow_nan=False).map(lambda v: round(v, 2)),
    ))


@st.composite
def data_dirs(draw):
    base = draw(baselines())
    n_algos = draw(st.integers(len(oracle.BUNDLED), 7))
    owner = list(range(len(oracle.BUNDLED)))  # every dataset holds an algorithm
    owner += [draw(st.integers(0, len(oracle.BUNDLED) - 1)) for _ in range(n_algos - len(owner))]
    datasets = {label: [] for label in oracle.BUNDLED}
    for i, label_index in enumerate(owner):
        algo = f"Algo-{i}"
        frames = draw(st.sampled_from(FRAMES))
        games = draw(st.lists(st.sampled_from(CANONICAL_GAMES), min_size=1, max_size=57,
                              unique=True))
        games.sort(key=CANONICAL_GAMES.index)
        scores = [draw(score_for(base[g])) for g in games]
        if all(s == "N/A" for s in scores):
            scores[0] = base[games[0]][0]
        datasets[oracle.BUNDLED[label_index]] += [(algo, g, s, frames)
                                                  for g, s in zip(games, scores)]
    # A shared score on a shared game makes a tie for the per-game leader.
    first, second = datasets[oracle.BUNDLED[0]], datasets[oracle.BUNDLED[1]]
    if draw(st.booleans()):
        algo, game, score, frames = second[0]
        tied = next((r[2] for r in first if r[1] == game and r[2] != "N/A"), score)
        second[0] = (algo, game, tied, frames)
    return base, datasets


def write_dir(root: Path, base, datasets) -> None:
    lines = ["game,random,human_average,human_world_record,source_tag"]
    lines += [f"{g},{lo!r},{hu!r},{rec!r},test" for g, (lo, hu, rec) in base.items()]
    (root / "baselines.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (root / "datasets").mkdir()
    for label, rows in datasets.items():
        lines = ["algorithm,game,score,frames,scale_label"]
        lines += [f"{a},{g},{s if s == 'N/A' else repr(s)},{f},{scale_label_for(f)}"
                  for a, g, s, f in rows]
        (root / "datasets" / f"{label}.csv").write_text("\n".join(lines) + "\n",
                                                        encoding="utf-8")


# No shrinking: a draw has hundreds of parts, each run makes seven CLI calls,
# and the oracle's problem list already names the cell that differs.
@settings(max_examples=30, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate],
          suppress_health_check=[HealthCheck.too_slow])
@given(data_dirs(), st.data())
def test_table_verbs_agree_with_oracle(drawn, data):
    base, datasets = drawn
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_dir(root, base, datasets)
        tables = oracle.Tables(root)
        inputs = ["--baselines", str(root / "baselines.csv")]
        for label in oracle.BUNDLED:
            inputs += ["--dataset", str(root / "datasets" / f"{label}.csv")]
        problems = []
        for mode in ("spec-floor", "table-compat"):
            code, out, err = run_main("aggregate", "--format", "json", "--cap-mode", mode, *inputs)
            assert code == 0, err
            problems += oracle.check_report_json(out, tables, mode)
        for metric in oracle.KINDS:
            code, out, err = run_main("report", "--metric", metric, "--format", "csv", *inputs)
            assert code == 0, err
            problems += oracle.check_report_csv(out, tables, metric)
        a, b = data.draw(st.permutations(tables.algos))[:2]
        code, out, err = run_main("compare", a, b, *inputs)
        assert code == 0, err
        problems += oracle.check_compare(out, tables, a, b)
    assert problems == []
