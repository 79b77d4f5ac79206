import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hwrbench.datasets import Dataset, RunRecord, load_all_bundled
from hwrbench.errors import DatasetError, ValidationError
from hwrbench.games import CANONICAL_GAMES, BaselineRegistry
from hwrbench.metrics import (
    METRIC_KINDS,
    CapMode,
    MetricKind,
    chns,
    hns,
    hwrb_indicator,
    hwrns,
    saber,
)
from hwrbench.report import (
    FIGURES,
    TableLayout,
    emit_plot_series,
    evaluate,
    render_table,
    report_to_json,
)


@pytest.fixture(scope="module")
def registry():
    return BaselineRegistry.load()


@pytest.fixture(scope="module")
def bundled_report(registry):
    return evaluate(load_all_bundled(), registry, CapMode.TABLE_COMPAT)


def small_dataset():
    return Dataset("small", (
        RunRecord("Rainbow", "boxing", 99.6, 200_000_000),
        RunRecord("LASER", "boxing", 100.0, 200_000_000),
        RunRecord("GDI-H3", "boxing", 100.0, 200_000_000),
    ))


def test_rainbow_alien_cell(bundled_report):
    cell = bundled_report.cells["Rainbow"]["alien"]
    assert cell.metrics[MetricKind.HNS] == pytest.approx(1.3426, abs=5e-5)
    assert cell.metrics[MetricKind.HWRNS] == pytest.approx(0.0368, abs=5e-5)
    assert cell.metrics[MetricKind.CHNS] == 1.0


def test_gdi_mean_hwrns_from_200m_dataset(registry, bundled_report):
    agg = bundled_report.aggregates["GDI-H3"][MetricKind.HWRNS]
    assert agg.mean == pytest.approx(1.5427, abs=5e-4)
    agent57 = bundled_report.aggregates["Agent57"][MetricKind.HWRNS]
    assert agent57.mean == pytest.approx(1.2592, abs=5e-4)


def test_rainbow_efficiency_rows(bundled_report):
    from hwrbench.numfmt import format_efficiency

    row = bundled_report.aggregates["Rainbow"][MetricKind.HNS]
    assert format_efficiency(row.efficiency_mean) == "4.37E-08"
    assert format_efficiency(row.efficiency_median) == "1.15E-08"
    agent57 = bundled_report.aggregates["Agent57"][MetricKind.HWRNS]
    assert format_efficiency(agent57.efficiency_mean) == "1.26E-11"


def test_empty_input_rejected(registry):
    with pytest.raises(DatasetError):
        evaluate([], registry)


def test_mixed_frames_rejected(registry):
    ds = Dataset("bad", (
        RunRecord("A", "alien", 1000, 100),
        RunRecord("A", "pong", 10, 200),
    ))
    with pytest.raises(DatasetError, match="inconsistent frame counts"):
        evaluate([ds], registry)


def test_cross_dataset_duplicate_rejected(registry):
    ds = Dataset("one", (RunRecord("A", "alien", 1000, 100),))
    with pytest.raises(DatasetError, match="duplicate cell"):
        evaluate([ds, ds], registry)


@pytest.mark.parametrize("score, frames, match", [
    (1.0, 0, "^A: frames must be positive: 0$"),
    (1.0, -4, "^A: frames must be positive: -4$"),
    (math.nan, 100, "^A/pong: non-finite score$"),
    (math.inf, 100, "^A/pong: non-finite score$"),
    (-math.inf, 100, "^A/pong: non-finite score$"),
], ids=["frames-0", "frames-neg", "score-nan", "score-inf", "score-neg-inf"])
def test_hand_built_bad_record_rejected(registry, score, frames, match):
    # load_dataset refuses these rows; a RunRecord built by hand still fails here.
    ds = Dataset("hand", (RunRecord("A", "pong", score, frames),))
    for cap_mode in CapMode:
        with pytest.raises(ValidationError, match=match):
            evaluate([ds], registry, cap_mode)


def test_determinism(registry):
    kwargs = dict(datasets=load_all_bundled(), baselines=registry,
                  cap_mode=CapMode.TABLE_COMPAT)
    a = evaluate(**kwargs)
    b = evaluate(**kwargs)
    layout = TableLayout(MetricKind.HWRNS, ("Rainbow", "IMPALA", "LASER"))
    assert render_table(a, layout) == render_table(b, layout)
    assert report_to_json(a) == report_to_json(b)
    for figure in ("metric_vs_scale", "hwrb_vs_gametime", "efficiency"):
        assert emit_plot_series(a, figure) == emit_plot_series(b, figure)


def test_leaders_boxing_tie(bundled_report):
    # maximal raw 100 shared by LASER, GDI-I3, GDI-H3, MuZero, Agent57
    leaders = bundled_report.leaders["boxing"]
    assert set(leaders) >= {"LASER", "GDI-I3", "GDI-H3"}
    assert "Rainbow" not in leaders
    assert list(leaders) == sorted(leaders)


def test_render_table_cells(registry):
    report = evaluate([small_dataset()], registry)
    layout = TableLayout(MetricKind.HNS, ("Rainbow", "LASER", "GDI-H3"))
    text = render_table(report, layout)
    assert "99.6" in text and "829.17" in text
    assert "100*" in text            # leader mark on the tie
    assert "832.50" in text
    csv_text = render_table(report, layout, fmt="csv")
    line = next(l for l in csv_text.splitlines() if l.startswith("boxing"))
    assert line == "boxing,99.6,829.17,100*,832.50,100*,832.50"


def test_render_table_takes_the_report_verbs_format_names(registry):
    report = evaluate([small_dataset()], registry)
    layout = TableLayout(MetricKind.HNS, ("Rainbow",))
    assert render_table(report, layout, fmt="table") == render_table(report, layout)
    with pytest.raises(ValidationError, match="^unknown table format 'text'$"):
        render_table(report, layout, fmt="text")


def test_render_rejects_unknown_layout(registry):
    report = evaluate([small_dataset()], registry)
    with pytest.raises(ValidationError):
        render_table(report, TableLayout(MetricKind.HNS, ("NotThere",)))
    with pytest.raises(ValidationError):
        render_table(report, TableLayout(MetricKind.HNS, ("Rainbow",)), fmt="html")
    with pytest.raises(ValidationError, match="repeated in the layout: 'Rainbow'$"):
        render_table(report, TableLayout(MetricKind.HNS, ("Rainbow", "LASER", "Rainbow")))
    with pytest.raises(ValidationError, match="^layout selects no algorithm$"):
        render_table(report, TableLayout(MetricKind.HNS, ()))


def test_machine_report_round_trips_full_precision(bundled_report):
    payload = json.loads(report_to_json(bundled_report))
    for algo, column in bundled_report.cells.items():
        for game, cell in column.items():
            stored = payload["per_game"][algo][game]
            assert stored["raw"] == cell.raw
            assert stored["hns"] == cell.metrics[MetricKind.HNS]
            assert stored["hwrns"] == cell.metrics[MetricKind.HWRNS]
            assert stored["saber"] == cell.metrics[MetricKind.SABER]
    assert payload["cap_mode"] == "table-compat"


def test_report_dict_coverage_section(bundled_report):
    payload = json.loads(report_to_json(bundled_report))
    assert payload["coverage"]["SimPLe"]["present"] == 36
    assert "berzerk" in payload["coverage"]["SimPLe"]["missing"]
    assert payload["coverage"]["Rainbow"] == {"present": 57, "missing": []}


def reference_fields(report):
    """The fields ``report_to_json`` writes, as a dict for ``json.dumps``."""
    per_game = {}
    for algo, column in report.cells.items():
        for game, cell in column.items():
            per_game.setdefault(algo, {})[game] = {
                "raw": cell.raw, "frames": report.frames[algo],
                **{kind.value: cell.metrics[kind] for kind in METRIC_KINDS}}
    aggregates = {}
    for algo, rows in report.aggregates.items():
        aggregates[algo] = {"frames": report.frames[algo]}
        for kind, row in rows.items():
            aggregates[algo][kind.value] = {
                "mean": row.mean, "median": row.median, "coverage": row.coverage,
                "efficiency_mean": row.efficiency_mean,
                "efficiency_median": row.efficiency_median}
            if row.hwrb_count is not None:
                aggregates[algo][kind.value]["hwrb"] = row.hwrb_count
    return {
        "cap_mode": report.cap_mode.value,
        "baselines": report.baseline_source,
        "datasets": list(report.dataset_labels),
        "per_game": per_game,
        "aggregates": aggregates,
        "leaders": {g: list(v) for g, v in report.leaders.items()},
        "coverage": {algo: {"present": report.aggregates[algo][MetricKind.HNS].coverage,
                            "missing": list(report.missing.get(algo, ()))}
                     for algo in report.aggregates},
    }


def assert_written_as_json_dumps(report):
    out = report_to_json(report)
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True)
    assert out == json.dumps(reference_fields(report), indent=2, sort_keys=True)
    return out


# Names with non-ASCII, a quote, a backslash, a tab, DEL and a space: with
# "a" and "a b" as keys, sorting the written lines rather than the keys
# would put "a b" first, since '"' sorts after ' '.
NAMES = st.text(st.sampled_from('ab é€"\\\t\x7f'), min_size=1, max_size=4)
RAW = st.one_of(st.integers(-10**6, 10**7), st.just(-0.0), st.just(0.0),
                st.floats(-1e6, 1e7, allow_nan=False))


@given(st.lists(NAMES, min_size=1, max_size=3, unique=True),
       st.lists(NAMES, min_size=1, max_size=3, unique=True),
       st.sampled_from(list(CapMode)), st.data())
def test_json_is_written_as_json_dumps_would(registry, algos, labels, cap_mode, data):
    records = [[] for _ in labels]
    omitted = [[] for _ in labels]
    for algo in algos:
        frames = data.draw(st.integers(1, 10**11))
        games = data.draw(st.lists(st.sampled_from(CANONICAL_GAMES[:6]), min_size=1,
                                   max_size=4, unique=True))
        for i, game in enumerate(games):
            ds = data.draw(st.integers(0, len(labels) - 1))
            if i and data.draw(st.booleans()):
                omitted[ds].append((algo, game))
            else:
                records[ds].append(RunRecord(algo, game, data.draw(RAW), frames))
    datasets = [Dataset(label, tuple(recs), tuple(gone))
                for label, recs, gone in zip(labels, records, omitted)]
    report = evaluate(datasets, registry, cap_mode)
    report = report._replace(baseline_source=data.draw(NAMES))
    assert json.loads(assert_written_as_json_dumps(report)) == reference_fields(report)


def test_json_sorts_keys_not_lines(registry):
    report = evaluate([Dataset("d", (RunRecord("a b", "alien", 1.0, 100),
                                     RunRecord("a", "alien", 2.0, 100)))], registry)
    out = assert_written_as_json_dumps(report)
    assert out.index('"a": {') < out.index('"a b": {')


def test_json_writes_non_finite_floats_as_json_does(bundled_report):
    # evaluate never yields these; the writer still prints them as json does.
    rainbow = bundled_report.cells["Rainbow"]
    odd = dict(zip(METRIC_KINDS, (math.nan, math.inf, -math.inf, -0.0)))
    cells = {**bundled_report.cells,
             "Rainbow": {**rainbow, "alien": rainbow["alien"]._replace(raw=True, metrics=odd)}}
    out = assert_written_as_json_dumps(bundled_report._replace(cells=cells))
    assert '"hns": NaN' in out and '"raw": true' in out


def test_every_cell_rederivable_from_inputs(registry, bundled_report):
    # spot-check harness over 100% of cells
    for ds in load_all_bundled():
        for rec in ds.records:
            base = registry.lookup(rec.game)
            cell = bundled_report.cells[rec.algorithm][rec.game]
            expected_hns = (rec.score - base.random) / (base.human_average - base.random)
            expected_hwrns = (rec.score - base.random) / (
                base.human_world_record - base.random)
            assert cell.metrics[MetricKind.HNS] == expected_hns
            assert cell.metrics[MetricKind.HWRNS] == expected_hwrns
            assert cell.metrics[MetricKind.SABER] == min(expected_hwrns, 2.0)


@given(st.sampled_from(CANONICAL_GAMES), st.sampled_from(list(CapMode)), st.data())
def test_cells_equal_the_scoring_functions_bit_for_bit(registry, game, cap_mode, data):
    # evaluate computes each cell with cell_ratios; hns(), chns(), hwrns() and
    # saber() are the checked reference. The anchors hit HNS and HWRNS exactly 0 and 1.
    base = registry.lookup(game)
    raw = data.draw(st.one_of(
        st.sampled_from([base.random, base.human_average, base.human_world_record]),
        st.floats(min_value=-1e7, max_value=1e7, allow_nan=False)))
    report = evaluate([Dataset("d", (RunRecord("A", game, raw, 200_000_000),))],
                      registry, cap_mode)
    h, w = hns(raw, base), hwrns(raw, base)
    expected = (h.value, chns(h).value, w.value, saber(w, cap_mode).value)
    cell = report.cells["A"][game].metrics
    assert [cell[kind].hex() for kind in METRIC_KINDS] == [v.hex() for v in expected]
    assert report.aggregates["A"][MetricKind.HWRNS].hwrb_count == hwrb_indicator(w.value)


class TestPlotSeries:
    def test_hwrb_vs_gametime(self, bundled_report):
        (series,) = emit_plot_series(bundled_report, "hwrb_vs_gametime")
        points = dict(zip(series.labels, series.points))
        x, y = points["Agent57"]
        assert x == pytest.approx(19290.1, abs=0.1)
        assert y == 18
        assert points["SimPLe"][1] == 0
        assert "SimPLe" in series.flagged
        xs = [x for x, _ in series.points]
        assert xs == sorted(xs)

    def test_metric_vs_scale(self, bundled_report):
        series = emit_plot_series(bundled_report, "metric_vs_scale")
        names = {s.name for s in series}
        assert "mean-hns-vs-scale" in names and "median-hwrns-vs-scale" in names
        mean_hns = next(s for s in series if s.name == "mean-hns-vs-scale")
        points = dict(zip(mean_hns.labels, mean_hns.points))
        assert points["Rainbow"][0] == 200_000_000
        assert points["Rainbow"][1] == pytest.approx(8.7397, abs=5e-4)

    def test_efficiency_series(self, bundled_report):
        series = emit_plot_series(bundled_report, "efficiency")
        mean_eff = next(s for s in series if "hns" in s.name)
        points = dict(zip(mean_eff.labels, mean_eff.points))
        assert points["Rainbow"][1] == pytest.approx(4.37e-8, rel=1e-3)

    @pytest.mark.parametrize("cap_mode", list(CapMode))
    def test_every_series_is_sorted_by_x_then_label(self, registry, cap_mode):
        report = evaluate(load_all_bundled(), registry, cap_mode)
        for figure in FIGURES:
            for series in emit_plot_series(report, figure):
                keys = [(x, label) for (x, _), label in zip(series.points, series.labels)]
                assert len(keys) == len(report.algorithms())
                assert keys == sorted(keys), series.name

    def test_unknown_figure_rejected(self, bundled_report):
        with pytest.raises(ValidationError):
            emit_plot_series(bundled_report, "pie-chart")

    def test_empty_report_gives_empty_series(self, bundled_report):
        from hwrbench.report import EvaluationReport

        empty = EvaluationReport(
            cap_mode=CapMode.SPEC_FLOOR, baseline_source="", dataset_labels=(),
            cells={}, aggregates={}, leaders={}, frames={}, missing={})
        for figure in ("metric_vs_scale", "hwrb_vs_gametime", "efficiency"):
            assert all(s.points == () for s in emit_plot_series(empty, figure))
