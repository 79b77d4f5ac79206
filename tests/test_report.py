import json

import pytest

from hwrbench.datasets import Dataset, RunRecord, load_all_bundled
from hwrbench.errors import DatasetError, ValidationError
from hwrbench.games import BaselineRegistry
from hwrbench.metrics import CapMode, MetricKind
from hwrbench.report import (
    TableLayout,
    emit_plot_series,
    evaluate,
    render_table,
    report_to_dict,
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
    cell = bundled_report.cells[("Rainbow", "alien")]
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


def test_render_rejects_unknown_layout(registry):
    report = evaluate([small_dataset()], registry)
    with pytest.raises(ValidationError):
        render_table(report, TableLayout(MetricKind.HNS, ("NotThere",)))
    with pytest.raises(ValidationError):
        render_table(report, TableLayout(MetricKind.HNS, ("Rainbow",)), fmt="html")
    with pytest.raises(ValidationError, match="repeated in the layout: Rainbow$"):
        render_table(report, TableLayout(MetricKind.HNS, ("Rainbow", "LASER", "Rainbow")))


def test_machine_report_round_trips_full_precision(bundled_report):
    payload = json.loads(report_to_json(bundled_report))
    for (algo, game), cell in bundled_report.cells.items():
        stored = payload["per_game"][algo][game]
        assert stored["raw"] == cell.raw
        assert stored["hns"] == cell.metrics[MetricKind.HNS]
        assert stored["hwrns"] == cell.metrics[MetricKind.HWRNS]
        assert stored["saber"] == cell.metrics[MetricKind.SABER]
    assert payload["cap_mode"] == "table-compat"


def test_report_dict_coverage_section(bundled_report):
    payload = report_to_dict(bundled_report)
    assert payload["coverage"]["SimPLe"]["present"] == 36
    assert "berzerk" in payload["coverage"]["SimPLe"]["missing"]
    assert payload["coverage"]["Rainbow"] == {"present": 57, "missing": []}


def test_every_cell_rederivable_from_inputs(registry, bundled_report):
    # spot-check harness over 100% of cells
    for ds in load_all_bundled():
        for rec in ds.records:
            base = registry.lookup(rec.game)
            cell = bundled_report.cells[(rec.algorithm, rec.game)]
            expected_hns = (rec.score - base.random) / (base.human_average - base.random)
            expected_hwrns = (rec.score - base.random) / (
                base.human_world_record - base.random)
            assert cell.metrics[MetricKind.HNS] == expected_hns
            assert cell.metrics[MetricKind.HWRNS] == expected_hwrns
            assert cell.metrics[MetricKind.SABER] == min(expected_hwrns, 2.0)


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

    def test_unknown_figure_rejected(self, bundled_report):
        with pytest.raises(ValidationError):
            emit_plot_series(bundled_report, "pie-chart")

    def test_empty_report_gives_empty_series(self, bundled_report):
        from hwrbench.report import EvaluationReport

        empty = EvaluationReport(
            cap_mode=CapMode.SPEC_FLOOR, baseline_source="", dataset_labels=(),
            cells={}, aggregates={}, leaders={}, frames={})
        for figure in ("metric_vs_scale", "hwrb_vs_gametime", "efficiency"):
            assert all(s.points == () for s in emit_plot_series(empty, figure))
