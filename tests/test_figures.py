"""Tests for the figure generators and the text report renderer."""

import pytest

from repro.analysis import figures, render_figure, render_table
from repro.analysis.report import format_value


class TestFigureStructure:
    @pytest.mark.parametrize("name", sorted(figures.ALL_FIGURES))
    def test_every_figure_has_consistent_series(self, name):
        figure = figures.ALL_FIGURES[name]()
        assert figure["id"] == name
        assert len(figure["x"]) > 0
        for series_name, values in figure["series"].items():
            assert len(values) == len(figure["x"]), series_name

    def test_registry_covers_all_evaluation_figures(self):
        expected = {f"fig{i}" for i in range(2, 9)} | {"fig7_recovery"}
        assert set(figures.ALL_FIGURES) == expected


class TestFigureShapes:
    def test_fig2_xrd_grows_pung_flat(self):
        figure = figures.figure2()
        xrd = figure["series"]["XRD"]
        pung = figure["series"]["Pung (XPIR; 1M users)"]
        assert xrd[-1] > xrd[0]
        assert pung[0] == pung[-1]
        assert pung[0] > xrd[-1]  # Pung XPIR costs users far more than XRD

    def test_fig3_xrd_compute_below_half_second(self):
        figure = figures.figure3()
        assert max(figure["series"]["XRD"]) < 0.6

    def test_fig4_orderings(self):
        figure = figures.figure4()
        for index in range(len(figure["x"])):
            assert figure["series"]["Atom"][index] > figure["series"]["XRD"][index]
            assert figure["series"]["Pung"][index] > figure["series"]["XRD"][index]
            assert figure["series"]["Stadium"][index] < figure["series"]["XRD"][index]

    def test_fig5_xrd_decreasing_in_servers(self):
        figure = figures.figure5()
        xrd = figure["series"]["XRD"]
        assert all(later <= earlier for earlier, later in zip(xrd, xrd[1:]))

    def test_fig5_crossover_with_pung(self):
        """Pung overtakes XRD somewhere around a thousand servers (§8.2)."""
        figure = figures.figure5(server_counts=(100, 1000, 3000))
        xrd = figure["series"]["XRD"]
        pung = figure["series"]["Pung"]
        assert pung[0] > xrd[0]
        assert pung[-1] < xrd[-1]

    def test_fig6_monotone_in_f(self):
        figure = figures.figure6()
        latencies = figure["series"]["XRD latency"]
        assert latencies == sorted(latencies)

    def test_fig7_linear_in_malicious_users(self):
        figure = figures.figure7()
        latencies = figure["series"]["blame latency"]
        assert latencies == sorted(latencies)
        assert latencies[-1] > 5 * latencies[0]

    def test_fig8_anchors(self):
        figure = figures.figure8()
        series = figure["series"]["XRD (100 servers)"]
        one_percent = series[figure["x"].index(0.01)]
        four_percent = series[figure["x"].index(0.04)]
        assert one_percent == pytest.approx(0.27, abs=0.03)
        assert four_percent == pytest.approx(0.72, abs=0.05)

    def test_fig8_monte_carlo_series(self):
        figure = figures.figure8(
            churn_rates=(0.0, 0.02), server_counts=(30,), monte_carlo=True, trials=2,
            conversations_per_trial=30,
        )
        assert "XRD (30 servers, MC)" in figure["series"]

    def test_headline_comparison(self):
        headline = figures.headline_comparison()
        assert headline["atom_speedup"] == pytest.approx(12, rel=0.15)
        assert headline["pung_speedup"] == pytest.approx(3.7, rel=0.15)
        assert 1.5 < headline["stadium_slowdown"] < 3.0

    def test_user_cost_table(self):
        table = figures.user_cost_table()
        rows = {row["servers"]: row for row in table["rows"]}
        assert rows[100]["upload_kb"] < rows[2000]["upload_kb"]
        assert rows[2000]["kbps_1min_rounds"] < 60


class TestRendering:
    def test_render_table(self):
        text = render_table(["a", "b"], [[1, 2.5], [3, 4.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "b" in lines[0]

    def test_render_table_right_aligns_every_column(self):
        lines = render_table(["users", "s"], [[7, "x"], [12345.6, "long"]]).splitlines()
        assert lines == [
            " users     s",
            "------  ----",
            "     7     x",
            "12,346  long",
        ]

    def test_render_figure(self):
        text = render_figure(figures.figure7())
        assert "Figure 7" in text
        assert "blame latency" in text

    def test_format_value(self):
        assert format_value(0) == "0"
        assert format_value(12345.6) == "12,346"
        assert format_value(12.34) == "12.3"
        assert format_value(0.5) == "0.500"
        assert format_value(1e-6) == "1e-06"
        assert format_value("text") == "text"
