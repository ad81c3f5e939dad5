"""Chart rendering."""

from __future__ import annotations

from repro.analysis.charts import BarChart, chart_from_result
from repro.experiments.base import ExperimentResult


class TestBarChart:
    def mk(self):
        return BarChart(
            title="demo",
            value_label="Gbps",
            bars=[
                ("lan", "default", 52.0, 0.5),
                ("lan", "zc+pace", 50.0, 0.1),
                ("wan54", "default", 35.0, 0.4),
                ("wan54", "zc+pace", 50.0, 0.2),
            ],
        )

    def test_render_structure(self):
        text = self.mk().render()
        assert "demo" in text
        assert "lan:" in text and "wan54:" in text
        assert text.count("█") > 20
        assert "52.0 Gbps" in text

    def test_bigger_value_longer_bar(self):
        lines = self.mk().render().splitlines()
        bar_35 = next(l for l in lines if "35.0" in l)
        bar_52 = next(l for l in lines if "52.0" in l)
        assert bar_52.count("█") > bar_35.count("█")

    def test_empty(self):
        assert "(no data)" in BarChart("t", "x", []).render()

    def test_from_result(self):
        r = ExperimentResult("fig05", "t", "Figure 5", ["path", "config", "gbps", "stdev"])
        r.add_row(path="lan", config="default", gbps=52.0, stdev=0.5)
        chart = chart_from_result(r, "path", "config")
        assert "Figure 5" in chart.title
        assert chart.bars[0] == ("lan", "default", 52.0, 0.5)

