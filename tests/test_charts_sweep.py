"""Chart rendering and sweep utilities."""

from __future__ import annotations

import pytest

from repro.analysis.charts import BarChart, chart_from_result
from repro.analysis.sweep import sweep1d, sweep2d
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


class TestSweep:
    def test_sweep1d(self):
        res = sweep1d("s", "x", [1, 2, 3], lambda x: {"y": float(x * x)})
        assert res.column("x") == [1, 2, 3]
        assert res.column("y") == [1.0, 4.0, 9.0]
        assert res.best("y").params["x"] == 3
        assert res.best("y", maximize=False).params["x"] == 1

    def test_sweep2d_cross_product(self):
        res = sweep2d("s", "a", [1, 2], "b", [10, 20, 30],
                      lambda a, b: {"sum": float(a + b)})
        assert len(res.points) == 6
        assert res.best("sum").metrics["sum"] == 32.0

    def test_render(self):
        res = sweep1d("optmem sweep", "optmem", [20480, 1048576],
                      lambda optmem: {"gbps": optmem / 1e6})
        text = res.render()
        assert "optmem sweep" in text
        assert "20480" in text and "1.05" in text

    def test_render_empty(self):
        from repro.analysis.sweep import SweepResult

        assert "empty" in SweepResult("x").render()

    def test_render_heterogeneous_keys(self):
        """Regression: points with differing param/metric keys must not
        KeyError — headers are the first-seen union, gaps render empty."""
        from repro.analysis.sweep import SweepPoint, SweepResult

        res = SweepResult("mixed", points=[
            SweepPoint(params={"x": 1}, metrics={"gbps": 10.0}),
            SweepPoint(params={"x": 2, "mtu": 9000},
                       metrics={"gbps": 20.0, "retr": 3}),
            SweepPoint(params={"x": 3}, metrics={"retr": 7}),
        ])
        text = res.render()
        header = text.splitlines()[1]
        for col in ("x", "mtu", "gbps", "retr"):
            assert col in header
        assert "9000" in text and "20.00" in text and "7" in text
        # every data row has the full column count despite missing keys
        rows = text.splitlines()[3:]
        assert all(row.count("|") == header.count("|") for row in rows)

    def test_sweep_with_simulator(self):
        """End to end: pacing sweep through the real simulator."""
        from repro.core.rng import RngFactory
        from repro.testbeds.amlight import AmLightTestbed
        from repro.tools.iperf3 import Iperf3, Iperf3Options

        tb = AmLightTestbed(kernel="6.8")
        snd, rcv = tb.host_pair()
        tool = Iperf3(snd, rcv, tb.path("lan"), rng=RngFactory(1), tick=0.006)

        def measure(pace):
            res = tool.run(Iperf3Options(duration=5, omit=1.5, fq_rate_gbps=pace,
                                         zerocopy="z"))
            return {"gbps": res.gbps}

        res = sweep1d("pacing", "pace", [10.0, 20.0, 30.0], measure)
        values = res.column("gbps")
        assert values[0] == pytest.approx(10, rel=0.05)
        assert values == sorted(values)
