"""Tests for the report renderers and metric helpers."""

from repro.harness.metrics import fraction, mean, median
from repro.harness.report import render_bars, render_grouped_bars, render_table
from repro.harness.simclock import ReexecDelay, SimClock


class TestMetrics:
    def test_mean_median(self):
        assert mean([1, 2, 3]) == 2
        assert mean([]) == 0.0
        assert median([3, 1, 2]) == 2
        assert median([4, 1, 2, 3]) == 2.5
        assert median([]) == 0.0

    def test_fraction(self):
        assert fraction(10, 10) == "Y"
        assert fraction(0, 10) == "N"
        assert fraction(4, 10) == "4/10"
        assert fraction(0, 0) == "n/a"

class TestReport:
    def test_table_renders_all_rows(self):
        text = render_table(
            "Table X", ["a", "bb"], [["1", "2"], ["333", "4"]], note="hi"
        )
        assert "Table X" in text
        assert "333" in text
        assert "note: hi" in text

    def test_bars_scale_to_peak(self):
        text = render_bars("Fig", {"x": 10.0, "y": 5.0}, unit="s")
        lines = text.splitlines()
        x_bar = next(l for l in lines if l.startswith("x"))
        y_bar = next(l for l in lines if l.startswith("y"))
        assert x_bar.count("#") > y_bar.count("#")

    def test_bars_empty(self):
        assert "empty" in render_bars("Fig", {})

    def test_grouped_bars(self):
        text = render_grouped_bars(
            "Fig", ["g1", "g2"], {"s1": {"g1": 1.0}, "s2": {"g1": 2.0, "g2": 3.0}}
        )
        assert "g1 s1" in text
        assert "n/a" in text  # s1 has no g2 value


class TestClock:
    def test_advance(self):
        clock = SimClock()
        clock.advance(2.5)
        clock.advance(1.5)
        assert clock.now == 4.0

    def test_negative_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_reexec_delay_range_and_determinism(self):
        d1 = ReexecDelay(seed=3)
        d2 = ReexecDelay(seed=3)
        values = [d1() for _ in range(20)]
        assert values == [d2() for _ in range(20)]
        assert all(3.0 <= v <= 5.0 for v in values)
