"""Unit tests for counters, accumulators, histograms, and the registry."""

import pytest

from repro.sim.stats import Accumulator, Counter, Histogram, StatsRegistry


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0

    def test_increment_default_and_amount(self):
        c = Counter("c")
        c.increment()
        c.increment(5)
        assert c.value == 6

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").increment(-1)

    def test_reset(self):
        c = Counter("c")
        c.increment(3)
        c.reset()
        assert c.value == 0


class TestAccumulator:
    def test_empty_stats(self):
        a = Accumulator("a")
        assert a.count == 0
        assert a.mean == 0.0
        assert a.minimum is None and a.maximum is None

    def test_tracks_min_max_mean(self):
        a = Accumulator("a")
        for x in (4, 1, 9):
            a.add(x)
        assert a.count == 3
        assert a.minimum == 1
        assert a.maximum == 9
        assert a.mean == pytest.approx(14 / 3)

    def test_reset(self):
        a = Accumulator("a")
        a.add(5)
        a.reset()
        assert a.count == 0 and a.minimum is None


class TestHistogram:
    def test_linear_buckets(self):
        h = Histogram("h", bucket_width=10)
        h.add(5)
        h.add(15)
        h.add(19)
        assert dict(h.items()) == {0: 1, 10: 2}

    def test_log2_buckets(self):
        h = Histogram("h", log2=True)
        for sample in (0, 1, 2, 3, 4, 8):
            h.add(sample)
        # buckets by bit_length: 0->0, 1->1, 2,3->2, 4->3, 8->4
        assert dict(h.items()) == {0: 1, 1: 1, 2: 2, 4: 1, 8: 1}

    def test_mean_is_exact(self):
        h = Histogram("h", bucket_width=100)
        h.add(1)
        h.add(3)
        assert h.mean == 2.0

    def test_weighted_add(self):
        h = Histogram("h")
        h.add(2, weight=5)
        assert h.count == 5
        assert h.total == 10

    def test_percentile(self):
        h = Histogram("h")
        for x in range(1, 101):
            h.add(x)
        assert h.percentile(0.5) == 50
        assert h.percentile(1.0) == 100
        assert h.percentile(0.01) == 1

    def test_percentile_empty(self):
        assert Histogram("h").percentile(0.99) == 0

    def test_percentile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(1.5)

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h").add(-1)

    def test_bad_bucket_width_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", bucket_width=0)

    def test_percentile_log2_fallback_returns_bucket_edge(self):
        # The final fallback cannot be reached through add() alone (the
        # target rank never exceeds the running count), so simulate
        # drifted state to pin its contract: it must return the lower
        # edge of the last bucket, exactly like the main loop -- not
        # the raw bucket index.
        h = Histogram("h", log2=True)
        h.add(100)     # bucket index 7, lower edge 1 << 6 == 64
        h.count = 2    # drift: rank target now exceeds bucket totals
        assert h.percentile(1.0) == 64

    def test_percentile_log2_fallback_zero_bucket(self):
        h = Histogram("h", log2=True)
        h.add(0)
        h.count = 2
        assert h.percentile(1.0) == 0

    def test_percentile_linear_fallback_scales_by_width(self):
        h = Histogram("h", bucket_width=10)
        h.add(25)      # bucket index 2, lower edge 20
        h.count = 2
        assert h.percentile(1.0) == 20


class TestStatsRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = StatsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_type_conflict_raises(self):
        reg = StatsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.accumulator("x")
        with pytest.raises(TypeError):
            reg.histogram("x")
        reg.accumulator("a")
        with pytest.raises(TypeError):
            reg.counter("a")
        with pytest.raises(TypeError):
            reg.counters(["y", "a"])

    def test_bulk_counters_get_or_create_in_order(self):
        reg = StatsRegistry()
        existing = reg.counter("b")
        a, b, c, again = reg.counters(("a", "b", "c", "a"))
        assert b is existing and again is a
        assert [s.name for s in (a, b, c)] == ["a", "b", "c"]
        assert reg.counter("c") is c
        assert reg.names() == ["a", "b", "c"]

    def test_histogram_param_mismatch_raises(self):
        reg = StatsRegistry()
        first = reg.histogram("h", bucket_width=2)
        with pytest.raises(ValueError, match="bucket_width"):
            reg.histogram("h", bucket_width=4)
        with pytest.raises(ValueError, match="log2"):
            reg.histogram("h", bucket_width=2, log2=True)
        # Matching parameters still fetch the same instance.
        assert reg.histogram("h", bucket_width=2) is first

    def test_names_prefix_filter(self):
        reg = StatsRegistry()
        reg.counter("core.0.busy")
        reg.counter("core.1.busy")
        reg.counter("dir.requests")
        assert reg.names("core.0") == ["core.0.busy"]
        assert len(reg.names()) == 3

    def test_prefix_does_not_match_partial_component(self):
        reg = StatsRegistry()
        reg.counter("core.10.busy")
        reg.counter("core.1.busy")
        assert reg.names("core.1") == ["core.1.busy"]

    def test_value_scalar_views(self):
        reg = StatsRegistry()
        reg.counter("c").increment(3)
        reg.accumulator("a").add(2.5)
        reg.histogram("h").add(7)
        assert reg.value("c") == 3
        assert reg.value("a") == 2.5
        assert reg.value("h") == 1

    def test_sum_ignores_missing(self):
        reg = StatsRegistry()
        reg.counter("a").increment(1)
        reg.counter("b").increment(2)
        assert reg.sum(["a", "b", "missing"]) == 3

    def test_snapshot_and_reset(self):
        reg = StatsRegistry()
        reg.counter("a").increment(4)
        snap = reg.snapshot()
        assert snap == {"a": 4}
        reg.reset()
        assert reg.snapshot() == {"a": 0}

    def test_contains(self):
        reg = StatsRegistry()
        reg.counter("present")
        assert "present" in reg
        assert "absent" not in reg

    def test_report_renders_all_kinds(self):
        reg = StatsRegistry()
        reg.counter("c").increment(1)
        reg.accumulator("a").add(1)
        reg.histogram("h").add(1)
        report = reg.report()
        assert "c" in report and "a" in report and "h" in report
