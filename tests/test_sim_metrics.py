"""Unit tests for metric recorders."""

import random

import pytest

from taureau.sim import Counter, Distribution, MetricRegistry, TimeSeries
from taureau.sim.metrics import Histogram, LabeledCounter


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("requests")
        counter.add()
        counter.add(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            Counter("x").add(-1)


class TestDistribution:
    def test_summary_statistics(self):
        dist = Distribution("latency")
        dist.extend([1.0, 2.0, 3.0, 4.0])
        assert dist.count == 4
        assert dist.mean == 2.5
        assert dist.minimum == 1.0
        assert dist.maximum == 4.0
        assert dist.total == 10.0

    def test_percentiles_interpolate(self):
        dist = Distribution()
        dist.extend(range(101))  # 0..100
        assert dist.percentile(0) == 0
        assert dist.percentile(100) == 100
        assert dist.p50 == 50
        assert dist.percentile(25) == 25

    def test_percentile_single_sample(self):
        dist = Distribution()
        dist.observe(7.0)
        assert dist.p99 == 7.0

    def test_percentile_handles_unsorted_inserts(self):
        dist = Distribution()
        dist.extend([5.0, 1.0, 3.0])
        assert dist.p50 == 3.0

    def test_empty_distribution_raises(self):
        with pytest.raises(ValueError):
            Distribution().mean
        with pytest.raises(ValueError):
            Distribution().percentile(50)

    def test_empty_min_max_raise_named_error(self):
        # Not the bare "min() arg is an empty sequence" — the error names
        # the metric, matching mean/percentile.
        with pytest.raises(ValueError, match="'latency' has no samples"):
            Distribution("latency").minimum
        with pytest.raises(ValueError, match="'latency' has no samples"):
            Distribution("latency").maximum

    def test_percentile_range_checked(self):
        dist = Distribution()
        dist.observe(1.0)
        with pytest.raises(ValueError):
            dist.percentile(101)

    def test_stddev(self):
        dist = Distribution()
        dist.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert dist.stddev == pytest.approx(2.13808993, rel=1e-6)
        single = Distribution()
        single.observe(1.0)
        assert single.stddev == 0.0


class TestTimeSeries:
    def test_step_lookup(self):
        series = TimeSeries("capacity")
        series.record(0.0, 1.0)
        series.record(10.0, 4.0)
        assert series.value_at(0.0) == 1.0
        assert series.value_at(9.99) == 1.0
        assert series.value_at(10.0) == 4.0
        assert series.value_at(100.0) == 4.0

    def test_lookup_before_first_sample_raises(self):
        series = TimeSeries()
        series.record(5.0, 1.0)
        with pytest.raises(ValueError):
            series.value_at(4.0)

    def test_rejects_time_regression(self):
        series = TimeSeries()
        series.record(5.0, 1.0)
        with pytest.raises(ValueError):
            series.record(4.0, 2.0)

    def test_integral_is_step_function_area(self):
        series = TimeSeries()
        series.record(0.0, 2.0)
        series.record(10.0, 5.0)
        # 2*10 + 5*10
        assert series.integral(0.0, 20.0) == pytest.approx(70.0)
        # Partial windows.
        assert series.integral(5.0, 15.0) == pytest.approx(2 * 5 + 5 * 5)
        # Window before first sample contributes nothing.
        assert series.integral(-10.0, 0.0) == 0.0

    def test_time_average(self):
        series = TimeSeries()
        series.record(0.0, 0.0)
        series.record(50.0, 10.0)
        assert series.time_average(0.0, 100.0) == pytest.approx(5.0)

    def test_empty_maximum_raises_named_error(self):
        with pytest.raises(ValueError, match="'capacity' is empty"):
            TimeSeries("capacity").maximum()

    def test_integral_window_starting_before_first_sample(self):
        series = TimeSeries()
        series.record(10.0, 4.0)
        series.record(20.0, 6.0)
        # [0, 10) predates the series and contributes nothing.
        assert series.integral(0.0, 15.0) == pytest.approx(4.0 * 5)

    def test_integral_window_past_last_sample_extends_final_value(self):
        series = TimeSeries()
        series.record(0.0, 3.0)
        assert series.integral(0.0, 100.0) == pytest.approx(300.0)

    def test_integral_zero_width_segments(self):
        series = TimeSeries()
        series.record(5.0, 1.0)
        # Repeated timestamps form zero-width steps; the last value wins.
        series.record(5.0, 9.0)
        series.record(10.0, 2.0)
        assert series.integral(5.0, 10.0) == pytest.approx(9.0 * 5)
        # Zero-width integration window.
        assert series.integral(7.0, 7.0) == 0.0

    def test_integral_empty_series_is_zero(self):
        assert TimeSeries().integral(0.0, 10.0) == 0.0

    def test_integral_rejects_reversed_bounds(self):
        series = TimeSeries()
        series.record(0.0, 1.0)
        with pytest.raises(ValueError):
            series.integral(5.0, 4.0)

    def test_time_average_rejects_empty_window(self):
        series = TimeSeries()
        series.record(0.0, 1.0)
        with pytest.raises(ValueError):
            series.time_average(5.0, 5.0)

    def test_time_average_over_partially_covered_window(self):
        series = TimeSeries()
        series.record(10.0, 8.0)
        # [0, 10) is uncovered (counts as zero), [10, 20) holds 8.
        assert series.time_average(0.0, 20.0) == pytest.approx(4.0)


class TestMetricRegistry:
    def test_same_name_returns_same_object(self):
        registry = MetricRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.distribution("b") is registry.distribution("b")
        assert registry.series("c") is registry.series("c")

    def test_snapshot_summarizes(self):
        registry = MetricRegistry()
        registry.counter("invocations").add(3)
        registry.distribution("latency").extend([1.0, 3.0])
        snap = registry.snapshot()
        assert snap["invocations"] == 3
        assert snap["latency"]["count"] == 2
        assert snap["latency"]["mean"] == 2.0

    def test_snapshot_includes_zero_sample_distributions(self):
        registry = MetricRegistry()
        registry.distribution("latency")  # registered, never observed
        assert registry.snapshot()["latency"] == {"count": 0}

    def test_cross_type_name_reuse_raises(self):
        registry = MetricRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered as a counter"):
            registry.distribution("x")
        with pytest.raises(ValueError, match="already registered as a counter"):
            registry.series("x")

    def test_cross_type_collision_respects_namespace_aliases(self):
        registry = MetricRegistry(namespace="faas")
        registry.counter("x")
        # The canonical name collides even via the qualified alias.
        with pytest.raises(ValueError):
            registry.distribution("faas.x")


class TestLabeledFamilyOrder:
    """``items()`` keeps its sorted list until a child is created."""

    def test_items_stay_sorted_when_children_arrive_out_of_order(self):
        family = LabeledCounter("calls", ("function",))
        rng = random.Random(3)
        names = [f"f{index}" for index in range(40)]
        rng.shuffle(names)
        for count, name in enumerate(names, 1):
            family.add(1.0, function=name)
            if count % 7 == 0 or count == len(names):
                items = family.items()
                assert items == sorted(family._children.items())
                assert len(items) == count

    def test_existing_children_keep_the_cached_order(self):
        family = LabeledCounter("calls", ("function", "outcome"))
        family.add(1.0, function="b", outcome="ok")
        family.add(1.0, function="a", outcome="error")
        first = family.items()
        family.add(5.0, function="b", outcome="ok")  # no new child
        assert family.items() == first
        assert family.labels(function="b", outcome="ok").value == 6.0

    def test_mutating_a_returned_list_does_not_change_the_next(self):
        family = LabeledCounter("calls", ("function",))
        for name in ("c", "a", "b"):
            family.add(1.0, function=name)
        items = family.items()
        items.reverse()
        items.append(("zzz", Counter("zzz")))
        assert [key for key, __ in family.items()] == [("a",), ("b",), ("c",)]


def fresh_percentile(samples, q):
    fresh = Histogram("fresh")
    fresh.extend(samples)
    return fresh.percentile(q)


class TestHistogramPercentileMemo:
    """A repeated percentile query is memoised on ``(q, count)``."""

    def test_observe_invalidates(self):
        rng = random.Random(5)
        hist = Histogram("h")
        samples = []
        for __ in range(200):
            value = rng.expovariate(2.0)
            hist.observe(value)
            samples.append(value)
            for q in (50.0, 99.0):
                assert hist.percentile(q) == fresh_percentile(samples, q)
                assert hist.percentile(q) == fresh_percentile(samples, q)

    def test_merge_invalidates(self):
        rng = random.Random(6)
        left = [rng.uniform(0.0, 1.0) for __ in range(50)]
        right = [rng.uniform(5.0, 10.0) for __ in range(50)]
        hist = Histogram("h")
        hist.extend(left)
        assert hist.percentile(90.0) == fresh_percentile(left, 90.0)
        other = Histogram("o")
        other.extend(right)
        hist.merge(other)
        assert hist.percentile(90.0) == fresh_percentile(left + right, 90.0)

    def test_a_different_quantile_is_recomputed(self):
        samples = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
        hist = Histogram("h")
        hist.extend(samples)
        for q in (95.0, 10.0, 95.0, 0.0, 100.0, 50.0):
            assert hist.percentile(q) == fresh_percentile(samples, q)

    def test_a_raising_call_stores_no_memo(self):
        hist = Histogram("h")
        with pytest.raises(ValueError, match="no samples"):
            hist.percentile(50.0)
        assert hist._memo is None
        hist.observe(3.0)
        assert hist.percentile(50.0) == 3.0
        memo = hist._memo
        with pytest.raises(ValueError, match="outside"):
            hist.percentile(101.0)
        assert hist._memo == memo
