"""Unit tests for workload generators."""

import random

import numpy
import pytest

from taureau.core import (
    FaasPlatform,
    FunctionSpec,
    bursty_arrivals,
    collect,
    constant_arrivals,
    diurnal_arrivals,
    peak_to_mean_ratio,
    poisson_arrivals,
    poisson_arrivals_vec,
    replay,
    spike_arrivals,
)
from taureau.core.workload import _thinned_poisson_vec
from taureau.sim import Simulation


def within_horizon(arrivals, horizon):
    return all(0 <= t < horizon for t in arrivals)


class TestGenerators:
    def test_constant_spacing(self):
        arrivals = constant_arrivals(rate=2.0, horizon=5.0)
        assert len(arrivals) == 10
        assert arrivals[1] - arrivals[0] == pytest.approx(0.5)

    def test_constant_zero_rate_empty(self):
        assert constant_arrivals(0.0, 10.0) == []

    def test_poisson_rate_roughly_matches(self):
        arrivals = poisson_arrivals(random.Random(1), rate=10.0, horizon=1000.0)
        assert within_horizon(arrivals, 1000.0)
        assert len(arrivals) == pytest.approx(10_000, rel=0.05)
        assert arrivals == sorted(arrivals)

    def test_poisson_reproducible(self):
        a = poisson_arrivals(random.Random(5), 3.0, 100.0)
        b = poisson_arrivals(random.Random(5), 3.0, 100.0)
        assert a == b

    def test_diurnal_peaks_and_troughs(self):
        arrivals = diurnal_arrivals(
            random.Random(2), base_rate=0.0, peak_rate=20.0, period=100.0,
            horizon=1000.0,
        )
        assert within_horizon(arrivals, 1000.0)
        # Quarter-period around the sine peak (t=25 mod 100) should be far
        # busier than around the trough (t=75 mod 100).
        peak_count = sum(1 for t in arrivals if 10 <= t % 100 < 40)
        trough_count = sum(1 for t in arrivals if 60 <= t % 100 < 90)
        assert peak_count > 5 * max(trough_count, 1)

    def test_diurnal_validates_rates(self):
        with pytest.raises(ValueError):
            diurnal_arrivals(random.Random(0), 10.0, 5.0, 100.0, 10.0)

    def test_bursty_has_quiet_gaps(self):
        arrivals = bursty_arrivals(
            random.Random(3), on_rate=50.0, mean_on_s=1.0, mean_off_s=10.0,
            horizon=200.0,
        )
        assert within_horizon(arrivals, 200.0)
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        assert max(gaps) > 3.0  # OFF periods visible
        assert min(gaps) < 0.2  # ON periods dense

    def test_spike_concentrates_arrivals(self):
        arrivals = spike_arrivals(
            random.Random(4), base_rate=1.0, spike_rate=100.0,
            spike_start=50.0, spike_duration=5.0, horizon=100.0,
        )
        in_spike = sum(1 for t in arrivals if 50 <= t < 55)
        outside = len(arrivals) - in_spike
        assert in_spike > outside

    def test_peak_to_mean_ratio(self):
        # 10 arrivals in one bucket, 0 in nine others -> ratio 10.
        arrivals = [5.0 + i * 0.01 for i in range(10)] + [99.0]
        ratio = peak_to_mean_ratio(arrivals, bucket_s=10.0)
        assert ratio > 5.0
        assert peak_to_mean_ratio([], 1.0) == 0.0
        # Perfectly uniform load has ratio ~1.
        uniform = constant_arrivals(1.0, 100.0)
        assert peak_to_mean_ratio(uniform, 10.0) == pytest.approx(1.0)


class TestConstantArrivalsRegression:
    def test_float_truncation_does_not_undercount(self):
        # int(1000 * 0.007) == 6, but seven multiples of 1/0.007 lie
        # strictly below the horizon — the count must come from the
        # membership predicate, not the truncated product.
        arrivals = constant_arrivals(rate=0.007, horizon=1000.0)
        assert len(arrivals) == 7
        assert within_horizon(arrivals, 1000.0)

    @pytest.mark.parametrize("rate", [0.003, 0.007, 1 / 3, 1.0, 2.5, 97.0])
    @pytest.mark.parametrize("horizon", [1.0, 99.9, 1000.0])
    def test_count_matches_membership_predicate(self, rate, horizon):
        arrivals = constant_arrivals(rate, horizon)
        step = 1.0 / rate
        expected = 0
        while expected * step < horizon:
            expected += 1
        assert len(arrivals) == expected
        assert within_horizon(arrivals, horizon)


def _scalar_poisson(rng, rate, horizon):
    """The documented draw protocol, one variate at a time."""
    out = []
    clock = rng.exponential(1.0 / rate)
    while clock < horizon:
        out.append(clock)
        clock += rng.exponential(1.0 / rate)
    return out


def _scalar_thinned(rng, rate_fn, max_rate, horizon):
    candidate_rng, thinning_rng = rng.spawn(2)
    out = []
    for t in _scalar_poisson(candidate_rng, max_rate, horizon):
        if thinning_rng.random() <= rate_fn(t) / max_rate:
            out.append(t)
    return out


class TestVectorizedMatchesScalarProtocol:
    """Each vectorized generator must reproduce, element for element, a
    scalar loop following its documented draw protocol on an identically
    seeded stream — vectorization changes speed, never values.  The
    trace generator draws every arrival through these two."""

    @pytest.mark.parametrize("seed", [0, 1, 17])
    @pytest.mark.parametrize("rate,horizon", [(3.0, 200.0), (40.0, 50.0)])
    def test_poisson(self, seed, rate, horizon):
        vec = poisson_arrivals_vec(numpy.random.default_rng(seed), rate, horizon)
        ref = _scalar_poisson(numpy.random.default_rng(seed), rate, horizon)
        assert vec.tolist() == ref

    @pytest.mark.parametrize("seed", [0, 5])
    def test_diurnal(self, seed):
        base, peak, period, horizon = 1.0, 25.0, 40.0, 300.0

        def rate(t):
            return base + (peak - base) * (1.0 + numpy.sin(2 * numpy.pi * t / period)) / 2.0

        vec = _thinned_poisson_vec(numpy.random.default_rng(seed), rate, peak, horizon)
        ref = _scalar_thinned(numpy.random.default_rng(seed), rate, peak, horizon)
        assert vec.tolist() == ref

    @pytest.mark.parametrize("seed", [0, 9])
    def test_spike(self, seed):
        def rate(t):
            return numpy.where((t >= 30.0) & (t < 35.0), 80.0, 2.0)

        vec = _thinned_poisson_vec(numpy.random.default_rng(seed), rate, 80.0, 100.0)
        ref = _scalar_thinned(numpy.random.default_rng(seed), rate, 80.0, 100.0)
        assert vec.tolist() == ref


class TestVectorizedStatistics:
    def test_poisson_vec_rate_and_shape(self):
        arrivals = poisson_arrivals_vec(
            numpy.random.default_rng(1), rate=10.0, horizon=1000.0
        )
        assert arrivals.dtype == numpy.float64
        assert bool(numpy.all(numpy.diff(arrivals) > 0))
        assert within_horizon(arrivals.tolist(), 1000.0)
        assert arrivals.size == pytest.approx(10_000, rel=0.05)

    def test_zero_rate_and_zero_horizon_empty(self):
        assert poisson_arrivals_vec(numpy.random.default_rng(0), 0.0, 10.0).size == 0
        assert poisson_arrivals_vec(numpy.random.default_rng(0), 5.0, 0.0).size == 0


def _ratio_reference(arrivals, bucket_s):
    """The seed kernel's Python bucketing loop, kept as the oracle."""
    arrivals = list(arrivals)
    if not arrivals:
        return 0.0
    buckets = [0] * (int(max(arrivals) / bucket_s) + 1)
    for t in arrivals:
        buckets[int(t / bucket_s)] += 1
    mean = len(arrivals) / len(buckets)
    return max(buckets) / mean


class TestPeakToMeanRatioProperty:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("bucket_s", [0.25, 1.0, 10.0])
    def test_matches_historical_loop(self, seed, bucket_s):
        rng = random.Random(seed)
        arrivals = sorted(rng.uniform(0, 500) for _ in range(rng.randrange(1, 400)))
        assert peak_to_mean_ratio(arrivals, bucket_s) == pytest.approx(
            _ratio_reference(arrivals, bucket_s)
        )

    def test_accepts_numpy_arrays(self):
        arrivals = poisson_arrivals_vec(numpy.random.default_rng(2), 5.0, 100.0)
        assert peak_to_mean_ratio(arrivals, 10.0) == pytest.approx(
            _ratio_reference(arrivals.tolist(), 10.0)
        )

    def test_single_arrival(self):
        assert peak_to_mean_ratio([0.3], 1.0) == pytest.approx(
            _ratio_reference([0.3], 1.0)
        )


class TestReplay:
    def test_replay_drives_platform(self):
        sim = Simulation(seed=0)
        platform = FaasPlatform(sim)
        seen = []

        def handler(event, ctx):
            ctx.charge(0.01)
            seen.append((sim.now, event))
            return event

        platform.register(FunctionSpec(name="f", handler=handler))
        arrivals = [1.0, 2.0, 3.0]
        events = replay(platform, "f", arrivals, payload_fn=lambda i: i * 10)
        records = collect(sim, events)
        assert [record.payload for record in records] == [0, 10, 20]
        assert len(seen) == 3
        # Handlers ran at (arrival + startup latency), in arrival order.
        assert [round(t) for t, __ in seen] == [1, 2, 3]

    def test_replay_accepts_numpy_arrivals(self):
        sim = Simulation(seed=0)
        platform = FaasPlatform(sim)
        platform.register(
            FunctionSpec(name="f", handler=lambda event, ctx: event)
        )
        arrivals = poisson_arrivals_vec(numpy.random.default_rng(8), 5.0, 20.0)
        events = replay(platform, "f", arrivals, payload_fn=lambda i: i)
        records = collect(sim, events)
        assert [record.payload for record in records] == list(range(arrivals.size))
