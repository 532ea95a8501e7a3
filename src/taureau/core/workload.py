"""Workload generators — the arrival processes of §3.2.

The paper characterizes serverless applications by *variable load over
time, with the peak several times the mean and the minimum often zero*.
These generators produce exactly such arrival-time sequences, all driven
by explicit RNGs so traces are reproducible.

Two families live here:

- the scalar generators (``poisson_arrivals`` & co.), drawing one
  ``random.Random`` variate per event — fine up to ~1e5 arrivals;
- :func:`poisson_arrivals_vec` and its Lewis–Shedler thinning twin
  ``_thinned_poisson_vec``, drawing whole numpy blocks
  (cumsum-of-exponentials, vectorized thinning) that generate tens of
  millions of arrivals per second and return float64 arrays ready for
  :meth:`~taureau.sim.Simulation.schedule_many`.  The trace generator
  (:mod:`taureau.workload`) draws every arrival through these two.

Each vectorized generator documents its **draw protocol** — the exact
sequence of block draws it takes from its ``numpy.random.Generator`` —
because that protocol *is* the determinism contract: a scalar loop
following the same protocol on the same seeded stream reproduces the
output element-for-element (property-tested in
``tests/test_core_workload.py``).  Numpy's ``Generator`` draws variates
sequentially whether asked one at a time or in blocks, and ``cumsum``
accumulates left-to-right, so vectorization changes no values — only
speed.  Seed a generator with ``sim.rng.numpy_seed(name)``.

Scalar generators return sorted lists, vectorized ones sorted arrays,
all in ``[0, horizon)``; :func:`replay` bulk-schedules either through a
platform.
"""

from __future__ import annotations

import math
import random
import typing

import numpy

from taureau.sim import Event

__all__ = [
    "constant_arrivals",
    "poisson_arrivals",
    "poisson_arrivals_vec",
    "diurnal_arrivals",
    "bursty_arrivals",
    "spike_arrivals",
    "replay",
    "collect",
    "peak_to_mean_ratio",
]


def constant_arrivals(rate: float, horizon: float) -> list:
    """Evenly spaced arrivals at ``rate`` per second.

    The arrival count is derived from the membership predicate
    ``i / rate < horizon`` itself rather than ``int(horizon * rate)``,
    whose float truncation undercounts at non-representable rates
    (e.g. ``rate=0.007, horizon=1000`` → ``int(6.999...) == 6`` where 7
    multiples of the step actually precede the horizon).
    """
    if rate <= 0 or horizon <= 0:
        return []
    step = 1.0 / rate
    count = int(horizon * rate)
    while count * step < horizon:
        count += 1
    while count > 0 and (count - 1) * step >= horizon:
        count -= 1
    return [i * step for i in range(count)]


def poisson_arrivals(rng: random.Random, rate: float, horizon: float) -> list:
    """A homogeneous Poisson process at ``rate`` per second."""
    if rate <= 0:
        return []
    arrivals = []
    clock = rng.expovariate(rate)
    while clock < horizon:
        arrivals.append(clock)
        clock += rng.expovariate(rate)
    return arrivals


def poisson_arrivals_vec(rng, rate: float, horizon: float) -> numpy.ndarray:
    """Vectorized homogeneous Poisson process at ``rate`` per second.

    Draw protocol: blocks of ``exponential(1/rate)`` gaps, concatenated
    and cumulative-summed, until the running sum passes ``horizon``; the
    result is every partial sum strictly below ``horizon``.  Identical
    values to a scalar ``clock += rng.exponential(1/rate)`` loop over
    the same stream.
    """
    if rate <= 0 or horizon <= 0:
        return numpy.empty(0, dtype=numpy.float64)
    scale = 1.0 / rate
    expected = rate * horizon
    block = max(16, int(expected + 4.0 * math.sqrt(expected + 1.0)) + 16)
    gaps = rng.exponential(scale, size=block)
    times = numpy.cumsum(gaps)
    while times[-1] < horizon:
        gaps = numpy.concatenate([gaps, rng.exponential(scale, size=block)])
        times = numpy.cumsum(gaps)
    return times[: numpy.searchsorted(times, horizon, side="left")]


def _thinned_poisson(
    rng: random.Random,
    rate_fn: typing.Callable[[float], float],
    max_rate: float,
    horizon: float,
) -> list:
    """Non-homogeneous Poisson via Lewis-Shedler thinning."""
    if max_rate <= 0:
        return []
    arrivals = []
    clock = 0.0
    while True:
        clock += rng.expovariate(max_rate)
        if clock >= horizon:
            return arrivals
        if rng.random() <= rate_fn(clock) / max_rate:
            arrivals.append(clock)


def _thinned_poisson_vec(rng, rate_vec, max_rate: float, horizon: float) -> numpy.ndarray:
    """Vectorized Lewis–Shedler thinning.

    Draw protocol: ``rng.spawn(2)`` splits the stream into a candidate
    child and a thinning child; candidates come from the first per the
    :func:`poisson_arrivals_vec` protocol, then one uniform per
    candidate from the second; keep candidate ``t`` where
    ``u <= rate(t) / max_rate``.  The split makes the output independent
    of internal block sizing — the i-th candidate and the i-th uniform
    are always the i-th draws of their own streams.
    """
    if max_rate <= 0:
        return numpy.empty(0, dtype=numpy.float64)
    candidate_rng, thinning_rng = rng.spawn(2)
    candidates = poisson_arrivals_vec(candidate_rng, max_rate, horizon)
    if candidates.size == 0:
        return candidates
    uniforms = thinning_rng.random(candidates.size)
    return candidates[uniforms <= rate_vec(candidates) / max_rate]


def diurnal_arrivals(
    rng: random.Random,
    base_rate: float,
    peak_rate: float,
    period: float,
    horizon: float,
) -> list:
    """A sinusoidal day/night cycle between ``base_rate`` and ``peak_rate``.

    The instantaneous rate is ``base + (peak-base) * (1 + sin) / 2``, so
    troughs touch ``base_rate`` (zero gives the paper's "minimum often
    zero").
    """
    if peak_rate < base_rate:
        raise ValueError("peak_rate must be >= base_rate")
    amplitude = peak_rate - base_rate

    def rate(t: float) -> float:
        return base_rate + amplitude * (1.0 + math.sin(2 * math.pi * t / period)) / 2.0

    return _thinned_poisson(rng, rate, peak_rate, horizon)


def bursty_arrivals(
    rng: random.Random,
    on_rate: float,
    mean_on_s: float,
    mean_off_s: float,
    horizon: float,
) -> list:
    """An on/off (interrupted Poisson) process.

    Bursts of ``on_rate`` traffic with exponentially distributed ON
    periods separated by silent OFF periods — the shape of event-driven
    IoT/alerting workloads from §3.
    """
    arrivals = []
    clock = 0.0
    while clock < horizon:
        on_end = clock + rng.expovariate(1.0 / mean_on_s)
        step = rng.expovariate(on_rate)
        while clock + step < min(on_end, horizon):
            clock += step
            arrivals.append(clock)
            step = rng.expovariate(on_rate)
        clock = on_end + rng.expovariate(1.0 / mean_off_s)
    return arrivals


def spike_arrivals(
    rng: random.Random,
    base_rate: float,
    spike_rate: float,
    spike_start: float,
    spike_duration: float,
    horizon: float,
) -> list:
    """A flat baseline with one sharp flash-crowd spike."""

    def rate(t: float) -> float:
        if spike_start <= t < spike_start + spike_duration:
            return spike_rate
        return base_rate

    return _thinned_poisson(rng, rate, max(base_rate, spike_rate), horizon)


def replay(
    platform,
    function_name: str,
    arrivals: typing.Sequence[float],
    payload_fn: typing.Optional[typing.Callable[[int], object]] = None,
) -> list:
    """Schedule one invocation per arrival; returns the completion events.

    ``payload_fn(i)`` builds the payload of the ``i``-th request (default
    ``None``).  Call before ``sim.run()``; events fill in as it runs.
    ``arrivals`` may be a list or a numpy array — the whole vector is
    scheduled in one :meth:`~taureau.sim.Simulation.schedule_many` call,
    so replaying a million-arrival trace costs one bulk post instead of a
    million heap pushes.
    """
    events: list = []

    def fire(index: int) -> None:
        payload = payload_fn(index) if payload_fn else None
        events.append(platform.invoke(function_name, payload))

    platform.sim.schedule_many(arrivals, fire, args=range(len(arrivals)))
    return events


def collect(sim, events: typing.Sequence[Event]) -> list:
    """Run the simulation to completion and return each event's record."""
    sim.run()
    return [event.value for event in events]


def peak_to_mean_ratio(arrivals: typing.Sequence[float], bucket_s: float) -> float:
    """Peak bucketed arrival rate divided by the mean rate.

    The paper's workload characterization (§3.2) keys on this ratio;
    experiment E2 sweeps it.  Bucketing is one ``numpy.bincount`` over
    the floored bucket indices — identical counts to the historical
    Python loop (property-tested), at array speed for 1e7-arrival traces.
    """
    arr = numpy.asarray(arrivals, dtype=numpy.float64)
    if arr.size == 0:
        return 0.0
    bucket_count = int(float(arr.max()) / bucket_s) + 1
    counts = numpy.bincount(
        (arr / bucket_s).astype(numpy.int64), minlength=bucket_count
    )
    mean = arr.size / len(counts)
    return float(counts.max() / mean) if mean > 0 else 0.0
