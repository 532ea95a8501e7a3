"""Metric recorders shared by every taureau subsystem.

The shapes cover everything the experiments and the monitoring layer
need:

- :class:`Counter` — monotonically increasing totals (requests, bytes);
- :class:`Gauge` — last-value samples (occupancy, queue depth);
- :class:`Histogram` — log-bucketed latency/size samples: O(buckets)
  memory regardless of sample count, mergeable, quantile queries with
  bounded relative error;
- :class:`Distribution` — exact raw-sample percentiles, kept for
  offline analysis and as the accuracy oracle for :class:`Histogram`;
- :class:`TimeSeries` — (time, value) traces for capacity/load plots;
- :class:`LabeledCounter` / :class:`LabeledGauge` /
  :class:`LabeledHistogram` — families of the above keyed by label
  values (per-function, per-topic, per-tenant breakdowns).

A :class:`MetricRegistry` groups them under dotted names so a platform
can expose one ``metrics`` object and benches can pull any series out of
it.  ``registry.distribution(name)`` returns a :class:`Histogram`
(bounded memory on the hot recording paths) that implements the whole
old ``Distribution`` query API — mean/min/max/stddev stay exact, only
percentiles become bucket-approximate.
"""

from __future__ import annotations

import bisect
import math
import typing

__all__ = [
    "Counter",
    "Gauge",
    "Distribution",
    "Histogram",
    "LabeledCounter",
    "LabeledGauge",
    "LabeledHistogram",
    "TimeSeries",
    "MetricRegistry",
]


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = ""):
        self.name = name
        self.value: float = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} decremented by {amount}")
        self.value += amount

    def __repr__(self):  # pragma: no cover - debug aid
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A last-value metric that can move in both directions."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = ""):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float = 1.0) -> None:
        self.value += delta

    def __repr__(self):  # pragma: no cover - debug aid
        return f"Gauge({self.name!r}, {self.value})"


class Distribution:
    """A bag of scalar samples with exact summary-statistic queries.

    Stores every raw sample — O(n) memory and a re-sort per percentile
    query — so hot recording paths use :class:`Histogram` instead; this
    class remains the exact oracle the histogram property tests compare
    against, and stays available for small offline sample sets.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._samples: list = []
        self._sorted = True

    def observe(self, value: float) -> None:
        if self._samples and value < self._samples[-1]:
            self._sorted = False
        self._samples.append(value)

    def extend(self, values: typing.Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        return sum(self._samples)

    @property
    def mean(self) -> float:
        if not self._samples:
            raise ValueError(f"distribution {self.name!r} has no samples")
        return self.total / len(self._samples)

    @property
    def minimum(self) -> float:
        if not self._samples:
            raise ValueError(f"distribution {self.name!r} has no samples")
        return min(self._samples)

    @property
    def maximum(self) -> float:
        if not self._samples:
            raise ValueError(f"distribution {self.name!r} has no samples")
        return max(self._samples)

    @property
    def stddev(self) -> float:
        if len(self._samples) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(
            sum((x - mu) ** 2 for x in self._samples) / (len(self._samples) - 1)
        )

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0 <= q <= 100), linearly interpolated."""
        if not self._samples:
            raise ValueError(f"distribution {self.name!r} has no samples")
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile {q} outside [0, 100]")
        ordered = self._ordered()
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        frac = rank - low
        return ordered[low] * (1.0 - frac) + ordered[high] * frac

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def _ordered(self) -> list:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return self._samples

    def __repr__(self):  # pragma: no cover - debug aid
        return f"Distribution({self.name!r}, n={len(self._samples)})"


class Histogram:
    """A log-bucketed sample summary with the :class:`Distribution` API.

    Nonnegative samples land in geometric buckets ``(growth^i,
    growth^(i+1)]`` (zeros in a dedicated bucket), so memory is bounded
    by the number of *occupied* buckets — constant in the sample count —
    and two histograms with the same ``growth`` merge exactly bucket by
    bucket.  ``count``/``total``/``mean``/``minimum``/``maximum``/
    ``stddev`` are tracked exactly on the side; ``percentile`` answers
    in O(buckets) with relative error bounded by ``growth - 1``, and a
    repeated ``percentile`` or ``count_at_or_below`` query against an
    unchanged histogram answers in O(1).
    """

    DEFAULT_GROWTH = 1.05  # <= 5% relative error on quantiles

    __slots__ = (
        "name",
        "growth",
        "_log_growth",
        "_counts",
        "_zero",
        "_count",
        "_total",
        "_sumsq",
        "_min",
        "_max",
        "_memo",
        "_below_memo",
    )

    def __init__(self, name: str = "", growth: float = DEFAULT_GROWTH):
        if growth <= 1.0:
            raise ValueError(f"histogram {name!r}: growth must exceed 1.0")
        self.name = name
        self.growth = growth
        self._log_growth = math.log(growth)
        self._counts: typing.Dict[int, int] = {}  # bucket index -> count
        self._zero = 0
        self._count = 0
        self._total = 0.0
        self._sumsq = 0.0
        self._min = math.inf
        self._max = -math.inf
        #: The last ``percentile`` answer as ``(q, count, value)``.  Every
        #: ``observe`` and every non-empty ``merge`` changes ``_count``, so
        #: an equal count means the same buckets and the same answer.
        self._memo: typing.Optional[tuple] = None
        #: The last ``count_at_or_below`` answer as ``(threshold, count,
        #: value)``, valid on the same grounds.
        self._below_memo: typing.Optional[tuple] = None

    # -- recording ---------------------------------------------------------

    def observe(self, value: float) -> None:
        if value < 0 or not math.isfinite(value):
            raise ValueError(
                f"histogram {self.name!r} cannot record value {value}; "
                f"samples must be finite and nonnegative"
            )
        self._count += 1
        self._total += value
        self._sumsq += value * value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value == 0.0:
            self._zero += 1
        else:
            index = math.floor(math.log(value) / self._log_growth)
            self._counts[index] = self._counts.get(index, 0) + 1

    def extend(self, values: typing.Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram (same ``growth`` required)."""
        if other.growth != self.growth:
            raise ValueError(
                f"cannot merge histograms with growth {self.growth} and "
                f"{other.growth}"
            )
        for index, count in other._counts.items():
            self._counts[index] = self._counts.get(index, 0) + count
        self._zero += other._zero
        self._count += other._count
        self._total += other._total
        self._sumsq += other._sumsq
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        return self

    # -- exact side statistics --------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        if not self._count:
            raise ValueError(f"histogram {self.name!r} has no samples")
        return self._total / self._count

    @property
    def minimum(self) -> float:
        if not self._count:
            raise ValueError(f"histogram {self.name!r} has no samples")
        return self._min

    @property
    def maximum(self) -> float:
        if not self._count:
            raise ValueError(f"histogram {self.name!r} has no samples")
        return self._max

    @property
    def stddev(self) -> float:
        if self._count < 2:
            return 0.0
        mu = self.mean
        variance = (self._sumsq - self._count * mu * mu) / (self._count - 1)
        return math.sqrt(max(0.0, variance))

    # -- bucket introspection (exporters, windowed rules) ------------------

    @property
    def zero_count(self) -> int:
        return self._zero

    @property
    def bucket_count(self) -> int:
        """Occupied buckets — the memory bound, constant in samples."""
        return len(self._counts) + (1 if self._zero else 0)

    def bucket_upper(self, index: int) -> float:
        """The inclusive upper bound of bucket ``index``."""
        return self.growth ** (index + 1)

    def bucket_items(self) -> typing.List[typing.Tuple[int, int]]:
        """Occupied ``(bucket_index, count)`` pairs, ascending."""
        return sorted(self._counts.items())

    def count_at_or_below(self, threshold: float) -> int:
        """How many samples fell at or below ``threshold`` (bucket-exact).

        A bucket counts as "below" when its upper bound does — so the
        answer is exact up to one bucket's relative error, which is what
        latency SLOs need.
        """
        if threshold < 0:
            return 0
        memo = self._below_memo
        if memo is not None and memo[0] == threshold and memo[1] == self._count:
            return memo[2]
        below = self._zero
        for index, count in self._counts.items():
            if self.bucket_upper(index) <= threshold * (1.0 + 1e-12):
                below += count
        self._below_memo = (threshold, self._count, below)
        return below

    def state(self) -> tuple:
        """A cheap immutable snapshot for windowed-delta evaluation."""
        return (self._count, self._zero, dict(self._counts))

    def percentile_since(self, state: tuple, q: float) -> typing.Optional[float]:
        """The ``q``-th percentile of samples recorded since ``state``.

        Histograms are mergeable, so they are *subtractable* too: the
        window is the bucket-wise difference between now and the earlier
        snapshot.  Returns ``None`` when the window holds no samples.
        """
        old_count, old_zero, old_counts = state
        window_count = self._count - old_count
        if window_count <= 0:
            return None
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile {q} outside [0, 100]")
        target = max(1, math.ceil((q / 100.0) * window_count))
        cumulative = self._zero - old_zero
        if cumulative >= target:
            return 0.0
        value = 0.0
        for index, count in sorted(self._counts.items()):
            delta = count - old_counts.get(index, 0)
            if delta <= 0:
                continue
            cumulative += delta
            value = self.bucket_upper(index)
            if cumulative >= target:
                return value
        return value

    # -- quantile queries (Distribution-compatible) ------------------------

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile, within one bucket's relative error."""
        if not self._count:
            raise ValueError(f"histogram {self.name!r} has no samples")
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile {q} outside [0, 100]")
        memo = self._memo
        if memo is not None and memo[0] == q and memo[1] == self._count:
            return memo[2]
        value = self._percentile(q)
        self._memo = (q, self._count, value)
        return value

    def _percentile(self, q: float) -> float:
        if q == 0.0:
            return self._min
        if q == 100.0:
            return self._max
        target = max(1, math.ceil((q / 100.0) * self._count))
        cumulative = self._zero
        if cumulative >= target:
            return 0.0
        for index, count in sorted(self._counts.items()):
            cumulative += count
            if cumulative >= target:
                # Clamp into the observed range: the extreme buckets are
                # wider than the data they hold.
                return min(max(self.bucket_upper(index), self._min), self._max)
        return self._max

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def __repr__(self):  # pragma: no cover - debug aid
        return (
            f"Histogram({self.name!r}, n={self._count}, "
            f"buckets={self.bucket_count})"
        )


class TimeSeries:
    """A (time, value) trace, appended in nondecreasing time order."""

    def __init__(self, name: str = ""):
        self.name = name
        self.times: list = []
        self.values: list = []

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"time series {self.name!r}: {time} precedes {self.times[-1]}"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def value_at(self, time: float) -> float:
        """The last recorded value at or before ``time`` (step semantics)."""
        if not self.times:
            raise ValueError(f"time series {self.name!r} is empty")
        index = bisect.bisect_right(self.times, time) - 1
        if index < 0:
            raise ValueError(f"time {time} precedes first sample {self.times[0]}")
        return self.values[index]

    def integral(self, start: float, end: float) -> float:
        """The step-function integral of the series over [start, end].

        Useful for resource-time products (e.g. GB-seconds billed).
        """
        if end < start:
            raise ValueError("integral bounds reversed")
        if not self.times or end <= self.times[0]:
            return 0.0
        total = 0.0
        clock = max(start, self.times[0])
        index = bisect.bisect_right(self.times, clock) - 1
        while clock < end:
            next_change = (
                self.times[index + 1] if index + 1 < len(self.times) else float("inf")
            )
            segment_end = min(end, next_change)
            total += self.values[index] * (segment_end - clock)
            clock = segment_end
            index += 1
        return total

    def maximum(self) -> float:
        if not self.values:
            raise ValueError(f"time series {self.name!r} is empty")
        return max(self.values)

    def time_average(self, start: float, end: float) -> float:
        if end <= start:
            raise ValueError("time_average needs end > start")
        return self.integral(start, end) / (end - start)


class _LabeledFamily:
    """Children of one metric type keyed by a fixed label-name tuple."""

    child_type: typing.Optional[type] = None

    def __init__(self, name: str, label_names: typing.Sequence[str], **child_kwargs):
        if not label_names:
            raise ValueError(f"labeled metric {name!r} needs at least one label")
        if len(set(label_names)) != len(label_names):
            raise ValueError(
                f"labeled metric {name!r} repeats a label in {list(label_names)}"
            )
        self.name = name
        self.label_names = tuple(label_names)
        self._children: typing.Dict[tuple, object] = {}
        self._child_kwargs = child_kwargs
        #: ``sorted(_children.items())``, dropped when a child is created.
        self._sorted: typing.Optional[list] = None
        #: ``name{label="%s",...}``: a child's name is this template
        #: formatted with its label values.
        self._template = "%s{%s}" % (
            name.replace("%", "%%"),
            ",".join(f'{label.replace("%", "%%")}="%s"' for label in self.label_names),
        )

    def _key(self, labels: dict) -> tuple:
        # Label names are distinct, so equal counts plus every name present
        # means the label sets are equal.
        if len(labels) == len(self.label_names):
            try:
                return tuple([str(labels[name]) for name in self.label_names])
            except KeyError:
                pass
        raise ValueError(
            f"metric {self.name!r} expects labels {list(self.label_names)}, "
            f"got {sorted(labels)}"
        )

    def labels(self, **labels):
        """The child metric for one label-value combination."""
        return self.child(*self._key(labels))

    def child(self, *values: str):
        """The child for ``values`` (label values as strings, in label-name
        order), created on first use."""
        child = self._children.get(values)
        if child is None:
            if len(values) != len(self.label_names):
                raise ValueError(
                    f"metric {self.name!r} expects values for "
                    f"{list(self.label_names)}, got {len(values)}"
                )
            child = self.child_type(self._template % values, **self._child_kwargs)
            self._children[values] = child
            self._sorted = None
        return child

    def get(self, *values: str):
        """The child for ``values`` (label values as strings, in label-name
        order), or ``None``; never creates one."""
        return self._children.get(values)

    def child_name(self, key: tuple) -> str:
        return self._template % key

    def items(self) -> list:
        """``(label_values_tuple, child)`` pairs, sorted for determinism."""
        if self._sorted is None:
            self._sorted = sorted(self._children.items())
        return list(self._sorted)

    def __len__(self) -> int:
        return len(self._children)

    def __repr__(self):  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}({self.name!r}, "
            f"labels={list(self.label_names)}, children={len(self._children)})"
        )


class LabeledCounter(_LabeledFamily):
    """A family of counters keyed by label values (e.g. per function)."""

    child_type = Counter

    def add(self, amount: float = 1.0, **labels) -> None:
        self.labels(**labels).add(amount)


class LabeledGauge(_LabeledFamily):
    """A family of gauges keyed by label values (e.g. per tenant)."""

    child_type = Gauge

    def set(self, value: float, **labels) -> None:
        self.labels(**labels).set(value)

    def add(self, delta: float = 1.0, **labels) -> None:
        self.labels(**labels).add(delta)


class LabeledHistogram(_LabeledFamily):
    """A family of histograms keyed by label values."""

    child_type = Histogram

    def observe(self, value: float, **labels) -> None:
        self.labels(**labels).observe(value)


class MetricRegistry:
    """A namespace of metrics, created on first reference.

    ``namespace`` normalizes metric names to dotted canonical form: a
    registry built with ``MetricRegistry(namespace="faas")`` files
    ``counter("invocations")`` under ``faas.invocations`` while keeping
    the short name readable as an alias — ``counter("invocations")`` and
    ``counter("faas.invocations")`` return the same object, so existing
    callers keep working and :meth:`snapshot` exports one uniform
    ``faas.*`` / ``pulsar.*`` / ``jiffy.*`` naming scheme across
    subsystems.

    Reusing one canonical name across metric types (``counter("x")``
    then ``distribution("x")``) raises instead of silently shadowing one
    of them in :meth:`snapshot`.
    """

    def __init__(self, namespace: str = ""):
        self.namespace = namespace
        self._counters: dict = {}
        self._gauges: dict = {}
        self._distributions: dict = {}
        self._series: dict = {}
        self._labeled_counters: dict = {}
        self._labeled_gauges: dict = {}
        self._labeled_histograms: dict = {}
        self._kinds: dict = {}  # canonical name -> kind string

    def canonical(self, name: str) -> str:
        """The fully-qualified dotted name for ``name`` in this registry."""
        if not self.namespace or name.startswith(self.namespace + "."):
            return name
        return f"{self.namespace}.{name}"

    def _claim(self, name: str, kind: str) -> str:
        name = self.canonical(name)
        existing = self._kinds.get(name)
        if existing is None:
            self._kinds[name] = kind
        elif existing != kind:
            raise ValueError(
                f"metric {name!r} is already registered as a {existing}; "
                f"cannot reuse the name as a {kind}"
            )
        return name

    def counter(self, name: str) -> Counter:
        name = self._claim(name, "counter")
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        name = self._claim(name, "gauge")
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def distribution(self, name: str) -> Histogram:
        """A bounded-memory sample recorder with the old Distribution API.

        Hot paths record through here; the returned :class:`Histogram`
        answers the full ``Distribution`` query surface (mean/min/max/
        stddev exact, percentiles within one bucket's relative error).
        """
        return self.histogram(name)

    def histogram(
        self, name: str, growth: typing.Optional[float] = None
    ) -> Histogram:
        name = self._claim(name, "distribution")
        existing = self._distributions.get(name)
        if existing is None:
            existing = Histogram(
                name, growth=Histogram.DEFAULT_GROWTH if growth is None else growth
            )
            self._distributions[name] = existing
        elif growth is not None and existing.growth != growth:
            raise ValueError(
                f"histogram {name!r} already exists with growth "
                f"{existing.growth}, requested {growth}"
            )
        return existing

    def series(self, name: str) -> TimeSeries:
        name = self._claim(name, "series")
        if name not in self._series:
            self._series[name] = TimeSeries(name)
        return self._series[name]

    def _labeled(
        self, store: dict, factory: type, kind: str, name: str,
        label_names: typing.Sequence[str], **child_kwargs,
    ):
        name = self._claim(name, kind)
        existing = store.get(name)
        if existing is None:
            existing = factory(name, label_names, **child_kwargs)
            store[name] = existing
        elif existing.label_names != tuple(label_names):
            raise ValueError(
                f"labeled metric {name!r} already exists with labels "
                f"{list(existing.label_names)}, requested {list(label_names)}"
            )
        return existing

    def labeled_counter(
        self, name: str, label_names: typing.Sequence[str]
    ) -> LabeledCounter:
        return self._labeled(
            self._labeled_counters, LabeledCounter, "labeled counter",
            name, label_names,
        )

    def labeled_gauge(
        self, name: str, label_names: typing.Sequence[str]
    ) -> LabeledGauge:
        return self._labeled(
            self._labeled_gauges, LabeledGauge, "labeled gauge",
            name, label_names,
        )

    def labeled_histogram(
        self, name: str, label_names: typing.Sequence[str],
        growth: float = Histogram.DEFAULT_GROWTH,
    ) -> LabeledHistogram:
        return self._labeled(
            self._labeled_histograms, LabeledHistogram, "labeled histogram",
            name, label_names, growth=growth,
        )

    # ------------------------------------------------------------------
    # Introspection (exporters, the monitor's name resolver)
    # ------------------------------------------------------------------

    def find(self, name: str) -> typing.Optional[object]:
        """The metric object stored under ``name``, or ``None``.

        Accepts short or canonical names; never creates anything —
        recording rules use this to resolve sources that may not have
        been instantiated yet.  A child of a labeled family is
        addressable by its rendered name, e.g.
        ``faas.invocations_by{function="f",outcome="ok"}``.
        """
        name = self.canonical(name)
        if "{" in name:
            family_name, _, rest = name.partition("{")
            for store in (
                self._labeled_counters, self._labeled_gauges,
                self._labeled_histograms,
            ):
                family = store.get(family_name)
                if family is None:
                    continue
                for key, child in family.items():
                    if family.child_name(key) == name:
                        return child
            return None
        for store in (
            self._counters, self._gauges, self._distributions, self._series,
            self._labeled_counters, self._labeled_gauges,
            self._labeled_histograms,
        ):
            if name in store:
                return store[name]
        return None

    def walk(self) -> typing.Iterator[typing.Tuple[str, str, object]]:
        """Yield ``(kind, canonical_name, metric)`` for every metric.

        Iteration order is deterministic: kinds in a fixed order, names
        sorted within each kind — exporters rely on this for
        byte-identical output across same-seed runs.
        """
        groups = (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._distributions),
            ("series", self._series),
            ("labeled_counter", self._labeled_counters),
            ("labeled_gauge", self._labeled_gauges),
            ("labeled_histogram", self._labeled_histograms),
        )
        for kind, store in groups:
            for name in sorted(store):
                yield kind, name, store[name]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    @staticmethod
    def _histogram_summary(histogram) -> dict:
        if not len(histogram):
            return {"count": 0}
        return {
            "count": histogram.count,
            "mean": histogram.mean,
            "p50": histogram.p50,
            "p99": histogram.p99,
        }

    def snapshot(self) -> dict:
        """A plain-dict export under canonical dotted names.

        Counters and gauges export their value, distributions a summary
        dict (``{"count": 0}`` when nothing was recorded — zero-sample
        metrics are data, not noise), time series their point count and
        last value, and labeled families one entry per child under
        ``name{label="value"}`` keys.
        """
        summary: dict = {}
        for name, counter in self._counters.items():
            summary[name] = counter.value
        for name, gauge in self._gauges.items():
            summary[name] = gauge.value
        for name, dist in self._distributions.items():
            summary[name] = self._histogram_summary(dist)
        for name, series in self._series.items():
            if len(series):
                summary[name] = {
                    "points": len(series),
                    "last": series.values[-1],
                }
        for family in self._labeled_counters.values():
            for __, child in family.items():
                summary[child.name] = child.value
        for family in self._labeled_gauges.values():
            for __, child in family.items():
                summary[child.name] = child.value
        for family in self._labeled_histograms.values():
            for __, child in family.items():
                summary[child.name] = self._histogram_summary(child)
        return summary
