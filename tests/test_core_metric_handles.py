"""The platform's per-invocation metric handles are invisible in output.

:class:`FaasPlatform` binds its fixed-name metrics, and each function's
labeled children and billing counters, once instead of looking them up
by name on every invocation.  Each metric must still come into being
exactly when its first sample is recorded, so ``snapshot()`` keys, their
order and their values match a lookup-per-call platform, and the
registry's name and label checks must keep raising.
"""

import pytest

from taureau.cluster import Cluster
from taureau.core import FaasPlatform, FunctionSpec, PlatformConfig
from taureau.sim import MetricRegistry, Simulation

#: ``snapshot()`` keys of :func:`bare_run`, in order.
BARE_RUN_KEYS = [
    "faas.invocations",
    "faas.cold_starts",
    "faas.billing.gb_s",
    "faas.billing.cost_usd",
    "faas.billing.requests.g",
    "faas.billing.seconds.g",
    "faas.billing.gb_s.g",
    "faas.billing.cost_usd.g",
    "faas.billing.requests.f",
    "faas.billing.seconds.f",
    "faas.billing.gb_s.f",
    "faas.billing.cost_usd.f",
    "faas.sandbox_evictions",
    "faas.billing.requests.h",
    "faas.billing.seconds.h",
    "faas.billing.gb_s.h",
    "faas.billing.cost_usd.h",
    "faas.sandbox_expirations",
    "faas.queue_delay_s",
    "faas.cold_start_latency_s",
    "faas.e2e_latency_s",
    "faas.exec_duration_s",
    "faas.sandbox_memory_mb",
    "faas.running",
    'faas.arrivals_by{function="f"}',
    'faas.arrivals_by{function="g"}',
    'faas.arrivals_by{function="h"}',
    'faas.starts_by{function="f",start="cold"}',
    'faas.starts_by{function="f",start="warm"}',
    'faas.starts_by{function="g",start="cold"}',
    'faas.starts_by{function="h",start="cold"}',
    'faas.invocations_by{function="f",outcome="ok"}',
    'faas.invocations_by{function="g",outcome="ok"}',
    'faas.invocations_by{function="h",outcome="ok"}',
    'faas.e2e_latency_by{function="f"}',
    'faas.e2e_latency_by{function="g"}',
    'faas.e2e_latency_by{function="h"}',
    'faas.interarrival_by{function="f"}',
]


def bare_run(handler=lambda event, ctx: ctx.charge(0.25), timeout_s=300.0):
    """Cold and warm starts, one eviction and keep-alive expiries."""
    sim = Simulation(seed=3)
    cluster = Cluster.homogeneous(1, cpu_cores=4, memory_mb=1024)
    platform = FaasPlatform(
        sim, cluster=cluster, config=PlatformConfig(keep_alive_s=60.0)
    )
    for name in ("f", "g", "h"):
        platform.register(FunctionSpec(
            name=name, handler=handler, memory_mb=512, timeout_s=timeout_s,
        ))
    platform.invoke("f", 1)
    platform.invoke("g", 2)
    sim.run(until=5.0)
    platform.invoke("f", 3)
    platform.invoke("h", 4)  # the machine is full: evicts g's sandbox
    sim.run()
    return platform


class TestSnapshotUnchanged:
    def test_bare_run_keys_and_order_are_pinned(self):
        snapshot = bare_run().metrics.snapshot()
        assert list(snapshot) == BARE_RUN_KEYS
        assert snapshot["faas.invocations"] == 4.0
        assert snapshot["faas.cold_starts"] == 3.0
        # g's sandbox was evicted, so only f's and h's expire.
        assert snapshot["faas.sandbox_expirations"] == 2.0
        assert snapshot["faas.sandbox_evictions"] == 3.0  # 1 pressure + 2
        assert snapshot['faas.starts_by{function="f",start="warm"}'] == 1.0

    def test_timeouts_and_errors_appear_only_once_they_occur(self):
        snapshot = bare_run().metrics.snapshot()
        assert "faas.timeouts" not in snapshot
        assert "faas.errors" not in snapshot
        assert "faas.throttles" not in snapshot

        def slow_or_failing(event, ctx):
            ctx.charge(1.0)
            if event % 2:
                raise RuntimeError("odd payload")

        snapshot = bare_run(slow_or_failing, timeout_s=0.5).metrics.snapshot()
        assert snapshot["faas.timeouts"] == 4.0  # a timeout outranks an error
        assert "faas.errors" not in snapshot
        snapshot = bare_run(slow_or_failing).metrics.snapshot()
        assert snapshot["faas.errors"] == 2.0
        assert 'faas.invocations_by{function="f",outcome="error"}' in snapshot

    def test_handles_record_into_the_registry_metrics(self):
        platform = bare_run()
        assert platform.metrics.counter("invocations").value == 4.0
        family = platform.metrics.labeled_counter(
            "invocations_by", ("function", "outcome")
        )
        assert family.labels(function="f", outcome="ok").value == 2.0


class TestRegistryChecksStillRaise:
    def test_cross_type_reuse_raises_after_a_bound_counter(self):
        platform = bare_run()
        with pytest.raises(ValueError, match="already registered as a counter"):
            platform.metrics.distribution("invocations")
        with pytest.raises(ValueError, match="already registered as a counter"):
            platform.metrics.series("faas.billing.gb_s.f")

    def test_wrong_label_set_raises_the_same_error(self):
        family = bare_run().metrics.labeled_counter(
            "invocations_by", ("function", "outcome")
        )
        expected = r"expects labels \['function', 'outcome'\], got "
        with pytest.raises(ValueError, match=expected + r"\['function'\]"):
            family.add(function="f")
        with pytest.raises(ValueError,
                           match=expected + r"\['function', 'start'\]"):
            family.labels(function="f", start="cold")
        with pytest.raises(ValueError,
                           match=expected + r"\['extra', 'function', 'outcome'\]"):
            family.add(function="f", outcome="ok", extra="x")

    def test_repeated_label_names_are_rejected_up_front(self):
        with pytest.raises(ValueError, match="repeats a label"):
            MetricRegistry().labeled_counter("hits", ("function", "function"))
