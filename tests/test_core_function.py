"""Unit tests for function specs, contexts and invocation records."""

import pytest

from taureau.core import FunctionSpec, InvocationContext, InvocationRecord


def noop(event, ctx):
    return event


class TestFunctionSpec:
    def test_defaults(self):
        spec = FunctionSpec(name="f", handler=noop)
        assert spec.memory_mb == 256.0
        assert spec.timeout_s == 300.0
        assert spec.max_retries == 0
        assert spec.memory_gb == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            FunctionSpec(name="f", handler=noop, memory_mb=0)
        with pytest.raises(ValueError):
            FunctionSpec(name="f", handler=noop, timeout_s=0)
        with pytest.raises(ValueError):
            FunctionSpec(name="f", handler=noop, max_retries=-1)


class TestInvocationContext:
    def _ctx(self, timeout=10.0, base=0.0):
        return InvocationContext(
            invocation_id="inv0",
            function_name="f",
            timeout_s=timeout,
            start_time=0.0,
            base_duration=base,
        )

    def test_charge_accrues(self):
        ctx = self._ctx()
        ctx.charge(1.5)
        ctx.charge(0.5)
        assert ctx.accrued_s == 2.0

    def test_charge_negative_rejected(self):
        with pytest.raises(ValueError):
            self._ctx().charge(-1)

    def test_remaining_time_counts_down_and_floors_at_zero(self):
        ctx = self._ctx(timeout=5.0)
        assert ctx.remaining_time_s() == 5.0
        ctx.charge(3.0)
        assert ctx.remaining_time_s() == 2.0
        ctx.charge(10.0)
        assert ctx.remaining_time_s() == 0.0

    def test_base_duration_counts_toward_remaining(self):
        ctx = self._ctx(timeout=5.0, base=4.0)
        assert ctx.remaining_time_s() == 1.0

    def test_service_lookup(self):
        ctx = InvocationContext("i", "f", 1.0, 0.0, services={"blob": "client"})
        assert ctx.service("blob") == "client"
        with pytest.raises(KeyError, match="not wired"):
            ctx.service("missing")


class TestInvocationRecord:
    def test_latency_accessors(self):
        record = InvocationRecord(
            invocation_id="i",
            function_name="f",
            payload=None,
            arrival_time=10.0,
            start_time=11.0,
            end_time=14.0,
        )
        assert record.execution_duration_s == 3.0
        assert record.end_to_end_latency_s == 4.0
        assert record.succeeded
