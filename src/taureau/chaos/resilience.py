"""Client-side resilient invocation for the FaaS platform.

:class:`ResilientInvoker` wraps ``FaasPlatform._invoke_once`` with the
mechanisms of :class:`~taureau.chaos.ResiliencePolicy`: bounded retries
with exponential backoff and seeded jitter, per-attempt timeouts,
hedged duplicate requests, per-function circuit breakers, and a global
retry budget.  Installed through ``FaasPlatform.with_resilience`` (or
the facade's), after which every ``invoke`` — including orchestration
and Pulsar triggers, which call the same entry point — goes through it.

The invoker keeps the platform's contract: the returned event *always
succeeds* with a final :class:`~taureau.core.function.InvocationRecord`;
failures stay data.  A short-circuited call resolves with a THROTTLED
record carrying a :class:`~taureau.chaos.CircuitOpenError`.
"""

from __future__ import annotations

import itertools
import typing

from taureau.chaos.faults import CircuitOpenError
from taureau.core.function import InvocationRecord, InvocationStatus

__all__ = ["ResilientInvoker"]


class _Call:
    """Book-keeping for one logical invocation across attempts/hedges."""

    __slots__ = (
        "name", "payload", "parent", "done", "arrival_time", "resolved",
        "retries_used", "hedged", "live_tokens", "last_record",
        "journal_entry",
    )

    def __init__(self, name, payload, parent, done, arrival_time,
                 journal_entry=None):
        self.name = name
        self.payload = payload
        self.parent = parent
        self.done = done
        self.arrival_time = arrival_time
        self.resolved = False
        self.retries_used = 0
        self.hedged = False
        #: Tokens of attempts whose results are still wanted; a timed-out
        #: attempt's token is removed, so its late completion is ignored.
        self.live_tokens: set = set()
        self.last_record: typing.Optional[InvocationRecord] = None
        #: Durable-execution journal entry shared by every attempt of
        #: this logical call (None when durability is off) — what makes
        #: client-side retries replay instead of re-execute.
        self.journal_entry = journal_entry


class ResilientInvoker:
    """Applies a :class:`ResiliencePolicy` to every platform invocation."""

    def __init__(self, platform, policy):
        self.platform = platform
        self.policy = policy
        self.sim = platform.sim
        self.metrics = platform.metrics
        self._rng = self.sim.rng.stream("chaos.resilience")
        self._breakers: dict = {}
        self._short_circuit_ids = itertools.count()
        self._budget_left = policy.retry_budget

    # ------------------------------------------------------------------

    def invoke(self, name: str, payload: object = None, parent=None,
               journal_entry=None):
        done = self.sim.event()
        call = _Call(name, payload, parent, done, self.sim.now,
                     journal_entry=journal_entry)
        if not self._breaker_allows(name):
            self.metrics.counter("breaker_short_circuits").add()
            if journal_entry is not None:
                # The entry never ran; settle it so it does not read as
                # lost in-flight work.
                journal_entry.finalize("throttled")
            record = self._client_record(
                call, CircuitOpenError(f"{name}: circuit breaker is open")
            )
            # Keep the aggregate and labeled invocation counts consistent:
            # a short-circuited call is still a (terminal) invocation.
            self.metrics.counter("invocations").add()
            self.metrics.labeled_counter(
                "invocations_by", ("function", "outcome")
            ).add(function=name, outcome=record.status.value)
            done.succeed(record)
            return done
        self._launch(call)
        return done

    # ------------------------------------------------------------------
    # Attempt lifecycle
    # ------------------------------------------------------------------

    def _launch(self, call: _Call) -> None:
        token = object()
        call.live_tokens.add(token)
        event = self.platform._invoke_once(
            call.name, call.payload, parent=call.parent,
            journal_entry=call.journal_entry,
        )
        event.add_callback(
            lambda ev, token=token: self._attempt_done(call, token, ev.value)
        )
        if self.policy.attempt_timeout_s is not None:
            self.sim.schedule_after(
                self.policy.attempt_timeout_s, self._attempt_timed_out,
                call, token,
            )
        if self.policy.hedge_after_s is not None and not call.hedged:
            call.hedged = True  # at most one hedge per logical call
            self.sim.schedule_after(
                self.policy.hedge_after_s, self._maybe_hedge, call
            )

    def _attempt_done(self, call: _Call, token, record) -> None:
        if call.resolved or token not in call.live_tokens:
            return  # already resolved, or this attempt was timed out
        call.live_tokens.discard(token)
        call.last_record = record
        if record.status is InvocationStatus.OK:
            self._resolve(call, record, success=True)
        else:
            self._attempt_failed(call, "failed")

    def _attempt_timed_out(self, call: _Call, token) -> None:
        if call.resolved or token not in call.live_tokens:
            return
        call.live_tokens.discard(token)
        self._retry_metric("attempt_timeout")
        self._attempt_failed(call, "attempt_timeout")

    def _maybe_hedge(self, call: _Call) -> None:
        if call.resolved:
            return
        self.metrics.counter("hedged_requests").add()
        self._launch(call)

    def _attempt_failed(self, call: _Call, reason: str) -> None:
        retry = self.policy.retry
        may_retry = (
            retry is not None
            and call.retries_used < retry.max_attempts
            and self._budget_allows()
        )
        if may_retry:
            call.retries_used += 1
            if self._budget_left is not None:
                self._budget_left -= 1
            self._retry_metric("retry")
            if call.journal_entry is None and call.last_record is not None:
                # No journal: the relaunched attempt will re-bill the
                # work the failed record already charged.  Count those
                # slices as double-billed (the E43 baseline measure).
                billed = call.last_record.billed_duration_s
                if billed > 0:
                    granularity = (
                        self.platform.config.calibration.billing_granularity_s
                    )
                    self.metrics.counter("billing.double_billed_slices").add(
                        int(round(billed / granularity))
                    )
            delay = retry.backoff_s(call.retries_used - 1, self._rng)
            self.sim.schedule_after(delay, self._relaunch, call)
            return
        # Out of retries: resolve as failed once no attempt is in flight
        # (a pending hedge may still win).
        if not call.live_tokens:
            self._resolve(call, call.last_record, success=False)

    def _relaunch(self, call: _Call) -> None:
        if call.resolved:
            return
        self._launch(call)

    def _resolve(self, call: _Call, record, success: bool) -> None:
        call.resolved = True
        breaker = self._breakers.get(call.name)
        if breaker is not None:
            if success:
                breaker.record_success()
            else:
                breaker.record_failure()
            self._publish_breaker_state(call.name, breaker)
        if success and call.retries_used > 0:
            self._retry_metric("recovered")
        if not success:
            self._retry_metric("exhausted")
        if record is None:
            # Every attempt timed out before returning a record.  Each
            # abandoned attempt is already a counted platform invocation,
            # so this record counts nothing more.
            record = self._client_record(call, CircuitOpenError(
                f"{call.name}: all attempts timed out client-side"
            ))
        call.done.succeed(record)

    def _budget_allows(self) -> bool:
        if self._budget_left is None:
            return True
        if self._budget_left > 0:
            return True
        self.metrics.counter("retry_budget_exhausted").add()
        return False

    def _retry_metric(self, outcome: str) -> None:
        self.metrics.labeled_counter(
            "retries_by", ("component", "outcome")
        ).add(component="faas.client", outcome=outcome)

    # ------------------------------------------------------------------
    # Circuit breakers
    # ------------------------------------------------------------------

    def _breaker_allows(self, name: str) -> bool:
        """Whether ``name``'s breaker admits a call (True without one)."""
        breaker = self._breakers.get(name)
        if breaker is None:
            if self.policy.breaker_failure_threshold is None:
                return True
            breaker = self._breakers[name] = self.policy.breaker_for(self.sim)
            self._publish_breaker_state(name, breaker)
        allowed = breaker.allow()
        # allow() may have transitioned the state.
        self._publish_breaker_state(name, breaker)
        return allowed

    def _publish_breaker_state(self, name: str, breaker) -> None:
        self.metrics.labeled_gauge("breaker_state", ("function",)).set(
            breaker.state_value, function=name
        )

    def _client_record(self, call: _Call, error) -> InvocationRecord:
        """A THROTTLED record for a call the client settles itself."""
        record = InvocationRecord(
            invocation_id=f"cb{next(self._short_circuit_ids)}",
            function_name=call.name,
            payload=call.payload,
            arrival_time=call.arrival_time,
        )
        record.start_time = record.end_time = self.sim.now
        record.status = InvocationStatus.THROTTLED
        record.error = error
        return record

    def breaker_state(self, name: str) -> str:
        """The breaker state for ``name`` (``"closed"`` when none exists)."""
        breaker = self._breakers.get(name)
        return breaker.state if breaker is not None else "closed"
