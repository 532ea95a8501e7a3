"""Resilience policies: retry/backoff, circuit breaking, bundles.

"Serverless Computing: Current Trends and Open Problems" frames retries
on opaque failures and at-least-once delivery as the defining
reliability semantics of FaaS; the Serverless Computing Survey catalogs
the client-side mechanisms every production platform ships — timeouts,
exponential backoff, hedged requests, circuit breakers, dead-letter
queues.  This module models all of them as *policy objects* that are
pure data plus virtual-clock state machines:

- :class:`RetryPolicy` — exponential backoff with seeded jitter (the
  rng comes from the caller, always a ``sim.rng`` stream, so retry
  timing is part of the determinism contract).
- :class:`CircuitBreaker` — closed/open/half-open on the virtual clock.
- :class:`ResiliencePolicy` — the bundle ``Platform.with_resilience``
  installs: retry + per-attempt timeout + hedging + breaker +
  Pulsar dead-lettering knobs, all off unless set.
"""

from __future__ import annotations

import dataclasses
import typing

__all__ = ["RetryPolicy", "CircuitBreaker", "ResiliencePolicy"]


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded full-range jitter.

    ``max_attempts`` counts *retries* (a call may run 1 + max_attempts
    times).  The delay before retry ``attempt`` (0-based) is
    ``base_delay_s * multiplier**attempt`` capped at ``max_delay_s``,
    then scaled by a jitter factor drawn uniformly from
    ``[1 - jitter, 1]`` — decorrelated enough to break thundering
    herds, deterministic because the rng is a named simulation stream.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 10.0
    jitter: float = 0.5

    def __post_init__(self):
        if self.max_attempts < 0:
            raise ValueError("max_attempts cannot be negative")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays cannot be negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def backoff_s(self, attempt: int, rng) -> float:
        """The delay before 0-based retry ``attempt``, jittered via ``rng``."""
        delay = min(self.base_delay_s * self.multiplier ** attempt,
                    self.max_delay_s)
        if self.jitter > 0.0 and delay > 0.0:
            delay *= 1.0 - self.jitter * rng.random()
        return delay


class CircuitBreaker:
    """A closed/open/half-open breaker on the virtual clock.

    CLOSED counts consecutive failures; at ``failure_threshold`` the
    breaker OPENs and :meth:`allow` fails fast.  After
    ``reset_timeout_s`` of simulated time the next :meth:`allow` moves
    to HALF_OPEN and admits exactly one probe: a probe success closes
    the breaker, a probe failure re-opens it for another timeout.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"
    #: Gauge encoding for the ``breaker_state`` metric.
    STATE_VALUES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}

    def __init__(self, sim, failure_threshold: int = 5,
                 reset_timeout_s: float = 30.0):
        if failure_threshold <= 0:
            raise ValueError("failure_threshold must be positive")
        if reset_timeout_s <= 0:
            raise ValueError("reset_timeout_s must be positive")
        self.sim = sim
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.state = self.CLOSED
        self.transitions: typing.List[tuple] = []
        self._consecutive_failures = 0
        self._opened_at: typing.Optional[float] = None
        self._probe_in_flight = False

    def allow(self) -> bool:
        """May a call proceed right now?  (HALF_OPEN admits one probe.)"""
        if self.state == self.OPEN:
            if self.sim.now - self._opened_at >= self.reset_timeout_s:
                self._transition(self.HALF_OPEN)
                self._probe_in_flight = True
                return True
            return False
        if self.state == self.HALF_OPEN:
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            return True
        return True

    def record_success(self) -> None:
        self._consecutive_failures = 0
        self._probe_in_flight = False
        if self.state != self.CLOSED:
            self._transition(self.CLOSED)

    def record_failure(self) -> None:
        self._probe_in_flight = False
        if self.state == self.HALF_OPEN:
            self._open()
            return
        self._consecutive_failures += 1
        if (self.state == self.CLOSED
                and self._consecutive_failures >= self.failure_threshold):
            self._open()

    def _open(self) -> None:
        self._opened_at = self.sim.now
        self._consecutive_failures = 0
        self._transition(self.OPEN)

    def _transition(self, state: str) -> None:
        self.state = state
        self.transitions.append((self.sim.now, state))

    @property
    def state_value(self) -> int:
        return self.STATE_VALUES[self.state]


@dataclasses.dataclass(frozen=True)
class ResiliencePolicy:
    """The platform-wide resilience bundle (``Platform.with_resilience``).

    - ``retry`` drives client-side FaaS retries and guarded BaaS/Jiffy
      in-place retries (``None`` disables retrying).
    - ``attempt_timeout_s`` abandons one attempt after that much
      simulated time (the attempt's late result is ignored).
    - ``hedge_after_s`` launches one duplicate request per invocation
      if the first has not resolved in time; first result wins.
    - ``breaker_failure_threshold`` (when set) installs a per-function
      :class:`CircuitBreaker` with ``breaker_reset_timeout_s``.
    - ``retry_budget`` caps total client-side retries across the whole
      run (``None`` = unbounded), bounding retry-storm amplification.
    - ``max_redeliveries`` is adopted as the Pulsar Functions runtime
      default before a poison message is dead-lettered.
    """

    retry: typing.Optional[RetryPolicy] = dataclasses.field(
        default_factory=RetryPolicy
    )
    attempt_timeout_s: typing.Optional[float] = None
    hedge_after_s: typing.Optional[float] = None
    breaker_failure_threshold: typing.Optional[int] = None
    breaker_reset_timeout_s: float = 30.0
    retry_budget: typing.Optional[int] = None
    max_redeliveries: int = 3

    def breaker_for(self, sim):
        """A configured :class:`CircuitBreaker`, or ``None`` if disabled."""
        if self.breaker_failure_threshold is None:
            return None
        return CircuitBreaker(
            sim,
            failure_threshold=self.breaker_failure_threshold,
            reset_timeout_s=self.breaker_reset_timeout_s,
        )
