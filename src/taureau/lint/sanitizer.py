"""The runtime race sanitizer — dynamic checks the AST pass cannot make.

Static analysis catches the *syntactic* shapes of nondeterminism; three
hazards only show up at run time:

1. **Ambiguous tie-breaks** — two different callbacks scheduled at the
   same virtual timestamp are ordered only by heap insertion counter.
   That order is deterministic *per program text*, but any refactor that
   reorders the two ``schedule`` calls silently reorders the simulation.
   ``Simulation(sanitize=True)`` records every such collision.

2. **Cross-sandbox shared state** — FaaS semantics say payloads and
   responses cross the sandbox boundary by value.  In-process simulation
   passes references, so a handler mutating its payload (or a driver
   mutating an object it already handed to the platform) creates
   coupling no real platform would allow.  The sanitizer digests objects
   at every boundary crossing and flags digest drift.

3. **Whole-run divergence** — :meth:`taureau.Platform.verify_determinism`
   builds two fresh same-seed platforms, runs the same scenario on each,
   and compares metric/trace/cost digests.

The sanitizer never changes simulation behaviour: with ``strict=False``
(default) it only collects :class:`SanitizerFinding`\\ s; ``strict=True``
raises :class:`SanitizerError` at the first finding.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import typing

__all__ = [
    "SanitizerError",
    "SanitizerFinding",
    "RaceSanitizer",
    "DeterminismReport",
    "stable_digest",
    "diff_states",
]


class SanitizerError(AssertionError):
    """Raised in strict mode when the sanitizer detects a hazard."""


@dataclasses.dataclass(frozen=True)
class SanitizerFinding:
    kind: str  # "tie-break" | "shared-state"
    time: float
    message: str

    def render(self) -> str:
        return f"[{self.kind}] t={self.time:.6f}: {self.message}"


def stable_digest(value: object) -> str:
    """A content digest that is stable across processes.

    JSON with sorted keys when possible (dict insertion order must not
    matter), falling back to ``repr`` — good enough because payloads and
    metric snapshots in taureau are plain-data.
    """
    try:
        encoded = json.dumps(value, sort_keys=True, default=repr)
    except (TypeError, ValueError):
        encoded = repr(value)
    return hashlib.blake2b(encoded.encode("utf-8"), digest_size=8).hexdigest()


def _fingerprint(value: object) -> str:
    """A cheap content fingerprint for the boundary watchlist.

    Boundary checks compare the *same object* at two points in one
    process, so canonical ordering is unnecessary — ``repr`` walks plain
    containers structurally at ~8x the speed of the JSON digest, which
    is what keeps the sanitizer inside its 10% overhead budget.  For
    objects, fingerprint the instance ``__dict__`` (a bare ``repr``
    would be address-based and mutation-blind).
    """
    if isinstance(value, (dict, list, tuple, set, bytearray)):
        return repr(value)
    state = getattr(value, "__dict__", None)
    if state is not None:
        return repr(state)
    return repr(value)


def _callable_name(callback) -> str:
    name = getattr(callback, "__qualname__", None) or getattr(
        callback, "__name__", None
    )
    if name is not None:
        return name
    return type(callback).__name__


def _is_watchable(value: object) -> bool:
    """Only mutable containers / objects can exhibit shared-state drift."""
    if isinstance(value, (list, dict, set, bytearray)):
        return True
    return hasattr(value, "__dict__") and not callable(value)


class RaceSanitizer:
    """Collects runtime determinism hazards for one simulation.

    Parameters
    ----------
    strict:
        Raise :class:`SanitizerError` on the first finding instead of
        collecting.
    max_watch:
        Cap on the boundary-object watchlist (oldest entries evicted)
        so long runs stay O(1) in memory.
    """

    def __init__(self, strict: bool = False, max_watch: int = 4096):
        self.strict = strict
        self.max_watch = max_watch
        self.findings: typing.List[SanitizerFinding] = []
        #: (first, second) callback-name pairs already reported.
        self._seen_collisions: set = set()
        #: id(obj) -> (obj, digest, label); the strong reference keeps
        #: CPython from reusing the id for a different object.  An
        #: OrderedDict so FIFO eviction is O(1) — evicting a plain
        #: dict via next(iter(...)) scans leading tombstones.
        self._watched: collections.OrderedDict = collections.OrderedDict()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _record(self, kind: str, time: float, message: str) -> None:
        finding = SanitizerFinding(kind=kind, time=time, message=message)
        self.findings.append(finding)
        if self.strict:
            raise SanitizerError(finding.render())

    def report(self) -> typing.List[str]:
        return [finding.render() for finding in self.findings]

    def findings_of(self, kind: str) -> typing.List[SanitizerFinding]:
        return [f for f in self.findings if f.kind == kind]

    # ------------------------------------------------------------------
    # (a) same-timestamp tie-break ambiguity — called from Simulation.step
    # ------------------------------------------------------------------

    def note_collision(self, when: float, popped, upcoming) -> None:
        first = popped if isinstance(popped, str) else _callable_name(popped)
        second = upcoming if isinstance(upcoming, str) else _callable_name(upcoming)
        if first == second:
            # A callback racing instances of itself (batch fan-out) has no
            # cross-callback ordering semantics to get wrong.
            return
        pair = (first, second)
        if pair in self._seen_collisions:
            return
        self._seen_collisions.add(pair)
        self._record(
            "tie-break",
            when,
            f"events {first!r} and {second!r} both fire at t={when}; their "
            "order is fixed only by scheduling insertion order — give one a "
            "distinct delay or schedule both from one ordered site",
        )

    # ------------------------------------------------------------------
    # (b) cross-sandbox shared-object mutation — called from the platforms
    # ------------------------------------------------------------------

    def inbound(self, value: object, now: float,
                site: str) -> typing.Optional[str]:
        """``value`` is entering a sandbox: flag drift, return its fingerprint.

        One fingerprint pass serves both the drift check against the
        watchlist and the caller's pre-execution snapshot (pass the
        return value to :meth:`check_handler_boundary`) — this is the
        per-invocation hot path.
        """
        if not _is_watchable(value):
            return None
        digest = _fingerprint(value)
        entry = self._watched.get(id(value))
        if entry is not None and entry[0] is value and digest != entry[1]:
            self._record(
                "shared-state",
                now,
                f"object entering {site} was mutated since it last "
                f"crossed a sandbox boundary at {entry[2]} — shared "
                "in-process state bypasses the simulated stores (use "
                "Jiffy/BaaS services instead)",
            )
        return digest

    def check_handler_boundary(
        self,
        payload: object,
        payload_digest_before: typing.Optional[str],
        response: object,
        now: float,
        site: str,
    ) -> None:
        """Post-execution check: the handler must not mutate its payload.

        Then pins the payload and response as they cross the boundary.
        This runs once per invocation, so it digests each value once.
        """
        watched = self._watched
        if payload_digest_before is not None:
            # A non-None snapshot proves the payload was watchable.
            after = _fingerprint(payload)
            if after != payload_digest_before:
                self._record(
                    "shared-state",
                    now,
                    f"handler at {site} mutated its payload in place; real "
                    "FaaS passes payloads by value — return new data or "
                    "write through a simulated store",
                )
            if len(watched) >= self.max_watch:
                watched.popitem(last=False)
            watched[id(payload)] = (payload, after, site)
        if response is not None and response is not payload and _is_watchable(response):
            if len(watched) >= self.max_watch:
                watched.popitem(last=False)
            watched[id(response)] = (response, _fingerprint(response), site)


def diff_states(first: object, second: object, prefix: str = "",
                limit: int = 10) -> typing.List[str]:
    """Human-readable paths where two state documents diverge."""
    differences: typing.List[str] = []
    _diff(first, second, prefix, differences, limit)
    return differences


def _diff(first, second, prefix, out, limit) -> None:
    if len(out) >= limit:
        return
    if isinstance(first, dict) and isinstance(second, dict):
        for key in sorted(set(first) | set(second), key=str):
            label = f"{prefix}.{key}" if prefix else str(key)
            if key not in first:
                out.append(f"{label}: only in second run")
            elif key not in second:
                out.append(f"{label}: only in first run")
            else:
                _diff(first[key], second[key], label, out, limit)
            if len(out) >= limit:
                return
        return
    if isinstance(first, (list, tuple)) and isinstance(second, (list, tuple)):
        if len(first) != len(second):
            out.append(f"{prefix}: length {len(first)} != {len(second)}")
            return
        for index, (a, b) in enumerate(zip(first, second)):
            _diff(a, b, f"{prefix}[{index}]", out, limit)
            if len(out) >= limit:
                return
        return
    if first != second:
        out.append(f"{prefix}: {first!r} != {second!r}")


@dataclasses.dataclass
class DeterminismReport:
    """The outcome of :meth:`taureau.Platform.verify_determinism`."""

    ok: bool
    digests: typing.List[str]
    mismatches: typing.List[str] = dataclasses.field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok

    def render(self) -> str:
        if self.ok:
            return f"deterministic: {len(self.digests)} runs, digest {self.digests[0]}"
        lines = [f"NONDETERMINISTIC: digests {self.digests}"]
        lines.extend(f"  - {mismatch}" for mismatch in self.mismatches)
        return "\n".join(lines)
