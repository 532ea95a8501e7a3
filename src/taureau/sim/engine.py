"""The discrete-event simulation engine.

:class:`Simulation` owns the virtual clock and the event queue.  Everything
in taureau that "takes time" — cold starts, message delivery, block
allocation RPCs — is expressed as events scheduled on one shared
``Simulation`` instance, so an entire serverless stack advances on a single
deterministic timeline.

Two throughput paths exist beyond per-event :meth:`Simulation.schedule_at`:

- :meth:`Simulation.schedule_many` bulk-schedules a whole arrival vector as
  one struct-of-arrays *sorted run* (a times array plus a cursor) instead
  of N heap pushes; the kernel drains a run with an O(1) cursor increment
  per event, falling back to the queue only when an interleaved event
  actually precedes the run head.
- :meth:`Simulation.run` drains same-timestamp bursts in a tight inner
  loop without re-entering :meth:`step`.

Both preserve the determinism contract exactly: every scheduled entry has
a unique ``(when, seq)`` key, sequence numbers are handed out in call
order, and execution order is the total order on ``(when, seq)`` — the
same order the seed kernel's one-push-per-event heap produced.
"""

from __future__ import annotations

import heapq
import itertools
import typing

from taureau.sim.events import AllOf, AnyOf, Event, Process, SimulationError, Timeout
from taureau.sim.rng import RngRegistry

__all__ = ["Simulation"]


class _SortedRun:
    """A bulk-scheduled arrival vector: sorted times + one shared callback.

    The queue holds a single sentinel entry per run, keyed by the run
    head's ``(when, seq)``; :meth:`Simulation._drain_run` executes the
    run elementwise and re-posts the sentinel whenever a queued event
    preempts the run (or a deadline pauses it).
    """

    __slots__ = ("times", "args", "callback", "pos", "seq0")

    def __init__(self, times: list, args: typing.Optional[list], callback, seq0: int):
        self.times = times
        self.args = args
        self.callback = callback
        self.pos = 0
        self.seq0 = seq0

    def remaining(self) -> int:
        return len(self.times) - self.pos


class Simulation:
    """A deterministic discrete-event simulation.

    Parameters
    ----------
    seed:
        Master seed for all randomness drawn through :attr:`rng`.  Two
        simulations built with the same seed and the same program produce
        byte-identical traces.
    sanitize:
        Install a :class:`taureau.lint.RaceSanitizer` that records
        runtime determinism hazards (ambiguous same-timestamp tie-breaks,
        cross-sandbox shared-state mutation).  Off by default — the hot
        path then pays one attribute check per step.
    """

    def __init__(self, seed: int = 0, sanitize: bool = False):
        self.now: float = 0.0
        self.rng = RngRegistry(seed)
        self._heap: list = []
        # Pin one bound-method object: plain attribute access builds a
        # fresh bound method each time, which would defeat the
        # ``callback is self._drain_run`` identity dispatch in step()
        # and the run loops.
        self._drain_run = self._drain_run
        self._seq = 0
        #: Pending housekeeping ("daemon") ticks — self-rescheduling
        #: virtual-time loops (Monitor, ControlLoop) that must not keep
        #: the run alive on their own.  See :meth:`has_foreground_work`.
        self._daemon_pending = 0
        self._running = False
        self._ids: dict = {}
        #: Deadline a ``run(until=<time>)`` call is honoring, consulted by
        #: the sorted-run drain so bulk batches pause at the boundary too.
        self._deadline: typing.Optional[float] = None
        #: Optional :class:`taureau.obs.Tracer`.  ``None`` (the default)
        #: keeps every tracing hook down to one attribute check; install
        #: one (or use ``taureau.Platform``) to record span trees.
        self.tracer = None
        #: Optional :class:`taureau.lint.RaceSanitizer` (``None`` unless
        #: ``sanitize=True``).  Imported lazily: the lint subsystem is
        #: not on the hot path of an unsanitized simulation.
        self.sanitizer = None
        if sanitize:
            from taureau.lint.sanitizer import RaceSanitizer

            self.sanitizer = RaceSanitizer()

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------

    def schedule_at(self, when: float, callback, *args) -> None:
        """Run ``callback(*args)`` at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at t={when} before current time t={self.now}"
            )
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, callback, args))

    def schedule_after(self, delay: float, callback, *args) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        self.schedule_at(self.now + delay, callback, *args)

    def schedule_daemon(self, delay: float, callback, *args) -> None:
        """Schedule a housekeeping tick after ``delay`` seconds.

        Pairs :meth:`daemon_scheduled` with the schedule so the tick is
        invisible to :meth:`has_foreground_work` — a daemon re-arming
        through this method can never keep :meth:`run` alive on its
        own.  The callback must call :meth:`daemon_fired` when it runs
        (the Monitor/ControlLoop/RunRecorder tick discipline).
        """
        self.daemon_scheduled()
        self.schedule_after(delay, callback, *args)

    def schedule_many(
        self,
        whens: typing.Sequence[float],
        callback,
        args: typing.Optional[typing.Sequence] = None,
    ) -> int:
        """Bulk-schedule ``callback`` over a vector of absolute times.

        Equivalent to — but far cheaper than — one :meth:`schedule_at`
        per element: the whole vector becomes a single struct-of-arrays
        run drained with a cursor, and only one sentinel touches the
        event queue.  Entry ``i`` runs ``callback(args[i])`` (or plain
        ``callback()`` when ``args`` is omitted).

        ``whens`` may be any sequence, including a numpy array; it does
        not need to be sorted — unsorted input is stable-sorted by time,
        which reproduces exactly the execution order N individual
        ``schedule_at`` calls would have produced (FIFO among equal
        timestamps).  Returns the number of entries scheduled.

        Under ``sanitize=True`` the bulk path is disabled so the race
        sanitizer keeps seeing every individual queue collision.
        """
        import numpy

        n = len(whens)
        if n == 0:
            return 0
        if args is not None and len(args) != n:
            raise ValueError(
                f"schedule_many: {n} times but {len(args)} args entries"
            )
        if self.sanitizer is not None:
            if args is None:
                for when in whens:
                    self.schedule_at(float(when), callback)
            else:
                for when, arg in zip(whens, args):
                    self.schedule_at(float(when), callback, arg)
            return n
        arr = numpy.asarray(whens, dtype=numpy.float64)
        if n > 1 and numpy.any(numpy.diff(arr) < 0.0):
            order = numpy.argsort(arr, kind="stable")
            arr = arr[order]
            if args is not None:
                args = [args[i] for i in order.tolist()]
        if arr[0] < self.now:
            raise SimulationError(
                f"cannot schedule at t={arr[0]} before current time t={self.now}"
            )
        seq0 = self._seq + 1
        self._seq += n
        run = _SortedRun(
            arr.tolist(),
            list(args) if args is not None else None,
            callback,
            seq0,
        )
        self._post_run(run)
        return n

    def _post_run(self, run: _SortedRun) -> None:
        """(Re)post a run's sentinel entry keyed by its head element."""
        heapq.heappush(
            self._heap,
            (run.times[run.pos], run.seq0 + run.pos, self._drain_run, (run,)),
        )

    def _drain_run(self, run: _SortedRun, limit: typing.Optional[int] = None) -> None:
        """Execute run entries until something else must go first.

        The cursor walk stops when (a) the run is exhausted, (b) a queued
        entry precedes the run head in ``(when, seq)`` order, (c) the
        active ``run(until=<time>)`` deadline is passed, or (d) ``limit``
        entries were executed (the :meth:`step` single-entry contract).
        Cases (b)–(d) re-post the sentinel for the remainder.
        """
        times = run.times
        argvals = run.args
        callback = run.callback
        pos = run.pos
        seq0 = run.seq0
        n = len(times)
        deadline = self._deadline
        executed = 0
        heap = self._heap
        try:
            while pos < n:
                when = times[pos]
                if deadline is not None and when > deadline:
                    break
                if heap:
                    head = heap[0]
                    if head[0] < when or (head[0] == when and head[1] < seq0 + pos):
                        break
                # Advance the cursor first: a raising callback consumes
                # its entry, exactly as a popped heap entry would be.
                pos += 1
                self.now = when
                if argvals is None:
                    callback()
                else:
                    callback(argvals[pos - 1])
                if limit is not None:
                    executed += 1
                    if executed >= limit:
                        break
        finally:
            run.pos = pos
            if pos < n:
                self._post_run(run)

    def _schedule_event(self, when: float, event: Event) -> None:
        self.schedule_at(when, self._process_event, event)

    def _enqueue_fired(self, event: Event) -> None:
        self.schedule_at(self.now, self._process_event, event)

    def _process_event(self, event: Event) -> None:
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            raise SimulationError(f"{event!r} processed twice")
        for callback in callbacks:
            callback(event)
        if event.exception is not None and not callbacks and not event._defused:
            raise event.exception

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value=None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator) -> Process:
        """Start a generator as a simulated process."""
        return Process(self, generator)

    def all_of(self, events: typing.Sequence[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: typing.Sequence[Event]) -> AnyOf:
        return AnyOf(self, events)

    def ids(self, kind: str) -> itertools.count:
        """This simulation's counter for ids of ``kind`` (created on first use).

        Every id a component mints comes from the simulation that owns
        it, never from a process-wide counter, so two same-seed runs in
        one process name their jobs, sandboxes and RNG streams alike.
        Owners that mint on a hot path bind the counter once.
        """
        counter = self._ids.get(kind)
        if counter is None:
            counter = self._ids[kind] = itertools.count()
        return counter

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def has_work(self) -> bool:
        """Whether anything at all is still scheduled."""
        return bool(self._heap)

    def daemon_scheduled(self) -> None:
        """Count one pending housekeeping tick (see :meth:`has_foreground_work`)."""
        self._daemon_pending += 1

    def daemon_fired(self) -> None:
        """Balance a prior :meth:`daemon_scheduled` once the tick runs."""
        if self._daemon_pending > 0:
            self._daemon_pending -= 1

    def has_foreground_work(self) -> bool:
        """Whether any *non-daemon* work remains scheduled.

        Self-rescheduling virtual-time loops (``Monitor``,
        ``ControlLoop``) re-arm only while this holds.  If they checked
        :meth:`has_work` instead, two concurrent loops would each see
        the other's pending tick and keep the simulation alive forever.
        Bulk sorted-run entries count as one pending item, which is
        enough: any such entry is foreground work by definition.
        """
        return len(self._heap) > self._daemon_pending

    def step(self) -> None:
        """Pop and execute the single next scheduled item."""
        if not self._heap:
            raise SimulationError("step() with no scheduled work")
        when, _tie, callback, args = heapq.heappop(self._heap)
        self.now = when
        if self.sanitizer is not None and self._heap and self._heap[0][0] == when:
            self.sanitizer.note_collision(
                when,
                self._describe_entry(callback, args),
                self._describe_entry(self._heap[0][2], self._heap[0][3]),
            )
        if callback is self._drain_run:
            # Honor the single-entry contract for bulk runs.
            self._drain_run(args[0], limit=1)
        else:
            callback(*args)

    def _describe_entry(self, callback, args) -> str:
        """A semantic name for one heap entry (sanitizer diagnostics).

        Raw ``_process_event`` entries are named after the event object
        they fire, so a Timeout colliding with a Process completion reads
        as ``event:Timeout`` vs ``event:Process`` instead of two
        indistinguishable ``_process_event`` frames.
        """
        if callback == self._process_event and args:
            return f"event:{type(args[0]).__name__}"
        name = getattr(callback, "__qualname__", None)
        return name if name is not None else repr(callback)

    def peek(self) -> float:
        """Time of the next scheduled item, or ``inf`` when idle."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: typing.Optional[object] = None) -> object:
        """Advance the simulation.

        ``until`` may be ``None`` (run until no work remains), a number
        (run until that simulated time), or an :class:`Event` (run until it
        triggers, returning its value).
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        try:
            if until is None:
                self._run_all()
                return None
            if isinstance(until, Event):
                sentinel = until
                while not sentinel.triggered or sentinel.callbacks is not None:
                    if not self.has_work():
                        raise SimulationError(
                            "simulation ran out of work before the awaited "
                            "event triggered (deadlock?)"
                        )
                    self.step()
                return sentinel.value
            deadline = float(until)
            self._deadline = deadline
            try:
                self._run_until(deadline)
            finally:
                self._deadline = None
            self.now = max(self.now, deadline)
            return None
        finally:
            self._running = False

    def _run_all(self) -> None:
        """Drain every scheduled entry (the ``run(until=None)`` hot loop).

        Same-timestamp bursts — arrival floods, fan-out completions — are
        drained in the tight inner loop below without re-entering
        :meth:`step`, which is the single biggest per-event saving over
        the seed kernel.  The sanitizer path keeps the step-by-step loop
        so collision diagnostics still see every pop.
        """
        if self.sanitizer is not None:
            while self.has_work():
                self.step()
            return
        drain_run = self._drain_run
        heap = self._heap
        pop = heapq.heappop
        while heap:
            when, _tie, callback, args = pop(heap)
            self.now = when
            if callback is drain_run:
                drain_run(args[0])
            else:
                callback(*args)
            while heap and heap[0][0] == when:
                _w, _tie, callback, args = pop(heap)
                if callback is drain_run:
                    drain_run(args[0])
                else:
                    callback(*args)

    def _run_until(self, deadline: float) -> None:
        """Drain entries with ``when <= deadline`` (``run(until=<time>)``)."""
        if self.sanitizer is not None:
            while self.has_work() and self.peek() <= deadline:
                self.step()
            return
        drain_run = self._drain_run
        heap = self._heap
        pop = heapq.heappop
        while heap and heap[0][0] <= deadline:
            when, _tie, callback, args = pop(heap)
            self.now = when
            if callback is drain_run:
                drain_run(args[0])
            else:
                callback(*args)
