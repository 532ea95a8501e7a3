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
- :meth:`Simulation.run` drains the queue in one loop without
  re-entering :meth:`step`.

Housekeeping loops (the SLO monitor, the control loop, the run recorder)
register with :meth:`Simulation.every`: the kernel ticks them while
foreground work remains, lets them sleep when none does and wakes them
when work is next scheduled, so no loop keeps a drained run alive.  An
entry no longer wanted is dropped with :meth:`Simulation.cancel`, so no
callback re-checks its own staleness; once cancelled entries outnumber
live ones by more than a fixed slack, the queue is rebuilt without
them, so a cancelled entry's callback and arguments are freed long
before its due time.

Both preserve the determinism contract exactly: every scheduled entry has
a unique ``(when, seq)`` key, sequence numbers are handed out in call
order, and execution order is the total order on ``(when, seq)`` — the
same order the seed kernel's one-push-per-event heap produced.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import typing

from taureau.sim.events import AllOf, AnyOf, Event, Process, SimulationError, Timeout
from taureau.sim.rng import RngRegistry

__all__ = ["Simulation"]

#: Cancelled entries the queue may hold beyond its live ones before it
#: is compacted (the eviction index's rule, ``core.platform``).
_CANCELLED_SLACK = 64


class _SortedRun:
    """A bulk-scheduled arrival vector: sorted times + one shared callback.

    The queue holds a single sentinel entry per run, keyed by the run
    head's ``(when, seq)``; :meth:`Simulation._drain_run` executes the
    run elementwise and re-posts the sentinel whenever a queued event
    preempts the run (or a deadline pauses it).
    """

    __slots__ = ("times", "args", "callback", "pos", "seq0")

    def __init__(self, times: list, args: typing.Optional[typing.Sequence],
                 callback, seq0: int):
        self.times = times
        self.args = args
        self.callback = callback
        self.pos = 0
        self.seq0 = seq0


class _Loop:
    """One :meth:`Simulation.every` loop; each queue entry calls it once.

    It carries its tick's ``__module__`` and ``__qualname__``
    (``functools.update_wrapper``), so the sanitizer and per-layer
    profilers name the entry after the loop's owner.
    """

    def __init__(self, sim: "Simulation", interval_s: float, tick):
        self.sim = sim
        self.interval_s = interval_s
        self.tick = tick
        functools.update_wrapper(self, tick)

    def __call__(self) -> None:
        sim = self.sim
        sim._housekeeping -= 1
        self.tick()
        if sim.has_foreground_work():
            sim._arm(self)
        else:
            sim._dormant.append(self)


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
        #: Queued :meth:`every` ticks; every other entry is foreground
        #: work (see :meth:`has_foreground_work`).
        self._housekeeping = 0
        #: :meth:`every` loops that found no foreground work at their
        #: last tick, in the order they stopped.  The next scheduled
        #: entry wakes them.
        self._dormant: list = []
        #: Handles of queued entries :meth:`cancel` dropped; each leaves
        #: the set when its entry reaches the head of the queue or a
        #: compaction removes it (see :meth:`_compact`).
        self._cancelled: set = set()
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

    def schedule_at(self, when: float, callback, *args) -> int:
        """Run ``callback(*args)`` at absolute simulated time ``when``.

        Returns the entry's handle for :meth:`cancel`.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at t={when} before current time t={self.now}"
            )
        if self._dormant:
            self._wake()
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, callback, args))
        return self._seq

    def schedule_after(self, delay: float, callback, *args) -> int:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        return self.schedule_at(self.now + delay, callback, *args)

    def cancel(self, handle: int) -> None:
        """Drop the queued entry whose :meth:`schedule_at` returned ``handle``.

        It never runs, never advances :attr:`now` and stops counting as
        work at once, for every reader of the queue (so :meth:`every`
        loops go dormant on it).  A handle stays cancellable while its
        entry is queued, so cancelling it twice is harmless until the
        entry leaves the queue by running, by being skipped at its turn
        or by a compaction.  ``None`` raises at once; a handle whose
        entry had already left raises at the next compaction or drain.
        """
        if handle is None or not 0 < handle <= self._seq:
            raise SimulationError(f"cancel({handle!r}): no such entry")
        cancelled = self._cancelled
        cancelled.add(handle)
        if 2 * len(cancelled) > len(self._heap) + _CANCELLED_SLACK:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the queue without its cancelled entries.

        Runs once cancelled entries outnumber live ones by more than
        ``_CANCELLED_SLACK``, checked at every cancel and every popped
        live entry, so the queue never holds more than 2 x live + slack
        entries.  A compaction drops more entries than it keeps, so its
        cost is amortized O(1) per cancel.  Pop order is the
        ``(when, seq)`` total order, so rebuilding changes none.
        ``_heap`` and ``_cancelled`` change in place: the run loops hold
        references to both.
        """
        heap, cancelled = self._heap, self._cancelled
        kept = [entry for entry in heap if entry[1] not in cancelled]
        stale = None
        if len(heap) - len(kept) < len(cancelled):
            stale = sorted(cancelled.difference([entry[1] for entry in heap]))
        heap[:] = kept
        heapq.heapify(heap)
        cancelled.clear()
        if stale:
            raise SimulationError(
                f"cancel() of entries that already ran or were dropped: {stale}")

    def _drop_cancelled(self) -> None:
        """Pop cancelled entries off the queue head; a handle still left
        when the queue is empty named an entry that had already left it."""
        heap, cancelled = self._heap, self._cancelled
        while heap and heap[0][1] in cancelled:
            cancelled.remove(heapq.heappop(heap)[1])
        if cancelled and not heap:
            stale = sorted(cancelled)
            cancelled.clear()
            raise SimulationError(
                f"cancel() of entries that already ran or were dropped: {stale}")

    def every(self, interval_s: float, tick) -> _Loop:
        """Call ``tick()`` every ``interval_s`` seconds while work remains.

        The kernel's one housekeeping loop.  The first tick is armed at
        once.  After each tick the loop re-arms while foreground work
        (any entry that is not an ``every`` tick) is scheduled, and goes
        dormant otherwise, so loops never keep :meth:`run` alive on
        their own or each other's ticks.  The next :meth:`schedule_at`
        or :meth:`schedule_many` wakes every dormant loop, in the order
        they went dormant, before it queues its own entry.  Arming a
        loop wakes no other.
        """
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        loop = _Loop(self, interval_s, tick)
        self._arm(loop)
        return loop

    def _arm(self, loop: _Loop) -> None:
        # Arming is housekeeping: its schedule_at wakes no dormant loop.
        dormant, self._dormant = self._dormant, []
        self.schedule_at(self.now + loop.interval_s, loop)
        self._dormant = dormant
        self._housekeeping += 1

    def _wake(self) -> None:
        woken, self._dormant = self._dormant, []
        for loop in woken:
            self._arm(loop)

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
        ``callback()`` when ``args`` is omitted).  A ``range`` of args is
        kept as given; any other sequence is copied into a list.

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
        if self._dormant:
            self._wake()
        seq0 = self._seq + 1
        self._seq += n
        if args is not None and not isinstance(args, range):
            args = list(args)
        run = _SortedRun(arr.tolist(), args, callback, seq0)
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
        """Whether any entry that was not cancelled is still scheduled."""
        if self._cancelled:
            self._drop_cancelled()
        return bool(self._heap)

    def has_foreground_work(self) -> bool:
        """Whether any entry other than an :meth:`every` tick is scheduled.

        :meth:`every` loops re-arm only while this holds.  Were they to
        check :meth:`has_work` instead, two loops would each see the
        other's pending tick and keep the simulation alive forever.
        Bulk sorted-run entries count as one pending item, which is
        enough: any such entry is foreground work by definition.
        Cancelled entries are never loop ticks, and never count.
        """
        return len(self._heap) - len(self._cancelled) > self._housekeeping

    def step(self) -> None:
        """Pop and execute the single next scheduled item."""
        heap, cancelled = self._heap, self._cancelled
        if cancelled:
            self._drop_cancelled()
        if not heap:
            raise SimulationError("step() with no scheduled work")
        when, _tie, callback, args = heapq.heappop(heap)
        self.now = when
        if cancelled and 2 * len(cancelled) > len(heap) + _CANCELLED_SLACK:
            self._compact()
        if self.sanitizer is not None:
            # A cancelled entry is never a tie-break partner, whether or
            # not a compaction dropped it yet; the kernel orders loops.
            while heap and heap[0][1] in cancelled:
                cancelled.remove(heapq.heappop(heap)[1])
            if heap and heap[0][0] == when:
                __, __, other, other_args = heap[0]
                if not (isinstance(callback, _Loop) and isinstance(other, _Loop)):
                    self.sanitizer.note_collision(
                        when, self._describe_entry(callback, args),
                        self._describe_entry(other, other_args))
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
        if self._cancelled:
            self._drop_cancelled()
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
                self._run_until(float("inf"))
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

    def _run_until(self, deadline: float) -> None:
        """Run every entry due by ``deadline`` (the ``run()`` hot loop).

        It pops entries itself instead of re-entering :meth:`step`, the
        biggest per-event saving over the seed kernel.  The sanitizer
        path keeps the step-by-step loop so collision diagnostics still
        see every pop.
        """
        if self.sanitizer is not None:
            while self.has_work() and self.peek() <= deadline:
                self.step()
            return
        drain_run = self._drain_run
        heap = self._heap
        cancelled = self._cancelled
        pop = heapq.heappop
        while heap and heap[0][0] <= deadline:
            when, seq, callback, args = pop(heap)
            if cancelled:
                if seq in cancelled:
                    cancelled.remove(seq)
                    continue
                if 2 * len(cancelled) > len(heap) + _CANCELLED_SLACK:
                    self._compact()
            self.now = when
            if callback is drain_run:
                drain_run(args[0])
            else:
                callback(*args)
        if cancelled:
            self._drop_cancelled()
