"""Event scheduler: the heart of the discrete-event simulation.

Events are callbacks ordered by (time, sequence-number).  The sequence number
makes execution order deterministic for events scheduled at the same instant,
which in turn makes every experiment in :mod:`repro.bench` reproducible.

The queue is one binary heap of plain ``(time, seq, fn, args, kwargs,
marker)`` tuples, so ordering is decided by C-level tuple comparison on the
first two fields (``seq`` is unique, so nothing beyond it is ever compared).
Two write paths feed it:

* :meth:`Scheduler.schedule` / :meth:`Scheduler.schedule_at` return an
  :class:`Event` handle (stored in the marker slot) so callers can cancel
  pending work (timeouts);
* :meth:`Scheduler.schedule_call` / :meth:`Scheduler.schedule_call_at` are
  the fire-and-forget fast path — no handle, no kwargs mapping, and no
  per-event object allocation.  Message deliveries and processing-queue
  jobs (the dominant event classes) use it.

Live-event accounting is incremental: scheduling increments a live counter,
execution and cancellation decrement it, so ``pending(live_only=True)`` —
the runner idle check — is O(1) with no scan.  Cancelled entries are
additionally purged in bulk once they outnumber live ones (amortized O(1)
per cancellation), so long fault runs with many abandoned timeouts do not
grow the queue unboundedly.  :meth:`Scheduler._scan_live` is the O(n)
audit of the same invariant, used by the regression tests.
"""

from __future__ import annotations

import gc
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from repro.sim.clock import Clock

#: Lazy-purge trigger: compact the queue once at least this many cancelled
#: events are queued *and* they outnumber the live ones.
_PURGE_THRESHOLD = 512

_INFINITY = float("inf")
_NO_CAP = 1 << 62


class Event:
    """A cancellation handle for a scheduled callback.

    Instances are returned by :meth:`Scheduler.schedule` so callers can
    cancel pending work (e.g. a timeout that is no longer needed).
    """

    __slots__ = ("time", "seq", "cancelled", "_scheduler")

    def __init__(self, time: float, seq: int,
                 scheduler: Optional["Scheduler"] = None) -> None:
        self.time = time
        self.seq = seq
        self.cancelled = False
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when its time comes."""
        if not self.cancelled:
            self.cancelled = True
            if self._scheduler is not None:
                self._scheduler._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.3f}, seq={self.seq}, {state})"


class Scheduler:
    """Discrete-event scheduler with a simulated :class:`Clock`."""

    __slots__ = ("clock", "_heap", "_seq", "_events_executed", "_cancelled",
                 "_live", "_trace")

    # Removed switches, kept read-only because benchmark provenance reads them.
    wheel = False
    batch_dispatch = False

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock if clock is not None else Clock()
        self._heap: list = []
        self._seq = 0
        self._events_executed = 0
        self._cancelled = 0
        self._live = 0
        self._trace: Optional[list] = None

    @property
    def events_executed(self) -> int:
        """Number of events run so far (useful for runaway detection)."""
        return self._events_executed

    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self.clock._now

    def pending(self, live_only: bool = False) -> int:
        """Number of callbacks still queued.

        By default this counts cancelled-but-unpopped entries too (they
        still occupy queue slots); ``live_only=True`` reports only the events
        that will actually execute.  Both are O(1): the counters are
        maintained incrementally by scheduling, cancellation, and execution.
        """
        if live_only:
            return self._live
        return self._live + self._cancelled

    # -- tracing (determinism fingerprints) --------------------------------
    def start_trace(self) -> list:
        """Record ``(time, seq)`` for every executed event from now on.

        Returns the (live) list the trace accumulates into; used by the
        determinism regression tests to fingerprint the exact execution
        order of a run.  Takes effect from the next :meth:`run`/:meth:`step`
        call.
        """
        self._trace = []
        return self._trace

    def stop_trace(self) -> None:
        self._trace = None

    # -- scheduling --------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 **kwargs: Any) -> Event:
        """Schedule ``fn(*args, **kwargs)`` to run ``delay`` ms from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self.clock._now + delay, fn, *args, **kwargs)

    def schedule_at(self, timestamp: float, fn: Callable[..., Any],
                    *args: Any, **kwargs: Any) -> Event:
        """Schedule ``fn`` at an absolute simulated time."""
        if timestamp < self.clock._now:
            raise ValueError(
                f"cannot schedule in the past: {timestamp} < {self.now()}"
            )
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        event = Event(timestamp, seq, self)
        heappush(self._heap, (timestamp, seq, fn, args, kwargs or None, event))
        return event

    def schedule_call(self, delay: float, fn: Callable[..., Any],
                      args: tuple = ()) -> None:
        """Fire-and-forget :meth:`schedule`: no kwargs, no cancellation
        handle, no per-event allocation.  The hot path for message
        deliveries and queue jobs."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        heappush(self._heap,
                 (self.clock._now + delay, seq, fn, args, None, None))

    def schedule_call_at(self, timestamp: float, fn: Callable[..., Any],
                         args: tuple = (),
                         kwargs: Optional[dict] = None) -> None:
        """Fire-and-forget :meth:`schedule_at` (see :meth:`schedule_call`)."""
        if timestamp < self.clock._now:
            raise ValueError(
                f"cannot schedule in the past: {timestamp} < {self.now()}"
            )
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        heappush(self._heap, (timestamp, seq, fn, args, kwargs or None, None))

    def call_soon(self, fn: Callable[..., Any], *args: Any,
                  **kwargs: Any) -> Event:
        """Schedule ``fn`` at the current instant (after pending same-time events)."""
        return self.schedule(0.0, fn, *args, **kwargs)

    # -- cancellation bookkeeping ------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`; compacts the queue when cancelled
        entries dominate (amortized O(1) per cancellation), so abandoned
        timeouts cannot grow it unboundedly."""
        self._live -= 1
        self._cancelled += 1
        heap = self._heap
        if (self._cancelled >= _PURGE_THRESHOLD
                and self._cancelled * 2 > len(heap)):
            # In place: the run() loop holds a reference to this list.
            heap[:] = [entry for entry in heap
                       if entry[5] is None or not entry[5].cancelled]
            heapify(heap)
            self._cancelled = 0

    def _scan_live(self) -> int:
        """O(n) audit of ``pending(live_only=True)``: count the queued
        callbacks that will actually execute.  Test/debug only — the run
        loop never calls this."""
        return sum(1 for entry in self._heap
                   if entry[5] is None or not entry[5].cancelled)

    # -- execution ---------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.

        Returns:
            True if an event was executed, False if the queue was empty.
        """
        heap = self._heap
        while heap:
            entry = heappop(heap)
            marker = entry[5]
            if marker is not None:
                if marker.cancelled:
                    self._cancelled -= 1
                    continue
                # Detach: a late cancel() on an already-fired event must not
                # perturb the cancelled-entry bookkeeping.
                marker._scheduler = None
            self.clock.advance_to(entry[0])
            self._events_executed += 1
            self._live -= 1
            if self._trace is not None:
                self._trace.append((entry[0], entry[1]))
            kwargs = entry[4]
            if kwargs:
                entry[2](*entry[3], **kwargs)
            else:
                entry[2](*entry[3])
            return True
        return False

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have been executed.

        ``until`` is an absolute simulated time; events scheduled strictly
        after it remain queued and the clock stops at ``until``.
        """
        heap = self._heap
        clock = self.clock
        trace = self._trace
        limit = _INFINITY if until is None else until
        cap = _NO_CAP if max_events is None else max_events
        executed = 0
        # Steady-state event execution allocates almost nothing that the
        # cyclic collector can reclaim (messages and per-op records are
        # pooled, everything else dies by refcount), so generational GC scans
        # during the drain are pure overhead.  Suspend it for the duration;
        # any cycles produced are collected when the caller's next enabled
        # collection runs.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while heap:
                entry = heappop(heap)
                marker = entry[5]
                if marker is not None and marker.cancelled:
                    self._cancelled -= 1
                    continue
                timestamp = entry[0]
                if timestamp > limit:
                    heappush(heap, entry)
                    clock.advance_to(until)
                    return
                if executed >= cap:
                    heappush(heap, entry)
                    return
                # The heap pops in nondecreasing time order, so this direct
                # assignment cannot move the clock backwards (Clock.advance_to
                # enforces the same invariant with a per-event method call).
                clock._now = timestamp
                if marker is not None:
                    # Detach: a late cancel() on an already-fired event must
                    # not perturb the cancelled-entry bookkeeping.
                    marker._scheduler = None
                executed += 1
                if trace is not None:
                    trace.append((timestamp, entry[1]))
                kwargs = entry[4]
                if kwargs:
                    entry[2](*entry[3], **kwargs)
                else:
                    entry[2](*entry[3])
            if until is not None and until > clock._now:
                clock.advance_to(until)
        finally:
            if gc_was_enabled:
                gc.enable()
            self._events_executed += executed
            self._live -= executed

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Run until no events remain.  Guards against runaway simulations."""
        self.run(max_events=max_events)
        if self.pending() and self._events_executed >= max_events:
            raise RuntimeError(
                f"simulation did not converge after {max_events} events"
            )
