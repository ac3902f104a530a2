"""Tests for the simulated clock and event scheduler."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.clock import Clock
from repro.sim.scheduler import Scheduler


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now() == 0.0

    def test_custom_start(self):
        assert Clock(start=10.0).now() == 10.0

    def test_advance(self):
        clock = Clock()
        clock.advance_to(5.0)
        assert clock.now() == 5.0

    def test_advance_backwards_raises(self):
        clock = Clock(start=10.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)

    def test_advance_to_same_time_allowed(self):
        clock = Clock(start=3.0)
        clock.advance_to(3.0)
        assert clock.now() == 3.0


class TestScheduling:
    def test_events_run_in_time_order(self, scheduler):
        order = []
        scheduler.schedule(10, order.append, "b")
        scheduler.schedule(5, order.append, "a")
        scheduler.schedule(20, order.append, "c")
        scheduler.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_clock_advances_with_events(self, scheduler):
        times = []
        scheduler.schedule(7.5, lambda: times.append(scheduler.now()))
        scheduler.run_until_idle()
        assert times == [7.5]
        assert scheduler.now() == 7.5

    def test_same_time_events_run_in_submission_order(self, scheduler):
        order = []
        for name in "abcde":
            scheduler.schedule(1.0, order.append, name)
        scheduler.run_until_idle()
        assert order == list("abcde")

    def test_negative_delay_rejected(self, scheduler):
        with pytest.raises(ValueError):
            scheduler.schedule(-1, lambda: None)

    def test_schedule_at_in_past_rejected(self, scheduler):
        scheduler.schedule(5, lambda: None)
        scheduler.run_until_idle()
        with pytest.raises(ValueError):
            scheduler.schedule_at(1.0, lambda: None)

    def test_call_soon_runs_at_current_time(self, scheduler):
        seen = []
        scheduler.schedule(3, lambda: scheduler.call_soon(seen.append,
                                                          scheduler.now()))
        scheduler.run_until_idle()
        assert seen == [3.0]

    def test_cancelled_event_does_not_run(self, scheduler):
        seen = []
        event = scheduler.schedule(1, seen.append, "x")
        event.cancel()
        scheduler.run_until_idle()
        assert seen == []

    def test_events_scheduled_from_events(self, scheduler):
        seen = []

        def first():
            seen.append("first")
            scheduler.schedule(5, lambda: seen.append("second"))

        scheduler.schedule(1, first)
        scheduler.run_until_idle()
        assert seen == ["first", "second"]
        assert scheduler.now() == 6.0

    def test_kwargs_passed(self, scheduler):
        seen = {}
        scheduler.schedule(1, seen.update, answer=42)
        scheduler.run_until_idle()
        assert seen == {"answer": 42}


class TestRunControl:
    def test_run_until_stops_clock_at_bound(self, scheduler):
        seen = []
        scheduler.schedule(5, seen.append, "early")
        scheduler.schedule(50, seen.append, "late")
        scheduler.run(until=10)
        assert seen == ["early"]
        assert scheduler.now() == 10
        assert scheduler.pending() == 1

    def test_run_resumes_after_until(self, scheduler):
        seen = []
        scheduler.schedule(50, seen.append, "late")
        scheduler.run(until=10)
        scheduler.run_until_idle()
        assert seen == ["late"]

    def test_run_max_events(self, scheduler):
        seen = []
        for i in range(10):
            scheduler.schedule(i, seen.append, i)
        scheduler.run(max_events=3)
        assert seen == [0, 1, 2]

    def test_step_returns_false_when_empty(self, scheduler):
        assert scheduler.step() is False

    def test_step_runs_one_event(self, scheduler):
        seen = []
        scheduler.schedule(1, seen.append, 1)
        scheduler.schedule(2, seen.append, 2)
        assert scheduler.step() is True
        assert seen == [1]

    def test_runaway_guard(self, scheduler):
        def reschedule():
            scheduler.schedule(1, reschedule)

        scheduler.schedule(1, reschedule)
        with pytest.raises(RuntimeError):
            scheduler.run_until_idle(max_events=100)

    def test_events_executed_counter(self, scheduler):
        for i in range(5):
            scheduler.schedule(i, lambda: None)
        scheduler.run_until_idle()
        assert scheduler.events_executed == 5


class TestFastPathScheduling:
    def test_schedule_call_runs_fn_with_args(self, scheduler):
        seen = []
        scheduler.schedule_call(5.0, seen.append, ("x",))
        scheduler.run_until_idle()
        assert seen == ["x"]
        assert scheduler.now() == 5.0

    def test_schedule_call_negative_delay_rejected(self, scheduler):
        with pytest.raises(ValueError):
            scheduler.schedule_call(-1.0, lambda: None)

    def test_schedule_call_at_in_past_rejected(self, scheduler):
        scheduler.schedule(5, lambda: None)
        scheduler.run_until_idle()
        with pytest.raises(ValueError):
            scheduler.schedule_call_at(1.0, lambda: None)

    def test_schedule_call_interleaves_with_events_in_seq_order(self, scheduler):
        order = []
        scheduler.schedule(1.0, order.append, "a")
        scheduler.schedule_call(1.0, order.append, ("b",))
        scheduler.schedule(1.0, order.append, "c")
        scheduler.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_schedule_call_at_kwargs(self, scheduler):
        seen = {}
        scheduler.schedule_call_at(2.0, seen.update, (), {"answer": 42})
        scheduler.run_until_idle()
        assert seen == {"answer": 42}


class TestCancellationBookkeeping:
    def test_pending_counts_cancelled_by_default(self, scheduler):
        live = scheduler.schedule(1, lambda: None)
        dead = scheduler.schedule(2, lambda: None)
        dead.cancel()
        assert scheduler.pending() == 2
        assert scheduler.pending(live_only=True) == 1
        live.cancel()
        assert scheduler.pending(live_only=True) == 0

    def test_cancel_after_execution_is_inert(self, scheduler):
        fired = scheduler.schedule(1, lambda: None)
        queued = scheduler.schedule(10, lambda: None)
        scheduler.run(until=5)
        fired.cancel()  # late cancel of an already-fired timeout
        assert scheduler.pending() == 1
        assert scheduler.pending(live_only=True) == 1
        queued.cancel()
        assert scheduler.pending(live_only=True) == 0

    def test_cancel_after_step_is_inert(self, scheduler):
        fired = scheduler.schedule(1, lambda: None)
        scheduler.schedule(10, lambda: None)
        assert scheduler.step() is True
        fired.cancel()
        assert scheduler.pending(live_only=True) == 1

    def test_cancel_of_pushed_back_head_still_counted(self, scheduler):
        late = scheduler.schedule(50, lambda: None)
        scheduler.run(until=10)  # pops and re-queues the head entry
        late.cancel()
        assert scheduler.pending(live_only=True) == 0
        scheduler.run_until_idle()
        assert scheduler.events_executed == 0

    def test_double_cancel_counted_once(self, scheduler):
        event = scheduler.schedule(1, lambda: None)
        event.cancel()
        event.cancel()
        assert scheduler.pending(live_only=True) == 0
        assert scheduler.pending() == 1

    def test_mass_cancellation_compacts_heap(self, scheduler):
        events = [scheduler.schedule(i + 1, lambda: None) for i in range(2000)]
        for event in events[:1500]:
            event.cancel()
        # The lazy purge kicks in once cancellations dominate: the heap
        # shrinks without running anything.
        assert scheduler.pending() < 2000
        assert scheduler.pending(live_only=True) == 500
        scheduler.run_until_idle()
        assert scheduler.events_executed == 500

    def test_cancelled_events_skipped_after_compaction(self, scheduler):
        seen = []
        keep = scheduler.schedule(10, seen.append, "keep")
        cancelled = [scheduler.schedule(5, seen.append, f"drop{i}")
                     for i in range(1000)]
        for event in cancelled:
            event.cancel()
        scheduler.run_until_idle()
        assert seen == ["keep"]

    def test_purge_during_run_keeps_future_events(self, scheduler):
        seen = []
        later = [scheduler.schedule(50 + i, seen.append, i)
                 for i in range(600)]

        def cancel_most():
            for event in later[:590]:
                event.cancel()

        scheduler.schedule(1, cancel_most)
        scheduler.run_until_idle()
        assert seen == list(range(590, 600))


class TestTimingWheel:
    """Far-future ordering and cancel-before-run cases first written for the
    timing-wheel backend, kept under their original names.  They now run on
    the single heap: every entry, near or far, sits in ``_heap``.  Every test
    cross-checks the O(1) live counter against the O(n)
    :meth:`Scheduler._scan_live` audit."""

    def audit(self, scheduler):
        assert scheduler.pending(live_only=True) == scheduler._scan_live()

    def test_overflow_heap_migrates_into_wheel(self, scheduler):
        # Timestamps from 100 ms to 5 s; all of them share the one heap.
        order = []
        for delay in (2500.0, 100.0, 5000.0, 900.0, 1500.0):
            scheduler.schedule(delay, order.append, delay)
        assert len(scheduler._heap) == 5
        self.audit(scheduler)
        scheduler.run_until_idle()
        assert order == [100.0, 900.0, 1500.0, 2500.0, 5000.0]
        assert not scheduler._heap
        self.audit(scheduler)

    def test_overflow_migration_across_many_horizons(self, scheduler):
        # Timestamps spread over ~6 s of simulated time run in time order.
        observed = []
        delays = [float(i * 613 % 6000) + 0.25 for i in range(64)]
        for delay in delays:
            scheduler.schedule(delay, lambda: observed.append(scheduler.now()))
        self.audit(scheduler)
        scheduler.run_until_idle()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)
        self.audit(scheduler)

    def test_cancel_inside_noncursor_bucket(self, scheduler):
        # Cancel one of two events queued for the same future instant.
        seen = []
        scheduler.schedule(700.0, seen.append, "keep")
        drop = scheduler.schedule(700.0, seen.append, "drop")
        assert len(scheduler._heap) == 2
        drop.cancel()
        assert scheduler.pending(live_only=True) == 1
        self.audit(scheduler)
        scheduler.run_until_idle()
        assert seen == ["keep"]
        assert scheduler.pending() == 0

    def test_cancel_overflow_entry_before_migration(self, scheduler):
        seen = []
        dead = scheduler.schedule(4000.0, seen.append, "dead")
        scheduler.schedule(4500.0, seen.append, "live")
        dead.cancel()
        self.audit(scheduler)
        scheduler.run_until_idle()
        assert seen == ["live"]
        assert scheduler.events_executed == 1


class TestQueueEdgeCases:
    """Same-instant ties at a far-future time, mass-cancel purges and inserts
    after a bounded run.  Every test
    cross-checks the O(1) live counter against the O(n)
    :meth:`Scheduler._scan_live` audit."""

    def audit(self, scheduler):
        assert scheduler.pending(live_only=True) == scheduler._scan_live()

    def test_same_instant_far_future_events_run_fifo(self, scheduler):
        order = []
        scheduler.schedule(3000.0, order.append, "first")
        scheduler.schedule_call_at(3000.0, order.append, ("second",))
        scheduler.schedule_at(3000.0, order.append, "third")
        scheduler.run_until_idle()
        assert order == ["first", "second", "third"]

    def test_mass_cancel_purge_matches_scan(self, scheduler):
        events = [scheduler.schedule(float(i % 1000) + 1.5, lambda: None)
                  for i in range(2000)]
        for event in events[:1500]:
            event.cancel()
        assert scheduler.pending() < 2000
        assert scheduler.pending(live_only=True) == 500
        self.audit(scheduler)
        scheduler.run_until_idle()
        assert scheduler.events_executed == 500

    def test_run_until_then_earlier_insert(self, scheduler):
        # An event inserted after a bounded run, earlier than what is still
        # queued, runs first.
        seen = []
        scheduler.schedule(500.0, seen.append, "far")
        scheduler.run(until=200.0)
        assert scheduler.now() == 200.0
        scheduler.schedule(100.0, seen.append, "near")
        self.audit(scheduler)
        scheduler.run_until_idle()
        assert seen == ["near", "far"]


class TestSwitchConstants:
    def test_removed_switches_read_false_and_are_read_only(self, scheduler):
        assert scheduler.wheel is False
        assert scheduler.batch_dispatch is False
        with pytest.raises(AttributeError):
            scheduler.wheel = True
        with pytest.raises(AttributeError):
            scheduler.batch_dispatch = True


class TestTrace:
    def test_trace_records_time_and_seq(self, scheduler):
        trace = scheduler.start_trace()
        scheduler.schedule(2.0, lambda: None)
        scheduler.schedule(1.0, lambda: None)
        scheduler.run_until_idle()
        assert [t for t, _ in trace] == [1.0, 2.0]
        assert len({seq for _, seq in trace}) == 2

    def test_stop_trace(self, scheduler):
        trace = scheduler.start_trace()
        scheduler.stop_trace()
        scheduler.schedule(1.0, lambda: None)
        scheduler.run_until_idle()
        assert trace == []


@given(st.lists(st.floats(min_value=0, max_value=1000,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=50))
def test_execution_times_are_monotone(delays):
    scheduler = Scheduler()
    observed = []
    for delay in delays:
        scheduler.schedule(delay, lambda: observed.append(scheduler.now()))
    scheduler.run_until_idle()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)
    assert scheduler.now() == max(delays)


# -- model-based check -------------------------------------------------------
#
# A reference model of the queue: a list of [time, id, cancelled, child]
# entries kept sorted by (time, id), driven side by side with a real
# Scheduler (ids number events in creation order, as the scheduler's
# sequence numbers do; an event with a child delay schedules one more event
# when it runs).  The model spells out the documented semantics: FIFO among
# same-instant events, cancelled entries dropped when they reach the head,
# ``run(until=...)`` parking the clock at ``until``, ``max_events`` leaving
# the clock where the last event ran, and the lazy purge of cancelled
# entries once at least _PURGE_THRESHOLD are queued and they make up more
# than half the queue.

#: Half-millisecond offsets make same-instant ties common.
_offsets = st.integers(min_value=0, max_value=40).map(lambda n: n * 0.5)
_children = st.none() | _offsets
_model_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["schedule", "schedule_at", "schedule_call",
                                   "schedule_call_at"]),
                  _offsets, _children),
        st.tuples(st.just("burst"), st.integers(1, 400),
                  st.integers(1, 60)),
        st.tuples(st.just("cancel"), st.integers(0, 10_000)),
        st.tuples(st.just("cancel_stride"), st.integers(0, 3),
                  st.integers(1, 3)),
        st.tuples(st.just("step")),
        st.tuples(st.just("run_until"), _offsets),
        st.tuples(st.just("run_max"), st.integers(0, 40)),
    ),
    max_size=40)


def _check_against_model(ops) -> int:
    """Drive ``ops`` against a Scheduler and the reference model, asserting
    agreement after every op; returns how many purges the model made."""
    from bisect import insort
    from itertools import count

    from repro.sim.scheduler import _PURGE_THRESHOLD

    scheduler = Scheduler()
    executed = []         # event ids in the scheduler's execution order
    expected = []         # event ids in the model's execution order
    queue = []            # model entries [time, id, cancelled, child], sorted
    queued = set()        # ids of the entries still in ``queue``
    handles = []          # (model entry, Event) of cancellable events
    model = {"now": 0.0, "cancelled": 0, "purges": 0}
    real_ids = count()    # both sides number events in creation order
    model_ids = count()

    def fire(event_id, child):
        executed.append(event_id)
        if child is not None:
            scheduler.schedule_call(child, fire, (next(real_ids), None))

    def model_add(at, child):
        entry = [at, next(model_ids), False, child]
        insort(queue, entry)
        queued.add(entry[1])
        return entry

    def add(kind, offset, child):
        at = model["now"] + offset
        entry = model_add(at, child)
        args = (next(real_ids), child)
        if kind == "schedule":
            handles.append((entry, scheduler.schedule(offset, fire, *args)))
        elif kind == "schedule_at":
            handles.append((entry, scheduler.schedule_at(at, fire, *args)))
        elif kind == "schedule_call":
            scheduler.schedule_call(offset, fire, args)
        else:
            scheduler.schedule_call_at(at, fire, args)

    def cancel(entry, event):
        event.cancel()
        if entry[1] in queued and not entry[2]:
            entry[2] = True
            model["cancelled"] += 1
            if (model["cancelled"] >= _PURGE_THRESHOLD
                    and model["cancelled"] * 2 > len(queue)):
                for dead in queue:
                    if dead[2]:
                        queued.discard(dead[1])
                queue[:] = [e for e in queue if not e[2]]
                model["cancelled"] = 0
                model["purges"] += 1

    def head():
        """Drop cancelled entries off the head; the first live one or None."""
        while queue and queue[0][2]:
            queued.discard(queue.pop(0)[1])
            model["cancelled"] -= 1
        return queue[0] if queue else None

    def execute():
        entry = queue.pop(0)
        queued.discard(entry[1])
        model["now"] = entry[0]
        expected.append(entry[1])
        if entry[3] is not None:
            model_add(model["now"] + entry[3], None)

    def run(until=None, cap=None):
        done = 0
        while head() is not None:
            if until is not None and queue[0][0] > until:
                model["now"] = until
                return
            if cap is not None and done >= cap:
                return
            execute()
            done += 1
        if until is not None and until > model["now"]:
            model["now"] = until

    for op in ops:
        name = op[0]
        if name.startswith("schedule"):
            add(name, op[1], op[2])
        elif name == "burst":
            for i in range(op[1]):
                add("schedule", (i * 7 % op[2]) * 0.5, None)
        elif name == "cancel":
            if handles:
                cancel(*handles[op[1] % len(handles)])
        elif name == "cancel_stride":
            for entry, event in handles[op[1]::op[2]]:
                cancel(entry, event)
        elif name == "step":
            expect_ran = head() is not None
            assert scheduler.step() is expect_ran
            if expect_ran:
                execute()
        elif name == "run_until":
            until = model["now"] + op[1]
            scheduler.run(until=until)
            run(until=until)
        else:
            scheduler.run(max_events=op[1])
            run(cap=op[1])
        assert executed == expected
        assert scheduler.now() == model["now"]
        live = len(queue) - model["cancelled"]
        assert scheduler.pending() == len(queue)
        assert scheduler.pending(live_only=True) == live
        assert scheduler._scan_live() == live
    return model["purges"]


#: Two bursts of handle events, then cancels of all but every third one:
#: enough cancellations to cross the purge threshold mid-sequence.
_PURGE_CROSSING_OPS = [
    ("burst", 400, 60), ("schedule_call", 2.0, 1.5), ("burst", 400, 37),
    ("cancel_stride", 0, 3), ("cancel_stride", 1, 3), ("run_until", 3.0),
    ("run_max", 5), ("step",), ("cancel", 17), ("run_until", 20.0),
]


@settings(max_examples=150, deadline=None)
@example(ops=_PURGE_CROSSING_OPS)
@given(ops=_model_ops)
def test_scheduler_matches_sorted_reference_model(ops):
    _check_against_model(ops)


def test_reference_model_sequence_crosses_purge_threshold():
    assert _check_against_model(_PURGE_CROSSING_OPS) >= 1
