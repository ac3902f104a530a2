"""Tests for the Correctable state machine and its callbacks."""

import gc
import weakref

import pytest
from hypothesis import given, strategies as st

from repro.core.consistency import CACHED, STRONG, WEAK
from repro.core.correctable import Correctable, CorrectableState
from repro.core.errors import InvalidStateError, OperationError


class TestStateMachine:
    def test_starts_updating(self):
        c = Correctable()
        assert c.state is CorrectableState.UPDATING
        assert c.is_updating() and not c.is_done()

    def test_update_keeps_updating(self):
        c = Correctable()
        c.update("v1", WEAK)
        assert c.is_updating()
        assert len(c.views()) == 1

    def test_close_moves_to_final(self):
        c = Correctable()
        c.close("v", STRONG)
        assert c.is_final() and c.is_done()
        assert c.value() == "v"

    def test_fail_moves_to_error(self):
        c = Correctable()
        c.fail(OperationError("boom"))
        assert c.is_error()
        assert isinstance(c.error, OperationError)

    def test_update_after_close_is_dropped_and_counted(self):
        c = Correctable()
        c.close("v", STRONG)
        assert c.update("late", WEAK) is None
        assert c.discarded_updates == 1
        assert len(c.views()) == 1

    def test_close_after_close_raises(self):
        c = Correctable()
        c.close("v", STRONG)
        with pytest.raises(InvalidStateError):
            c.close("v2", STRONG)

    def test_fail_after_close_raises(self):
        c = Correctable()
        c.close("v", STRONG)
        with pytest.raises(InvalidStateError):
            c.fail(OperationError("x"))

    def test_close_after_fail_raises(self):
        c = Correctable()
        c.fail(OperationError("x"))
        with pytest.raises(InvalidStateError):
            c.close("v", STRONG)

    def test_final_view_before_close_raises(self):
        with pytest.raises(InvalidStateError):
            Correctable().final_view()

    def test_final_view_after_error_reraises(self):
        c = Correctable()
        c.fail(OperationError("bad"))
        with pytest.raises(OperationError):
            c.final_view()

    def test_views_ordering(self):
        c = Correctable()
        c.update("a", CACHED)
        c.update("b", WEAK)
        c.close("c", STRONG)
        assert [v.value for v in c.views()] == ["a", "b", "c"]
        assert [v.value for v in c.preliminary_views()] == ["a", "b"]
        assert c.final_view().value == "c"
        assert c.latest_view().value == "c"


class TestCallbacks:
    def test_on_update_fires_per_preliminary(self):
        c = Correctable()
        seen = []
        c.set_callbacks(on_update=lambda v: seen.append(v.value))
        c.update("a", WEAK)
        c.update("b", WEAK)
        assert seen == ["a", "b"]

    def test_on_final_fires_once(self):
        c = Correctable()
        seen = []
        c.set_callbacks(on_final=lambda v: seen.append(v.value))
        c.update("a", WEAK)
        c.close("b", STRONG)
        assert seen == ["b"]

    def test_callbacks_registered_late_fire_immediately(self):
        c = Correctable()
        c.update("a", WEAK)
        c.close("b", STRONG)
        updates, finals = [], []
        c.set_callbacks(on_update=lambda v: updates.append(v.value),
                        on_final=lambda v: finals.append(v.value))
        assert updates == ["a"]
        assert finals == ["b"]

    def test_on_error_late_registration(self):
        c = Correctable()
        c.fail(OperationError("boom"))
        errors = []
        c.on_error(errors.append)
        assert len(errors) == 1

    def test_chaining_returns_self(self):
        c = Correctable()
        assert c.set_callbacks(on_update=lambda v: None) is c
        assert c.on_final(lambda v: None) is c

    def test_update_callback_not_called_for_final(self):
        c = Correctable()
        updates = []
        c.on_update(lambda v: updates.append(v.value))
        c.close("final", STRONG)
        assert updates == []

    def test_multiple_final_callbacks(self):
        c = Correctable()
        seen = []
        c.on_final(lambda v: seen.append(1))
        c.on_final(lambda v: seen.append(2))
        c.close("x", STRONG)
        assert seen == [1, 2]

    @pytest.mark.parametrize("closed_by", ["close", "fail"])
    def test_late_registration_keeps_no_callback_alive(self, closed_by):
        # A closed Correctable never fires its callbacks again, so a late
        # registration must not keep the closure (and what it captures)
        # alive for the Correctable's lifetime.
        c = Correctable()
        if closed_by == "close":
            c.close("x", STRONG)
        else:
            c.fail(OperationError("boom"))

        class Captured:
            pass

        captured = Captured()
        ref = weakref.ref(captured)
        c.set_callbacks(on_update=lambda v, keep=captured: None,
                        on_final=lambda v, keep=captured: None,
                        on_error=lambda e, keep=captured: None)
        del captured
        gc.collect()
        assert ref() is None
        assert (c._update_callbacks, c._final_callbacks,
                c._error_callbacks) == ([], [], [])


class TestTimestamps:
    def test_clock_stamps_views(self):
        times = iter([10.0, 20.0])
        c = Correctable(clock=lambda: next(times))
        c.update("a", WEAK)
        c.close("b", STRONG)
        assert c.views()[0].timestamp == 10.0
        assert c.views()[1].timestamp == 20.0

    def test_no_clock_leaves_timestamp_none(self):
        c = Correctable()
        c.close("a", STRONG)
        assert c.final_view().timestamp is None


class TestDerived:
    def test_map_transforms_all_views(self):
        c = Correctable()
        mapped = c.map(lambda x: x * 2)
        seen = []
        mapped.set_callbacks(on_update=lambda v: seen.append(("u", v.value)),
                             on_final=lambda v: seen.append(("f", v.value)))
        c.update(1, WEAK)
        c.close(2, STRONG)
        assert seen == [("u", 2), ("f", 4)]

    def test_map_propagates_error(self):
        c = Correctable()
        mapped = c.map(lambda x: x)
        c.fail(OperationError("x"))
        assert mapped.is_error()

    def test_final_promise_resolves_with_final_value(self):
        c = Correctable()
        promise = c.final_promise()
        c.update("weak", WEAK)
        assert not promise.is_done()
        c.close("strong", STRONG)
        assert promise.value == "strong"

    def test_final_promise_rejects_on_error(self):
        c = Correctable()
        promise = c.final_promise()
        c.fail(OperationError("nope"))
        assert promise.is_failed()

    def test_resolved_constructor(self):
        c = Correctable.resolved(7, STRONG)
        assert c.is_final() and c.value() == 7

    def test_all_combines_final_values(self):
        c1, c2 = Correctable(), Correctable()
        combined = Correctable.all([c1, c2])
        c2.close("b", STRONG)
        c1.close("a", STRONG)
        assert combined.value == ["a", "b"]

    def test_close_with_confirmation_flag(self):
        c = Correctable()
        c.update("v", WEAK)
        view = c.close("v", STRONG, is_confirmation=True)
        assert view.is_confirmation
        assert c.final_view().value == "v"


@given(st.lists(st.integers(), min_size=0, max_size=10), st.integers())
def test_views_are_append_only_and_final_is_last(preliminaries, final_value):
    c = Correctable()
    for value in preliminaries:
        c.update(value, WEAK)
    c.close(final_value, STRONG)
    values = [v.value for v in c.views()]
    assert values == preliminaries + [final_value]
    assert c.final_view().consistency == STRONG
    # After closing, no further transitions are possible.
    assert c.update(0, WEAK) is None
    with pytest.raises(InvalidStateError):
        c.close(0, STRONG)


@given(st.lists(st.sampled_from(["update", "close", "fail"]),
                min_size=1, max_size=12))
def test_state_machine_never_reopens(actions):
    """Once final or error is reached the Correctable never changes state."""
    c = Correctable()
    terminal = None
    for action in actions:
        if terminal is None:
            if action == "update":
                c.update("x", WEAK)
            elif action == "close":
                c.close("x", STRONG)
                terminal = CorrectableState.FINAL
            else:
                c.fail(OperationError("e"))
                terminal = CorrectableState.ERROR
        else:
            if action == "update":
                c.update("y", WEAK)
            else:
                with pytest.raises(InvalidStateError):
                    if action == "close":
                        c.close("y", STRONG)
                    else:
                        c.fail(OperationError("e2"))
            assert c.state is terminal


class TestViewSnapshotCaching:
    """views()/preliminary_views() hand out cached immutable snapshots."""

    def test_views_returns_same_tuple_between_deliveries(self):
        c = Correctable()
        c.update("v1", WEAK)
        first = c.views()
        assert isinstance(first, tuple)
        assert c.views() is first, "hot-path polling must not copy"

    def test_views_cache_invalidated_by_new_view(self):
        c = Correctable()
        c.update("v1", WEAK)
        first = c.views()
        c.update("v2", WEAK)
        second = c.views()
        assert second is not first
        assert [view.value for view in second] == ["v1", "v2"]
        assert c.views() is second

    def test_preliminary_views_cached_once_final(self):
        c = Correctable()
        c.update("v1", WEAK)
        c.close("v2", STRONG)
        prelims = c.preliminary_views()
        assert isinstance(prelims, tuple)
        assert [view.value for view in prelims] == ["v1"]
        assert c.preliminary_views() is prelims

    def test_preliminary_views_while_updating_track_all_views(self):
        c = Correctable()
        c.update("v1", WEAK)
        assert [v.value for v in c.preliminary_views()] == ["v1"]
        c.update("v2", WEAK)
        assert [v.value for v in c.preliminary_views()] == ["v1", "v2"]

    def test_unpacking_still_works(self):
        c = Correctable()
        c.update("p", WEAK)
        c.close("f", STRONG)
        prelim, final = c.views()
        assert (prelim.value, final.value) == ("p", "f")
