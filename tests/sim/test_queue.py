"""Tests for the event queue and event objects."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.events import Event, EventPriority
from repro.sim.queue import EventQueue


class TestEvent:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Event(time=-1.0)

    def test_fire_without_handler_is_noop(self):
        Event(time=0.0).fire()

    def test_fire_invokes_handler_with_event(self):
        seen = []
        ev = Event(time=1.0, handler=seen.append, payload="x")
        ev.fire()
        assert seen == [ev]
        assert seen[0].payload == "x"


class TestEventQueue:
    def test_pop_in_time_order(self):
        q = EventQueue()
        for t in [5.0, 1.0, 3.0]:
            q.push(Event(time=t))
        assert [q.pop().time for _ in range(3)] == [1.0, 3.0, 5.0]

    def test_priority_breaks_time_ties(self):
        q = EventQueue()
        q.push(Event(time=1.0, priority=EventPriority.BATCH))
        q.push(Event(time=1.0, priority=EventPriority.COMPLETION))
        q.push(Event(time=1.0, priority=EventPriority.ARRIVAL))
        got = [q.pop().priority for _ in range(3)]
        assert got == [
            EventPriority.COMPLETION,
            EventPriority.ARRIVAL,
            EventPriority.BATCH,
        ]

    def test_insertion_order_breaks_full_ties(self):
        q = EventQueue()
        first = q.push(Event(time=1.0, payload="first"))
        second = q.push(Event(time=1.0, payload="second"))
        assert q.pop() is first
        assert q.pop() is second

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_cancelled_events_skipped(self):
        q = EventQueue()
        keep = q.push(Event(time=2.0))
        drop = q.push(Event(time=1.0))
        q.cancel(drop)
        assert len(q) == 1
        assert q.pop() is keep

    def test_double_cancel_counts_once(self):
        q = EventQueue()
        ev = q.push(Event(time=1.0))
        q.push(Event(time=2.0))
        q.cancel(ev)
        q.cancel(ev)
        assert len(q) == 1

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        early = q.push(Event(time=1.0))
        q.push(Event(time=2.0))
        q.cancel(early)
        assert q.peek_time() == 2.0

    def test_peek_time_empty(self):
        assert EventQueue().peek_time() is None

    def test_bool_reflects_live_events(self):
        q = EventQueue()
        assert not q
        ev = q.push(Event(time=1.0))
        assert q
        q.cancel(ev)
        assert not q

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    def test_pop_order_is_sorted(self, times):
        """Property: popping everything yields times in sorted order."""
        q = EventQueue()
        for t in times:
            q.push(Event(time=t))
        popped = [q.pop().time for _ in range(len(times))]
        assert popped == sorted(times)


# One operation on the queue: push (time, priority), cancel the k-th pushed
# event (if it is still pending), or pop.
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e6]),
            st.sampled_from(list(EventPriority)),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=60)),
        st.tuples(st.just("pop")),
    ),
    max_size=80,
)


@given(_ops)
def test_interleaved_ops_pop_in_key_order(ops):
    """Pops follow sorted ``(time, priority, sequence)`` over live events.

    ``peek``, ``pop``, ``len`` and ``bool`` agree with a sorted-list model
    after every operation, and cancelled events never surface.
    """
    q = EventQueue()
    pushed: list[Event] = []
    live: dict[int, Event] = {}  # sequence -> pending event
    cancelled: set[int] = set()

    def key(event):
        return (event.time, event.priority, event.sequence)

    for op in ops:
        if op[0] == "push":
            event = q.push(Event(time=op[1], priority=op[2]))
            assert event.sequence == len(pushed)
            pushed.append(event)
            live[event.sequence] = event
        elif op[0] == "cancel" and (op[1] in live or op[1] in cancelled):
            q.cancel(pushed[op[1]])  # cancelling twice is a no-op
            cancelled.add(op[1])
            live.pop(op[1], None)
        elif op[0] == "pop" and live:
            expected = min(live.values(), key=key)
            assert q.pop() is expected
            del live[expected.sequence]
        expected = min(live.values(), key=key) if live else None
        assert q.peek() is expected
        assert q.peek_time() == (expected.time if expected else None)
        assert len(q) == len(live)
        assert bool(q) == bool(live)
    drained = []
    while q:
        drained.append(q.pop())
    assert drained == sorted(live.values(), key=key)
    with pytest.raises(IndexError):
        q.pop()


@given(st.lists(st.sampled_from(list(EventPriority)), min_size=1, max_size=40))
def test_same_time_same_priority_pops_in_push_order(priorities):
    q = EventQueue()
    events = [q.push(Event(time=1.0, priority=p)) for p in priorities]
    popped = [q.pop() for _ in events]
    for priority in set(priorities):
        assert [e for e in popped if e.priority is priority] == [
            e for e in events if e.priority is priority
        ]
