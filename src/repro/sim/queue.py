"""Binary-heap event queue.

A thin, well-tested wrapper over :mod:`heapq` that assigns monotone sequence
numbers (deterministic tiebreaking for simultaneous events) and skips
cancelled events lazily on pop — the standard priority-queue idiom that
avoids O(n) removal.

The heap holds ``(time, priority, sequence, event)`` tuples rather than the
events themselves, so every sift compares floats and ints in C.  Sequence
numbers are unique, so the comparison never reaches the event.
"""

from __future__ import annotations

import heapq

from repro.sim.events import Event

__all__ = ["EventQueue"]


class EventQueue:
    """Priority queue of :class:`~repro.sim.events.Event` objects."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._next_sequence = 0
        self._live = 0

    def push(self, event: Event) -> Event:
        """Insert ``event``, assigning its tiebreaking sequence number.

        Returns the event (for chaining / later cancellation).
        """
        sequence = event.sequence = self._next_sequence
        self._next_sequence += 1
        heapq.heappush(
            self._heap, (event.time, int(event.priority), sequence, event)
        )
        self._live += 1
        return event

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises:
            IndexError: when the queue holds no live events.
        """
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if event.cancelled:
                continue
            self._live -= 1
            return event
        raise IndexError("pop from an empty event queue")

    def peek_time(self) -> float | None:
        """Firing time of the earliest live event, or ``None`` if empty."""
        head = self.peek()
        return head.time if head is not None else None

    def peek(self) -> Event | None:
        """The earliest live event itself, or ``None`` if empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][3] if heap else None

    def cancel(self, event: Event) -> None:
        """Cancel an event previously pushed onto this queue."""
        if not event.cancelled:
            event.cancel()
            self._live -= 1

    def __len__(self) -> int:
        """Number of live (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
