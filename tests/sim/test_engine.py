"""Tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import EventQueue, SimClock


class TestEventQueue:
    def test_time_ordering(self):
        queue = EventQueue()
        queue.schedule(5.0, "b")
        queue.schedule(1.0, "a")
        queue.schedule(3.0, "c")
        kinds = [queue.pop().kind for _ in range(3)]
        assert kinds == ["a", "c", "b"]

    def test_fifo_tie_break(self):
        queue = EventQueue()
        queue.schedule(1.0, "first")
        queue.schedule(1.0, "second")
        assert queue.pop().kind == "first"
        assert queue.pop().kind == "second"

    def test_cancel(self):
        queue = EventQueue()
        keep = queue.schedule(1.0, "keep")
        drop = queue.schedule(0.5, "drop")
        queue.cancel(drop)
        assert len(queue) == 1
        assert queue.pop().seq == keep.seq

    def test_cancel_after_pop_is_noop(self):
        queue = EventQueue()
        event = queue.schedule(1.0, "x")
        assert queue.pop().seq == event.seq
        queue.cancel(event)
        assert len(queue) == 0

    def test_peek_skips_cancelled(self):
        queue = EventQueue()
        early = queue.schedule(1.0, "early")
        queue.schedule(2.0, "late")
        queue.cancel(early)
        assert queue.pop().time_s == 2.0

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().schedule(-1.0, "x")

    def test_payload_carried(self):
        queue = EventQueue()
        queue.schedule(1.0, "x", payload={"pid": 3})
        assert queue.pop().payload == {"pid": 3}

    def test_bool_and_len(self):
        queue = EventQueue()
        assert not queue
        event = queue.schedule(1.0, "x")
        assert queue and len(queue) == 1
        queue.cancel(event)
        assert not queue

    def test_cancelled_set_drains_when_queue_logically_empty(self):
        # Regression: cancelled events buried below the heap top used to
        # linger in _cancelled (and _heap) forever once the queue was
        # logically empty, growing without bound on a reused queue.
        queue = EventQueue()
        for round_no in range(50):
            live = queue.schedule(1.0, "live")
            buried = queue.schedule(2.0 + round_no, "buried")
            queue.cancel(buried)
            assert queue.pop().seq == live.seq
            assert not queue
            with pytest.raises(SimulationError):
                queue.pop()  # the lazy-deletion entry point
            assert not queue._cancelled
            assert not queue._heap

    def test_cancelled_set_bounded_with_live_backlog(self):
        # Out-of-order cancellations with a live event pinned at the heap
        # top must not accumulate corpses past the compaction threshold.
        queue = EventQueue()
        queue.schedule(0.0, "pinned")
        cancelled = [
            queue.schedule(10.0 + i, f"bulk{i}") for i in range(500)
        ]
        for event in cancelled:
            queue.cancel(event)
        assert len(queue) == 1
        assert queue.pop().kind == "pinned"
        assert len(queue._cancelled) <= 128
        assert not queue._cancelled and not queue._heap

    def test_pop_order_survives_compaction(self):
        queue = EventQueue()
        keep = [queue.schedule(float(i), f"k{i}") for i in range(5)]
        victims = [queue.schedule(100.0 + i, "v") for i in range(300)]
        for event in victims:
            queue.cancel(event)
        assert [queue.pop().seq for _ in range(5)] == [
            e.seq for e in keep
        ]
        assert not queue


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_returns_delta(self):
        clock = SimClock()
        assert clock.advance_to(2.5) == 2.5
        assert clock.advance_to(4.0) == 1.5
        assert clock.now == 4.0

    def test_no_backwards(self):
        clock = SimClock()
        clock.advance_to(5.0)
        with pytest.raises(SimulationError):
            clock.advance_to(4.0)

    def test_tiny_backwards_tolerated(self):
        clock = SimClock()
        clock.advance_to(5.0)
        assert clock.advance_to(5.0 - 1e-12) == 0.0
        assert clock.now == 5.0
