"""Tests for the discrete-event simulation engine."""

import pytest

from repro.exceptions import SimulationError
from repro.sim import Event, EventState, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_clock_can_start_elsewhere(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_schedule_and_run_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.5, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        assert sim.now == 1.5

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, 3)
        sim.schedule(1.0, order.append, 1)
        sim.schedule(2.0, order.append, 2)
        sim.run()
        assert order == [1, 2, 3]

    def test_ties_broken_by_priority_then_sequence(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "late-priority", priority=5)
        sim.schedule(1.0, order.append, "first-scheduled", priority=0)
        sim.schedule(1.0, order.append, "second-scheduled", priority=0)
        sim.run()
        assert order == ["first-scheduled", "second-scheduled", "late-priority"]

    def test_schedule_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_time_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_schedule_at_nan_rejected(self):
        # NaN compares false against the clock, so without an explicit check
        # it would slip into the heap and corrupt its ordering invariant.
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)

    def test_schedule_at_infinite_time_rejected(self):
        sim = Simulator()
        for time in (float("inf"), float("-inf")):
            with pytest.raises(SimulationError):
                sim.schedule_at(time, lambda: None)

    def test_schedule_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)

    def test_schedule_infinite_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("inf"), lambda: None)

    def test_nan_schedule_leaves_heap_usable(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        fired = []
        sim.schedule(1.0, fired.append, "ok")
        sim.run()
        assert fired == ["ok"] and sim.now == 1.0

    def test_events_scheduled_from_callbacks(self):
        sim = Simulator()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 0)
        sim.run()
        assert seen == [0, 1, 2, 3]
        assert sim.now == 4.0

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        assert event.cancel() is True
        sim.run()
        assert fired == []
        assert event.state is EventState.CANCELLED

    def test_cancel_after_fire_returns_false(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        assert event.cancel() is False
        assert event.state is EventState.FIRED

    def test_double_cancel_returns_false(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        assert event.cancel() is True
        assert event.cancel() is False


class TestRunControl:
    def test_run_until_leaves_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(5.0, fired.append, 5)
        sim.run_until(2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 5]

    def test_run_until_past_time_rejected(self):
        sim = Simulator(start_time=3.0)
        with pytest.raises(SimulationError):
            sim.run_until(1.0)

    def test_stop_from_callback(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, sim.stop)
        sim.schedule(3.0, fired.append, 3)
        sim.run()
        assert fired == [1]

    def test_max_events_cap(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        processed = sim.run(max_events=4)
        assert processed == 4
        assert sim.pending_events == 6

    def test_zero_max_events_fires_nothing(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        assert sim.run(max_events=0) == 0
        assert fired == []
        assert sim.now == 0.0
        assert sim.pending_events == 1

    def test_negative_max_events_rejected(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=-1)
        assert fired == []
        # The rejected call must not leave the simulator marked as running.
        assert sim.run() == 1

    @pytest.mark.parametrize("until", [float("nan"), float("inf")])
    def test_run_until_non_finite_rejected(self, until):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        with pytest.raises(SimulationError, match="finite"):
            sim.run_until(until)
        assert fired == []
        assert sim.now == 0.0
        sim.schedule(2.0, fired.append, 2)
        sim.run()
        assert fired == [1, 2]

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, nested)
        sim.run()
        assert len(errors) == 1

    def test_clear_drops_pending_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.clear()
        sim.run()
        assert fired == []

    def test_step_on_empty_heap_returns_false(self):
        assert Simulator().step() is False


class TestPendingEventsExcludeCancelled:
    def test_cancelled_events_not_counted(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending_events == 10
        for event in events[:4]:
            event.cancel()
        assert sim.pending_events == 6

    def test_double_cancel_counted_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending_events == 1

    def test_count_stays_accurate_as_cancelled_events_are_popped(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(2.0, fired.append, "keep")
        doomed = sim.schedule(1.0, fired.append, "doomed")
        doomed.cancel()
        assert sim.pending_events == 1
        sim.step()  # skips the cancelled event and fires "keep"
        assert fired == ["keep"]
        assert sim.pending_events == 0
        assert keep.state is EventState.FIRED

    def test_mass_cancellation_purges_heap_lazily(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(500)]
        for event in events[:400]:
            event.cancel()
        # The live count is exact and the heap itself has been compacted below
        # the raw number of scheduled events.
        assert sim.pending_events == 100
        assert len(sim._heap) < 500
        assert sim.run() == 100

    def test_cancellation_during_run_keeps_count_accurate(self):
        sim = Simulator()
        later = [sim.schedule(10.0 + i, lambda: None) for i in range(3)]
        observed = []

        def cancel_two():
            later[0].cancel()
            later[1].cancel()
            observed.append(sim.pending_events)

        sim.schedule(1.0, cancel_two)
        sim.run_until(5.0)
        assert observed == [1]
        assert sim.pending_events == 1

    def test_clear_resets_count(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        sim.clear()
        assert sim.pending_events == 0
        # A stale handle cancelled after clear() must not corrupt the count,
        # even once new events have been scheduled into the heap.
        stale = sim.schedule(1.0, lambda: None)
        sim.clear()
        stale.cancel()
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 1
        other_stale = sim.schedule(3.0, lambda: None)
        sim.clear()
        sim.schedule(4.0, lambda: None)
        other_stale.cancel()
        assert sim.pending_events == 1

    def test_stale_handle_from_purge_cannot_skew_count(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(200)]
        for event in events[:150]:
            event.cancel()  # triggers a lazy purge along the way
        assert sim.pending_events == 50
        # Cancelling an already-purged event again is a no-op.
        assert events[0].cancel() is False
        assert sim.pending_events == 50


class TestSequenceSurvivesClear:
    """``_sequence`` must not reset on clear() — see Simulator.clear()."""

    def test_sequence_is_not_reset_by_clear(self):
        sim = Simulator()
        before = sim.schedule(1.0, lambda: None)
        sim.clear()
        after = sim.schedule(1.0, lambda: None)
        # If clear() reset the counter, `after` would collide with the stale
        # pre-clear handle in the (time, priority, sequence) ordering key and
        # event order on a reused simulator would no longer be deterministic.
        assert after.sequence > before.sequence

    def test_order_stays_deterministic_across_reuse(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "first-life")
        sim.run()
        sim.clear()
        sim.schedule(1.0 - 1.0, order.append, "ignored")  # cleared below
        sim.clear()
        sim.schedule(2.0, order.append, "second-life-late", priority=0)
        sim.schedule(2.0, order.append, "second-life-later", priority=0)
        sim.run()
        assert order == ["first-life", "second-life-late", "second-life-later"]


class _ReferenceEvent:
    def __init__(self, time, priority, sequence, callback, args):
        self.key = (time, priority, sequence)
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _ReferenceScheduler:
    """The slowest obviously-correct scheduler: a list scanned for the
    minimum ``(time, priority, sequence)`` on every pop.

    It shares only the ordering contract with :class:`Simulator`, so the
    heap engine is checked against an independent implementation.
    """

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._pending = []
        self._sequence = 0

    @property
    def pending_events(self):
        return sum(not event.cancelled for event in self._pending)

    def schedule(self, delay, callback, *args, priority=0):
        self._sequence += 1
        event = _ReferenceEvent(self.now + delay, priority, self._sequence, callback, args)
        self._pending.append(event)
        return event

    def run(self):
        return self._drain(float("inf"))

    def run_until(self, until):
        processed = self._drain(until)
        self.now = max(self.now, until)
        return processed

    def _drain(self, until):
        processed = 0
        while self._pending:
            event = min(self._pending, key=lambda candidate: candidate.key)
            if event.key[0] > until:
                break
            self._pending.remove(event)
            if event.cancelled:
                continue
            self.now = event.key[0]
            event.callback(*event.args)
            self.events_processed += 1
            processed += 1
        return processed


def _scripted_trace(make):
    """A workload exercising ties, priorities, cancellation and rescheduling."""
    sim = make()
    order = []

    def note(tag):
        order.append((tag, sim.now))

    def cancel_and_reschedule():
        note("cancel-point")
        doomed[0].cancel()
        doomed[1].cancel()
        sim.schedule(0.0, note, "same-time-child")
        sim.schedule(0.5, note, "later-child", priority=-1)

    # Ties at t=1.0 resolved by priority then sequence.
    sim.schedule(1.0, note, "tie-low-pri", priority=5)
    sim.schedule(1.0, note, "tie-a")
    sim.schedule(1.0, note, "tie-b")
    doomed = [sim.schedule(3.0, note, "doomed-a"), sim.schedule(4.0, note, "doomed-b")]
    sim.schedule(2.0, cancel_and_reschedule)
    for i in range(200):
        sim.schedule(5.0 + (i % 7) * 0.25, note, f"bulk-{i}", priority=i % 3)
    processed = sim.run()
    return order, processed, sim.now, sim.events_processed


class TestMatchesReferenceScheduler:
    """The heap engine against :class:`_ReferenceScheduler` on shared workloads."""

    def test_scripted_workload_matches_reference(self):
        expected = _scripted_trace(_ReferenceScheduler)
        assert expected[1] == 206  # every event but the two cancelled ones
        assert _scripted_trace(Simulator) == expected

    def test_randomized_workloads_match_reference(self):
        from repro.sim.rng import substream

        def run(make, seed):
            rng = substream(seed, "engine-equivalence")
            sim = make()
            order = []
            handles = []

            def fire(tag):
                order.append((tag, sim.now))
                draw = rng.random()
                if draw < 0.3:
                    handles.append(
                        sim.schedule(
                            float(rng.integers(0, 4)) * 0.5,
                            fire,
                            f"{tag}/c",
                            priority=int(rng.integers(-2, 3)),
                        )
                    )
                elif draw < 0.4 and handles:
                    handles[int(rng.integers(0, len(handles)))].cancel()

            for i in range(300):
                handles.append(
                    sim.schedule(
                        float(rng.integers(0, 20)) * 0.25,
                        fire,
                        str(i),
                        priority=int(rng.integers(-2, 3)),
                    )
                )
            processed = sim.run()
            return order, processed, sim.now

        for seed in (0, 7, 123):
            assert run(Simulator, seed) == run(_ReferenceScheduler, seed)

    def test_run_until_matches_reference(self):
        def run(make):
            sim = make()
            order = []
            for i in range(50):
                sim.schedule(float(i % 10), order.append, i, priority=-i)
            first = sim.run_until(4.5)
            mid = (list(order), sim.now, sim.pending_events)
            second = sim.run()
            return first, mid, second, order, sim.now

        assert run(Simulator) == run(_ReferenceScheduler)
