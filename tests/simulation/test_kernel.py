"""Discrete-event kernel: ordering, cancellation, budget, hooks, restore."""

import random

import pytest

from repro.errors import SimulationError
from repro.observability.tracer import KERNEL_TRACK, Tracer
from repro.simulation import QUEUE_DEPTH_COUNTER, Kernel, cycles_to_ps
from repro.simulation.kernel import (
    EV_CALLBACK,
    EV_CANCELLED,
    EV_DISPATCHED,
    EV_SEQ,
    EV_TIME,
    PS_PER_US,
    TRACE_STRIDE,
)


class TestScheduling:
    def test_events_fire_in_time_order(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(300, lambda: fired.append("c"))
        kernel.schedule(100, lambda: fired.append("a"))
        kernel.schedule(200, lambda: fired.append("b"))
        kernel.run()
        assert fired == ["a", "b", "c"]

    def test_equal_times_fire_in_schedule_order(self):
        kernel = Kernel()
        fired = []
        for label in "abc":
            kernel.schedule(50, lambda l=label: fired.append(l))
        kernel.run()
        assert fired == ["a", "b", "c"]

    def test_now_advances_to_event_time(self):
        kernel = Kernel()
        seen = []
        kernel.schedule(500, lambda: seen.append(kernel.now_ps))
        kernel.run()
        assert seen == [500]

    def test_nested_scheduling(self):
        kernel = Kernel()
        fired = []
        def first():
            fired.append(("first", kernel.now_ps))
            kernel.schedule(10, lambda: fired.append(("second", kernel.now_ps)))
        kernel.schedule(100, first)
        kernel.run()
        assert fired == [("first", 100), ("second", 110)]

    def test_negative_delay_rejected(self):
        kernel = Kernel()
        with pytest.raises(SimulationError):
            kernel.schedule(-1, lambda: None)

    def test_negative_delay_is_a_value_error(self):
        # regression: the guard must raise a ValueError subclass so plain
        # argument validation catches it (mirrors cycles_to_ps's guard)
        kernel = Kernel()
        with pytest.raises(ValueError):
            kernel.schedule(-1, lambda: None)

    def test_schedule_at_past_time_is_a_value_error(self):
        kernel = Kernel()
        kernel.schedule(10, lambda: None)
        kernel.run()
        assert kernel.now_ps == 10
        with pytest.raises(ValueError):
            kernel.schedule_at(5, lambda: None)

    def test_schedule_at(self):
        kernel = Kernel()
        seen = []
        kernel.schedule_at(777, lambda: seen.append(kernel.now_ps))
        kernel.run()
        assert seen == [777]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        kernel = Kernel()
        fired = []
        event = kernel.schedule(100, lambda: fired.append("x"))
        kernel.cancel(event)
        kernel.run()
        assert fired == []

    def test_pending_excludes_cancelled(self):
        kernel = Kernel()
        kernel.schedule(10, lambda: None)
        event = kernel.schedule(20, lambda: None)
        kernel.cancel(event)
        assert kernel.pending == 1


class TestRunUntil:
    def test_until_stops_before_later_events(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(100, lambda: fired.append("early"))
        kernel.schedule(10_000, lambda: fired.append("late"))
        dispatched = kernel.run(until_ps=1000)
        assert fired == ["early"]
        assert dispatched == 1
        assert kernel.now_ps == 1000  # clock advanced to the horizon

    def test_resume_after_until(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(100, lambda: fired.append(1))
        kernel.schedule(500, lambda: fired.append(2))
        kernel.run(until_ps=200)
        kernel.run()
        assert fired == [1, 2]

    def test_event_budget(self):
        kernel = Kernel(max_events=10)
        def loop():
            kernel.schedule(1, loop)
        kernel.schedule(1, loop)
        with pytest.raises(SimulationError):
            kernel.run(until_ps=10_000)


class TestCyclesToPs:
    def test_50mhz_cycle_is_20ns(self):
        assert cycles_to_ps(1, 50_000_000) == 20_000

    def test_scales_linearly(self):
        assert cycles_to_ps(100, 50_000_000) == 100 * 20_000

    def test_microsecond_constant(self):
        assert cycles_to_ps(50, 50_000_000) == PS_PER_US

    def test_zero_frequency_rejected(self):
        with pytest.raises(SimulationError):
            cycles_to_ps(1, 0)

    def test_negative_cycles_rejected(self):
        with pytest.raises(SimulationError, match="non-negative"):
            cycles_to_ps(-1, 50_000_000)

    def test_zero_cycles_ok(self):
        assert cycles_to_ps(0, 50_000_000) == 0


class TestPendingCounter:
    """`Kernel.pending` is a live counter (O(1)), not a heap scan."""

    def test_counts_scheduled_events(self):
        kernel = Kernel()
        for delay in (10, 20, 30):
            kernel.schedule(delay, lambda: None)
        assert kernel.pending == 3

    def test_cancel_decrements(self):
        kernel = Kernel()
        events = [kernel.schedule(d, lambda: None) for d in (10, 20, 30)]
        kernel.cancel(events[1])
        assert kernel.pending == 2

    def test_double_cancel_is_idempotent(self):
        kernel = Kernel()
        event = kernel.schedule(10, lambda: None)
        kernel.schedule(20, lambda: None)
        kernel.cancel(event)
        kernel.cancel(event)
        assert kernel.pending == 1

    def test_cancel_after_dispatch_is_a_noop(self):
        kernel = Kernel()
        event = kernel.schedule(10, lambda: None)
        kernel.schedule(20, lambda: None)
        kernel.run(until_ps=15)
        kernel.cancel(event)  # already fired: must not corrupt the counter
        assert kernel.pending == 1

    def test_dispatch_decrements(self):
        kernel = Kernel()
        for delay in (10, 20, 30):
            kernel.schedule(delay, lambda: None)
        kernel.run(until_ps=25)
        assert kernel.pending == 1

    def test_tombstones_are_compacted(self):
        # cancel-heavy models (timer resets) must not grow the queue
        # unboundedly: once tombstones outnumber live events the heap is
        # rebuilt with only live entries
        kernel = Kernel()
        events = [kernel.schedule(d + 1, lambda: None) for d in range(100)]
        for event in events[:90]:
            kernel.cancel(event)
        assert kernel.pending == 10
        heap = kernel._heap
        assert sum(not e[EV_CANCELLED] for e in heap) == 10
        assert len(heap) < 30
        assert kernel.run() == 10


class TestStateProtocol:
    def test_dispatched_counts_lifetime_events(self):
        kernel = Kernel()
        for delay in (10, 20):
            kernel.schedule(delay, lambda: None)
        kernel.run()
        assert kernel.dispatched == 2

    def test_state_roundtrip_preserves_clock_and_counters(self):
        kernel = Kernel()
        kernel.schedule(10, lambda: None)
        kernel.schedule(20, lambda: None)
        kernel.run()
        state = kernel.state_dict()

        restored = Kernel()
        restored.load_state_dict(state)
        assert restored.now_ps == kernel.now_ps
        assert restored.dispatched == 2
        # new events get fresh (higher) sequence numbers
        event = restored.schedule(5, lambda: None)
        assert event[EV_SEQ] > 2

    def test_load_requires_fresh_kernel(self):
        used = Kernel()
        used.schedule(10, lambda: None)
        with pytest.raises(SimulationError, match="fresh"):
            used.load_state_dict({"now_ps": 0, "sequence": 0, "dispatched": 0})

    def test_restore_event_replays_original_order(self):
        # two same-time events restored out of order must still fire in
        # original sequence order — the property byte-identical resume
        # rests on
        kernel = Kernel()
        kernel.load_state_dict({"now_ps": 100, "sequence": 7, "dispatched": 5})
        fired = []
        kernel.restore_event(150, 6, lambda: fired.append("b"))
        kernel.restore_event(150, 3, lambda: fired.append("a"))
        kernel.run()
        assert fired == ["a", "b"]

    def test_restore_event_rejects_future_sequence(self):
        kernel = Kernel()
        kernel.load_state_dict({"now_ps": 0, "sequence": 2, "dispatched": 0})
        with pytest.raises(SimulationError, match="ahead"):
            kernel.restore_event(10, 3, lambda: None)

    def test_restore_event_rejects_past_time(self):
        kernel = Kernel()
        kernel.load_state_dict({"now_ps": 100, "sequence": 5, "dispatched": 0})
        with pytest.raises(SimulationError, match="before"):
            kernel.restore_event(50, 1, lambda: None)

    def test_after_event_hook_fires_per_dispatch(self):
        kernel = Kernel()
        calls = []
        kernel.after_event = lambda: calls.append(kernel.now_ps)
        kernel.schedule(10, lambda: None)
        kernel.schedule(20, lambda: None)
        kernel.run()
        assert calls == [10, 20]

    def test_pending_events_replay_identically_after_restore(self):
        # the snapshot records no queue layout: events re-materialized
        # from a cut replay in the order the uninterrupted run used
        def workload(kernel):
            rng = random.Random(99)
            return [
                kernel.schedule(rng.randrange(1, 2_000_000), lambda: None)
                for _ in range(300)
            ]

        reference = Kernel()
        events = workload(reference)
        reference.run(until_ps=500_000)
        survivors = [
            (e[EV_TIME], e[EV_SEQ]) for e in events if not e[EV_DISPATCHED]
        ]
        state = reference.state_dict()
        reference.run()

        target = Kernel()
        target.load_state_dict(state)
        replay = []
        for time_ps, sequence in survivors:
            target.restore_event(
                time_ps, sequence, lambda s=sequence: replay.append(s)
            )
        assert target.pending == len(survivors)
        target.run()
        assert replay == [s for _, s in sorted(survivors)]
        assert target.now_ps == reference.now_ps
        assert target.dispatched == reference.dispatched


class TestQueueEdgeCases:
    def test_compaction_preserves_order_under_cancel_storm(self):
        kernel = Kernel()
        fired = []
        rng = random.Random(17)
        events = [
            kernel.schedule(
                rng.randrange(1, 5_000_000), lambda i=i: fired.append(i)
            )
            for i in range(400)
        ]
        keep = []
        for index, event in enumerate(events):
            if index % 5 == 0:
                keep.append((event[EV_TIME], event[EV_SEQ], index))
            else:
                kernel.cancel(event)
        assert kernel.pending == len(keep)
        kernel.run()
        assert fired == [index for _, _, index in sorted(keep)]

    def test_compaction_inside_a_callback_keeps_later_schedules(self):
        # run() holds the heap list while a callback's cancels compact it,
        # so compaction must keep the list's identity
        kernel = Kernel()
        fired = []
        timers = [kernel.schedule(1_000 + d, lambda: None) for d in range(20)]

        def reset_timers():
            for event in timers:
                kernel.cancel(event)
            kernel.schedule(5, lambda: fired.append("after reset"))

        kernel.schedule(10, reset_timers)
        kernel.run()
        assert fired == ["after reset"]
        assert kernel.pending == 0

    def test_hook_registered_mid_run_takes_effect(self):
        # a callback that installs after_event gets the hook called for
        # its own dispatch; one that removes it does not
        kernel = Kernel()
        seen = []

        def hook():
            seen.append(kernel.dispatched)

        def install():
            kernel.after_event = hook

        kernel.schedule(10, install)
        kernel.schedule(20, lambda: None)
        kernel.schedule(30, lambda: setattr(kernel, "after_event", None))
        kernel.schedule(40, lambda: None)
        kernel.run()
        assert seen == [1, 2]

    def test_queue_depth_sampled_every_stride(self):
        # a sample counts live events only: tombstones never show
        tracer = Tracer()
        kernel = Kernel(tracer=tracer)
        total = 3 * TRACE_STRIDE + 8
        events = [kernel.schedule(d + 1, lambda: None) for d in range(total)]
        kernel.cancel(events[-1])
        kernel.run()
        samples = [
            (c.name, c.track, c.time_ps, c.values) for c in tracer.counters()
        ]
        assert samples == [
            (
                QUEUE_DEPTH_COUNTER,
                KERNEL_TRACK,
                n * TRACE_STRIDE,
                {"depth": total - 1 - n * TRACE_STRIDE},
            )
            for n in (1, 2, 3)
        ]


def _event_soup(kernel, seed, until_ps):
    """A seeded storm of schedules and cancels issued from callbacks.

    Returns every event ever scheduled and the ``(time_ps, sequence)`` of
    each dispatch, in dispatch order.
    """
    rng = random.Random(seed)
    scheduled = []
    dispatched = []

    def schedule(delay):
        event = kernel.schedule(delay, None)
        event[EV_CALLBACK] = lambda: work(event)
        scheduled.append(event)

    def work(event):
        dispatched.append((kernel.now_ps, event[EV_SEQ]))
        action = rng.random()
        if action < 0.55:
            schedule(rng.choice((0, 7, 512, 1_024, 65_536, 10_000_000)))
        if action < 0.2:
            kernel.cancel(rng.choice(scheduled))

    for _ in range(64):
        schedule(rng.randrange(0, 100_000))
    kernel.run(until_ps=until_ps)
    return scheduled, dispatched


@pytest.mark.parametrize("seed", [3, 11, 42])
def test_event_soup_dispatches_in_sorted_order(seed):
    """Dispatch order is the sorted (time, sequence) of uncancelled events."""
    until_ps = 50_000_000
    scheduled, dispatched = _event_soup(Kernel(), seed, until_ps)
    expected = sorted(
        (event[EV_TIME], event[EV_SEQ])
        for event in scheduled
        if not event[EV_CANCELLED] and event[EV_TIME] <= until_ps
    )
    assert dispatched == expected
    assert len(dispatched) > 100
    assert any(event[EV_CANCELLED] for event in scheduled)
