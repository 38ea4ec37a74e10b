"""Queue edge cases, run against both public names of the kernel.

``Kernel`` is the class every simulation uses; ``HeapKernel`` is the name
the benchmark harness patches.  Both must schedule, cancel, stop and hook
exactly alike.
"""

import pytest

from repro.simulation.kernel import HeapKernel, Kernel


@pytest.mark.parametrize(
    "backend", [Kernel, HeapKernel], ids=["Kernel", "HeapKernel"]
)
class TestQueueEdgeCases:
    def test_same_tick_fifo_order(self, backend):
        # a whole tick of same-time events fires in scheduling order,
        # including events added to the tick from within the tick itself
        # (they carry larger sequence numbers, so they fire last)
        kernel = backend()
        fired = []
        kernel.schedule(500, lambda: fired.append("late"))

        def first():
            fired.append("first")
            kernel.schedule(0, lambda: fired.append("nested"))

        kernel.schedule(100, first)
        for index in range(50):
            kernel.schedule(100, lambda i=index: fired.append(i))
        kernel.run()
        assert fired == ["first"] + list(range(50)) + ["nested", "late"]

    def test_far_future_overflow_ordering(self, backend):
        # delays spanning nine orders of magnitude dispatch in time order
        kernel = backend()
        fired = []
        delays = [5, 1_000, 40_000, 70_000_000, 3_000_000_000, 70_000_001, 6]
        for delay in delays:
            kernel.schedule(delay, lambda d=delay: fired.append(d))
        kernel.run()
        assert fired == sorted(delays)

    def test_cancel_tombstones_across_structures(self, backend):
        # a cancelled event never fires, however far out it was scheduled
        kernel = backend()
        fired = []
        events = [
            kernel.schedule(delay, lambda d=delay: fired.append(d))
            for delay in (10, 2_000, 50_000, 900_000_000)
        ]
        for event in events[::2]:
            kernel.cancel(event)
        assert kernel.pending == 2
        kernel.run()
        assert fired == [2_000, 900_000_000]

    def test_until_pushback_resumes_exactly(self, backend):
        kernel = backend()
        fired = []
        for delay in (100, 200, 300, 400):
            kernel.schedule(delay, lambda d=delay: fired.append(d))
        assert kernel.run(until_ps=250) == 2
        assert kernel.now_ps == 250
        assert kernel.run() == 2
        assert fired == [100, 200, 300, 400]

    def test_dispatched_coherent_inside_hooks(self, backend):
        kernel = backend()
        counts = []
        kernel.after_event = lambda: counts.append(kernel.dispatched)
        for delay in (10, 20, 30):
            kernel.schedule(delay, lambda: None)
        kernel.run()
        assert counts == [1, 2, 3]
        assert kernel.dispatched == 3
