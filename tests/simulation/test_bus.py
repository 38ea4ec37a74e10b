"""HIBI bus model: latency, contention, arbitration, bridging."""

import pytest

from repro.platform import PlatformModel, standard_library
from repro.simulation import HibiBus, Kernel
from repro.simulation.kernel import cycles_to_ps


def single_segment_platform(arbitration="priority"):
    platform = PlatformModel("P", standard_library())
    platform.instantiate("cpu1", "NiosCPU")
    platform.instantiate("cpu2", "NiosCPU")
    platform.instantiate("cpu3", "NiosCPU")
    platform.segment("seg", "HIBISegment", arbitration=arbitration)
    platform.attach("cpu1", "seg", address=0x100, priority_class=0)
    platform.attach("cpu2", "seg", address=0x200, priority_class=1)
    platform.attach("cpu3", "seg", address=0x300, priority_class=2)
    return platform


def bridged_platform():
    platform = PlatformModel("P", standard_library())
    platform.instantiate("cpu1", "NiosCPU")
    platform.instantiate("cpu2", "NiosCPU")
    platform.segment("segA", "HIBISegment")
    platform.segment("segB", "HIBISegment")
    platform.segment("bridge", "HIBIBridgeSegment")
    platform.attach("cpu1", "segA", address=0x100)
    platform.attach("cpu2", "segB", address=0x200)
    platform.attach("segA", "bridge", address=0x300)
    platform.attach("segB", "bridge", address=0x400)
    return platform


def run_transfer(platform, source, target, size, kernel=None):
    kernel = kernel or Kernel()
    bus = HibiBus(platform, kernel)
    done = []
    bus.transfer(source, target, size, lambda latency: done.append(latency))
    kernel.run()
    assert len(done) == 1
    return done[0], bus


class TestSingleTransfer:
    def test_latency_matches_cycle_model(self):
        platform = single_segment_platform()
        spec = platform.segments["seg"].spec
        latency, _ = run_transfer(platform, "cpu1", "cpu2", 64)
        expected_cycles = spec.transfer_cycles(64) + spec.arbitration_cycles
        assert latency == cycles_to_ps(expected_cycles, spec.frequency_hz)

    def test_larger_transfers_take_longer(self):
        platform = single_segment_platform()
        small, _ = run_transfer(platform, "cpu1", "cpu2", 8)
        large, _ = run_transfer(single_segment_platform(), "cpu1", "cpu2", 1024)
        assert large > small

    def test_self_transfer_rejected(self):
        platform = single_segment_platform()
        bus = HibiBus(platform, Kernel())
        with pytest.raises(Exception):
            bus.transfer("cpu1", "cpu1", 8, lambda latency: None)

    def test_stats_accumulate(self):
        platform = single_segment_platform()
        _, bus = run_transfer(platform, "cpu1", "cpu2", 64)
        stats = bus.stats()["seg"]
        assert stats.transfers == 1
        assert stats.words == 16
        assert stats.busy_ps > 0


class TestBridgedTransfer:
    def test_crosses_three_segments(self):
        platform = bridged_platform()
        latency, bus = run_transfer(platform, "cpu1", "cpu2", 64)
        stats = bus.stats()
        assert stats["segA"].transfers == 1
        assert stats["bridge"].transfers == 1
        assert stats["segB"].transfers == 1

    def test_bridged_latency_is_about_three_hops(self):
        same_segment = single_segment_platform()
        direct, _ = run_transfer(same_segment, "cpu1", "cpu2", 64)
        bridged = bridged_platform()
        crossed, _ = run_transfer(bridged, "cpu1", "cpu2", 64)
        assert 2.5 * direct <= crossed <= 3.5 * direct


class TestContention:
    def start_three(self, arbitration):
        platform = single_segment_platform(arbitration=arbitration)
        kernel = Kernel()
        bus = HibiBus(platform, kernel)
        completions = []
        # all three PEs request the bus at t=0 targeting another PE
        bus.transfer("cpu1", "cpu2", 256, lambda l: completions.append(("cpu1", kernel.now_ps)))
        bus.transfer("cpu2", "cpu3", 256, lambda l: completions.append(("cpu2", kernel.now_ps)))
        bus.transfer("cpu3", "cpu1", 256, lambda l: completions.append(("cpu3", kernel.now_ps)))
        kernel.run()
        return completions

    def test_transfers_serialise_on_one_segment(self):
        completions = self.start_three("priority")
        times = [t for _, t in completions]
        assert len(set(times)) == 3  # strictly serialised

    def test_priority_order(self):
        completions = self.start_three("priority")
        # cpu1 has priority class 0 (highest): it finishes first; cpu2 next
        assert [name for name, _ in completions] == ["cpu1", "cpu2", "cpu3"]

    def test_round_robin_rotates(self):
        platform = single_segment_platform(arbitration="round-robin")
        kernel = Kernel()
        bus = HibiBus(platform, kernel)
        order = []
        # cpu3 requests first and wins the idle bus; then the queue holds
        # cpu1 and cpu2: round-robin continues from cpu3's address (0x300),
        # wrapping to 0x100 (cpu1) before 0x200 (cpu2) -- same as priority
        # here, so distinguish by queueing cpu2 before cpu1:
        bus.transfer("cpu3", "cpu1", 256, lambda l: order.append("cpu3"))
        bus.transfer("cpu2", "cpu3", 256, lambda l: order.append("cpu2"))
        bus.transfer("cpu1", "cpu2", 256, lambda l: order.append("cpu1"))
        kernel.run()
        assert order[0] == "cpu3"
        # after serving 0x300, round-robin picks 0x100 (cpu1) despite cpu2
        # having queued first
        assert order[1] == "cpu1"

    def test_priority_beats_fifo(self):
        platform = single_segment_platform(arbitration="priority")
        kernel = Kernel()
        bus = HibiBus(platform, kernel)
        order = []
        bus.transfer("cpu3", "cpu1", 256, lambda l: order.append("cpu3"))
        bus.transfer("cpu2", "cpu3", 256, lambda l: order.append("cpu2"))
        bus.transfer("cpu1", "cpu2", 256, lambda l: order.append("cpu1"))
        kernel.run()
        # cpu3 grabbed the idle bus; then priority class 0 (cpu1) wins
        assert order == ["cpu3", "cpu1", "cpu2"]

    def test_wait_time_recorded(self):
        platform = single_segment_platform()
        kernel = Kernel()
        bus = HibiBus(platform, kernel)
        bus.transfer("cpu1", "cpu2", 256, lambda l: None)
        bus.transfer("cpu2", "cpu3", 256, lambda l: None)
        kernel.run()
        assert bus.stats()["seg"].wait_ps > 0


class TestMaxReservation:
    def test_chunked_transfer_pays_extra_arbitration(self):
        platform = PlatformModel("P", standard_library())
        platform.instantiate("cpu1", "NiosCPU")
        platform.instantiate("cpu2", "NiosCPU")
        platform.segment("seg", "HIBISegment")
        platform.attach("cpu1", "seg", address=0x100, max_reservation_cycles=8)
        platform.attach("cpu2", "seg", address=0x200)
        limited, _ = run_transfer(platform, "cpu1", "cpu2", 256)

        free_platform = single_segment_platform()
        unlimited, _ = run_transfer(free_platform, "cpu1", "cpu2", 256)
        assert limited > unlimited

    def test_each_wrapper_keeps_its_limit_on_one_bus(self):
        platform = PlatformModel("P", standard_library())
        platform.instantiate("cpu1", "NiosCPU")
        platform.instantiate("cpu2", "NiosCPU")
        platform.segment("seg", "HIBISegment")
        platform.attach("cpu1", "seg", address=0x100, max_reservation_cycles=8)
        platform.attach("cpu2", "seg", address=0x200)
        expected = {
            source: run_transfer(platform, source, target, 256)[0]
            for source, target in (("cpu2", "cpu1"), ("cpu1", "cpu2"))
        }
        assert expected["cpu1"] > expected["cpu2"]
        # one bus, same segment and size: each requesting wrapper's own
        # reservation limit still decides the occupancy
        kernel = Kernel()
        bus = HibiBus(platform, kernel)
        for source, target in (("cpu2", "cpu1"), ("cpu1", "cpu2")):
            done = []
            bus.transfer(source, target, 256, done.append)
            kernel.run()
            assert done == [expected[source]]


class TestUtilization:
    def test_utilization_fraction(self):
        platform = single_segment_platform()
        kernel = Kernel()
        bus = HibiBus(platform, kernel)
        bus.transfer("cpu1", "cpu2", 64, lambda l: None)
        kernel.run()
        end = kernel.now_ps
        utilization = bus.utilization(end)
        assert utilization["seg"] == pytest.approx(1.0)  # busy the whole time
        assert bus.utilization(0)["seg"] == 0.0
