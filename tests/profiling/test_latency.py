"""Latency statistics in the profiling analysis."""

import pytest

from repro.observability.metrics import LatencyHistogram
from repro.profiling import analyze, render_latency_detail
from repro.profiling.groupinfo import ProcessGroupInfo
from repro.simulation import LogFile


class TestLatencyStats:
    def test_observe_accumulates(self):
        stats = LatencyHistogram()
        for value in (10, 20, 60):
            stats.observe(value)
        assert stats.count == 3
        assert stats.mean_ps == pytest.approx(30.0)
        assert stats.max_ps == 60

    def test_empty_mean_is_zero(self):
        assert LatencyHistogram().mean_ps == 0.0


def build_data():
    info = ProcessGroupInfo()
    info.process_to_group = {"a": "g", "b": "g"}
    info.group_names = ["g"]
    log = LogFile()
    samples = [
        ("ping", "local", 100),
        ("ping", "local", 300),
        ("ping", "bus", 900),
        ("pong", "bus", 500),
    ]
    for signal, transport, latency in samples:
        log.signal(
            time_ps=0, signal=signal, sender="a", receiver="b",
            bytes=4, latency_ps=latency, transport=transport,
        )
    log.finish(1)
    return analyze(log, info)


class TestAggregation:
    def test_per_signal_latency(self):
        data = build_data()
        assert data.signal_latency["ping"].count == 3
        assert data.signal_latency["ping"].max_ps == 900
        assert data.signal_latency["pong"].mean_ps == pytest.approx(500.0)

    def test_per_transport_latency(self):
        data = build_data()
        assert data.transport_latency["local"].count == 2
        assert data.transport_latency["bus"].count == 2
        assert data.transport_latency["bus"].mean_ps == pytest.approx(700.0)

    def test_render_detail(self):
        text = render_latency_detail(build_data())
        assert "Delivery latency by transport" in text
        assert "Delivery latency by signal type" in text
        assert "ping" in text and "bus" in text


class TestOnRealRun:
    def test_bus_latency_exceeds_local(self, tutwlan_system):
        from repro.profiling import profile_run
        from repro.simulation import SystemSimulation
        from repro.cases.tutwlan import build_tutwlan_system

        application, platform, mapping = build_tutwlan_system()
        result = SystemSimulation(application, platform, mapping).run(20_000)
        data = profile_run(result, application)
        assert (
            data.transport_latency["bus"].mean_ps
            > data.transport_latency["local"].mean_ps
        )
        # environment deliveries are instantaneous
        assert data.transport_latency["env"].max_ps == 0
