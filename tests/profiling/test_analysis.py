"""Profiling stage 3: aggregation arithmetic on synthetic logs."""

import pytest

from repro.profiling import ProcessGroupInfo, analyze
from repro.simulation import LogFile, parse_log


def make_info():
    info = ProcessGroupInfo()
    info.group_names = ["gA", "gB"]
    info.process_to_group = {"p1": "gA", "p2": "gA", "p3": "gB"}
    return info


def make_log():
    writer = LogFile()
    for process, cycles in (("p1", 100), ("p2", 50), ("p3", 25), ("env1", 0)):
        writer.exec_step(
            time_ps=0, process=process, pe="cpu", cycles=cycles, duration_ps=0,
            from_state="s", to_state="s", trigger="t",
        )
    flows = [
        ("p1", "p2", 10, 3),   # within gA
        ("p1", "p3", 20, 5),   # gA -> gB
        ("p3", "p1", 30, 2),   # gB -> gA
        ("env1", "p1", 8, 1),  # Environment -> gA
    ]
    for sender, receiver, size, count in flows:
        for _ in range(count):
            writer.signal(
                time_ps=0, signal="s", sender=sender, receiver=receiver,
                bytes=size, latency_ps=0, transport="local",
            )
    writer.drop(time_ps=0, process="p1", signal="s", reason="no-transition")
    writer.finish(1_000_000)
    return parse_log(writer.render())


@pytest.fixture
def data():
    return analyze(make_log(), make_info())


class TestCycleAggregation:
    def test_group_cycles(self, data):
        assert data.group_cycles["gA"] == 150
        assert data.group_cycles["gB"] == 25
        assert data.group_cycles["Environment"] == 0

    def test_shares_sum_to_one(self, data):
        assert sum(data.shares().values()) == pytest.approx(1.0)

    def test_group_share(self, data):
        assert data.group_share("gA") == pytest.approx(150 / 175)

    def test_process_cycles(self, data):
        assert data.process_cycles["p1"] == 100

    def test_busiest_group(self, data):
        assert data.busiest_group() == "gA"

    def test_group_steps(self, data):
        assert data.group_steps["gA"] == 2


class TestSignalAggregation:
    def test_group_signal_counts(self, data):
        assert data.signals_between("gA", "gA") == 3
        assert data.signals_between("gA", "gB") == 5
        assert data.signals_between("gB", "gA") == 2
        assert data.signals_between("Environment", "gA") == 1

    def test_matrix_layout(self, data):
        groups = data.group_info.all_groups()
        matrix = data.signal_matrix()
        assert groups == ["gA", "gB", "Environment"]
        assert matrix[0][1] == 5   # gA -> gB
        assert matrix[1][0] == 2   # gB -> gA
        assert matrix[2][0] == 1   # Environment -> gA

    def test_external_internal_split(self, data):
        assert data.external_signals() == 5 + 2 + 1
        assert data.internal_signals() == 3

    def test_external_bytes(self, data):
        assert data.external_bytes() == 5 * 20 + 2 * 30 + 1 * 8

    def test_process_level_transfers(self, data):
        assert data.process_signals[("p1", "p3")] == 5

    def test_drops_counted(self, data):
        assert data.dropped_signals == 1


class TestEmptyLog:
    def test_zero_total_handled(self):
        writer = LogFile()
        writer.finish(0)
        data = analyze(parse_log(writer.render()), make_info())
        assert data.total_cycles() == 0
        assert data.group_share("gA") == 0.0
        assert data.busiest_group() in {"gA", "gB", "Environment"}
