"""Profiling stage 3: combine the simulation log with group information.

Paper Section 4.4: "after simulation, the profiling data in the simulation
log-file and the process group information are combined and analyzed.  The
results are gathered to a profiling report."

:class:`ProfilingData` is the analysed result: execution time per process
group (Table 4a), the number of signals between groups (Table 4b), and the
finer-grained metrics the paper mentions ("other metrics, such as
transfers between individual application processes, are also available").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.observability.metrics import LatencyHistogram
from repro.simulation.logfile import LogFile
from repro.profiling.groupinfo import ENVIRONMENT_GROUP, ProcessGroupInfo


@dataclass
class FaultSummary:
    """Fault-injection ledger recovered from the log's META entries.

    The accounting identity ``injected == detected == recovered + residual``
    holds for campaigns that restrict injection to CRC-protected signals
    (see docs/fault_injection.md); ``by_kind`` breaks injections down by
    fault model.
    """

    seed: int = 0
    injected: int = 0
    detected: int = 0
    recovered: int = 0
    residual: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def recovery_ratio(self) -> float:
        """Fraction of detected faults repaired (1.0 when nothing detected)."""
        return self.recovered / self.detected if self.detected else 1.0


def _fault_summary_from_meta(meta: Dict[str, str]) -> Optional[FaultSummary]:
    if "fault_injected" not in meta:
        return None
    by_kind: Dict[str, int] = {}
    kinds = meta.get("fault_kinds", "-")
    if kinds and kinds != "-":
        for entry in kinds.split(","):
            kind, _, count = entry.partition(":")
            by_kind[kind] = int(count or 0)
    return FaultSummary(
        seed=int(meta.get("fault_seed", "0")),
        injected=int(meta.get("fault_injected", "0")),
        detected=int(meta.get("fault_detected", "0")),
        recovered=int(meta.get("fault_recovered", "0")),
        residual=int(meta.get("fault_residual", "0")),
        by_kind=by_kind,
    )


@dataclass
class ProfilingData:
    """Joined and aggregated profiling metrics."""

    group_info: ProcessGroupInfo
    group_cycles: Dict[str, int] = field(default_factory=dict)
    process_cycles: Dict[str, int] = field(default_factory=dict)
    group_signals: Dict[Tuple[str, str], int] = field(default_factory=dict)
    process_signals: Dict[Tuple[str, str], int] = field(default_factory=dict)
    group_bytes: Dict[Tuple[str, str], int] = field(default_factory=dict)
    group_steps: Dict[str, int] = field(default_factory=dict)
    signal_latency: Dict[str, LatencyHistogram] = field(default_factory=dict)
    transport_latency: Dict[str, LatencyHistogram] = field(default_factory=dict)
    dropped_signals: int = 0
    end_time_ps: int = 0
    fault_stats: Optional[FaultSummary] = None

    # -- Table 4(a) ----------------------------------------------------------

    def total_cycles(self) -> int:
        """Total charged cycles across all groups."""
        return sum(self.group_cycles.values())

    def group_share(self, group_name: str) -> float:
        """Execution-time proportion of one group (0..1)."""
        total = self.total_cycles()
        if total == 0:
            return 0.0
        return self.group_cycles.get(group_name, 0) / total

    def shares(self) -> Dict[str, float]:
        """Execution-time proportion per group, Table 4(a)'s column."""
        return {
            group: self.group_share(group)
            for group in self.group_info.all_groups()
        }

    # -- Table 4(b) ----------------------------------------------------------

    def signal_matrix(self) -> List[List[int]]:
        """Square matrix of signal counts, rows=senders, cols=receivers,
        over ``group_info.all_groups()`` order."""
        groups = self.group_info.all_groups()
        return [
            [self.group_signals.get((sender, receiver), 0) for receiver in groups]
            for sender in groups
        ]

    def signals_between(self, sender_group: str, receiver_group: str) -> int:
        """Delivered signal count of one sender->receiver group pair."""
        return self.group_signals.get((sender_group, receiver_group), 0)

    # -- optimisation objectives ------------------------------------------------

    def external_signals(self) -> int:
        """Signals crossing group boundaries (the quantity the paper's
        grouping objective minimises)."""
        return sum(
            count
            for (sender, receiver), count in self.group_signals.items()
            if sender != receiver
        )

    def internal_signals(self) -> int:
        """Signals delivered within a single group."""
        return sum(
            count
            for (sender, receiver), count in self.group_signals.items()
            if sender == receiver
        )

    def external_bytes(self) -> int:
        """Bytes carried by group-crossing signals."""
        return sum(
            count
            for (sender, receiver), count in self.group_bytes.items()
            if sender != receiver
        )

    def busiest_group(self) -> str:
        """The group with the most charged cycles (name breaks ties)."""
        if not self.group_cycles:
            return ENVIRONMENT_GROUP
        return max(self.group_cycles, key=lambda g: (self.group_cycles[g], g))


def analyze(log: LogFile, group_info: ProcessGroupInfo) -> ProfilingData:
    """Join a simulation log with group info (profiling stage 3)."""
    data = ProfilingData(group_info=group_info, end_time_ps=log.end_time_ps)
    for group in group_info.all_groups():
        data.group_cycles.setdefault(group, 0)
        data.group_steps.setdefault(group, 0)
    for record in log.exec_records:
        group = group_info.group_of(record.process)
        data.group_cycles[group] = data.group_cycles.get(group, 0) + record.cycles
        data.group_steps[group] = data.group_steps.get(group, 0) + 1
        data.process_cycles[record.process] = (
            data.process_cycles.get(record.process, 0) + record.cycles
        )
    for record in log.signal_records:
        sender_group = group_info.group_of(record.sender)
        receiver_group = group_info.group_of(record.receiver)
        group_key = (sender_group, receiver_group)
        process_key = (record.sender, record.receiver)
        data.group_signals[group_key] = data.group_signals.get(group_key, 0) + 1
        data.process_signals[process_key] = (
            data.process_signals.get(process_key, 0) + 1
        )
        data.group_bytes[group_key] = (
            data.group_bytes.get(group_key, 0) + record.bytes
        )
        data.signal_latency.setdefault(
            record.signal, LatencyHistogram()
        ).observe(record.latency_ps)
        data.transport_latency.setdefault(
            record.transport, LatencyHistogram()
        ).observe(record.latency_ps)
    data.dropped_signals = len(log.drop_records)
    data.fault_stats = _fault_summary_from_meta(log.meta)
    return data
