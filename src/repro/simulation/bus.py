"""HIBI bus simulation: segment occupancy, arbitration, bridged transfers.

A transfer between PEs crosses the sequence of segments
:meth:`~repro.platform.model.PlatformModel.transfer_path` returns,
store-and-forward at bridge boundaries (HIBI bridges buffer a burst before
re-arbitrating on the next segment).  Each segment grants pending requests
by its arbitration policy:

* ``priority`` — lowest wrapper ``PriorityClass`` wins, FIFO among equals;
* ``round-robin`` — rotate over wrapper addresses, starting after the last
  served address.

A wrapper's ``MaxTime`` (maximum segment reservation) splits long transfers
into chunks, each paying arbitration again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.observability.tracer import Tracer, bus_track
from repro.platform.components import SegmentSpec, WrapperSpec
from repro.platform.model import PlatformModel
from repro.simulation.kernel import EV_SEQ, EV_TIME, Kernel, cycles_to_ps


@dataclass
class TransferStats:
    """Aggregate bus statistics, per segment."""

    transfers: int = 0
    words: int = 0
    busy_ps: int = 0
    wait_ps: int = 0


@dataclass
class _Transfer:
    # (segment, requesting agent, wrapper spec) of each hop to cross;
    # ``hop`` indexes the one requested or granted now
    hops: Tuple[Tuple[str, str, WrapperSpec], ...]
    size_bytes: int
    on_complete: Callable[[int], None]  # called with total latency (ps)
    started_ps: int = 0
    enqueued_ps: int = 0
    # fault injection (None without a fault plan): the injected fault kind
    # and the payload after corruption, resolved via on_fault at delivery
    fault: Optional[str] = None
    fault_args: tuple = ()
    on_fault: Optional[Callable[[str, int, tuple], None]] = None
    trace_handle: Optional[int] = None  # open tracer span of the current hop
    # serializable description of the callbacks (set by the system layer);
    # a checkpoint restore passes it back through a resolver to rebuild
    # on_complete/on_fault, since closures themselves cannot be snapshotted
    payload: Optional[dict] = None
    hop: int = 0


class _SegmentRuntime:
    def __init__(self, name: str, spec: SegmentSpec) -> None:
        self.name = name
        self.spec = spec
        self.busy = False
        self.queue: List[tuple] = []  # (wrapper_spec, transfer)
        self.last_served_address = -1
        self.stats = TransferStats()
        # the granted transfer and its pending _release event, while busy
        self.active: Optional[tuple] = None
        # (requesting agent, bytes) -> (occupancy ps, words) of one grant
        self.grants: Dict[Tuple[str, int], Tuple[int, int]] = {}


class HibiBus:
    """Cycle-approximate model of the platform's segmented interconnect."""

    def __init__(
        self,
        platform: PlatformModel,
        kernel: Kernel,
        faults=None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.platform = platform
        self.kernel = kernel
        # an optional repro.faults.FaultPlan; None keeps transfers fault-free
        # with zero per-transfer overhead
        self.faults = faults
        # an optional repro.observability.Tracer: grant→release spans and
        # request-queue depth samples per segment, same None-gated pattern
        self.tracer = tracer
        self.segments: Dict[str, _SegmentRuntime] = {
            name: _SegmentRuntime(name, instance.spec)
            for name, instance in platform.segments.items()
        }
        # (source PE, target PE) -> hops; resolved on first use, kept
        # for this bus only, and stored only when the PEs are connected
        self._routes: Dict[Tuple[str, str], tuple] = {}

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------

    def transfer(
        self,
        source_pe: str,
        target_pe: str,
        size_bytes: int,
        on_complete: Callable[[int], None],
        signal: str = "",
        args: tuple = (),
        on_fault: Optional[Callable[[str, int, tuple], None]] = None,
        payload: Optional[dict] = None,
    ) -> None:
        """Start a transfer; ``on_complete(latency_ps)`` fires on delivery.

        With a fault plan installed, the transfer's fate is decided here
        (keyed off the current kernel clock).  A corrupted or dropped frame
        still occupies the bus normally; at delivery time
        ``on_fault(kind, latency_ps, args)`` fires instead of
        ``on_complete`` — with the bit-flipped payload for a corruption,
        and not at all for a drop when no ``on_fault`` is given.
        """
        hops = self._routes.get((source_pe, target_pe))
        if hops is None:
            hops = self._routes[(source_pe, target_pe)] = self._route(
                source_pe, target_pe
            )
        transfer = _Transfer(
            hops=hops,
            size_bytes=size_bytes,
            on_complete=on_complete,
            started_ps=self.kernel.now_ps,
            payload=payload,
        )
        if self.faults is not None:
            kind, fault_args = self.faults.apply_bus_fault(
                signal, tuple(args), source_pe, target_pe, self.kernel.now_ps
            )
            if kind is not None:
                transfer.fault = kind
                transfer.fault_args = fault_args
                transfer.on_fault = on_fault
        self._request_next_hop(transfer)

    def stats(self) -> Dict[str, TransferStats]:
        """Per-segment aggregate transfer statistics (live references)."""
        return {name: runtime.stats for name, runtime in self.segments.items()}

    def utilization(self, end_time_ps: int) -> Dict[str, float]:
        """Fraction of time each segment was occupied."""
        if end_time_ps <= 0:
            return {name: 0.0 for name in self.segments}
        return {
            name: min(1.0, runtime.stats.busy_ps / end_time_ps)
            for name, runtime in self.segments.items()
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _route(self, source_pe: str, target_pe: str) -> tuple:
        """The hops of a transfer between two PEs (fewest segments)."""
        path = self.platform.transfer_path(source_pe, target_pe)
        if not path:
            raise SimulationError(
                f"transfer {source_pe!r}->{target_pe!r} needs no bus; deliver "
                "locally instead"
            )
        return self._hops(path, [source_pe] + path[:-1])

    def _hops(self, path: List[str], agents: List[str]) -> tuple:
        return tuple(
            (segment, agent, self._wrapper_between(agent, segment))
            for segment, agent in zip(path, agents)
        )

    def _wrapper_between(self, agent: str, segment: str) -> WrapperSpec:
        for wrapper in self.platform.wrappers:
            if wrapper.agent_name == agent and wrapper.segment_name == segment:
                return wrapper.spec
            if wrapper.agent_name == segment and wrapper.segment_name == agent:
                return wrapper.spec
        raise SimulationError(f"no wrapper between {agent!r} and {segment!r}")

    def _request_next_hop(self, transfer: _Transfer) -> None:
        if transfer.hop == len(transfer.hops):
            latency = self.kernel.now_ps - transfer.started_ps
            if transfer.fault is not None:
                if transfer.on_fault is not None:
                    transfer.on_fault(transfer.fault, latency, transfer.fault_args)
                return
            transfer.on_complete(latency)
            return
        segment_name, _agent, wrapper = transfer.hops[transfer.hop]
        runtime = self.segments[segment_name]
        transfer.enqueued_ps = self.kernel.now_ps
        runtime.queue.append((wrapper, transfer))
        if self.tracer is not None:
            # wrapper FIFO depth: its high-water mark is the contention metric
            self.tracer.counter(
                "requests",
                bus_track(segment_name),
                {"depth": len(runtime.queue)},
                time_ps=self.kernel.now_ps,
            )
        if not runtime.busy:
            self._grant(runtime)

    def _grant(self, runtime: _SegmentRuntime) -> None:
        if runtime.busy or not runtime.queue:
            return
        index = self._select(runtime)
        wrapper, transfer = runtime.queue.pop(index)
        runtime.busy = True
        runtime.last_served_address = wrapper.address
        agent = transfer.hops[transfer.hop][1]
        grant = runtime.grants.get((agent, transfer.size_bytes))
        if grant is None:
            grant = runtime.grants[(agent, transfer.size_bytes)] = (
                cycles_to_ps(
                    self._occupancy_cycles(runtime.spec, wrapper, transfer),
                    runtime.spec.frequency_hz,
                ),
                runtime.spec.words_for_bytes(transfer.size_bytes),
            )
        duration_ps, words = grant
        runtime.stats.transfers += 1
        runtime.stats.words += words
        runtime.stats.busy_ps += duration_ps
        runtime.stats.wait_ps += self.kernel.now_ps - transfer.enqueued_ps
        if self.tracer is not None:
            args = {
                "bytes": transfer.size_bytes,
                "wait_ps": self.kernel.now_ps - transfer.enqueued_ps,
            }
            if transfer.fault is not None:
                args["fault"] = transfer.fault
            transfer.trace_handle = self.tracer.begin(
                agent,
                bus_track(runtime.name),
                category="bus",
                time_ps=self.kernel.now_ps,
                **args,
            )
        event = self.kernel.schedule(
            duration_ps, lambda r=runtime, t=transfer: self._release(r, t)
        )
        runtime.active = (transfer, event)

    def _release(self, runtime: _SegmentRuntime, transfer: _Transfer) -> None:
        runtime.busy = False
        runtime.active = None
        if self.tracer is not None and transfer.trace_handle is not None:
            self.tracer.end(transfer.trace_handle, time_ps=self.kernel.now_ps)
            transfer.trace_handle = None
        transfer.hop += 1
        self._request_next_hop(transfer)
        self._grant(runtime)

    def _select(self, runtime: _SegmentRuntime) -> int:
        """Index into ``runtime.queue`` of the transfer to grant next."""
        if runtime.spec.arbitration == "round-robin":
            best_index = 0
            best_key = None
            for index, (wrapper, _) in enumerate(runtime.queue):
                # distance ahead of the last served address, cyclically
                distance = (wrapper.address - runtime.last_served_address) % (1 << 32)
                if distance == 0:
                    distance = 1 << 32
                key = (distance, index)
                if best_key is None or key < best_key:
                    best_key = key
                    best_index = index
            return best_index
        # priority: lowest PriorityClass wins, FIFO among equals
        best_index = 0
        best_key = None
        for index, (wrapper, _) in enumerate(runtime.queue):
            key = (wrapper.priority_class, index)
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        return best_index

    # ------------------------------------------------------------------
    # checkpoint/restore protocol
    # ------------------------------------------------------------------

    @staticmethod
    def _transfer_state(transfer: _Transfer) -> dict:
        if transfer.payload is None:
            raise SimulationError(
                "in-flight transfer carries no serializable payload; the "
                "system layer must pass payload= to transfer() for "
                "checkpointing to work"
            )
        hops = transfer.hops[transfer.hop:]
        return {
            "path": [segment for segment, _, _ in hops],
            "agents": [agent for _, agent, _ in hops],
            "size_bytes": transfer.size_bytes,
            "started_ps": transfer.started_ps,
            "enqueued_ps": transfer.enqueued_ps,
            "fault": transfer.fault,
            "fault_args": list(transfer.fault_args),
            "trace_handle": transfer.trace_handle,
            "payload": transfer.payload,
        }

    def _restore_transfer(
        self, data: dict, resolve: Callable[[dict], tuple]
    ) -> _Transfer:
        on_complete, on_fault = resolve(data["payload"])
        return _Transfer(
            hops=self._hops(data["path"], data["agents"]),
            size_bytes=int(data["size_bytes"]),
            on_complete=on_complete,
            started_ps=int(data["started_ps"]),
            enqueued_ps=int(data["enqueued_ps"]),
            fault=data["fault"],
            fault_args=tuple(data["fault_args"]),
            on_fault=on_fault if data["fault"] is not None else None,
            trace_handle=data["trace_handle"],
            payload=dict(data["payload"]),
        )

    def state_dict(self) -> dict:
        """Per-segment arbiter state, queues, stats and in-flight transfers.

        Transfer callbacks are not serialized — each transfer's ``payload``
        (a JSON-safe description the system layer attached) goes into the
        snapshot instead, and :meth:`load_state_dict` rebuilds the
        callbacks through a resolver.
        """
        segments = {}
        for name in sorted(self.segments):
            runtime = self.segments[name]
            active = None
            if runtime.active is not None:
                transfer, event = runtime.active
                active = {
                    "transfer": self._transfer_state(transfer),
                    "release_ps": event[EV_TIME],
                    "sequence": event[EV_SEQ],
                }
            segments[name] = {
                "busy": runtime.busy,
                "last_served_address": runtime.last_served_address,
                "stats": {
                    "transfers": runtime.stats.transfers,
                    "words": runtime.stats.words,
                    "busy_ps": runtime.stats.busy_ps,
                    "wait_ps": runtime.stats.wait_ps,
                },
                "queue": [
                    self._transfer_state(transfer)
                    for _, transfer in runtime.queue
                ],
                "active": active,
            }
        return {"segments": segments}

    def load_state_dict(
        self, state: dict, resolve: Callable[[dict], tuple]
    ) -> None:
        """Restore a snapshot; ``resolve(payload) -> (on_complete, on_fault)``.

        Queued requests get their wrapper specs re-looked-up from the
        platform; granted transfers re-materialize their pending
        ``_release`` kernel events with the original sequence numbers.
        """
        for runtime in self.segments.values():
            if runtime.busy or runtime.queue:
                raise SimulationError(
                    "load_state_dict needs a fresh bus (transfers already "
                    "in flight)"
                )
        for name, data in state["segments"].items():
            runtime = self.segments.get(name)
            if runtime is None:
                raise SimulationError(
                    f"snapshot references unknown bus segment {name!r}"
                )
            runtime.busy = bool(data["busy"])
            runtime.last_served_address = int(data["last_served_address"])
            stats = data["stats"]
            runtime.stats = TransferStats(
                transfers=int(stats["transfers"]),
                words=int(stats["words"]),
                busy_ps=int(stats["busy_ps"]),
                wait_ps=int(stats["wait_ps"]),
            )
            for transfer_data in data["queue"]:
                transfer = self._restore_transfer(transfer_data, resolve)
                runtime.queue.append((transfer.hops[0][2], transfer))
            if data["active"] is not None:
                transfer = self._restore_transfer(
                    data["active"]["transfer"], resolve
                )
                event = self.kernel.restore_event(
                    int(data["active"]["release_ps"]),
                    int(data["active"]["sequence"]),
                    lambda r=runtime, t=transfer: self._release(r, t),
                )
                runtime.active = (transfer, event)

    def _occupancy_cycles(
        self, spec: SegmentSpec, wrapper: WrapperSpec, transfer: _Transfer
    ) -> int:
        transfer_cycles = spec.transfer_cycles(transfer.size_bytes)
        chunks = 1
        if wrapper.max_reservation_cycles > 0:
            chunks = -(-transfer_cycles // wrapper.max_reservation_cycles)
        return transfer_cycles + chunks * spec.arbitration_cycles
