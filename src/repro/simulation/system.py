"""Full-system simulation: application × platform × mapping → log-file.

This is the executable stand-in for the paper's "Simulation" box in
Figure 2: application processes run as EFSMs on their mapped processing
elements (non-preemptive priority scheduling per PE), signals between PEs
cross the HIBI bus model, and everything is recorded in the simulation
log-file the profiling tool consumes.

Environment (testbench) processes execute outside the platform with zero
cycle cost — the paper's Table 4 reports the Environment row at 0 cycles.
"""

from __future__ import annotations


from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.application.model import ApplicationModel
from repro.mapping.model import MappingModel
from repro.observability.tracer import SYSTEM_TRACK, Tracer, pe_track
from repro.platform.model import PlatformModel
from repro.simulation.bus import HibiBus, TransferStats
from repro.simulation.executor import ProcessExecutor, SendIntent, StepOutcome
from repro.simulation.kernel import (
    EV_CALLBACK,
    EV_SEQ,
    EV_TIME,
    PS_PER_US,
    cycles_to_ps,
    event_pending,
    select_backend,
)
from repro.simulation.logfile import (
    LogFile,
    LogWriter,
    TRANSPORT_BUS,
    TRANSPORT_ENV,
    TRANSPORT_LOCAL,
    parse_log,
)
from repro.simulation.timing import CostModel, timer_duration_ps

ENVIRONMENT_PE = "-"


def _noop() -> None:
    """Placeholder callback replaced right after scheduling (see
    :meth:`SystemSimulation._schedule_deliver`)."""


@dataclass
class _Activation:
    """A pending reason to run a process: start, signal, or timer."""

    kind: str  # 'start' | 'signal' | 'timer'
    process: str
    signal: str = ""
    args: Tuple[int, ...] = ()
    timer: str = ""
    sender: str = ""
    sent_ps: int = 0
    transport: str = TRANSPORT_LOCAL
    bytes: int = 0
    corrupt: bool = False  # payload was bit-corrupted in transit

    def describe(self) -> str:
        """Human-readable trigger label used in log and trace records."""
        if self.kind == "signal":
            return self.signal
        if self.kind == "timer":
            return f"timer:{self.timer}"
        return "start"

    def to_dict(self) -> dict:
        """JSON-safe form for checkpoint snapshots."""
        return {
            "kind": self.kind,
            "process": self.process,
            "signal": self.signal,
            "args": list(self.args),
            "timer": self.timer,
            "sender": self.sender,
            "sent_ps": self.sent_ps,
            "transport": self.transport,
            "bytes": self.bytes,
            "corrupt": self.corrupt,
        }

    @staticmethod
    def from_dict(data: dict) -> "_Activation":
        """Rebuild an activation from :meth:`to_dict` output."""
        return _Activation(
            kind=data["kind"],
            process=data["process"],
            signal=data["signal"],
            args=tuple(data["args"]),
            timer=data["timer"],
            sender=data["sender"],
            sent_ps=int(data["sent_ps"]),
            transport=data["transport"],
            bytes=int(data["bytes"]),
            corrupt=bool(data["corrupt"]),
        )


class _PERuntime:
    """Non-preemptive scheduler for one processing element.

    The ready-queue policy comes from the PE's «PlatformRtos» stereotype
    (paper future work): ``priority`` (default), ``fifo``, or
    ``round-robin`` over the mapped processes.  ``dispatch_overhead``
    cycles are charged per step when an RTOS is configured.
    """

    def __init__(
        self,
        name: str,
        cost_model: CostModel,
        policy: str = "priority",
        dispatch_overhead_cycles: int = 0,
        tick_period_us: int = 0,
    ) -> None:
        self.name = name
        self.cost_model = cost_model
        self.policy = policy
        self.dispatch_overhead_cycles = dispatch_overhead_cycles
        self.tick_period_us = tick_period_us
        self.ready: List[tuple] = []  # (seq, priority, activation)
        self.busy = False
        self.busy_ps = 0
        self.last_process: Optional[str] = None
        self._seq = 0
        # the in-flight step while busy, for checkpointing:
        # (activation, outcome, cycles, started_ps, completion event)
        self.active_step: Optional[tuple] = None

    def enqueue(self, activation: _Activation, priority: int) -> None:
        """Add an activation to the ready queue (insertion order preserved)."""
        self._seq += 1
        self.ready.append((self._seq, priority, activation))

    def pop(self) -> Optional[_Activation]:
        """Remove and return the next activation per the queue policy."""
        if not self.ready:
            return None
        if self.policy == "fifo":
            index = min(range(len(self.ready)), key=lambda i: self.ready[i][0])
        elif self.policy == "round-robin":
            index = self._round_robin_index()
        else:  # priority: highest priority, FIFO among equals
            index = min(
                range(len(self.ready)),
                key=lambda i: (-self.ready[i][1], self.ready[i][0]),
            )
        return self.ready.pop(index)[2]

    def _round_robin_index(self) -> int:
        """The earliest entry of the 'next' process after the last served."""
        names = sorted({entry[2].process for entry in self.ready})
        if self.last_process is not None:
            after = [n for n in names if n > self.last_process]
            next_name = after[0] if after else names[0]
        else:
            next_name = names[0]
        candidates = [
            (entry[0], i)
            for i, entry in enumerate(self.ready)
            if entry[2].process == next_name
        ]
        return min(candidates)[1]


@dataclass
class SimulationResult:
    """Everything a simulation run produced."""

    writer: LogWriter
    end_time_ps: int
    dispatched_events: int
    pe_busy_ps: Dict[str, int]
    bus_stats: Dict[str, TransferStats]
    dropped_signals: int
    fault_stats: Optional[object] = None  # repro.faults.FaultStats when injecting
    trace: Optional[Tracer] = None        # the run's tracer when tracing was on
    _parsed: Optional[LogFile] = field(default=None, repr=False)

    @property
    def log(self) -> LogFile:
        """The run's log, parsed lazily from the writer's rendering."""
        if self._parsed is None:
            self._parsed = parse_log(self.writer.render())
        return self._parsed

    def pe_utilization(self) -> Dict[str, float]:
        """Busy fraction of the simulated interval, per processing element."""
        if self.end_time_ps <= 0:
            return {pe: 0.0 for pe in self.pe_busy_ps}
        return {
            pe: min(1.0, busy / self.end_time_ps)
            for pe, busy in self.pe_busy_ps.items()
        }

    def total_cycles(self) -> int:
        """Total PE clock cycles charged across all logged steps."""
        return sum(self.log.cycles_by_process().values())


class SystemSimulation:
    """Executes an application mapped onto a platform."""

    def __init__(
        self,
        application: ApplicationModel,
        platform: PlatformModel,
        mapping: MappingModel,
        max_events: int = 5_000_000,
        faults=None,
        tracer: Optional[Tracer] = None,
        kernel_backend: Optional[str] = None,
    ) -> None:
        mapping.check_complete()
        self.application = application
        self.platform = platform
        self.mapping = mapping
        # The tracer mirrors the faults pattern: every hook sits behind a
        # None check, so an untraced run is byte-identical (log and all)
        # to the pre-observability simulator.
        self.tracer = tracer
        # kernel_backend=None defers to REPRO_KERNEL_BACKEND / "auto";
        # every backend honours the same ordering and checkpoint
        # contract, so the choice never changes simulation output
        kernel_cls = select_backend(kernel_backend)
        self.kernel = kernel_cls(max_events=max_events, tracer=tracer)
        if tracer is not None:
            tracer.bind_clock(lambda: self.kernel.now_ps)
        # A disabled plan (all rates zero, no windows) is treated exactly
        # like no plan: every fault hook stays behind a None check, so the
        # fault-free simulation is bit-identical to the pre-fault simulator.
        self.faults = faults if faults is not None and faults.enabled else None
        self.bus = HibiBus(
            platform, self.kernel, faults=self.faults, tracer=tracer
        )
        self.writer = LogWriter(
            meta={
                "application": application.top.name,
                "platform": platform.top.name,
            }
        )
        self.pe_runtimes: Dict[str, _PERuntime] = {
            name: _PERuntime(
                name,
                CostModel(instance.spec),
                policy=instance.scheduling_policy(),
                dispatch_overhead_cycles=instance.dispatch_overhead_cycles(),
                tick_period_us=instance.tick_period_us(),
            )
            for name, instance in platform.processing_elements.items()
        }
        self.executors: Dict[str, ProcessExecutor] = {}
        self.pe_of_process: Dict[str, Optional[str]] = {}
        for name, process in application.processes.items():
            self.executors[name] = ProcessExecutor(
                name, process.behavior, tracer=tracer
            )
            if process.is_environment:
                self.pe_of_process[name] = None
            else:
                pe_name = mapping.pe_of_process(name)
                if pe_name is None:
                    raise SimulationError(
                        f"process {name!r} has no platform mapping"
                    )
                self.pe_of_process[name] = pe_name
        self.timers: Dict[Tuple[str, str], object] = {}
        # Static wiring, resolved on first use and kept for this run only:
        # (sender, signal, via) -> (receiver, wire bytes, sender PE,
        # receiver PE); process -> priority and process type; PE ->
        # receive delay.  A failed lookup stores nothing, so it raises
        # again wherever it is repeated.
        self._sends: Dict[tuple, tuple] = {}
        self._priorities: Dict[str, int] = {}
        self._process_types: Dict[str, str] = {}
        self._receive_delays: Dict[str, int] = {}
        self.dropped = 0
        self._started = False
        self._restored = False
        # pending signal/start deliveries keyed by their kernel event
        # sequence; entries are removed when the event fires, so at any
        # quiescent instant this is exactly the set of in-flight deliveries
        # a checkpoint must re-materialize
        self._pending_deliveries: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------

    def run(self, duration_us: int) -> SimulationResult:
        """Run for ``duration_us`` microseconds of simulated time.

        After :meth:`load_state_dict` the run continues from the restored
        clock; the ``duration_us`` horizon is absolute simulated time, so
        a resumed run passes the *same* duration as the original."""
        if self._started:
            raise SimulationError("a SystemSimulation instance runs only once")
        self._started = True
        if not self._restored:
            # canonical start order (name-sorted): the same design produces
            # the same log regardless of model construction or reload order
            for name in sorted(self.application.processes):
                activation = _Activation(kind="start", process=name)
                self._schedule_deliver(0, activation)
        self.kernel.run(until_ps=duration_us * PS_PER_US)
        end = self.kernel.now_ps
        self.writer.finish(end)
        fault_stats = None
        if self.faults is not None:
            fault_stats = self.faults.stats
            self.writer.meta.update(fault_stats.as_meta(self.faults.seed))
        return SimulationResult(
            writer=self.writer,
            end_time_ps=end,
            # the kernel's lifetime counter survives checkpoint/restore, so
            # a resumed run reports the same total as an uninterrupted one
            dispatched_events=self.kernel.dispatched,
            pe_busy_ps={n: r.busy_ps for n, r in self.pe_runtimes.items()},
            bus_stats=self.bus.stats(),
            dropped_signals=self.dropped,
            fault_stats=fault_stats,
            trace=self.tracer,
        )

    # ------------------------------------------------------------------
    # activation delivery and execution
    # ------------------------------------------------------------------

    def _schedule_deliver(self, delay_ps: int, activation: _Activation) -> None:
        """Schedule a delivery and register it for checkpointing.

        The registry entry is keyed by the event's sequence number and
        removed when the event fires, so the registry always holds exactly
        the in-flight deliveries a snapshot must capture."""
        event = self.kernel.schedule(delay_ps, _noop)
        sequence = event[EV_SEQ]
        event[EV_CALLBACK] = (
            lambda a=activation, s=sequence: self._fire_delivery(a, s)
        )
        self._pending_deliveries[sequence] = (activation, event)

    def _fire_delivery(self, activation: _Activation, sequence: int) -> None:
        self._pending_deliveries.pop(sequence, None)
        self._deliver(activation)

    def _deliver(self, activation: _Activation) -> None:
        """An activation arrives at its process (kernel time = arrival)."""
        pe_name = self.pe_of_process[activation.process]
        if (
            self.faults is not None
            and pe_name is not None
            and self.faults.pe_crashed(pe_name, self.kernel.now_ps)
        ):
            # the PE is inside a crash window: the activation is lost
            self.writer.fault(
                time_ps=self.kernel.now_ps,
                kind="pe-crash",
                signal=activation.describe(),
                source=pe_name,
                target=activation.process,
            )
            self.dropped += 1
            self.writer.drop(
                time_ps=self.kernel.now_ps,
                process=activation.process,
                signal=activation.describe(),
                reason="pe-crash",
            )
            if self.tracer is not None:
                self.tracer.instant(
                    "pe-crash",
                    pe_track(pe_name),
                    category="fault",
                    signal=activation.describe(),
                    process=activation.process,
                )
                self._trace_drop(activation, "pe-crash")
            return
        if activation.kind == "signal":
            self.writer.signal(
                time_ps=self.kernel.now_ps,
                signal=activation.signal,
                sender=activation.sender,
                receiver=activation.process,
                bytes=activation.bytes,
                latency_ps=self.kernel.now_ps - activation.sent_ps,
                transport=activation.transport,
                corrupt=1 if activation.corrupt else 0,
            )
            if self.faults is not None and not activation.corrupt:
                # a clean delivery may repair an earlier tracked loss
                self.faults.note_delivery(activation.signal, activation.args)
            if self.tracer is not None:
                self.tracer.instant(
                    activation.signal,
                    SYSTEM_TRACK,
                    category="signal",
                    sender=activation.sender,
                    receiver=activation.process,
                    latency_ps=self.kernel.now_ps - activation.sent_ps,
                    transport=activation.transport,
                    bytes=activation.bytes,
                    corrupt=1 if activation.corrupt else 0,
                )
        if pe_name is None:
            self._run_environment_step(activation)
            return
        runtime = self.pe_runtimes[pe_name]
        priority = self._priorities.get(activation.process)
        if priority is None:
            priority = self._priorities[activation.process] = (
                self.application.find_process(activation.process).priority()
            )
        runtime.enqueue(activation, priority)
        if self.tracer is not None:
            # ready-queue depth sample: its high-water mark feeds metrics
            self.tracer.counter(
                "ready", pe_track(pe_name), {"depth": len(runtime.ready)}
            )
        if not runtime.busy:
            self._start_next(runtime)

    def _trace_drop(self, activation: _Activation, reason: str) -> None:
        """Mirror a DROP log record as a trace instant (tracing only)."""
        self.tracer.instant(
            activation.describe(),
            SYSTEM_TRACK,
            category="drop",
            process=activation.process,
            reason=reason,
        )

    def _start_next(self, runtime: _PERuntime) -> None:
        """Pop ready activations until one fires a step or the queue drains."""
        while not runtime.busy:
            activation = runtime.pop()
            if activation is None:
                return
            executor = self.executors[activation.process]
            if executor.terminated:
                continue
            outcome, reason = self._execute(executor, activation)
            if outcome is None:
                self.dropped += 1
                self.writer.drop(
                    time_ps=self.kernel.now_ps,
                    process=activation.process,
                    signal=activation.describe(),
                    reason=reason or "no-transition",
                )
                if self.tracer is not None:
                    self._trace_drop(activation, reason or "no-transition")
                continue
            process_type = self._process_types.get(activation.process)
            if process_type is None:
                process_type = self._process_types[activation.process] = (
                    self.application.find_process(activation.process).process_type()
                )
            cost = runtime.cost_model.step_cost(
                process_type=process_type,
                statements=outcome.statements,
                guards_evaluated=outcome.guards_evaluated,
                sends=len(outcome.sends),
                context_switch=(
                    runtime.last_process is not None
                    and runtime.last_process != activation.process
                ),
            )
            cycles = cost.cycles + runtime.dispatch_overhead_cycles
            duration_ps = cost.duration_ps + cycles_to_ps(
                runtime.dispatch_overhead_cycles,
                runtime.cost_model.spec.frequency_hz,
            )
            if self.faults is not None:
                stalled_ps = self.faults.stall_duration_ps(
                    runtime.name, self.kernel.now_ps, duration_ps
                )
                if stalled_ps != duration_ps:
                    self.writer.fault(
                        time_ps=self.kernel.now_ps,
                        kind="pe-stall",
                        signal=activation.describe(),
                        source=runtime.name,
                        target=activation.process,
                    )
                    if self.tracer is not None:
                        self.tracer.instant(
                            "pe-stall",
                            pe_track(runtime.name),
                            category="fault",
                            process=activation.process,
                            extra_ps=stalled_ps - duration_ps,
                        )
                    duration_ps = stalled_ps
            runtime.busy = True
            runtime.last_process = activation.process
            started_ps = self.kernel.now_ps
            event = self.kernel.schedule(
                duration_ps,
                lambda r=runtime, a=activation, o=outcome, c=cycles, s=started_ps: (
                    self._complete_step(r, a, o, c, s)
                ),
            )
            runtime.active_step = (activation, outcome, cycles, started_ps, event)
            return

    def _execute(self, executor: ProcessExecutor, activation: _Activation):
        if activation.kind == "start":
            return executor.start(), None
        if activation.kind == "signal":
            return executor.consume_signal(activation.signal, activation.args)
        if activation.kind == "timer":
            self.timers.pop((activation.process, activation.timer), None)
            return executor.fire_timer(activation.timer)
        raise SimulationError(f"unknown activation kind {activation.kind!r}")

    def _complete_step(
        self,
        runtime: _PERuntime,
        activation: _Activation,
        outcome: StepOutcome,
        cycles: int,
        started_ps: int,
    ) -> None:
        runtime.busy = False
        runtime.active_step = None
        # accrue busy time at completion so it equals the sum of logged
        # step durations exactly (steps in flight at the horizon are not
        # logged and not counted)
        runtime.busy_ps += self.kernel.now_ps - started_ps
        self.writer.exec_step(
            time_ps=started_ps,
            process=activation.process,
            pe=runtime.name,
            cycles=cycles,
            duration_ps=self.kernel.now_ps - started_ps,
            from_state=outcome.from_state,
            to_state=outcome.to_state,
            trigger=activation.describe(),
        )
        if self.tracer is not None:
            self.tracer.span(
                activation.process,
                pe_track(runtime.name),
                start_ps=started_ps,
                duration_ps=self.kernel.now_ps - started_ps,
                category="exec",
                from_state=outcome.from_state,
                to_state=outcome.to_state,
                trigger=activation.describe(),
                cycles=cycles,
            )
        self._apply_outcome(activation.process, outcome)
        self._start_next(runtime)

    def _run_environment_step(self, activation: _Activation) -> None:
        """Environment processes execute instantly at zero cycle cost."""
        executor = self.executors[activation.process]
        if executor.terminated:
            return
        outcome, reason = self._execute(executor, activation)
        if outcome is None:
            self.dropped += 1
            self.writer.drop(
                time_ps=self.kernel.now_ps,
                process=activation.process,
                signal=activation.describe(),
                reason=reason or "no-transition",
            )
            if self.tracer is not None:
                self._trace_drop(activation, reason or "no-transition")
            return
        self.writer.exec_step(
            time_ps=self.kernel.now_ps,
            process=activation.process,
            pe=ENVIRONMENT_PE,
            cycles=0,
            duration_ps=0,
            from_state=outcome.from_state,
            to_state=outcome.to_state,
            trigger=activation.describe(),
        )
        self._apply_outcome(activation.process, outcome)

    # ------------------------------------------------------------------
    # outcome side effects: timers and sends
    # ------------------------------------------------------------------

    def _apply_outcome(self, process_name: str, outcome: StepOutcome) -> None:
        # timer operations replay in program order: a reset after a set
        # cancels it, a second set re-arms (replacing the first)
        for operation, timer_name, duration_us in outcome.timer_ops:
            key = (process_name, timer_name)
            previous = self.timers.pop(key, None)
            if previous is not None:
                self.kernel.cancel(previous)
            if operation == "set":
                activation = _Activation(
                    kind="timer", process=process_name, timer=timer_name
                )
                delay_ps = timer_duration_ps(duration_us)
                pe_name = self.pe_of_process.get(process_name)
                if pe_name is not None:
                    tick_us = self.pe_runtimes[pe_name].tick_period_us
                    if tick_us > 0:
                        # RTOS tick bounds timer resolution: round up
                        tick_ps = timer_duration_ps(tick_us)
                        delay_ps = -(-delay_ps // tick_ps) * tick_ps
                self.timers[key] = self.kernel.schedule(
                    delay_ps,
                    lambda a=activation: self._deliver(a),
                )
        for intent in outcome.sends:
            self._dispatch_send(process_name, intent)

    def _dispatch_send(self, sender: str, intent: SendIntent) -> None:
        key = (sender, intent.signal, intent.via)
        wiring = self._sends.get(key)
        if wiring is None:
            receiver, _port = self.application.route(*key)
            wiring = self._sends[key] = (
                receiver,
                self.application.find_signal(intent.signal).size_bytes(),
                self.pe_of_process[sender],
                self.pe_of_process[receiver],
            )
        receiver, size, sender_pe, receiver_pe = wiring
        if self.tracer is not None:
            self.tracer.instant(
                intent.signal,
                SYSTEM_TRACK,
                category="dispatch",
                sender=sender,
                receiver=receiver,
            )
        deliveries = 1
        if self.faults is not None:
            fault = self.faults.apply_dispatch_fault(
                intent.signal, intent.args, sender, receiver, self.kernel.now_ps
            )
            if fault is not None:
                self.writer.fault(
                    time_ps=self.kernel.now_ps,
                    kind=fault,
                    signal=intent.signal,
                    source=sender,
                    target=receiver,
                )
                if self.tracer is not None:
                    self.tracer.instant(
                        fault,
                        SYSTEM_TRACK,
                        category="fault",
                        signal=intent.signal,
                        source=sender,
                        target=receiver,
                    )
                if fault == "signal-drop":
                    return  # the signal is lost before any transport
                deliveries = 2  # signal-dup: delivered twice, independently
        for _ in range(deliveries):
            activation = _Activation(
                kind="signal",
                process=receiver,
                signal=intent.signal,
                args=intent.args,
                sender=sender,
                sent_ps=self.kernel.now_ps,
                bytes=size,
            )
            self._transport(activation, sender_pe, receiver_pe)

    def _transport(
        self,
        activation: _Activation,
        sender_pe: Optional[str],
        receiver_pe: Optional[str],
    ) -> None:
        if sender_pe is None or receiver_pe is None:
            # Environment boundary: no platform transport involved.
            activation.transport = TRANSPORT_ENV
            self._schedule_deliver(0, activation)
        elif sender_pe == receiver_pe:
            activation.transport = TRANSPORT_LOCAL
            self._schedule_deliver(
                self._receive_delay_ps(receiver_pe), activation
            )
        else:
            # Bus transport pays the wire latency plus the same receive
            # cost a local delivery pays (wrapper -> CPU hand-off).
            activation.transport = TRANSPORT_BUS
            on_fault = None
            if self.faults is not None:
                on_fault = (
                    lambda kind, _latency, args, a=activation, pe=receiver_pe: (
                        self._bus_fault(kind, args, a, pe)
                    )
                )
            self.bus.transfer(
                sender_pe,
                receiver_pe,
                activation.bytes,
                lambda _latency, a=activation, pe=receiver_pe: (
                    self._schedule_deliver(self._receive_delay_ps(pe), a)
                ),
                signal=activation.signal,
                args=activation.args,
                on_fault=on_fault,
                # snapshot description: enough to rebuild both callbacks
                payload={
                    "activation": activation.to_dict(),
                    "receiver_pe": receiver_pe,
                },
            )

    def _bus_fault(
        self,
        kind: str,
        args: Tuple[int, ...],
        activation: _Activation,
        receiver_pe: str,
    ) -> None:
        """A bus transfer resolved with an injected fault (at delivery time)."""
        self.writer.fault(
            time_ps=self.kernel.now_ps,
            kind=kind,
            signal=activation.signal,
            source=activation.sender,
            target=activation.process,
        )
        if self.tracer is not None:
            self.tracer.instant(
                kind,
                SYSTEM_TRACK,
                category="fault",
                signal=activation.signal,
                source=activation.sender,
                target=activation.process,
            )
        if kind == "bus-drop":
            return  # the frame is gone; only an ARQ timeout can notice
        # bus-corrupt: the frame arrives with a flipped payload bit — the
        # receiver's CRC check is responsible for catching it
        activation.args = tuple(args)
        activation.corrupt = True
        self._schedule_deliver(self._receive_delay_ps(receiver_pe), activation)

    def _receive_delay_ps(self, pe_name: str) -> int:
        delay = self._receive_delays.get(pe_name)
        if delay is None:
            cost_model = self.pe_runtimes[pe_name].cost_model
            delay = self._receive_delays[pe_name] = cycles_to_ps(
                cost_model.receive_cost_cycles(), cost_model.spec.frequency_hz
            )
        return delay

    # ------------------------------------------------------------------
    # checkpoint/restore protocol
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """The full simulation state as a JSON-safe dict.

        Callable only at a quiescent instant (between kernel dispatches —
        the :attr:`Kernel.after_event` hook, which is where the checkpoint
        subsystem calls it from).  Pending kernel events are not serialized
        as callbacks; each owner records what its events would do and
        :meth:`load_state_dict` re-materializes them with their original
        sequence numbers, so a resumed run replays byte-identically.
        """
        runtimes = {}
        for name in sorted(self.pe_runtimes):
            runtime = self.pe_runtimes[name]
            active = None
            if runtime.active_step is not None:
                activation, outcome, cycles, started_ps, event = (
                    runtime.active_step
                )
                active = {
                    "activation": activation.to_dict(),
                    "outcome": outcome.to_dict(),
                    "cycles": cycles,
                    "started_ps": started_ps,
                    "time_ps": event[EV_TIME],
                    "sequence": event[EV_SEQ],
                }
            runtimes[name] = {
                "ready": [
                    [seq, priority, activation.to_dict()]
                    for seq, priority, activation in runtime.ready
                ],
                "busy": runtime.busy,
                "busy_ps": runtime.busy_ps,
                "last_process": runtime.last_process,
                "seq": runtime._seq,
                "active_step": active,
            }
        return {
            "kernel": self.kernel.state_dict(),
            "dropped": self.dropped,
            "executors": {
                name: self.executors[name].state_dict()
                for name in sorted(self.executors)
            },
            "runtimes": runtimes,
            "timers": [
                {
                    "process": process,
                    "timer": timer,
                    "time_ps": event[EV_TIME],
                    "sequence": event[EV_SEQ],
                }
                for (process, timer), event in sorted(self.timers.items())
                if event_pending(event)
            ],
            "deliveries": [
                {
                    "sequence": sequence,
                    "time_ps": event[EV_TIME],
                    "activation": activation.to_dict(),
                }
                for sequence, (activation, event) in sorted(
                    self._pending_deliveries.items()
                )
                if event_pending(event)
            ],
            "bus": self.bus.state_dict(),
            "writer": self.writer.state_dict(),
            "faults": (
                self.faults.state_dict() if self.faults is not None else None
            ),
            "tracer": (
                self.tracer.state_dict() if self.tracer is not None else None
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot onto this freshly-constructed simulation.

        The simulation must have been built from the *same* application,
        platform, mapping and configuration (tracer on/off, fault seed) as
        the one that produced the snapshot; mismatches raise
        :class:`SimulationError`.  After restoring, call :meth:`run` with
        the original duration to continue the run."""
        if self._started:
            raise SimulationError(
                "load_state_dict needs a fresh simulation (already run)"
            )
        if (state["tracer"] is not None) != (self.tracer is not None):
            raise SimulationError(
                "snapshot/simulation tracer mismatch: both or neither must "
                "have tracing enabled"
            )
        if (state["faults"] is not None) != (self.faults is not None):
            raise SimulationError(
                "snapshot/simulation fault-plan mismatch: both or neither "
                "must have fault injection enabled"
            )
        self.kernel.load_state_dict(state["kernel"])
        self.dropped = int(state["dropped"])
        for name, executor_state in state["executors"].items():
            executor = self.executors.get(name)
            if executor is None:
                raise SimulationError(
                    f"snapshot references unknown process {name!r}"
                )
            executor.load_state_dict(executor_state)
        for name, runtime_state in state["runtimes"].items():
            runtime = self.pe_runtimes.get(name)
            if runtime is None:
                raise SimulationError(
                    f"snapshot references unknown processing element {name!r}"
                )
            runtime.ready = [
                (seq, priority, _Activation.from_dict(activation))
                for seq, priority, activation in runtime_state["ready"]
            ]
            runtime.busy = bool(runtime_state["busy"])
            runtime.busy_ps = int(runtime_state["busy_ps"])
            runtime.last_process = runtime_state["last_process"]
            runtime._seq = int(runtime_state["seq"])
            step = runtime_state["active_step"]
            if step is not None:
                activation = _Activation.from_dict(step["activation"])
                outcome = StepOutcome.from_dict(step["outcome"])
                cycles = int(step["cycles"])
                started_ps = int(step["started_ps"])
                event = self.kernel.restore_event(
                    int(step["time_ps"]),
                    int(step["sequence"]),
                    lambda r=runtime, a=activation, o=outcome, c=cycles, s=started_ps: (
                        self._complete_step(r, a, o, c, s)
                    ),
                )
                runtime.active_step = (
                    activation, outcome, cycles, started_ps, event,
                )
        for entry in state["timers"]:
            activation = _Activation(
                kind="timer", process=entry["process"], timer=entry["timer"]
            )
            event = self.kernel.restore_event(
                int(entry["time_ps"]),
                int(entry["sequence"]),
                lambda a=activation: self._deliver(a),
            )
            self.timers[(entry["process"], entry["timer"])] = event
        for entry in state["deliveries"]:
            activation = _Activation.from_dict(entry["activation"])
            sequence = int(entry["sequence"])
            event = self.kernel.restore_event(
                int(entry["time_ps"]),
                sequence,
                lambda a=activation, s=sequence: self._fire_delivery(a, s),
            )
            self._pending_deliveries[sequence] = (activation, event)
        self.bus.load_state_dict(state["bus"], self._resolve_bus_payload)
        self.writer.load_state_dict(state["writer"])
        if self.faults is not None:
            self.faults.load_state_dict(state["faults"])
        if self.tracer is not None:
            self.tracer.load_state_dict(state["tracer"])
        self._restored = True

    def _resolve_bus_payload(self, payload: dict) -> tuple:
        """Rebuild an in-flight transfer's callbacks from its payload."""
        activation = _Activation.from_dict(payload["activation"])
        receiver_pe = payload["receiver_pe"]
        on_complete = lambda _latency, a=activation, pe=receiver_pe: (
            self._schedule_deliver(self._receive_delay_ps(pe), a)
        )
        on_fault = lambda kind, _latency, args, a=activation, pe=receiver_pe: (
            self._bus_fault(kind, args, a, pe)
        )
        return on_complete, on_fault
