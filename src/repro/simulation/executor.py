"""EFSM execution: run-to-completion steps over the state machine model.

The executor is deliberately time-free: it computes *what happens* (state
changes, statements executed, signals produced, timers armed) and leaves
*when and how long* to the system simulator's cost model.  This split lets
the same executor serve the full-platform simulation, the workstation
reference run, and direct unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.observability.tracer import Tracer, efsm_track
from repro.uml.actions import ActionEnvironment
from repro.uml.compile import evaluate, execute
from repro.uml.semantics import RAND16_SEED
from repro.uml.statemachine import (
    CompletionTrigger,
    SignalTrigger,
    State,
    StateMachine,
    TimerTrigger,
    Transition,
)

MAX_COMPLETION_CHAIN = 100


def _trigger_name(trigger) -> Optional[str]:
    """The signal or timer a trigger waits for (None for completion)."""
    if isinstance(trigger, SignalTrigger):
        return trigger.signal_name
    if isinstance(trigger, TimerTrigger):
        return trigger.timer_name
    return None


def _run(block, environment, owner) -> int:
    """Execute an action block; an empty one costs no compiled call."""
    if not block:
        return 0
    return execute(block, environment, owner)


@dataclass
class SendIntent:
    """A signal produced during a step, before routing."""

    signal: str
    args: Tuple[int, ...]
    via: Optional[str]

    def to_dict(self) -> dict:
        """A JSON-safe encoding (tuples become lists)."""
        return {"signal": self.signal, "args": list(self.args), "via": self.via}

    @classmethod
    def from_dict(cls, data: dict) -> "SendIntent":
        """Rebuild from :meth:`to_dict` output (restores the args tuple)."""
        return cls(
            signal=data["signal"], args=tuple(data["args"]), via=data["via"]
        )


@dataclass
class StepOutcome:
    """Everything a run-to-completion step did."""

    fired: bool = False
    from_state: str = ""
    to_state: str = ""
    trigger: str = ""
    statements: int = 0
    guards_evaluated: int = 0
    sends: List[SendIntent] = field(default_factory=list)
    timers_set: List[Tuple[str, int]] = field(default_factory=list)
    timers_reset: List[str] = field(default_factory=list)
    timer_ops: List[Tuple[str, str, int]] = field(default_factory=list)
    reached_final: bool = False

    def to_dict(self) -> dict:
        """A JSON-safe encoding for checkpoints of in-flight steps."""
        return {
            "fired": self.fired,
            "from_state": self.from_state,
            "to_state": self.to_state,
            "trigger": self.trigger,
            "statements": self.statements,
            "guards_evaluated": self.guards_evaluated,
            "sends": [intent.to_dict() for intent in self.sends],
            "timers_set": [list(item) for item in self.timers_set],
            "timers_reset": list(self.timers_reset),
            "timer_ops": [list(item) for item in self.timer_ops],
            "reached_final": self.reached_final,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StepOutcome":
        """Rebuild from :meth:`to_dict` output (restores inner tuples)."""
        return cls(
            fired=data["fired"],
            from_state=data["from_state"],
            to_state=data["to_state"],
            trigger=data["trigger"],
            statements=data["statements"],
            guards_evaluated=data["guards_evaluated"],
            sends=[SendIntent.from_dict(item) for item in data["sends"]],
            timers_set=[tuple(item) for item in data["timers_set"]],
            timers_reset=list(data["timers_reset"]),
            timer_ops=[tuple(item) for item in data["timer_ops"]],
            reached_final=data["reached_final"],
        )


class _StepEnvironment(ActionEnvironment):
    """Binds a process's variables; collects sends and timer operations."""

    def __init__(self, variables: Dict[str, int]) -> None:
        super().__init__()
        self.variables = variables  # shared reference: writes persist

    def begin_guard(self, params: Dict[str, int]) -> None:
        """Start a guard evaluation: bind ``params``, restart ``rand16``."""
        self.parameters = params
        self._rand_state = RAND16_SEED


class ProcessExecutor:
    """Runtime state of one application process (one EFSM instance).

    With a :class:`~repro.observability.tracer.Tracer` installed, every
    fired transition emits an instant event on the process's ``efsm``
    track (timestamped by the tracer's bound clock); ``tracer=None`` adds
    no work to any step.
    """

    def __init__(
        self,
        name: str,
        machine: StateMachine,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if machine.initial_state is None:
            raise SimulationError(
                f"machine {machine.name!r} of process {name!r} has no initial state"
            )
        self.name = name
        self.machine = machine
        self.tracer = tracer
        self.variables: Dict[str, int] = dict(machine.variables)
        self.current: Optional[State] = None
        self.terminated = False
        # guards only read: every evaluation reuses this one environment
        self._guard_environment = _StepEnvironment(self.variables)
        # (active leaf, trigger class, signal or timer name) -> the
        # transitions that may fire, in selection order; filled on first
        # use, so a model edited between two simulations is read afresh
        self._candidates: Dict[tuple, Tuple[Transition, ...]] = {}

    # ------------------------------------------------------------------
    # steps
    # ------------------------------------------------------------------

    def start(self) -> StepOutcome:
        """Enter the initial state (entry actions + completion chasing).

        A composite initial state is entered hierarchically: its entry
        actions run, then the initial-substate chain's, innermost last.
        """
        if self.current is not None:
            raise SimulationError(f"process {self.name!r} already started")
        outcome = StepOutcome(fired=True, trigger="start")
        environment = _StepEnvironment(self.variables)
        initial = self.machine.initial_state
        outcome.from_state = initial.name
        outcome.statements += _run(initial.entry, environment, initial)
        node = initial
        while node.initial_substate is not None:
            node = node.initial_substate
            outcome.statements += _run(node.entry, environment, node)
        self.current = node
        self._chase_completions(outcome, environment)
        outcome.to_state = self.current.name
        self._collect(outcome, environment)
        self._trace_step(outcome)
        return outcome

    def consume_signal(
        self, signal_name: str, args: Sequence[int]
    ) -> Tuple[Optional[StepOutcome], Optional[str]]:
        """Consume one signal; returns (outcome, None) or (None, drop reason).

        Transition lookup is hierarchical: the active leaf state is searched
        first, then its enclosing composite states (innermost first).
        """
        self._require_running()
        guards = 0
        candidates = self._candidates_for(SignalTrigger, signal_name)
        for transition in candidates:
            params = self._bind_parameters(transition.trigger, args)
            if transition.guard is not None:
                guards += 1
                if not self._guard_holds(transition, params):
                    continue
            outcome = self._fire(transition, params, signal_name)
            outcome.guards_evaluated += guards
            return outcome, None
        return None, "guards-false" if candidates else "no-transition"

    def fire_timer(self, timer_name: str) -> Tuple[Optional[StepOutcome], Optional[str]]:
        """Handle a timer expiry; returns (outcome, None) or (None, reason)."""
        self._require_running()
        guards = 0
        for transition in self._candidates_for(TimerTrigger, timer_name):
            if transition.guard is not None:
                guards += 1
                if not self._guard_holds(transition, {}):
                    continue
            outcome = self._fire(transition, {}, f"timer:{timer_name}")
            outcome.guards_evaluated += guards
            return outcome, None
        return None, "no-transition"

    # ------------------------------------------------------------------
    # checkpoint/restore protocol
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """The EFSM's run-time state: active state, variables, termination."""
        return {
            "current": self.current.name if self.current is not None else None,
            "variables": dict(self.variables),
            "terminated": self.terminated,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto this (fresh) executor."""
        name = state["current"]
        if name is None:
            self.current = None
        else:
            found = self.machine.find_state(name)
            if found is None:
                raise SimulationError(
                    f"cannot restore process {self.name!r}: machine "
                    f"{self.machine.name!r} has no state {name!r}"
                )
            self.current = found
        self.variables.clear()
        self.variables.update(state["variables"])
        self.terminated = bool(state["terminated"])

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _require_running(self) -> None:
        if self.current is None:
            raise SimulationError(f"process {self.name!r} was never started")
        if self.terminated:
            raise SimulationError(f"process {self.name!r} has terminated")

    def _candidates_for(
        self, kind: type, name: Optional[str]
    ) -> Tuple[Transition, ...]:
        """Transitions with a ``kind`` trigger on ``name`` available in the
        active leaf, in :meth:`StateMachine.effective_transitions` order."""
        key = (self.current, kind, name)
        candidates = self._candidates.get(key)
        if candidates is None:
            candidates = self._candidates[key] = tuple(
                transition
                for transition in self.machine.effective_transitions(self.current)
                if isinstance(transition.trigger, kind)
                and _trigger_name(transition.trigger) == name
            )
        return candidates

    def _bind_parameters(
        self, trigger: SignalTrigger, args: Sequence[int]
    ) -> Dict[str, int]:
        names = trigger.parameter_names
        if len(args) < len(names):
            raise SimulationError(
                f"signal {trigger.signal_name!r} delivered {len(args)} argument(s) "
                f"but process {self.name!r} binds {len(names)}"
            )
        return dict(zip(names, args))

    def _guard_holds(self, transition: Transition, params: Dict[str, int]) -> bool:
        environment = self._guard_environment
        environment.begin_guard(params)
        return bool(evaluate(transition.guard, environment, transition))

    def _fire(
        self, transition: Transition, params: Dict[str, int], trigger_desc: str
    ) -> StepOutcome:
        outcome = StepOutcome(
            fired=True,
            from_state=self.current.name,
            trigger=trigger_desc,
        )
        environment = _StepEnvironment(self.variables)
        environment.parameters = params
        if transition.internal:
            # Internal transition: effect only, no exit/entry, stay in state.
            outcome.statements += _run(transition.effect, environment, transition)
        else:
            self._take(transition, outcome, environment)
            environment.parameters = {}
            if self.terminated:
                pass
            else:
                self._chase_completions(outcome, environment)
        outcome.to_state = self.current.name
        self._collect(outcome, environment)
        self._trace_step(outcome)
        return outcome

    def _take(
        self, transition: Transition, outcome: StepOutcome, environment
    ) -> None:
        """Perform a non-internal transition: hierarchical exit, effect,
        hierarchical entry, initial-substate descent."""
        target = transition.target
        lca = self._least_common_ancestor(transition.source, target)
        # exit from the active leaf upward to (exclusive) the LCA
        node = self.current
        while node is not None and node is not lca:
            outcome.statements += _run(node.exit, environment, node)
            node = node.parent
        outcome.statements += _run(transition.effect, environment, transition)
        # enter from below the LCA down to the target
        for state in target.path_from_root():
            if lca is not None and (state is lca or not lca.contains(state)):
                continue  # the LCA and anything above it were never exited
            outcome.statements += _run(state.entry, environment, state)
        # ... and descend the initial-substate chain
        node = target
        while node.initial_substate is not None:
            node = node.initial_substate
            outcome.statements += _run(node.entry, environment, node)
        self.current = node
        if self.current.is_final and self.current.parent is None:
            self.terminated = True

    @staticmethod
    def _least_common_ancestor(source, target):
        """Innermost state containing both ends (None = machine root)."""
        source_chain = set(id(s) for s in source.ancestors())
        node = target.parent
        while node is not None:
            if id(node) in source_chain:
                return node
            node = node.parent
        return None

    def _chase_completions(
        self, outcome: StepOutcome, environment: _StepEnvironment
    ) -> None:
        """Follow enabled completion transitions until none fires.

        Completion transitions of the active leaf are considered first,
        then those of its enclosing composite states.
        """
        environment.parameters = {}
        for _ in range(MAX_COMPLETION_CHAIN):
            for transition in self._candidates_for(CompletionTrigger, None):
                if transition.guard is not None:
                    outcome.guards_evaluated += 1
                    if not self._guard_holds(transition, {}):
                        continue
                self._take(transition, outcome, environment)
                if self.terminated:
                    return
                break
            else:
                return
        raise SimulationError(
            f"process {self.name!r} chained more than {MAX_COMPLETION_CHAIN} "
            "completion transitions (livelock in the model?)"
        )

    def _trace_step(self, outcome: StepOutcome) -> None:
        """Emit the fired transition as an instant on the ``efsm`` track."""
        if self.tracer is None:
            return
        self.tracer.instant(
            outcome.trigger or "step",
            efsm_track(self.name),
            category="efsm",
            from_state=outcome.from_state,
            to_state=outcome.to_state,
            statements=outcome.statements,
            sends=len(outcome.sends),
        )

    def _collect(self, outcome: StepOutcome, environment: _StepEnvironment) -> None:
        outcome.sends.extend(
            SendIntent(signal, tuple(args), via)
            for signal, args, via in environment.sent
        )
        outcome.timers_set.extend(environment.timers_set)
        outcome.timers_reset.extend(environment.timers_reset)
        outcome.timer_ops.extend(environment.timer_ops)
        outcome.reached_final = self.terminated
