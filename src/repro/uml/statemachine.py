"""State machines: the behaviour of functional application components.

The paper models behaviour as "asynchronous communicating Extended Finite
State Machines" (EFSM).  A :class:`StateMachine` owns states, transitions and
a set of integer variables.  Transitions fire on signal receptions or timer
expirations, optionally guarded, and run an effect written in the textual
action language.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import ModelError
from repro.uml.actions import Expr, Stmt
from repro.uml.action_lang import parse_actions, parse_expression
from repro.uml.element import NamedElement


class Trigger:
    """Abstract transition trigger."""

    def describe(self) -> str:
        """A short human-readable form of the trigger."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"


class SignalTrigger(Trigger):
    """Fires when a matching signal is consumed from the input queue.

    ``parameter_names`` binds the signal's arguments to read-only names
    visible in the transition guard and effect.
    """

    def __init__(self, signal_name: str, parameter_names: Sequence[str] = ()) -> None:
        self.signal_name = signal_name
        self.parameter_names = list(parameter_names)

    def describe(self) -> str:
        """``signal(param, ...)``."""
        if self.parameter_names:
            return f"{self.signal_name}({', '.join(self.parameter_names)})"
        return self.signal_name


class TimerTrigger(Trigger):
    """Fires when the named timer (armed via ``set_timer``) expires."""

    def __init__(self, timer_name: str) -> None:
        self.timer_name = timer_name

    def describe(self) -> str:
        """``timer <name>``."""
        return f"timer {self.timer_name}"


class CompletionTrigger(Trigger):
    """Fires immediately after the source state's entry actions complete."""

    def describe(self) -> str:
        """``completion``."""
        return "completion"


class State(NamedElement):
    """A state with optional entry/exit actions, possibly composite.

    A state becomes composite by owning substates (``parent`` back-links).
    Entering a composite state descends into its ``initial_substate``;
    signals unhandled by the active leaf bubble up through its ancestors
    (UML hierarchical state machine semantics).
    """

    def __init__(self, name: str, entry: Sequence[Stmt] = (), exit: Sequence[Stmt] = ()) -> None:
        super().__init__(name)
        self.entry: List[Stmt] = list(entry)
        self.exit: List[Stmt] = list(exit)
        self.is_final = False
        self.parent: Optional["State"] = None
        self.substates: List["State"] = []
        self.initial_substate: Optional["State"] = None

    @property
    def is_composite(self) -> bool:
        """Does this state own substates?"""
        return bool(self.substates)

    def ancestors(self) -> List["State"]:
        """Enclosing states, innermost first."""
        chain: List[State] = []
        node = self.parent
        while node is not None:
            chain.append(node)
            node = node.parent
        return chain

    def path_from_root(self) -> List["State"]:
        """Root-most enclosing state down to (and including) this state."""
        return list(reversed([self] + self.ancestors()))

    def contains(self, other: "State") -> bool:
        """True if ``other`` is this state or nested (transitively) in it."""
        node: Optional[State] = other
        while node is not None:
            if node is self:
                return True
            node = node.parent
        return False

    def enter_target(self) -> "State":
        """The leaf reached when this state is entered (initial descent)."""
        node: State = self
        while node.initial_substate is not None:
            node = node.initial_substate
        return node


class FinalState(State):
    """A state that terminates the machine when entered."""

    def __init__(self, name: str = "final") -> None:
        super().__init__(name)
        self.is_final = True


class Transition(NamedElement):
    """A guarded, triggered transition with an action-language effect."""

    def __init__(
        self,
        source: State,
        target: State,
        trigger: Optional[Trigger] = None,
        guard: Optional[Expr] = None,
        effect: Sequence[Stmt] = (),
        priority: int = 0,
        internal: bool = False,
    ) -> None:
        super().__init__()
        if internal and source is not target:
            raise ModelError(
                "internal transitions must have the same source and target "
                f"state, got {source.name!r} -> {target.name!r}"
            )
        self.source = source
        self.target = target
        self.trigger = trigger if trigger is not None else CompletionTrigger()
        self.guard = guard
        self.effect: List[Stmt] = list(effect)
        # Lower value = tried first among transitions sharing a trigger.
        self.priority = priority
        # Internal transitions run their effect without leaving the state:
        # no exit/entry actions execute (UML internal transition semantics).
        self.internal = internal

    def describe(self) -> str:
        """``source --trigger [guard]--> target``."""
        guard = f" [{self.guard.unparse()}]" if self.guard is not None else ""
        arrow = "--(internal)" if self.internal else "--"
        return (
            f"{self.source.name} {arrow}{self.trigger.describe()}{guard}--> "
            f"{self.target.name}"
        )

    def __repr__(self) -> str:
        return f"Transition({self.describe()})"


class StateMachine(NamedElement):
    """An EFSM: states, transitions, integer variables, and an initial state.

    The builder-style API (:meth:`state`, :meth:`transition`,
    :meth:`variable`) accepts action-language source strings and parses them
    eagerly, so syntax errors surface at model-construction time.
    """

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        self.context = None  # owning Class, set by Class.set_behavior
        self.states: List[State] = []
        self.transitions: List[Transition] = []
        self.variables: Dict[str, int] = {}
        self.initial_state: Optional[State] = None

    # -- construction ---------------------------------------------------------

    def variable(self, name: str, initial: int = 0) -> None:
        """Declare an EFSM variable with its initial value."""
        if name in self.variables:
            raise ModelError(f"variable {name!r} already declared in {self.name!r}")
        self.variables[name] = initial

    def state(
        self,
        name: str,
        entry: str = "",
        exit: str = "",
        initial: bool = False,
        parent=None,
    ) -> State:
        """Add a state; ``entry``/``exit`` are action-language source.

        With ``parent`` (a state or its name) the new state becomes a
        substate of that composite state; ``initial=True`` then marks it as
        the parent's initial substate instead of the machine's initial
        state.
        """
        if self.find_state(name) is not None:
            raise ModelError(f"state {name!r} already exists in {self.name!r}")
        new_state = State(name, parse_actions(entry), parse_actions(exit))
        self.own(new_state)
        self.states.append(new_state)
        if parent is not None:
            parent_state = self._resolve(parent)
            if parent_state.is_final:
                raise ModelError("final states cannot contain substates")
            new_state.parent = parent_state
            parent_state.substates.append(new_state)
            if initial:
                if parent_state.initial_substate is not None:
                    raise ModelError(
                        f"composite state {parent_state.name!r} already has an "
                        "initial substate"
                    )
                parent_state.initial_substate = new_state
        elif initial:
            if self.initial_state is not None:
                raise ModelError(f"machine {self.name!r} already has an initial state")
            self.initial_state = new_state
        return new_state

    def final_state(self, name: str = "final") -> FinalState:
        """Add a final state; entering it at the top level ends the machine."""
        final = FinalState(name)
        self.own(final)
        self.states.append(final)
        return final

    def transition(
        self,
        source,
        target,
        trigger: Optional[Trigger] = None,
        guard: str = "",
        effect: str = "",
        priority: int = 0,
        internal: bool = False,
    ) -> Transition:
        """Add a transition; ``source``/``target`` may be names or states."""
        source_state = self._resolve(source)
        target_state = self._resolve(target)
        guard_expr = parse_expression(guard) if guard else None
        new_transition = Transition(
            source_state,
            target_state,
            trigger=trigger,
            guard=guard_expr,
            effect=parse_actions(effect),
            priority=priority,
            internal=internal,
        )
        self.own(new_transition)
        self.transitions.append(new_transition)
        return new_transition

    def on_signal(
        self,
        source,
        target,
        signal: str,
        params: Sequence[str] = (),
        guard: str = "",
        effect: str = "",
        priority: int = 0,
        internal: bool = False,
    ) -> Transition:
        """Shorthand for a signal-triggered transition."""
        return self.transition(
            source,
            target,
            trigger=SignalTrigger(signal, params),
            guard=guard,
            effect=effect,
            priority=priority,
            internal=internal,
        )

    def on_timer(
        self,
        source,
        target,
        timer: str,
        guard: str = "",
        effect: str = "",
        priority: int = 0,
        internal: bool = False,
    ) -> Transition:
        """Shorthand for a timer-triggered transition."""
        return self.transition(
            source,
            target,
            trigger=TimerTrigger(timer),
            guard=guard,
            effect=effect,
            priority=priority,
            internal=internal,
        )

    def _resolve(self, state) -> State:
        if isinstance(state, State):
            if state not in self.states:
                raise ModelError(
                    f"state {state.name!r} does not belong to machine {self.name!r}"
                )
            return state
        found = self.find_state(state)
        if found is None:
            raise ModelError(f"no state named {state!r} in machine {self.name!r}")
        return found

    # -- queries ----------------------------------------------------------------

    def find_state(self, name: str) -> Optional[State]:
        """The state named ``name``, or ``None``."""
        for state in self.states:
            if state.name == name:
                return state
        return None

    def outgoing(self, state: State) -> List[Transition]:
        """Transitions leaving ``state``, in priority then declaration order."""
        candidates = [t for t in self.transitions if t.source is state]
        candidates.sort(key=lambda t: (t.priority, t.serial))
        return candidates

    def effective_transitions(self, leaf: State) -> List[Transition]:
        """Transitions available while ``leaf`` is the active state.

        The leaf's own transitions come first, then those of each enclosing
        state, innermost first; each group is in (priority, declaration)
        order.  This is the order in which the simulator tries transitions,
        and the generated C and the static analyses follow it.
        """
        available: List[Transition] = []
        for source in [leaf] + leaf.ancestors():
            available.extend(self.outgoing(source))
        return available

    def received_signal_names(self) -> List[str]:
        """All signal names the machine consumes (its input alphabet)."""
        names = {
            t.trigger.signal_name
            for t in self.transitions
            if isinstance(t.trigger, SignalTrigger)
        }
        return sorted(names)

    def timer_names(self) -> List[str]:
        """All timer names the machine's transitions trigger on, sorted."""
        names = {
            t.trigger.timer_name
            for t in self.transitions
            if isinstance(t.trigger, TimerTrigger)
        }
        return sorted(names)

    def sent_signal_names(self) -> List[str]:
        """All signal names the machine may emit (static over-approximation)."""
        from repro.uml.actions import sent_signal_names

        blocks: List[Stmt] = []
        for state in self.states:
            blocks.extend(state.entry)
            blocks.extend(state.exit)
        for transition in self.transitions:
            blocks.extend(transition.effect)
        return sent_signal_names(blocks)
