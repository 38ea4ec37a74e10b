"""AST and execution environment of the textual action language.

The paper models behaviour as "statechart diagrams combined with the UML 2.0
textual notation".  This module defines the small imperative language used in
transition effects, guards and state entry/exit actions:

* integer/boolean expressions with the usual operators and a conditional
  ``?:``
* assignments to EFSM variables
* ``send Signal(arg, ...) via port;`` statements
* ``if``/``else`` and (bounded) ``while``
* ``set_timer(name, expr);`` / ``reset_timer(name);``
* builtin calls: ``min``, ``max``, ``abs``, ``crc32``, ``rand16``

The same AST is compiled to Python functions for the simulator
(:mod:`repro.uml.compile`, with operator meaning from
:mod:`repro.uml.semantics`) and translated to C by the code generator
(:mod:`repro.codegen`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import ActionRuntimeError
from repro.uml import semantics

MAX_LOOP_ITERATIONS = 100_000


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Abstract expression node."""

    def unparse(self) -> str:
        """Action-language source for this expression (fully parenthesised)."""
        raise NotImplementedError

    def children(self) -> Iterable["Expr"]:
        """The direct subexpressions, left to right."""
        return ()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.unparse()})"

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.unparse() == other.unparse()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.unparse()))


class IntLiteral(Expr):
    """An integer constant."""

    def __init__(self, value: int) -> None:
        self.value = int(value)

    def unparse(self) -> str:
        """The decimal digits (with a sign when negative)."""
        return str(self.value)


class BoolLiteral(Expr):
    """``true`` or ``false``, which evaluate to 1 and 0."""

    def __init__(self, value: bool) -> None:
        self.value = bool(value)

    def unparse(self) -> str:
        """``true`` or ``false``."""
        return "true" if self.value else "false"


class Name(Expr):
    """A reference to an EFSM variable or a trigger parameter."""

    def __init__(self, identifier: str) -> None:
        self.identifier = identifier

    def unparse(self) -> str:
        """The name itself."""
        return self.identifier


class UnaryOp(Expr):
    """``-x``, ``!x`` or ``~x``; see :data:`repro.uml.semantics.UNARY`."""

    def __init__(self, op: str, operand: Expr) -> None:
        self.op = op
        self.operand = operand

    def children(self):
        """The operand."""
        return (self.operand,)

    def unparse(self) -> str:
        """``(op operand)``."""
        return f"({self.op}{self.operand.unparse()})"


class BinaryOp(Expr):
    """``left op right``; see :data:`repro.uml.semantics.BINARY`."""

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        self.op = op
        self.left = left
        self.right = right

    def children(self):
        """The left and right operands."""
        return (self.left, self.right)

    def unparse(self) -> str:
        """``(left op right)``."""
        return f"({self.left.unparse()} {self.op} {self.right.unparse()})"


class Conditional(Expr):
    """``condition ? then_value : else_value``."""

    def __init__(self, condition: Expr, then_value: Expr, else_value: Expr) -> None:
        self.condition = condition
        self.then_value = then_value
        self.else_value = else_value

    def children(self):
        """Condition, then-value and else-value."""
        return (self.condition, self.then_value, self.else_value)

    def unparse(self) -> str:
        """``(condition ? then_value : else_value)``."""
        return (
            f"({self.condition.unparse()} ? {self.then_value.unparse()}"
            f" : {self.else_value.unparse()})"
        )


class Call(Expr):
    """A builtin call; see :mod:`repro.uml.semantics` for the builtins."""

    def __init__(self, function: str, args: Sequence[Expr]) -> None:
        self.function = function
        self.args = list(args)

    def children(self):
        """The arguments."""
        return tuple(self.args)

    def unparse(self) -> str:
        """``function(arg, ...)``."""
        inner = ", ".join(arg.unparse() for arg in self.args)
        return f"{self.function}({inner})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    """Abstract statement node."""

    def unparse(self, indent: int = 0) -> str:
        """Action-language source, indented by ``indent`` levels."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.unparse().strip()})"

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.unparse() == other.unparse()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.unparse()))


def _pad(indent: int) -> str:
    return "    " * indent


class Assign(Stmt):
    """``target = value;`` — writes an EFSM variable."""

    def __init__(self, target: str, value: Expr) -> None:
        self.target = target
        self.value = value

    def unparse(self, indent: int = 0) -> str:
        """Source text, indented by ``indent`` levels."""
        return f"{_pad(indent)}{self.target} = {self.value.unparse()};"


class Send(Stmt):
    """``send Signal(arg, ...) via port;`` — port may be omitted."""

    def __init__(self, signal: str, args: Sequence[Expr], via: Optional[str] = None) -> None:
        self.signal = signal
        self.args = list(args)
        self.via = via

    def unparse(self, indent: int = 0) -> str:
        """Source text, indented by ``indent`` levels."""
        inner = ", ".join(arg.unparse() for arg in self.args)
        via = f" via {self.via}" if self.via else ""
        return f"{_pad(indent)}send {self.signal}({inner}){via};"


class If(Stmt):
    """``if (condition) { ... } else { ... }``."""

    def __init__(
        self,
        condition: Expr,
        then_body: Sequence[Stmt],
        else_body: Sequence[Stmt] = (),
    ) -> None:
        self.condition = condition
        self.then_body = list(then_body)
        self.else_body = list(else_body)

    def unparse(self, indent: int = 0) -> str:
        """Source text, indented by ``indent`` levels."""
        lines = [f"{_pad(indent)}if ({self.condition.unparse()}) {{"]
        lines += [stmt.unparse(indent + 1) for stmt in self.then_body]
        if self.else_body:
            lines.append(f"{_pad(indent)}}} else {{")
            lines += [stmt.unparse(indent + 1) for stmt in self.else_body]
        lines.append(f"{_pad(indent)}}}")
        return "\n".join(lines)


class While(Stmt):
    """``while (condition) { ... }``, bounded by :data:`MAX_LOOP_ITERATIONS`."""

    def __init__(self, condition: Expr, body: Sequence[Stmt]) -> None:
        self.condition = condition
        self.body = list(body)

    def unparse(self, indent: int = 0) -> str:
        """Source text, indented by ``indent`` levels."""
        lines = [f"{_pad(indent)}while ({self.condition.unparse()}) {{"]
        lines += [stmt.unparse(indent + 1) for stmt in self.body]
        lines.append(f"{_pad(indent)}}}")
        return "\n".join(lines)


class SetTimer(Stmt):
    """Arm a named timer to fire after ``duration`` ticks."""

    def __init__(self, timer: str, duration: Expr) -> None:
        self.timer = timer
        self.duration = duration

    def unparse(self, indent: int = 0) -> str:
        """Source text, indented by ``indent`` levels."""
        return f"{_pad(indent)}set_timer({self.timer}, {self.duration.unparse()});"


class ResetTimer(Stmt):
    """Disarm a named timer if it is pending."""

    def __init__(self, timer: str) -> None:
        self.timer = timer

    def unparse(self, indent: int = 0) -> str:
        """Source text, indented by ``indent`` levels."""
        return f"{_pad(indent)}reset_timer({self.timer});"


def unparse_block(stmts: Sequence[Stmt], indent: int = 0) -> str:
    """Render a statement list back to action-language source."""
    return "\n".join(stmt.unparse(indent) for stmt in stmts)


def walk_statements(stmts: Sequence[Stmt]):
    """Yield every statement in a block, recursing into if/while bodies."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, If):
            yield from walk_statements(stmt.then_body)
            yield from walk_statements(stmt.else_body)
        elif isinstance(stmt, While):
            yield from walk_statements(stmt.body)


def walk_expressions(stmts: Sequence[Stmt]):
    """Yield every expression appearing in a block (pre-order)."""

    def expand(expr: Expr):
        """``expr`` and its subexpressions, pre-order."""
        yield expr
        for child in expr.children():
            yield from expand(child)

    for stmt in walk_statements(stmts):
        if isinstance(stmt, Assign):
            yield from expand(stmt.value)
        elif isinstance(stmt, Send):
            for arg in stmt.args:
                yield from expand(arg)
        elif isinstance(stmt, If):
            yield from expand(stmt.condition)
        elif isinstance(stmt, While):
            yield from expand(stmt.condition)
        elif isinstance(stmt, SetTimer):
            yield from expand(stmt.duration)


def sent_signal_names(stmts: Sequence[Stmt]):
    """All signal names this block may send (static over-approximation)."""
    return sorted(
        {stmt.signal for stmt in walk_statements(stmts) if isinstance(stmt, Send)}
    )


# ---------------------------------------------------------------------------
# Execution environment
# ---------------------------------------------------------------------------


class ActionEnvironment:
    """What running action code needs from its host (the simulator or tests).

    ``variables`` is the EFSM variable store, written in place;
    ``parameters`` holds the trigger parameters, which names resolve to
    first and which cannot be assigned.  Subclasses override the hooks; the
    defaults record sends and timer operations, which is enough for unit
    testing action semantics without a simulator.  Code runs in an
    environment through :func:`repro.uml.compile.execute` and
    :func:`repro.uml.compile.evaluate`.
    """

    def __init__(self, variables: Optional[Dict[str, int]] = None) -> None:
        self.variables: Dict[str, int] = dict(variables or {})
        self.parameters: Dict[str, int] = {}
        self.sent: List[tuple] = []
        self.timers_set: List[tuple] = []
        self.timers_reset: List[str] = []
        # program-order log of timer operations: ("set", name, duration) or
        # ("reset", name, 0) — set/reset interleaving matters semantically
        self.timer_ops: List[tuple] = []
        self._rand_state = semantics.RAND16_SEED

    # -- effect hooks ----------------------------------------------------------

    def send(self, signal: str, args: List[int], via: Optional[str]) -> None:
        """A ``send`` statement ran: record the signal and its arguments."""
        self.sent.append((signal, tuple(args), via))

    def set_timer(self, timer: str, duration: int) -> None:
        """A ``set_timer`` statement ran with a non-negative duration."""
        self.timers_set.append((timer, duration))
        self.timer_ops.append(("set", timer, duration))

    def reset_timer(self, timer: str) -> None:
        """A ``reset_timer`` statement ran."""
        self.timers_reset.append(timer)
        self.timer_ops.append(("reset", timer, 0))

    # -- builtins ----------------------------------------------------------------

    def call_builtin(self, function: str, args: List[int]) -> int:
        """Call a builtin; ``rand16`` advances this environment's state.

        Compiled code calls the pure builtins of
        :data:`repro.uml.semantics.PURE_BUILTINS` directly and comes here
        for the others: ``rand16`` and names that are no builtin.
        """
        if function == "rand16":
            self._rand_state, value = semantics.rand16(self._rand_state)
            return value
        pure = semantics.PURE_BUILTINS.get(function)
        if pure is None:
            raise ActionRuntimeError(f"unknown builtin {function!r}")
        return pure(args)
