"""Compile action-language blocks and guards to Python functions.

The simulator runs every action block and guard many times, so each one is
lowered once to Python source and turned into a function with Python's
``compile()``; running a block is then one call.  A compiled function has
the signature ``fn(V, P, E)``: ``V`` is the variable dict (written in
place), ``P`` the trigger parameters (read-only), ``E`` the
:class:`~repro.uml.actions.ActionEnvironment` that receives sends, timer
operations and stateful builtin calls.  A name reads ``P`` first and ``V``
second.  A block's function returns its executed-statement count, the work
the cost model charges; a guard's returns the expression's value.

Operator meaning comes from :mod:`repro.uml.semantics`.  Errors surface
when the offending code is reached, exactly as an interpreter would raise
them: an undefined name, a write to a trigger parameter (after its value is
computed), division by zero, an unknown builtin, a negative timer duration
and the ``while`` bound all raise :class:`~repro.errors.ActionRuntimeError`,
and the writes made before the error stay in ``V``.

Compilation is lazy: a block is compiled on its first run, and its function
is cached on the model object that owns the code: a
:class:`~repro.uml.statemachine.Transition` for its guard and effect, a
:class:`~repro.uml.statemachine.State` for its entry and exit actions.
Blocks that never run are never compiled.  Cache entries are keyed on the
block object's identity, so assigning a new block to ``transition.effect``
compiles the new one on its next run.

Beneath the owner caches, one process-wide table maps lowered source text
to its function, so textually identical blocks share one ``compile()``
call: a process that builds the same model many times, such as a campaign
worker evaluating one candidate after another, compiles each distinct block
once.  A function depends only on its source and the constant namespace of
compiled code, so sharing it cannot change behaviour.  The table keeps at
most :data:`CODE_TABLE_BOUND` functions and drops the oldest first.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Sequence

from repro.errors import ActionRuntimeError
from repro.uml import semantics
from repro.uml.actions import (
    MAX_LOOP_ITERATIONS,
    ActionEnvironment,
    Assign,
    BinaryOp,
    BoolLiteral,
    Call,
    Conditional,
    Expr,
    If,
    IntLiteral,
    Name,
    ResetTimer,
    Send,
    SetTimer,
    Stmt,
    UnaryOp,
    While,
)

#: a compiled block or guard: ``fn(variables, parameters, environment)``
Compiled = Callable[[Dict[str, int], Dict[str, int], ActionEnvironment], int]

#: attribute of an owning model object that holds its compiled code
CACHE_ATTRIBUTE = "_compiled_actions"

#: the attributes of a State or Transition that hold action code
_CODE_ATTRIBUTES = ("guard", "effect", "entry", "exit")

_NO_CACHE: Dict[int, tuple] = {}

#: most functions the process-wide code table keeps
CODE_TABLE_BOUND = 1024

#: compiled functions by lowered source text, oldest first
_CODE_TABLE: "OrderedDict[str, Compiled]" = OrderedDict()


def execute(stmts: Sequence[Stmt], env: ActionEnvironment, owner=None) -> int:
    """Run a statement block in ``env``; returns the executed-statement count.

    The count is the work the simulator's cost model charges: one per
    statement executed, so an ``if`` counts one plus its taken branch, and
    a ``while`` one plus, per iteration, one and its body.  A ``while``
    stops with :class:`~repro.errors.ActionRuntimeError` after
    :data:`~repro.uml.actions.MAX_LOOP_ITERATIONS` iterations.

    With ``owner`` (the ``State`` or ``Transition`` holding the block) the
    compiled function is cached on it; without, it is built for this call.
    """
    return compiled(stmts, owner)(env.variables, env.parameters, env)


def evaluate(expr: Expr, env: ActionEnvironment, owner=None) -> int:
    """Evaluate an expression in ``env``; truth values are 0/1.

    ``owner`` caches the compiled expression, as in :func:`execute`.
    """
    return compiled(expr, owner)(env.variables, env.parameters, env)


def compiled(code, owner=None) -> Compiled:
    """The compiled function of a block or guard, built on first request.

    ``code`` is a statement list or an expression.  Its function is cached
    on ``owner`` under the identity of ``code``.  The cache keeps only the
    code ``owner`` holds now, so a replaced block's function is dropped
    when its successor is compiled.
    """
    if owner is None:
        return _build(code)
    cache = owner.__dict__.get(CACHE_ATTRIBUTE, _NO_CACHE)
    entry = cache.get(id(code))
    if entry is not None:
        # the entry holds ``code``, so no other object can have its id
        return entry[1]
    function = _build(code)
    current = [getattr(owner, name, None) for name in _CODE_ATTRIBUTES]
    cache = {
        key: entry
        for key, entry in cache.items()
        if any(entry[0] is held for held in current)
    }
    cache[id(code)] = (code, function)
    owner.__dict__[CACHE_ATTRIBUTE] = cache
    return function


# ---------------------------------------------------------------------------
# run-time helpers of compiled code
# ---------------------------------------------------------------------------


class _ParameterGuard:
    """Write access to ``V`` for a block that writes a name bound as a parameter.

    Writes to any other name pass through; a write to the parameter raises
    when it is reached, after its value has been computed.
    """

    __slots__ = ("variables", "parameters")

    def __init__(self, variables: Dict[str, int], parameters: Dict[str, int]) -> None:
        self.variables = variables
        self.parameters = parameters

    def __setitem__(self, name: str, value: int) -> None:
        if name in self.parameters:
            raise ActionRuntimeError(f"cannot assign to trigger parameter {name!r}")
        self.variables[name] = value


def _scope(variables, parameters, written) -> tuple:
    """``(R, W)`` of a call with parameters: names to read and ``V`` to write.

    ``R`` is a snapshot of the variables with the parameters laid over
    them; the compiled code writes to ``W`` and ``R`` alike.
    """
    names = {**variables, **parameters}
    if parameters.keys().isdisjoint(written):
        return names, variables
    return names, _ParameterGuard(variables, parameters)


def _undefined(error: KeyError, variables, parameters) -> None:
    """Turn the ``KeyError`` of reading an unknown name into the language's error."""
    name = error.args[0] if error.args else None
    if isinstance(name, str) and name not in variables and name not in parameters:
        raise ActionRuntimeError(f"undefined name {name!r}") from None
    raise error


def _raise(message: str, *operands: int) -> None:
    """Raise ``message``; ``operands`` are evaluated first, as they would be."""
    raise ActionRuntimeError(message)


def _negative_duration(duration: int) -> None:
    raise ActionRuntimeError(f"negative timer duration {duration}")


def _empty(variables, parameters, environment) -> int:
    """The compiled form of an empty block."""
    return 0


#: globals of every compiled function (no Python builtins)
_NAMESPACE = {
    "__builtins__": {},
    "KeyError": KeyError,
    "_scope": _scope,
    "_undefined": _undefined,
    "_raise": _raise,
    "_negative_duration": _negative_duration,
    "_LOOP": range(MAX_LOOP_ITERATIONS),
    **{f"_{name}": function for name, function in semantics.PURE_BUILTINS.items()},
}

#: the global through which compiled code calls each ``natural_only``
#: binary operator outside its natural range
_CALLED = {
    op: f"_op{index}"
    for index, (op, meaning) in enumerate(semantics.BINARY.items())
    if meaning.natural_only
}
_NAMESPACE.update({name: semantics.BINARY[op].apply for op, name in _CALLED.items()})


# ---------------------------------------------------------------------------
# lowering to Python source
# ---------------------------------------------------------------------------


class _Lowering:
    """Python source for the body of one function: a block or a guard.

    In the source, ``R`` maps the names in scope to their values and ``W``
    is where assignments go (see :func:`_scope`); ``n`` counts executed
    statements and ``t0``, ``t1``, ... are temporaries.
    """

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.uses_names = False
        self.written: List[str] = []
        self.temporaries = 0

    # -- expressions -------------------------------------------------------

    def value(self, expr: Expr) -> str:
        """A Python expression computing ``expr``'s integer value."""
        kind = type(expr)
        if kind is IntLiteral:
            return repr(expr.value) if expr.value >= 0 else f"({expr.value!r})"
        if kind is BoolLiteral:
            return "1" if expr.value else "0"
        if kind is Name:
            self.uses_names = True
            return f"R[{expr.identifier!r}]"
        if kind is UnaryOp:
            op = semantics.UNARY.get(expr.op)
            if op is None:
                return self.fail(f"unknown unary operator {expr.op!r}", expr.operand)
            if op.truth:
                return f"(1 if {self.test(expr)} else 0)"
            return f"({op.python}{self.value(expr.operand)})"
        if kind is BinaryOp:
            op = semantics.BINARY.get(expr.op)
            if op is None:
                return self.fail(
                    f"unknown binary operator {expr.op!r}", expr.left, expr.right
                )
            if op.truth:
                return f"(1 if {self.test(expr)} else 0)"
            if op.natural_only:
                return self.natural_only(expr, op)
            return f"({self.value(expr.left)} {op.python} {self.value(expr.right)})"
        if kind is Conditional:
            return (
                f"({self.value(expr.then_value)} if {self.test(expr.condition)}"
                f" else {self.value(expr.else_value)})"
            )
        if kind is Call:
            args = ", ".join(self.value(arg) for arg in expr.args)
            if expr.function in semantics.PURE_BUILTINS:
                return f"_{expr.function}([{args}])"
            # stateful or unknown: the environment decides, and may raise
            return f"E.call_builtin({expr.function!r}, [{args}])"
        return self.fail(f"cannot evaluate {expr!r}")

    def natural_only(self, expr: BinaryOp, op: semantics.Operator) -> str:
        """Python's operator on natural operands, the table's function elsewhere."""
        left = self.temporary()
        call = _CALLED[expr.op]
        if type(expr.right) is IntLiteral and expr.right.value > 0:
            right = repr(expr.right.value)
            check = f"({left} := {self.value(expr.left)}) >= 0"
        else:
            right = self.temporary()
            # & rather than ``and``: both operands are always evaluated
            check = (
                f"(({left} := {self.value(expr.left)}) >= 0)"
                f" & (({right} := {self.value(expr.right)}) > 0)"
            )
        return f"({left} {op.python} {right} if {check} else {call}({left}, {right}))"

    def test(self, expr: Expr) -> str:
        """A Python expression with ``expr``'s truth (its value may not be 0/1)."""
        kind = type(expr)
        if kind is UnaryOp:
            op = semantics.UNARY.get(expr.op)
            if op is not None and op.truth:
                return f"({op.python} {self.test(expr.operand)})"
        if kind is BinaryOp:
            op = semantics.BINARY.get(expr.op)
            if op is not None and op.truth:
                operand = self.test if expr.op in semantics.SHORT_CIRCUIT else self.value
                return f"({operand(expr.left)} {op.python} {operand(expr.right)})"
        if kind is BoolLiteral:
            return "True" if expr.value else "False"
        return self.value(expr)

    def fail(self, message: str, *operands: Expr) -> str:
        """An expression that evaluates ``operands`` and then raises ``message``."""
        args = "".join(f", {self.value(operand)}" for operand in operands)
        return f"_raise({message!r}{args})"

    def temporary(self) -> str:
        """A fresh temporary name."""
        self.temporaries += 1
        return f"t{self.temporaries - 1}"

    # -- statements ----------------------------------------------------------

    def statement(self, stmt: Stmt, depth: int) -> None:
        """Emit one statement at indentation ``depth``."""
        kind = type(stmt)
        if kind is Assign:
            self.uses_names = True
            if stmt.target not in self.written:
                self.written.append(stmt.target)
            # the value is computed first, then W (which may refuse a
            # parameter) and R are assigned, in that order
            target = repr(stmt.target)
            self.emit(depth, f"W[{target}] = R[{target}] = {self.value(stmt.value)}")
        elif kind is Send:
            args = ", ".join(self.value(arg) for arg in stmt.args)
            self.emit(depth, f"E.send({stmt.signal!r}, [{args}], {stmt.via!r})")
        elif kind is If:
            self.emit(depth, f"if {self.test(stmt.condition)}:")
            self.branch(stmt.then_body, depth + 1)
            if stmt.else_body:
                self.emit(depth, "else:")
                self.branch(stmt.else_body, depth + 1)
        elif kind is While:
            # the range bounds the iterations; a loop that used them all
            # tests its condition once more and fails if it still holds
            self.emit(depth, "for _ in _LOOP:")
            self.emit(depth + 1, f"if not {self.test(stmt.condition)}: break")
            self.emit(depth + 1, f"n += {1 + len(stmt.body)}")
            for inner in stmt.body:
                self.statement(inner, depth + 1)
            self.emit(depth, "else:")
            bound = f"while loop exceeded {MAX_LOOP_ITERATIONS} iterations"
            self.emit(depth + 1, f"if {self.test(stmt.condition)}: _raise({bound!r})")
        elif kind is SetTimer:
            duration = self.temporary()
            self.emit(depth, f"{duration} = {self.value(stmt.duration)}")
            self.emit(depth, f"if {duration} < 0: _negative_duration({duration})")
            self.emit(depth, f"E.set_timer({stmt.timer!r}, {duration})")
        elif kind is ResetTimer:
            self.emit(depth, f"E.reset_timer({stmt.timer!r})")
        else:
            self.emit(depth, self.fail(f"cannot execute {stmt!r}"))

    def branch(self, stmts: Sequence[Stmt], depth: int) -> None:
        """Emit an ``if`` branch; its own statements are counted on entry."""
        if not stmts:
            self.emit(depth, "pass")
            return
        self.emit(depth, f"n += {len(stmts)}")
        for stmt in stmts:
            self.statement(stmt, depth)

    def emit(self, depth: int, line: str) -> None:
        """Append ``line`` at indentation ``depth``."""
        self.lines.append("    " * depth + line)


def _lower(name: str, code) -> str:
    """The source of ``def name(V, P, E)`` for a block (a list) or a guard."""
    lowering = _Lowering()
    if isinstance(code, Expr):
        lowering.emit(1, f"return {lowering.value(code)}")
    elif any(type(stmt) in (If, While) for stmt in code):
        lowering.emit(1, f"n = {len(code)}")
        for stmt in code:
            lowering.statement(stmt, 1)
        lowering.emit(1, "return n")
    else:
        # straight-line code: the count is a constant
        for stmt in code:
            lowering.statement(stmt, 1)
        lowering.emit(1, f"return {len(code)}")
    body = lowering.lines
    if lowering.uses_names:
        written = "".join(f"{target!r}, " for target in lowering.written)
        body = (
            ["    R = W = V", f"    if P: R, W = _scope(V, P, ({written}))", "    try:"]
            + ["    " + line for line in body]
            + ["    except KeyError as error:", "        _undefined(error, V, P)"]
        )
    return "\n".join([f"def {name}(V, P, E):"] + body)


def _build(code) -> Compiled:
    """The function of one block or guard: from the code table, else compiled."""
    if not isinstance(code, Expr) and not code:
        return _empty
    source = _lower("_compiled", code)
    function = _CODE_TABLE.get(source)
    if function is None:
        namespace = dict(_NAMESPACE)
        exec(compile(source, "<action language>", "exec"), namespace)
        function = namespace["_compiled"]
        _CODE_TABLE[source] = function
        # each step is atomic, so threads that compile at once only trim
        # the table to its bound again
        while len(_CODE_TABLE) > CODE_TABLE_BOUND:
            try:
                _CODE_TABLE.popitem(last=False)
            except KeyError:
                break
    return function
