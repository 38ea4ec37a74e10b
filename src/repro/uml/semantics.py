"""The meaning of every action-language operator and builtin, in one table.

The simulator (through :mod:`repro.uml.compile`) and the static analyses
(:func:`repro.analysis.core.const_value`) both take operator meaning from
here, so a model folds statically to the value it computes when run.
Values are unbounded Python integers; truth values are the integers 0
and 1, and any non-zero integer counts as true.

* ``/`` and ``%`` truncate toward zero, as in C, and are computed with
  integer arithmetic only (exact at any magnitude).
* Comparisons, ``!``, ``&&`` and ``||`` yield 0 or 1.  ``&&`` and ``||``
  short-circuit: their right operand is evaluated only when the left one
  does not decide the result.
* ``min``, ``max``, ``abs`` and ``crc32`` are pure functions of their
  arguments.  ``rand16`` is a deterministic generator whose state lives in
  the calling :class:`~repro.uml.actions.ActionEnvironment`.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, NamedTuple, Tuple

from repro.errors import ActionRuntimeError

#: version of the meaning defined here.  Bump it with any change to what a
#: model computes (an operator, a builtin, the integer width), so that
#: results stored under the old meaning are never served again.
SEMANTICS_VERSION = 1

#: ``rand16`` state at the start of every run-to-completion step and guard
RAND16_SEED = 0x2F6E


def trunc_div(left: int, right: int) -> int:
    """C division: the quotient truncated toward zero."""
    if right == 0:
        raise ActionRuntimeError("division by zero")
    quotient = abs(left) // abs(right)
    return -quotient if (left < 0) != (right < 0) else quotient


def trunc_mod(left: int, right: int) -> int:
    """C remainder: ``left - right * (left / right)``; takes the sign of ``left``."""
    if right == 0:
        raise ActionRuntimeError("modulo by zero")
    remainder = abs(left) % abs(right)
    return -remainder if left < 0 else remainder


class Operator(NamedTuple):
    """One operator: its meaning and the Python spelling the compiler emits."""

    #: the result on already-evaluated integer operands
    apply: Callable[..., int]
    #: a Python operator with the same meaning on integers
    python: str
    #: the result is a truth value (0/1); Python's operator yields a bool
    truth: bool = False
    #: :attr:`python` agrees with :attr:`apply` only for a left operand
    #: >= 0 and a right operand > 0; elsewhere :attr:`apply` must be called
    natural_only: bool = False


#: unary operators
UNARY: Dict[str, Operator] = {
    "-": Operator(operator.neg, "-"),
    "~": Operator(operator.invert, "~"),
    "!": Operator(lambda value: 0 if value else 1, "not", truth=True),
}

#: binary operators; ``&&`` and ``||`` are in :data:`SHORT_CIRCUIT` too
BINARY: Dict[str, Operator] = {
    "+": Operator(operator.add, "+"),
    "-": Operator(operator.sub, "-"),
    "*": Operator(operator.mul, "*"),
    "/": Operator(trunc_div, "//", natural_only=True),
    "%": Operator(trunc_mod, "%", natural_only=True),
    "<<": Operator(operator.lshift, "<<"),
    ">>": Operator(operator.rshift, ">>"),
    "&": Operator(operator.and_, "&"),
    "|": Operator(operator.or_, "|"),
    "^": Operator(operator.xor, "^"),
    "==": Operator(lambda left, right: 1 if left == right else 0, "==", truth=True),
    "!=": Operator(lambda left, right: 1 if left != right else 0, "!=", truth=True),
    "<": Operator(lambda left, right: 1 if left < right else 0, "<", truth=True),
    "<=": Operator(lambda left, right: 1 if left <= right else 0, "<=", truth=True),
    ">": Operator(lambda left, right: 1 if left > right else 0, ">", truth=True),
    ">=": Operator(lambda left, right: 1 if left >= right else 0, ">=", truth=True),
    "&&": Operator(lambda left, right: 1 if left and right else 0, "and", truth=True),
    "||": Operator(lambda left, right: 1 if left or right else 0, "or", truth=True),
}

#: binary operators that evaluate their right operand only when needed
SHORT_CIRCUIT = ("&&", "||")


def _abs(args: List[int]) -> int:
    if len(args) != 1:
        raise ActionRuntimeError("abs() takes exactly one argument")
    return abs(args[0])


def _crc32(args: List[int]) -> int:
    if len(args) not in (1, 2):
        raise ActionRuntimeError("crc32() takes one or two arguments")
    # imported on first use: building the CRC table is import-time work
    # that only models calling crc32() should pay
    from repro.util.crc import crc32_of_int

    return crc32_of_int(args[0], args[1] if len(args) == 2 else 0)


#: builtins that are pure functions of their argument list
PURE_BUILTINS: Dict[str, Callable[[List[int]], int]] = {
    "min": min,
    "max": max,
    "abs": _abs,
    "crc32": _crc32,
}


def rand16(state: int) -> Tuple[int, int]:
    """One ``rand16()`` call: ``(next state, value)``, a 16-bit LCG step."""
    state = (state * 75 + 74) % 65537
    return state, state & 0xFFFF
