"""The action-language compiler against an independent oracle, plus edge cases.

``Oracle`` below is a deliberately naive tree walker written from the
language definition (docs/action_language.md), sharing no code with
``repro.uml.compile`` or ``repro.uml.semantics``: truncating division goes
through ``fractions.Fraction``.  Random programs from a seeded generator
must give the same values, variable writes, sends, timer operations,
statement counts and errors under both.
"""

import random
import sys
import threading
from collections import OrderedDict
from fractions import Fraction

import pytest

from repro.analysis.core import const_value
from repro.errors import ActionRuntimeError
from repro.cases.tutwlan import build_tutwlan_system
from repro.simulation import ProcessExecutor, SystemSimulation
from repro.uml import ActionEnvironment, evaluate, execute, parse_actions, parse_expression
from repro.uml.actions import (
    MAX_LOOP_ITERATIONS,
    Assign,
    BinaryOp,
    BoolLiteral,
    Call,
    Conditional,
    If,
    IntLiteral,
    Name,
    ResetTimer,
    Send,
    SetTimer,
    UnaryOp,
    While,
)
from repro.uml import compile as compile_module
from repro.uml.compile import CACHE_ATTRIBUTE, CODE_TABLE_BOUND, compiled
from repro.uml.statemachine import StateMachine
from repro.util.crc import crc32_of_int

# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


class OracleError(Exception):
    pass


class Oracle:
    """Runs an AST directly: the reference meaning of the language."""

    def __init__(self, variables, parameters):
        self.variables = dict(variables)
        self.parameters = dict(parameters)
        self.effects = []
        self.rand = 0x2F6E

    def value(self, e):
        if isinstance(e, IntLiteral):
            return e.value
        if isinstance(e, BoolLiteral):
            return int(e.value)
        if isinstance(e, Name):
            for scope in (self.parameters, self.variables):
                if e.identifier in scope:
                    return scope[e.identifier]
            raise OracleError(f"undefined name {e.identifier!r}")
        if isinstance(e, UnaryOp):
            v = self.value(e.operand)
            return {"-": -v, "~": -v - 1, "!": int(v == 0)}[e.op]
        if isinstance(e, Conditional):
            chosen = e.then_value if self.value(e.condition) != 0 else e.else_value
            return self.value(chosen)
        if isinstance(e, Call):
            args = [self.value(a) for a in e.args]
            return self.call(e.function, args)
        if e.op == "&&":
            return int(self.value(e.left) != 0 and self.value(e.right) != 0)
        if e.op == "||":
            return int(self.value(e.left) != 0 or self.value(e.right) != 0)
        a, b = self.value(e.left), self.value(e.right)
        if e.op in ("/", "%"):
            if b == 0:
                raise OracleError("division by zero" if e.op == "/" else "modulo by zero")
            quotient = int(Fraction(a, b))  # int() of a Fraction truncates
            return quotient if e.op == "/" else a - b * quotient
        table = {
            "+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
            "&": lambda: a & b, "|": lambda: a | b, "^": lambda: a ^ b,
            "<<": lambda: a << b, ">>": lambda: a >> b,
            "==": lambda: int(a == b), "!=": lambda: int(a != b),
            "<": lambda: int(a < b), "<=": lambda: int(a <= b),
            ">": lambda: int(a > b), ">=": lambda: int(a >= b),
        }
        return table[e.op]()

    def call(self, function, args):
        if function == "min":
            return min(args)
        if function == "max":
            return max(args)
        if function == "abs" and len(args) == 1:
            return abs(args[0])
        if function == "crc32" and len(args) in (1, 2):
            return crc32_of_int(*args)
        if function == "rand16" and not args:
            self.rand = (self.rand * 75 + 74) % 65537
            return self.rand & 0xFFFF
        raise OracleError(f"unknown builtin {function!r}")

    def run(self, stmts):
        count = 0
        for s in stmts:
            count += 1
            if isinstance(s, Assign):
                v = self.value(s.value)
                if s.target in self.parameters:
                    raise OracleError(f"cannot assign to trigger parameter {s.target!r}")
                self.variables[s.target] = v
            elif isinstance(s, Send):
                self.effects.append(("send", s.signal, tuple(self.value(a) for a in s.args), s.via))
            elif isinstance(s, If):
                taken = s.then_body if self.value(s.condition) != 0 else s.else_body
                count += self.run(taken)
            elif isinstance(s, While):
                iterations = 0
                while self.value(s.condition) != 0:
                    iterations += 1
                    if iterations > MAX_LOOP_ITERATIONS:
                        raise OracleError(
                            f"while loop exceeded {MAX_LOOP_ITERATIONS} iterations"
                        )
                    count += 1 + self.run(s.body)
            elif isinstance(s, SetTimer):
                d = self.value(s.duration)
                if d < 0:
                    raise OracleError(f"negative timer duration {d}")
                self.effects.append(("set", s.timer, d))
            elif isinstance(s, ResetTimer):
                self.effects.append(("reset", s.timer, 0))
        return count


# ---------------------------------------------------------------------------
# the random program generator
# ---------------------------------------------------------------------------

VARIABLES = ["a", "b", "c", "x"]
PARAMETERS = ["p", "q"]
BINARY = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
          "==", "!=", "<", "<=", ">", ">=", "&&", "||"]


def random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.35:
            return IntLiteral(rng.choice([0, 1, 2, 3, 7, 64, -1, -5, 2**60 + 1, -(2**61)]))
        if roll < 0.4:
            return BoolLiteral(rng.random() < 0.5)
        if roll < 0.97:
            return Name(rng.choice(VARIABLES + PARAMETERS))
        return Name("undefined_name")
    roll = rng.random()
    if roll < 0.55:
        op = rng.choice(BINARY)
        right = random_expr(rng, depth - 1)
        if op in ("<<", ">>"):
            right = IntLiteral(rng.randrange(0, 8))  # keep shifts small and valid
        return BinaryOp(op, random_expr(rng, depth - 1), right)
    if roll < 0.7:
        return UnaryOp(rng.choice(["-", "!", "~"]), random_expr(rng, depth - 1))
    if roll < 0.85:
        return Conditional(*(random_expr(rng, depth - 1) for _ in range(3)))
    function = rng.choice(["min", "max", "abs", "crc32", "rand16", "nosuch"])
    arity = {"min": 2, "max": 3, "abs": 1, "crc32": rng.choice([1, 2]), "rand16": 0, "nosuch": 1}
    return Call(function, [random_expr(rng, depth - 1) for _ in range(arity[function])])


def random_block(rng, depth, loop_counters):
    block = []
    for _ in range(rng.randrange(0, 4)):
        roll = rng.random()
        if roll < 0.45 or depth == 0:
            target = rng.choice(VARIABLES + ["p"] * (rng.random() < 0.1))
            block.append(Assign(target, random_expr(rng, 3)))
        elif roll < 0.6:
            args = [random_expr(rng, 2) for _ in range(rng.randrange(0, 3))]
            block.append(Send(rng.choice(["s1", "s2"]), args, rng.choice([None, "out"])))
        elif roll < 0.75:
            block.append(If(random_expr(rng, 3),
                            random_block(rng, depth - 1, loop_counters),
                            random_block(rng, depth - 1, loop_counters)))
        elif roll < 0.88:
            # a counted loop: its counter is written by nothing else
            counter = f"w{len(loop_counters)}"
            loop_counters.append(counter)
            body = random_block(rng, depth - 1, loop_counters)
            body.append(Assign(counter, BinaryOp("-", Name(counter), IntLiteral(1))))
            block.append(Assign(counter, IntLiteral(rng.randrange(0, 4))))
            block.append(While(BinaryOp(">", Name(counter), IntLiteral(0)), body))
        elif roll < 0.95:
            block.append(SetTimer(rng.choice(["t1", "t2"]), random_expr(rng, 2)))
        else:
            block.append(ResetTimer(rng.choice(["t1", "t2"])))
    return block


def scope(rng):
    variables = {name: rng.choice([0, 1, -1, -3, 9, 2**40]) for name in VARIABLES}
    parameters = {name: rng.choice([0, 2, -7]) for name in PARAMETERS if rng.random() < 0.85}
    if rng.random() < 0.2:
        variables["p"] = 5  # a variable the parameter p shadows
    return variables, parameters


def compiled_run(code, variables, parameters, run):
    env = ActionEnvironment(variables)
    env.parameters = dict(parameters)
    try:
        outcome = ("ok", run(code, env))
    except ActionRuntimeError as error:
        outcome = ("error", str(error))
    effects = [("send", s, a, v) for s, a, v in env.sent] + list(env.timer_ops)
    return outcome, env.variables, effects


def oracle_run(code, variables, parameters, run):
    oracle = Oracle(variables, parameters)
    try:
        outcome = ("ok", run(oracle, code))
    except OracleError as error:
        outcome = ("error", str(error))
    sends = [e for e in oracle.effects if e[0] == "send"]
    timers = [e for e in oracle.effects if e[0] != "send"]
    return outcome, oracle.variables, sends + timers


@pytest.mark.parametrize("seed", range(8))
def test_expressions_match_oracle(seed):
    rng = random.Random(seed)
    for _ in range(150):
        expr = random_expr(rng, 4)
        variables, parameters = scope(rng)
        got = compiled_run(expr, variables, parameters, evaluate)
        want = oracle_run(expr, variables, parameters, lambda o, e: o.value(e))
        assert got == want, expr


@pytest.mark.parametrize("seed", range(8))
def test_statements_match_oracle(seed):
    rng = random.Random(1000 + seed)
    for _ in range(60):
        block = random_block(rng, 2, [])
        variables, parameters = scope(rng)
        got = compiled_run(block, variables, parameters, execute)
        want = oracle_run(block, variables, parameters, lambda o, b: o.run(b))
        assert got == want, block


@pytest.mark.parametrize("seed", range(4))
def test_constant_folding_agrees_with_the_simulator(seed):
    """``const_value`` and compiled code share one operator table."""
    rng = random.Random(2000 + seed)
    folded = 0
    for _ in range(300):
        expr = random_expr(rng, 4)
        constant = const_value(expr)
        if constant is None:
            continue
        try:
            value = evaluate(expr, env_with(*scope(rng)))
        except ActionRuntimeError:
            continue  # folding may skip a raising side a run evaluates
        folded += 1
        assert constant == value, expr
    assert folded > 20


# ---------------------------------------------------------------------------
# targeted cases
# ---------------------------------------------------------------------------


def env_with(variables=None, parameters=None):
    env = ActionEnvironment(variables or {})
    env.parameters = dict(parameters or {})
    return env


def test_parameter_shadows_variable():
    env = env_with({"x": 1}, {"x": 99})
    assert evaluate(parse_expression("x + 1"), env) == 100
    execute(parse_actions("y = x;"), env)
    assert env.variables == {"x": 1, "y": 99}


def test_assigning_a_parameter_raises_after_its_value():
    env = env_with({}, {"p": 1})
    with pytest.raises(ActionRuntimeError, match="cannot assign to trigger parameter 'p'"):
        execute(parse_actions("a = 1; p = a + 1; b = 2;"), env)
    assert env.variables == {"a": 1}
    # the value is computed first: its own error wins
    with pytest.raises(ActionRuntimeError, match="division by zero"):
        execute(parse_actions("p = 1 / 0;"), env_with({}, {"p": 1}))


def test_writing_a_parameter_only_raises_when_reached():
    env = env_with({"x": 0, "p": 5}, {"p": 1})
    assert execute(parse_actions("if (x) { p = 2; } y = p;"), env) == 2
    # the parameter still shadows the variable it would have written
    assert env.variables == {"x": 0, "p": 5, "y": 1}


def test_while_bound_raises_and_keeps_partial_writes():
    env = env_with()
    with pytest.raises(ActionRuntimeError, match="while loop exceeded"):
        execute(parse_actions("x = 0; while (1) { x = x + 1; } y = 1;"), env)
    assert env.variables == {"x": MAX_LOOP_ITERATIONS}


def test_loop_that_stops_at_the_bound_is_fine():
    env = env_with()
    count = execute(
        parse_actions(f"i = 0; while (i < {MAX_LOOP_ITERATIONS}) {{ i = i + 1; }}"), env
    )
    assert env.variables["i"] == MAX_LOOP_ITERATIONS
    assert count == 2 + 2 * MAX_LOOP_ITERATIONS


@pytest.mark.parametrize("source, expected", [
    ("0 && (1 / 0)", 0),
    ("(1 / 0 == 0) && 0", None),
    ("1 || (1 % 0)", 1),
    ("0 || 3", 1),
    ("1 ? 4 : (1 / 0)", 4),
    ("0 ? (1 / 0) : 5", 5),
    ("!(0 && (1 / 0))", 1),
])
def test_short_circuit_skips_the_unevaluated_side(source, expected):
    expr = parse_expression(source)
    if expected is None:
        with pytest.raises(ActionRuntimeError, match="division by zero"):
            evaluate(expr, env_with())
    else:
        assert evaluate(expr, env_with()) == expected


def test_nested_if_and_while_statement_counts():
    source = """
        i = 0;
        while (i < 3) {
            if (i == 1) { a = 1; b = 2; } else { c = 3; }
            j = 0;
            while (j < 2) { j = j + 1; }
            i = i + 1;
        }
        if (0) { d = 1; }
    """
    # per outer iteration: 1 (test) + if (1 + 2 or 1) + j=0 (1)
    #   + inner while (1 + 2 * (1 + 1)) + i=i+1 (1)
    per_iteration = [1 + 2 + 1 + 5 + 1, 1 + 3 + 1 + 5 + 1, 1 + 2 + 1 + 5 + 1]
    expected = 1 + 1 + sum(per_iteration) + 1
    assert execute(parse_actions(source), env_with()) == expected
    oracle = Oracle({}, {})
    assert oracle.run(parse_actions(source)) == expected


def test_undefined_name_raises():
    with pytest.raises(ActionRuntimeError, match="undefined name 'nope'"):
        evaluate(parse_expression("1 + nope"), env_with())
    env = env_with()
    with pytest.raises(ActionRuntimeError, match="undefined name 'nope'"):
        execute(parse_actions("a = 1; b = nope;"), env)
    assert env.variables == {"a": 1}


def test_unknown_builtin_raises_only_when_reached():
    env = env_with({"x": 0})
    assert execute(parse_actions("if (x) { y = sqrt(4); } z = 1;"), env) == 2
    with pytest.raises(ActionRuntimeError, match="unknown builtin 'sqrt'"):
        execute(parse_actions("y = sqrt(4);"), env)


def test_empty_block_counts_zero():
    assert execute([], env_with()) == 0


# ---------------------------------------------------------------------------
# integer-only truncating division
# ---------------------------------------------------------------------------

BIG = 2**60 + 1


@pytest.mark.parametrize("source, expected", [
    (f"-{BIG} / 3", -384307168202282325),
    (f"{BIG} / -3", -384307168202282325),
    (f"-{BIG} % 3", -(BIG % 3)),
    (f"-{BIG} / -3", 384307168202282325),
])
def test_big_division_is_exact(source, expected):
    expr = parse_expression(source)
    assert const_value(expr) == expected
    assert evaluate(expr, env_with()) == expected
    # and through the simulator
    machine = StateMachine("M")
    machine.variable("r", 0)
    machine.state("s", entry=f"r = {source};", initial=True)
    executor = ProcessExecutor("p", machine)
    executor.start()
    assert executor.variables["r"] == expected


# ---------------------------------------------------------------------------
# the simulator's use: rand16 state, caching on the model
# ---------------------------------------------------------------------------


FIRST_RAND16 = Oracle({}, {}).call("rand16", [])


def rand_machine():
    m = StateMachine("M")
    m.variable("r1", -1)
    m.variable("r2", -1)
    m.variable("seen", 0)
    m.state("s", initial=True)
    m.on_signal("s", "s", "go", guard="rand16() == %d" % FIRST_RAND16,
                effect="r1 = rand16(); r2 = rand16(); seen = seen + 1;", internal=True)
    return m


def test_rand16_is_fresh_per_step_and_per_guard():
    executor = ProcessExecutor("p", rand_machine())
    executor.start()
    firsts = []
    for _ in range(3):
        outcome, reason = executor.consume_signal("go", [])
        # the guard's rand16 starts afresh every time, so it always holds
        assert reason is None and outcome.fired
        firsts.append((executor.variables["r1"], executor.variables["r2"]))
    assert executor.variables["seen"] == 3
    # each step starts afresh too, and the guard's draw does not advance it
    assert firsts == [firsts[0]] * 3
    assert firsts[0][0] == FIRST_RAND16 and firsts[0][1] != FIRST_RAND16


def test_compiled_code_is_cached_on_its_owner():
    machine = StateMachine("M")
    machine.variable("x", 0)
    state = machine.state("s", entry="x = x + 1;", initial=True)
    transition = machine.on_signal("s", "s", "go", guard="x > 0", effect="x = x * 10;")
    executor = ProcessExecutor("p", machine)
    executor.start()
    executor.consume_signal("go", [])
    assert id(state.entry) in vars(state)[CACHE_ATTRIBUTE]
    cached = vars(transition)[CACHE_ATTRIBUTE]
    assert {id(transition.guard), id(transition.effect)} <= set(cached)
    assert executor.variables["x"] == 11  # entry, effect, re-entry


def test_reassigning_an_effect_recompiles_it():
    machine = StateMachine("M")
    machine.variable("x", 0)
    machine.state("s", initial=True)
    transition = machine.on_signal("s", "s", "go", effect="x = x + 1;", internal=True)
    executor = ProcessExecutor("p", machine)
    executor.start()
    executor.consume_signal("go", [])
    assert executor.variables["x"] == 1
    old = transition.effect
    transition.effect = parse_actions("x = x + 100;")
    executor.consume_signal("go", [])
    assert executor.variables["x"] == 101
    cache = vars(transition)[CACHE_ATTRIBUTE]
    assert id(transition.effect) in cache
    assert all(entry[0] is not old for entry in cache.values())
    # an equal but distinct block is a different block
    transition.effect = parse_actions("x = x + 100;")
    executor.consume_signal("go", [])
    assert executor.variables["x"] == 201


def test_new_text_compiles_anew_and_equal_text_shares_the_function():
    machine = StateMachine("M")
    machine.variable("x", 0)
    machine.state("s", initial=True)
    transition = machine.on_signal("s", "s", "go", effect="x = x + 1;", internal=True)
    first = compiled(transition.effect, transition)
    transition.effect = parse_actions("x = x + 2;")
    second = compiled(transition.effect, transition)
    assert second is not first
    transition.effect = parse_actions("x = x + 1;")
    assert compiled(transition.effect, transition) is first


def _code_owners(application):
    """``(key, owner, code)`` for every non-empty block and guard of a model."""
    for name, process in sorted(application.processes.items()):
        machine = process.behavior
        for position, owner in enumerate(machine.states + machine.transitions):
            for attribute in ("guard", "effect", "entry", "exit"):
                code = getattr(owner, attribute, None)
                if code:
                    yield (name, position, attribute), owner, code


def test_independent_tutmac_builds_share_compiled_functions():
    functions = []
    for _ in range(2):
        application, platform, mapping = build_tutwlan_system()
        SystemSimulation(application, platform, mapping).run(20_000)
        functions.append(
            {
                key: vars(owner)[CACHE_ATTRIBUTE][id(code)][1]
                for key, owner, code in _code_owners(application)
                if id(code) in vars(owner).get(CACHE_ATTRIBUTE, {})
            }
        )
    first, second = functions
    assert len(first) > 20 and first.keys() == second.keys()
    assert all(second[key] is function for key, function in first.items())


def test_code_table_stays_within_its_bound(monkeypatch):
    table = OrderedDict()
    monkeypatch.setattr(compile_module, "_CODE_TABLE", table)
    expressions = [parse_expression(f"x + {n}") for n in range(CODE_TABLE_BOUND + 50)]
    functions = [compiled(expr) for expr in expressions]
    assert len(table) == CODE_TABLE_BOUND
    # the oldest functions were dropped first; the newest are served
    assert compiled(parse_expression("x + 0")) is not functions[0]
    assert compiled(expressions[-1]) is functions[-1]
    assert len(table) == CODE_TABLE_BOUND
    env = ActionEnvironment({"x": 1})
    assert evaluate(expressions[0], env) == 1


def test_code_table_bound_holds_under_threads(monkeypatch):
    # more threads than cores compile overlapping sets of blocks with a
    # tiny bound and a short switch interval; every function must compute
    # its own block and the table must end within its bound
    monkeypatch.setattr(compile_module, "_CODE_TABLE", OrderedDict())
    monkeypatch.setattr(compile_module, "CODE_TABLE_BOUND", 8)
    wrong = []

    def compile_many(offset):
        for n in range(offset, offset + 200):
            expr = parse_expression(f"x * 3 + {n % 40}")
            if compiled(expr)({"x": 2}, {}, None) != 6 + n % 40:
                wrong.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=compile_many, args=(k * 7,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(compile_module._CODE_TABLE) <= 8
