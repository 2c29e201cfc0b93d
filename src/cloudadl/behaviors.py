"""Builtin behaviors for atomic components.

A behavior is configuration shared by every replica of an instance; the
per-replica state lives in the kernel and is threaded through handle().
handle() returns the successor state plus a list of actions, so a restart
can reset a replica by going back to initial_state().

store is the one exception to immutable states: its handle() appends the
new row to its row list in place and returns that same list, so an
activation costs O(1) however many rows are kept. The kernel's rule that
an activation which raises commits no state is unaffected, because store
never raises; initial_state() returns a fresh list on every call, so a
restart still empties the rows and no two replicas share one.

Verdict records are shared immutable values: approve_if, validate_range
and approval_join build their false and their true record once, when the
behavior is configured, and every activation emits one of the two. A
Record is frozen and keeps its rendered text, so each verdict is checked
and rendered once per kernel, not once per activation.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from . import lexer
from .model import (
    IN,
    OUT,
    ArchitectureModel,
    BehaviorClause,
    ComponentTypeDef,
    Ident,
    MessageTypeDef,
    PortDecl,
    Record,
    make_record,
    primitive_of,
    render_value,
)
from .parser import ParseError, TokenCursor, describe

MODE_ONE = "one"
MODE_BROADCAST = "broadcast"
MODE_INDEX = "index"


class BehaviorConfigError(Exception):
    pass


@dataclass(slots=True)
class Emit:
    """Send payload through an out port.

    mode "one" picks a single receiver per attached channel (sticky or
    round-robin for replica groups); "broadcast" copies to every live
    replica; "index" pins the receiver by position in the live list.
    """

    port: str
    payload: Record
    mode: str = MODE_ONE
    index: int = 0


@dataclass(frozen=True)
class Raise:
    kind: str


@dataclass(slots=True)
class ActivationContext:
    step: int
    rng: Random


class Behavior:
    def initial_state(self) -> object:
        return None

    def handle(
        self, state: object, port: str, payload: Record, ctx: ActivationContext
    ) -> tuple[object, list]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Argument binding


def bind_args(
    clause: BehaviorClause,
    params: list[tuple[str, bool]],
    variadic: str | None = None,
) -> dict[str, object]:
    """Map positional and named arguments onto declared parameter names.

    params lists (name, required). With variadic set, extra positional
    arguments are collected under that key as a list.
    """
    bound: dict[str, object] = {}
    extra: list[object] = []
    names = [n for n, _ in params]
    next_positional = 0
    saw_named = False
    for arg in clause.args:
        if arg.name is None:
            if saw_named:
                # after a named argument, positionals may only extend the
                # variadic tail (the automaton transition list)
                if variadic is None:
                    raise BehaviorConfigError(
                        f"{clause.builtin}: positional argument after a named one"
                    )
                extra.append(arg.value)
            elif next_positional < len(names):
                bound[names[next_positional]] = arg.value
                next_positional += 1
            elif variadic is not None:
                extra.append(arg.value)
            else:
                raise BehaviorConfigError(
                    f"{clause.builtin}: too many arguments (takes {len(names)})"
                )
        else:
            saw_named = True
            if arg.name not in names:
                raise BehaviorConfigError(
                    f"{clause.builtin}: unknown argument '{arg.name}'"
                )
            if arg.name in bound:
                raise BehaviorConfigError(
                    f"{clause.builtin}: argument '{arg.name}' given twice"
                )
            bound[arg.name] = arg.value
    for name, required in params:
        if required and name not in bound:
            raise BehaviorConfigError(f"{clause.builtin}: missing argument '{name}'")
    if variadic is not None:
        bound[variadic] = extra
    return bound


def as_name(builtin: str, arg: str, value: object) -> str:
    if isinstance(value, Ident):
        return value.name
    if isinstance(value, str):
        return value
    raise BehaviorConfigError(f"{builtin}: '{arg}' must be a name")


def as_int(builtin: str, arg: str, value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BehaviorConfigError(f"{builtin}: '{arg}' must be an integer")
    return value


def as_bool(builtin: str, arg: str, value: object) -> bool:
    if not isinstance(value, bool):
        raise BehaviorConfigError(f"{builtin}: '{arg}' must be true or false")
    return value


def as_str(builtin: str, arg: str, value: object) -> str:
    if not isinstance(value, str):
        raise BehaviorConfigError(f"{builtin}: '{arg}' must be a string")
    return value


class _Shape:
    """Port and type lookups shared by the builtin constructors."""

    def __init__(self, builtin: str, tdef: ComponentTypeDef, model: ArchitectureModel):
        self.builtin = builtin
        self.tdef = tdef
        self.model = model
        self.in_ports = [p for p in tdef.ports if p.direction == IN]
        self.out_ports = [p for p in tdef.ports if p.direction == OUT]

    def fail(self, message: str) -> BehaviorConfigError:
        return BehaviorConfigError(f"{self.builtin}: {message}")

    def port(self, name: str, direction: str) -> PortDecl:
        p = self.tdef.port(name)
        if p is None:
            raise self.fail(f"'{self.tdef.name}' has no port '{name}'")
        if p.direction != direction:
            raise self.fail(f"port '{name}' must be an {direction} port")
        return p

    def pick_out(self, bound: dict[str, object], arg: str = "out") -> PortDecl:
        if arg in bound:
            return self.port(as_name(self.builtin, arg, bound[arg]), OUT)
        if len(self.out_ports) == 1:
            return self.out_ports[0]
        raise self.fail(f"component has {len(self.out_ports)} out ports, name one with {arg}=")

    def message_type(self, port: PortDecl) -> MessageTypeDef:
        return self.model.message_types[port.message_type]

    def verdict_field(self, port: PortDecl) -> str:
        mdef = self.message_type(port)
        if len(mdef.fields) == 1 and mdef.fields[0].primitive == "boolean":
            return mdef.fields[0].name
        raise self.fail(
            f"port '{port.name}' must carry a message type with exactly one boolean field"
        )

    def field_primitive(self, ports: list[PortDecl], fname: str) -> str:
        prims = set()
        for p in ports:
            fm = self.message_type(p).field_map()
            if fname not in fm:
                raise self.fail(
                    f"message type '{p.message_type}' on port '{p.name}' has no field '{fname}'"
                )
            prims.add(fm[fname])
        if len(prims) != 1:
            raise self.fail(f"field '{fname}' has mixed primitives across in ports")
        return prims.pop()

    def same_type(self, a: PortDecl, b: PortDecl) -> None:
        if a.message_type != b.message_type:
            raise self.fail(
                f"port '{a.name}' carries {a.message_type} but port '{b.name}' carries {b.message_type}"
            )


class ForwardBehavior(Behavior):
    """Pass every incoming message through one out port."""

    def __init__(self, tdef, model, clause):
        shape = _Shape(clause.builtin, tdef, model)
        bound = bind_args(clause, [("out", False), ("broadcast", False)])
        self.out = shape.pick_out(bound)
        self.mode = MODE_ONE
        if "broadcast" in bound and as_bool(clause.builtin, "broadcast", bound["broadcast"]):
            self.mode = MODE_BROADCAST
        for p in shape.in_ports:
            shape.same_type(p, self.out)

    def handle(self, state, port, payload, ctx):
        return state, [Emit(self.out.name, payload, self.mode)]


class RouteByBehavior(Behavior):
    """Pin the receiving replica by an integer payload field (mod group size)."""

    mode = MODE_INDEX

    def __init__(self, tdef, model, clause):
        shape = _Shape(clause.builtin, tdef, model)
        bound = bind_args(clause, [("field", True), ("out", False)])
        self.field = as_name(clause.builtin, "field", bound["field"])
        self.out = shape.pick_out(bound)
        if shape.field_primitive(shape.in_ports, self.field) != "integer":
            raise shape.fail(f"field '{self.field}' must be an integer field")
        for p in shape.in_ports:
            shape.same_type(p, self.out)

    def handle(self, state, port, payload, ctx):
        return state, [Emit(self.out.name, payload, self.mode, payload.get(self.field))]


def _verdict_records(shape: _Shape, port: PortDecl) -> dict[bool, Record]:
    """The false and the true record a verdict port can carry."""
    flag = shape.verdict_field(port)
    mdef = shape.message_type(port)
    return {ok: make_record(mdef, {flag: ok}) for ok in (False, True)}


class _VerdictBehavior(Behavior):
    """Shared emit logic for behaviors that answer with a boolean record."""

    def __init__(self, shape: _Shape, bound: dict[str, object]):
        self.out = shape.pick_out(bound)
        self.verdicts = _verdict_records(shape, self.out)

    def verdict(self, ok: bool) -> Emit:
        return Emit(self.out.name, self.verdicts[ok])


class ApproveIfBehavior(_VerdictBehavior):
    """Answer true when a payload field equals a literal."""

    def __init__(self, tdef, model, clause):
        shape = _Shape(clause.builtin, tdef, model)
        bound = bind_args(clause, [("field", True), ("equals", True), ("out", False)])
        super().__init__(shape, bound)
        self.field = as_name(clause.builtin, "field", bound["field"])
        self.expected = bound["equals"]
        if isinstance(self.expected, Ident):
            raise shape.fail("'equals' must be a literal")
        prim = shape.field_primitive(shape.in_ports, self.field)
        if primitive_of(self.expected) != prim:
            raise shape.fail(
                f"'equals' value {render_value(self.expected)} does not fit {prim} field '{self.field}'"
            )

    def handle(self, state, port, payload, ctx):
        return state, [self.verdict(payload.get(self.field) == self.expected)]


class ValidateRangeBehavior(_VerdictBehavior):
    """Answer true when an integer payload field lies inside closed bounds."""

    def __init__(self, tdef, model, clause):
        shape = _Shape(clause.builtin, tdef, model)
        bound = bind_args(
            clause, [("field", True), ("min", False), ("max", False), ("out", False)]
        )
        super().__init__(shape, bound)
        self.field = as_name(clause.builtin, "field", bound["field"])
        if shape.field_primitive(shape.in_ports, self.field) != "integer":
            raise shape.fail(f"field '{self.field}' must be an integer field")
        if "min" not in bound and "max" not in bound:
            raise shape.fail("needs min=, max=, or both")
        self.lo = as_int(clause.builtin, "min", bound["min"]) if "min" in bound else None
        self.hi = as_int(clause.builtin, "max", bound["max"]) if "max" in bound else None

    def handle(self, state, port, payload, ctx):
        v = payload.get(self.field)
        ok = (self.lo is None or v >= self.lo) and (self.hi is None or v <= self.hi)
        return state, [self.verdict(ok)]


class StoreBehavior(Behavior):
    """Keep every received payload; rows are (arrival step, payload)."""

    def __init__(self, tdef, model, clause):
        bind_args(clause, [])

    def initial_state(self):
        return []

    def handle(self, state, port, payload, ctx):
        state.append((ctx.step, payload))
        return state, []


class CollectBehavior(Behavior):
    """Forward every n-th message and drop the rest."""

    def __init__(self, tdef, model, clause):
        shape = _Shape(clause.builtin, tdef, model)
        bound = bind_args(clause, [("n", True), ("out", False)])
        self.n = as_int(clause.builtin, "n", bound["n"])
        if self.n < 1:
            raise shape.fail("'n' must be at least 1")
        self.out = shape.pick_out(bound)
        for p in shape.in_ports:
            shape.same_type(p, self.out)

    def initial_state(self):
        return 0

    def handle(self, state, port, payload, ctx):
        count = state + 1
        if count % self.n == 0:
            return count, [Emit(self.out.name, payload)]
        return count, []


class SampleBehavior(Behavior):
    """Forward each message with the given percent probability.

    Uses the replica's own seeded generator, so a run is reproducible for
    a fixed scenario seed.
    """

    def __init__(self, tdef, model, clause):
        shape = _Shape(clause.builtin, tdef, model)
        bound = bind_args(clause, [("percent", True), ("out", False)])
        self.percent = as_int(clause.builtin, "percent", bound["percent"])
        if not 0 <= self.percent <= 100:
            raise shape.fail("'percent' must be between 0 and 100")
        self.out = shape.pick_out(bound)
        for p in shape.in_ports:
            shape.same_type(p, self.out)

    def handle(self, state, port, payload, ctx):
        if ctx.rng.randrange(100) < self.percent:
            return state, [Emit(self.out.name, payload)]
        return state, []


class FaultAtBehavior(Behavior):
    """Raise a fault when activated at one exact step; otherwise forward."""

    def __init__(self, tdef, model, clause):
        shape = _Shape(clause.builtin, tdef, model)
        bound = bind_args(clause, [("step", True), ("kind", False), ("out", False)])
        self.step = as_int(clause.builtin, "step", bound["step"])
        self.kind = (
            as_str(clause.builtin, "kind", bound["kind"]) if "kind" in bound else "induced"
        )
        self.out = shape.pick_out(bound) if shape.out_ports else None
        if self.out is not None:
            for p in shape.in_ports:
                shape.same_type(p, self.out)

    def handle(self, state, port, payload, ctx):
        if ctx.step == self.step:
            return state, [Raise(self.kind)]
        if self.out is not None:
            return state, [Emit(self.out.name, payload)]
        return state, []


class DelayBehavior(Behavior):
    """Hold back k messages: message i is emitted on arrival of message i+k."""

    def __init__(self, tdef, model, clause):
        shape = _Shape(clause.builtin, tdef, model)
        bound = bind_args(clause, [("k", True), ("out", False)])
        self.k = as_int(clause.builtin, "k", bound["k"])
        if self.k < 0:
            raise shape.fail("'k' must not be negative")
        self.out = shape.pick_out(bound)
        for p in shape.in_ports:
            shape.same_type(p, self.out)

    def initial_state(self):
        return ()

    def handle(self, state, port, payload, ctx):
        queue = state + (payload,)
        if len(queue) > self.k:
            return queue[1:], [Emit(self.out.name, queue[0])]
        return queue, []


class ApprovalJoinBehavior(Behavior):
    """Join one item stream with one verdict per remaining in port.

    An arriving item is copied to the request port (when configured), then
    queued. Once the item queue and every verdict queue have a head, one
    of each is consumed: the verdict flags are AND-ed, an accepted item is
    copied to the forward port, and a combined verdict record always goes
    out through the respond port. Per-port FIFO order makes the pairing
    positional, so verdicts answer items in arrival order.
    """

    def __init__(self, tdef, model, clause):
        shape = _Shape(clause.builtin, tdef, model)
        bound = bind_args(
            clause,
            [("item", True), ("respond", True), ("request", False), ("forward", False)],
        )
        self.item = shape.port(as_name(clause.builtin, "item", bound["item"]), IN)
        self.respond = shape.port(as_name(clause.builtin, "respond", bound["respond"]), OUT)
        self.verdicts = _verdict_records(shape, self.respond)
        self.request = (
            shape.port(as_name(clause.builtin, "request", bound["request"]), OUT)
            if "request" in bound
            else None
        )
        self.forward = (
            shape.port(as_name(clause.builtin, "forward", bound["forward"]), OUT)
            if "forward" in bound
            else None
        )
        if self.request is not None:
            shape.same_type(self.item, self.request)
        if self.forward is not None:
            shape.same_type(self.item, self.forward)
        self.verdict_ports: dict[str, str] = {}
        for p in shape.in_ports:
            if p.name == self.item.name:
                continue
            self.verdict_ports[p.name] = shape.verdict_field(p)
        if not self.verdict_ports:
            raise shape.fail("needs at least one verdict in port besides the item port")

    def initial_state(self):
        queues = {self.item.name: ()}
        for name in self.verdict_ports:
            queues[name] = ()
        return queues

    def handle(self, state, port, payload, ctx):
        queues = dict(state)
        queues[port] = queues[port] + (payload,)
        actions = []
        if port == self.item.name and self.request is not None:
            actions.append(Emit(self.request.name, payload))
        while queues[self.item.name] and all(queues[v] for v in self.verdict_ports):
            item = queues[self.item.name][0]
            queues[self.item.name] = queues[self.item.name][1:]
            ok = True
            for vport, vfield in self.verdict_ports.items():
                verdict = queues[vport][0]
                queues[vport] = queues[vport][1:]
                ok = ok and bool(verdict.get(vfield))
            if ok and self.forward is not None:
                actions.append(Emit(self.forward.name, item))
            actions.append(Emit(self.respond.name, self.verdicts[ok]))
        return queues, actions


# ---------------------------------------------------------------------------
# Automaton behavior

GUARD_OPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Guard:
    field: str | None  # None means match-all
    op: str = "="
    literal: object = None

    def matches(self, payload: Record) -> bool:
        if self.field is None:
            return True
        v = payload.get(self.field)
        if self.op == "=":
            return v == self.literal
        if self.op == "!=":
            return v != self.literal
        if self.op == "<":
            return v < self.literal
        if self.op == "<=":
            return v <= self.literal
        if self.op == ">":
            return v > self.literal
        return v >= self.literal

    def render(self) -> str:
        if self.field is None:
            return "*"
        return f"{self.field} {self.op} {render_value(self.literal)}"


@dataclass(frozen=True)
class Emission:
    port: str
    payload: Record | None  # None forwards the triggering payload


@dataclass(frozen=True)
class Transition:
    state: str
    port: str
    guard: Guard
    next_state: str
    emissions: tuple[Emission, ...]


class AutomatonBehavior(Behavior):
    """Finite state machine over incoming messages.

    Transitions are written as strings:

        state, port, guard -> state', emit port; emit port Type{...}

    The guard is `*` or `field OP literal` with OP one of = != < <= > >=.
    Guards of transitions sharing (state, port) must be provably disjoint,
    so at most one transition can fire; activation with no matching
    transition raises a fault.
    """

    def __init__(self, tdef, model, clause):
        shape = _Shape(clause.builtin, tdef, model)
        bound = bind_args(clause, [("initial", True)], variadic="transitions")
        self.initial = as_str(clause.builtin, "initial", bound["initial"])
        lines = bound["transitions"]
        if not lines:
            raise shape.fail("needs at least one transition string")
        self.table: dict[tuple[str, str], list[Transition]] = {}
        states: set[str] = {self.initial}
        for raw in lines:
            text = as_str(clause.builtin, "transition", raw)
            tr = _parse_transition(shape, text)
            states.add(tr.state)
            states.add(tr.next_state)
            self.table.setdefault((tr.state, tr.port), []).append(tr)
        for (state, port), group in self.table.items():
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    if not _guards_disjoint(a.guard, b.guard):
                        raise shape.fail(
                            f"guards '{a.guard.render()}' and '{b.guard.render()}' "
                            f"overlap in state '{state}' on port '{port}'"
                        )

    def initial_state(self):
        return self.initial

    def handle(self, state, port, payload, ctx):
        for tr in self.table.get((state, port), ()):
            if tr.guard.matches(payload):
                actions = [
                    Emit(e.port, payload if e.payload is None else e.payload)
                    for e in tr.emissions
                ]
                return tr.next_state, actions
        return state, [Raise("no_transition")]


def _parse_transition(shape: _Shape, text: str) -> Transition:
    try:
        cursor = TokenCursor(lexer.tokenize(text))
        state = cursor.expect(lexer.IDENT, "state name").value
        cursor.expect(",")
        port_name = cursor.expect(lexer.IDENT, "port name").value
        in_port = shape.port(port_name, IN)
        cursor.expect(",")
        guard = _parse_guard(shape, cursor, in_port)
        cursor.expect("->")
        next_state = cursor.expect(lexer.IDENT, "state name").value
        emissions: list[Emission] = []
        if cursor.accept(","):
            while True:
                emissions.append(_parse_emission(shape, cursor, in_port))
                if not cursor.accept(";"):
                    break
        trailing = cursor.peek()
        if trailing.type != lexer.EOF:
            raise ParseError(
                f"unexpected {describe(trailing)} in transition", trailing.line, trailing.col
            )
    except (lexer.LexError, ParseError) as exc:
        raise shape.fail(f"bad transition '{text}': {exc.message}") from exc
    return Transition(state, port_name, guard, next_state, tuple(emissions))


def _parse_guard(shape: _Shape, cursor: TokenCursor, in_port: PortDecl) -> Guard:
    if cursor.accept("*"):
        return Guard(None)
    fname = cursor.expect(lexer.IDENT, "field name").value
    op = None
    for candidate in GUARD_OPS:
        if cursor.accept(candidate):
            op = candidate
            break
    if op is None:
        tok = cursor.peek()
        raise ParseError(f"expected a comparison, got {describe(tok)}", tok.line, tok.col)
    literal = cursor.parse_value()
    if isinstance(literal, Ident):
        raise shape.fail(f"guard on '{fname}' needs a literal")
    prim = shape.field_primitive([in_port], fname)
    if primitive_of(literal) != prim:
        raise shape.fail(
            f"guard literal {render_value(literal)} does not fit {prim} field '{fname}'"
        )
    if op not in ("=", "!=") and prim != "integer":
        raise shape.fail(f"ordered comparison needs an integer field, '{fname}' is {prim}")
    return Guard(fname, op, literal)


def _parse_emission(shape: _Shape, cursor: TokenCursor, in_port: PortDecl) -> Emission:
    kw = cursor.expect(lexer.IDENT, "'emit'")
    if kw.value != "emit":
        raise ParseError(f"expected 'emit', got '{kw.value}'", kw.line, kw.col)
    port = shape.port(cursor.expect(lexer.IDENT, "port name").value, OUT)
    if cursor.at(lexer.IDENT) and cursor.tokens[cursor.pos + 1].type == "{":
        type_name, values, name_tok = cursor.parse_payload_record()
        mdef = shape.model.message_types.get(type_name)
        if mdef is None:
            raise shape.fail(f"unknown message type '{type_name}' in emission")
        if type_name != port.message_type:
            raise shape.fail(
                f"port '{port.name}' carries {port.message_type}, not {type_name}"
            )
        try:
            payload = make_record(mdef, values)
        except ValueError as exc:
            raise shape.fail(str(exc)) from exc
        return Emission(port.name, payload)
    shape.same_type(in_port, port)
    return Emission(port.name, None)


def _interval(guard: Guard) -> tuple[float, float] | None:
    """Closed integer interval covered by an ordered or equality guard."""
    v = guard.literal
    if guard.op == "=":
        return (v, v)
    if guard.op == "<":
        return (float("-inf"), v - 1)
    if guard.op == "<=":
        return (float("-inf"), v)
    if guard.op == ">":
        return (v + 1, float("inf"))
    if guard.op == ">=":
        return (v, float("inf"))
    return None  # != covers two rays


def _guards_disjoint(a: Guard, b: Guard) -> bool:
    """True only when no payload can satisfy both guards."""
    if a.field is None or b.field is None or a.field != b.field:
        return False
    if a.op == "!=" and b.op == "=":
        return a.literal == b.literal
    if a.op == "=" and b.op == "!=":
        return a.literal == b.literal
    if a.op == "!=" or b.op == "!=":
        return False
    if a.op == "=" and b.op == "=":
        return a.literal != b.literal
    ia, ib = _interval(a), _interval(b)
    if ia is None or ib is None:
        return False
    if not isinstance(a.literal, int) or not isinstance(b.literal, int):
        # ordered guards are integer-only, but stay safe
        return False
    return ia[1] < ib[0] or ib[1] < ia[0]


BUILTINS: dict[str, type] = {
    "forward": ForwardBehavior,
    "route_by": RouteByBehavior,
    "approve_if": ApproveIfBehavior,
    "validate_range": ValidateRangeBehavior,
    "store": StoreBehavior,
    "collect": CollectBehavior,
    "sample": SampleBehavior,
    "fault_at": FaultAtBehavior,
    "delay": DelayBehavior,
    "approval_join": ApprovalJoinBehavior,
    "automaton": AutomatonBehavior,
}


def instantiate(tdef: ComponentTypeDef, model: ArchitectureModel) -> Behavior:
    clause = tdef.behavior
    if clause is None:
        raise BehaviorConfigError(f"'{tdef.name}' has no behavior clause")
    cls = BUILTINS.get(clause.builtin)
    if cls is None:
        known = ", ".join(sorted(BUILTINS))
        raise BehaviorConfigError(
            f"unknown behavior '{clause.builtin}' (known: {known})"
        )
    return cls(tdef, model, clause)


def validate_clause(tdef: ComponentTypeDef, model: ArchitectureModel) -> list[str]:
    try:
        instantiate(tdef, model)
    except BehaviorConfigError as exc:
        return [str(exc)]
    return []
