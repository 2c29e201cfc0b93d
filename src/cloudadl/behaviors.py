"""Builtin behaviors for atomic components.

A behavior is configuration shared by every instance of a component type
and by all their replicas. instantiate() binds a clause against the
arguments its builtin declares and configures it once per model: check()
and every elaborate() of the model share the object; no two models do.
The per-replica state lives in the kernel and is threaded through
handle(), which never writes to the behavior itself, so sharing is safe.

handle(state, port, payload, step, rng) returns the successor state and a
list of emits, so a restart can reset a replica by going back to
initial_state(). An emit is (out port, payload), or (out port, payload,
index) when the behavior's mode is MODE_INDEX. handle() faults by raising
Fault(kind): the kernel then commits no state and sends nothing.

store is the one exception to immutable states: its handle() appends the
new row to its row list in place and returns that same list, so an
activation costs O(1) however many rows are kept. The kernel's rule that
an activation which faults commits no state is unaffected, because store
never faults; initial_state() returns a fresh list on every call, so a
restart still empties the rows and no two replicas share one.

A behavior whose handle() reads rng sets the class attribute draws; the
kernel seeds a generator only for the replicas of such a behavior, and
hands every other one rng None. sample is the one builtin that draws.

Verdict emits are shared immutable values: approve_if, validate_range and
approval_join build their false and their true emit once, when the
behavior is configured, and every activation emits one of the two. A
Record is frozen and keeps its rendered text, so each verdict is checked
and rendered once per model, not once per activation.
"""

from __future__ import annotations

import operator
from random import Random

from . import lexer
from .diagnostics import ECHO_LIMIT, quoted
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
from .parser import TokenCursor, describe
from .values import Frozen, set_field

# a behavior's mode: how each of its emits picks receivers
MODE_ONE = "one"  # one per attached channel; sticky or round robin in a group
MODE_BROADCAST = "broadcast"  # a copy to every live replica
MODE_INDEX = "index"  # the live replica at the emit's index, modulo their count


class BehaviorConfigError(Exception):
    pass


class Fault(Exception):
    """Raised by handle() to fault the activating replica with `kind`."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


class Behavior:
    mode = MODE_ONE
    draws = False  # True if handle() reads rng
    # the arguments a builtin takes, bound by instantiate(); see bind_args
    params: tuple[tuple[str, bool], ...] = ()
    variadic: str | None = None

    def __init__(self, shape: _Shape, bound: dict[str, object]) -> None:
        pass  # a builtin checks the rest of its clause here

    def initial_state(self) -> object:
        return None

    def handle(
        self, state: object, port: str, payload: Record, step: int, rng: Random | None
    ) -> tuple[object, list[tuple]]:
        """The successor state and the emits for one message on `port` at
        `step`; rng is the replica's generator, or None unless the behavior
        draws. Raises Fault to fault the replica."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Argument binding


def bind_args(
    clause: BehaviorClause,
    params: tuple[tuple[str, bool], ...],
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
                    f"{clause.builtin}: unknown argument {quoted(arg.name)}"
                )
            if arg.name in bound:
                raise BehaviorConfigError(
                    f"{clause.builtin}: argument {quoted(arg.name)} given twice"
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
            raise self.fail(f"{quoted(self.tdef.name)} has no port {quoted(name)}")
        if p.direction != direction:
            raise self.fail(f"port {quoted(name)} must be an {direction} port")
        return p

    def pick_out(self, bound: dict[str, object]) -> PortDecl:
        if "out" in bound:
            return self.port(as_name(self.builtin, "out", bound["out"]), OUT)
        if len(self.out_ports) == 1:
            return self.out_ports[0]
        raise self.fail(f"component has {len(self.out_ports)} out ports, name one with out=")

    def message_type(self, port: PortDecl) -> MessageTypeDef:
        return self.model.message_types[port.message_type]

    def verdict_field(self, port: PortDecl) -> str:
        mdef = self.message_type(port)
        if len(mdef.fields) == 1 and mdef.fields[0].primitive == "boolean":
            return mdef.fields[0].name
        raise self.fail(
            f"port {quoted(port.name)} must carry a message type with exactly one boolean field"
        )

    def field_primitive(self, ports: list[PortDecl], fname: str) -> str:
        prims = set()
        for p in ports:
            fm = self.message_type(p).field_map()
            if fname not in fm:
                raise self.fail(
                    f"message type {quoted(p.message_type)} on port {quoted(p.name)}"
                    f" has no field {quoted(fname)}"
                )
            prims.add(fm[fname])
        if len(prims) != 1:
            raise self.fail(f"field {quoted(fname)} has mixed primitives across in ports")
        return prims.pop()

    def same_type(self, a: PortDecl, b: PortDecl) -> None:
        if a.message_type != b.message_type:
            raise self.fail(
                f"port {quoted(a.name)} carries {quoted(a.message_type, '')}"
                f" but port {quoted(b.name)} carries {quoted(b.message_type, '')}"
            )

    def forwards_to(self, out: PortDecl) -> None:
        """Every in port must carry what `out` carries, to forward through it."""
        for p in self.in_ports:
            self.same_type(p, out)


class ForwardBehavior(Behavior):
    """Pass every incoming message through one out port."""

    params = (("out", False), ("broadcast", False))

    def __init__(self, shape, bound):
        self.out = shape.pick_out(bound)
        self.mode = MODE_ONE
        if "broadcast" in bound and as_bool(shape.builtin, "broadcast", bound["broadcast"]):
            self.mode = MODE_BROADCAST
        shape.forwards_to(self.out)

    def handle(self, state, port, payload, step, rng):
        return state, [(self.out.name, payload)]


class RouteByBehavior(Behavior):
    """Pin the receiving replica by an integer payload field (mod group size)."""

    mode = MODE_INDEX
    params = (("field", True), ("out", False))

    def __init__(self, shape, bound):
        self.field = as_name(shape.builtin, "field", bound["field"])
        self.out = shape.pick_out(bound)
        if shape.field_primitive(shape.in_ports, self.field) != "integer":
            raise shape.fail(f"field {quoted(self.field)} must be an integer field")
        shape.forwards_to(self.out)

    def handle(self, state, port, payload, step, rng):
        return state, [(self.out.name, payload, payload.get(self.field))]


def _verdict_emits(shape: _Shape, port: PortDecl) -> dict[bool, tuple[str, Record]]:
    """The emit of the false and of the true record through a verdict port."""
    flag = shape.verdict_field(port)
    mdef = shape.message_type(port)
    return {ok: (port.name, make_record(mdef, {flag: ok})) for ok in (False, True)}


class ApproveIfBehavior(Behavior):
    """Answer true when a payload field equals a literal."""

    params = (("field", True), ("equals", True), ("out", False))

    def __init__(self, shape, bound):
        self.verdicts = _verdict_emits(shape, shape.pick_out(bound))
        self.field = as_name(shape.builtin, "field", bound["field"])
        self.expected = bound["equals"]
        if isinstance(self.expected, Ident):
            raise shape.fail("'equals' must be a literal")
        prim = shape.field_primitive(shape.in_ports, self.field)
        if primitive_of(self.expected) != prim:
            raise shape.fail(
                f"'equals' value {render_value(self.expected)} does not fit {prim} field {quoted(self.field)}"
            )

    def handle(self, state, port, payload, step, rng):
        return state, [self.verdicts[payload.get(self.field) == self.expected]]


class ValidateRangeBehavior(Behavior):
    """Answer true when an integer payload field lies inside closed bounds."""

    params = (("field", True), ("min", False), ("max", False), ("out", False))

    def __init__(self, shape, bound):
        self.verdicts = _verdict_emits(shape, shape.pick_out(bound))
        self.field = as_name(shape.builtin, "field", bound["field"])
        if shape.field_primitive(shape.in_ports, self.field) != "integer":
            raise shape.fail(f"field {quoted(self.field)} must be an integer field")
        if "min" not in bound and "max" not in bound:
            raise shape.fail("needs min=, max=, or both")
        self.lo = as_int(shape.builtin, "min", bound["min"]) if "min" in bound else None
        self.hi = as_int(shape.builtin, "max", bound["max"]) if "max" in bound else None

    def handle(self, state, port, payload, step, rng):
        v = payload.get(self.field)
        ok = (self.lo is None or v >= self.lo) and (self.hi is None or v <= self.hi)
        return state, [self.verdicts[ok]]


class StoreBehavior(Behavior):
    """Keep every received payload; rows are (arrival step, payload)."""

    def initial_state(self):
        return []

    def handle(self, state, port, payload, step, rng):
        state.append((step, payload))
        return state, []


class CollectBehavior(Behavior):
    """Forward every n-th message and drop the rest."""

    params = (("n", True), ("out", False))

    def __init__(self, shape, bound):
        self.n = as_int(shape.builtin, "n", bound["n"])
        if self.n < 1:
            raise shape.fail("'n' must be at least 1")
        self.out = shape.pick_out(bound)
        shape.forwards_to(self.out)

    def initial_state(self):
        return 0

    def handle(self, state, port, payload, step, rng):
        count = state + 1
        if count % self.n == 0:
            return count, [(self.out.name, payload)]
        return count, []


class SampleBehavior(Behavior):
    """Forward each message with the given percent probability.

    Uses the replica's own seeded generator, so a run is reproducible for
    a fixed scenario seed.
    """

    draws = True
    params = (("percent", True), ("out", False))

    def __init__(self, shape, bound):
        self.percent = as_int(shape.builtin, "percent", bound["percent"])
        if not 0 <= self.percent <= 100:
            raise shape.fail("'percent' must be between 0 and 100")
        self.out = shape.pick_out(bound)
        shape.forwards_to(self.out)

    def handle(self, state, port, payload, step, rng):
        if rng.randrange(100) < self.percent:
            return state, [(self.out.name, payload)]
        return state, []


class FaultAtBehavior(Behavior):
    """Fault when activated at one exact step; otherwise forward."""

    params = (("step", True), ("kind", False), ("out", False))

    def __init__(self, shape, bound):
        self.step = as_int(shape.builtin, "step", bound["step"])
        self.kind = (
            as_str(shape.builtin, "kind", bound["kind"]) if "kind" in bound else "induced"
        )
        # with no out port and no out= it only raises; a named out= must exist
        self.out = shape.pick_out(bound) if shape.out_ports or "out" in bound else None
        if self.out is not None:
            shape.forwards_to(self.out)

    def handle(self, state, port, payload, step, rng):
        if step == self.step:
            raise Fault(self.kind)
        if self.out is not None:
            return state, [(self.out.name, payload)]
        return state, []


class DelayBehavior(Behavior):
    """Hold back k messages: message i is emitted on arrival of message i+k."""

    params = (("k", True), ("out", False))

    def __init__(self, shape, bound):
        self.k = as_int(shape.builtin, "k", bound["k"])
        if self.k < 0:
            raise shape.fail("'k' must not be negative")
        self.out = shape.pick_out(bound)
        shape.forwards_to(self.out)

    def initial_state(self):
        return ()

    def handle(self, state, port, payload, step, rng):
        queue = state + (payload,)
        if len(queue) > self.k:
            return queue[1:], [(self.out.name, queue[0])]
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

    params = (("item", True), ("respond", True), ("request", False), ("forward", False))

    def __init__(self, shape, bound):
        self.item = shape.port(as_name(shape.builtin, "item", bound["item"]), IN)
        self.respond = shape.port(as_name(shape.builtin, "respond", bound["respond"]), OUT)
        self.verdicts = _verdict_emits(shape, self.respond)
        self.request, self.forward = (
            shape.port(as_name(shape.builtin, arg, bound[arg]), OUT) if arg in bound else None
            for arg in ("request", "forward")
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

    def handle(self, state, port, payload, step, rng):
        queues = dict(state)
        queues[port] = queues[port] + (payload,)
        emits = []
        if port == self.item.name and self.request is not None:
            emits.append((self.request.name, payload))
        while queues[self.item.name] and all(queues[v] for v in self.verdict_ports):
            item = queues[self.item.name][0]
            queues[self.item.name] = queues[self.item.name][1:]
            ok = True
            for vport, vfield in self.verdict_ports.items():
                verdict = queues[vport][0]
                queues[vport] = queues[vport][1:]
                ok = ok and bool(verdict.get(vfield))
            if ok and self.forward is not None:
                emits.append((self.forward.name, item))
            emits.append(self.verdicts[ok])
        return queues, emits


# ---------------------------------------------------------------------------
# Automaton behavior

# a guard's comparison operators, for parsing and for matching
GUARD_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Guard(Frozen):
    _fields = ("field", "op", "literal")

    def __init__(self, field: str | None, op: str = "=", literal: object = None):
        set_field(self, "field", field)  # None means match-all
        set_field(self, "op", op)
        set_field(self, "literal", literal)

    def matches(self, payload: Record) -> bool:
        if self.field is None:
            return True
        return GUARD_OPS[self.op](payload.get(self.field), self.literal)

    def render(self) -> str:
        if self.field is None:
            return "*"
        return f"{self.field} {self.op} {render_value(self.literal)}"


class AutomatonBehavior(Behavior):
    """Finite state machine over incoming messages.

    Transitions are written as strings:

        state, port, guard -> state', emit port; emit port Type{...}

    The guard is `*` or `field OP literal` with OP one of = != < <= > >=.
    Guards of transitions sharing (state, port) must be provably disjoint,
    so at most one transition can fire; activation with no matching
    transition raises Fault("no_transition").

    table maps (state, in port) to that pair's transitions in declaration
    order, each as (guard, next state, emissions); an emission is
    (out port, payload), where payload None forwards the triggering one.
    """

    params = (("initial", True),)
    variadic = "transitions"

    def __init__(self, shape, bound):
        self.initial = as_str(shape.builtin, "initial", bound["initial"])
        lines = bound["transitions"]
        if not lines:
            raise shape.fail("needs at least one transition string")
        self.table: dict[tuple[str, str], list[tuple]] = {}
        for raw in lines:
            key, rule = _parse_transition(shape, as_str(shape.builtin, "transition", raw))
            self.table.setdefault(key, []).append(rule)
        for (state, port), rules in self.table.items():
            guards = [rule[0] for rule in rules]
            for i, a in enumerate(guards):
                for b in guards[i + 1 :]:
                    if not _guards_disjoint(a, b):
                        raise shape.fail(
                            f"guards {_echoed(a.render())} and {_echoed(b.render())}"
                            f" overlap in state {quoted(state)} on port {quoted(port)}"
                        )

    def initial_state(self):
        return self.initial

    def handle(self, state, port, payload, step, rng):
        for guard, next_state, emissions in self.table.get((state, port), ()):
            if guard.matches(payload):
                return next_state, [
                    (out, payload if literal is None else literal) for out, literal in emissions
                ]
        raise Fault("no_transition")


def _parse_transition(shape: _Shape, text: str) -> tuple[tuple[str, str], tuple]:
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
        emissions: list[tuple[str, Record | None]] = []
        if cursor.accept(","):
            while True:
                emissions.append(_parse_emission(shape, cursor, in_port))
                if not cursor.accept(";"):
                    break
        trailing = cursor.peek()
        if trailing.type != lexer.EOF:
            raise lexer.LexError(
                f"unexpected {describe(trailing)} in transition", trailing.line, trailing.col
            )
    except lexer.LexError as exc:
        raise shape.fail(f"bad transition {_echoed(text)}: {exc.message}") from exc
    return (state, port_name), (guard, next_state, tuple(emissions))


def _echoed(text: str) -> str:
    """Transition or guard text in quotes, whole, unless a run without
    blanks in it is longer than ECHO_LIMIT: then it is named by its length."""
    if any(len(run) > ECHO_LIMIT for run in text.split()):
        return quoted(text)
    return f"'{text}'"


def _parse_guard(shape: _Shape, cursor: TokenCursor, in_port: PortDecl) -> Guard:
    if cursor.accept("*"):
        return Guard(None)
    fname = cursor.expect(lexer.IDENT, "field name").value
    tok = cursor.peek()
    op = tok.type
    if op not in GUARD_OPS:
        raise lexer.LexError(f"expected a comparison, got {describe(tok)}", tok.line, tok.col)
    cursor.accept(op)
    literal = cursor.parse_value()
    if isinstance(literal, Ident):
        raise shape.fail(f"guard on {quoted(fname)} needs a literal")
    prim = shape.field_primitive([in_port], fname)
    if primitive_of(literal) != prim:
        raise shape.fail(
            f"guard literal {render_value(literal)} does not fit {prim} field {quoted(fname)}"
        )
    if op not in ("=", "!=") and prim != "integer":
        raise shape.fail(f"ordered comparison needs an integer field, {quoted(fname)} is {prim}")
    return Guard(fname, op, literal)


def _parse_emission(
    shape: _Shape, cursor: TokenCursor, in_port: PortDecl
) -> tuple[str, Record | None]:
    cursor.expect_keyword("emit")
    port = shape.port(cursor.expect(lexer.IDENT, "port name").value, OUT)
    if cursor.at(lexer.IDENT) and cursor.tokens[cursor.pos + 1].type == "{":
        type_name, values, name_tok = cursor.parse_payload_record()
        mdef = shape.model.message_types.get(type_name)
        if mdef is None:
            raise shape.fail(f"unknown message type {quoted(type_name)} in emission")
        if type_name != port.message_type:
            raise shape.fail(
                f"port {quoted(port.name)} carries {quoted(port.message_type, '')},"
                f" not {quoted(type_name, '')}"
            )
        try:
            payload = make_record(mdef, values)
        except ValueError as exc:
            raise shape.fail(str(exc)) from exc
        return port.name, payload
    shape.same_type(in_port, port)
    return port.name, None


def _interval(op: str, v: object) -> tuple[object, object]:
    """The closed interval an =, <, <=, > or >= guard on `v` admits; ordered
    guards are integer-only, so < and > step their literal by one."""
    if op == "=":
        return v, v
    if op[0] == "<":
        return float("-inf"), v if op == "<=" else v - 1
    return v if op == ">=" else v + 1, float("inf")


def _op_literal(guard: Guard) -> tuple[str, object]:
    """A guard's operator and literal, with != on a boolean literal read as
    = on the other one."""
    if guard.op == "!=" and isinstance(guard.literal, bool):
        return "=", not guard.literal
    return guard.op, guard.literal


def _guards_disjoint(a: Guard, b: Guard) -> bool:
    """True only when no payload can satisfy both guards: after _op_literal,
    != is disjoint only from = on its own literal, and any other pair on one
    field only when the closed intervals they admit do not meet."""
    if a.field is None or a.field != b.field:
        return False
    (aop, av), (bop, bv) = _op_literal(a), _op_literal(b)
    if aop == "!=" or bop == "!=":
        return "=" in (aop, bop) and av == bv
    (alo, ahi), (blo, bhi) = _interval(aop, av), _interval(bop, bv)
    return ahi < blo or bhi < alo


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
    """The behavior of `model`'s atomic component type `tdef`: configured
    by the first call, returned as the same object by every later one. A
    bad clause raises BehaviorConfigError on every call, and nothing is kept.
    """
    kept = configured(model)
    behavior = kept.get(tdef.name)
    if behavior is None:
        clause = tdef.behavior
        if clause is None:
            raise BehaviorConfigError(f"{quoted(tdef.name)} has no behavior clause")
        cls = BUILTINS.get(clause.builtin)
        if cls is None:
            known = ", ".join(sorted(BUILTINS))
            raise BehaviorConfigError(
                f"unknown behavior {quoted(clause.builtin)} (known: {known})"
            )
        bound = bind_args(clause, cls.params, cls.variadic)
        behavior = kept[tdef.name] = cls(_Shape(clause.builtin, tdef, model), bound)
    return behavior


def configured(model: ArchitectureModel) -> dict[str, Behavior]:
    """The model's behaviors configured so far, by type name; kept on the
    model outside its fields, so eq and repr do not see them."""
    return model.__dict__.setdefault("_behaviors", {})
