"""Deterministic discrete-step execution kernel.

Time advances in integer steps. A step runs four phases:

  1. scheduled directives: all scales, then all faults, then all injects,
     each category in declaration order;
  2. delivery of every message whose arrival step is due, in the total
     order (arrival step, channel id, sequence number);
  3. one activation per delivered message, in the same total order; a
     replica keeps no mailbox, since the channels already give FIFO order
     and every message delivered in a step is handled in that step;
  4. a retirement sweep that removes drained replicas marked for
     shrinking.

The run loop keeps an agenda: directives and in-flight messages are
bucketed by step, and a heap holds the steps that have a bucket. After a
step the kernel jumps straight to the next such step, so a step with no
directive and no arrival costs nothing. Nothing can happen on such a step
(no phase has work, and no replica can become drained), so step numbers
in traces are those of a run that ticks through every step. A run that
ends by quiescence stops on its last active step; a run whose next
active step lies past `maxsteps` stops at `maxsteps + 1`, truncated.

All choice points (replica selection, token binding, escalation) are
functions of this order plus the scenario seed, so a run is reproducible
event for event.

The kernel configures no behaviors: each group runs the behavior that
analyzer.elaborate() configured for its component type and put on the
instance, shared with every other instance of that type. Only the
per-replica states are the kernel's own.

A replica gets a random generator, seeded from the scenario seed and its
"path#rid", only when its behavior draws (Behavior.draws). The kernel
keeps one ActivationContext for all activations: it sets ctx.step once
per step and ctx.rng before each activation, to the replica's generator,
or None for every replica whose behavior does not draw. So a handle()
must not keep ctx after it returns. A replica also builds the subject
strings of its events once, when it starts, and every event it is the
subject of shares them.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from random import Random

from .analyzer import ROOT_PATH, ChannelSpec, InstanceSpec, RuntimeTopology
from .behaviors import (
    MODE_BROADCAST,
    MODE_ONE,
    ActivationContext,
    Behavior,
    Emit,
    Raise,
)
from .diagnostics import E_SYNTAX, E_TYPE_MISMATCH, E_UNRESOLVED, quoted
from .model import IN, OPEN, OUT, Record
from .values import Frozen, Value, set_field

SEND = "SEND"
DELIVER = "DELIVER"
MINT = "MINT"
STRIP = "STRIP"
BIND = "BIND"
RAISE = "RAISE"
RESTART = "RESTART"
ESCALATE = "ESCALATE"
SCALE = "SCALE"
FATAL = "FATAL"
EVENT_KINDS = (SEND, DELIVER, MINT, STRIP, BIND, RAISE, RESTART, ESCALATE, SCALE, FATAL)

RESUME = "resume"
RESTART_STRATEGY = "restart"
ESCALATE_STRATEGY = "escalate"
STRATEGIES = (RESUME, RESTART_STRATEGY, ESCALATE_STRATEGY)

# Tokens are (context name, serial) pairs; serials count up per context.


class Event(Value):
    __slots__ = ("step", "kind", "subject", "seq", "tokens", "payload", "channel")
    _fields = __slots__

    def __init__(
        self,
        step: int,
        kind: str,
        subject: str,
        seq: int | None,
        tokens: tuple[tuple[str, int], ...],
        payload: str,
        channel: str = "",
    ):
        self.step = step
        self.kind = kind
        self.subject = subject
        self.seq = seq
        self.tokens = tokens
        self.payload = payload
        # source channel for message events; kept out of the rendered trace
        self.channel = channel


class Replica(Value):
    _fields = ("rid", "state", "rng", "name", "subjects", "held", "retiring")

    def __init__(
        self,
        rid: int,
        state: object,
        rng: Random | None,
        name: str,
        subjects: dict[str, str],
        held: set | None = None,
        retiring: bool = False,
    ):
        self.rid = rid
        self.state = state
        self.rng = rng  # seeded only when the group's behavior draws
        self.name = name  # "path#rid", the subject of its BIND events
        # in port -> "path#rid.port", the subject of its DELIVER events
        self.subjects = subjects
        self.held = set() if held is None else held
        self.retiring = retiring


class Group:
    """All replicas of one atomic instance; size 1 unless replicating."""

    def __init__(self, inst: InstanceSpec, behavior: Behavior | None, seed: int):
        self.inst = inst
        self.path = inst.path
        self.behavior = behavior
        self.seed = seed
        self.replicas: dict[int, Replica] = {}
        self.next_rid = 0
        self.rr = 0  # round-robin cursor, advanced only on round-robin picks
        self.target = 1
        self.in_ports = [p.name for p in inst.type_def.ports if p.direction == IN]
        # live replicas in id order; None until the next live() rebuilds it
        self._live: list[Replica] | None = None
        self.grow(1)

    def grow(self, count: int) -> None:
        self._live = None
        behavior = self.behavior
        for _ in range(count):
            rid = self.next_rid
            self.next_rid += 1
            state = behavior.initial_state() if behavior else None
            name = f"{self.path}#{rid}"
            rng = Random(f"{self.seed}:{name}") if behavior and behavior.draws else None
            subjects = {port: f"{name}.{port}" for port in self.in_ports}
            self.replicas[rid] = Replica(rid, state, rng, name, subjects)

    def shrink(self, target: int) -> bool:
        """Mark the live replicas past the first `target` retiring; True if
        any were marked."""
        extra = self.live()[target:]
        for replica in extra:
            replica.retiring = True
        if extra:
            self._live = None
        return bool(extra)

    def live(self) -> list[Replica]:
        """Non-retiring replicas in id order. Callers must not mutate the
        list; anything that adds a replica or marks one retiring clears it."""
        if self._live is None:
            self._live = [
                r for _, r in sorted(self.replicas.items()) if not r.retiring
            ]
        return self._live

    def size(self) -> int:
        return len(self.replicas)


# A directive keeps its scenario line, 0 when built directly.
class Injection(Value):
    __slots__ = ("step", "port", "payload", "line")
    _fields = __slots__

    def __init__(self, step: int, port: str, payload: Record, line: int = 0):
        self.step = step
        self.port = port
        self.payload = payload
        self.line = line


class ScaleDirective(Frozen):
    _fields = ("step", "path", "count", "line")

    def __init__(self, step: int, path: str, count: int, line: int = 0):
        set_field(self, "step", step)
        set_field(self, "path", path)
        set_field(self, "count", count)
        set_field(self, "line", line)


class FaultDirective(Frozen):
    _fields = ("step", "path", "kind", "rid", "line")

    def __init__(
        self, step: int, path: str, kind: str, rid: int | None = None, line: int = 0
    ):
        set_field(self, "step", step)
        set_field(self, "path", path)
        set_field(self, "kind", kind)
        set_field(self, "rid", rid)  # None faults the lowest live replica
        set_field(self, "line", line)


# -- directive rules --------------------------------------------------------
# Which directives a run can execute, stated once. A rule gives None or a
# Problem, (scenario line or 0, diagnostic code, message): the scenario
# reader reports each problem as a diagnostic, and Kernel raises the first.
Problem = tuple[int, str, str]


def maxsteps_problem(maxsteps: int, line: int = 0) -> Problem | None:
    return (line, E_SYNTAX, "maxsteps must not be negative") if maxsteps < 0 else None


def strategy_problem(strategy: str, line: int = 0) -> Problem | None:
    if strategy in STRATEGIES:
        return None
    return line, E_SYNTAX, f"unknown strategy {quoted(strategy)}"


def root_in_ports(topology: RuntimeTopology) -> dict[str, str]:
    """The message type of each in port of the root, the ports injects use."""
    return {p.name: p.message_type for p in topology.root.type_def.ports if p.direction == IN}


def inject_port_problem(root_in: dict[str, str], port: str, line: int = 0) -> Problem | None:
    if port in root_in:
        return None
    return line, E_UNRESOLVED, f"the root component has no in port {quoted(port)}"


def payload_type_problem(want: str, got: str, line: int = 0) -> Problem | None:
    if got == want:
        return None
    return line, E_TYPE_MISMATCH, f"port carries {want}, not {got}"


def step_problem(step: int, line: int = 0) -> Problem | None:
    return (line, E_SYNTAX, "step must not be negative") if step < 0 else None


def _unknown_instance(path: str, line: int) -> Problem:
    return line, E_UNRESOLVED, f"unknown instance {quoted(path)}"


def directive_problems(
    topology: RuntimeTopology,
    *,
    strategies: Iterable[tuple[int, str, str]] = (),
    scales: Iterable[ScaleDirective] = (),
    faults: Iterable[FaultDirective] = (),
    injections: Iterable[Injection] = (),
    maxsteps: int = 0,
) -> list[Problem]:
    """The problem of each directive a run cannot execute, for its first
    failing rule: maxsteps, then strategies, scales, faults and injections,
    each in the order given. Strategies are (line, path, strategy) triples."""
    instances = topology.instances
    problems = [maxsteps_problem(maxsteps)]
    for line, path, strategy in strategies:
        problem = strategy_problem(strategy, line)
        if problem is None and path not in instances:
            problem = _unknown_instance(path, line)
        problems.append(problem)
    for sc in scales:
        inst = instances.get(sc.path)
        if inst is None:
            problem = _unknown_instance(sc.path, sc.line)
        elif not inst.replicating:
            problem = sc.line, E_UNRESOLVED, f"{quoted(sc.path)} is not a replicating instance"
        elif sc.count < 1:
            problem = sc.line, E_SYNTAX, "replica count must be at least 1"
        else:
            problem = step_problem(sc.step, sc.line)
        problems.append(problem)
    for f in faults:
        inst = instances.get(f.path)
        if inst is None:
            problem = _unknown_instance(f.path, f.line)
        elif not inst.atomic:
            problem = f.line, E_UNRESOLVED, f"{quoted(f.path)} is not an atomic instance"
        else:
            problem = step_problem(f.step, f.line)
        problems.append(problem)
    root_in = root_in_ports(topology)
    for inj in injections:
        problem = inject_port_problem(root_in, inj.port, inj.line)
        if problem is None:
            problem = payload_type_problem(root_in[inj.port], inj.payload.type_name, inj.line)
        problems.append(problem or step_problem(inj.step, inj.line))
    return [p for p in problems if p is not None]


class KernelError(Exception):
    """A run that cannot go on; line is the scenario line at fault, or 0."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(message)
        self.line = line


class FatalUnhandled(Exception):
    def __init__(self, path: str, kind: str):
        super().__init__(f"unhandled fault '{kind}' from {path}")
        self.path = path
        self.kind = kind


class Kernel:
    def __init__(
        self,
        topology: RuntimeTopology,
        *,
        seed: int = 0,
        strategies: dict[str, str] | None = None,
        injections: list[Injection] | None = None,
        scales: list[ScaleDirective] | None = None,
        faults: list[FaultDirective] | None = None,
        maxsteps: int = 1000,
    ):
        self.topology = topology
        self.seed = seed
        self.strategies = dict(strategies or {})
        self.injections = list(injections or [])
        self.scales = list(scales or [])
        self.faults = list(faults or [])
        self.maxsteps = maxsteps

        self.groups: dict[str, Group] = {
            inst.path: Group(inst, inst.behavior, seed)
            for inst in topology.instances.values()
            if inst.atomic
        }

        self.seq_counters: dict[str, int] = {}
        self.token_counters: dict[str, int] = {}
        self.bindings: dict[tuple[str, tuple[str, int]], int] = {}
        # arrival step -> messages due then, in send order. A message is a
        # tuple (channel id, seq, channel, payload, text, tokens, pinned, bind):
        # - (channel id, seq) is unique, so the tuple's own order is the
        #   delivery order within one arrival step;
        # - text is the payload rendered once at send, reused for its DELIVER;
        # - tokens is () or the tuple(sorted(...)) of a gated dispatch: always
        #   sorted and free of duplicates, so a gateless hop passes it on as
        #   it is;
        # - pinned is the replica id fixed at send time, or None;
        # - bind is False for broadcast copies, which never bind tokens.
        self.in_flight: dict[int, list[tuple]] = {}
        self.events: list[Event] = []
        # root out port -> (arrival step, payload) per delivered message
        self.out_streams: dict[str, list[tuple[int, Record]]] = {
            p.name: []
            for p in topology.root.type_def.ports
            if p.direction == OUT
        }
        # root out port -> "root.port", the subject of its DELIVER events
        self._root_subjects = {port: f"{ROOT_PATH}.{port}" for port in self.out_streams}
        self.step = 0
        self.truncated = False
        # the context of every activation; see the module docstring
        self._ctx = ActivationContext(0, None)

        problems = directive_problems(
            topology, strategies=[(0, path, s) for path, s in self.strategies.items()],
            scales=self.scales, faults=self.faults, injections=self.injections,
            maxsteps=maxsteps,
        )
        if problems:
            line, _code, message = problems[0]
            raise KernelError(message, line)

        # step -> (scales, faults, injections) due then, each in declaration order
        self._directives: dict[int, tuple[list, list, list]] = {}
        for slot, batch in enumerate((self.scales, self.faults, self.injections)):
            for d in batch:
                self._directives.setdefault(d.step, ([], [], []))[slot].append(d)
        # steps that have a directive or an in-flight bucket; may repeat
        self._agenda: list[int] = list(self._directives)
        heapq.heapify(self._agenda)
        # groups with a retiring replica, visited by the sweep in group order
        self._retiring: set[str] = set()
        self._group_rank = {path: i for i, path in enumerate(self.groups)}
        # instance path -> the groups at and below it; built on the first restart
        self._subtrees: dict[str, list[Group]] | None = None

    # -- event helpers ----------------------------------------------------

    def _event(
        self,
        kind: str,
        subject: str,
        seq: int | None = None,
        tokens: tuple = (),
        payload: str = "-",
        channel: str = "",
    ) -> None:
        self.events.append(
            Event(self.step, kind, subject, seq, tokens, payload, channel)
        )

    # -- run loop ----------------------------------------------------------

    def run(self) -> None:
        """Execute until quiescence, a step budget, or an unhandled fault."""
        agenda = self._agenda
        while self.step <= self.maxsteps:
            self._run_directives()
            self._deliver_and_activate()
            self._sweep()
            while agenda and agenda[0] <= self.step:
                heapq.heappop(agenda)
            if not agenda:
                return
            self.step = min(heapq.heappop(agenda), self.maxsteps + 1)
        self.truncated = True

    def _run_directives(self) -> None:
        due = self._directives.pop(self.step, None)
        if due is None:
            return
        scales, faults, injections = due
        for sc in scales:
            self._scale(sc.path, sc.count)
        for f in faults:
            group = self.groups[f.path]
            rid = f.rid
            if rid is None:
                live = group.live()
                if not live:
                    raise KernelError(f"no live replica of '{f.path}' to fault", f.line)
                rid = live[0].rid
            elif rid not in group.replicas:
                raise KernelError(
                    f"no replica {f.path}#{rid} at step {self.step} to fault", f.line
                )
            self._fault(group.inst.path, rid, f.kind)
        for inj in injections:
            for ch in self.topology.channels_from.get((ROOT_PATH, inj.port), []):
                self._dispatch(ch, inj.payload, ())

    def _deliver_and_activate(self) -> None:
        due = self.in_flight.pop(self.step, None)
        if due is None:
            return
        due.sort()
        step = self.step
        events = self.events
        activations = []
        for m in due:
            cid, seq, ch, payload, text, tokens, pinned, _bind = m
            if ch.external:
                events.append(Event(
                    step, DELIVER, self._root_subjects[ch.target_port],
                    seq, tokens, text, cid,
                ))
                self.out_streams[ch.target_port].append((step, payload))
                continue
            group = self.groups[ch.target_path]
            if pinned is None and not tokens:
                live = group.live()
                if not live:
                    raise KernelError(f"no live replica of '{group.path}'")
                replica = live[group.rr % len(live)]
                group.rr += 1
            else:
                replica = self._select(group, m)
            events.append(Event(
                step, DELIVER, replica.subjects[ch.target_port], seq, tokens, text, cid,
            ))
            activations.append((group, replica, ch.target_port, payload, tokens))
        # every delivery is traced before the first activation runs
        ctx = self._ctx
        ctx.step = step
        channels_from = self.topology.channels_from
        for group, replica, port, payload, tokens in activations:
            ctx.rng = replica.rng
            state, actions = group.behavior.handle(replica.state, port, payload, ctx)
            if not actions:
                replica.state = state
                replica.held.update(tokens)
                continue
            for act in actions:
                if isinstance(act, Raise):
                    # a fault abandons the activation: no state commit, no sends
                    self._fault(group.path, replica.rid, act.kind)
                    break
            else:
                replica.state = state
                for act in actions:
                    if act.mode == MODE_ONE:
                        for out in channels_from.get((group.path, act.port), ()):
                            self._dispatch(out, act.payload, tokens)
                    else:
                        self._send(group.path, act, tokens)

    def _select(self, group: Group, m: tuple) -> Replica:
        """The replica a pinned or tokened message goes to; binds its fresh
        tokens there."""
        cid, seq, ch, _payload, _text, tokens, pinned, bind = m
        if pinned is not None:
            replica = group.replicas.get(pinned)
            if replica is None:
                raise KernelError(
                    f"message pinned to missing replica {group.path}#{pinned}"
                )
        else:
            # tokens are sorted, so the first bound one is the least
            rid = None
            for tok in tokens:
                rid = self.bindings.get((group.path, tok))
                if rid is not None:
                    break
            if rid is not None:
                replica = group.replicas[rid]
            else:
                live = group.live()
                if not live:
                    raise KernelError(f"no live replica of '{group.path}'")
                replica = live[group.rr % len(live)]
                group.rr += 1
        if tokens and bind and ch.group:
            fresh = tuple(
                tok for tok in tokens if (group.path, tok) not in self.bindings
            )
            if fresh:
                for tok in fresh:
                    self.bindings[(group.path, tok)] = replica.rid
                self._event(BIND, replica.name, seq, fresh, "-", cid)
        return replica

    # -- sending ------------------------------------------------------------

    def _send(self, path: str, emit: Emit, tokens: tuple) -> None:
        """Send a broadcast or index emit into the one replica group its
        port reaches."""
        channels = self.topology.channels_from.get((path, emit.port), [])
        if len(channels) != 1 or not channels[0].group:
            raise KernelError(
                f"{emit.mode} through '{path}.{emit.port}' needs exactly one "
                "channel into a replica group"
            )
        ch = channels[0]
        live = self.groups[ch.target_path].live()
        if emit.mode == MODE_BROADCAST:
            for replica in live:
                self._dispatch(ch, emit.payload, tokens, pinned=replica.rid, bind=False)
        else:
            replica = live[emit.index % len(live)]
            self._dispatch(ch, emit.payload, tokens, pinned=replica.rid)

    def _dispatch(
        self,
        ch: ChannelSpec,
        payload: Record,
        tokens: tuple,
        pinned: int | None = None,
        bind: bool = True,
    ) -> None:
        cid = ch.id
        seq = self.seq_counters.get(cid, 0) + 1
        self.seq_counters[cid] = seq
        # a gateless hop passes the sender's tokens on as they are
        if ch.gates:
            toks = set(tokens)
            for action, ctx_name in ch.gates:
                if action == OPEN:
                    serial = self.token_counters.get(ctx_name, 0)
                    self.token_counters[ctx_name] = serial + 1
                    tok = (ctx_name, serial)
                    toks.add(tok)
                    self._event(MINT, cid, seq, (tok,), "-", cid)
                else:
                    stripped = tuple(sorted(t for t in toks if t[0] == ctx_name))
                    if stripped:
                        toks.difference_update(stripped)
                        self._event(STRIP, cid, seq, stripped, "-", cid)
            tokens = tuple(sorted(toks))
        text = payload.render()
        self.events.append(Event(self.step, SEND, cid, seq, tokens, text, cid))
        arrive = self.step + ch.latency
        bucket = self.in_flight.get(arrive)
        if bucket is None:
            bucket = self.in_flight[arrive] = []
            heapq.heappush(self._agenda, arrive)
        bucket.append((cid, seq, ch, payload, text, tokens, pinned, bind))

    # -- supervision ---------------------------------------------------------

    def _fault(self, path: str, rid: int, kind: str) -> None:
        self._event(RAISE, f"{path}#{rid}", None, (), kind)
        child = path
        decider = path
        while True:
            strategy = self.strategies.get(decider, ESCALATE_STRATEGY)
            if strategy == RESUME:
                return
            if strategy == RESTART_STRATEGY:
                self._event(RESTART, child, None, (), kind)
                self._restart_subtree(child)
                return
            self._event(ESCALATE, decider, None, (), kind)
            if decider == ROOT_PATH:
                self._event(FATAL, ROOT_PATH, None, (), kind)
                raise FatalUnhandled(path, kind)
            child = decider
            decider = self.topology.instances[decider].parent

    def _restart_subtree(self, path: str) -> None:
        if self._subtrees is None:
            # each group joins the list of every instance above it, in group order
            self._subtrees = {}
            for group in self.groups.values():
                ancestor = group.path
                while ancestor is not None:
                    self._subtrees.setdefault(ancestor, []).append(group)
                    ancestor = self.topology.instances[ancestor].parent
        for group in self._subtrees.get(path, ()):
            for replica in group.replicas.values():
                replica.state = (
                    group.behavior.initial_state() if group.behavior else None
                )
                replica.held.clear()
                # later activations of this step and messages still in
                # flight are handled against the fresh state

    # -- scaling ---------------------------------------------------------------

    def _scale(self, path: str, target: int) -> None:
        group = self.groups[path]
        group.target = target
        live = group.live()
        if target > len(live):
            group.grow(target - len(live))
        elif group.shrink(target):
            self._retiring.add(path)
        self._scale_event(group)

    def _scale_event(self, group: Group) -> None:
        self._event(SCALE, group.path, None, (), f"target={group.target},size={group.size()}")

    def _sweep(self) -> None:
        for path in sorted(self._retiring, key=self._group_rank.__getitem__):
            group = self.groups[path]
            removed = waiting = False
            for replica in list(group.replicas.values()):
                if not replica.retiring:
                    continue
                if self._drained(group, replica):
                    del group.replicas[replica.rid]
                    removed = True
                else:
                    waiting = True
            if not waiting:
                self._retiring.discard(path)
            if removed:
                self._scale_event(group)

    def _drained(self, group: Group, replica: Replica) -> bool:
        if replica.held:
            return False
        for (gpath, _tok), rid in self.bindings.items():
            if gpath == group.path and rid == replica.rid:
                return False
        for bucket in self.in_flight.values():
            for _cid, _seq, ch, _payload, _text, _tokens, pinned, _bind in bucket:
                if ch.external or ch.target_path != group.path:
                    continue
                if pinned == replica.rid:
                    return False
        return True
