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
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import attrgetter
from random import Random

from .analyzer import ROOT_PATH, ChannelSpec, InstanceSpec, RuntimeTopology
from .behaviors import (
    MODE_BROADCAST,
    MODE_ONE,
    ActivationContext,
    Behavior,
    Emit,
    Raise,
    instantiate,
)
from .model import IN, OPEN, OUT, ArchitectureModel, Record

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

RESUME = "resume"
RESTART_STRATEGY = "restart"
ESCALATE_STRATEGY = "escalate"
STRATEGIES = (RESUME, RESTART_STRATEGY, ESCALATE_STRATEGY)

# Tokens are (context name, serial) pairs; serials count up per context.


@dataclass(slots=True)
class Event:
    step: int
    kind: str
    subject: str
    seq: int | None
    tokens: tuple[tuple[str, int], ...]
    payload: str
    # source channel for message events; kept out of the rendered trace
    channel: str = ""


@dataclass(slots=True)
class Message:
    channel: ChannelSpec
    seq: int
    payload: Record
    text: str  # payload rendered once at send, reused for its DELIVER
    # () or the tuple(sorted(...)) of a gated dispatch: always sorted and
    # free of duplicates, so a gateless hop can pass it on as it is
    tokens: tuple[tuple[str, int], ...]
    pinned: int | None = None  # replica id fixed at send time
    bind: bool = True  # broadcast copies never bind tokens


# delivery order within one arrival step
_arrival_order = attrgetter("channel.id", "seq")


@dataclass
class Replica:
    rid: int
    state: object
    rng: Random
    held: set = field(default_factory=set)
    retiring: bool = False


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
        # live replicas in id order; None until the next live() rebuilds it
        self._live: list[Replica] | None = None
        self.grow(1)

    def grow(self, count: int) -> None:
        self._live = None
        for _ in range(count):
            rid = self.next_rid
            self.next_rid += 1
            state = self.behavior.initial_state() if self.behavior else None
            rng = Random(f"{self.seed}:{self.path}#{rid}")
            self.replicas[rid] = Replica(rid, state, rng)

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


@dataclass(slots=True)
class Injection:
    step: int
    port: str
    payload: Record


@dataclass(frozen=True)
class ScaleDirective:
    step: int
    path: str
    count: int


@dataclass(frozen=True)
class FaultDirective:
    step: int
    path: str
    kind: str
    rid: int | None = None  # None faults the lowest live replica
    line: int = 0  # scenario line of the directive, 0 when built directly


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
        model: ArchitectureModel,
        topology: RuntimeTopology,
        *,
        seed: int = 0,
        strategies: dict[str, str] | None = None,
        injections: list[Injection] | None = None,
        scales: list[ScaleDirective] | None = None,
        faults: list[FaultDirective] | None = None,
        maxsteps: int = 1000,
    ):
        self.model = model
        self.topology = topology
        self.seed = seed
        self.strategies = dict(strategies or {})
        self.injections = list(injections or [])
        self.scales = list(scales or [])
        self.faults = list(faults or [])
        self.maxsteps = maxsteps

        self.groups: dict[str, Group] = {}
        for inst in topology.instances.values():
            if inst.atomic:
                behavior = (
                    instantiate(inst.type_def, model)
                    if inst.type_def.behavior is not None
                    else None
                )
                self.groups[inst.path] = Group(inst, behavior, seed)

        self.seq_counters: dict[str, int] = {}
        self.token_counters: dict[str, int] = {}
        self.bindings: dict[tuple[str, tuple[str, int]], int] = {}
        # arrival step -> messages due then, in send order
        self.in_flight: dict[int, list[Message]] = {}
        self.events: list[Event] = []
        # root out port -> (arrival step, payload) per delivered message
        self.out_streams: dict[str, list[tuple[int, Record]]] = {
            p.name: []
            for p in topology.root.type_def.ports
            if p.direction == OUT
        }
        self.step = 0
        self.truncated = False

        self._validate_directives()

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

    # -- setup ------------------------------------------------------------

    def _validate_directives(self) -> None:
        root_in = {
            p.name: p.message_type
            for p in self.topology.root.type_def.ports
            if p.direction == IN
        }
        for inj in self.injections:
            if inj.port not in root_in:
                raise KernelError(f"no in port '{inj.port}' on the root component")
            if inj.payload.type_name != root_in[inj.port]:
                raise KernelError(
                    f"port '{inj.port}' carries {root_in[inj.port]}, "
                    f"not {inj.payload.type_name}"
                )
        for sc in self.scales:
            group = self.groups.get(sc.path)
            if group is None or not group.inst.replicating:
                raise KernelError(f"'{sc.path}' is not a replicating instance")
            if sc.count < 1:
                raise KernelError("replica count must be at least 1")
        for f in self.faults:
            if f.path not in self.groups:
                raise KernelError(f"'{f.path}' is not an atomic instance")
        for path, strategy in self.strategies.items():
            if path not in self.topology.instances:
                raise KernelError(f"unknown instance '{path}'")
            if strategy not in STRATEGIES:
                raise KernelError(f"unknown strategy '{strategy}'")

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
        due.sort(key=_arrival_order)
        step = self.step
        events = self.events
        activations: list[tuple[Group, Replica, Message]] = []
        for m in due:
            ch = m.channel
            if ch.external:
                events.append(Event(
                    step, DELIVER, f"{ROOT_PATH}.{ch.target_port}",
                    m.seq, m.tokens, m.text, ch.id,
                ))
                self.out_streams[ch.target_port].append((step, m.payload))
                continue
            group = self.groups[ch.target_path]
            replica = self._select(group, m)
            events.append(Event(
                step, DELIVER, f"{group.path}#{replica.rid}.{ch.target_port}",
                m.seq, m.tokens, m.text, ch.id,
            ))
            activations.append((group, replica, m))
        # every delivery is traced before the first activation runs
        for group, replica, m in activations:
            self._activate(group, replica, m)

    def _select(self, group: Group, m: Message) -> Replica:
        tokens = m.tokens
        if m.pinned is not None:
            replica = group.replicas.get(m.pinned)
            if replica is None:
                raise KernelError(
                    f"message pinned to missing replica {group.path}#{m.pinned}"
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
        if tokens and m.bind and m.channel.group:
            fresh = tuple(
                tok for tok in tokens if (group.path, tok) not in self.bindings
            )
            if fresh:
                for tok in fresh:
                    self.bindings[(group.path, tok)] = replica.rid
                self._event(
                    BIND, f"{group.path}#{replica.rid}", m.seq, fresh, "-", m.channel.id
                )
        return replica

    def _activate(self, group: Group, replica: Replica, m: Message) -> None:
        ctx = ActivationContext(self.step, replica.rng)
        state, actions = group.behavior.handle(
            replica.state, m.channel.target_port, m.payload, ctx
        )
        if not actions:
            replica.state = state
            replica.held.update(m.tokens)
            return
        for act in actions:
            if isinstance(act, Raise):
                # a fault abandons the activation: no state commit, no sends
                self._fault(group.path, replica.rid, act.kind)
                return
        replica.state = state
        for act in actions:
            self._send(group.path, act, m.tokens)

    # -- sending ------------------------------------------------------------

    def _send(self, path: str, emit: Emit, tokens: tuple) -> None:
        channels = self.topology.channels_from.get((path, emit.port), [])
        if emit.mode == MODE_ONE:
            for ch in channels:
                self._dispatch(ch, emit.payload, tokens)
            return
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
        seq = self.seq_counters.get(ch.id, 0) + 1
        self.seq_counters[ch.id] = seq
        # a gateless hop passes the sender's tokens on as they are
        if ch.gates:
            toks = set(tokens)
            for action, ctx_name in ch.gates:
                if action == OPEN:
                    serial = self.token_counters.get(ctx_name, 0)
                    self.token_counters[ctx_name] = serial + 1
                    tok = (ctx_name, serial)
                    toks.add(tok)
                    self._event(MINT, ch.id, seq, (tok,), "-", ch.id)
                else:
                    stripped = tuple(sorted(t for t in toks if t[0] == ctx_name))
                    if stripped:
                        toks.difference_update(stripped)
                        self._event(STRIP, ch.id, seq, stripped, "-", ch.id)
            tokens = tuple(sorted(toks))
        text = payload.render()
        self.events.append(Event(self.step, SEND, ch.id, seq, tokens, text, ch.id))
        arrive = self.step + ch.latency
        bucket = self.in_flight.get(arrive)
        if bucket is None:
            bucket = self.in_flight[arrive] = []
            heapq.heappush(self._agenda, arrive)
        bucket.append(Message(ch, seq, payload, text, tokens, pinned, bind))

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
        prefix = path + "/"
        for group_path, group in self.groups.items():
            if group_path != path and not group_path.startswith(prefix):
                continue
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
        self._event(
            SCALE, path, None, (), f"target={target},size={group.size()}"
        )

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
                self._event(
                    SCALE,
                    group.path,
                    None,
                    (),
                    f"target={group.target},size={group.size()}",
                )

    def _drained(self, group: Group, replica: Replica) -> bool:
        if replica.held:
            return False
        for (gpath, _tok), rid in self.bindings.items():
            if gpath == group.path and rid == replica.rid:
                return False
        for bucket in self.in_flight.values():
            for m in bucket:
                if m.channel.external or m.channel.target_path != group.path:
                    continue
                if m.pinned == replica.rid:
                    return False
                for tok in m.tokens:
                    if self.bindings.get((group.path, tok)) == replica.rid:
                        return False
        return True
