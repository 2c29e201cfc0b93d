"""Deterministic discrete-step execution kernel.

Time advances in integer steps. A step runs four phases:

  1. scheduled directives: all scales, then all faults, then all injects,
     each category in declaration order;
  2. delivery of every message whose arrival step is due, in the total
     order (arrival step, channel id, sequence number);
  3. one activation per delivered message, in the same total order; a
     replica keeps no mailbox, since the channels already give FIFO order
     and every message delivered in a step is handled in that step. An
     activation commits the state handle() returns and sends its emits
     by the behavior's mode; one that raises Fault commits and sends
     nothing and goes to the replica's supervisor;
  4. a retirement sweep that removes drained replicas marked for
     shrinking.

A directive is a plain tuple, step first:

  scale   (step, path, count, line)
  fault   (step, path, kind, rid, line)
  inject  (step, port, payload, line)

A fault's rid None faults the lowest live replica. line is the
directive's scenario line, or 0 for one built directly.

The run loop keeps an agenda. Each kind of directive waits on its own
stack, sorted by step with the earliest on top, and a step pops the
directives due then; the sort is stable, so those of one step keep their
declaration order. Only a step that has a directive runs phase 1, and
only a step with a retiring replica runs phase 4. In-flight messages are
bucketed by arrival step. A heap holds the steps that have a directive
or a bucket. After a step the kernel jumps straight to the next such
step, so a step with no directive and no arrival costs nothing. Nothing
can happen on such a step (no phase has work, and no replica can become
drained), so step numbers in traces are those of a run that ticks
through every step. A run that ends by quiescence stops on its last
active step; a run whose next active step lies past `maxsteps` stops at
`maxsteps + 1`, truncated.

All choice points (replica selection, token binding, escalation) are
functions of this order plus the scenario seed, so a run is reproducible
event for event.

Every message is sent by one loop, _activate, which takes a batch of
activations: the directive phase hands it the step's injects, and the
delivery phase the step's deliveries. It runs each behavior and sends each
emit to its send targets, (channel, pinned replica id or None, bind). A
group's routes map each out port to the targets of its channels, built
once when the kernel is; a broadcast or index emit builds its targets,
pinned to live replicas, when it is sent. A send numbers the message on
its channel, passes its tokens through the channel's gates (_gate), traces
the SEND and puts the message in flight.

Tokens on a message are a sorted tuple without duplicates. _gate keeps
them so: an opening gate inserts the fresh token in order and a closing
gate filters out its context's tokens, so a gateless hop passes the tuple
on as it is.

The delivery loop picks the replica of each message from the channel's
delivery plan, (group, sole replica, DELIVER subject), resolved when the
kernel is built. A channel to the root boundary has no group. An instance
that does not replicate has one replica for the whole run (scale
directives refuse it, and pins and bindings need a channel into a replica
group), so its plan names that replica and its DELIVER subject. Into a
replica group, a pinned message (a broadcast copy or an index emit) goes
to its replica; otherwise a tokened message goes to the replica bound to
its least bound token; otherwise round robin over the live replicas. One
pass over the tokens finds the bound one and the fresh ones, which then
bind to that replica, except on broadcast copies, and the BIND is traced
before its DELIVER.

Building the kernel checks the directives (directive_problems) and that
each port that selects replicas feeds one channel into a replica group
(analyzer.check_selection_ports). The run then relies on two invariants:
a group always has a live replica, since a scale count is at least 1; and
a replica is removed only when _drained finds no token held by it, no
binding to it and no message in flight pinned to it, so a pin or a
binding always names a replica that exists.

The kernel configures no behaviors: each group runs the behavior that
analyzer.elaborate() configured for its component type and put on the
instance, shared with every other instance of that type. Only the
per-replica states are the kernel's own.

A replica gets a random generator, seeded from the scenario seed and its
"path#rid", only when its behavior draws (Behavior.draws); every other
replica's activations get rng None. A replica also builds the subject
strings of its events once, when it starts, and every event it is the
subject of shares them.

Kernel.events is the run's history: one plain tuple per event,

  (step, kind, subject, seq, tokens, payload, channel)

- step: the step it happened on;
- kind: one of EVENT_KINDS;
- subject: a channel id, an instance path, "path#rid", or the
  "path#rid.port" or "root.port" a DELIVER reaches;
- seq: the message's sequence number on its channel, or None;
- tokens: () or a tuple of (context name, serial) tokens;
- payload: the payload rendered to text, a fault kind, a SCALE's
  "target=...,size=...", or "-";
- channel: the source channel id of a message event, else ""; it is kept
  out of the rendered trace.

Every field is an int, a str, None or a tuple of them, so after its first
collections the garbage collector stops tracking an event.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections.abc import Iterable
from operator import itemgetter
from random import Random

from .analyzer import ROOT_PATH, ChannelSpec, InstanceSpec, RuntimeTopology, check_selection_ports
from .behaviors import MODE_BROADCAST, MODE_ONE, Fault
from .diagnostics import E_SYNTAX, E_TYPE_MISMATCH, E_UNRESOLVED, quoted
from .model import IN, OPEN, OUT, Record
from .values import Value

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


class Replica(Value):
    _fields = ("rid", "state", "rng", "name", "subjects", "held", "retiring")

    def __init__(
        self, rid: int, state: object, rng: Random | None, name: str, subjects: dict[str, str]
    ):
        self.rid = rid
        self.state = state
        self.rng = rng  # seeded only when the group's behavior draws
        self.name = name  # "path#rid", the subject of its BIND events
        # in port -> "path#rid.port", the subject of its DELIVER events
        self.subjects = subjects
        self.held: set = set()  # tokens absorbed by activations that emitted nothing
        self.retiring = False


class Group:
    """All replicas of one atomic instance; size 1 unless replicating."""

    def __init__(self, inst: InstanceSpec, seed: int):
        self.inst = inst
        self.path = inst.path
        self.behavior = inst.behavior
        self.seed = seed
        self.replicas: dict[int, Replica] = {}
        self.next_rid = 0
        self.rr = 0  # round-robin cursor, advanced only on round-robin picks
        self.target = 1
        self.in_ports = [p.name for p in inst.type_def.ports if p.direction == IN]
        # out port -> the send targets (channel, None, True) of its
        # channels; Kernel fills it in
        self.routes: dict[str, list[tuple]] = {}
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


# -- directive rules --------------------------------------------------------
# Which directives a run can execute, stated once. A rule gives None or a
# Problem, (scenario line or 0, diagnostic code, message): the scenario
# reader reports each problem as a diagnostic, and Kernel raises the first.
Problem = tuple[int, str, str]


DEFAULT_MAXSTEPS = 1000  # the step budget of a run that sets none


def maxsteps_problem(maxsteps: int) -> Problem | None:
    return (0, E_SYNTAX, "maxsteps must not be negative") if maxsteps < 0 else None


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
    scales: Iterable[tuple] = (),
    faults: Iterable[tuple] = (),
    injections: Iterable[tuple] = (),
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
    for step, path, count, line in scales:
        inst = instances.get(path)
        if inst is None:
            problem = _unknown_instance(path, line)
        elif not inst.replicating:
            problem = line, E_UNRESOLVED, f"{quoted(path)} is not a replicating instance"
        elif count < 1:
            problem = line, E_SYNTAX, "replica count must be at least 1"
        else:
            problem = step_problem(step, line)
        problems.append(problem)
    for step, path, _kind, _rid, line in faults:
        inst = instances.get(path)
        if inst is None:
            problem = _unknown_instance(path, line)
        elif not inst.atomic:
            problem = line, E_UNRESOLVED, f"{quoted(path)} is not an atomic instance"
        else:
            problem = step_problem(step, line)
        problems.append(problem)
    root_in = root_in_ports(topology)
    for step, port, payload, line in injections:
        problem = inject_port_problem(root_in, port, line)
        if problem is None:
            problem = payload_type_problem(root_in[port], payload.type_name, line)
        problems.append(problem or step_problem(step, line))
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
        injections: Iterable[tuple] | None = None,
        scales: Iterable[tuple] | None = None,
        faults: Iterable[tuple] | None = None,
        maxsteps: int = DEFAULT_MAXSTEPS,
    ):
        self.topology = topology
        self.strategies = dict(strategies or {})
        self.maxsteps = maxsteps

        self.groups: dict[str, Group] = {
            inst.path: Group(inst, seed)
            for inst in topology.instances.values()
            if inst.atomic
        }
        # root port -> the send targets of its injects; an atomic root is
        # also a group, whose own in ports feed it
        self._inject_routes: dict[str, list[tuple]] = {}
        for (path, port), channels in topology.channels_from.items():
            targets = [(ch, None, True) for ch in channels]
            group = self.groups.get(path)
            if group is not None:
                group.routes[port] = targets
            if path == ROOT_PATH:
                self._inject_routes[port] = targets

        self.seq_counters: dict[str, int] = {}
        self.token_counters: dict[str, int] = {}
        self.bindings: dict[tuple[str, tuple[str, int]], int] = {}
        # arrival step -> messages due then, in send order. A message is a
        # tuple (channel id, seq, channel, payload, text, tokens, pinned, bind):
        # - (channel id, seq) is unique, so the tuple's own order is the
        #   delivery order within one arrival step;
        # - text is the payload rendered at send, reused for its DELIVER;
        # - tokens is a sorted, duplicate-free tuple (see _gate);
        # - pinned is the replica id fixed at send time, or None;
        # - bind is False for broadcast copies, which never bind tokens.
        self.in_flight: dict[int, list[tuple]] = {}
        self.events: list[tuple] = []  # see the module docstring
        # root out port -> (arrival step, payload) per delivered message
        self.out_streams: dict[str, list[tuple[int, Record]]] = {
            p.name: []
            for p in topology.root.type_def.ports
            if p.direction == OUT
        }
        # root out port -> "root.port", the subject of its DELIVER events
        root_subjects = {port: f"{ROOT_PATH}.{port}" for port in self.out_streams}
        # channel id -> its delivery plan (group, sole replica, DELIVER
        # subject): (None, None, "root.port") for a channel to the root
        # boundary, (group, None, None) for one into a replica group
        self._plans: dict[str, tuple] = {}
        for ch in topology.channels:
            if ch.external:
                plan = (None, None, root_subjects[ch.target_port])
            elif ch.group:
                plan = (self.groups[ch.target_path], None, None)
            else:
                # an instance that does not replicate keeps one replica for
                # the whole run
                group = self.groups[ch.target_path]
                sole = group.replicas[0]
                plan = (group, sole, sole.subjects[ch.target_port])
            self._plans[ch.id] = plan
        self.step = 0
        self.truncated = False

        # read once, so the checks and the stacks see the same directives
        scales, faults, injections = (list(d or ()) for d in (scales, faults, injections))
        problems = directive_problems(
            topology, strategies=[(0, path, s) for path, s in self.strategies.items()],
            scales=scales, faults=faults, injections=injections, maxsteps=maxsteps,
        )
        if problems:
            line, _code, message = problems[0]
            raise KernelError(message, line)
        diags = check_selection_ports(topology)
        if diags:
            raise KernelError(diags[0].message)

        # the scale, fault and inject stacks, the next due last
        self._directives = [
            sorted(batch, key=itemgetter(0))[::-1] for batch in (scales, faults, injections)
        ]
        # the steps that have a directive, the next due last
        self._directive_steps = sorted({d[0] for batch in self._directives for d in batch})[::-1]
        # steps with a directive or an in-flight bucket, may repeat; sorted is a heap
        self._agenda: list[int] = self._directive_steps[::-1]
        # groups with a retiring replica, visited by the sweep in group order
        self._retiring: set[str] = set()
        self._group_rank = {path: i for i, path in enumerate(self.groups)}
        # instance path -> the groups at and below it; built on the first restart
        self._subtrees: dict[str, list[Group]] | None = None

    # -- event helpers ----------------------------------------------------

    def _event(self, kind: str, subject: str, payload: str) -> None:
        """Trace an event that is not about a message."""
        self.events.append((self.step, kind, subject, None, (), payload, ""))

    # -- run loop ----------------------------------------------------------

    def run(self) -> None:
        """Execute until quiescence, a step budget, or an unhandled fault."""
        agenda = self._agenda
        directive_steps = self._directive_steps
        while self.step <= self.maxsteps:
            if directive_steps and directive_steps[-1] == self.step:
                directive_steps.pop()
                self._run_directives()
            self._deliver_and_activate()
            if self._retiring:
                self._sweep()
            while agenda and agenda[0] <= self.step:
                heapq.heappop(agenda)
            if not agenda:
                return
            self.step = min(heapq.heappop(agenda), self.maxsteps + 1)
        self.truncated = True

    def _run_directives(self) -> None:
        step = self.step
        scales, faults, injections = self._directives
        while scales and scales[-1][0] == step:
            _step, path, count, _line = scales.pop()
            self._scale(path, count)
        while faults and faults[-1][0] == step:
            _step, path, kind, rid, line = faults.pop()
            group = self.groups[path]
            if rid is None:
                rid = group.live()[0].rid
            elif rid not in group.replicas:
                raise KernelError(f"no replica {path}#{rid} at step {step} to fault", line)
            self._fault(path, rid, kind)
        batch = []
        while injections and injections[-1][0] == step:
            _step, port, payload, _line = injections.pop()
            batch.append((None, None, port, payload, ()))
        if batch:
            self._activate(batch)

    def _deliver_and_activate(self) -> None:
        due = self.in_flight.pop(self.step, None)
        if due is None:
            return
        due.sort()
        step = self.step
        events = self.events
        plans = self._plans
        bindings = self.bindings
        activations = []
        for cid, seq, ch, payload, text, tokens, pinned, bind in due:
            group, replica, subject = plans[cid]
            if group is None:
                events.append((step, DELIVER, subject, seq, tokens, text, cid))
                self.out_streams[ch.target_port].append((step, payload))
                continue
            if replica is None:
                # into a replica group: a pin, else the replica bound to the
                # least bound token (tokens are sorted, so the first bound
                # one), else round robin; the one pass also finds the tokens
                # this group has not bound yet
                path = group.path
                rid = pinned
                fresh = ()
                if bind:
                    for tok in tokens:
                        bound = bindings.get((path, tok))
                        if bound is None:
                            fresh += (tok,)
                        elif rid is None:
                            rid = bound
                if rid is None:
                    live = group.live()
                    replica = live[group.rr % len(live)]
                    group.rr += 1
                else:
                    replica = group.replicas[rid]
                if fresh:
                    for tok in fresh:
                        bindings[(path, tok)] = replica.rid
                    events.append((step, BIND, replica.name, seq, fresh, "-", cid))
                subject = replica.subjects[ch.target_port]
            events.append((step, DELIVER, subject, seq, tokens, text, cid))
            activations.append((group, replica, ch.target_port, payload, tokens))
        # every delivery is traced before the first activation runs
        self._activate(activations)

    # -- activation and sending ------------------------------------------------

    def _activate(self, batch: list[tuple]) -> None:
        """Run each activation of `batch` in order and send what it emits.

        An activation is (group, replica, port, payload, tokens): the
        message delivered on `port` and its tokens. An inject is one with
        group None: the root passes the payload on from its in port.
        """
        step = self.step
        events = self.events
        in_flight = self.in_flight
        seq_counters = self.seq_counters
        for group, replica, port, payload, tokens in batch:
            if group is None:
                emits = ((port, payload),)
                routes = self._inject_routes
                mode = MODE_ONE
            else:
                behavior = group.behavior
                try:
                    state, emits = behavior.handle(replica.state, port, payload, step, replica.rng)
                except Fault as fault:
                    # a fault abandons the activation: no state commit, no sends
                    self._fault(group.path, replica.rid, fault.kind)
                    continue
                replica.state = state
                if not emits:
                    replica.held.update(tokens)
                    continue
                routes = group.routes
                mode = behavior.mode
            for emit in emits:
                if mode == MODE_ONE:
                    targets = routes.get(emit[0])
                    if not targets:
                        continue
                else:
                    targets = self._pinned_targets(group, mode, emit)
                out = emit[1]
                text = out.render()
                for ch, pinned, bind in targets:
                    cid = ch.id
                    seq = seq_counters.get(cid, 0) + 1
                    seq_counters[cid] = seq
                    out_tokens = self._gate(ch, seq, tokens) if ch.gates else tokens
                    events.append((step, SEND, cid, seq, out_tokens, text, cid))
                    arrive = step + ch.latency
                    bucket = in_flight.get(arrive)
                    if bucket is None:
                        bucket = in_flight[arrive] = []
                        heapq.heappush(self._agenda, arrive)
                    bucket.append((cid, seq, ch, out, text, out_tokens, pinned, bind))

    def _pinned_targets(self, group: Group, mode: str, emit: tuple) -> list[tuple]:
        """The send targets of a broadcast emit (port, payload), a copy to
        each live replica that binds nothing, or of an index emit (port,
        payload, index), to the live replica at index modulo their count.
        The port feeds one channel into a replica group (check_selection_ports,
        run when the kernel is built)."""
        ch = group.routes[emit[0]][0][0]
        live = self.groups[ch.target_path].live()
        if mode == MODE_BROADCAST:
            return [(ch, replica.rid, False) for replica in live]
        return [(ch, live[emit[2] % len(live)].rid, True)]

    def _gate(self, ch: ChannelSpec, seq: int, tokens: tuple) -> tuple:
        """The tokens a message carries past the gates of `ch`, tracing a
        MINT per opened context and a STRIP per closed one that strips any.

        Tokens are kept sorted and free of duplicates, so a gateless hop
        passes them on as they are: OPEN inserts the fresh token in order,
        and CLOSE filters out its context's tokens, which keeps the order.
        """
        cid = ch.id
        step = self.step
        events = self.events
        for action, ctx_name in ch.gates:
            if action == OPEN:
                serial = self.token_counters.get(ctx_name, 0)
                self.token_counters[ctx_name] = serial + 1
                tok = (ctx_name, serial)
                at = bisect_right(tokens, tok)
                tokens = tokens[:at] + (tok,) + tokens[at:]
                events.append((step, MINT, cid, seq, (tok,), "-", cid))
            else:
                stripped = tuple(t for t in tokens if t[0] == ctx_name)
                if stripped:
                    events.append((step, STRIP, cid, seq, stripped, "-", cid))
                    tokens = tuple(t for t in tokens if t[0] != ctx_name)
        return tokens

    # -- supervision ---------------------------------------------------------

    def _fault(self, path: str, rid: int, kind: str) -> None:
        self._event(RAISE, f"{path}#{rid}", kind)
        child = path
        decider = path
        while True:
            strategy = self.strategies.get(decider, ESCALATE_STRATEGY)
            if strategy == RESUME:
                return
            if strategy == RESTART_STRATEGY:
                self._event(RESTART, child, kind)
                self._restart_subtree(child)
                return
            self._event(ESCALATE, decider, kind)
            if decider == ROOT_PATH:
                self._event(FATAL, ROOT_PATH, kind)
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
        self._event(SCALE, group.path, f"target={group.target},size={group.size()}")

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
