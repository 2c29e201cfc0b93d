"""Static checks and elaboration of models into runtime topologies.

check() validates a model against the wiring rules; elaborate() turns a
checked model into the instance tree plus the fused message channels the
kernel executes. Connector chains are fused end to end: a message emitted
by an atomic instance (or injected at the root boundary) traverses pass
and cross connectors in one hop, so intermediate decomposed components
never buffer anything.

Behaviors are configured once per model, by behaviors.instantiate(): one
object per atomic component type. check() configures each clause to
report what is wrong with it, and elaborate() hands the same objects to
every instance of the type, in each elaboration of the model. The kernel,
the oracle and check_selection_ports() read them from the instance.
"""

from __future__ import annotations

from fnmatch import fnmatchcase

from . import behaviors
from .diagnostics import (
    E_BEHAVIOR,
    E_DIRECTION,
    E_DUP_CONNECT,
    E_DUP_DEF,
    E_ENCAPSULATION,
    E_GATE_REF,
    E_RECURSION,
    E_REPL_PORT,
    E_REPL_SUB,
    E_TYPE_MISMATCH,
    E_UNRESOLVED,
    Diagnostic,
    quoted,
)
from .model import (
    IN,
    OUT,
    ArchitectureModel,
    ComponentTypeDef,
    ConnectorDecl,
    Endpoint,
    PortDecl,
    SubcomponentDecl,
)
from .values import Value

ROOT_PATH = "root"


def check(model: ArchitectureModel, root_type: str | None = None) -> list[Diagnostic]:
    """Validate the model; an empty result means it is safe to elaborate."""
    diags: list[Diagnostic] = []
    for cdef in model.component_types.values():
        _check_component(model, cdef, diags)
    _check_recursion(model, diags)
    if root_type is not None and root_type not in model.component_types:
        diags.append(
            Diagnostic(E_UNRESOLVED, "<model>", 0, 0, f"unknown root component type {quoted(root_type)}")
        )
    return diags


def _check_component(
    model: ArchitectureModel, cdef: ComponentTypeDef, diags: list[Diagnostic]
) -> None:
    # a behavior reads its ports' field types, so it is configured only when
    # every port's message type is declared: the E_UNRESOLVED is the one cause
    types_known = True
    for p in cdef.ports:
        if p.message_type not in model.message_types:
            types_known = False
            diags.append(
                _err(p, f"unknown message type {quoted(p.message_type)}", E_UNRESOLVED)
            )
        if p.replicating and p.direction == IN:
            diags.append(
                _err(
                    p,
                    f"in port {quoted(p.name)} cannot be replicating, only out ports expose a receiver group",
                    E_REPL_PORT,
                )
            )
    for s in cdef.subcomponents:
        target = model.component_types.get(s.type_ref)
        if target is None:
            diags.append(
                _err(s, f"unknown component type {quoted(s.type_ref)}", E_UNRESOLVED)
            )
        elif s.replicating and target.is_decomposed:
            diags.append(
                _err(
                    s,
                    f"replicating subcomponent {quoted(s.name)} must be atomic, but {quoted(s.type_ref)} is decomposed",
                    E_REPL_SUB,
                )
            )

    seen_pairs: set[tuple[tuple[str, ...], tuple[str, ...]]] = set()
    for conn in cdef.connectors:
        _check_connector(model, cdef, conn, seen_pairs, diags)

    connector_keys = {c.key() for c in cdef.connectors}
    ctx_names: set[str] = set()
    for ctx in cdef.contexts:
        if ctx.name in ctx_names:
            diags.append(
                _err(ctx, f"context {quoted(ctx.name)} is already defined", E_DUP_DEF)
            )
        ctx_names.add(ctx.name)
        used: set[tuple[tuple[str, ...], tuple[str, ...]]] = set()
        for gate in list(ctx.opening) + list(ctx.closing):
            key = gate.key()
            if key not in connector_keys:
                diags.append(
                    _err(
                        gate,
                        f"gate '{gate.render()}' does not match any connector",
                        E_GATE_REF,
                    )
                )
            elif key in used:
                diags.append(
                    _err(
                        gate,
                        f"connector '{gate.render()}' is already a gate of context '{ctx.name}'",
                        E_GATE_REF,
                    )
                )
            used.add(key)

    if cdef.is_decomposed and cdef.behavior is not None:
        diags.append(
            _err(
                cdef.behavior,
                "a decomposed component cannot have a behavior clause",
                E_BEHAVIOR,
            )
        )
    if not cdef.is_decomposed:
        has_in = any(p.direction == IN for p in cdef.ports)
        if cdef.behavior is None and has_in:
            diags.append(
                _err(
                    cdef,
                    f"atomic component {quoted(cdef.name)} receives messages but has no behavior clause",
                    E_BEHAVIOR,
                )
            )
        if cdef.behavior is not None and types_known:
            try:
                behaviors.instantiate(cdef, model)
            except behaviors.BehaviorConfigError as exc:
                diags.append(_err(cdef.behavior, str(exc), E_BEHAVIOR))


def _resolve_end(
    model: ArchitectureModel,
    cdef: ComponentTypeDef,
    ep: Endpoint,
    diags: list[Diagnostic],
) -> tuple[PortDecl, SubcomponentDecl | None] | None:
    """The port a connector endpoint names, and the subcomponent it sits on
    (None for the component's own port); None if it does not resolve."""
    if len(ep.parts) > 2:
        diags.append(
            _err(
                ep,
                f"endpoint '{ep.render()}' reaches through an enclosed component",
                E_ENCAPSULATION,
            )
        )
        return None
    if ep.is_own:
        port = cdef.port(ep.port)
        if port is None:
            diags.append(
                _err(ep, f"{quoted(cdef.name)} has no port {quoted(ep.port)}", E_UNRESOLVED)
            )
            return None
        return port, None
    sub = cdef.subcomponent(ep.sub)
    if sub is None:
        diags.append(
            _err(ep, f"{quoted(cdef.name)} has no subcomponent {quoted(ep.sub)}", E_UNRESOLVED)
        )
        return None
    sub_type = model.component_types.get(sub.type_ref)
    if sub_type is None:
        return None  # the subcomponent declaration already got E_UNRESOLVED
    port = sub_type.port(ep.port)
    if port is None:
        diags.append(
            _err(ep, f"{quoted(sub.type_ref)} has no port {quoted(ep.port)}", E_UNRESOLVED)
        )
        return None
    return port, sub


def _check_connector(
    model: ArchitectureModel,
    cdef: ComponentTypeDef,
    conn: ConnectorDecl,
    seen_pairs: set[tuple[tuple[str, ...], tuple[str, ...]]],
    diags: list[Diagnostic],
) -> None:
    pair = conn.key()
    if pair in seen_pairs:
        diags.append(
            _err(conn, f"duplicate connector '{conn.render()}'", E_DUP_CONNECT)
        )
        return
    seen_pairs.add(pair)

    src = _resolve_end(model, cdef, conn.source, diags)
    tgt = _resolve_end(model, cdef, conn.target, diags)
    if src is None or tgt is None:
        return
    src_port, src_sub = src
    tgt_port, tgt_sub = tgt

    ok = True
    if src_sub is None and tgt_sub is None:
        diags.append(
            _err(
                conn,
                f"connector '{conn.render()}' bypasses the inside of '{cdef.name}'",
                E_DIRECTION,
            )
        )
        ok = False
    elif src_sub is not None and src_sub is tgt_sub:
        diags.append(
            _err(
                conn,
                f"connector '{conn.render()}' loops back into subcomponent '{src_sub.name}'",
                E_DIRECTION,
            )
        )
        ok = False
    else:
        want_src = IN if src_sub is None else OUT
        want_tgt = OUT if tgt_sub is None else IN
        if src_port.direction != want_src:
            diags.append(
                _err(
                    conn,
                    f"source '{conn.source.render()}' must be an {want_src} port here",
                    E_DIRECTION,
                )
            )
            ok = False
        if tgt_port.direction != want_tgt:
            diags.append(
                _err(
                    conn,
                    f"target '{conn.target.render()}' must be an {want_tgt} port here",
                    E_DIRECTION,
                )
            )
            ok = False

    if src_port.message_type != tgt_port.message_type and (
        src_port.message_type in model.message_types
        and tgt_port.message_type in model.message_types
    ):
        diags.append(
            _err(
                conn,
                f"'{conn.source.render()}' carries {src_port.message_type} "
                f"but '{conn.target.render()}' carries {tgt_port.message_type}",
                E_TYPE_MISMATCH,
            )
        )
        ok = False

    if not ok:
        return

    # The replicating marker on the sending out port must agree with whether
    # the connector feeds a replica group. Own in ports carry no marker, and
    # decomposed targets hide their groups until fusion, so both are skipped.
    if src_sub is None:
        return
    if tgt_sub is None:
        tgt_group = tgt_port.replicating
    elif model.component_types[tgt_sub.type_ref].is_decomposed:
        return
    else:
        tgt_group = tgt_sub.replicating
    src_marked = src_port.replicating
    if src_marked and not tgt_group:
        diags.append(
            _err(
                conn,
                f"'{conn.source.render()}' is marked replicating but '{conn.target.render()}' does not reach a replica group",
                E_REPL_PORT,
            )
        )
    elif tgt_group and not src_marked:
        diags.append(
            _err(
                conn,
                f"'{conn.source.render()}' feeds the replica group behind '{conn.target.render()}' and must be marked replicating",
                E_REPL_PORT,
            )
        )


def _check_recursion(model: ArchitectureModel, diags: list[Diagnostic]) -> None:
    # an explicit stack: containment depth must not hit the recursion limit
    DONE, VISITING = "done", "visiting"
    state: dict[str, str] = {}
    for name in model.component_types:
        if state.get(name) == DONE:
            continue
        state[name] = VISITING
        stack = [name]  # the containment path being visited
        subs = [iter(model.component_types[name].subcomponents)]
        while subs:
            sub = next(subs[-1], None)
            if sub is None:
                subs.pop()
                state[stack.pop()] = DONE
                continue
            ref = sub.type_ref
            if ref not in model.component_types:
                continue
            if state.get(ref) == VISITING:
                cycle = " -> ".join(stack[stack.index(ref) :] + [ref])
                diags.append(
                    _err(sub, f"component containment cycle: {cycle}", E_RECURSION)
                )
            elif state.get(ref) != DONE:
                state[ref] = VISITING
                stack.append(ref)
                subs.append(iter(model.component_types[ref].subcomponents))


def _err(node, message: str, code: str) -> Diagnostic:
    return Diagnostic(code, *node.pos, message)


# ---------------------------------------------------------------------------
# Elaboration


class InstanceSpec(Value):
    """One node of the instance tree (a replica group counts as one node)."""

    # behavior is left out of repr and ==
    _fields = ("path", "type_def", "parent", "replicating")

    def __init__(
        self,
        path: str,
        type_def: ComponentTypeDef,
        parent: str | None,
        replicating: bool,
        behavior: behaviors.Behavior | None = None,
    ):
        self.path = path
        self.type_def = type_def
        self.parent = parent
        self.replicating = replicating
        # configured once per type and model and shared by its instances;
        # None when the type has no behavior clause
        self.behavior = behavior

    @property
    def atomic(self) -> bool:
        return not self.type_def.is_decomposed

    @property
    def name(self) -> str:
        return self.path.rsplit("/", 1)[-1]


class ChannelSpec(Value):
    """A fused connector chain from one emitter to one consumer.

    The id lists every port the chain passes through, so latency patterns
    can match on any hop. gates holds (action, context) pairs applied to a
    message in order while it is in flight.
    """

    _fields = (
        "id",
        "source_path",
        "source_port",
        "target_path",
        "target_port",
        "message_type",
        "external",
        "group",
        "gates",
        "latency",
    )

    def __init__(
        self,
        id: str,
        source_path: str,
        source_port: str,
        target_path: str,
        target_port: str,
        message_type: str,
        external: bool,
        group: bool,
        gates: tuple[tuple[str, str], ...],
        latency: int = 1,
    ):
        self.id = id
        self.source_path = source_path
        self.source_port = source_port
        self.target_path = target_path
        self.target_port = target_port
        self.message_type = message_type
        self.external = external  # target is the root boundary, not an instance queue
        self.group = group  # target instance is a replica group
        self.gates = gates
        self.latency = latency


class RuntimeTopology(Value):
    _fields = ("root_type", "instances", "channels", "channels_from")

    def __init__(
        self,
        root_type: str,
        instances: dict[str, InstanceSpec],
        channels: list[ChannelSpec],
    ):
        self.root_type = root_type
        self.instances = instances
        self.channels = channels
        # (source path, source port) -> the channels leaving it, in channel order
        self.channels_from: dict[tuple[str, str], list[ChannelSpec]] = {}
        for ch in channels:
            self.channels_from.setdefault((ch.source_path, ch.source_port), []).append(ch)

    @property
    def root(self) -> InstanceSpec:
        return self.instances[ROOT_PATH]


class ElaborationError(Exception):
    pass


def elaborate(model: ArchitectureModel, root_type: str) -> RuntimeTopology:
    """Build the instance tree and fused channels for a model that passed
    check(); each atomic instance carries its type's behavior.

    A bad behavior clause raises BehaviorConfigError here; check() reports
    it as E_BEHAVIOR first, so only a caller that skips check() sees it.
    """
    if root_type not in model.component_types:
        raise ElaborationError(f"unknown root component type '{root_type}'")
    configured = behaviors.configured(model)
    # preorder with an explicit stack: depth must not hit the recursion limit
    instances: dict[str, InstanceSpec] = {}
    stack = [(ROOT_PATH, root_type, None, False)]
    while stack:
        path, type_name, parent, replicating = stack.pop()
        tdef = model.component_types[type_name]
        behavior = configured.get(type_name)
        if behavior is None and tdef.behavior is not None and not tdef.is_decomposed:
            behavior = behaviors.instantiate(tdef, model)
        instances[path] = InstanceSpec(path, tdef, parent, replicating, behavior)
        for sub in reversed(tdef.subcomponents):
            stack.append((f"{path}/{sub.name}", sub.type_ref, path, sub.replicating))

    # each component type's connector hops by source parts, last declared
    # first; a hop is (target parts, the gates the connector applies)
    leaving: dict[str, dict[tuple[str, ...], list[tuple]]] = {}
    for name, tdef in model.component_types.items():
        by_source = leaving[name] = {}
        for conn in reversed(tdef.connectors):
            hop = (conn.target.parts, tdef.gates_of(conn))
            by_source.setdefault(conn.source.parts, []).append(hop)

    channels: list[ChannelSpec] = []
    root = instances[ROOT_PATH]
    for p in root.type_def.ports:
        if p.direction == IN:
            start = (ROOT_PATH, p.name)
            if root.atomic:
                cid = f"{ROOT_PATH}.{p.name}"
                _emit_channel(channels, instances, cid, start, start, p.message_type, (), False)
            else:
                _fuse(instances, leaving, root, (p.name,), start, p.message_type, channels)
    for inst in instances.values():
        if inst.type_def.subcomponents:
            continue
        for p in inst.type_def.ports:
            if p.direction != OUT:
                continue
            start = (inst.path, p.name)
            if inst.path == ROOT_PATH:
                cid = f"{ROOT_PATH}.{p.name}"
                _emit_channel(channels, instances, cid, start, start, p.message_type, (), True)
            else:
                parent = instances[inst.parent]
                source = (inst.name, p.name)
                _fuse(instances, leaving, parent, source, start, p.message_type, channels)

    ids = [ch.id for ch in channels]
    if len(set(ids)) != len(ids):
        raise ElaborationError("internal error: channel ids are not unique")
    return RuntimeTopology(root_type, instances, channels)


def check_selection_ports(topology: RuntimeTopology) -> list[Diagnostic]:
    """route_by and forward(broadcast=true) choose among the live replicas
    behind their out port, so that port must fuse into exactly one channel
    and it must end at a replica group. Whether it does depends on how each
    instance is wired, so the check runs on an elaborated topology."""
    diags: list[Diagnostic] = []
    for inst in topology.instances.values():
        behavior = inst.behavior
        if behavior is None or behavior.mode == behaviors.MODE_ONE:
            continue
        tdef = inst.type_def
        port = behavior.out.name
        chs = topology.channels_from.get((inst.path, port), [])
        if len(chs) != 1 or not chs[0].group:
            message = (
                f"'{inst.path}' selects replicas with {tdef.behavior.builtin}, "
                f"so its out port '{port}' must feed exactly one replica group"
            )
            diags.append(_err(tdef.behavior, message, E_REPL_PORT))
    return diags


def _fuse(instances, leaving, owner, source, start, mtype, channels) -> None:
    """Add to `channels` one channel per connector chain that leaves `source`.

    `source` is the source parts of connectors declared in `owner`, and
    `start` the (path, port) where the chains begin. Chains are followed
    depth first in connector declaration order, with an explicit stack so
    that nesting depth is not bounded by the interpreter's recursion limit.
    A stack entry is one connector hop, with its depth in the chain and the
    gates of the chain up to it. `trail` holds the "path.port" of each hop
    of the chain being followed, so a channel id is joined once.
    """
    trail = [f"{start[0]}.{start[1]}"]
    stack = _hops(leaving, owner, source, 1, ())
    while stack:
        owner, (parts, hop_gates), depth, gates = stack.pop()
        if hop_gates:
            gates += hop_gates
        port = parts[-1]
        del trail[depth:]
        if len(parts) == 1:  # the owner's own port
            path = owner.path
            trail.append(f"{path}.{port}")
            if path == ROOT_PATH:
                cid = "->".join(trail)
                _emit_channel(channels, instances, cid, start, (path, port), mtype, gates, True)
            else:
                parent = instances[owner.parent]
                stack += _hops(leaving, parent, (owner.name, port), depth + 1, gates)
        else:
            child = instances[f"{owner.path}/{parts[0]}"]
            path = child.path
            trail.append(f"{path}.{port}")
            if child.type_def.subcomponents:
                stack += _hops(leaving, child, (port,), depth + 1, gates)
            else:
                cid = "->".join(trail)
                _emit_channel(channels, instances, cid, start, (path, port), mtype, gates, False)


def _hops(leaving, owner, source, depth, gates) -> list:
    """The connector hops of `owner` leaving `source` as stack entries, last first."""
    hops = leaving[owner.type_def.name].get(source, ())
    return [(owner, hop, depth, gates) for hop in hops]


def _emit_channel(channels, instances, cid, start, end, mtype, gates, external) -> None:
    """Append the channel `cid` from `start` to `end`, both (path, port) pairs."""
    target_path, target_port = end
    group = not external and instances[target_path].replicating
    channels.append(
        ChannelSpec(
            cid,
            start[0],
            start[1],
            target_path,
            target_port,
            mtype,
            external,
            group,
            gates,
        )
    )


def apply_latency_overrides(
    topology: RuntimeTopology, overrides: list[tuple[str, int]]
) -> None:
    """Set channel latencies from (pattern, steps) pairs; last match wins."""
    for ch in topology.channels:
        for pattern, steps in overrides:
            if fnmatchcase(ch.id, pattern):
                ch.latency = steps
