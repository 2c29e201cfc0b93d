"""Static checks and elaboration of models into runtime topologies.

check() validates a model against the wiring rules; elaborate() turns a
checked model into the instance tree plus the fused message channels the
kernel executes. Connector chains are fused end to end: a message emitted
by an atomic instance (or injected at the root boundary) traverses pass
and cross connectors in one hop, so intermediate decomposed components
never buffer anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    error,
)
from .model import (
    IN,
    OUT,
    ArchitectureModel,
    ComponentTypeDef,
    ConnectorDecl,
    Endpoint,
    PortDecl,
)

ROOT_PATH = "root"


def check(model: ArchitectureModel, root_type: str | None = None) -> list[Diagnostic]:
    """Validate the model; an empty result means it is safe to elaborate."""
    diags: list[Diagnostic] = []
    for cdef in model.component_types.values():
        _check_component(model, cdef, diags)
    _check_recursion(model, diags)
    if root_type is not None and root_type not in model.component_types:
        diags.append(
            error(E_UNRESOLVED, "<model>", 0, 0, f"unknown root component type '{root_type}'")
        )
    return diags


def _check_component(
    model: ArchitectureModel, cdef: ComponentTypeDef, diags: list[Diagnostic]
) -> None:
    for p in cdef.ports:
        if p.message_type not in model.message_types:
            diags.append(
                _err(p, f"unknown message type '{p.message_type}'", E_UNRESOLVED)
            )
        if p.replicating and p.direction == IN:
            diags.append(
                _err(
                    p,
                    f"in port '{p.name}' cannot be replicating, only out ports expose a receiver group",
                    E_REPL_PORT,
                )
            )
    for s in cdef.subcomponents:
        target = model.component_types.get(s.type_ref)
        if target is None:
            diags.append(
                _err(s, f"unknown component type '{s.type_ref}'", E_UNRESOLVED)
            )
        elif s.replicating and target.is_decomposed:
            diags.append(
                _err(
                    s,
                    f"replicating subcomponent '{s.name}' must be atomic, but '{s.type_ref}' is decomposed",
                    E_REPL_SUB,
                )
            )

    seen_pairs: set[tuple[tuple[str, ...], tuple[str, ...]]] = set()
    for conn in cdef.connectors:
        _check_connector(model, cdef, conn, seen_pairs, diags)

    connector_keys = {(c.source.parts, c.target.parts) for c in cdef.connectors}
    ctx_names: set[str] = set()
    for ctx in cdef.contexts:
        if ctx.name in ctx_names:
            diags.append(
                _err(ctx, f"context '{ctx.name}' is already defined", E_DUP_DEF)
            )
        ctx_names.add(ctx.name)
        used: set[tuple[tuple[str, ...], tuple[str, ...]]] = set()
        for gate in list(ctx.opening) + list(ctx.closing):
            key = gate.key()
            if key not in connector_keys:
                diags.append(
                    _err(
                        gate,
                        f"gate '{gate.source.render()} -> {gate.target.render()}' does not match any connector",
                        E_GATE_REF,
                    )
                )
            elif key in used:
                diags.append(
                    _err(
                        gate,
                        f"connector '{gate.source.render()} -> {gate.target.render()}' is already a gate of context '{ctx.name}'",
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
                    f"atomic component '{cdef.name}' receives messages but has no behavior clause",
                    E_BEHAVIOR,
                )
            )
        if cdef.behavior is not None:
            for message in behaviors.validate_clause(cdef, model):
                diags.append(_err(cdef.behavior, message, E_BEHAVIOR))


@dataclass
class _End:
    """A resolved connector endpoint inside one component type."""

    port: PortDecl
    sub_name: str | None  # None for the component's own port
    sub_replicating: bool = False
    sub_decomposed: bool = False


def _resolve_end(
    model: ArchitectureModel,
    cdef: ComponentTypeDef,
    ep: Endpoint,
    diags: list[Diagnostic],
) -> _End | None:
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
                _err(ep, f"'{cdef.name}' has no port '{ep.port}'", E_UNRESOLVED)
            )
            return None
        return _End(port, None)
    sub = cdef.subcomponent(ep.sub)
    if sub is None:
        diags.append(
            _err(ep, f"'{cdef.name}' has no subcomponent '{ep.sub}'", E_UNRESOLVED)
        )
        return None
    sub_type = model.component_types.get(sub.type_ref)
    if sub_type is None:
        return None  # the subcomponent declaration already got E_UNRESOLVED
    port = sub_type.port(ep.port)
    if port is None:
        diags.append(
            _err(ep, f"'{sub.type_ref}' has no port '{ep.port}'", E_UNRESOLVED)
        )
        return None
    return _End(port, sub.name, sub.replicating, sub_type.is_decomposed)


def _check_connector(
    model: ArchitectureModel,
    cdef: ComponentTypeDef,
    conn: ConnectorDecl,
    seen_pairs: set[tuple[tuple[str, ...], tuple[str, ...]]],
    diags: list[Diagnostic],
) -> None:
    pair = (conn.source.parts, conn.target.parts)
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

    ok = True
    if src.sub_name is None and tgt.sub_name is None:
        diags.append(
            _err(
                conn,
                f"connector '{conn.render()}' bypasses the inside of '{cdef.name}'",
                E_DIRECTION,
            )
        )
        ok = False
    elif src.sub_name is not None and src.sub_name == tgt.sub_name:
        diags.append(
            _err(
                conn,
                f"connector '{conn.render()}' loops back into subcomponent '{src.sub_name}'",
                E_DIRECTION,
            )
        )
        ok = False
    else:
        want_src = IN if src.sub_name is None else OUT
        want_tgt = OUT if tgt.sub_name is None else IN
        if src.port.direction != want_src:
            diags.append(
                _err(
                    conn,
                    f"source '{conn.source.render()}' must be an {want_src} port here",
                    E_DIRECTION,
                )
            )
            ok = False
        if tgt.port.direction != want_tgt:
            diags.append(
                _err(
                    conn,
                    f"target '{conn.target.render()}' must be an {want_tgt} port here",
                    E_DIRECTION,
                )
            )
            ok = False

    if src.port.message_type != tgt.port.message_type and (
        src.port.message_type in model.message_types
        and tgt.port.message_type in model.message_types
    ):
        diags.append(
            _err(
                conn,
                f"'{conn.source.render()}' carries {src.port.message_type} "
                f"but '{conn.target.render()}' carries {tgt.port.message_type}",
                E_TYPE_MISMATCH,
            )
        )
        ok = False

    if not ok:
        return

    # The replicating marker on the sending out port must agree with whether
    # the connector feeds a replica group. Own in ports carry no marker, and
    # decomposed targets hide their groups until fusion, so both are skipped.
    if src.sub_name is None:
        return
    if tgt.sub_name is not None and tgt.sub_decomposed:
        return
    src_marked = src.port.replicating
    if tgt.sub_name is None:
        tgt_group = tgt.port.replicating
    else:
        tgt_group = tgt.sub_replicating
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
    pos = node.pos
    return error(code, pos.origin, pos.line, pos.col, message)


# ---------------------------------------------------------------------------
# Elaboration


@dataclass
class InstanceSpec:
    """One node of the instance tree (a replica group counts as one node)."""

    path: str
    type_def: ComponentTypeDef
    parent: str | None
    replicating: bool

    @property
    def atomic(self) -> bool:
        return not self.type_def.is_decomposed

    @property
    def name(self) -> str:
        return self.path.rsplit("/", 1)[-1]


@dataclass
class ChannelSpec:
    """A fused connector chain from one emitter to one consumer.

    The id lists every port the chain passes through, so latency patterns
    can match on any hop. gates holds (action, context) pairs applied to a
    message in order while it is in flight.
    """

    id: str
    source_path: str
    source_port: str
    target_path: str
    target_port: str
    message_type: str
    external: bool  # target is the root boundary, not an instance queue
    group: bool  # target instance is a replica group
    gates: tuple[tuple[str, str], ...]
    latency: int = 1


@dataclass
class RuntimeTopology:
    root_type: str
    instances: dict[str, InstanceSpec]
    channels: list[ChannelSpec]
    # (source path, source port) -> the channels leaving it, in channel order
    channels_from: dict[tuple[str, str], list[ChannelSpec]] = field(init=False)

    def __post_init__(self) -> None:
        self.channels_from = {}
        for ch in self.channels:
            self.channels_from.setdefault((ch.source_path, ch.source_port), []).append(ch)

    @property
    def root(self) -> InstanceSpec:
        return self.instances[ROOT_PATH]


class ElaborationError(Exception):
    pass


def elaborate(model: ArchitectureModel, root_type: str) -> RuntimeTopology:
    """Build the instance tree and fused channels for a checked model."""
    if root_type not in model.component_types:
        raise ElaborationError(f"unknown root component type '{root_type}'")
    # preorder with an explicit stack: depth must not hit the recursion limit
    instances: dict[str, InstanceSpec] = {}
    stack = [(ROOT_PATH, root_type, None, False)]
    while stack:
        path, type_name, parent, replicating = stack.pop()
        tdef = model.component_types[type_name]
        instances[path] = InstanceSpec(path, tdef, parent, replicating)
        for sub in reversed(tdef.subcomponents):
            stack.append((f"{path}/{sub.name}", sub.type_ref, path, sub.replicating))

    # each component type's connectors by source parts, last declared first
    leaving: dict[str, dict[tuple[str, ...], list[ConnectorDecl]]] = {}
    for name, tdef in model.component_types.items():
        by_source = leaving[name] = {}
        for conn in reversed(tdef.connectors):
            by_source.setdefault(conn.source.parts, []).append(conn)

    channels: list[ChannelSpec] = []
    root = instances[ROOT_PATH]
    for p in root.type_def.ports:
        if p.direction == IN:
            occs = [(ROOT_PATH, p.name)]
            if root.atomic:
                _emit_channel(channels, occs, (), p.message_type, instances, external=False)
            else:
                _fuse(instances, leaving, root, (p.name,), occs, p.message_type, channels)
    for inst in instances.values():
        if not inst.atomic:
            continue
        for p in inst.type_def.ports:
            if p.direction != OUT:
                continue
            occs = [(inst.path, p.name)]
            if inst.path == ROOT_PATH:
                _emit_channel(channels, occs, (), p.message_type, instances, external=True)
            else:
                parent = instances[inst.parent]
                source = (inst.name, p.name)
                _fuse(instances, leaving, parent, source, occs, p.message_type, channels)

    ids = [ch.id for ch in channels]
    if len(set(ids)) != len(ids):
        raise ElaborationError("internal error: channel ids are not unique")
    return RuntimeTopology(root_type, instances, channels)


def check_selection_ports(
    model: ArchitectureModel, topology: RuntimeTopology
) -> list[Diagnostic]:
    """route_by and forward(broadcast=true) choose among the live replicas
    behind their out port, so that port must fuse into exactly one channel
    and it must end at a replica group. Whether it does depends on how each
    instance is wired, so the check runs on an elaborated topology."""
    diags: list[Diagnostic] = []
    by_type: dict[str, behaviors.Behavior] = {}
    for inst in topology.instances.values():
        tdef = inst.type_def
        if tdef.behavior is None:
            continue
        if tdef.name not in by_type:
            by_type[tdef.name] = behaviors.instantiate(tdef, model)
        behavior = by_type[tdef.name]
        if getattr(behavior, "mode", behaviors.MODE_ONE) == behaviors.MODE_ONE:
            continue
        port = behavior.out.name
        chs = topology.channels_from.get((inst.path, port), [])
        if len(chs) != 1 or not chs[0].group:
            message = (
                f"'{inst.path}' selects replicas with {tdef.behavior.builtin}, "
                f"so its out port '{port}' must feed exactly one replica group"
            )
            diags.append(_err(tdef.behavior, message, E_REPL_PORT))
    return diags


def _fuse(instances, leaving, owner, source, occs, mtype, channels) -> None:
    """Emit one channel per connector chain that leaves `source`.

    `source` is the source parts of connectors declared in `owner`. Chains
    are followed depth first in connector declaration order, with an
    explicit stack so that nesting depth is not bounded by the
    interpreter's recursion limit. A stack entry is one connector hop.
    """
    stack = _hops(leaving, owner, source, occs, ())
    while stack:
        owner, conn, occs, gates = stack.pop()
        gates = gates + owner.type_def.gates_of(conn)
        tgt = conn.target
        if tgt.is_own:
            occs = occs + [(owner.path, tgt.port)]
            if owner.path == ROOT_PATH:
                _emit_channel(channels, occs, gates, mtype, instances, external=True)
            else:
                parent = instances[owner.parent]
                stack += _hops(leaving, parent, (owner.name, tgt.port), occs, gates)
        else:
            child = instances[f"{owner.path}/{tgt.sub}"]
            occs = occs + [(child.path, tgt.port)]
            if child.atomic:
                _emit_channel(channels, occs, gates, mtype, instances, external=False)
            else:
                stack += _hops(leaving, child, (tgt.port,), occs, gates)


def _hops(leaving, owner, source, occs, gates) -> list:
    """The connectors of `owner` leaving `source` as stack entries, last first."""
    conns = leaving[owner.type_def.name].get(source, ())
    return [(owner, conn, occs, gates) for conn in conns]


def _emit_channel(channels, occs, gates, mtype, instances, external: bool) -> None:
    target_path, target_port = occs[-1]
    source_path, source_port = occs[0]
    group = (not external) and instances[target_path].replicating
    channels.append(
        ChannelSpec(
            id="->".join(f"{path}.{port}" for path, port in occs),
            source_path=source_path,
            source_port=source_port,
            target_path=target_path,
            target_port=target_port,
            message_type=mtype,
            external=external,
            group=group,
            gates=gates,
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
