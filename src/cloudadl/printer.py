"""Canonical text form for parsed models.

The printer emits one fixed layout: message types first, then component
types, each in declaration order; inside a component body ports come
before subcomponents, then connectors, contexts, and the behavior clause.
Reparsing the output yields a model equal to the input (positions are
ignored by equality).
"""

from __future__ import annotations

from .model import (
    ArchitectureModel,
    BehaviorClause,
    ComponentTypeDef,
    ContextDecl,
    Ident,
    MessageTypeDef,
    render_value,
)

INDENT = "  "


def pretty_print(model: ArchitectureModel) -> str:
    chunks: list[str] = []
    for mdef in model.message_types.values():
        chunks.append(format_message(mdef))
    for cdef in model.component_types.values():
        chunks.append(format_component(cdef))
    return "\n".join(chunks)


def format_message(mdef: MessageTypeDef) -> str:
    lines = [f"message {mdef.name} {{"]
    for fdef in mdef.fields:
        lines.append(f"{INDENT}{fdef.name}: {fdef.primitive};")
    lines.append("}")
    lines.append("")
    return "\n".join(lines)


def format_component(cdef: ComponentTypeDef) -> str:
    lines = [f"component {cdef.name} {{"]
    for p in cdef.ports:
        flag = " replicating" if p.replicating else ""
        lines.append(f"{INDENT}port {p.direction} {p.message_type} {p.name}{flag};")
    for s in cdef.subcomponents:
        prefix = "replicating " if s.replicating else ""
        lines.append(f"{INDENT}{prefix}component {s.type_ref} {s.name};")
    for c in cdef.connectors:
        lines.append(f"{INDENT}connect {c.render()};")
    for ctx in cdef.contexts:
        lines.extend(format_context(ctx))
    if cdef.behavior is not None:
        lines.append(f"{INDENT}{format_behavior(cdef.behavior)}")
    lines.append("}")
    lines.append("")
    return "\n".join(lines)


def format_context(ctx: ContextDecl) -> list[str]:
    lines = [f"{INDENT}context {ctx.name} {{"]
    for gate in ctx.opening:
        lines.append(f"{INDENT}{INDENT}open {gate.render()};")
    for gate in ctx.closing:
        lines.append(f"{INDENT}{INDENT}close {gate.render()};")
    lines.append(f"{INDENT}}}")
    return lines


def format_behavior(clause: BehaviorClause) -> str:
    rendered: list[str] = []
    for arg in clause.args:
        value = arg.value.name if isinstance(arg.value, Ident) else render_value(arg.value)
        rendered.append(value if arg.name is None else f"{arg.name}={value}")
    return f"behavior {clause.builtin}({', '.join(rendered)});"
