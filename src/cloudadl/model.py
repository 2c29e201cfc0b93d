"""Abstract model types for cloudADL architectures.

Source positions (origin, line, col) are carried for diagnostics but excluded
from equality, so two parses of equivalent text compare structurally equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PRIMITIVES = ("integer", "text", "boolean")

IN = "in"
OUT = "out"

# Gate actions accumulated along a fused channel, in traversal order.
OPEN = "open"
CLOSE = "close"


@dataclass(frozen=True)
class Pos:
    origin: str = field(compare=False, default="<none>")
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class FieldDef:
    name: str
    primitive: str  # one of PRIMITIVES
    pos: Pos = field(compare=False, default=Pos())


@dataclass(frozen=True)
class MessageTypeDef:
    name: str
    fields: tuple[FieldDef, ...]
    pos: Pos = field(compare=False, default=Pos())

    def field_map(self) -> dict[str, str]:
        return {f.name: f.primitive for f in self.fields}


@dataclass(frozen=True)
class PortDecl:
    name: str
    direction: str  # IN | OUT
    message_type: str
    replicating: bool = False
    pos: Pos = field(compare=False, default=Pos())


@dataclass(frozen=True)
class SubcomponentDecl:
    name: str
    type_ref: str
    replicating: bool = False
    pos: Pos = field(compare=False, default=Pos())


@dataclass(frozen=True)
class Endpoint:
    """A connector end: either an own port (one part) or a dotted path.

    The grammar admits arbitrarily deep paths; the analyzer restricts legal
    endpoints to own ports and immediate subcomponents' ports.
    """

    parts: tuple[str, ...]
    pos: Pos = field(compare=False, default=Pos())

    @property
    def is_own(self) -> bool:
        return len(self.parts) == 1

    @property
    def sub(self) -> str:
        return self.parts[0]

    @property
    def port(self) -> str:
        return self.parts[-1]

    def render(self) -> str:
        return ".".join(self.parts)


@dataclass(frozen=True)
class ConnectorDecl:
    source: Endpoint
    target: Endpoint
    pos: Pos = field(compare=False, default=Pos())

    def render(self) -> str:
        return f"{self.source.render()} -> {self.target.render()}"


@dataclass(frozen=True)
class GateRef:
    """Reference to a connector by repeating its endpoint pair."""

    source: Endpoint
    target: Endpoint
    pos: Pos = field(compare=False, default=Pos())

    def key(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        return (self.source.parts, self.target.parts)


@dataclass(frozen=True)
class ContextDecl:
    name: str
    opening: tuple[GateRef, ...]
    closing: tuple[GateRef, ...]
    pos: Pos = field(compare=False, default=Pos())


@dataclass(frozen=True)
class Ident:
    """A bare identifier used as a behavior argument value.

    Distinct from a quoted text literal so printing round-trips.
    """

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BehaviorArg:
    name: str | None  # None for positional
    value: object  # int | bool | str | Ident


@dataclass(frozen=True)
class BehaviorClause:
    builtin: str
    args: tuple[BehaviorArg, ...]
    pos: Pos = field(compare=False, default=Pos())


@dataclass(frozen=True)
class ComponentTypeDef:
    name: str
    ports: tuple[PortDecl, ...]
    subcomponents: tuple[SubcomponentDecl, ...]
    connectors: tuple[ConnectorDecl, ...]
    contexts: tuple[ContextDecl, ...]
    behavior: BehaviorClause | None
    pos: Pos = field(compare=False, default=Pos())

    @property
    def is_decomposed(self) -> bool:
        return len(self.subcomponents) > 0

    # The lookups below are indexed once per type. Each index lives on the
    # instance, outside the fields, so eq, hash and repr do not see it.

    def port(self, name: str) -> PortDecl | None:
        return self._first_by_name("_ports", self.ports).get(name)

    def subcomponent(self, name: str) -> SubcomponentDecl | None:
        return self._first_by_name("_subcomponents", self.subcomponents).get(name)

    def gates_of(self, conn: ConnectorDecl) -> tuple[tuple[str, str], ...]:
        """(OPEN | CLOSE, context name) for each context gating `conn`: all
        opens in context order, then all closes."""
        index = self.__dict__.get("_gates")
        if index is None:
            found: dict[tuple, list[tuple[str, str]]] = {}
            for action, side in ((OPEN, "opening"), (CLOSE, "closing")):
                for ctx in self.contexts:
                    for key in dict.fromkeys(g.key() for g in getattr(ctx, side)):
                        found.setdefault(key, []).append((action, ctx.name))
            index = self.__dict__["_gates"] = {k: tuple(v) for k, v in found.items()}
        return index.get((conn.source.parts, conn.target.parts), ())

    def _first_by_name(self, attr: str, decls: tuple) -> dict:
        index = self.__dict__.get(attr)
        if index is None:
            # reversed, so the first declaration of a duplicated name wins
            index = self.__dict__[attr] = {d.name: d for d in reversed(decls)}
        return index


@dataclass
class ArchitectureModel:
    """Union of parsed definitions, keyed by name within each namespace."""

    message_types: dict[str, MessageTypeDef] = field(default_factory=dict)
    component_types: dict[str, ComponentTypeDef] = field(default_factory=dict)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArchitectureModel):
            return NotImplemented
        return (
            self.message_types == other.message_types
            and self.component_types == other.component_types
        )


@dataclass(frozen=True)
class Record:
    """A typed payload value: field values in declaration order."""

    type_name: str
    values: tuple[tuple[str, object], ...]  # (field name, int|str|bool)

    def get(self, name: str) -> object:
        for k, v in self.values:
            if k == name:
                return v
        raise KeyError(name)

    def render(self) -> str:
        # One payload crosses many channels; keep its text on the instance,
        # outside the fields, so eq, hash and repr do not see it.
        text = self.__dict__.get("_text")
        if text is None:
            inner = ",".join(f"{k}={render_value(v)}" for k, v in self.values)
            text = self.__dict__["_text"] = f"{self.type_name}{{{inner}}}"
        return text


def render_value(v: object) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        escaped = (
            v.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\t", "\\t")
        )
        return f'"{escaped}"'
    raise TypeError(f"unsupported payload value: {v!r}")


def primitive_of(v: object) -> str:
    if isinstance(v, bool):
        return "boolean"
    if isinstance(v, int):
        return "integer"
    if isinstance(v, str):
        return "text"
    raise TypeError(f"unsupported payload value: {v!r}")


def make_record(type_def: MessageTypeDef, values: dict[str, object]) -> Record:
    """Build a Record against a message type, checking names and primitives."""
    missing = [f.name for f in type_def.fields if f.name not in values]
    if missing:
        raise ValueError(f"{type_def.name}: missing fields {', '.join(missing)}")
    field_map = type_def.field_map()
    extra = [k for k in values if k not in field_map]
    if extra:
        raise ValueError(f"{type_def.name}: unknown fields {', '.join(extra)}")
    ordered = []
    for f in type_def.fields:
        v = values[f.name]
        if primitive_of(v) != f.primitive:
            raise ValueError(
                f"{type_def.name}.{f.name}: expected {f.primitive}, got {primitive_of(v)}"
            )
        ordered.append((f.name, v))
    return Record(type_def.name, tuple(ordered))
