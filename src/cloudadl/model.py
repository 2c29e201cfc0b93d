"""Abstract model types for cloudADL architectures.

Source positions (origin, line, col) are carried for diagnostics but excluded
from equality, so two parses of equivalent text compare structurally equal.
"""

from __future__ import annotations

from .values import Frozen, Value, set_field

PRIMITIVES = ("integer", "text", "boolean")
_PYTHON_TYPES = {"integer": int, "text": str, "boolean": bool}

IN = "in"
OUT = "out"

# Gate actions accumulated along a fused channel, in traversal order.
OPEN = "open"
CLOSE = "close"


class Pos(Frozen):
    _fields = ("origin", "line", "col")
    _compare = ()

    def __init__(self, origin: str = "<none>", line: int = 0, col: int = 0):
        set_field(self, "origin", origin)
        set_field(self, "line", line)
        set_field(self, "col", col)


_NO_POS = Pos()


class FieldDef(Frozen):
    _fields = ("name", "primitive", "pos")

    def __init__(self, name: str, primitive: str, pos: Pos = _NO_POS):
        set_field(self, "name", name)
        set_field(self, "primitive", primitive)  # one of PRIMITIVES
        set_field(self, "pos", pos)


class MessageTypeDef(Frozen):
    _fields = ("name", "fields", "pos")

    def __init__(self, name: str, fields: tuple[FieldDef, ...], pos: Pos = _NO_POS):
        set_field(self, "name", name)
        set_field(self, "fields", fields)
        set_field(self, "pos", pos)

    def field_map(self) -> dict[str, str]:
        return {f.name: f.primitive for f in self.fields}

    def field_types(self) -> tuple[tuple[str, type], ...] | None:
        """(field name, exact Python type) per field; None if a name repeats.

        Built once per type and kept on the instance, outside the fields.
        """
        table = self.__dict__.get("_types", False)
        if table is False:
            names = {f.name for f in self.fields}
            table = None
            if len(names) == len(self.fields):
                table = tuple((f.name, _PYTHON_TYPES.get(f.primitive)) for f in self.fields)
            self.__dict__["_types"] = table
        return table


class PortDecl(Frozen):
    _fields = ("name", "direction", "message_type", "replicating", "pos")

    def __init__(
        self,
        name: str,
        direction: str,
        message_type: str,
        replicating: bool = False,
        pos: Pos = _NO_POS,
    ):
        set_field(self, "name", name)
        set_field(self, "direction", direction)  # IN | OUT
        set_field(self, "message_type", message_type)
        set_field(self, "replicating", replicating)
        set_field(self, "pos", pos)


class SubcomponentDecl(Frozen):
    _fields = ("name", "type_ref", "replicating", "pos")

    def __init__(
        self, name: str, type_ref: str, replicating: bool = False, pos: Pos = _NO_POS
    ):
        set_field(self, "name", name)
        set_field(self, "type_ref", type_ref)
        set_field(self, "replicating", replicating)
        set_field(self, "pos", pos)


class Endpoint(Frozen):
    """A connector end: either an own port (one part) or a dotted path.

    The grammar admits arbitrarily deep paths; the analyzer restricts legal
    endpoints to own ports and immediate subcomponents' ports.
    """

    _fields = ("parts", "pos")

    def __init__(self, parts: tuple[str, ...], pos: Pos = _NO_POS):
        set_field(self, "parts", parts)
        set_field(self, "pos", pos)

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


class ConnectorDecl(Frozen):
    _fields = ("source", "target", "pos")

    def __init__(self, source: Endpoint, target: Endpoint, pos: Pos = _NO_POS):
        set_field(self, "source", source)
        set_field(self, "target", target)
        set_field(self, "pos", pos)

    def render(self) -> str:
        return f"{self.source.render()} -> {self.target.render()}"


class GateRef(Frozen):
    """Reference to a connector by repeating its endpoint pair."""

    _fields = ("source", "target", "pos")

    def __init__(self, source: Endpoint, target: Endpoint, pos: Pos = _NO_POS):
        set_field(self, "source", source)
        set_field(self, "target", target)
        set_field(self, "pos", pos)

    def key(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        return (self.source.parts, self.target.parts)


class ContextDecl(Frozen):
    _fields = ("name", "opening", "closing", "pos")

    def __init__(
        self,
        name: str,
        opening: tuple[GateRef, ...],
        closing: tuple[GateRef, ...],
        pos: Pos = _NO_POS,
    ):
        set_field(self, "name", name)
        set_field(self, "opening", opening)
        set_field(self, "closing", closing)
        set_field(self, "pos", pos)


class Ident(Frozen):
    """A bare identifier used as a behavior argument value.

    Distinct from a quoted text literal so printing round-trips.
    """

    _fields = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)

    def __str__(self) -> str:
        return self.name


class BehaviorArg(Frozen):
    _fields = ("name", "value")

    def __init__(self, name: str | None, value: object):
        set_field(self, "name", name)  # None for positional
        set_field(self, "value", value)  # int | bool | str | Ident


class BehaviorClause(Frozen):
    _fields = ("builtin", "args", "pos")

    def __init__(self, builtin: str, args: tuple[BehaviorArg, ...], pos: Pos = _NO_POS):
        set_field(self, "builtin", builtin)
        set_field(self, "args", args)
        set_field(self, "pos", pos)


class ComponentTypeDef(Frozen):
    _fields = (
        "name", "ports", "subcomponents", "connectors", "contexts", "behavior", "pos"
    )

    def __init__(
        self,
        name: str,
        ports: tuple[PortDecl, ...],
        subcomponents: tuple[SubcomponentDecl, ...],
        connectors: tuple[ConnectorDecl, ...],
        contexts: tuple[ContextDecl, ...],
        behavior: BehaviorClause | None,
        pos: Pos = _NO_POS,
    ):
        set_field(self, "name", name)
        set_field(self, "ports", ports)
        set_field(self, "subcomponents", subcomponents)
        set_field(self, "connectors", connectors)
        set_field(self, "contexts", contexts)
        set_field(self, "behavior", behavior)
        set_field(self, "pos", pos)

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


class ArchitectureModel(Value):
    """Union of parsed definitions, keyed by name within each namespace."""

    _fields = ("message_types", "component_types")

    def __init__(
        self,
        message_types: dict[str, MessageTypeDef] | None = None,
        component_types: dict[str, ComponentTypeDef] | None = None,
    ):
        self.message_types = {} if message_types is None else message_types
        self.component_types = {} if component_types is None else component_types

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArchitectureModel):
            return NotImplemented
        return (
            self.message_types == other.message_types
            and self.component_types == other.component_types
        )


class Record(Frozen):
    """A typed payload value: field values in declaration order."""

    _fields = ("type_name", "values")

    def __init__(self, type_name: str, values: tuple[tuple[str, object], ...]):
        set_field(self, "type_name", type_name)
        set_field(self, "values", values)  # (field name, int|str|bool)

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
    table = type_def.field_types()
    if table is not None and len(values) == len(table):
        # every field present with exactly its type: nothing below would object
        ordered = []
        for name, kind in table:
            v = values.get(name)
            if type(v) is not kind:
                break
            ordered.append((name, v))
        else:
            return Record(type_def.name, tuple(ordered))
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
