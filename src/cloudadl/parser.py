"""Recursive-descent parser for .arc sources.

Grammar (informal EBNF):

    model        = { message_def | component_def } EOF
    message_def  = "message" NAME "{" { field } "}"
    field        = NAME ":" ("integer" | "text" | "boolean") ";"
    component_def= "component" NAME "{" { item } "}"
    item         = port | sub | connect | context | behavior
    port         = "port" ("in" | "out") NAME NAME [ "replicating" ] ";"
    sub          = [ "replicating" ] "component" NAME NAME ";"
    connect      = "connect" endpoint "->" endpoint ";"
    endpoint     = NAME { "." NAME }
    context      = "context" NAME "{" { gate } "}"
    gate         = ("open" | "close") endpoint "->" endpoint ";"
    behavior     = "behavior" NAME "(" [ arg { "," arg } ] ")" ";"
    arg          = [ NAME "=" ] value
    value        = INT | "-" INT | STRING | "true" | "false" | NAME

Comments run from "//" to end of line. NAME is an identifier that is not a
reserved word. Item kinds may appear in any order inside a component body;
each kind keeps its own declaration order.
"""

from __future__ import annotations

import os

from . import lexer
from .diagnostics import E_DUP_DEF, E_IO, E_SYNTAX, Diagnostic, io_error, quoted
from .lexer import EOF, IDENT, INT, STRING, LexError
from .model import (
    ArchitectureModel,
    BehaviorArg,
    BehaviorClause,
    ComponentTypeDef,
    ConnectorDecl,
    ContextDecl,
    Endpoint,
    FieldDef,
    Ident,
    MessageTypeDef,
    PortDecl,
    PRIMITIVES,
    SubcomponentDecl,
)

RESERVED = frozenset(
    {
        "message",
        "component",
        "port",
        "in",
        "out",
        "replicating",
        "connect",
        "context",
        "open",
        "close",
        "behavior",
        "emit",
        "true",
        "false",
        "integer",
        "text",
        "boolean",
    }
)


def _int_value(tok: lexer.Token) -> int:
    try:
        return int(tok.value)
    except ValueError:  # past the interpreter's limit on int() digits
        raise LexError(
            f"integer literal of {len(tok.value)} digits is too long", tok.line, tok.col
        ) from None


class TokenCursor:
    """Shared token-walking helpers for the .arc and payload grammars.

    Each method reads the current token once and moves `pos` itself. The
    cursor never moves past the final EOF token.
    """

    def __init__(self, tokens: list[lexer.Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> lexer.Token:
        return self.tokens[self.pos]

    def at(self, token_type: str, value: str | None = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.type == token_type and (value is None or tok.value == value)

    def accept(self, token_type: str, value: str | None = None) -> lexer.Token | None:
        tok = self.tokens[self.pos]
        if tok.type != token_type or (value is not None and tok.value != value):
            return None
        if token_type != EOF:
            self.pos += 1
        return tok

    def expect(self, token_type: str, what: str | None = None) -> lexer.Token:
        tok = self.tokens[self.pos]
        if tok.type != token_type:
            expected = what or token_type
            raise LexError(
                f"expected {expected}, got {describe(tok)}", tok.line, tok.col
            )
        if token_type != EOF:
            self.pos += 1
        return tok

    def expect_keyword(self, word: str) -> lexer.Token:
        tok = self.tokens[self.pos]
        if tok.value != word or tok.type != IDENT:
            raise LexError(
                f"expected '{word}', got {describe(tok)}", tok.line, tok.col
            )
        self.pos += 1
        return tok

    def expect_name(self, what: str) -> lexer.Token:
        tok = self.tokens[self.pos]
        if tok.type != IDENT:
            raise LexError(f"expected {what}, got {describe(tok)}", tok.line, tok.col)
        if tok.value in RESERVED:
            raise LexError(
                f"reserved word '{tok.value}' cannot be used as {what}",
                tok.line,
                tok.col,
            )
        self.pos += 1
        return tok

    def parse_value(self) -> object:
        """INT | -INT | STRING | true | false | bare identifier."""
        tok = self.tokens[self.pos]
        kind = tok.type
        if kind == INT:
            self.pos += 1
            return _int_value(tok)
        if kind == "-":
            self.pos += 1
            return -_int_value(self.expect(INT, "integer literal"))
        if kind == STRING:
            self.pos += 1
            return tok.value
        if kind == IDENT:
            value = tok.value
            if value == "true" or value == "false":
                self.pos += 1
                return value == "true"
            if value in RESERVED:
                raise LexError(
                    f"reserved word '{value}' cannot be used as a value",
                    tok.line,
                    tok.col,
                )
            self.pos += 1
            return Ident(value)
        raise LexError(f"expected a value, got {describe(tok)}", tok.line, tok.col)

    def parse_payload_record(self) -> tuple[str, dict[str, object], lexer.Token]:
        """TypeName{field=value,...}; returns (type name, values, name token)."""
        name = self.expect_name("message type name")
        self.expect("{")
        values: dict[str, object] = {}
        if not self.at("}"):
            while True:
                fname = self.expect_name("field name")
                self.expect("=")
                v = self.parse_value()
                if isinstance(v, Ident):
                    raise LexError(
                        f"field {quoted(fname.value)} needs a literal value",
                        fname.line,
                        fname.col,
                    )
                if fname.value in values:
                    raise LexError(
                        f"field {quoted(fname.value)} set twice", fname.line, fname.col
                    )
                values[fname.value] = v
                if not self.accept(","):
                    break
        self.expect("}")
        return name.value, values, name


def describe(tok: lexer.Token) -> str:
    if tok.type == EOF:
        return "end of input"
    return quoted(tok.value)


class ModelParser(TokenCursor):
    def __init__(self, tokens: list[lexer.Token], origin: str):
        super().__init__(tokens)
        self.origin = origin

    def _pos(self, tok: lexer.Token) -> tuple[str, int, int]:
        return (self.origin, tok.line, tok.col)

    def parse_model(self) -> tuple[ArchitectureModel, list[Diagnostic]]:
        model = ArchitectureModel()
        dups: list[Diagnostic] = []
        while True:
            tok = self.tokens[self.pos]
            if tok.type == EOF:
                break
            word = tok.value if tok.type == IDENT else None
            if word == "message":
                tdef = self.parse_message_def()
            elif word == "component":
                tdef = self.parse_component_def()
            else:
                raise LexError(
                    f"expected 'message' or 'component', got {describe(tok)}",
                    tok.line,
                    tok.col,
                )
            _define(model, word, tdef, dups)
        return model, dups

    def parse_message_def(self) -> MessageTypeDef:
        kw = self.expect_keyword("message")
        name = self.expect_name("message type name")
        self.expect("{")
        fields: dict[str, FieldDef] = {}
        while not self.at("}"):
            fname = self.expect_name("field name")
            self.expect(":")
            prim = self.expect(IDENT, "primitive type")
            if prim.value not in PRIMITIVES:
                raise LexError(
                    f"unknown primitive {quoted(prim.value)} (expected integer, text, or boolean)",
                    prim.line,
                    prim.col,
                )
            self.expect(";")
            _declare(fields, "field", FieldDef(fname.value, prim.value, self._pos(fname)))
        self.expect("}")
        return MessageTypeDef(name.value, tuple(fields.values()), self._pos(kw))

    def parse_component_def(self) -> ComponentTypeDef:
        kw = self.expect_keyword("component")
        name = self.expect_name("component type name")
        self.expect("{")
        ports: dict[str, PortDecl] = {}
        subs: dict[str, SubcomponentDecl] = {}
        connectors: list[ConnectorDecl] = []
        contexts: list[ContextDecl] = []
        behavior: BehaviorClause | None = None

        while True:
            tok = self.tokens[self.pos]
            if tok.type == "}":
                break
            word = tok.value if tok.type == IDENT else None
            if word == "port":
                _declare(ports, "port", self.parse_port())
            elif word == "component" or word == "replicating":
                _declare(subs, "subcomponent", self.parse_subcomponent())
            elif word == "connect":
                connectors.append(self.parse_connector())
            elif word == "context":
                contexts.append(self.parse_context())
            elif word == "behavior":
                if behavior is not None:
                    raise LexError(
                        "component already has a behavior clause", tok.line, tok.col
                    )
                behavior = self.parse_behavior()
            else:
                raise LexError(
                    f"expected a component item, got {describe(tok)}",
                    tok.line,
                    tok.col,
                )
        self.pos += 1  # the closing "}"
        return ComponentTypeDef(
            name.value,
            tuple(ports.values()),
            tuple(subs.values()),
            tuple(connectors),
            tuple(contexts),
            behavior,
            self._pos(kw),
        )

    def parse_port(self) -> PortDecl:
        kw = self.expect_keyword("port")
        tok = self.tokens[self.pos]
        direction = tok.value
        if (direction != "in" and direction != "out") or tok.type != IDENT:
            raise LexError(
                f"expected 'in' or 'out', got {describe(tok)}", tok.line, tok.col
            )
        self.pos += 1
        mtype = self.expect_name("message type name")
        name = self.expect_name("port name")
        replicating = self.accept(IDENT, "replicating") is not None
        self.expect(";")
        return PortDecl(name.value, direction, mtype.value, replicating, self._pos(kw))

    def parse_subcomponent(self) -> SubcomponentDecl:
        first = self.tokens[self.pos]
        replicating = self.accept(IDENT, "replicating") is not None
        self.expect_keyword("component")
        type_ref = self.expect_name("component type name")
        name = self.expect_name("subcomponent name")
        self.expect(";")
        return SubcomponentDecl(
            name.value, type_ref.value, replicating, self._pos(first)
        )

    def parse_endpoint(self) -> Endpoint:
        first = self.expect_name("port or subcomponent name")
        parts = [first.value]
        while self.accept("."):
            parts.append(self.expect_name("port name").value)
        return Endpoint(tuple(parts), self._pos(first))

    def parse_connector(self) -> ConnectorDecl:
        return self.parse_endpoint_pair(self.expect_keyword("connect"))

    def parse_endpoint_pair(self, kw: lexer.Token) -> ConnectorDecl:
        """endpoint "->" endpoint ";" after `kw`, which gives the position."""
        source = self.parse_endpoint()
        self.expect("->")
        target = self.parse_endpoint()
        self.expect(";")
        return ConnectorDecl(source, target, self._pos(kw))

    def parse_context(self) -> ContextDecl:
        kw = self.expect_keyword("context")
        name = self.expect_name("context name")
        self.expect("{")
        opening: list[ConnectorDecl] = []
        closing: list[ConnectorDecl] = []
        while not self.at("}"):
            tok = self.tokens[self.pos]
            kind = tok.value
            if (kind != "open" and kind != "close") or tok.type != IDENT:
                raise LexError(
                    f"expected 'open' or 'close', got {describe(tok)}",
                    tok.line,
                    tok.col,
                )
            self.pos += 1
            gate = self.parse_endpoint_pair(tok)
            (opening if kind == "open" else closing).append(gate)
        self.expect("}")
        return ContextDecl(name.value, tuple(opening), tuple(closing), self._pos(kw))

    def parse_behavior(self) -> BehaviorClause:
        kw = self.expect_keyword("behavior")
        name = self.expect_name("behavior name")
        self.expect("(")
        args: list[BehaviorArg] = []
        if not self.at(")"):
            while True:
                args.append(self.parse_arg())
                if not self.accept(","):
                    break
        self.expect(")")
        self.expect(";")
        return BehaviorClause(name.value, tuple(args), self._pos(kw))

    def parse_arg(self) -> BehaviorArg:
        tok = self.tokens[self.pos]
        # argument names may shadow reserved words (e.g. out=); the '='
        # lookahead keeps them apart from bare identifier values
        if (
            tok.type == IDENT
            and tok.value not in ("true", "false")
            and self.tokens[self.pos + 1].type == "="
        ):
            self.pos += 2  # the name and its "="
            return BehaviorArg(tok.value, self.parse_value())
        return BehaviorArg(None, self.parse_value())


def _declare(decls: dict, kind: str, decl: FieldDef | PortDecl | SubcomponentDecl) -> None:
    """Add a field, port or subcomponent to its type's declarations; a
    repeated name is a syntax error at the repeat's position."""
    if decl.name in decls:
        _origin, line, col = decl.pos
        raise LexError(f"{kind} {quoted(decl.name)} is already declared", line, col)
    decls[decl.name] = decl


def _define(
    model: ArchitectureModel,
    kind: str,
    tdef: MessageTypeDef | ComponentTypeDef,
    dups: list[Diagnostic],
    where: str = "",
) -> None:
    """Add a message or component type to `model`; the two kinds share one
    namespace, and a name already in it adds an E_DUP_DEF to `dups`."""
    if tdef.name in model.message_types or tdef.name in model.component_types:
        message = f"{kind} type {quoted(tdef.name)} is already defined{where}"
        dups.append(Diagnostic(E_DUP_DEF, *tdef.pos, message))
    elif kind == "message":
        model.message_types[tdef.name] = tdef
    else:
        model.component_types[tdef.name] = tdef


def parse_model(
    source_text: str, origin: str = "<string>"
) -> tuple[ArchitectureModel | None, list[Diagnostic]]:
    """Parse one .arc source into a model fragment.

    Returns (model, []) on success or (None, diagnostics) on failure;
    never both a model and diagnostics.
    """
    try:
        tokens = lexer.tokenize(source_text)
        parser = ModelParser(tokens, origin)
        model, dups = parser.parse_model()
    except LexError as exc:
        return None, [Diagnostic(E_SYNTAX, origin, exc.line, exc.col, exc.message)]
    if dups:
        return None, dups
    return model, []


def merge_models(
    fragments: list[ArchitectureModel],
) -> tuple[ArchitectureModel | None, list[Diagnostic]]:
    """Union fragment definitions; cross-fragment duplicate names rejected."""
    merged = ArchitectureModel()
    diags: list[Diagnostic] = []
    for fragment in fragments:
        for mdef in fragment.message_types.values():
            _define(merged, "message", mdef, diags, " in another file")
        for cdef in fragment.component_types.values():
            _define(merged, "component", cdef, diags, " in another file")
    if diags:
        return None, diags
    return merged, []


def read_source(path: str) -> tuple[str | None, list[Diagnostic]]:
    """Read a UTF-8 source file; failing that, one E_IO diagnostic."""
    origin = os.fspath(path)
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read(), []
    except OSError as exc:
        return None, [io_error(origin, exc)]
    except UnicodeDecodeError as exc:
        data, at = exc.object, exc.start
        line = data.count(b"\n", 0, at) + 1
        col = at - data.rfind(b"\n", 0, at)
        message = f"not valid UTF-8: byte 0x{data[at]:02x}"
        return None, [Diagnostic(E_IO, origin, line, col, message)]


def load_files(paths: list[str]) -> tuple[ArchitectureModel | None, list[Diagnostic]]:
    """Parse and merge a set of .arc files."""
    fragments: list[ArchitectureModel] = []
    diags: list[Diagnostic] = []
    for path in paths:
        origin = os.fspath(path)
        text, file_diags = read_source(path)
        if text is None:
            diags.extend(file_diags)
            continue
        fragment, file_diags = parse_model(text, origin)
        if fragment is None:
            diags.extend(file_diags)
        else:
            fragments.append(fragment)
    if diags:
        return None, diags
    return merge_models(fragments)

