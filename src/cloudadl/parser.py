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
from .diagnostics import E_DUP_DEF, E_IO, E_SYNTAX, Diagnostic, error, io_error
from .model import (
    ArchitectureModel,
    BehaviorArg,
    BehaviorClause,
    ComponentTypeDef,
    ConnectorDecl,
    ContextDecl,
    Endpoint,
    FieldDef,
    GateRef,
    Ident,
    MessageTypeDef,
    PortDecl,
    Pos,
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


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class TokenCursor:
    """Shared token-walking helpers for the .arc and payload grammars."""

    def __init__(self, tokens: list[lexer.Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> lexer.Token:
        return self.tokens[self.pos]

    def advance(self) -> lexer.Token:
        tok = self.tokens[self.pos]
        if tok.type != lexer.EOF:
            self.pos += 1
        return tok

    def at(self, token_type: str, value: str | None = None) -> bool:
        tok = self.peek()
        if tok.type != token_type:
            return False
        return value is None or tok.value == value

    def accept(self, token_type: str, value: str | None = None) -> lexer.Token | None:
        if self.at(token_type, value):
            return self.advance()
        return None

    def expect(self, token_type: str, what: str | None = None) -> lexer.Token:
        tok = self.peek()
        if tok.type != token_type:
            expected = what or token_type
            raise ParseError(
                f"expected {expected}, got {describe(tok)}", tok.line, tok.col
            )
        return self.advance()

    def expect_keyword(self, word: str) -> lexer.Token:
        tok = self.peek()
        if tok.type != lexer.IDENT or tok.value != word:
            raise ParseError(
                f"expected '{word}', got {describe(tok)}", tok.line, tok.col
            )
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        return self.at(lexer.IDENT, word)

    def expect_name(self, what: str) -> lexer.Token:
        tok = self.expect(lexer.IDENT, what)
        if tok.value in RESERVED:
            raise ParseError(
                f"reserved word '{tok.value}' cannot be used as {what}",
                tok.line,
                tok.col,
            )
        return tok

    def parse_value(self) -> object:
        """INT | -INT | STRING | true | false | bare identifier."""
        tok = self.peek()
        if tok.type == lexer.INT:
            self.advance()
            return int(tok.value)
        if tok.type == "-":
            self.advance()
            num = self.expect(lexer.INT, "integer literal")
            return -int(num.value)
        if tok.type == lexer.STRING:
            self.advance()
            return tok.value
        if tok.type == lexer.IDENT and tok.value in ("true", "false"):
            self.advance()
            return tok.value == "true"
        if tok.type == lexer.IDENT:
            if tok.value in RESERVED:
                raise ParseError(
                    f"reserved word '{tok.value}' cannot be used as a value",
                    tok.line,
                    tok.col,
                )
            self.advance()
            return Ident(tok.value)
        raise ParseError(f"expected a value, got {describe(tok)}", tok.line, tok.col)

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
                    raise ParseError(
                        f"field '{fname.value}' needs a literal value",
                        fname.line,
                        fname.col,
                    )
                if fname.value in values:
                    raise ParseError(
                        f"field '{fname.value}' set twice", fname.line, fname.col
                    )
                values[fname.value] = v
                if not self.accept(","):
                    break
        self.expect("}")
        return name.value, values, name


def describe(tok: lexer.Token) -> str:
    if tok.type == lexer.EOF:
        return "end of input"
    return f"'{tok.value}'"


class ModelParser(TokenCursor):
    def __init__(self, tokens: list[lexer.Token], origin: str):
        super().__init__(tokens)
        self.origin = origin

    def _pos(self, tok: lexer.Token) -> Pos:
        return Pos(self.origin, tok.line, tok.col)

    def parse_model(self) -> tuple[ArchitectureModel, list[Diagnostic]]:
        model = ArchitectureModel()
        dups: list[Diagnostic] = []
        while not self.at(lexer.EOF):
            tok = self.peek()
            # message and component types share one namespace
            if self.at_keyword("message"):
                mdef = self.parse_message_def()
                if mdef.name in model.message_types or mdef.name in model.component_types:
                    dups.append(self._dup("message type", mdef.name, mdef.pos))
                else:
                    model.message_types[mdef.name] = mdef
            elif self.at_keyword("component"):
                cdef = self.parse_component_def()
                if cdef.name in model.component_types or cdef.name in model.message_types:
                    dups.append(self._dup("component type", cdef.name, cdef.pos))
                else:
                    model.component_types[cdef.name] = cdef
            else:
                raise ParseError(
                    f"expected 'message' or 'component', got {describe(tok)}",
                    tok.line,
                    tok.col,
                )
        return model, dups

    def _dup(self, kind: str, name: str, pos: Pos) -> Diagnostic:
        return error(
            E_DUP_DEF,
            pos.origin,
            pos.line,
            pos.col,
            f"{kind} '{name}' is already defined",
        )

    def parse_message_def(self) -> MessageTypeDef:
        kw = self.expect_keyword("message")
        name = self.expect_name("message type name")
        self.expect("{")
        fields: list[FieldDef] = []
        seen: set[str] = set()
        while not self.at("}"):
            fname = self.expect_name("field name")
            self.expect(":")
            prim = self.expect(lexer.IDENT, "primitive type")
            if prim.value not in PRIMITIVES:
                raise ParseError(
                    f"unknown primitive '{prim.value}' (expected integer, text, or boolean)",
                    prim.line,
                    prim.col,
                )
            self.expect(";")
            if fname.value in seen:
                raise ParseError(
                    f"field '{fname.value}' is already declared", fname.line, fname.col
                )
            seen.add(fname.value)
            fields.append(FieldDef(fname.value, prim.value, self._pos(fname)))
        self.expect("}")
        return MessageTypeDef(name.value, tuple(fields), self._pos(kw))

    def parse_component_def(self) -> ComponentTypeDef:
        kw = self.expect_keyword("component")
        name = self.expect_name("component type name")
        self.expect("{")
        ports: list[PortDecl] = []
        subs: list[SubcomponentDecl] = []
        connectors: list[ConnectorDecl] = []
        contexts: list[ContextDecl] = []
        behavior: BehaviorClause | None = None
        port_names: set[str] = set()
        sub_names: set[str] = set()

        while not self.at("}"):
            tok = self.peek()
            if self.at_keyword("port"):
                p = self.parse_port()
                if p.name in port_names:
                    raise ParseError(
                        f"port '{p.name}' is already declared", tok.line, tok.col
                    )
                port_names.add(p.name)
                ports.append(p)
            elif self.at_keyword("component") or self.at_keyword("replicating"):
                s = self.parse_subcomponent()
                if s.name in sub_names:
                    raise ParseError(
                        f"subcomponent '{s.name}' is already declared",
                        tok.line,
                        tok.col,
                    )
                sub_names.add(s.name)
                subs.append(s)
            elif self.at_keyword("connect"):
                connectors.append(self.parse_connector())
            elif self.at_keyword("context"):
                contexts.append(self.parse_context())
            elif self.at_keyword("behavior"):
                if behavior is not None:
                    raise ParseError(
                        "component already has a behavior clause", tok.line, tok.col
                    )
                behavior = self.parse_behavior()
            else:
                raise ParseError(
                    f"expected a component item, got {describe(tok)}",
                    tok.line,
                    tok.col,
                )
        self.expect("}")
        return ComponentTypeDef(
            name.value,
            tuple(ports),
            tuple(subs),
            tuple(connectors),
            tuple(contexts),
            behavior,
            self._pos(kw),
        )

    def parse_port(self) -> PortDecl:
        kw = self.expect_keyword("port")
        tok = self.peek()
        if self.at_keyword("in") or self.at_keyword("out"):
            direction = self.advance().value
        else:
            raise ParseError(
                f"expected 'in' or 'out', got {describe(tok)}", tok.line, tok.col
            )
        mtype = self.expect_name("message type name")
        name = self.expect_name("port name")
        replicating = self.accept(lexer.IDENT, "replicating") is not None
        self.expect(";")
        return PortDecl(name.value, direction, mtype.value, replicating, self._pos(kw))

    def parse_subcomponent(self) -> SubcomponentDecl:
        first = self.peek()
        replicating = self.accept(lexer.IDENT, "replicating") is not None
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
        kw = self.expect_keyword("connect")
        source = self.parse_endpoint()
        self.expect("->")
        target = self.parse_endpoint()
        self.expect(";")
        return ConnectorDecl(source, target, self._pos(kw))

    def parse_context(self) -> ContextDecl:
        kw = self.expect_keyword("context")
        name = self.expect_name("context name")
        self.expect("{")
        opening: list[GateRef] = []
        closing: list[GateRef] = []
        while not self.at("}"):
            tok = self.peek()
            if self.at_keyword("open"):
                kind = "open"
            elif self.at_keyword("close"):
                kind = "close"
            else:
                raise ParseError(
                    f"expected 'open' or 'close', got {describe(tok)}",
                    tok.line,
                    tok.col,
                )
            self.advance()
            source = self.parse_endpoint()
            self.expect("->")
            target = self.parse_endpoint()
            self.expect(";")
            gate = GateRef(source, target, self._pos(tok))
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
        tok = self.peek()
        # argument names may shadow reserved words (e.g. out=); the '='
        # lookahead keeps them apart from bare identifier values
        if (
            tok.type == lexer.IDENT
            and tok.value not in ("true", "false")
            and self.tokens[self.pos + 1].type == "="
        ):
            name = self.advance().value
            self.expect("=")
            return BehaviorArg(name, self.parse_value())
        return BehaviorArg(None, self.parse_value())


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
    except (lexer.LexError, ParseError) as exc:
        return None, [error(E_SYNTAX, origin, exc.line, exc.col, exc.message)]
    if dups:
        return None, dups
    return model, []


def merge_models(
    fragments: list[tuple[ArchitectureModel, str]]
) -> tuple[ArchitectureModel | None, list[Diagnostic]]:
    """Union fragment definitions; cross-fragment duplicate names rejected."""
    merged = ArchitectureModel()
    diags: list[Diagnostic] = []
    for fragment, _origin in fragments:
        for mdef in fragment.message_types.values():
            if mdef.name in merged.message_types or mdef.name in merged.component_types:
                diags.append(_cross_dup("message type", mdef.name, mdef.pos))
            else:
                merged.message_types[mdef.name] = mdef
        for cdef in fragment.component_types.values():
            if cdef.name in merged.component_types or cdef.name in merged.message_types:
                diags.append(_cross_dup("component type", cdef.name, cdef.pos))
            else:
                merged.component_types[cdef.name] = cdef
    if diags:
        return None, diags
    return merged, []


def _cross_dup(kind: str, name: str, pos: Pos) -> Diagnostic:
    return error(
        E_DUP_DEF,
        pos.origin,
        pos.line,
        pos.col,
        f"{kind} '{name}' is already defined in another file",
    )


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
        return None, [error(E_IO, origin, line, col, message)]


def load_files(paths: list[str]) -> tuple[ArchitectureModel | None, list[Diagnostic]]:
    """Parse and merge a set of .arc files."""
    fragments: list[tuple[ArchitectureModel, str]] = []
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
            fragments.append((fragment, origin))
    if diags:
        return None, diags
    return merge_models(fragments)

