"""Tokenizer for .arc sources and the payload/automaton sub-grammars."""

from __future__ import annotations

from .values import Value


class LexError(Exception):
    """A syntax error at a line and column: raised by the lexer and by every
    grammar that reads its tokens (models, payload literals, transitions)."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


IDENT = "IDENT"
INT = "INT"
STRING = "STRING"
EOF = "EOF"

# A two-character punct wins over its one-character prefix.
_PUNCTS = frozenset((
    "->", ">=", "<=", "!=",
    "{", "}", "(", ")", ";", ",", ":", ".", "=", "-", "<", ">", "*",
))


class Token(Value):
    __slots__ = ("type", "value", "line", "col")
    _fields = __slots__

    def __init__(self, type: str, value: str, line: int, col: int):
        self.type = type  # IDENT, INT, STRING, EOF, or the punct itself
        self.value = value
        self.line = line
        self.col = col


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    while i < n:
        ch = source[i]

        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                i += 1
            continue

        if ch == '"':
            start_col = col
            i += 1
            col += 1
            buf: list[str] = []
            while i < n and source[i] != '"':
                c = source[i]
                if c == "\n":
                    raise LexError("unterminated string literal", line, start_col)
                if c == "\\" and i + 1 < n:
                    i += 1
                    col += 1
                    esc = source[i]
                    buf.append({"n": "\n", "t": "\t"}.get(esc, esc))
                else:
                    buf.append(c)
                i += 1
                col += 1
            if i >= n:
                raise LexError("unterminated string literal", line, start_col)
            i += 1
            col += 1
            tokens.append(Token(STRING, "".join(buf), line, start_col))
            continue

        if ch.isalpha() or ch == "_":
            start_col = col
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
                col += 1
            tokens.append(Token(IDENT, source[start:i], line, start_col))
            continue

        # isdecimal, not isdigit: int() rejects digits such as '²'
        if ch.isdecimal():
            start_col = col
            start = i
            while i < n and source[i].isdecimal():
                i += 1
                col += 1
            tokens.append(Token(INT, source[start:i], line, start_col))
            continue

        p = source[i : i + 2]
        if p not in _PUNCTS:
            p = ch
            if p not in _PUNCTS:
                raise LexError(f"unexpected character {ch!r}", line, col)
        tokens.append(Token(p, p, line, col))
        i += len(p)
        col += len(p)

    tokens.append(Token(EOF, "", line, col))
    return tokens
