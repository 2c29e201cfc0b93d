"""Diagnostics shared by the parser, analyzer, and scenario loader."""

from __future__ import annotations

from .values import Frozen, set_field

# Parser / loader codes
E_SYNTAX = "E_SYNTAX"
E_DUP_DEF = "E_DUP_DEF"
E_IO = "E_IO"

# Analyzer rule codes (one per well-formedness rule)
E_UNRESOLVED = "E_UNRESOLVED"
E_TYPE_MISMATCH = "E_TYPE_MISMATCH"
E_DIRECTION = "E_DIRECTION"
E_ENCAPSULATION = "E_ENCAPSULATION"
E_DUP_CONNECT = "E_DUP_CONNECT"
E_BEHAVIOR = "E_BEHAVIOR"
E_GATE_REF = "E_GATE_REF"
E_RECURSION = "E_RECURSION"
E_REPL_PORT = "E_REPL_PORT"
# Replication is only supported on atomic subcomponents; replicating a
# decomposed subcomponent would require per-replica channel instantiation.
E_REPL_SUB = "E_REPL_SUB"

ECHO_LIMIT = 40  # a diagnostic names a longer word by its length, not its text


class Diagnostic(Frozen):
    _fields = ("severity", "code", "origin", "line", "col", "message")

    def __init__(
        self, severity: str, code: str, origin: str, line: int, col: int, message: str
    ):
        set_field(self, "severity", severity)  # "error" | "warning"
        set_field(self, "code", code)
        set_field(self, "origin", origin)
        set_field(self, "line", line)
        set_field(self, "col", col)
        set_field(self, "message", message)

    def render(self) -> str:
        return f"{self.origin}:{self.line}:{self.col}: {self.code}: {self.message}"


def error(code: str, origin: str, line: int, col: int, message: str) -> Diagnostic:
    return Diagnostic("error", code, origin, line, col, message)


def io_error(path: str, exc: OSError) -> Diagnostic:
    """A file that could not be opened, read or written."""
    return error(E_IO, path, 0, 0, exc.strerror or str(exc))


def quoted(word: str) -> str:
    """`word` in quotes for a diagnostic, or its length if it is too long."""
    if len(word) > ECHO_LIMIT:
        return f"a word of {len(word)} characters"
    return f"'{word}'"


def render_all(diagnostics: list[Diagnostic]) -> str:
    return "\n".join(d.render() for d in diagnostics)
