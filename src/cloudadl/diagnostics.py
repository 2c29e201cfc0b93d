"""Diagnostics shared by the parser, analyzer, and scenario loader."""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    origin: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.origin}:{self.line}:{self.col}: {self.code}: {self.message}"


def error(code: str, origin: str, line: int, col: int, message: str) -> Diagnostic:
    return Diagnostic("error", code, origin, line, col, message)


def io_error(path: str, exc: OSError) -> Diagnostic:
    """A file that could not be opened, read or written."""
    return error(E_IO, path, 0, 0, exc.strerror or str(exc))


def render_all(diagnostics: list[Diagnostic]) -> str:
    return "\n".join(d.render() for d in diagnostics)
