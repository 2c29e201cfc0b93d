"""Scenario files: scripted runs with expectations.

A scenario is line-oriented; `//` starts a comment outside string quotes.

    scenario <name>
    model <path>                      // repeatable, relative to the scenario
    root <ComponentType>
    seed <int>                        // default 0
    maxsteps <int>                    // default 1000
    latency <channel-pattern> <steps> // fnmatch on channel ids, last match wins
    strategy <path> <resume|restart|escalate>
    scale <path> <count> at <step>
    fault <path[#rid]> at <step> <kind>
    inject <port> at <step> <Type{field=value,...}>
    expect count <port> <n> [by <step>]
    expect prefix <port> <Type{...}> <Type{...}> ...
    expect store <path> <n>
    expect event <KIND> <subject>

Expectations are judged after the run; the first failing one decides the
report, but all failures are listed. `Scenario.expectations` keeps each
one as the tuple the reader builds:

    ("count", port, n, by)            // by is None without `by <step>`
    ("prefix", port, records)         // the checked Records, in order
    ("store", path, n)
    ("event", KIND, subject)

Payload literals (`inject`, `expect prefix`) are read in one of two ways.
A plain literal (ASCII names, unescaped strings, decimal integers, `true`
and `false`) is read by a few anchored regex matches, with no tokens; that
is only a fast path, and it gives up on anything else. Everything it gives
up on goes through the lexer and `TokenCursor`, the general path, which
reads escapes, non-ASCII names and digits and `- 5`, and decides every
error and its wording. Both paths give the same records for any literal
the fast path reads.
"""

from __future__ import annotations

import os
import re

from . import lexer
from .analyzer import (
    RuntimeTopology,
    apply_latency_overrides,
    check,
    check_selection_ports,
    elaborate,
)
from .diagnostics import (
    E_SYNTAX,
    E_TYPE_MISMATCH,
    E_UNRESOLVED,
    Diagnostic,
    quoted,
)
from .kernel import (
    DEFAULT_MAXSTEPS,
    EVENT_KINDS,
    FatalUnhandled,
    Kernel,
    Problem,
    directive_problems,
    inject_port_problem,
    maxsteps_problem,
    payload_type_problem,
    root_in_ports,
    step_problem,
    strategy_problem,
)
from .model import OUT, ArchitectureModel, Record, make_record
from .parser import RESERVED, TokenCursor, load_files, read_source
from .values import Value


class Scenario(Value):
    _fields = (
        "name",
        "origin",
        "model",
        "root_type",
        "seed",
        "maxsteps",
        "latency_overrides",
        "strategies",
        "injections",
        "scales",
        "faults",
        "expectations",
    )

    def __init__(
        self,
        name: str,
        origin: str,
        model: ArchitectureModel,
        root_type: str,
        seed: int = 0,
        maxsteps: int = DEFAULT_MAXSTEPS,
        latency_overrides: list[tuple[str, int]] | None = None,
        strategies: dict[str, str] | None = None,
        injections: list[tuple] | None = None,
        scales: list[tuple] | None = None,
        faults: list[tuple] | None = None,
        expectations: list[tuple] | None = None,
    ):
        self.name = name
        self.origin = origin
        self.model = model
        self.root_type = root_type
        self.seed = seed
        self.maxsteps = maxsteps
        self.latency_overrides = [] if latency_overrides is None else latency_overrides
        self.strategies = {} if strategies is None else strategies
        self.injections = [] if injections is None else injections
        self.scales = [] if scales is None else scales
        self.faults = [] if faults is None else faults
        self.expectations = [] if expectations is None else expectations


class ScenarioResult(Value):
    _fields = ("scenario", "verdict", "failures", "kernel", "fatal")

    def __init__(
        self,
        scenario: Scenario,
        verdict: str,
        failures: list[str],
        kernel: Kernel,
        fatal: FatalUnhandled | None = None,
    ):
        self.scenario = scenario
        self.verdict = verdict  # "pass", "fail", or "fatal"
        self.failures = failures
        self.kernel = kernel
        self.fatal = fatal


def strip_comment(line: str) -> str:
    if "//" not in line:
        return line
    in_string = False
    i = 0
    while i < len(line):
        c = line[i]
        if in_string:
            if c == "\\":
                i += 1
            elif c == '"':
                in_string = False
        elif c == '"':
            in_string = True
        elif c == "/" and line.startswith("//", i):
            return line[:i]
        i += 1
    return line


class _LineError(Exception):
    def __init__(self, message: str, code: str = E_SYNTAX):
        super().__init__(message)
        self.message = message
        self.code = code


def _line_rule(problem: Problem | None) -> None:
    if problem is not None:
        raise _LineError(problem[2], problem[1])


class _RawScenario(Value):
    """Scenario text split into fields, before the model is available."""

    _fields = (
        "name",
        "model_paths",
        "root_type",
        "seed",
        "maxsteps",
        "latency_overrides",
        "strategies",
        "scales",
        "faults",
        "injections",
        "expectations",
    )

    def __init__(self, name: str | None = None):
        self.name = name
        self.model_paths: list[str] = []
        self.root_type: str | None = None
        self.seed = 0
        self.maxsteps = DEFAULT_MAXSTEPS
        self.latency_overrides: list[tuple[str, int]] = []
        self.strategies: list[tuple[int, str, str]] = []  # (line, path, strategy)
        self.scales: list[tuple] = []  # the kernel's directive tuples
        self.faults: list[tuple] = []
        self.injections: list[tuple[int, str, int, str]] = []  # (line, port, step, literal)
        self.expectations: list[tuple[int, tuple]] = []  # (line, kind and arguments)


def _int_arg(word: str, what: str) -> int:
    try:
        return int(word)
    except ValueError:
        digits = word[1:] if word[:1] in ("+", "-") else word
        if digits.isdecimal():  # past the interpreter's limit on int() digits
            raise _LineError(f"{what} of {len(digits)} digits is too long") from None
        raise _LineError(f"{what} must be an integer, got {quoted(word)}") from None


def _parse_line(raw: _RawScenario, lineno: int, line: str) -> None:
    words = line.split()
    head = words[0]
    if head == "scenario":
        if len(words) != 2:
            raise _LineError("usage: scenario <name>")
        raw.name = words[1]
    elif head == "model":
        path = line.split(None, 1)[1].strip() if len(words) > 1 else ""
        if not path:
            raise _LineError("usage: model <path>")
        raw.model_paths.append(path)
    elif head == "root":
        if len(words) != 2:
            raise _LineError("usage: root <ComponentType>")
        if raw.root_type is not None:
            raise _LineError("root is already set")
        raw.root_type = words[1]
    elif head == "seed":
        if len(words) != 2:
            raise _LineError("usage: seed <int>")
        raw.seed = _int_arg(words[1], "seed")
    elif head == "maxsteps":
        if len(words) != 2:
            raise _LineError("usage: maxsteps <int>")
        raw.maxsteps = _int_arg(words[1], "maxsteps")
        _line_rule(maxsteps_problem(raw.maxsteps))
    elif head == "latency":
        if len(words) != 3:
            raise _LineError("usage: latency <pattern> <steps>")
        steps = _int_arg(words[2], "latency")
        if steps < 1:
            raise _LineError("latency must be at least 1 step")
        raw.latency_overrides.append((words[1], steps))
    elif head == "strategy":
        if len(words) != 3:
            raise _LineError("usage: strategy <path> <resume|restart|escalate>")
        _line_rule(strategy_problem(words[2]))
        raw.strategies.append((lineno, words[1], words[2]))
    elif head == "scale":
        if len(words) != 5 or words[3] != "at":
            raise _LineError("usage: scale <path> <count> at <step>")
        count, step = _int_arg(words[2], "count"), _int_arg(words[4], "step")
        raw.scales.append((step, words[1], count, lineno))
    elif head == "fault":
        if len(words) != 5 or words[2] != "at":
            raise _LineError("usage: fault <path[#rid]> at <step> <kind>")
        path, rid = words[1], None
        if "#" in path:
            path, rid_text = path.rsplit("#", 1)
            rid = _int_arg(rid_text, "replica id")
        step = _int_arg(words[3], "step")
        raw.faults.append((step, path, words[4], rid, lineno))
    elif head == "inject":
        if len(words) < 4 or words[2] != "at":
            raise _LineError("usage: inject <port> at <step> <Type{...}>")
        payload_text = line.split(None, 4)[4] if len(words) > 4 else ""
        if not payload_text:
            raise _LineError("inject needs a payload literal")
        raw.injections.append(
            (lineno, words[1], _int_arg(words[3], "step"), payload_text)
        )
    elif head == "expect":
        if len(words) < 2:
            raise _LineError("expect needs a kind")
        _parse_expect(raw, lineno, line, words)
    else:
        raise _LineError(f"unknown directive {quoted(head)}")


def _parse_expect(raw: _RawScenario, lineno: int, line: str, words: list[str]) -> None:
    kind = words[1]
    if kind == "count":
        if len(words) != 4 and (len(words) != 6 or words[4] != "by"):
            raise _LineError("usage: expect count <port> <n> [by <step>]")
        count = _int_arg(words[3], "count")
        if count < 0:
            raise _LineError("count must not be negative")
        by = _int_arg(words[5], "step") if len(words) == 6 else None
        if by is not None:
            _line_rule(step_problem(by))
        shape: tuple = ("count", words[2], count, by)
    elif kind == "prefix":
        if len(words) < 4:
            raise _LineError("usage: expect prefix <port> <Type{...}> ...")
        shape = ("prefix", words[2], line.split(None, 3)[3])
    elif kind == "store":
        if len(words) != 4:
            raise _LineError("usage: expect store <path> <n>")
        rows = _int_arg(words[3], "rows")
        if rows < 0:
            raise _LineError("rows must not be negative")
        shape = ("store", words[2], rows)
    elif kind == "event":
        if len(words) != 4:
            raise _LineError("usage: expect event <KIND> <subject>")
        if words[2] not in EVENT_KINDS:
            raise _LineError(f"unknown event kind {quoted(words[2])}")
        shape = ("event", words[2], words[3])
    else:
        raise _LineError(f"unknown expectation {quoted(kind)}")
    raw.expectations.append((lineno, shape))


_WS = "[ \t\r\n]*"  # the lexer's whitespace; \s would also take \x0b and \xa0
_NAME = "([A-Za-z_][A-Za-z0-9_]*)"
_plain = None  # (record head, field) matchers, compiled on first use


def _plain_matchers():
    global _plain
    if _plain is None:
        head = _WS + _NAME + _WS + r"\{" + _WS + r"(\}" + _WS + ")?"
        value = r'(?:(-?[0-9]+)|"([^"\\\n]*)"|(true|false))'
        field = _NAME + _WS + "=" + _WS + value + _WS + "([,}])" + _WS
        _plain = re.compile(head).match, re.compile(field).match
    return _plain


def _plain_payloads(text: str) -> list[tuple[str, dict[str, object]]] | None:
    """The records of a plain literal, or None to leave `text` to the lexer.

    Plain means ASCII names that are not reserved, unescaped strings,
    unsigned or `-`-prefixed decimal integers, `true` and `false`, and no
    duplicate field or trailing comma: exactly what the general path reads
    the same way.
    """
    head, field = _plain_matchers()
    out = []
    pos, end = 0, len(text)
    while pos < end:
        m = head(text, pos)
        if m is None or m[1] in RESERVED:
            return None
        pos = m.end()
        values: dict[str, object] = {}
        sep = "}" if m[2] else ","
        while sep == ",":
            f = field(text, pos)
            if f is None:
                return None
            name, digits, string, flag, sep = f.groups()
            if name in RESERVED or name in values:
                return None
            if digits is not None:
                try:
                    values[name] = int(digits)
                except ValueError:  # past the interpreter's limit on int() digits
                    return None
            elif string is not None:
                values[name] = string
            else:
                values[name] = flag == "true"
            pos = f.end()
        out.append((m[1], values))
    return out


def _parse_payloads(text: str) -> list[tuple[str, dict[str, object]]]:
    plain = _plain_payloads(text)
    return _lexed_payloads(text) if plain is None else plain


def _lexed_payloads(text: str) -> list[tuple[str, dict[str, object]]]:
    """The general path: any literal the lexer reads, and every error."""
    try:
        cursor = TokenCursor(lexer.tokenize(text))
        out = []
        while not cursor.at(lexer.EOF):
            out.append(cursor.parse_payload_record()[:2])  # (type name, values)
    except lexer.LexError as exc:
        raise _LineError(exc.message) from None
    return out


def load_scenario(path: str) -> tuple[Scenario | None, list[Diagnostic]]:
    text, diags = read_source(path)
    if text is None:
        return None, diags
    return load_scenario_text(text, os.fspath(path), os.path.dirname(path))


def load_scenario_text(
    text: str, origin: str, base_dir: str = "."
) -> tuple[Scenario | None, list[Diagnostic]]:
    raw = _RawScenario()
    diags: list[Diagnostic] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = strip_comment(line).strip()
        if not stripped:
            continue
        try:
            _parse_line(raw, lineno, stripped)
        except _LineError as exc:
            diags.append(Diagnostic(exc.code, origin, lineno, 1, exc.message))
    if diags:
        return None, diags

    if not raw.model_paths:
        return None, [Diagnostic(E_SYNTAX, origin, 0, 0, "scenario names no model file")]
    if raw.root_type is None:
        return None, [Diagnostic(E_SYNTAX, origin, 0, 0, "scenario names no root component")]

    # an absolute model path stays as it is
    model, diags = load_files([os.path.join(base_dir or ".", p) for p in raw.model_paths])
    if model is None:
        return None, diags
    diags = check(model, raw.root_type)
    if diags:
        return None, diags
    topology = elaborate(model, raw.root_type)
    diags = check_selection_ports(topology)
    if diags:
        return None, diags

    name = raw.name or os.path.splitext(os.path.basename(origin))[0]
    scenario = Scenario(
        name=name,
        origin=origin,
        model=model,
        root_type=raw.root_type,
        seed=raw.seed,
        maxsteps=raw.maxsteps,
        latency_overrides=list(raw.latency_overrides),
        strategies={path: strategy for _line, path, strategy in raw.strategies},
        scales=raw.scales,
        faults=raw.faults,
    )
    problems = _resolve_directives(raw, scenario, topology)
    if problems:
        return None, [Diagnostic(code, origin, line, 1, message) for line, code, message in problems]
    return scenario, []


def _resolve_directives(
    raw: _RawScenario, scenario: Scenario, topology: RuntimeTopology
) -> list[Problem]:
    """Add the injections and expectations to `scenario`; return every problem."""
    problems = directive_problems(
        topology, strategies=raw.strategies, scales=raw.scales, faults=raw.faults
    )
    root_in = root_in_ports(topology)
    for lineno, port, step, payload_text in raw.injections:
        try:
            # the kernel's inject rules in order: port, payload type, step;
            # the literal is read after the port
            _line_rule(inject_port_problem(root_in, port))
            parsed = _parse_payloads(payload_text)
            if len(parsed) != 1:
                raise _LineError("inject takes exactly one payload literal")
            record = _checked_record(*parsed[0], root_in[port], scenario.model)
            _line_rule(step_problem(step))
            scenario.injections.append((step, port, record, lineno))
        except _LineError as exc:
            problems.append((lineno, exc.code, exc.message))
    for lineno, shape in raw.expectations:
        try:
            scenario.expectations.append(_expectation(shape, topology, scenario.model))
        except _LineError as exc:
            problems.append((lineno, exc.code, exc.message))
    return problems


def _expectation(shape: tuple, topology: RuntimeTopology, model: ArchitectureModel) -> tuple:
    if shape[0] == "count":
        _stream_type(shape[1], topology)
    elif shape[0] == "prefix":
        _, port, payload_text = shape
        want = _stream_type(port, topology)
        parsed = _parse_payloads(payload_text)
        return ("prefix", port, tuple(_checked_record(t, v, want, model) for t, v in parsed))
    elif shape[0] == "store":
        path = shape[1]
        inst = topology.instances.get(path)
        if inst is None or not inst.atomic:
            raise _LineError(f"no atomic instance at {quoted(path)}", E_UNRESOLVED)
        if inst.type_def.behavior is None or inst.type_def.behavior.builtin != "store":
            raise _LineError(f"{quoted(path)} does not run a store behavior", E_UNRESOLVED)
    return shape


def _stream_type(port: str, topology: RuntimeTopology) -> str:
    """The message type of the root out port `port`."""
    decl = topology.root.type_def.port(port)
    if decl is None or decl.direction != OUT:
        raise _LineError(f"the root component has no out port {quoted(port)}", E_UNRESOLVED)
    return decl.message_type


def _checked_record(
    type_name: str, values: dict, want_type: str, model: ArchitectureModel
) -> Record:
    mdef = model.message_types.get(type_name)
    if mdef is None:
        raise _LineError(f"unknown message type {quoted(type_name)}", E_UNRESOLVED)
    _line_rule(payload_type_problem(want_type, type_name))
    try:
        return make_record(mdef, values)
    except ValueError as exc:
        raise _LineError(str(exc), E_TYPE_MISMATCH) from None


# ---------------------------------------------------------------------------
# Running


def build_kernel(scenario: Scenario) -> Kernel:
    topology = elaborate(scenario.model, scenario.root_type)
    apply_latency_overrides(topology, scenario.latency_overrides)
    return Kernel(
        topology,
        seed=scenario.seed,
        strategies=scenario.strategies,
        injections=scenario.injections,
        scales=scenario.scales,
        faults=scenario.faults,
        maxsteps=scenario.maxsteps,
    )


def store_rows(kernel: Kernel, path: str) -> list[tuple[int, int, int, Record]]:
    """Rows of every replica of a store instance: (step, rid, index, payload)."""
    group = kernel.groups[path]
    rows = []
    for rid, replica in sorted(group.replicas.items()):
        for index, (step, payload) in enumerate(replica.state or ()):
            rows.append((step, rid, index, payload))
    rows.sort()  # (step, rid, index) never ties, so no payload is compared
    return rows


def run_scenario(scenario: Scenario) -> ScenarioResult:
    kernel = build_kernel(scenario)
    try:
        kernel.run()
    except FatalUnhandled as exc:
        return ScenarioResult(scenario, "fatal", [], kernel, exc)
    failures = []
    for exp in scenario.expectations:
        message = _judge(exp, kernel)
        if message is not None:
            failures.append(f"{_describe(exp)}: {message}")
    if kernel.truncated:
        failures.append(f"run truncated at maxsteps {scenario.maxsteps}")
    verdict = "fail" if failures else "pass"
    return ScenarioResult(scenario, verdict, failures, kernel)


def _describe(exp: tuple) -> str:
    if exp[0] == "count":
        tail = f" by step {exp[3]}" if exp[3] is not None else ""
        return f"count {exp[1]} {exp[2]}{tail}"
    if exp[0] == "prefix":
        return f"prefix {exp[1]} ({len(exp[2])} messages)"
    return f"{exp[0]} {exp[1]} {exp[2]}"  # store and event


def _judge(exp: tuple, kernel: Kernel) -> str | None:
    if exp[0] == "count":
        _, port, count, by = exp
        stream = kernel.out_streams[port]
        if len(stream) != count:
            return f"saw {len(stream)} messages"
        if by is not None and count > 0:
            arrived = stream[count - 1][0]
            if arrived > by:
                return f"message {count} arrived at step {arrived}"
        return None
    if exp[0] == "prefix":
        _, port, payloads = exp
        got = tuple(payload for _step, payload in kernel.out_streams[port][: len(payloads)])
        if got != payloads:
            rendered = ", ".join(r.render() for r in got) or "nothing"
            return f"stream starts with {rendered}"
        return None
    if exp[0] == "store":
        _, path, count = exp
        total = sum(len(r.state) for r in kernel.groups[path].replicas.values())
        if total != count:
            return f"stores hold {total} rows"
        return None
    if exp[0] == "event":
        _, want_kind, want_subject = exp
        for _step, kind, subject, _seq, _tokens, _payload, _channel in kernel.events:
            if kind == want_kind and subject == want_subject:
                return None
        return "no such event"
    raise TypeError(f"unknown expectation {exp!r}")
