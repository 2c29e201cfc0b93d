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
report, but all failures are listed.
"""

from __future__ import annotations

import os

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
    error,
)
from .kernel import (
    EVENT_KINDS,
    STRATEGIES,
    FatalUnhandled,
    FaultDirective,
    Injection,
    Kernel,
    ScaleDirective,
)
from .model import IN, OUT, ArchitectureModel, Record, make_record
from .parser import ParseError, TokenCursor, load_files, read_source
from .values import Frozen, Value, set_field

DEFAULT_MAXSTEPS = 1000


class CountIs(Frozen):
    _fields = ("port", "count", "by")

    def __init__(self, port: str, count: int, by: int | None = None):
        set_field(self, "port", port)
        set_field(self, "count", count)
        set_field(self, "by", by)

    def describe(self) -> str:
        tail = f" by step {self.by}" if self.by is not None else ""
        return f"count {self.port} {self.count}{tail}"


class SeqPrefix(Frozen):
    _fields = ("port", "payloads")

    def __init__(self, port: str, payloads: tuple[Record, ...]):
        set_field(self, "port", port)
        set_field(self, "payloads", payloads)

    def describe(self) -> str:
        return f"prefix {self.port} ({len(self.payloads)} messages)"


class StoreContains(Frozen):
    _fields = ("path", "count")

    def __init__(self, path: str, count: int):
        set_field(self, "path", path)
        set_field(self, "count", count)

    def describe(self) -> str:
        return f"store {self.path} {self.count}"


class EventOccurs(Frozen):
    _fields = ("kind", "subject")

    def __init__(self, kind: str, subject: str):
        set_field(self, "kind", kind)
        set_field(self, "subject", subject)

    def describe(self) -> str:
        return f"event {self.kind} {self.subject}"


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
        injections: list[Injection] | None = None,
        scales: list[ScaleDirective] | None = None,
        faults: list[FaultDirective] | None = None,
        expectations: list | None = None,
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
    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


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

    def __init__(
        self,
        name: str | None = None,
        model_paths: list[str] | None = None,
        root_type: str | None = None,
        seed: int = 0,
        maxsteps: int = DEFAULT_MAXSTEPS,
        latency_overrides: list[tuple[str, int]] | None = None,
        strategies: list[tuple[int, str, str]] | None = None,
        scales: list[tuple[int, str, int, int]] | None = None,
        faults: list[tuple[int, str, int | None, int, str]] | None = None,
        injections: list[tuple[int, str, int, str]] | None = None,
        expectations: list[tuple[int, tuple]] | None = None,
    ):
        self.name = name
        self.model_paths = [] if model_paths is None else model_paths
        self.root_type = root_type
        self.seed = seed
        self.maxsteps = maxsteps
        self.latency_overrides = [] if latency_overrides is None else latency_overrides
        self.strategies = [] if strategies is None else strategies
        self.scales = [] if scales is None else scales
        self.faults = [] if faults is None else faults
        self.injections = [] if injections is None else injections
        self.expectations = [] if expectations is None else expectations


def _int_arg(word: str, what: str) -> int:
    try:
        return int(word)
    except ValueError:
        raise _LineError(f"{what} must be an integer, got '{word}'") from None


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
        if raw.maxsteps < 0:
            raise _LineError("maxsteps must not be negative")
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
        if words[2] not in STRATEGIES:
            raise _LineError(f"unknown strategy '{words[2]}'")
        raw.strategies.append((lineno, words[1], words[2]))
    elif head == "scale":
        if len(words) != 5 or words[3] != "at":
            raise _LineError("usage: scale <path> <count> at <step>")
        raw.scales.append(
            (lineno, words[1], _int_arg(words[2], "count"), _int_arg(words[4], "step"))
        )
    elif head == "fault":
        if len(words) != 5 or words[2] != "at":
            raise _LineError("usage: fault <path[#rid]> at <step> <kind>")
        path, rid = words[1], None
        if "#" in path:
            path, rid_text = path.rsplit("#", 1)
            rid = _int_arg(rid_text, "replica id")
        raw.faults.append((lineno, path, rid, _int_arg(words[3], "step"), words[4]))
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
        raise _LineError(f"unknown directive '{head}'")


def _parse_expect(raw: _RawScenario, lineno: int, line: str, words: list[str]) -> None:
    kind = words[1]
    if kind == "count":
        if len(words) == 4:
            raw.expectations.append(
                (lineno, ("count", words[2], _int_arg(words[3], "count"), None))
            )
        elif len(words) == 6 and words[4] == "by":
            raw.expectations.append(
                (
                    lineno,
                    (
                        "count",
                        words[2],
                        _int_arg(words[3], "count"),
                        _int_arg(words[5], "step"),
                    ),
                )
            )
        else:
            raise _LineError("usage: expect count <port> <n> [by <step>]")
    elif kind == "prefix":
        if len(words) < 4:
            raise _LineError("usage: expect prefix <port> <Type{...}> ...")
        payload_text = line.split(None, 3)[3]
        raw.expectations.append((lineno, ("prefix", words[2], payload_text)))
    elif kind == "store":
        if len(words) != 4:
            raise _LineError("usage: expect store <path> <n>")
        raw.expectations.append(
            (lineno, ("store", words[2], _int_arg(words[3], "rows")))
        )
    elif kind == "event":
        if len(words) != 4:
            raise _LineError("usage: expect event <KIND> <subject>")
        if words[2] not in EVENT_KINDS:
            raise _LineError(f"unknown event kind '{words[2]}'")
        raw.expectations.append((lineno, ("event", words[2], words[3])))
    else:
        raise _LineError(f"unknown expectation '{kind}'")


def _parse_payloads(text: str) -> list[tuple[str, dict[str, object]]]:
    cursor = TokenCursor(lexer.tokenize(text))
    out = []
    while not cursor.at(lexer.EOF):
        type_name, values, _ = cursor.parse_payload_record()
        out.append((type_name, values))
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
            diags.append(error(E_SYNTAX, origin, lineno, 1, exc.message))
    if diags:
        return None, diags

    if not raw.model_paths:
        return None, [error(E_SYNTAX, origin, 0, 0, "scenario names no model file")]
    if raw.root_type is None:
        return None, [error(E_SYNTAX, origin, 0, 0, "scenario names no root component")]

    resolved = [
        p if os.path.isabs(p) else os.path.join(base_dir or ".", p)
        for p in raw.model_paths
    ]
    model, diags = load_files(resolved)
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
    )
    diags = _resolve_directives(raw, scenario, topology, origin)
    if diags:
        return None, diags
    return scenario, []


def _resolve_directives(
    raw: _RawScenario,
    scenario: Scenario,
    topology: RuntimeTopology,
    origin: str,
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    model = scenario.model
    root_ports = {p.name: p for p in topology.root.type_def.ports}

    def fail(lineno: int, code: str, message: str) -> None:
        diags.append(error(code, origin, lineno, 1, message))

    for lineno, path, strategy in raw.strategies:
        if path not in topology.instances:
            fail(lineno, E_UNRESOLVED, f"unknown instance '{path}'")
        else:
            scenario.strategies[path] = strategy

    for lineno, path, count, step in raw.scales:
        inst = topology.instances.get(path)
        if inst is None:
            fail(lineno, E_UNRESOLVED, f"unknown instance '{path}'")
        elif not inst.replicating:
            fail(lineno, E_UNRESOLVED, f"'{path}' is not a replicating instance")
        elif count < 1:
            fail(lineno, E_SYNTAX, "replica count must be at least 1")
        elif step < 0:
            fail(lineno, E_SYNTAX, "step must not be negative")
        else:
            scenario.scales.append(ScaleDirective(step, path, count))

    for lineno, path, rid, step, kind in raw.faults:
        inst = topology.instances.get(path)
        if inst is None:
            fail(lineno, E_UNRESOLVED, f"unknown instance '{path}'")
        elif not inst.atomic:
            fail(lineno, E_UNRESOLVED, f"'{path}' is not an atomic instance")
        elif step < 0:
            fail(lineno, E_SYNTAX, "step must not be negative")
        else:
            scenario.faults.append(FaultDirective(step, path, kind, rid, lineno))

    for lineno, port, step, payload_text in raw.injections:
        record = _build_payload(payload_text, port, root_ports, model, fail, lineno, IN)
        if record is not None and step < 0:
            fail(lineno, E_SYNTAX, "step must not be negative")
        elif record is not None:
            scenario.injections.append(Injection(step, port, record))

    for lineno, shape in raw.expectations:
        if shape[0] == "count":
            _, port, count, by = shape
            if _check_stream_port(port, root_ports, fail, lineno):
                scenario.expectations.append(CountIs(port, count, by))
        elif shape[0] == "prefix":
            _, port, payload_text = shape
            if not _check_stream_port(port, root_ports, fail, lineno):
                continue
            records = []
            ok = True
            try:
                parsed = _parse_payloads(payload_text)
            except (lexer.LexError, ParseError) as exc:
                fail(lineno, E_SYNTAX, exc.message)
                continue
            for type_name, values in parsed:
                record = _make_checked(
                    type_name, values, root_ports[port].message_type, model, fail, lineno
                )
                if record is None:
                    ok = False
                    break
                records.append(record)
            if ok:
                scenario.expectations.append(SeqPrefix(port, tuple(records)))
        elif shape[0] == "store":
            _, path, count = shape
            inst = topology.instances.get(path)
            if inst is None or not inst.atomic:
                fail(lineno, E_UNRESOLVED, f"no atomic instance at '{path}'")
            elif (
                inst.type_def.behavior is None
                or inst.type_def.behavior.builtin != "store"
            ):
                fail(lineno, E_UNRESOLVED, f"'{path}' does not run a store behavior")
            else:
                scenario.expectations.append(StoreContains(path, count))
        else:
            _, kind, subject = shape
            scenario.expectations.append(EventOccurs(kind, subject))
    return diags


def _check_stream_port(port, root_ports, fail, lineno) -> bool:
    decl = root_ports.get(port)
    if decl is None or decl.direction != OUT:
        fail(lineno, E_UNRESOLVED, f"the root component has no out port '{port}'")
        return False
    return True


def _build_payload(payload_text, port, root_ports, model, fail, lineno, direction):
    decl = root_ports.get(port)
    if decl is None or decl.direction != direction:
        fail(lineno, E_UNRESOLVED, f"the root component has no {direction} port '{port}'")
        return None
    try:
        parsed = _parse_payloads(payload_text)
    except (lexer.LexError, ParseError) as exc:
        fail(lineno, E_SYNTAX, exc.message)
        return None
    if len(parsed) != 1:
        fail(lineno, E_SYNTAX, "inject takes exactly one payload literal")
        return None
    type_name, values = parsed[0]
    return _make_checked(type_name, values, decl.message_type, model, fail, lineno)


def _make_checked(type_name, values, want_type, model, fail, lineno):
    mdef = model.message_types.get(type_name)
    if mdef is None:
        fail(lineno, E_UNRESOLVED, f"unknown message type '{type_name}'")
        return None
    if type_name != want_type:
        fail(lineno, E_TYPE_MISMATCH, f"port carries {want_type}, not {type_name}")
        return None
    try:
        return make_record(mdef, values)
    except ValueError as exc:
        fail(lineno, E_TYPE_MISMATCH, str(exc))
        return None


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
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
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
            failures.append(f"{exp.describe()}: {message}")
    if kernel.truncated:
        failures.append(f"run truncated at maxsteps {scenario.maxsteps}")
    verdict = "fail" if failures else "pass"
    return ScenarioResult(scenario, verdict, failures, kernel)


def _judge(exp, kernel: Kernel) -> str | None:
    if isinstance(exp, CountIs):
        stream = kernel.out_streams[exp.port]
        if len(stream) != exp.count:
            return f"saw {len(stream)} messages"
        if exp.by is not None and exp.count > 0:
            arrived = stream[exp.count - 1][0]
            if arrived > exp.by:
                return f"message {exp.count} arrived at step {arrived}"
        return None
    if isinstance(exp, SeqPrefix):
        stream = [payload for _step, payload in kernel.out_streams[exp.port]]
        got = tuple(stream[: len(exp.payloads)])
        if got != exp.payloads:
            rendered = ", ".join(r.render() for r in got) or "nothing"
            return f"stream starts with {rendered}"
        return None
    if isinstance(exp, StoreContains):
        group = kernel.groups[exp.path]
        total = sum(len(r.state) for r in group.replicas.values())
        if total != exp.count:
            return f"stores hold {total} rows"
        return None
    if isinstance(exp, EventOccurs):
        for ev in kernel.events:
            if ev.kind == exp.kind and ev.subject == exp.subject:
                return None
        return "no such event"
    raise TypeError(f"unknown expectation {exp!r}")
