"""Run scenario files, write each run's outputs, and report its exit status.

Status codes: 0 all expectations hold, 1 an expectation failed, 2 a
diagnostic (an input did not load or run, or a target was not writable),
3 a fault escalated past the root.
"""

from __future__ import annotations

import sys
from typing import TextIO

from .diagnostics import E_UNRESOLVED, Diagnostic, error, io_error, render_all
from .kernel import Kernel, KernelError
from .scenario import ScenarioResult, load_scenario, run_scenario, store_rows
from .trace import render_trace
from .values import Value

STATUS_PASS = 0
STATUS_FAIL = 1
STATUS_DIAGNOSTICS = 2
STATUS_FATAL = 3


class RunReport(Value):
    _fields = ("path", "status", "lines", "diagnostics", "result")

    def __init__(
        self,
        path: str,
        status: int,
        lines: list[str] | None = None,
        diagnostics: list[Diagnostic] | None = None,
        result: ScenarioResult | None = None,
    ):
        self.path = path
        self.status = status
        self.lines = [] if lines is None else lines
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.result = result

    def render(self) -> str:
        return "\n".join(self.lines)


def run_file(path: str, trace: str | None = None, store: str | None = None) -> RunReport:
    """Run one scenario file and write all of `sim`'s output for it, in order:
    the trace file, the report (stdout, or stderr for diagnostics), the trace
    to "-" (stdout), the store rows ("-" or a file). An unwritable target is
    an E_IO diagnostic and status 2; an unfinished run writes neither."""
    report = _judged(path, None if trace == "-" else trace)
    out = sys.stdout
    print(report.render(), file=sys.stderr if report.status == STATUS_DIAGNOSTICS else out)
    result = report.result
    if result is None:
        return report
    if trace == "-":
        render_trace(result.kernel.events, out)
    if store == "-":
        render_stores(result.kernel, out)
    elif store:
        problem = _written(store, render_stores, result.kernel)
        if problem is not None:
            print(problem.render(), file=sys.stderr)
            report.diagnostics.append(problem)
            report.status = max(report.status, STATUS_DIAGNOSTICS)
    return report


def _judged(path: str, trace_path: str | None) -> RunReport:
    scenario, diags = load_scenario(path)
    if scenario is None:
        return _diagnosed(path, diags, f"scenario {path}: not loadable")
    name = scenario.name
    try:
        result = run_scenario(scenario)
    except KernelError as exc:
        diag = error(E_UNRESOLVED, path, exc.line, 1 if exc.line else 0, str(exc))
        return _diagnosed(path, [diag], f"scenario {name}: not runnable")
    if trace_path:
        problem = _written(trace_path, render_trace, result.kernel.events)
        if problem is not None:
            return _diagnosed(path, [problem], f"scenario {name}: trace not written")
    if result.verdict == "fatal":
        detail = f"unhandled fault '{result.fatal.kind}' from {result.fatal.path}"
        return RunReport(path, STATUS_FATAL, [f"scenario {name}: fatal ({detail})"], [], result)
    if result.verdict == "fail":
        lines = [f"scenario {name}: fail", *(f"  {failure}" for failure in result.failures)]
        return RunReport(path, STATUS_FAIL, lines, [], result)
    kernel = result.kernel
    summary = f"scenario {name}: pass (steps {kernel.step}, events {len(kernel.events)})"
    return RunReport(path, STATUS_PASS, [summary], [], result)


def _written(target: str, render, subject) -> Diagnostic | None:
    """Render `subject` into the file `target`; the E_IO diagnostic if that fails."""
    try:
        with open(target, "w", encoding="utf-8") as fh:
            render(subject, fh)
    except OSError as exc:
        return io_error(target, exc)
    return None


def _diagnosed(path: str, diags: list[Diagnostic], summary: str) -> RunReport:
    return RunReport(path, STATUS_DIAGNOSTICS, [render_all(diags), summary], diags)


def overall_status(reports: list[RunReport]) -> int:
    return max((r.status for r in reports), default=STATUS_PASS)


def render_stores(kernel: Kernel, out: TextIO) -> None:
    """Write every store instance's rows: path#rid, arrival step, payload."""
    for path, group in kernel.groups.items():
        clause = group.inst.type_def.behavior
        if clause is None or clause.builtin != "store":
            continue
        out.writelines(
            f"{path}#{rid}\t{step}\t{payload.render()}\n"
            for step, rid, _index, payload in store_rows(kernel, path)
        )
