"""Run scenario files and turn the outcome into reports and exit statuses.

Status codes: 0 all expectations hold, 1 an expectation failed, 2 the
model or scenario did not load, 3 a fault escalated past the root.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagnostics import E_UNRESOLVED, Diagnostic, error, io_error, render_all
from .kernel import Kernel, KernelError
from .scenario import ScenarioResult, load_scenario, run_scenario, store_rows
from .trace import render_trace

STATUS_PASS = 0
STATUS_FAIL = 1
STATUS_DIAGNOSTICS = 2
STATUS_FATAL = 3


@dataclass
class RunReport:
    path: str
    status: int
    lines: list[str] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    result: ScenarioResult | None = None

    def render(self) -> str:
        return "\n".join(self.lines)


def run_file(path: str, trace_path: str | None = None) -> RunReport:
    scenario, diags = load_scenario(path)
    if scenario is None:
        return _diagnosed(path, diags, f"scenario {path}: not loadable")
    name = scenario.name
    try:
        result = run_scenario(scenario)
    except KernelError as exc:
        diag = error(E_UNRESOLVED, path, exc.line, 1 if exc.line else 0, str(exc))
        return _diagnosed(path, [diag], f"scenario {name}: not runnable")
    if trace_path is not None:
        try:
            with open(trace_path, "w", encoding="utf-8") as fh:
                fh.write(render_trace(result.kernel.events))
        except OSError as exc:
            diags = [io_error(trace_path, exc)]
            return _diagnosed(path, diags, f"scenario {name}: trace not written")
    if result.verdict == "fatal":
        detail = f"unhandled fault '{result.fatal.kind}' from {result.fatal.path}"
        return RunReport(
            path, STATUS_FATAL, [f"scenario {name}: fatal ({detail})"], [], result
        )
    if result.verdict == "fail":
        lines = [f"scenario {name}: fail"]
        lines.extend(f"  {failure}" for failure in result.failures)
        return RunReport(path, STATUS_FAIL, lines, [], result)
    kernel = result.kernel
    summary = (
        f"scenario {name}: pass "
        f"(steps {kernel.step}, events {len(kernel.events)})"
    )
    return RunReport(path, STATUS_PASS, [summary], [], result)


def _diagnosed(path: str, diags: list[Diagnostic], summary: str) -> RunReport:
    return RunReport(path, STATUS_DIAGNOSTICS, [render_all(diags), summary], diags)


def overall_status(reports: list[RunReport]) -> int:
    return max((r.status for r in reports), default=STATUS_PASS)


def render_stores(kernel: Kernel) -> str:
    """Dump every store instance: path#rid, arrival step, payload."""
    lines = []
    for path, group in kernel.groups.items():
        clause = group.inst.type_def.behavior
        if clause is None or clause.builtin != "store":
            continue
        for step, rid, _index, payload in store_rows(kernel, path):
            lines.append(f"{path}#{rid}\t{step}\t{payload.render()}")
    return "\n".join(lines) + "\n" if lines else ""
