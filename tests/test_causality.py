"""Causality of runs, checked over the bundled scenarios.

Every channel has latency at least one step, so what a run does up to
step t depends only on the inputs before t. Two executable forms:

- truncation: a run cut at `maxsteps k` traces exactly the lines of the
  full run whose step is at most k;
- later input leaves the past alone: one more input at step t leaves every
  trace line before step t as it was. The input is a copy of the
  scenario's first inject, moved to step t; a scenario with no inject (its
  root has no in port) gets a copy of its first fault instead.
"""

from __future__ import annotations

import re

import pytest

from cloudadl.scenario import load_scenario_text, run_scenario

from helpers import SCENARIOS_DIR, trace_text

NAMES = sorted(p.name for p in SCENARIOS_DIR.glob("*.scn"))
INPUT = re.compile(r"^(inject \S+|fault \S+) at \d+ (.*)$", re.M)


def trace_lines(name: str, *extra: str) -> list[str]:
    """The trace of a bundled scenario with `extra` directives appended."""
    path = SCENARIOS_DIR / name
    text = path.read_text() + "".join(f"{line}\n" for line in extra)
    scenario, diags = load_scenario_text(text, str(path), str(SCENARIOS_DIR))
    assert scenario is not None, [d.render() for d in diags]
    return trace_text(run_scenario(scenario).kernel.events).splitlines(keepends=True)


def step_of(line: str) -> int:
    return int(line.split("\t", 1)[0])


def spread(last: int, count: int) -> list[int]:
    """About `count` steps from 0 to last, both ends included."""
    return sorted({last * i // (count - 1) for i in range(count)})


@pytest.mark.parametrize("name", NAMES)
def test_truncated_run_traces_the_full_runs_prefix(name):
    full = trace_lines(name)
    last = step_of(full[-1])
    cuts = spread(last + 1, 25)
    assert len(cuts) >= min(25, last + 2)
    for k in cuts:
        want = [line for line in full if step_of(line) <= k]
        assert trace_lines(name, f"maxsteps {k}") == want, f"maxsteps {k}"


@pytest.mark.parametrize("name", NAMES)
def test_later_input_leaves_earlier_lines_alone(name):
    full = trace_lines(name)
    directive, rest = INPUT.search((SCENARIOS_DIR / name).read_text()).groups()
    for t in spread(step_of(full[-1]) + 1, 15)[1:]:
        changed = trace_lines(name, f"{directive} at {t} {rest}")
        before = [line for line in full if step_of(line) < t]
        assert changed[: len(before)] == before, f"{directive} at {t}"
        assert all(step_of(line) >= t for line in changed[len(before):]), f"{directive} at {t}"
        assert len(changed) > len(before)
