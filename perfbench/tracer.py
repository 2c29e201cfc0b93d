"""Spans around the calls into each cloudadl layer, recorded from outside.

`Tracer.install()` rebinds the names that the calling modules imported
(for example `harness.load_scenario`, `Kernel.run`, `lexer.tokenize`) to
wrappers that record a span per call, and `Tracer.restore()` puts the
originals back. Behavior `handle` calls are timed per builtin by wrapping
each group's behavior object as kernels are built. Spans stay in memory;
a layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from cloudadl import cli, harness, lexer, scenario
from cloudadl.kernel import Kernel
from cloudadl.model import Record

# (owner, attribute, span name). The owner is the module or class whose
# attribute the calling code looks up at call time.
TARGETS = (
    (cli, "run_file", "harness.run_file"),
    (cli, "load_files", "parser"),
    (cli, "parse_model", "parser"),
    (cli, "check", "analyzer.check"),
    (cli, "elaborate", "analyzer.elaborate"),
    (cli, "pretty_print", "printer"),
    (harness, "load_scenario", "scenario.load"),
    (harness, "run_scenario", "scenario.run"),
    (harness, "render_trace", "trace.render"),
    (scenario, "load_files", "parser"),
    (scenario, "check", "analyzer.check"),
    (scenario, "elaborate", "analyzer.elaborate"),
    (scenario, "build_kernel", "scenario.build_kernel"),
    (scenario, "_judge", "scenario.judge"),
    (Kernel, "run", "kernel.run"),
    (lexer, "tokenize", "lexer"),
    (Record, "render", "model.render"),
)


class TimedBehavior:
    """A behavior whose handle() calls are recorded as spans."""

    def __init__(self, inner, handle):
        self._inner = inner
        self.handle = handle

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.last_result = None  # ScenarioResult of the latest run_scenario
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.last_result = None
        self._stack = []

    def wrap(self, name: str, fn, after=None):
        """Return fn recording one span per call; after(result) runs outside it."""
        clock = self.clock

        def traced(*args, **kwargs):
            stack = self._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(return_value)
            return return_value

        traced.__wrapped__ = fn
        return traced

    # -- rebinding ----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        hooks = {
            (lexer, "tokenize"): self._count_tokens,
            (cli, "elaborate"): self._note_topology,
            (scenario, "elaborate"): self._note_topology,
            (scenario, "build_kernel"): self._time_behaviors,
            (harness, "run_scenario"): self._note_result,
        }
        for owner, attr, name in TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hooks.get((owner, attr))))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _count_tokens(self, tokens) -> None:
        self.counts["lexer.tokens"] += len(tokens)

    def _note_topology(self, topology) -> None:
        self.counts["analyzer.instances"] = len(topology.instances)
        self.counts["analyzer.channels"] = len(topology.channels)

    def _note_result(self, result) -> None:
        self.last_result = result

    def _time_behaviors(self, kernel) -> None:
        for group in kernel.groups.values():
            if group.behavior is not None:
                builtin = group.inst.type_def.behavior.builtin
                handle = self.wrap(f"behaviors.{builtin}", group.behavior.handle)
                group.behavior = TimedBehavior(group.behavior, handle)


def self_times(spans) -> dict[str, float]:
    """Per span name: summed duration minus the duration of direct children."""
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent) in enumerate(spans):
        out[name] += end - start - child[index]
    return dict(out)


def total_times(spans) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for name, start, end, _parent in spans:
        out[name] += end - start
    return dict(out)


def span_counts(spans) -> Counter:
    return Counter(span[0] for span in spans)
