"""The benchmark's op loop, checks on every op, and metric assembly.

Imported by run.py once `src/` is on sys.path.
"""

from __future__ import annotations

import gc
import io
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads
from checks import check_delivery, check_fmt, check_oracle, digest, read_bytes, trace_shape
from cloudadl import cli
from tracer import Tracer, self_times, span_counts, total_times

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
WORK = REPO / ".perfbench"

FULL_SIZE = {"stream": 3000, "sessions": 3000, "bigmodel": 500}

# Share of the measuring time given to each kind of turn. A sim or check
# turn runs the full-size op and then the half-size one.
WEIGHTS = {"sim": 0.78, "check": 0.08, "fmt": 0.06, "setup": 0.08}
MIN_ATTEMPTS = 3
OVERRUN_LIMIT_S = 90.0
CALIBRATE_EVERY_S = 0.3
CALIBRATE_REFERENCE_S = 0.006
CHILD_TIMEOUT_S = 60

SETUP_CODE = (
    "import time; t = time.perf_counter(); import cloudadl.cli; "
    "print(time.perf_counter() - t)"
)

REPORTED_BUILTINS = (
    "forward",
    "store",
    "approve_if",
    "validate_range",
    "approval_join",
    "automaton",
)

# Per-layer metrics that are counts; they must repeat exactly run to run.
COUNT_METRICS = (
    "lexer.tokens",
    "analyzer.elaborate.calls",
    "analyzer.instances",
    "analyzer.channels",
    "kernel.steps",
    "kernel.events",
    "kernel.activations",
    "kernel.idle_steps",
    "kernel.peak_in_flight",
    "kernel.bindings_end",
    "kernel.held_end",
    "kernel.unretired_replicas",
    "behaviors.handle.calls",
    "model.render.calls",
    "trace.bytes",
)


def calibrate() -> float:
    """A fixed pure-Python loop; its time tracks host speed, not the program.

    Like the program it formats strings, fills a dict, appends tuples and
    sorts, so it slows down with the same kinds of host contention.
    """
    start = time.perf_counter()
    table: dict[str, int] = {}
    rows = []
    for i in range(8_000):
        key = f"k{i % 1000}"
        table[key] = table.get(key, 0) + i
        rows.append((i % 7, key, i))
    rows.sort()
    return time.perf_counter() - start


def invoke(main, argv: list[str]) -> tuple[object, str, str]:
    """Call a CLI entry point in-process; return (status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception:
            traceback.print_exc()
            status = "exception"
    return status, out.getvalue(), err.getvalue()


class Judge:
    """Counts ops and failed ops.

    An op passes when it exits 0 and its outputs are byte-identical to the
    first passing op of its kind; that first op is checked in full by the
    kind's validator instead.
    """

    def __init__(self, validators: dict):
        self.validators = validators
        self.reference: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, kind: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{kind}: " + "; ".join(problems[:5]))
        return not problems

    def judge(self, kind: str, status, outputs: dict, stderr: str = "") -> bool:
        if status != 0:
            return self.record(kind, [f"exit status {status}: {stderr.strip()[-500:]}"])
        missing = [name for name, data in outputs.items() if data is None]
        if missing:
            return self.record(kind, [f"no {', '.join(missing)} written"])
        digests = {name: digest(data) for name, data in outputs.items()}
        reference = self.reference.get(kind)
        if reference is None:
            problems = self.validators[kind](outputs)
            if not problems:
                self.reference[kind] = digests
            return self.record(kind, problems)
        changed = sorted(name for name in digests if digests[name] != reference.get(name))
        return self.record(kind, [f"{name} differs from the reference" for name in changed])


def make_validators(full, half) -> dict:
    def sim(inputs):
        def validate(outputs):
            problems = []
            verdict = f"scenario {inputs.name}: pass"
            if not outputs["stdout"].startswith(verdict):
                problems.append(f"expected '{verdict}', got {outputs['stdout'][:300]!r}")
            trace = outputs["trace"].decode("utf-8")
            store = outputs["store"].decode("utf-8")
            problems += check_delivery(trace)
            if inputs.oracle:
                problems += check_oracle(inputs.scenario, trace, store)
            return problems

        return validate

    def check(inputs):
        def validate(outputs):
            got = outputs["stdout"].splitlines()
            want = inputs.check_lines()
            return [] if got == want else [f"check printed {got!r}, expected {want!r}"]

        return validate

    return {
        "sim": sim(full),
        "sim_half": sim(half),
        "check": check(full),
        "check_half": check(half),
        "fmt": lambda outputs: check_fmt(full.models, outputs["stdout"]),
    }


class Bench:
    def __init__(
        self, workload: str, seed: int, traced: bool, workdir: Path, size: int | None = None
    ):
        self.seed = seed
        self.traced = traced
        self.workdir = workdir
        generate = workloads.GENERATORS[workload]
        size = size or FULL_SIZE[workload]
        (workdir / "full").mkdir(parents=True)
        (workdir / "half").mkdir()
        self.full = generate(str(workdir / "full"), seed, size)
        self.half = generate(str(workdir / "half"), seed, size // 2)
        self.trace_path = str(workdir / "op.trace")
        self.store_path = str(workdir / "op.store")
        self.judge = Judge(make_validators(self.full, self.half))

    def argv(self, kind: str) -> list[str]:
        inputs = self.half if kind.endswith("_half") else self.full
        if kind.startswith("sim"):
            return ["sim", inputs.scenario, "--trace", self.trace_path, "--store", self.store_path]
        if kind.startswith("check"):
            return ["check", *inputs.models, "--root", inputs.root]
        return ["fmt", *inputs.models]

    def op(self, kind: str, main=None) -> tuple[float, bool, dict]:
        """Run one op of `kind`; return (seconds, passed, outputs)."""
        sim = kind.startswith("sim")
        if sim:
            for path in (self.trace_path, self.store_path):
                if os.path.exists(path):
                    os.remove(path)
        argv = self.argv(kind)
        gc.collect()
        start = time.perf_counter()
        status, out, err = invoke(main or cli.main, argv)
        elapsed = time.perf_counter() - start
        outputs = {"stdout": out}
        if sim:
            outputs["trace"] = read_bytes(self.trace_path)
            outputs["store"] = read_bytes(self.store_path)
        passed = self.judge.judge(kind.replace("_traced", ""), status, outputs, err)
        return elapsed, passed, outputs

    def child_env(self) -> dict:
        """Environment for a fresh interpreter on the program's sources."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        return env

    def setup_op(self) -> tuple[float, float | None]:
        """Import cloudadl.cli in a fresh interpreter; return (wall, import seconds)."""
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE],
                cwd=REPO,
                env=self.child_env(),
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            value = float(proc.stdout) if proc.returncode == 0 else None
            problem = f"import exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
        except (subprocess.TimeoutExpired, ValueError) as exc:
            value, problem = None, f"import failed: {exc}"
        wall = time.perf_counter() - start
        passed = self.judge.record("setup", [] if value else [problem])
        return wall, value if passed else None

    def peak_rss_op(self) -> float:
        """Run the full-size sim op as its own `cloudadl` process; return its peak RSS in MiB.

        Linux counts the image a child replaces at exec in the child's peak,
        so this must run while the benchmark process is still smaller than
        the op. The op is checked like the in-process sim ops.
        """
        for path in (self.trace_path, self.store_path):
            if os.path.exists(path):
                os.remove(path)
        out_path, err_path = self.workdir / "child.out", self.workdir / "child.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "cloudadl.cli", *self.argv("sim")],
                cwd=REPO,
                env=self.child_env(),
                stdout=out,
                stderr=err,
            )
            deadline = time.perf_counter() + CHILD_TIMEOUT_S
            pid = 0
            while not pid and time.perf_counter() < deadline:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                time.sleep(0.01)
            if not pid:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        outputs = {
            "stdout": out_path.read_text(encoding="utf-8"),
            "trace": read_bytes(self.trace_path),
            "store": read_bytes(self.store_path),
        }
        self.judge.judge("sim", proc.returncode, outputs, err_path.read_text(encoding="utf-8"))
        return usage.ru_maxrss / 1024


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def measure(bench: Bench, seconds: int) -> tuple[dict, list[str]]:
    """The untraced run: end-to-end metrics.

    Other tenants of a shared host slow every op down by up to 2x, in
    bursts that can cover a whole run. The calibration loop runs before an
    op once CALIBRATE_EVERY_S has passed since it last ran, and each op's
    time is scaled by CALIBRATE_REFERENCE_S over the mean of the loop times
    on either side of it. A timing is the median of these scaled samples, in
    seconds on a host that runs the loop in CALIBRATE_REFERENCE_S; the
    unscaled median is printed beside it. A growth ratio is the median over
    back-to-back full and half-size pairs.
    """
    bench.setup_op()  # warms the bytecode cache; counted as an op, not timed
    rss = bench.peak_rss_op()
    samples: dict[str, list[tuple[float, int]]] = {
        kind: [] for kind in ("sim", "sim_half", "check", "check_half", "fmt", "setup")
    }
    pairs: dict[str, list[tuple]] = {"sim": [], "check": []}
    attempts = dict.fromkeys(WEIGHTS, 0)
    spent = dict.fromkeys(WEIGHTS, 0.0)
    calibration: list[float] = []
    last_calibration = float("-inf")

    def run(kind):
        """One op, after the calibration loop if it is due; keep its sample if it passed."""
        nonlocal last_calibration
        if time.perf_counter() - last_calibration >= CALIBRATE_EVERY_S:
            calibration.append(calibrate())
            last_calibration = time.perf_counter()
        if kind == "setup":
            elapsed, value = bench.setup_op()
        else:
            elapsed, passed = bench.op(kind)[:2]
            value = elapsed if passed else None
        sample = None if value is None else (value, len(calibration) - 1)
        if sample is not None:
            samples[kind].append(sample)
        return elapsed, sample

    deadline = time.perf_counter() + seconds
    while True:
        now = time.perf_counter()
        short = [kind for kind in WEIGHTS if attempts[kind] < MIN_ATTEMPTS]
        if (now >= deadline and not short) or now >= deadline + OVERRUN_LIMIT_S:
            break
        kind = min(short or WEIGHTS, key=lambda k: spent[k] / WEIGHTS[k])
        attempts[kind] += 1
        elapsed, sample = run(kind)
        if kind in pairs:
            half_elapsed, half = run(kind + "_half")
            elapsed += half_elapsed
            if sample and half:
                pairs[kind].append((sample, half))
        spent[kind] += elapsed
    calibration.append(calibrate())

    def scale(sample):
        value, k = sample
        return value * 2 * CALIBRATE_REFERENCE_S / (calibration[k] + calibration[k + 1])

    def timing(kind):
        raw = median([value for value, _k in samples[kind]])
        scaled = [scale(sample) for sample in samples[kind]]
        return median(scaled), "s", f"{len(scaled)}, unscaled median {raw:.6f} s"

    def growth(kind):
        ratios = [scale(full) / (2 * scale(half)) for full, half in pairs[kind]]
        return median(ratios), "ratio", f"{len(ratios)} pairs"

    metrics = {
        "sim_s": timing("sim"),
        "sim_growth": growth("sim"),
        "check_s": timing("check"),
        "check_growth": growth("check"),
        "fmt_s": timing("fmt"),
        "setup_s": timing("setup"),
        "peak_rss_mb": (rss, "MiB", "1"),
    }
    _write_summary(bench, {"samples": samples, "calibration": calibration})
    return metrics, [_calibration_line(calibration)]


def _calibration_line(calibration: list[float]) -> str:
    if len(calibration) < 2:
        return "host calibration loop: too few samples"
    q1, q2, q3 = statistics.quantiles(calibration, n=4)
    return (
        f"host calibration loop: median {q2:.6f} s, "
        f"quartiles {q1:.6f}..{q3:.6f} s, n={len(calibration)}"
    )


def traced(bench: Bench, seconds: int) -> tuple[dict, list[str]]:
    """The traced run: per-layer metrics from spans around each layer."""
    tracer = Tracer()
    root = tracer.wrap("cli", cli.main)

    def traced_op(kind):
        tracer.reset()
        elapsed, passed, outputs = bench.op(kind, root)
        spans = tracer.spans
        record = {
            "seconds": elapsed,
            "passed": passed,
            "self": self_times(spans),
            "total": total_times(spans),
            "calls": span_counts(spans),
            "counts": dict(tracer.counts),
            "result": tracer.last_result,
            "outputs": outputs,
        }
        tracer.reset()
        return record

    rounds: list[dict] = []
    untraced_s: list[float] = []
    traced_s: list[float] = []
    calibration: list[float] = []
    # Untraced ops set the reference outputs that the traced ops must match;
    # the untraced sim op opening each round does so for sim.
    bench.op("check")
    bench.op("fmt")
    deadline = time.perf_counter() + seconds
    while True:
        now = time.perf_counter()
        if (now >= deadline and len(rounds) >= 2) or now >= deadline + OVERRUN_LIMIT_S:
            break
        calibration.append(calibrate())
        elapsed, passed = bench.op("sim")[:2]
        if passed:
            untraced_s.append(elapsed)
        tracer.install()
        try:
            sim = traced_op("sim_traced")
            check = traced_op("check_traced")
            fmt = traced_op("fmt_traced")
        finally:
            tracer.restore()
        if not (sim["passed"] and check["passed"] and fmt["passed"]):
            continue
        traced_s.append(sim["seconds"])
        trace_bytes = sim["outputs"]["trace"]
        layer = layer_metrics(sim, check, fmt, trace_shape(trace_bytes.decode("utf-8")), len(trace_bytes))
        if rounds:
            moved = [n for n in COUNT_METRICS if layer[n] != rounds[0][n]]
            if moved:
                bench.judge.record("counts", [f"{', '.join(moved)} changed between rounds"])
                continue
        rounds.append(layer)

    metrics: dict[str, tuple] = {}
    if rounds:
        for name in rounds[0]:
            if name in COUNT_METRICS:
                metrics[name] = (rounds[0][name], _unit(name), len(rounds))
            else:
                metrics[name] = (median([r[name] for r in rounds]), _unit(name), len(rounds))
        overhead = median(traced_s) - median(untraced_s)
        metrics["tracing.overhead.s"] = (overhead, "s", min(len(traced_s), len(untraced_s)))
    notes = [_calibration_line(calibration)]
    _write_summary(bench, {"rounds": rounds, "untraced_sim_s": untraced_s, "traced_sim_s": traced_s, "calibration": calibration})
    return metrics, notes


def _unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name == "kernel.us_per_event":
        return "us/event"
    if name == "trace.bytes":
        return "bytes"
    return "count"


def layer_metrics(sim: dict, check: dict, fmt: dict, shape: dict, trace_bytes: int) -> dict:
    """One round's per-layer metrics: self times summed over its three ops."""
    ops = (sim, check, fmt)

    def self_s(name):
        return sum(op["self"].get(name, 0.0) for op in ops)

    def calls(name):
        return sum(op["calls"].get(name, 0) for op in ops)

    kernel = sim["result"].kernel
    replicas = [r for group in kernel.groups.values() for r in group.replicas.values()]
    steps = kernel.step + 1
    metrics = {
        "lexer.s": self_s("lexer"),
        "lexer.tokens": sum(op["counts"].get("lexer.tokens", 0) for op in ops),
        "parser.s": self_s("parser"),
        "analyzer.check.s": self_s("analyzer.check"),
        "analyzer.elaborate.s": self_s("analyzer.elaborate"),
        "analyzer.elaborate.calls": sim["calls"]["analyzer.elaborate"],
        "analyzer.instances": sim["counts"]["analyzer.instances"],
        "analyzer.channels": sim["counts"]["analyzer.channels"],
        "scenario.load.s": self_s("scenario.load"),
        "scenario.build_kernel.s": self_s("scenario.build_kernel"),
        "scenario.judge.s": self_s("scenario.judge"),
        "kernel.run.s": self_s("kernel.run"),
        "kernel.us_per_event": sim["total"]["kernel.run"] / len(kernel.events) * 1e6,
        "kernel.steps": steps,
        "kernel.events": len(kernel.events),
        "kernel.activations": shape["activations"],
        "kernel.idle_steps": steps - shape["steps_with_events"],
        "kernel.peak_in_flight": shape["peak_in_flight"],
        "kernel.bindings_end": len(kernel.bindings),
        "kernel.held_end": sum(len(r.held) for r in replicas),
        "kernel.unretired_replicas": sum(1 for r in replicas if r.retiring),
        "behaviors.handle.s": sum(
            t for op in ops for name, t in op["self"].items() if name.startswith("behaviors.")
        ),
        "behaviors.handle.calls": sum(
            n for op in ops for name, n in op["calls"].items() if name.startswith("behaviors.")
        ),
    }
    for builtin in REPORTED_BUILTINS:
        metrics[f"behaviors.{builtin}.s"] = self_s(f"behaviors.{builtin}")
    metrics.update(
        {
            "model.render.calls": calls("model.render"),
            "model.render.s": self_s("model.render"),
            "trace.render.s": self_s("trace.render"),
            "trace.bytes": trace_bytes,
            "printer.s": self_s("printer"),
            "harness.self.s": self_s("harness.run_file"),
            "cli.self.s": self_s("cli"),
        }
    )
    return metrics


def _write_summary(bench: Bench, data: dict) -> None:
    """Keep the run's raw samples next to the benchmark's scratch inputs."""
    out = WORK / "out"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{bench.full.name}-seed{bench.seed}-trace{int(bench.traced)}.json"
    with open(out / name, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, default=str)
