"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import filecmp
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import runner  # noqa: E402
import workloads  # noqa: E402
from checks import check_delivery, digest  # noqa: E402
from tracer import TARGETS, Tracer, self_times  # noqa: E402

SMALL = {"stream": 60, "sessions": 80, "bigmodel": 20}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generators_are_deterministic(tmp_path, name):
    generate = workloads.GENERATORS[name]
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    generate(str(dirs[0]), 5, SMALL[name])
    made = generate(str(dirs[1]), 5, SMALL[name])
    generate(str(dirs[2]), 6, SMALL[name])
    files = sorted(p.name for p in dirs[0].iterdir())
    match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], files, shallow=False)
    assert match == files and not mismatch and not errors
    scenario = Path(made.scenario).name
    assert (dirs[0] / scenario).read_bytes() != (dirs[2] / scenario).read_bytes()


def test_tracer_restores_every_rebound_name():
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, _name in TARGETS}
    tracer = Tracer()
    tracer.install()
    try:
        for (owner, attr), original in originals.items():
            assert vars(owner)[attr] is not original
            assert vars(owner)[attr].__wrapped__ is original
    finally:
        tracer.restore()
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, (owner, attr)


def test_self_time_is_span_minus_children():
    spans = [
        ["op", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 9.0, 0],
    ]
    assert self_times(spans) == {"op": 3.0, "a": 6.0, "b": 1.0}


def test_wrappers_nest_spans_by_call():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    # outer spans ticks 0..5, each inner call one tick of it
    assert [s[0] for s in tracer.spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert self_times(tracer.spans) == {"outer": 3.0, "inner": 2.0}


def _trace(*rows):
    return "".join("\t".join(map(str, row)) + "\n" for row in rows)


def test_delivery_check_finds_reordering_loss_and_broken_stickiness():
    ch = "root/x.o->root/g.i"
    good = _trace(
        (1, "SEND", ch, 1, "c#0", "M{}"),
        (1, "SEND", ch, 2, "c#0", "M{}"),
        (2, "BIND", "root/g#1", 1, "c#0", "-"),
        (2, "DELIVER", "root/g#1.i", 1, "c#0", "M{}"),
        (2, "DELIVER", "root/g#1.i", 2, "c#0", "M{}"),
    )
    assert check_delivery(good) == []
    swapped = good.splitlines()
    swapped[3], swapped[4] = swapped[4], swapped[3]
    assert any("out of order" in p for p in check_delivery("\n".join(swapped)))
    lost = "\n".join(good.splitlines()[:-1])
    assert any("never delivered" in p for p in check_delivery(lost))
    unsticky = good.replace("root/g#1.i\t2", "root/g#0.i\t2")
    assert any("bound to root/g#1" in p for p in check_delivery(unsticky))


def test_corrupted_trace_digest_counts_as_failed_op(tmp_path):
    bench = runner.Bench("stream", 3, False, tmp_path / "w", size=SMALL["stream"])
    assert bench.op("sim")[1]
    assert bench.op("sim")[1]
    bench.judge.reference["sim"]["trace"] = digest(b"corrupted")
    assert not bench.op("sim")[1]
    assert (bench.judge.attempted, bench.judge.failed) == (3, 1)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_passes_and_reports_every_layer(tmp_path, name):
    bench = runner.Bench(name, 4, True, tmp_path / "w", size=SMALL[name])
    metrics, _notes = runner.traced(bench, 1)
    assert bench.judge.failed == 0, bench.judge.problems
    assert metrics["analyzer.elaborate.calls"][0] == 2
    assert metrics["kernel.activations"][0] == metrics["behaviors.handle.calls"][0]
    assert set(runner.COUNT_METRICS) <= set(metrics)
    assert not any(hasattr(vars(owner)[attr], "__wrapped__") for owner, attr, _ in TARGETS)
