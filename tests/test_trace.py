"""Trace line rendering."""

from __future__ import annotations

import tracemalloc

from cloudadl.model import Record
from cloudadl.trace import render_tokens, render_trace

from helpers import trace_text


def test_render_tokens():
    assert render_tokens(()) == "-"
    assert render_tokens((("sess", 3),)) == "sess#3"
    assert render_tokens((("b", 1), ("a", 2))) == "a#2,b#1"


def test_render_event_columns():
    # kernel events carry payloads already rendered to text
    payload = Record("M", (("n", 3), ("s", "x y"))).render()
    assert payload == 'M{n=3,s="x y"}'
    ev = (4, "DELIVER", "root/w#1.i", 7, (("sess", 0),), payload, "ch")
    assert trace_text([ev]) == '4\tDELIVER\troot/w#1.i\t7\tsess#0\tM{n=3,s="x y"}\n'


def test_render_event_empty_fields():
    ev = (0, "SCALE", "root/w", None, (), "target=2,size=2", "")
    assert trace_text([ev]) == "0\tSCALE\troot/w\t-\t-\ttarget=2,size=2\n"


def test_render_trace_joins_lines():
    a = (0, "SCALE", "root/w", None, (), "target=1,size=1", "")
    b = (1, "FATAL", "root", None, (), "boom", "")
    text = trace_text([a, b])
    assert text == (
        "0\tSCALE\troot/w\t-\t-\ttarget=1,size=1\n"
        "1\tFATAL\troot\t-\t-\tboom\n"
    )
    assert trace_text([]) == ""


def test_render_trace_sorts_and_reuses_token_columns():
    # two equal tuples built separately, both unsorted; a third distinct one
    first = (("b", 1), ("a", 2))
    second = tuple([("b", 1), ("a", 2)])
    assert first == second and first is not second
    events = [
        (1, "SEND", "c", 1, first, "M{}", "c"),
        (2, "DELIVER", "root.o", 1, second, "M{}", "c"),
        (2, "MINT", "c", None, (("a", 3),), "-", "c"),
        (3, "DELIVER", "root.o", 2, first, "M{}", "c"),
    ]
    assert trace_text(events) == (
        "1\tSEND\tc\t1\ta#2,b#1\tM{}\n"
        "2\tDELIVER\troot.o\t1\ta#2,b#1\tM{}\n"
        "2\tMINT\tc\t-\ta#3\t-\n"
        "3\tDELIVER\troot.o\t2\ta#2,b#1\tM{}\n"
    )


def test_render_trace_memory_stays_bounded(tmp_path):
    # the shape and size of the held-out stream run: 60,000 untokened events
    # and a 3.6 MB trace; joining it into one string first peaks near 10 MiB
    events = [
        (
            i // 2,
            "DELIVER" if i % 2 else "SEND",
            f"root/s{i % 7}#0.a" if i % 2 else f"root/s{i % 7}.b->root/s{i % 7 + 1}.a",
            i // 2,
            (),
            f'Item{{n={i * 7919 % 1_000_003},tag="gamma{i}"}}',
            "c",
        )
        for i in range(60_000)
    ]
    path = tmp_path / "t.trace"
    with open(path, "w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            render_trace(events, fh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    text = path.read_text(encoding="utf-8")
    assert len(text) > 3_000_000 and text.count("\n") == 60_000
    assert text.startswith('0\tSEND\troot/s0.b->root/s1.a\t0\t-\tItem{n=0,tag="gamma0"}\n')
    assert peak < 256 * 1024, peak
