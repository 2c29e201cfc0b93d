"""Trace line rendering."""

from __future__ import annotations

from cloudadl.kernel import Event
from cloudadl.model import Record
from cloudadl.trace import render_tokens, render_trace


def test_render_tokens():
    assert render_tokens(()) == "-"
    assert render_tokens((("sess", 3),)) == "sess#3"
    assert render_tokens((("b", 1), ("a", 2))) == "a#2,b#1"


def test_render_event_columns():
    # kernel events carry payloads already rendered to text
    payload = Record("M", (("n", 3), ("s", "x y"))).render()
    assert payload == 'M{n=3,s="x y"}'
    ev = Event(4, "DELIVER", "root/w#1.i", 7, (("sess", 0),), payload, "ch")
    assert render_trace([ev]) == '4\tDELIVER\troot/w#1.i\t7\tsess#0\tM{n=3,s="x y"}\n'


def test_render_event_empty_fields():
    ev = Event(0, "SCALE", "root/w", None, (), "target=2,size=2", "")
    assert render_trace([ev]) == "0\tSCALE\troot/w\t-\t-\ttarget=2,size=2\n"


def test_render_trace_joins_lines():
    a = Event(0, "SCALE", "root/w", None, (), "target=1,size=1", "")
    b = Event(1, "FATAL", "root", None, (), "boom", "")
    text = render_trace([a, b])
    assert text == (
        "0\tSCALE\troot/w\t-\t-\ttarget=1,size=1\n"
        "1\tFATAL\troot\t-\t-\tboom\n"
    )
    assert render_trace([]) == ""


def test_render_trace_sorts_and_reuses_token_columns():
    # two equal tuples built separately, both unsorted; a third distinct one
    first = (("b", 1), ("a", 2))
    second = tuple([("b", 1), ("a", 2)])
    assert first == second and first is not second
    events = [
        Event(1, "SEND", "c", 1, first, "M{}", "c"),
        Event(2, "DELIVER", "root.o", 1, second, "M{}", "c"),
        Event(2, "MINT", "c", None, (("a", 3),), "-", "c"),
        Event(3, "DELIVER", "root.o", 2, first, "M{}", "c"),
    ]
    assert render_trace(events) == (
        "1\tSEND\tc\t1\ta#2,b#1\tM{}\n"
        "2\tDELIVER\troot.o\t1\ta#2,b#1\tM{}\n"
        "2\tMINT\tc\t-\ta#3\t-\n"
        "3\tDELIVER\troot.o\t2\ta#2,b#1\tM{}\n"
    )
