"""Payload records: equality, hashing and rendering."""

from __future__ import annotations

import inspect

from cloudadl.model import Record


def record() -> Record:
    return Record("M", (("n", 3), ("s", 'a "q"\n'), ("ok", True)))


def test_render_text():
    assert record().render() == 'M{n=3,s="a \\"q\\"\\n",ok=true}'


def test_rendered_record_equals_a_fresh_one():
    r = record()
    before = (hash(r), repr(r))
    assert r == record()
    r.render()
    assert r == record() and record() == r
    assert (hash(r), repr(r)) == before == (hash(record()), repr(record()))
    assert len({r, record()}) == 1


def test_repeated_render_returns_the_same_text():
    r = record()
    first = r.render()
    assert r.render() == first
    assert r.render() is first


def test_render_is_a_plain_method_on_the_class():
    # callers may rebind Record.render, e.g. to wrap it with a timer
    assert inspect.isfunction(vars(Record)["render"])
