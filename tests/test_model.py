"""Model values: payload records and component type lookups."""

from __future__ import annotations

import inspect

from cloudadl.model import (
    CLOSE,
    IN,
    OPEN,
    OUT,
    ComponentTypeDef,
    ConnectorDecl,
    ContextDecl,
    Endpoint,
    GateRef,
    PortDecl,
    Record,
    SubcomponentDecl,
)


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


def test_lookups_return_the_first_declaration_of_a_name():
    # the parser and check reject duplicates; a directly built type keeps them
    first_port, second_port = PortDecl("p", IN, "M"), PortDecl("p", OUT, "N")
    first_sub, second_sub = SubcomponentDecl("s", "A"), SubcomponentDecl("s", "B")
    tdef = ComponentTypeDef(
        "T", (first_port, second_port), (first_sub, second_sub), (), (), None
    )
    before = (hash(tdef), repr(tdef))
    assert tdef.port("p") is first_port
    assert tdef.subcomponent("s") is first_sub
    assert tdef.port("s") is None and tdef.subcomponent("p") is None
    assert (hash(tdef), repr(tdef)) == before
    assert tdef == ComponentTypeDef(
        "T", (first_port, second_port), (first_sub, second_sub), (), (), None
    )


def test_gates_of_lists_opens_then_closes_in_context_order():
    def ends(src, tgt):
        return Endpoint(tuple(src.split("."))), Endpoint(tuple(tgt.split(".")))

    a, b = ConnectorDecl(*ends("i", "s.i")), ConnectorDecl(*ends("s.o", "o"))
    gate_a, gate_b = GateRef(a.source, a.target), GateRef(b.source, b.target)
    contexts = (
        ContextDecl("x", (gate_a,), (gate_a, gate_b)),
        ContextDecl("y", (gate_a, gate_a), ()),
    )
    tdef = ComponentTypeDef("T", (), (), (a, b), contexts, None)
    assert tdef.gates_of(a) == ((OPEN, "x"), (OPEN, "y"), (CLOSE, "x"))
    assert tdef.gates_of(b) == ((CLOSE, "x"),)
    assert ComponentTypeDef("T", (), (), (a,), (), None).gates_of(a) == ()
