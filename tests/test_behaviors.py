"""Builtin behavior semantics and configuration validation."""

from __future__ import annotations

from random import Random

import pytest

from cloudadl.behaviors import (
    ActivationContext,
    BehaviorConfigError,
    Emit,
    MODE_BROADCAST,
    MODE_INDEX,
    MODE_ONE,
    Raise,
    instantiate,
    validate_clause,
)
from cloudadl.model import make_record

from helpers import parse_ok


def make(text: str, name: str = "A"):
    model = parse_ok(text)
    return instantiate(model.component_types[name], model), model


def rec(model, tname, **vals):
    return make_record(model.message_types[tname], vals)


def ctx(step: int = 0, seed: int = 0) -> ActivationContext:
    return ActivationContext(step, Random(seed))


def errors(text: str, name: str = "A") -> list[str]:
    model = parse_ok(text)
    return validate_clause(model.component_types[name], model)


U = "message U { v: integer; }\n"
UV = U + "message V { ok: boolean; }\n"


# --- forward ---


def test_forward_sole_out():
    b, m = make(U + "component A { port in U u; port out U o; behavior forward(); }")
    state, acts = b.handle(b.initial_state(), "u", rec(m, "U", v=3), ctx())
    assert acts == [Emit("o", rec(m, "U", v=3))]


def test_forward_named_out():
    b, m = make(
        U + "component A { port in U u; port out U a; port out U b;"
        " behavior forward(out=b); }"
    )
    _, acts = b.handle(b.initial_state(), "u", rec(m, "U", v=1), ctx())
    assert [a.port for a in acts] == ["b"]


def test_forward_broadcast_mode():
    b, m = make(
        U + "component A { port in U u; port out U o replicating;"
        " behavior forward(out=o, broadcast=true); }"
    )
    _, acts = b.handle(b.initial_state(), "u", rec(m, "U", v=1), ctx())
    assert acts[0].mode == MODE_BROADCAST


def test_forward_config_errors():
    assert errors(U + "component A { port in U u; behavior forward(); }") == [
        "forward: component has 0 out ports, name one with out="
    ]
    assert errors(
        U + "component A { port in U u; port out U a; port out U b;"
        " behavior forward(); }"
    ) == ["forward: component has 2 out ports, name one with out="]
    assert errors(
        U + "message W { s: text; }\n"
        "component A { port in U u; port out W o; behavior forward(); }"
    )  # in/out type mismatch
    assert errors(
        U + "component A { port in U u; port out U o; behavior forward(out=o, extra=1); }"
    ) == ["forward: unknown argument 'extra'"]


# --- route_by ---


def test_route_by_emits_index_mode():
    b, m = make(
        U + "component A { port in U u; port out U o replicating;"
        " behavior route_by(field=v); }"
    )
    _, acts = b.handle(b.initial_state(), "u", rec(m, "U", v=5), ctx())
    assert acts == [Emit("o", rec(m, "U", v=5), mode=MODE_INDEX, index=5)]


def test_route_by_needs_integer_field():
    assert errors(
        "message U { v: text; }\n"
        "component A { port in U u; port out U o; behavior route_by(field=v); }"
    ) == ["route_by: field 'v' must be an integer field"]


# --- approve_if ---


def test_approve_if_verdicts():
    b, m = make(
        "message U { v: integer; cred: text; }\n"
        "message V { ok: boolean; }\n"
        'component A { port in U u; port out V r;'
        ' behavior approve_if(field=cred, equals="valid"); }'
    )
    s = b.initial_state()
    s, acts = b.handle(s, "u", rec(m, "U", v=1, cred="valid"), ctx())
    assert acts == [Emit("r", rec(m, "V", ok=True))]
    s, acts = b.handle(s, "u", rec(m, "U", v=1, cred="forged"), ctx())
    assert acts == [Emit("r", rec(m, "V", ok=False))]


def test_approve_if_literal_must_match_field_primitive():
    assert errors(
        UV + 'component A { port in U u; port out V r;'
        ' behavior approve_if(field=v, equals="nope"); }'
    )


def test_approve_if_verdict_port_shape():
    assert errors(
        U + "message W { a: boolean; b: boolean; }\n"
        'component A { port in U u; port out W r;'
        " behavior approve_if(field=v, equals=1); }"
    )


# --- validate_range ---


def test_validate_range_bounds():
    b, m = make(
        UV + "component A { port in U u; port out V r;"
        " behavior validate_range(field=v, min=0, max=10); }"
    )
    s = b.initial_state()
    for v, ok in ((0, True), (10, True), (-1, False), (11, False)):
        s, acts = b.handle(s, "u", rec(m, "U", v=v), ctx())
        assert acts == [Emit("r", rec(m, "V", ok=ok))], v


def test_validate_range_single_bound():
    b, m = make(
        UV + "component A { port in U u; port out V r;"
        " behavior validate_range(field=v, min=5); }"
    )
    _, acts = b.handle(b.initial_state(), "u", rec(m, "U", v=999999), ctx())
    assert acts[0].payload.get("ok") is True


def test_validate_range_needs_some_bound():
    assert errors(
        UV + "component A { port in U u; port out V r;"
        " behavior validate_range(field=v); }"
    )


# --- store / collect / delay ---


def test_store_accumulates_rows():
    b, m = make(U + "component A { port in U u; behavior store(); }")
    s = b.initial_state()
    s, acts = b.handle(s, "u", rec(m, "U", v=9), ctx(step=4))
    assert acts == []
    s, _ = b.handle(s, "u", rec(m, "U", v=10), ctx(step=6))
    assert s == [(4, rec(m, "U", v=9)), (6, rec(m, "U", v=10))]


def test_store_appends_to_the_list_it_was_given():
    b, m = make(U + "component A { port in U u; behavior store(); }")
    rows = b.initial_state()
    rows.append((1, rec(m, "U", v=1)))
    s, acts = b.handle(rows, "u", rec(m, "U", v=2), ctx(step=3))
    assert s is rows and acts == []
    assert rows == [(1, rec(m, "U", v=1)), (3, rec(m, "U", v=2))]


def test_store_initial_states_are_distinct_lists():
    b, _ = make(U + "component A { port in U u; behavior store(); }")
    first, second = b.initial_state(), b.initial_state()
    assert first == [] and second == [] and first is not second


def test_collect_every_nth():
    b, m = make(U + "component A { port in U u; port out U o; behavior collect(n=3); }")
    s = b.initial_state()
    emitted = []
    for i in range(9):
        s, acts = b.handle(s, "u", rec(m, "U", v=i), ctx())
        emitted.extend(a.payload.get("v") for a in acts)
    assert emitted == [2, 5, 8]


def test_collect_n_must_be_positive():
    assert errors(
        U + "component A { port in U u; port out U o; behavior collect(n=0); }"
    ) == ["collect: 'n' must be at least 1"]


def test_delay_shift_register():
    b, m = make(U + "component A { port in U u; port out U o; behavior delay(k=2); }")
    s = b.initial_state()
    seen = []
    for i in range(5):
        s, acts = b.handle(s, "u", rec(m, "U", v=i), ctx())
        seen.append([a.payload.get("v") for a in acts])
    assert seen == [[], [], [0], [1], [2]]


def test_delay_zero_is_forward():
    b, m = make(U + "component A { port in U u; port out U o; behavior delay(k=0); }")
    _, acts = b.handle(b.initial_state(), "u", rec(m, "U", v=7), ctx())
    assert [a.payload.get("v") for a in acts] == [7]


# --- sample / fault_at ---


def test_sample_uses_activation_rng():
    b, m = make(
        U + "component A { port in U u; port out U o; behavior sample(percent=50); }"
    )
    rng = Random(1)
    s = b.initial_state()
    hits = 0
    for i in range(100):
        s, acts = b.handle(s, "u", rec(m, "U", v=i), ActivationContext(0, rng))
        hits += bool(acts)
    assert hits == 42  # frozen for Random(1)'s stream


def test_sample_edges():
    b, m = make(
        U + "component A { port in U u; port out U o; behavior sample(percent=0); }"
    )
    _, acts = b.handle(b.initial_state(), "u", rec(m, "U", v=1), ctx())
    assert acts == []
    b, m = make(
        U + "component A { port in U u; port out U o; behavior sample(percent=100); }"
    )
    _, acts = b.handle(b.initial_state(), "u", rec(m, "U", v=1), ctx())
    assert len(acts) == 1


def test_sample_percent_range():
    assert errors(
        U + "component A { port in U u; port out U o; behavior sample(percent=150); }"
    ) == ["sample: 'percent' must be between 0 and 100"]


def test_fault_at_raises_only_on_step():
    b, m = make(
        U + "component A { port in U u; port out U o; behavior fault_at(step=3); }"
    )
    s = b.initial_state()
    s, acts = b.handle(s, "u", rec(m, "U", v=0), ctx(step=2))
    assert acts == [Emit("o", rec(m, "U", v=0))]
    s, acts = b.handle(s, "u", rec(m, "U", v=0), ctx(step=3))
    assert acts == [Raise("induced")]
    s, acts = b.handle(s, "u", rec(m, "U", v=0), ctx(step=4))
    assert acts == [Emit("o", rec(m, "U", v=0))]


def test_fault_at_custom_kind_and_sink():
    b, m = make(
        U + 'component A { port in U u; behavior fault_at(step=1, kind="boom"); }'
    )
    s, acts = b.handle(b.initial_state(), "u", rec(m, "U", v=0), ctx(step=1))
    assert acts == [Raise("boom")]
    s, acts = b.handle(s, "u", rec(m, "U", v=0), ctx(step=2))
    assert acts == []  # no out port, off-step messages are absorbed


# --- approval_join ---


JOIN = (
    "message U { v: integer; }\n"
    "message V { ok: boolean; }\n"
    "message A2 { ok: boolean; }\n"
    "component J {\n"
    "  port in U item;\n"
    "  port in V ver1;\n"
    "  port in V ver2;\n"
    "  port out U req;\n"
    "  port out U fwd;\n"
    "  port out A2 ack;\n"
    "  behavior approval_join(item=item, respond=ack, request=req, forward=fwd);\n"
    "}\n"
)


def test_approval_join_happy_path():
    b, m = make(JOIN, "J")
    s = b.initial_state()
    s, acts = b.handle(s, "item", rec(m, "U", v=7), ctx())
    assert acts == [Emit("req", rec(m, "U", v=7))]
    s, acts = b.handle(s, "ver1", rec(m, "V", ok=True), ctx())
    assert acts == []
    s, acts = b.handle(s, "ver2", rec(m, "V", ok=True), ctx())
    assert acts == [
        Emit("fwd", rec(m, "U", v=7)),
        Emit("ack", rec(m, "A2", ok=True)),
    ]
    assert s == {"item": (), "ver1": (), "ver2": ()}


def test_approval_join_rejection_still_responds():
    b, m = make(JOIN, "J")
    s = b.initial_state()
    s, _ = b.handle(s, "item", rec(m, "U", v=8), ctx())
    s, _ = b.handle(s, "ver1", rec(m, "V", ok=False), ctx())
    s, acts = b.handle(s, "ver2", rec(m, "V", ok=True), ctx())
    assert acts == [Emit("ack", rec(m, "A2", ok=False))]


def test_approval_join_queues_are_fifo_per_port():
    b, m = make(JOIN, "J")
    s = b.initial_state()
    s, _ = b.handle(s, "item", rec(m, "U", v=1), ctx())
    s, _ = b.handle(s, "item", rec(m, "U", v=2), ctx())
    s, _ = b.handle(s, "ver1", rec(m, "V", ok=True), ctx())
    s, _ = b.handle(s, "ver1", rec(m, "V", ok=True), ctx())
    s, _ = b.handle(s, "ver2", rec(m, "V", ok=True), ctx())
    s, acts = b.handle(s, "ver2", rec(m, "V", ok=True), ctx())
    fwd = [a.payload.get("v") for a in acts if a.port == "fwd"]
    assert fwd == [2]


def verdicts_of(b, m, port, payloads):
    """The verdict payload each activation emits, in order."""
    s = b.initial_state()
    out = []
    for in_port, payload in payloads:
        s, acts = b.handle(s, in_port, payload, ctx())
        out.extend(a.payload for a in acts if a.port == port)
    return out


@pytest.mark.parametrize("builtin", ["approve_if", "validate_range", "approval_join"])
def test_equal_verdicts_are_one_shared_record(builtin):
    if builtin == "approval_join":
        b, m = make(JOIN, "J")
        feed = []
        for ok in (True, True, False, False):
            feed += [
                ("item", rec(m, "U", v=1)),
                ("ver1", rec(m, "V", ok=ok)),
                ("ver2", rec(m, "V", ok=True)),
            ]
        port, tname = "ack", "A2"
    else:
        clause = {
            "approve_if": "approve_if(field=v, equals=1)",
            "validate_range": "validate_range(field=v, max=1)",
        }[builtin]
        b, m = make(UV + f"component A {{ port in U u; port out V r; behavior {clause}; }}")
        feed = [("u", rec(m, "U", v=v)) for v in (1, 1, 2, 2)]
        port, tname = "r", "V"
    got = verdicts_of(b, m, port, feed)
    assert got[0] is got[1] and got[2] is got[3]
    for record, ok in zip(got[1:3], (True, False)):
        fresh = rec(m, tname, ok=ok)
        assert record == fresh
        assert record.render() == fresh.render() == f"{tname}{{ok={str(ok).lower()}}}"


def test_approval_join_config_errors():
    bad = JOIN.replace("respond=ack", "respond=req")
    assert errors(bad, "J")  # respond port must carry a single boolean field


# --- automaton ---


AUTO = (
    "message U { v: integer; }\n"
    "component A {\n"
    "  port in U go;\n"
    "  port in U halt;\n"
    "  port out U fwd;\n"
    '  behavior automaton(initial="idle",\n'
    '    "idle, go, v < 10 -> busy, emit fwd",\n'
    '    "idle, go, v >= 10 -> idle",\n'
    '    "busy, halt, * -> idle, emit fwd U{v=0}");\n'
    "}\n"
)


def test_automaton_transitions_and_emissions():
    b, m = make(AUTO)
    s = b.initial_state()
    assert s == "idle"
    s, acts = b.handle(s, "go", rec(m, "U", v=3), ctx())
    assert s == "busy"
    assert acts == [Emit("fwd", rec(m, "U", v=3))]
    s, acts = b.handle(s, "halt", rec(m, "U", v=99), ctx())
    assert s == "idle"
    assert acts == [Emit("fwd", rec(m, "U", v=0))]  # literal emission


def test_automaton_guard_filters():
    b, m = make(AUTO)
    s, acts = b.handle("idle", "go", rec(m, "U", v=50), ctx())
    assert s == "idle" and acts == []


def test_automaton_no_transition_raises():
    b, m = make(AUTO)
    _, acts = b.handle("idle", "halt", rec(m, "U", v=0), ctx())
    assert acts == [Raise("no_transition")]


def test_automaton_overlap_rejected():
    assert errors(
        U + 'component A { port in U u; port out U o; behavior automaton('
        'initial="a", "a, u, v < 5 -> a, emit o", "a, u, * -> a"); }'
    ) == ["automaton: guards 'v < 5' and '*' overlap in state 'a' on port 'u'"]


def test_automaton_disjoint_intervals_accepted():
    assert errors(
        U + 'component A { port in U u; port out U o; behavior automaton('
        'initial="a", "a, u, v < 5 -> a, emit o", "a, u, v >= 5 -> a"); }'
    ) == []


def test_automaton_eq_vs_neq_same_literal_disjoint():
    assert errors(
        U + 'component A { port in U u; port out U o; behavior automaton('
        'initial="a", "a, u, v = 5 -> a", "a, u, v != 5 -> a, emit o"); }'
    ) == []


def test_automaton_transition_parse_error():
    found = errors(
        U + 'component A { port in U u; port out U o; behavior automaton('
        'initial="a", "a, u, * -> "); }'
    )
    assert found and found[0].startswith("automaton: bad transition")


def test_automaton_unknown_port_in_transition():
    assert errors(
        U + 'component A { port in U u; port out U o; behavior automaton('
        'initial="a", "a, nope, * -> a"); }'
    )


# --- plumbing ---


def test_instantiate_unknown_builtin():
    model = parse_ok(U + "component A { port in U u; behavior zap(); }")
    with pytest.raises(BehaviorConfigError) as exc:
        instantiate(model.component_types["A"], model)
    assert "zap" in str(exc.value)


def test_positional_after_named_only_for_variadic():
    found = errors(
        U + "component A { port in U u; port out U o; behavior forward(out=o, 3); }"
    )
    assert found  # forward has no variadic tail

    auto = errors(
        U + 'component A { port in U u; port out U o; behavior automaton('
        'initial="a", "a, u, * -> a, emit o"); }'
    )
    assert auto == []  # automaton transitions may follow initial=


def test_default_mode_is_one():
    b, _ = make(U + "component A { port in U u; port out U o; behavior forward(); }")
    assert Emit("o", None).mode == MODE_ONE
