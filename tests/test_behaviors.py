"""Builtin behavior semantics and configuration validation."""

from __future__ import annotations

import hashlib
from random import Random

import pytest

from cloudadl import cli
from cloudadl.analyzer import check, elaborate
from cloudadl.behaviors import (
    BUILTINS,
    BehaviorConfigError,
    Fault,
    Guard,
    MODE_BROADCAST,
    MODE_INDEX,
    MODE_ONE,
    _guards_disjoint,
    instantiate,
)
from cloudadl.model import make_record
from cloudadl.oracle import predict
from cloudadl.scenario import load_scenario

from helpers import MODELS_DIR, SCENARIOS_DIR, parse_ok, replaced


def make(text: str, name: str = "A"):
    model = parse_ok(text)
    return instantiate(model.component_types[name], model), model


def rec(model, tname, **vals):
    return make_record(model.message_types[tname], vals)


def handle(b, state, port, payload, step: int = 0, seed: int = 0):
    """One activation at `step`, with a generator seeded by `seed`."""
    return b.handle(state, port, payload, step, Random(seed))


def errors(text: str, name: str = "A") -> list[str]:
    """The configuration error of component `name`'s clause, if any."""
    model = parse_ok(text)
    try:
        instantiate(model.component_types[name], model)
    except BehaviorConfigError as exc:
        return [str(exc)]
    return []


U = "message U { v: integer; }\n"
UV = U + "message V { ok: boolean; }\n"


# --- forward ---


def test_forward_sole_out():
    b, m = make(U + "component A { port in U u; port out U o; behavior forward(); }")
    state, emits = handle(b, b.initial_state(), "u", rec(m, "U", v=3))
    assert emits == [("o", rec(m, "U", v=3))]


def test_forward_named_out():
    b, m = make(
        U + "component A { port in U u; port out U a; port out U b;"
        " behavior forward(out=b); }"
    )
    _, emits = handle(b, b.initial_state(), "u", rec(m, "U", v=1))
    assert [port for port, _ in emits] == ["b"]


def test_forward_broadcast_mode():
    b, m = make(
        U + "component A { port in U u; port out U o replicating;"
        " behavior forward(out=o, broadcast=true); }"
    )
    assert b.mode == MODE_BROADCAST
    _, emits = handle(b, b.initial_state(), "u", rec(m, "U", v=1))
    assert emits == [("o", rec(m, "U", v=1))]


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
    assert b.mode == MODE_INDEX
    _, emits = handle(b, b.initial_state(), "u", rec(m, "U", v=5))
    assert emits == [("o", rec(m, "U", v=5), 5)]


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
    s, emits = handle(b, s, "u", rec(m, "U", v=1, cred="valid"))
    assert emits == [("r", rec(m, "V", ok=True))]
    s, emits = handle(b, s, "u", rec(m, "U", v=1, cred="forged"))
    assert emits == [("r", rec(m, "V", ok=False))]


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
        s, emits = handle(b, s, "u", rec(m, "U", v=v))
        assert emits == [("r", rec(m, "V", ok=ok))], v


def test_validate_range_single_bound():
    b, m = make(
        UV + "component A { port in U u; port out V r;"
        " behavior validate_range(field=v, min=5); }"
    )
    _, [(_, verdict)] = handle(b, b.initial_state(), "u", rec(m, "U", v=999999))
    assert verdict.get("ok") is True


def test_validate_range_needs_some_bound():
    assert errors(
        UV + "component A { port in U u; port out V r;"
        " behavior validate_range(field=v); }"
    )


# --- store / collect / delay ---


def test_store_accumulates_rows():
    b, m = make(U + "component A { port in U u; behavior store(); }")
    s = b.initial_state()
    s, emits = handle(b, s, "u", rec(m, "U", v=9), step=4)
    assert emits == []
    s, _ = handle(b, s, "u", rec(m, "U", v=10), step=6)
    assert s == [(4, rec(m, "U", v=9)), (6, rec(m, "U", v=10))]


def test_store_appends_to_the_list_it_was_given():
    b, m = make(U + "component A { port in U u; behavior store(); }")
    rows = b.initial_state()
    rows.append((1, rec(m, "U", v=1)))
    s, emits = handle(b, rows, "u", rec(m, "U", v=2), step=3)
    assert s is rows and emits == []
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
        s, emits = handle(b, s, "u", rec(m, "U", v=i))
        emitted.extend(payload.get("v") for _, payload in emits)
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
        s, emits = handle(b, s, "u", rec(m, "U", v=i))
        seen.append([payload.get("v") for _, payload in emits])
    assert seen == [[], [], [0], [1], [2]]


def test_delay_zero_is_forward():
    b, m = make(U + "component A { port in U u; port out U o; behavior delay(k=0); }")
    _, emits = handle(b, b.initial_state(), "u", rec(m, "U", v=7))
    assert emits == [("o", rec(m, "U", v=7))]


# --- sample / fault_at ---


def test_sample_uses_activation_rng():
    b, m = make(
        U + "component A { port in U u; port out U o; behavior sample(percent=50); }"
    )
    rng = Random(1)
    s = b.initial_state()
    hits = 0
    for i in range(100):
        s, emits = b.handle(s, "u", rec(m, "U", v=i), 0, rng)
        hits += bool(emits)
    assert hits == 42  # frozen for Random(1)'s stream


def test_sample_edges():
    b, m = make(
        U + "component A { port in U u; port out U o; behavior sample(percent=0); }"
    )
    _, emits = handle(b, b.initial_state(), "u", rec(m, "U", v=1))
    assert emits == []
    b, m = make(
        U + "component A { port in U u; port out U o; behavior sample(percent=100); }"
    )
    _, emits = handle(b, b.initial_state(), "u", rec(m, "U", v=1))
    assert emits == [("o", rec(m, "U", v=1))]


def test_sample_percent_range():
    assert errors(
        U + "component A { port in U u; port out U o; behavior sample(percent=150); }"
    ) == ["sample: 'percent' must be between 0 and 100"]


def test_fault_at_raises_only_on_step():
    b, m = make(
        U + "component A { port in U u; port out U o; behavior fault_at(step=3); }"
    )
    s = b.initial_state()
    s, emits = handle(b, s, "u", rec(m, "U", v=0), step=2)
    assert emits == [("o", rec(m, "U", v=0))]
    with pytest.raises(Fault) as exc:
        handle(b, s, "u", rec(m, "U", v=0), step=3)
    assert exc.value.kind == "induced"
    s, emits = handle(b, s, "u", rec(m, "U", v=0), step=4)
    assert emits == [("o", rec(m, "U", v=0))]


def test_fault_at_custom_kind_and_sink():
    b, m = make(
        U + 'component A { port in U u; behavior fault_at(step=1, kind="boom"); }'
    )
    s = b.initial_state()
    with pytest.raises(Fault) as exc:
        handle(b, s, "u", rec(m, "U", v=0), step=1)
    assert exc.value.kind == "boom"
    s, emits = handle(b, s, "u", rec(m, "U", v=0), step=2)
    assert emits == []  # no out port, off-step messages are absorbed


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
    s, emits = handle(b, s, "item", rec(m, "U", v=7))
    assert emits == [("req", rec(m, "U", v=7))]
    s, emits = handle(b, s, "ver1", rec(m, "V", ok=True))
    assert emits == []
    s, emits = handle(b, s, "ver2", rec(m, "V", ok=True))
    assert emits == [("fwd", rec(m, "U", v=7)), ("ack", rec(m, "A2", ok=True))]
    assert s == {"item": (), "ver1": (), "ver2": ()}


def test_approval_join_rejection_still_responds():
    b, m = make(JOIN, "J")
    s = b.initial_state()
    s, _ = handle(b, s, "item", rec(m, "U", v=8))
    s, _ = handle(b, s, "ver1", rec(m, "V", ok=False))
    s, emits = handle(b, s, "ver2", rec(m, "V", ok=True))
    assert emits == [("ack", rec(m, "A2", ok=False))]


def test_approval_join_queues_are_fifo_per_port():
    b, m = make(JOIN, "J")
    s = b.initial_state()
    s, _ = handle(b, s, "item", rec(m, "U", v=1))
    s, _ = handle(b, s, "item", rec(m, "U", v=2))
    s, _ = handle(b, s, "ver1", rec(m, "V", ok=True))
    s, _ = handle(b, s, "ver1", rec(m, "V", ok=True))
    s, _ = handle(b, s, "ver2", rec(m, "V", ok=True))
    s, emits = handle(b, s, "ver2", rec(m, "V", ok=True))
    fwd = [payload.get("v") for port, payload in emits if port == "fwd"]
    assert fwd == [2]


def verdicts_of(b, m, port, payloads):
    """The verdict payload each activation emits, in order."""
    s = b.initial_state()
    out = []
    for in_port, payload in payloads:
        s, emits = handle(b, s, in_port, payload)
        out.extend(emitted for out_port, emitted in emits if out_port == port)
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
    s, emits = handle(b, s, "go", rec(m, "U", v=3))
    assert s == "busy"
    assert emits == [("fwd", rec(m, "U", v=3))]
    s, emits = handle(b, s, "halt", rec(m, "U", v=99))
    assert s == "idle"
    assert emits == [("fwd", rec(m, "U", v=0))]  # literal emission


def test_automaton_emissions_go_out_in_written_order():
    b, m = make(
        U + 'component A { port in U u; port out U o; behavior automaton('
        'initial="s", "s, u, * -> s, emit o U{v=0}; emit o"); }'
    )
    s, emits = handle(b, "s", "u", rec(m, "U", v=7))
    assert s == "s"
    assert emits == [("o", rec(m, "U", v=0)), ("o", rec(m, "U", v=7))]


def test_automaton_guard_filters():
    b, m = make(AUTO)
    s, emits = handle(b, "idle", "go", rec(m, "U", v=50))
    assert s == "idle" and emits == []


def test_automaton_no_transition_raises():
    b, m = make(AUTO)
    with pytest.raises(Fault) as exc:
        handle(b, "idle", "halt", rec(m, "U", v=0))
    assert exc.value.kind == "no_transition"


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


# Every guard the grammar can write on a small grid of literals: `*`, each
# ordered or equality operator on integers -2..3, and = and != on text and
# boolean literals. The payloads cover every combination of v in -3..4,
# s in x, y, z and both booleans.
OPERATORS = ("=", "!=", "<", "<=", ">", ">=")
GUARD_GRID = (
    [Guard(None)]
    + [Guard("v", op, n) for op in OPERATORS for n in range(-2, 4)]
    + [
        Guard(field, op, literal)
        for field, literals in (("s", ("x", "y")), ("b", (False, True)))
        for op in ("=", "!=")
        for literal in literals
    ]
)
# Re-pinned when != on a boolean came to be read as = on the other literal:
# only (b != false, b != true) and its mirror turned disjoint.
GUARD_VERDICTS_SHA256 = "3c2377a1cac94b2ab6d649a7ce77d3171fb9d514282617c3f5d061d3e71090a8"


def test_guard_verdicts_on_a_grid():
    """Guard.matches on every payload and _guards_disjoint on every ordered
    pair, pinned by digest: 45 guards, 48 payloads, 2,025 pairs. A pair is
    disjoint exactly when no payload satisfies both of its guards."""
    mdef = parse_ok("message G { v: integer; s: text; b: boolean; }").message_types["G"]
    payloads = [
        make_record(mdef, {"v": v, "s": s, "b": b})
        for v in range(-3, 5)
        for s in ("x", "y", "z")
        for b in (False, True)
    ]
    hits = {g: [g.matches(p) for p in payloads] for g in GUARD_GRID}
    lines = [g.render() + "\t" + "".join("01"[h] for h in hits[g]) for g in GUARD_GRID]
    for a in GUARD_GRID:
        for b in GUARD_GRID:
            disjoint = _guards_disjoint(a, b)
            assert disjoint != any(map(bool.__and__, hits[a], hits[b])), (a, b)
            lines.append(f"{a.render()}\t{b.render()}\t{int(disjoint)}")
    assert len(lines) == 45 + 45 * 45
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GUARD_VERDICTS_SHA256


# --- plumbing ---


def test_instantiate_unknown_builtin():
    model = parse_ok(U + "component A { port in U u; behavior zap(); }")
    with pytest.raises(BehaviorConfigError) as exc:
        instantiate(model.component_types["A"], model)
    assert "zap" in str(exc.value)


def test_instantiate_without_a_clause_names_a_long_type_by_its_length():
    for name, shown in (("A", "'A'"), ("A" * 5000, "a word of 5000 characters")):
        model = parse_ok(U + f"component {name} {{ port in U u; }}")
        with pytest.raises(BehaviorConfigError) as exc:
            instantiate(model.component_types[name], model)
        assert str(exc.value) == f"{shown} has no behavior clause"


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
    assert b.mode == MODE_ONE


# --- configured once per model ---

BUNDLED = [
    ("pipeline4", "Pipeline"),
    ("request_chain", "RequestChain"),
    ("sensor_channel", "SensorChannel"),
    ("supervised", "Supervised"),
]


@pytest.fixture
def configured_types(monkeypatch):
    """The type name of each behavior configured while the test runs."""
    names = []
    for builtin, cls in list(BUILTINS.items()):

        def counting(self, shape, bound, cls=cls):
            names.append(shape.tdef.name)
            cls.__init__(self, shape, bound)

        monkeypatch.setitem(BUILTINS, builtin, type(cls.__name__, (cls,), {"__init__": counting}))
    return names


def clause_types(name: str) -> list[str]:
    """The atomic types with a behavior clause in bundled model `name`."""
    model = parse_ok((MODELS_DIR / f"{name}.arc").read_text(encoding="utf-8"))
    return sorted(
        tname
        for tname, tdef in model.component_types.items()
        if tdef.behavior is not None and not tdef.is_decomposed
    )


@pytest.mark.parametrize("name, root", BUNDLED)
def test_a_sim_configures_each_type_once(name, root, configured_types, capsys):
    assert cli.main(["sim", str(SCENARIOS_DIR / f"{name}.scn")]) == 0
    assert sorted(configured_types) == clause_types(name)


@pytest.mark.parametrize("name, root", BUNDLED)
def test_a_rooted_check_configures_each_type_once(name, root, configured_types, capsys):
    assert cli.main(["check", str(MODELS_DIR / f"{name}.arc"), "--root", root]) == 0
    assert sorted(configured_types) == clause_types(name)


@pytest.mark.parametrize("name", ["pipeline4", "request_chain", "sensor_channel"])
def test_a_prediction_configures_each_type_once(name, configured_types):
    scenario, _ = load_scenario(str(SCENARIOS_DIR / f"{name}.scn"))
    predict(replaced(scenario, scales=[]))
    assert sorted(configured_types) == clause_types(name)


def test_check_and_every_elaboration_share_one_behavior(configured_types):
    model = parse_ok(
        U + "component A { port in U u; port out U o; behavior collect(n=2); }\n"
        "component S { port in U u; behavior store(); }\n"
        "component R { port in U x; component A a; component S s1; component S s2;"
        " connect x -> a.u; connect a.o -> s1.u; connect x -> s2.u; }"
    )
    assert check(model, "R") == []
    first, second = elaborate(model, "R"), elaborate(model, "R")
    assert configured_types == ["A", "S"]
    for path in ("root/a", "root/s1", "root/s2"):
        assert first.instances[path].behavior is second.instances[path].behavior
    assert first.instances["root/s1"].behavior is first.instances["root/s2"].behavior
    assert instantiate(model.component_types["S"], model) is first.instances["root/s1"].behavior


def test_a_bad_clause_fails_every_time_and_is_not_kept(configured_types):
    model = parse_ok(U + "component A { port in U u; port out U o; behavior collect(n=0); }")
    for _ in range(2):
        with pytest.raises(BehaviorConfigError, match="'n' must be at least 1"):
            instantiate(model.component_types["A"], model)
    assert configured_types == ["A", "A"]
