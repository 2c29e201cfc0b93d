"""Static checks and topology elaboration."""

from __future__ import annotations

import pytest

from cloudadl.analyzer import apply_latency_overrides, check, elaborate
from cloudadl.parser import load_files

from helpers import MODELS_DIR, checked, codes, parse_ok

M = "message M { n: integer; }\n"
N = "message N { s: text; }\n"


def check_codes(text: str, root: str | None = None) -> list[str]:
    return codes(check(parse_ok(text), root))


# --- reference resolution ---


def test_unknown_port_message_type():
    assert check_codes("component A { port in Nope p; behavior store(); }") == [
        "E_UNRESOLVED"
    ]


def test_unknown_sub_type():
    assert check_codes("component A { component Nope s; }") == ["E_UNRESOLVED"]


def test_message_type_as_sub_type():
    assert check_codes(M + "component A { component M s; }") == ["E_UNRESOLVED"]


def test_unknown_connector_sub_and_port():
    text = M + (
        "component B { port in M i; behavior store(); }\n"
        "component A { port in M x; component B b;"
        " connect x -> nosub.i; connect x -> b.noport; }"
    )
    assert check_codes(text) == ["E_UNRESOLVED", "E_UNRESOLVED"]


def test_unknown_own_port_in_connector():
    text = M + (
        "component B { port in M i; behavior store(); }\n"
        "component A { component B b; connect ghost -> b.i; }"
    )
    assert check_codes(text) == ["E_UNRESOLVED"]


def test_unknown_root_type():
    assert check_codes(M, root="Nope") == ["E_UNRESOLVED"]


# --- connector shape ---


def test_type_mismatch():
    text = M + N + (
        "component B { port in N i; behavior store(); }\n"
        "component A { port in M x; component B b; connect x -> b.i; }"
    )
    assert check_codes(text) == ["E_TYPE_MISMATCH"]


def test_direction_own_to_own():
    # the bypass is rejected, and A also counts as atomic-with-inputs here
    text = M + "component A { port in M x; port out M y; connect x -> y; }"
    assert check_codes(text) == ["E_DIRECTION", "E_BEHAVIOR"]


def test_direction_sub_self_loop():
    text = M + (
        "component B { port in M i; port out M o; behavior forward(out=o); }\n"
        "component A { component B b; connect b.o -> b.i; }"
    )
    assert check_codes(text) == ["E_DIRECTION"]


def test_direction_wrong_ends():
    text = M + (
        "component B { port in M i; port out M o; behavior forward(out=o); }\n"
        "component A { port in M x; port out M y; component B b;"
        " connect y -> b.i;"       # own source must be an in port
        " connect b.i -> x;"       # bad at both ends, reported per end
        " connect b.o -> b2.i; }"  # and unknown sub for good measure
    )
    found = check_codes(text)
    assert found.count("E_DIRECTION") == 3 and found.count("E_UNRESOLVED") == 1


def test_encapsulation_deep_endpoint():
    text = M + (
        "component C { port in M i; behavior store(); }\n"
        "component B { component C c; }\n"
        "component A { port in M x; component B b; connect x -> b.c.i; }"
    )
    assert check_codes(text) == ["E_ENCAPSULATION"]


def test_duplicate_connector():
    text = M + (
        "component B { port in M i; behavior store(); }\n"
        "component A { port in M x; component B b;"
        " connect x -> b.i; connect x -> b.i; }"
    )
    assert check_codes(text) == ["E_DUP_CONNECT"]


# --- behavior placement ---


def test_decomposed_with_behavior():
    text = M + (
        "component B { port in M i; behavior store(); }\n"
        "component A { component B b; behavior forward(); }"
    )
    assert check_codes(text) == ["E_BEHAVIOR"]


def test_atomic_inputs_need_behavior():
    assert check_codes(M + "component A { port in M i; }") == ["E_BEHAVIOR"]


def test_atomic_without_inputs_needs_no_behavior():
    assert check_codes(M + "component A { port out M o; }") == []
    assert check_codes("component A { }") == []


def test_unknown_builtin():
    assert check_codes(M + "component A { port in M i; behavior zap(); }") == [
        "E_BEHAVIOR"
    ]


def test_bad_builtin_config():
    # forward with no out port to emit on
    assert check_codes(M + "component A { port in M i; behavior forward(); }") == [
        "E_BEHAVIOR"
    ]


# --- contexts ---


def test_gate_without_connector():
    text = M + (
        "component B { port in M i; behavior store(); }\n"
        "component A { port in M x; component B b; connect x -> b.i;"
        " context c { open x -> b.nopair; } }"
    )
    assert check_codes(text) == ["E_GATE_REF"]


def test_gate_repeated_in_context():
    text = M + (
        "component B { port in M i; behavior store(); }\n"
        "component A { port in M x; component B b; connect x -> b.i;"
        " context c { open x -> b.i; open x -> b.i; } }"
    )
    assert check_codes(text) == ["E_GATE_REF"]


def test_duplicate_context_name():
    text = M + (
        "component B { port in M i; behavior store(); }\n"
        "component A { port in M x; component B b; connect x -> b.i;"
        " context c { open x -> b.i; } context c { close x -> b.i; } }"
    )
    assert check_codes(text) == ["E_DUP_DEF"]


# --- recursion ---


def test_direct_recursion():
    diags = check(parse_ok("component A { component A inner; }"))
    assert codes(diags) == ["E_RECURSION"]
    assert "A -> A" in diags[0].message


def test_mutual_recursion():
    diags = check(parse_ok(
        "component A { component B b; }\ncomponent B { component A a; }"
    ))
    assert any(c == "E_RECURSION" for c in codes(diags))
    cycle = next(d for d in diags if d.code == "E_RECURSION")
    assert "A -> B -> A" in cycle.message or "B -> A -> B" in cycle.message


# --- replication rules ---


def test_replicating_in_port_rejected():
    # the marker only belongs on out ports
    text = M + "component A { port in M i replicating; behavior store(); }"
    assert check_codes(text) == ["E_REPL_PORT"]
    deco = M + (
        "component W { port in M i; behavior store(); }\n"
        "component A { port in M feed replicating; component W w;"
        " connect feed -> w.i; }"
    )
    assert check_codes(deco) == ["E_REPL_PORT"]


def test_unmarked_out_port_into_group():
    text = M + (
        "component H { port in M i; port out M o; behavior forward(); }\n"
        "component W { port in M i; behavior store(); }\n"
        "component A { port in M feed; component H h; replicating component W w;"
        " connect feed -> h.i; connect h.o -> w.i; }"
    )
    assert check_codes(text) == ["E_REPL_PORT"]


def test_marked_out_port_into_single():
    text = M + (
        "component H { port in M i; port out M o replicating; behavior forward(); }\n"
        "component W { port in M i; behavior store(); }\n"
        "component A { port in M feed; component H h; component W w;"
        " connect feed -> h.i; connect h.o -> w.i; }"
    )
    assert check_codes(text) == ["E_REPL_PORT"]


def test_marked_pair_accepted():
    text = M + (
        "component H { port in M i; port out M o replicating; behavior forward(); }\n"
        "component W { port in M i; behavior store(); }\n"
        "component A { port in M feed; component H h; replicating component W w;"
        " connect feed -> h.i; connect h.o -> w.i; }"
    )
    assert check_codes(text) == []


def test_own_in_source_feeds_group_without_marker():
    # the enclosing component's own in port cannot carry the marker, so the
    # pass-inward connector is accepted as is
    text = M + (
        "component W { port in M i; behavior store(); }\n"
        "component A { port in M feed; replicating component W w;"
        " connect feed -> w.i; }"
    )
    assert check_codes(text) == []


def test_parity_skipped_for_decomposed_target():
    # whether a decomposed sub hides a group is only known after fusion
    text = M + (
        "component W { port in M i; behavior store(); }\n"
        "component D { port in M x; replicating component W w; connect x -> w.i; }\n"
        "component H { port in M i; port out M o; behavior forward(); }\n"
        "component A { port in M feed; component H h; component D d;"
        " connect feed -> h.i; connect h.o -> d.x; }"
    )
    assert check_codes(text) == []


def test_replicating_decomposed_sub():
    text = M + (
        "component W { port in M i; behavior store(); }\n"
        "component B { component W w; }\n"
        "component A { replicating component B b; }"
    )
    assert check_codes(text) == ["E_REPL_SUB"]


def test_bundled_models_all_check_clean():
    roots = {
        "sensor_channel.arc": "SensorChannel",
        "request_chain.arc": "RequestChain",
        "supervised.arc": "Supervised",
        "pipeline4.arc": "Pipeline",
    }
    for name, root in roots.items():
        model, diags = load_files([str(MODELS_DIR / name)])
        assert not diags, [d.render() for d in diags]
        found = check(model, root)
        assert not found, (name, [d.render() for d in found])


# --- elaboration ---


def test_sensor_topology():
    model, diags = load_files([str(MODELS_DIR / "sensor_channel.arc")])
    assert not diags
    topo = elaborate(model, "SensorChannel")
    assert list(topo.instances) == [
        "root", "root/handler", "root/auth", "root/validator", "root/store",
    ]
    assert topo.instances["root/store"].replicating
    assert not topo.instances["root/handler"].replicating
    assert topo.root.type_def.name == "SensorChannel"
    got = [
        (ch.id, ch.group, ch.external, ch.gates, ch.message_type)
        for ch in topo.channels
    ]
    assert got == [
        ("root.update->root/handler.update", False, False,
         (("open", "session"),), "Update"),
        ("root/handler.process->root/auth.update", False, False, (), "Update"),
        ("root/handler.process->root/validator.update", False, False, (), "Update"),
        ("root/handler.store->root/store.update", True, False, (), "Update"),
        ("root/handler.ack->root.ack", False, True,
         (("close", "session"),), "Ack"),
        ("root/auth.result->root/handler.authResult", False, False, (), "Verdict"),
        ("root/validator.result->root/handler.valResult", False, False, (), "Verdict"),
    ]


def test_nested_passthrough_fuses_hops():
    text = M + (
        "component Leaf { port in M i; port out M o; behavior forward(out=o); }\n"
        "component Mid { port in M x; port out M y; component Leaf leaf;"
        " connect x -> leaf.i; connect leaf.o -> y; }\n"
        "component Top { port in M x; port out M y; component Mid mid;"
        " connect x -> mid.x; connect mid.y -> y; }"
    )
    _, topo = checked(text, "Top")
    assert [ch.id for ch in topo.channels] == [
        "root.x->root/mid.x->root/mid/leaf.i",
        "root/mid/leaf.o->root/mid.y->root.y",
    ]
    assert topo.channels[1].external


def test_gates_accumulate_along_fused_chain():
    text = M + (
        "component Leaf { port in M i; port out M o; behavior forward(out=o); }\n"
        "component Mid { port in M x; port out M y; component Leaf leaf;"
        " connect x -> leaf.i; connect leaf.o -> y;"
        " context inner { open x -> leaf.i; close leaf.o -> y; } }\n"
        "component Top { port in M x; port out M y; component Mid mid;"
        " connect x -> mid.x; connect mid.y -> y;"
        " context outer { open x -> mid.x; close mid.y -> y; } }"
    )
    _, topo = checked(text, "Top")
    inbound = topo.channels[0]
    outbound = topo.channels[1]
    assert inbound.gates == (("open", "outer"), ("open", "inner"))
    assert outbound.gates == (("close", "inner"), ("close", "outer"))


def test_atomic_root_channels():
    text = M + "component Solo { port in M i; port out M o; behavior forward(out=o); }"
    _, topo = checked(text, "Solo")
    assert [(ch.id, ch.external) for ch in topo.channels] == [
        ("root.i", False),
        ("root.o", True),
    ]


def test_fan_out_two_channels_one_source():
    text = M + (
        "component B { port in M i; behavior store(); }\n"
        "component A { port in M x; component B b1; component B b2;"
        " connect x -> b1.i; connect x -> b2.i; }"
    )
    _, topo = checked(text, "A")
    assert [ch.id for ch in topo.channels] == [
        "root.x->root/b1.i",
        "root.x->root/b2.i",
    ]
    assert topo.channels_from[("root", "x")] == list(topo.channels)


def test_latency_overrides():
    model, _ = load_files([str(MODELS_DIR / "pipeline4.arc")])
    topo = elaborate(model, "Pipeline")
    assert all(ch.latency == 1 for ch in topo.channels)
    apply_latency_overrides(topo, [
        ("*", 2),
        ("root/s1.b->root/s2.a", 7),
        ("root/s3.*", 9),
    ])
    by_id = {ch.id: ch.latency for ch in topo.channels}
    assert by_id["root.feed->root/s1.a"] == 2
    assert by_id["root/s1.b->root/s2.a"] == 7
    assert by_id["root/s2.b->root/s3.a"] == 2
    assert by_id["root/s3.b->root/s4.a"] == 9
    assert by_id["root/s4.b->root.drain"] == 2


def test_latency_last_match_wins():
    model, _ = load_files([str(MODELS_DIR / "pipeline4.arc")])
    topo = elaborate(model, "Pipeline")
    apply_latency_overrides(topo, [("root/s1.b->root/s2.a", 7), ("*", 3)])
    assert all(ch.latency == 3 for ch in topo.channels)
