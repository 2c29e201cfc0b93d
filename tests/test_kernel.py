"""Kernel semantics: ordering, replication, tokens, supervision, scaling."""

from __future__ import annotations

import gc
import hashlib
import sys
from random import Random

import pytest

from cloudadl.analyzer import apply_latency_overrides, check, elaborate
from cloudadl.kernel import FatalUnhandled, Kernel, KernelError
from cloudadl.model import make_record
from cloudadl.parser import load_files, parse_model
from cloudadl.scenario import build_kernel, load_scenario, load_scenario_text, run_scenario

from helpers import MODELS_DIR, PKG_ROOT, SCENARIOS_DIR, events, parse_ok, trace_text
from modelgen import POOL_TEXT, pipeline_text

sys.path.insert(0, str(PKG_ROOT / "perfbench"))
import workloads  # noqa: E402


def build(text: str, root: str, *, overrides=(), **kw):
    model = parse_ok(text)
    diags = check(model, root)
    assert not diags, [d.render() for d in diags]
    topo = elaborate(model, root)
    if overrides:
        apply_latency_overrides(topo, list(overrides))
    return model, topo, Kernel(topo, **kw)


def rec(model, tname, **vals):
    return make_record(model.message_types[tname], vals)


def jobs(model, port, steps, tname="Job", field="n"):
    return [
        (step, port, rec(model, tname, **{field: i}), 0)
        for i, step in enumerate(steps)
    ]


def deliveries(kernel, subject_prefix=""):
    return [e for e in events(kernel) if e.kind == "DELIVER"
            and e.subject.startswith(subject_prefix)]


# --- ordering ---


def test_per_channel_fifo_under_random_latencies():
    rng = Random(42)
    text, root, _ = pipeline_text(rng)
    model = parse_ok(text)
    topo = elaborate(model, root)
    overrides = [(ch.id, rng.randint(1, 4)) for ch in topo.channels]
    apply_latency_overrides(topo, overrides)
    inj = [
        (rng.randint(1, 5), "feed", rec(model, "Item", n=i), 0)
        for i in range(30)
    ]
    k = Kernel(topo, injections=inj)
    k.run()
    assert not k.truncated
    for ch in topo.channels:
        sends = [e for e in events(k) if e.kind == "SEND" and e.channel == ch.id]
        delis = [e for e in events(k) if e.kind == "DELIVER" and e.channel == ch.id]
        assert [e.seq for e in sends] == list(range(1, len(sends) + 1))
        assert [e.seq for e in delis] == [e.seq for e in sends]
        assert [e.payload for e in delis] == [e.payload for e in sends]


def test_same_step_deliveries_ordered_by_channel_id():
    text = (
        "message M { n: integer; }\n"
        "component B { port in M i; behavior store(); }\n"
        "component A { port in M x; component B b1; component B b2;"
        " connect x -> b1.i; connect x -> b2.i; }"
    )
    model, topo, k = build(
        text, "A",
        injections=[(1, "x", make_record(
            parse_ok(text).message_types["M"], {"n": 0}), 0)],
    )
    k.run()
    got = [e.subject for e in deliveries(k)]
    assert got == ["root/b1#0.i", "root/b2#0.i"]


def test_same_step_deliveries_sort_by_channel_id_then_integer_seq():
    # declared zeta, b10, b, b1: the ids sort b, b1, b10, zeta; b1 and b10
    # share the prefix "root.x->root/b1"; each channel carries seqs 1 to 12
    text = (
        "message M { n: integer; }\n"
        "component B { port in M i; behavior store(); }\n"
        "component A { port in M x; component B zeta; component B b10;"
        " component B b; component B b1; connect x -> zeta.i;"
        " connect x -> b10.i; connect x -> b.i; connect x -> b1.i; }"
    )
    model = parse_ok(text)
    _, topo, k = build(text, "A", injections=jobs(model, "x", [1] * 12, "M"))
    declared = [ch.id for ch in topo.channels]
    assert declared == [f"root.x->root/{b}.i" for b in ("zeta", "b10", "b", "b1")]
    k.run()
    got = [(e.step, e.channel, e.seq) for e in deliveries(k)]
    assert got == [
        (2, f"root.x->root/{b}.i", seq)
        for b in ("b", "b1", "b10", "zeta")
        for seq in range(1, 13)
    ]


def test_arrival_step_dominates_channel_order():
    text = (
        "message M { n: integer; }\n"
        "component B { port in M i; behavior store(); }\n"
        "component A { port in M x; component B b1; component B b2;"
        " connect x -> b1.i; connect x -> b2.i; }"
    )
    model = parse_ok(text)
    topo = elaborate(model, "A")
    apply_latency_overrides(topo, [("root.x->root/b1.i", 3)])
    k = Kernel(topo, injections=[
        (1, "x", rec(model, "M", n=0), 0),
    ])
    k.run()
    got = [(e.step, e.subject) for e in deliveries(k)]
    assert got == [(2, "root/b2#0.i"), (4, "root/b1#0.i")]


def test_one_replica_handles_same_step_arrivals_in_channel_order():
    # y's two messages are sent first, x's last; all three land at step 4
    text = (
        "message M { n: integer; }\n"
        "component B { port in M i; behavior store(); }\n"
        "component A { port in M x; port in M y; component B b;"
        " connect x -> b.i; connect y -> b.i; }"
    )
    model = parse_ok(text)
    _, _, k = build(
        text, "A",
        overrides=[("root.x->root/b.i", 2), ("root.y->root/b.i", 3)],
        injections=[
            (1, "y", rec(model, "M", n=1), 0),
            (1, "y", rec(model, "M", n=2), 0),
            (2, "x", rec(model, "M", n=3), 0),
        ],
    )
    k.run()
    assert [(e.step, e.channel, e.seq) for e in deliveries(k)] == [
        (4, "root.x->root/b.i", 1),
        (4, "root.y->root/b.i", 1),
        (4, "root.y->root/b.i", 2),
    ]
    rows = k.groups["root/b"].replicas[0].state
    assert [(step, p.get("n")) for step, p in rows] == [(4, 3), (4, 1), (4, 2)]


def test_injects_reach_an_atomic_root():
    # the root is its own instance: its in port feeds it, its out port the boundary
    text = (
        "message M { n: integer; }\n"
        "component Solo { port in M i; port out M o; behavior forward(out=o); }"
    )
    model = parse_ok(text)
    _, _, k = build(text, "Solo", injections=jobs(model, "i", [1, 2], "M"))
    k.run()
    assert trace_text(k.events) == (
        "1\tSEND\troot.i\t1\t-\tM{n=0}\n"
        "2\tSEND\troot.i\t2\t-\tM{n=1}\n"
        "2\tDELIVER\troot#0.i\t1\t-\tM{n=0}\n"
        "2\tSEND\troot.o\t1\t-\tM{n=0}\n"
        "3\tDELIVER\troot#0.i\t2\t-\tM{n=1}\n"
        "3\tDELIVER\troot.o\t1\t-\tM{n=0}\n"
        "3\tSEND\troot.o\t2\t-\tM{n=1}\n"
        "4\tDELIVER\troot.o\t2\t-\tM{n=1}\n"
    )
    assert [(step, p.get("n")) for step, p in k.out_streams["o"]] == [(3, 0), (4, 1)]


def test_identical_runs_identical_traces():
    for seed in (0, 7):
        text, root, _ = pipeline_text(Random(3))
        model = parse_ok(text)
        runs = []
        for _ in range(2):
            topo = elaborate(model, root)
            k = Kernel(topo, seed=seed, injections=[
                (s, "feed", rec(model, "Item", n=s), 0) for s in (1, 1, 2, 5)
            ])
            k.run()
            runs.append(trace_text(k.events))
        assert runs[0] == runs[1]


# --- replica selection ---


def pool(**kw):
    model = parse_ok(POOL_TEXT)
    topo = elaborate(model, "Pool")
    return model, topo, Kernel(topo, **kw)


def test_round_robin_over_live_replicas():
    model = parse_ok(POOL_TEXT)
    _, _, k = pool(
        scales=[(0, "root/w", 3, 0)],
        injections=jobs(model, "feed", [1] * 6),
    )
    k.run()
    rids = [e.subject for e in deliveries(k, "root/w")]
    assert rids == [f"root/w#{i}.i" for i in (0, 1, 2, 0, 1, 2)]
    assert len(k.out_streams["drain"]) == 6
    # untokened messages bind nothing and leave nothing held
    assert not [e for e in events(k) if e.kind == "BIND"]
    assert all(e.tokens == () for e in events(k))
    assert all(not r.held for r in k.groups["root/w"].replicas.values())


def test_group_starts_at_size_one():
    model = parse_ok(POOL_TEXT)
    _, _, k = pool(injections=jobs(model, "feed", [1, 2]))
    k.run()
    assert [e.subject for e in deliveries(k, "root/w")] == [
        "root/w#0.i", "root/w#0.i",
    ]


def test_broadcast_copies_to_every_live_replica():
    text = (
        "message M { n: integer; }\n"
        "component W { port in M i; port out M o; behavior forward(out=o); }\n"
        "component H { port in M i; port out M o replicating;"
        " behavior forward(out=o, broadcast=true); }\n"
        "component Sys { port in M feed; port out M drain; component H h;"
        " replicating component W w;"
        " connect feed -> h.i; connect h.o -> w.i; connect w.o -> drain; }"
    )
    model, topo, k = build(
        text, "Sys",
        scales=[(0, "root/w", 3, 0)],
        injections=[(1, "feed", rec(parse_ok(text), "M", n=5), 0)],
    )
    k.run()
    ch = "root/h.o->root/w.i"
    sends = [e for e in events(k) if e.kind == "SEND" and e.channel == ch]
    assert [e.seq for e in sends] == [1, 2, 3]
    got = sorted(e.subject for e in deliveries(k) if e.channel == ch)
    assert got == ["root/w#0.i", "root/w#1.i", "root/w#2.i"]
    assert len(k.out_streams["drain"]) == 3
    assert not [e for e in events(k) if e.kind == "BIND"]


def test_index_mode_picks_modulo_live():
    text = (
        "message M { v: integer; }\n"
        "component W { port in M i; behavior store(); }\n"
        "component R { port in M i; port out M o replicating;"
        " behavior route_by(field=v); }\n"
        "component Sys { port in M feed; component R r;"
        " replicating component W w;"
        " connect feed -> r.i; connect r.o -> w.i; }"
    )
    model = parse_ok(text)
    _, _, k = build(
        text, "Sys",
        scales=[(0, "root/w", 3, 0)],
        injections=[
            (1, "feed", rec(model, "M", v=4), 0),
            (2, "feed", rec(model, "M", v=6), 0),
        ],
    )
    k.run()
    got = [e.subject for e in deliveries(k) if e.channel == "root/r.o->root/w.i"]
    assert got == ["root/w#1.i", "root/w#0.i"]  # 4 % 3, 6 % 3


# --- context tokens ---


def test_tokens_mint_bind_stick_and_strip():
    model, diags = load_files([str(MODELS_DIR / "request_chain.arc")])
    assert not diags
    topo = elaborate(model, "RequestChain")
    k = Kernel(topo,
               scales=[(0, "root/a", 2, 0)],
               injections=[
                   (s, "task", rec(model, "Req", body=f"r{s}"), 0)
                   for s in (1, 2, 3, 4)
               ])
    k.run()
    mints = [e for e in events(k) if e.kind == "MINT"]
    assert [e.tokens for e in mints] == [
        (("chain", 0),), (("chain", 1),), (("chain", 2),), (("chain", 3),),
    ]
    binds = [e for e in events(k) if e.kind == "BIND"]
    assert len(binds) == 4  # one per token, never rebound
    # every group delivery carrying token t lands on the replica t bound to
    bound_to = {}
    for e in binds:
        tok = e.tokens[0]
        bound_to[tok] = e.subject
    for e in deliveries(k, "root/a#"):
        for tok in e.tokens:
            rid = e.subject.split(".")[0]
            assert bound_to[tok].startswith(rid)
    # gateless hops (a.toB, b.next, c.back) carry each request's one token,
    # and the callbacks on c.back come home to the replica that token bound
    gateless = {ch.id for ch in topo.channels if not ch.gates}
    hops = [e for e in events(k) if e.kind == "SEND" and e.channel in gateless]
    assert len(hops) == 12
    assert all(len(e.tokens) == 1 and e.tokens[0] in bound_to for e in hops)
    backs = [e for e in deliveries(k) if e.channel == "root/c.back->root/a.back"]
    assert len(backs) == 4
    assert all(e.subject == bound_to[e.tokens[0]] + ".back" for e in backs)
    strips = [e for e in events(k) if e.kind == "STRIP"]
    assert [e.tokens for e in strips] == [e.tokens for e in mints]
    assert len(k.out_streams["done"]) == 4
    # fresh tokens alternate replicas via round robin
    first_rids = [bound_to[("chain", i)].split(".")[0] for i in range(4)]
    assert first_rids == ["root/a#0", "root/a#1", "root/a#0", "root/a#1"]


def test_token_rides_interior_hops():
    model, _ = load_files([str(MODELS_DIR / "request_chain.arc")])
    topo = elaborate(model, "RequestChain")
    k = Kernel(topo, injections=[
        (1, "task", rec(model, "Req", body="x"), 0),
    ])
    k.run()
    interior = [e for e in events(k)
                if e.kind == "SEND" and "root/b" in e.channel]
    assert interior and all(e.tokens == (("chain", 0),) for e in interior)


def test_tokened_messages_through_an_instance_that_does_not_replicate():
    # the session binds at the replica group e; p does not replicate, so it
    # takes every message on its one replica and no binding names it
    text = (
        "message M { n: integer; }\n"
        "component E { port in M i; port out M o; behavior forward(out=o); }\n"
        "component P { port in M i; port out M o; behavior collect(n=2, out=o); }\n"
        "component Sys { port in M feed; port out M drain;"
        " replicating component E e; component P p;"
        " connect feed -> e.i; connect e.o -> p.i; connect p.o -> drain;"
        " context sess { open feed -> e.i; close p.o -> drain; } }"
    )
    model = parse_ok(text)
    _, _, k = build(
        text, "Sys",
        strategies={"root/p": "restart"},
        scales=[(0, "root/e", 2, 0)],
        injections=jobs(model, "feed", range(1, 7), "M"),
        faults=[(4, "root/p", "boom", None, 0)],
    )
    k.run()
    assert len(k.bindings) == 6
    assert {path for path, _tok in k.bindings} == {"root/e"}
    binds = [e.subject for e in events(k) if e.kind == "BIND"]
    assert binds == ["root/e#0", "root/e#1"] * 3
    into_p = deliveries(k, "root/p")
    assert [(e.step, e.subject) for e in into_p] == [(s, "root/p#0.i") for s in range(3, 9)]
    assert all(len(e.tokens) == 1 for e in into_p)
    assert [(e.step, e.subject) for e in events(k) if e.kind == "RESTART"] == [(4, "root/p")]
    # n=0 arrived before the restart; the fresh count pairs n=1 with n=2
    # and n=3 with n=4, where the old count would have passed on 1, 3 and 5
    assert [p.get("n") for _t, p in k.out_streams["drain"]] == [2, 4]


def test_absorbed_tokens_are_held():
    text = (
        "message M { n: integer; }\n"
        "component W { port in M i; behavior store(); }\n"
        "component Sys { port in M feed;"
        " replicating component W w; connect feed -> w.i;"
        " context sess { open feed -> w.i; } }"
    )
    model, topo, k = build(text, "Sys", injections=[
        (1, "feed", rec(parse_ok(text), "M", n=0), 0),
    ])
    k.run()
    replica = k.groups["root/w"].replicas[0]
    assert replica.held == {("sess", 0)}
    assert not [e for e in events(k) if e.kind == "STRIP"]


def test_a_pinned_message_goes_to_its_replica_over_a_token_binding():
    text = (
        "message M { v: integer; }\n"
        "component R { port in M i; port out M o replicating;"
        " behavior route_by(field=v); }\n"
        "component W { port in M i; port out M o;"
        ' behavior automaton(initial="s",'
        ' "s, i, v = 0 -> s, emit o M{v=1}", "s, i, v = 1 -> s"); }\n'
        "component Sys { port in M feed; component R r;"
        " replicating component W w;"
        " connect feed -> r.i; connect r.o -> w.i; connect w.o -> r.i;"
        " context sess { open feed -> r.i; } }"
    )
    model = parse_ok(text)
    _, _, k = build(
        text, "Sys",
        scales=[(0, "root/w", 2, 0)],
        injections=[(1, "feed", rec(model, "M", v=0), 0)],
    )
    k.run()
    tok = ("sess", 0)
    into_w = [
        (e.step, e.kind, e.subject, e.tokens) for e in events(k)
        if e.kind == "BIND" or (e.kind == "DELIVER" and e.subject.startswith("root/w#"))
    ]
    # the route_by pick binds the fresh token to w#0, BIND before DELIVER;
    # v=1 then goes to w#1 although its token is bound to w#0, and binds nothing
    assert into_w == [
        (3, "BIND", "root/w#0", (tok,)),
        (3, "DELIVER", "root/w#0.i", (tok,)),
        (5, "DELIVER", "root/w#1.i", (tok,)),
    ]
    assert k.bindings == {("root/w", tok): 0}


def test_broadcast_copies_of_a_tokened_message_bind_nothing():
    text = (
        "message M { n: integer; }\n"
        "component H { port in M i; port out M o replicating;"
        " behavior forward(out=o, broadcast=true); }\n"
        "component W { port in M i; behavior store(); }\n"
        "component Sys { port in M feed; component H h;"
        " replicating component W w;"
        " connect feed -> h.i; connect h.o -> w.i;"
        " context sess { open feed -> h.i; } }"
    )
    model = parse_ok(text)
    _, _, k = build(
        text, "Sys",
        scales=[(0, "root/w", 3, 0)],
        injections=[(1, "feed", rec(model, "M", n=0), 0)],
    )
    k.run()
    copies = deliveries(k, "root/w#")
    assert sorted(e.subject for e in copies) == [f"root/w#{i}.i" for i in range(3)]
    assert all(e.tokens == (("sess", 0),) for e in copies)
    assert not [e for e in events(k) if e.kind == "BIND"]
    assert not k.bindings


def test_context_serials_are_global_per_context():
    # two contexts interleaved: each keeps its own counter from 0
    text = (
        "message M { n: integer; }\n"
        "component W { port in M i; behavior store(); }\n"
        "component Sys { port in M f1; port in M f2;"
        " component W w1; component W w2;"
        " connect f1 -> w1.i; connect f2 -> w2.i;"
        " context c1 { open f1 -> w1.i; }"
        " context c2 { open f2 -> w2.i; } }"
    )
    model = parse_ok(text)
    _, _, k = build(text, "Sys", injections=[
        (1, "f1", rec(model, "M", n=0), 0),
        (1, "f2", rec(model, "M", n=1), 0),
        (2, "f1", rec(model, "M", n=2), 0),
    ])
    k.run()
    mints = [e.tokens for e in events(k) if e.kind == "MINT"]
    assert mints == [(("c1", 0),), (("c2", 0),), (("c1", 1),)]


NESTED_CONTEXTS = (
    "message M { n: integer; }\n"
    "component X { port in M i; port out M o replicating; behavior forward(out=o); }\n"
    "component F { port in M i; port out M o; behavior forward(out=o); }\n"
    "component Inner { port in M i; port out M o;"
    " component X x; replicating component F y;"
    " connect i -> x.i; connect x.o -> y.i; connect y.o -> o;"
    " context a { open i -> x.i; close y.o -> o; }"
    " context zed { open x.o -> y.i; } }\n"
    "component Sys { port in M feed; port out M drain;"
    " component Inner i1; component Inner i2;"
    " connect feed -> i1.i; connect i1.o -> i2.i; connect i2.o -> drain;"
    " context zed { open feed -> i1.i; close i2.o -> drain; } }"
)


def test_a_message_carries_several_tokens_through_nested_contexts():
    model = parse_ok(NESTED_CONTEXTS)
    _, _, k = build(NESTED_CONTEXTS, "Sys", injections=jobs(model, "feed", [1, 1, 1], "M"))
    k.run()
    rows = [line.split("\t") for line in trace_text(k.events).splitlines()]
    # the first inject's message, seq 1 on each channel it crosses
    first = [row[1:5] for row in rows if row[1] in ("MINT", "STRIP", "BIND") and row[3] == "1"]
    feed = "root.feed->root/i1.i->root/i1/x.i"
    hop = "root/i1/y.o->root/i1.o->root/i2.i->root/i2/x.i"
    drain = "root/i2/y.o->root/i2.o->root.drain"
    assert first == [
        ["MINT", feed, "1", "zed#0"],
        ["MINT", feed, "1", "a#0"],
        ["MINT", "root/i1/x.o->root/i1/y.i", "1", "zed#3"],
        ["BIND", "root/i1/y#0", "1", "a#0,zed#0,zed#3"],
        ["STRIP", hop, "1", "a#0"],
        ["MINT", hop, "1", "a#3"],
        ["MINT", "root/i2/x.o->root/i2/y.i", "1", "zed#6"],
        ["BIND", "root/i2/y#0", "1", "a#3,zed#0,zed#3,zed#6"],
        ["STRIP", drain, "1", "a#3"],
        ["STRIP", drain, "1", "zed#0,zed#3,zed#6"],
    ]
    # each hop carries the sorted, duplicate-free tokens its gates leave
    for e in events(k):
        assert list(e.tokens) == sorted(set(e.tokens))
    assert [e.tokens for e in deliveries(k, "root.drain")] == [()] * 3
    assert [p.get("n") for _t, p in k.out_streams["drain"]] == [0, 1, 2]


def test_each_send_carries_the_text_of_its_own_payload():
    # one activation emits a new record and then the delivered one
    text = (
        "message M { v: integer; }\n"
        "component A { port in M i; port out M o;"
        ' behavior automaton(initial="s", "s, i, * -> s, emit o M{v=0}; emit o"); }\n'
        "component Sys { port in M feed; port out M drain; component A a;"
        " connect feed -> a.i; connect a.o -> drain; }"
    )
    model = parse_ok(text)
    _, _, k = build(text, "Sys", injections=[(1, "feed", rec(model, "M", v=7), 0)])
    k.run()
    sends = [(e.channel, e.seq, e.payload) for e in events(k) if e.kind == "SEND"]
    assert sends == [
        ("root.feed->root/a.i", 1, "M{v=7}"),
        ("root/a.o->root.drain", 1, "M{v=0}"),
        ("root/a.o->root.drain", 2, "M{v=7}"),
    ]
    assert [e.payload for e in deliveries(k, "root.drain")] == ["M{v=0}", "M{v=7}"]
    assert [p.get("v") for _t, p in k.out_streams["drain"]] == [0, 7]


# --- supervision ---


SUP = (
    "message M { n: integer; }\n"
    "component W { port in M i; port out M o; behavior collect(n=2); }\n"
    "component Sys { port in M feed; port out M drain; component W w;"
    " connect feed -> w.i; connect w.o -> drain; }"
)


def test_restart_resets_behavior_state():
    model = parse_ok(SUP)
    _, _, k = build(
        SUP, "Sys",
        strategies={"root/w": "restart"},
        injections=[(s, "feed", rec(model, "M", n=s), 0) for s in (1, 3, 4)],
        faults=[(3, "root/w", "wedge", None, 0)],
    )
    k.run()
    kinds = [e.kind for e in events(k) if e.kind in ("RAISE", "RESTART")]
    assert kinds == ["RAISE", "RESTART"]
    # counter reset by the restart: only the two post-fault messages pair up
    assert [p.get("n") for _t, p in k.out_streams["drain"]] == [4]


def test_resume_keeps_state():
    model = parse_ok(SUP)
    _, _, k = build(
        SUP, "Sys",
        strategies={"root/w": "resume"},
        injections=[(s, "feed", rec(model, "M", n=s), 0) for s in (1, 3)],
        faults=[(3, "root/w", "wedge", None, 0)],
    )
    k.run()
    assert [e.kind for e in events(k) if e.kind in
            ("RAISE", "RESTART", "ESCALATE", "FATAL")] == ["RAISE"]
    assert [p.get("n") for _t, p in k.out_streams["drain"]] == [3]


def test_escalation_walks_to_root_and_goes_fatal():
    model, _ = load_files([str(MODELS_DIR / "supervised.arc")])
    topo = elaborate(model, "Supervised")
    k = Kernel(topo, faults=[
        (1, "root/mid/sub/leaf", "overload", None, 0),
    ])
    with pytest.raises(FatalUnhandled) as exc:
        k.run()
    assert exc.value.path == "root/mid/sub/leaf" and exc.value.kind == "overload"
    tail = [(e.kind, e.subject) for e in events(k)]
    assert tail == [
        ("RAISE", "root/mid/sub/leaf#0"),
        ("ESCALATE", "root/mid/sub/leaf"),
        ("ESCALATE", "root/mid/sub"),
        ("ESCALATE", "root/mid"),
        ("ESCALATE", "root"),
        ("FATAL", "root"),
    ]


def test_escalation_stops_at_restarting_ancestor():
    model, _ = load_files([str(MODELS_DIR / "supervised.arc")])
    topo = elaborate(model, "Supervised")
    k = Kernel(topo,
               strategies={"root/mid": "restart"},
               faults=[(1, "root/mid/sub/leaf", "overload", None, 0)])
    k.run()
    # the deciding ancestor restarts the escalating child subtree
    got = [(e.kind, e.subject) for e in events(k)]
    assert got == [
        ("RAISE", "root/mid/sub/leaf#0"),
        ("ESCALATE", "root/mid/sub/leaf"),
        ("ESCALATE", "root/mid/sub"),
        ("RESTART", "root/mid/sub"),
    ]


def test_restart_preserves_queued_messages():
    # two messages land together; the first activation faults, and the
    # second, delivered in the same step, still runs after the restart
    text = (
        "message M { n: integer; }\n"
        "component W { port in M i; port out M o; behavior automaton("
        'initial="run", "run, i, n != 1 -> run, emit o"); }\n'
        "component Sys { port in M feed; port out M drain; component W w;"
        " connect feed -> w.i; connect w.o -> drain; }"
    )
    model = parse_ok(text)
    _, _, k = build(
        text, "Sys",
        strategies={"root/w": "restart"},
        injections=[
            (1, "feed", rec(model, "M", n=1), 0),
            (1, "feed", rec(model, "M", n=2), 0),
        ],
    )
    k.run()
    # both arrive at step 2; n=1 has no transition and raises, n=2 still runs
    assert [e.kind for e in events(k) if e.kind in ("RAISE", "RESTART")] == [
        "RAISE", "RESTART",
    ]
    drained = [p.get("n") for _t, p in k.out_streams["drain"]]
    assert drained == [2]


def test_faulted_activation_drops_tokens():
    text = (
        "message M { n: integer; }\n"
        "component W { port in M i; behavior fault_at(step=2); }\n"
        "component Sys { port in M feed; component W w;"
        " connect feed -> w.i; context sess { open feed -> w.i; } }"
    )
    model = parse_ok(text)
    _, _, k = build(
        text, "Sys",
        strategies={"root/w": "resume"},
        injections=[(1, "feed", rec(model, "M", n=1), 0)],
    )
    k.run()
    assert [e.kind for e in events(k) if e.kind == "RAISE"]
    assert k.groups["root/w"].replicas[0].held == set()
    assert not [e for e in events(k) if e.kind == "STRIP"]


class Broken:
    """A behavior whose handle() fails with an error that is not a Fault."""

    def __init__(self, inner):
        self.inner = inner

    def handle(self, state, port, payload, step, rng):
        raise ValueError("broken behavior")

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_an_error_that_is_not_a_fault_propagates_out_of_the_run():
    model = parse_ok(POOL_TEXT)
    # resume would absorb a fault: only an error that escapes the kernel
    # stops this run
    _, _, k = pool(strategies={"root/w": "resume"}, injections=jobs(model, "feed", [1]))
    group = k.groups["root/w"]
    group.behavior = Broken(group.behavior)
    with pytest.raises(ValueError, match="broken behavior"):
        k.run()
    assert [e.kind for e in events(k) if e.kind in ("DELIVER", "RAISE")] == ["DELIVER"]


# --- scaling lifecycle ---


def test_scale_events_and_fresh_rids():
    model = parse_ok(POOL_TEXT)
    _, _, k = pool(
        scales=[
            (0, "root/w", 3, 0),
            (4, "root/w", 1, 0),
            (8, "root/w", 2, 0),
        ],
        injections=jobs(model, "feed", [1, 1, 1]),
    )
    k.run()
    group = k.groups["root/w"]
    assert sorted(group.replicas) == [0, 3]  # rids 1 and 2 retired, 3 is fresh
    scale_events = [(e.step, e.payload) for e in events(k) if e.kind == "SCALE"]
    assert scale_events[0] == (0, "target=3,size=3")
    assert (8, "target=2,size=2") in scale_events
    # shrink happens via the retirement sweep once replicas drain
    assert (4, "target=1,size=1") in scale_events or any(
        p == "target=1,size=1" for _s, p in scale_events
    )


def test_retiring_replicas_not_selected_but_drain():
    model = parse_ok(POOL_TEXT)
    _, _, k = pool(
        scales=[
            (0, "root/w", 2, 0),
            (2, "root/w", 1, 0),
        ],
        injections=jobs(model, "feed", [1, 2, 3, 4]),
    )
    k.run()
    # after the shrink takes effect only rid 0 receives new messages
    late = [e.subject for e in deliveries(k, "root/w") if e.step > 3]
    assert late and all(s.startswith("root/w#0.") for s in late)
    assert len(k.out_streams["drain"]) == 4  # nothing lost in the shrink


def test_held_tokens_block_retirement():
    text = (
        "message M { n: integer; }\n"
        "component W { port in M i; behavior store(); }\n"
        "component Sys { port in M feed;"
        " replicating component W w; connect feed -> w.i;"
        " context sess { open feed -> w.i; } }"
    )
    model = parse_ok(text)
    _, _, k = build(
        text, "Sys",
        scales=[
            (0, "root/w", 2, 0),
            (4, "root/w", 1, 0),
        ],
        injections=[
            (1, "feed", rec(model, "M", n=0), 0),
            (2, "feed", rec(model, "M", n=1), 0),
        ],
    )
    k.run()
    group = k.groups["root/w"]
    assert group.size() == 2  # held token keeps rid 1 alive
    assert group.replicas[1].retiring


# --- caps and validation ---


def test_maxsteps_truncates_livelock():
    text = (
        "message M { n: integer; }\n"
        "component P { port in M i; port out M o; behavior forward(); }\n"
        "component Sys { port in M feed; component P a; component P b;"
        " connect feed -> a.i; connect a.o -> b.i; connect b.o -> a.i; }"
    )
    model = parse_ok(text)
    _, _, k = build(
        text, "Sys", maxsteps=25,
        injections=[(1, "feed", rec(model, "M", n=0), 0)],
    )
    k.run()
    assert k.truncated
    assert k.step > 25


@pytest.mark.parametrize(
    "kw",
    [
        {"injections": [(1, "nope", None, 0)]},
        {"scales": [(0, "root", 2, 0)]},
        {"scales": [(0, "root/w", 0, 0)]},
        {"faults": [(1, "root", "x", None, 0)]},
        {"strategies": {"root/nope": "restart"}},
        {"strategies": {"root/w": "panic"}},
    ],
)
def test_directive_validation(kw):
    model = parse_ok(POOL_TEXT)
    topo = elaborate(model, "Pool")
    if kw.get("injections"):
        kw["injections"] = [(1, "nope", rec(model, "Job", n=0), 0)]
    with pytest.raises(KernelError):
        Kernel(topo, **kw)


NEGATIVE = {
    "inject_step": ("injections", "step must not be negative"),
    "scale_step": ("scales", "step must not be negative"),
    "fault_step": ("faults", "step must not be negative"),
    "maxsteps": ("maxsteps", "maxsteps must not be negative"),
}


@pytest.mark.parametrize("case", sorted(NEGATIVE))
def test_negative_steps_and_budgets_are_rejected(case):
    model = parse_ok(POOL_TEXT)
    topo = elaborate(model, "Pool")
    arg, message = NEGATIVE[case]
    value = {
        "injections": [(-5, "feed", rec(model, "Job", n=0), 0)],
        "scales": [(-3, "root/w", 2, 0)],
        "faults": [(-2, "root/w", "boom", None, 0)],
        "maxsteps": -1,
    }[arg]
    with pytest.raises(KernelError) as exc:
        Kernel(topo, **{arg: value})
    assert str(exc.value) == message and exc.value.line == 0


def test_directive_errors_use_the_scenario_wording_and_line():
    model = parse_ok(POOL_TEXT)
    topo = elaborate(model, "Pool")
    cases = [
        ({"scales": [(0, "root/nope", 2, 7)]}, "unknown instance 'root/nope'"),
        ({"faults": [(1, "root/nope", "x", None, 8)]},
         "unknown instance 'root/nope'"),
        ({"injections": [(1, "drain", rec(model, "Job", n=0), 9)]},
         "the root component has no in port 'drain'"),
    ]
    for kw, message in cases:
        with pytest.raises(KernelError) as exc:
            Kernel(topo, **kw)
        line = next(iter(kw.values()))[0][-1]
        assert (str(exc.value), exc.value.line) == (message, line)


SELECTION_PORTS = {
    # a broadcast port that feeds two replica groups
    "broadcast_into_two_channels": (
        "message M { n: integer; }\n"
        "component W { port in M i; behavior store(); }\n"
        "component H { port in M i; port out M o replicating;"
        " behavior forward(out=o, broadcast=true); }\n"
        "component Sys { port in M feed; component H h;"
        " replicating component W w; replicating component W v;"
        " connect feed -> h.i; connect h.o -> w.i; connect h.o -> v.i; }",
        "'root/h' selects replicas with forward, so its out port 'o' must feed"
        " exactly one replica group",
    ),
    # a route_by port into an instance that does not replicate
    "route_by_into_a_sole_instance": (
        "message M { v: integer; }\n"
        "component W { port in M i; behavior store(); }\n"
        "component R { port in M i; port out M o; behavior route_by(field=v); }\n"
        "component Sys { port in M feed; component R r; component W w;"
        " connect feed -> r.i; connect r.o -> w.i; }",
        "'root/r' selects replicas with route_by, so its out port 'o' must feed"
        " exactly one replica group",
    ),
}


@pytest.mark.parametrize("case", sorted(SELECTION_PORTS))
def test_a_selection_port_is_checked_when_the_kernel_is_built(case):
    # check() passes these models; the rule needs the elaborated topology,
    # and a kernel built on it refuses it before any message is sent
    text, message = SELECTION_PORTS[case]
    model = parse_ok(text)
    assert not check(model, "Sys")
    with pytest.raises(KernelError) as exc:
        Kernel(elaborate(model, "Sys"))
    assert (str(exc.value), exc.value.line) == (message, 0)


def test_injection_payload_type_checked():
    model = parse_ok(POOL_TEXT + "message Other { s: text; }\n")
    topo = elaborate(model, "Pool")
    with pytest.raises(KernelError):
        Kernel(topo, injections=[
            (1, "feed", rec(model, "Other", s="x"), 0),
        ])


def generated(directives):
    return (d for d in directives)


def test_directive_generators_run_as_their_lists_do():
    # each argument is read once, so the checks do not use a generator up
    model = parse_ok(POOL_TEXT)
    directives = {
        "scales": [(0, "root/w", 2, 0), (3, "root/w", 1, 0)],
        "faults": [(2, "root/w", "boom", None, 0)],
        "injections": jobs(model, "feed", [1, 1, 2]),
    }
    runs = []
    for read in (list, generated):
        _, _, k = pool(
            strategies={"root/w": "resume"},
            **{kind: read(batch) for kind, batch in directives.items()},
        )
        k.run()
        runs.append((k.events, len(k.out_streams["drain"])))
    assert runs[0] == runs[1]
    assert {"SCALE", "RAISE"} <= {e[1] for e in runs[0][0]} and runs[0][1] == 3
    # and the checks still name the first problem as declared
    topo = elaborate(model, "Pool")
    with pytest.raises(KernelError) as exc:
        Kernel(topo, scales=generated([(0, "root/a", 2, 4), (0, "root/b", 2, 5)]))
    assert (str(exc.value), exc.value.line) == ("unknown instance 'root/a'", 4)


# --- agenda: step-indexed directives and arrivals ---


def test_inject_past_maxsteps_truncates_at_the_budget():
    model = parse_ok(POOL_TEXT)
    _, _, k = pool(maxsteps=10, injections=jobs(model, "feed", [3, 20]))
    k.run()
    assert k.truncated
    assert k.step == 11
    assert k.events and max(e.step for e in events(k)) <= 10
    assert len(k.out_streams["drain"]) == 1  # the step-20 inject never ran


def test_lone_late_inject_matches_an_early_one_shifted():
    model = parse_ok(POOL_TEXT)
    runs = []
    for step in (1, 50_000):
        _, _, k = pool(maxsteps=100_000, injections=jobs(model, "feed", [step]))
        k.run()
        assert not k.truncated
        runs.append(k)
    early, late = runs
    shift = 50_000 - 1
    assert late.step == early.step + shift
    assert [e._replace(step=e.step + shift) for e in events(early)] == events(late)


def test_directives_given_out_of_step_order_run_by_step_then_declaration():
    model = parse_ok(POOL_TEXT)
    _, _, k = pool(
        scales=[(4, "root/w", 3, 0), (0, "root/w", 2, 0), (4, "root/w", 1, 0)],
        injections=jobs(model, "feed", [5, 1, 5, 1]),
    )
    k.run()
    assert [p.get("n") for _step, p in k.out_streams["drain"]] == [1, 3, 0, 2]
    scales = [(e.step, e.payload) for e in events(k) if e.kind == "SCALE"]
    assert scales == [
        (0, "target=2,size=2"),
        (4, "target=3,size=3"),
        (4, "target=1,size=3"),
        (4, "target=1,size=1"),  # the sweep removes #1 and #2
    ]


def test_same_step_directives_run_scales_then_faults_then_injects(tmp_path):
    (tmp_path / "m.arc").write_text(POOL_TEXT)
    scn, diags = load_scenario_text(
        "scenario mixed\nmodel m.arc\nroot Pool\nstrategy root/w resume\n"
        "inject feed at 2 Job{n=1}\n"
        "fault root/w at 2 first\n"
        "scale root/w 3 at 2\n"
        "inject feed at 2 Job{n=2}\n"
        "fault root/w at 2 second\n"
        "scale root/w 2 at 2\n",
        "<scn>",
        str(tmp_path),
    )
    assert scn is not None, diags
    k = build_kernel(scn)
    k.run()
    at_two = [(e.kind, e.subject, e.payload) for e in events(k) if e.step == 2]
    assert at_two == [
        ("SCALE", "root/w", "target=3,size=3"),
        ("SCALE", "root/w", "target=2,size=3"),
        # a fault with no replica id, after the scale-down, goes to the
        # lowest live replica
        ("RAISE", "root/w#0", "first"),
        ("RAISE", "root/w#0", "second"),
        ("SEND", "root.feed->root/w.i", "Job{n=1}"),
        ("SEND", "root.feed->root/w.i", "Job{n=2}"),
        ("SCALE", "root/w", "target=2,size=2"),  # the retirement sweep ends the step
    ]


def test_groups_retiring_on_one_step_shrink_in_declaration_order():
    text = (
        "message M { n: integer; }\n"
        "component H { port in M i; port out M o replicating;"
        " behavior forward(out=o, broadcast=true); }\n"
        "component W { port in M i; behavior store(); }\n"
        "component Sys { port in M feed; component H ha; component H hb;"
        " replicating component W a; replicating component W b;"
        " connect feed -> ha.i; connect feed -> hb.i;"
        " connect ha.o -> a.i; connect hb.o -> b.i; }"
    )
    model = parse_ok(text)
    _, _, k = build(
        text, "Sys",
        overrides=[("root/h?.o->*", 5)],
        scales=[
            (0, "root/b", 2, 0),
            (0, "root/a", 2, 0),
            # declared b first; pinned broadcast copies keep both #1 busy
            (3, "root/b", 1, 0),
            (3, "root/a", 1, 0),
        ],
        injections=[(1, "feed", rec(model, "M", n=0), 0)],
    )
    k.run()
    shrinks = [
        (e.step, e.subject) for e in events(k)
        if e.kind == "SCALE" and e.payload == "target=1,size=1"
    ]
    assert shrinks == [(7, "root/a"), (7, "root/b")]


def test_live_list_follows_scaling_and_the_sweep():
    _, _, k = pool()
    group = k.groups["root/w"]

    def live():
        return [r.rid for r in group.live()]

    assert live() == [0]
    k._scale("root/w", 3)
    assert live() == [0, 1, 2]
    k._scale("root/w", 1)
    assert live() == [0]  # 1 and 2 are retiring but still present
    assert sorted(group.replicas) == [0, 1, 2]
    k._sweep()
    assert sorted(group.replicas) == [0]
    assert live() == [0]
    k._scale("root/w", 2)
    assert live() == [0, 3]


def test_round_robin_follows_scale_up_shrink_and_regrowth():
    model = parse_ok(POOL_TEXT)
    _, _, k = pool(
        scales=[
            (0, "root/w", 3, 0),
            (3, "root/w", 1, 0),
            (5, "root/w", 2, 0),
        ],
        injections=jobs(model, "feed", [1, 1, 1, 3, 3, 5, 5]),
    )
    k.run()
    picks = [(e.step, e.subject) for e in deliveries(k, "root/w")]
    assert picks == [
        (2, "root/w#0.i"), (2, "root/w#1.i"), (2, "root/w#2.i"),
        (4, "root/w#0.i"), (4, "root/w#0.i"),
        # the cursor stands at 5, so the regrown pair [0, 3] starts at #3
        (6, "root/w#3.i"), (6, "root/w#0.i"),
    ]
    scales = [(e.step, e.payload) for e in events(k) if e.kind == "SCALE"]
    assert scales == [
        (0, "target=3,size=3"),
        (3, "target=1,size=3"),
        (3, "target=1,size=1"),  # the sweep removes #1 and #2
        (5, "target=2,size=2"),
    ]
    group = k.groups["root/w"]
    assert [r.rid for r in group.live()] == [0, 3]


# --- instances of one type ---


TWO_COLLECTORS = (
    "message M { n: integer; }\n"
    "component W { port in M i; port out M o; behavior collect(n=2); }\n"
    "component Sys { port in M fa; port in M fb; port out M da; port out M db;"
    " component W a; component W b;"
    " connect fa -> a.i; connect fb -> b.i; connect a.o -> da; connect b.o -> db; }"
)


def test_instances_of_one_type_share_the_behavior_not_the_state():
    model = parse_ok(TWO_COLLECTORS)
    feed = [(s, "fa", rec(model, "M", n=s), 0) for s in (1, 2, 3)]
    feed.append((1, "fb", rec(model, "M", n=10), 0))
    _, _, k = build(TWO_COLLECTORS, "Sys", injections=feed)
    assert k.groups["root/a"].behavior is k.groups["root/b"].behavior
    k.run()
    assert [p.get("n") for _t, p in k.out_streams["da"]] == [2]
    assert k.out_streams["db"] == []
    assert k.groups["root/a"].replicas[0].state == 3
    assert k.groups["root/b"].replicas[0].state == 1

    # restarting root/a resets its count only: b's next message pairs up
    later = [(5, "fa", rec(model, "M", n=5), 0), (5, "fb", rec(model, "M", n=11), 0)]
    _, _, k = build(
        TWO_COLLECTORS, "Sys",
        injections=feed + later,
        faults=[(5, "root/a", "wedge", None, 0)],
        strategies={"root/a": "restart"},
    )
    k.run()
    assert [e.subject for e in events(k) if e.kind == "RESTART"] == ["root/a"]
    assert [p.get("n") for _t, p in k.out_streams["da"]] == [2]
    assert [p.get("n") for _t, p in k.out_streams["db"]] == [11]
    assert k.groups["root/a"].replicas[0].state == 1
    assert k.groups["root/b"].replicas[0].state == 2


# --- store rows ---


TWO_STORES = (
    "message M { n: integer; }\n"
    "component W { port in M i; behavior store(); }\n"
    "component Sys { port in M feed; port in M side;"
    " replicating component W w; replicating component W v;"
    " connect feed -> w.i; connect side -> v.i; }"
)


def store_payloads(kernel, path):
    return {
        rid: [p.get("n") for _step, p in replica.state]
        for rid, replica in kernel.groups[path].replicas.items()
    }


def test_store_rows_stay_with_their_replica_across_a_restart():
    model = parse_ok(TWO_STORES)
    feed = [(1, "feed", rec(model, "M", n=i), 0) for i in range(4)]
    side = [(1, "side", rec(model, "M", n=10 + i), 0) for i in range(2)]
    scales = [(0, "root/w", 2, 0), (0, "root/v", 2, 0)]
    _, _, k = build(TWO_STORES, "Sys", scales=scales, injections=feed + side)
    k.run()
    assert store_payloads(k, "root/w") == {0: [0, 2], 1: [1, 3]}
    assert store_payloads(k, "root/v") == {0: [10], 1: [11]}

    # restarting root/w empties both of its replicas; root/v keeps its rows
    _, _, k = build(
        TWO_STORES, "Sys",
        scales=scales,
        injections=feed + side + [(4, "feed", rec(model, "M", n=4), 0)],
        faults=[(3, "root/w", "wedge", 1, 0)],
        strategies={"root/w": "restart"},
    )
    k.run()
    assert [e.subject for e in events(k) if e.kind == "RESTART"] == ["root/w"]
    assert store_payloads(k, "root/w") == {0: [4], 1: []}
    assert store_payloads(k, "root/v") == {0: [10], 1: [11]}
    rows = [r.state for g in k.groups.values() for r in g.replicas.values()]
    assert len({id(r) for r in rows}) == len(rows)


# --- what a replica allocates ---


def test_deliveries_to_one_port_share_one_subject_object():
    model = parse_ok(POOL_TEXT)
    _, _, k = build(
        POOL_TEXT, "Pool",
        scales=[(0, "root/w", 2, 0)],
        injections=jobs(model, "feed", [1, 1, 2, 2, 3, 3]),
    )
    k.run()
    by_subject: dict[str, set[int]] = {}
    for ev in deliveries(k):
        by_subject.setdefault(ev.subject, set()).add(id(ev.subject))
    assert sorted(by_subject) == ["root.drain", "root/w#0.i", "root/w#1.i"]
    assert all(len(ids) == 1 for ids in by_subject.values())
    assert len(deliveries(k, "root.drain")) == 6


def counting_random(monkeypatch) -> list[str]:
    """Record the seed of every Random the kernel constructs."""
    seeds: list[str] = []

    def make(seed):
        seeds.append(seed)
        return Random(seed)

    monkeypatch.setattr("cloudadl.kernel.Random", make)
    return seeds


def test_behaviors_that_never_draw_get_no_generator(monkeypatch):
    chain = "".join(
        f" component Hop h{i}; connect {'feed' if i == 0 else f'h{i - 1}.o'} -> h{i}.i;"
        for i in range(50)
    )
    text = (
        "message M { n: integer; }\n"
        "component Hop { port in M i; port out M o; behavior forward(out=o); }\n"
        f"component Sys {{ port in M feed; port out M drain;{chain}"
        " connect h49.o -> drain; }\n"
    )
    seeds = counting_random(monkeypatch)
    model = parse_ok(text)
    _, _, k = build(text, "Sys", injections=jobs(model, "feed", [1, 2], "M"))
    k.run()
    assert len(k.groups) == 50
    assert seeds == []
    assert all(r.rng is None for g in k.groups.values() for r in g.replicas.values())
    assert len(deliveries(k, "root.drain")) == 2


SAMPLED_POOL = """
message M { n: integer; }
component S { port in M i; port out M o; behavior sample(percent=50); }
component Sys {
  port in M feed;
  port out M drain;
  replicating component S s;
  connect feed -> s.i;
  connect s.o -> drain;
}
"""


def test_sampling_replicas_each_get_their_own_generator(monkeypatch):
    seeds = counting_random(monkeypatch)
    model = parse_ok(SAMPLED_POOL)
    _, _, k = build(
        SAMPLED_POOL, "Sys", seed=5,
        scales=[(2, "root/s", 3, 0)],
        injections=jobs(model, "feed", range(1, 9), "M"),
    )
    assert seeds == ["5:root/s#0"]
    k.run()
    assert seeds == ["5:root/s#0", "5:root/s#1", "5:root/s#2"]
    rngs = [r.rng for r in k.groups["root/s"].replicas.values()]
    assert len({id(rng) for rng in rngs}) == 3 and None not in rngs


class SeenContext:
    """Records (group path, step, rng) of every handle() call."""

    def __init__(self, inner, path: str, seen: list):
        self.inner, self.path, self.seen = inner, path, seen

    def handle(self, state, port, payload, step, rng):
        self.seen.append((self.path, step, rng))
        return self.inner.handle(state, port, payload, step, rng)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_one_shared_context_carries_nothing_between_activations():
    # all feed channels sort before root/a.o->root/z.i, and root/a's before
    # root/m's and root/z's: in every step the drawing replica goes first
    text = (
        "message M { n: integer; }\n"
        "component S { port in M i; port out M o; behavior sample(percent=50); }\n"
        "component F { port in M i; port out M o; behavior forward(out=o); }\n"
        "component K { port in M i; behavior store(); }\n"
        "component Sys { port in M feed; port out M drain;"
        " component S a; component F m; component K z;"
        " connect feed -> a.i; connect feed -> m.i; connect feed -> z.i;"
        " connect a.o -> z.i; connect m.o -> drain; }\n"
    )
    model = parse_ok(text)
    _, _, k = build(
        text, "Sys", seed=3, overrides=[("root.feed->root/z.i", 2)],
        injections=jobs(model, "feed", [1, 1, 2, 3, 3, 3, 5], "M"),
    )
    seen: list = []
    for path, group in k.groups.items():
        group.behavior = SeenContext(group.behavior, path, seen)
    k.run()
    rng = k.groups["root/a"].replicas[0].rng
    assert rng is not None
    assert all(r is rng for path, _, r in seen if path == "root/a")
    assert all(r is None for path, _, r in seen if path != "root/a")
    # a drawing activation is followed by others in the same step
    assert any(
        first[0] == "root/a" and second[0] != "root/a" and first[1] == second[1]
        for first, second in zip(seen, seen[1:])
    )
    # each activation sees the step of its DELIVER
    delivered = [
        (e.subject.split("#")[0], e.step) for e in deliveries(k, "root/")
    ]
    assert [(path, step) for path, step, _ in seen] == delivered
    rows = k.groups["root/z"].replicas[0].state
    assert len(rows) > 7
    assert [step for step, _ in rows] == [e.step for e in deliveries(k, "root/z#0.i")]


# --- restarts visit only their subtree ---


def restart_model(width: int) -> str:
    """`width` unrelated store groups around a supervised composite `mid`."""
    unrelated = "".join(
        f" component Keep u{i}; connect feed -> u{i}.i;" for i in range(width)
    )
    return (
        "message M { n: integer; }\n"
        "component Keep { port in M i; behavior store(); }\n"
        "component Pair { port in M i; port out M o; behavior collect(n=2, out=o); }\n"
        "component Mid { port in M i; port out M o; component Pair p;"
        " replicating component Keep k; connect i -> p.i; connect i -> k.i;"
        " connect p.o -> o; }\n"
        "component Sys { port in M feed; port out M drain;"
        f"{unrelated} component Mid mid; component Keep last;"
        " connect feed -> mid.i; connect mid.o -> drain; connect feed -> last.i; }\n"
    )


class CountingBehavior:
    """Records the group path of every initial_state() call."""

    def __init__(self, inner, path: str, calls: list[str]):
        self.inner, self.path, self.calls = inner, path, calls

    def initial_state(self):
        self.calls.append(self.path)
        return self.inner.initial_state()

    def __getattr__(self, name):
        return getattr(self.inner, name)


def restart_run(width: int, strategies: dict[str, str]):
    text = restart_model(width)
    model = parse_ok(text)
    _, _, k = build(
        text, "Sys",
        strategies=strategies,
        scales=[(0, "root/mid/k", 2, 0)],
        injections=jobs(model, "feed", range(1, 11), "M"),
        faults=[(s, "root/mid/p", "boom", None, 0) for s in (3, 4, 8)],
    )
    calls: list[str] = []
    for path, group in k.groups.items():
        group.behavior = CountingBehavior(group.behavior, path, calls)
    k.run()
    return k, calls


def test_a_leaf_restart_resets_only_the_leaf():
    k, calls = restart_run(300, {"root/mid/p": "restart"})
    assert [e.subject for e in events(k) if e.kind == "RESTART"] == ["root/mid/p"] * 3
    # the first call starts root/mid/k#1 at the step 0 scale
    assert calls == ["root/mid/k"] + ["root/mid/p"] * 3


def test_a_restart_decided_by_the_root_resets_the_escalating_subtree():
    k, calls = restart_run(300, {"root": "restart"})
    assert [e.subject for e in events(k) if e.kind == "RESTART"] == ["root/mid"] * 3
    # after the scale: p, then both replicas of k, in group order, per restart
    assert calls == ["root/mid/k"] + ["root/mid/p", "root/mid/k", "root/mid/k"] * 3


def restart_digest(k) -> str:
    stores = {
        path: [(rid, r.state) for rid, r in sorted(g.replicas.items())]
        for path, g in k.groups.items()
    }
    text = trace_text(k.events) + repr(stores)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "strategies, digest",
    [
        ({"root/mid/p": "restart"}, "8dd4ffea30f0c8cfa3ff82eaf19eb41492b2f161f900613b2710c90860564459"),
        ({"root": "restart"}, "7b93db58f8df6ca234837b794375801852e8d3e4f3581a166bdf31e2adbbc2ce"),
    ],
)
def test_restart_traces_are_pinned(strategies, digest):
    k, _ = restart_run(20, strategies)
    assert restart_digest(k) == digest


# --- the event history ---


def test_events_are_plain_tuples_the_collector_stops_tracking(tmp_path):
    sessions = workloads.sessions(str(tmp_path), 7, 40)
    for path in (SCENARIOS_DIR / "request_chain.scn", sessions.scenario):
        scenario, diags = load_scenario(str(path))
        assert not diags, [d.render() for d in diags]
        history = run_scenario(scenario).kernel.events
        assert history
        assert all(type(e) is tuple and len(e) == 7 for e in history)
        # A pass untracks a tuple only if its items are untracked by then,
        # and it may reach the tuple before its items; an event holds a
        # token tuple of (context, serial) tuples, so three passes suffice.
        for _ in range(3):
            gc.collect()
        assert not [e for e in history if gc.is_tracked(e)], path
    assert any(e[4] for e in history)  # the sessions run carries tokens
