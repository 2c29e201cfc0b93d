"""Kernel semantics: ordering, replication, tokens, supervision, scaling."""

from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest

from cloudadl.analyzer import apply_latency_overrides, check, elaborate
from cloudadl.kernel import (
    FatalUnhandled,
    FaultDirective,
    Injection,
    Kernel,
    KernelError,
    ScaleDirective,
)
from cloudadl.model import make_record
from cloudadl.parser import load_files, parse_model
from cloudadl.scenario import build_kernel, load_scenario_text
from cloudadl.trace import render_trace

from helpers import MODELS_DIR, parse_ok
from modelgen import POOL_TEXT, pipeline_text


def build(text: str, root: str, *, overrides=(), **kw):
    model = parse_ok(text)
    diags = check(model, root)
    assert not diags, [d.render() for d in diags]
    topo = elaborate(model, root)
    if overrides:
        apply_latency_overrides(topo, list(overrides))
    return model, topo, Kernel(model, topo, **kw)


def rec(model, tname, **vals):
    return make_record(model.message_types[tname], vals)


def jobs(model, port, steps, tname="Job", field="n"):
    return [
        Injection(step, port, rec(model, tname, **{field: i}))
        for i, step in enumerate(steps)
    ]


def deliveries(kernel, subject_prefix=""):
    return [e for e in kernel.events if e.kind == "DELIVER"
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
        Injection(rng.randint(1, 5), "feed", rec(model, "Item", n=i))
        for i in range(30)
    ]
    k = Kernel(model, topo, injections=inj)
    k.run()
    assert not k.truncated
    for ch in topo.channels:
        sends = [e for e in k.events if e.kind == "SEND" and e.channel == ch.id]
        delis = [e for e in k.events if e.kind == "DELIVER" and e.channel == ch.id]
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
        injections=[Injection(1, "x", make_record(
            parse_ok(text).message_types["M"], {"n": 0}))],
    )
    k.run()
    got = [e.subject for e in deliveries(k)]
    assert got == ["root/b1#0.i", "root/b2#0.i"]


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
    k = Kernel(model, topo, injections=[
        Injection(1, "x", rec(model, "M", n=0)),
    ])
    k.run()
    got = [(e.step, e.subject) for e in deliveries(k)]
    assert got == [(2, "root/b2#0.i"), (4, "root/b1#0.i")]


def test_identical_runs_identical_traces():
    for seed in (0, 7):
        text, root, _ = pipeline_text(Random(3))
        model = parse_ok(text)
        runs = []
        for _ in range(2):
            topo = elaborate(model, root)
            k = Kernel(model, topo, seed=seed, injections=[
                Injection(s, "feed", rec(model, "Item", n=s)) for s in (1, 1, 2, 5)
            ])
            k.run()
            runs.append(render_trace(k.events))
        assert runs[0] == runs[1]


# --- replica selection ---


def pool(**kw):
    model = parse_ok(POOL_TEXT)
    topo = elaborate(model, "Pool")
    return model, topo, Kernel(model, topo, **kw)


def test_round_robin_over_live_replicas():
    model = parse_ok(POOL_TEXT)
    _, _, k = pool(
        scales=[ScaleDirective(0, "root/w", 3)],
        injections=jobs(model, "feed", [1] * 6),
    )
    k.run()
    rids = [e.subject for e in deliveries(k, "root/w")]
    assert rids == [f"root/w#{i}.i" for i in (0, 1, 2, 0, 1, 2)]
    assert len(k.out_streams["drain"]) == 6
    # untokened messages bind nothing and leave nothing held
    assert not [e for e in k.events if e.kind == "BIND"]
    assert all(e.tokens == () for e in k.events)
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
        scales=[ScaleDirective(0, "root/w", 3)],
        injections=[Injection(1, "feed", rec(parse_ok(text), "M", n=5))],
    )
    k.run()
    ch = "root/h.o->root/w.i"
    sends = [e for e in k.events if e.kind == "SEND" and e.channel == ch]
    assert [e.seq for e in sends] == [1, 2, 3]
    got = sorted(e.subject for e in deliveries(k) if e.channel == ch)
    assert got == ["root/w#0.i", "root/w#1.i", "root/w#2.i"]
    assert len(k.out_streams["drain"]) == 3
    assert not [e for e in k.events if e.kind == "BIND"]


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
        scales=[ScaleDirective(0, "root/w", 3)],
        injections=[
            Injection(1, "feed", rec(model, "M", v=4)),
            Injection(2, "feed", rec(model, "M", v=6)),
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
    k = Kernel(model, topo,
               scales=[ScaleDirective(0, "root/a", 2)],
               injections=[
                   Injection(s, "task", rec(model, "Req", body=f"r{s}"))
                   for s in (1, 2, 3, 4)
               ])
    k.run()
    mints = [e for e in k.events if e.kind == "MINT"]
    assert [e.tokens for e in mints] == [
        (("chain", 0),), (("chain", 1),), (("chain", 2),), (("chain", 3),),
    ]
    binds = [e for e in k.events if e.kind == "BIND"]
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
    hops = [e for e in k.events if e.kind == "SEND" and e.channel in gateless]
    assert len(hops) == 12
    assert all(len(e.tokens) == 1 and e.tokens[0] in bound_to for e in hops)
    backs = [e for e in deliveries(k) if e.channel == "root/c.back->root/a.back"]
    assert len(backs) == 4
    assert all(e.subject == bound_to[e.tokens[0]] + ".back" for e in backs)
    strips = [e for e in k.events if e.kind == "STRIP"]
    assert [e.tokens for e in strips] == [e.tokens for e in mints]
    assert len(k.out_streams["done"]) == 4
    # fresh tokens alternate replicas via round robin
    first_rids = [bound_to[("chain", i)].split(".")[0] for i in range(4)]
    assert first_rids == ["root/a#0", "root/a#1", "root/a#0", "root/a#1"]


def test_token_rides_interior_hops():
    model, _ = load_files([str(MODELS_DIR / "request_chain.arc")])
    topo = elaborate(model, "RequestChain")
    k = Kernel(model, topo, injections=[
        Injection(1, "task", rec(model, "Req", body="x")),
    ])
    k.run()
    interior = [e for e in k.events
                if e.kind == "SEND" and "root/b" in e.channel]
    assert interior and all(e.tokens == (("chain", 0),) for e in interior)


def test_absorbed_tokens_are_held():
    text = (
        "message M { n: integer; }\n"
        "component W { port in M i; behavior store(); }\n"
        "component Sys { port in M feed;"
        " replicating component W w; connect feed -> w.i;"
        " context sess { open feed -> w.i; } }"
    )
    model, topo, k = build(text, "Sys", injections=[
        Injection(1, "feed", rec(parse_ok(text), "M", n=0)),
    ])
    k.run()
    replica = k.groups["root/w"].replicas[0]
    assert replica.held == {("sess", 0)}
    assert not [e for e in k.events if e.kind == "STRIP"]


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
        Injection(1, "f1", rec(model, "M", n=0)),
        Injection(1, "f2", rec(model, "M", n=1)),
        Injection(2, "f1", rec(model, "M", n=2)),
    ])
    k.run()
    mints = [e.tokens for e in k.events if e.kind == "MINT"]
    assert mints == [(("c1", 0),), (("c2", 0),), (("c1", 1),)]


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
        injections=[Injection(s, "feed", rec(model, "M", n=s)) for s in (1, 3, 4)],
        faults=[FaultDirective(3, "root/w", "wedge")],
    )
    k.run()
    kinds = [e.kind for e in k.events if e.kind in ("RAISE", "RESTART")]
    assert kinds == ["RAISE", "RESTART"]
    # counter reset by the restart: only the two post-fault messages pair up
    assert [p.get("n") for _t, p in k.out_streams["drain"]] == [4]


def test_resume_keeps_state():
    model = parse_ok(SUP)
    _, _, k = build(
        SUP, "Sys",
        strategies={"root/w": "resume"},
        injections=[Injection(s, "feed", rec(model, "M", n=s)) for s in (1, 3)],
        faults=[FaultDirective(3, "root/w", "wedge")],
    )
    k.run()
    assert [e.kind for e in k.events if e.kind in
            ("RAISE", "RESTART", "ESCALATE", "FATAL")] == ["RAISE"]
    assert [p.get("n") for _t, p in k.out_streams["drain"]] == [3]


def test_escalation_walks_to_root_and_goes_fatal():
    model, _ = load_files([str(MODELS_DIR / "supervised.arc")])
    topo = elaborate(model, "Supervised")
    k = Kernel(model, topo, faults=[
        FaultDirective(1, "root/mid/sub/leaf", "overload"),
    ])
    with pytest.raises(FatalUnhandled) as exc:
        k.run()
    assert exc.value.path == "root/mid/sub/leaf" and exc.value.kind == "overload"
    tail = [(e.kind, e.subject) for e in k.events]
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
    k = Kernel(model, topo,
               strategies={"root/mid": "restart"},
               faults=[FaultDirective(1, "root/mid/sub/leaf", "overload")])
    k.run()
    # the deciding ancestor restarts the escalating child subtree
    got = [(e.kind, e.subject) for e in k.events]
    assert got == [
        ("RAISE", "root/mid/sub/leaf#0"),
        ("ESCALATE", "root/mid/sub/leaf"),
        ("ESCALATE", "root/mid/sub"),
        ("RESTART", "root/mid/sub"),
    ]


def test_restart_preserves_queued_messages():
    # two messages land together; the first activation faults, the second
    # message stays queued across the restart and is still processed
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
            Injection(1, "feed", rec(model, "M", n=1)),
            Injection(1, "feed", rec(model, "M", n=2)),
        ],
    )
    k.run()
    # both arrive at step 2; n=1 has no transition and raises, n=2 still runs
    assert [e.kind for e in k.events if e.kind in ("RAISE", "RESTART")] == [
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
        injections=[Injection(1, "feed", rec(model, "M", n=1))],
    )
    k.run()
    assert [e.kind for e in k.events if e.kind == "RAISE"]
    assert k.groups["root/w"].replicas[0].held == set()
    assert not [e for e in k.events if e.kind == "STRIP"]


# --- scaling lifecycle ---


def test_scale_events_and_fresh_rids():
    model = parse_ok(POOL_TEXT)
    _, _, k = pool(
        scales=[
            ScaleDirective(0, "root/w", 3),
            ScaleDirective(4, "root/w", 1),
            ScaleDirective(8, "root/w", 2),
        ],
        injections=jobs(model, "feed", [1, 1, 1]),
    )
    k.run()
    group = k.groups["root/w"]
    assert sorted(group.replicas) == [0, 3]  # rids 1 and 2 retired, 3 is fresh
    scale_events = [(e.step, e.payload) for e in k.events if e.kind == "SCALE"]
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
            ScaleDirective(0, "root/w", 2),
            ScaleDirective(2, "root/w", 1),
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
            ScaleDirective(0, "root/w", 2),
            ScaleDirective(4, "root/w", 1),
        ],
        injections=[
            Injection(1, "feed", rec(model, "M", n=0)),
            Injection(2, "feed", rec(model, "M", n=1)),
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
        injections=[Injection(1, "feed", rec(model, "M", n=0))],
    )
    k.run()
    assert k.truncated
    assert k.step > 25


@pytest.mark.parametrize(
    "kw",
    [
        {"injections": [Injection(1, "nope", None)]},
        {"scales": [ScaleDirective(0, "root", 2)]},
        {"scales": [ScaleDirective(0, "root/w", 0)]},
        {"faults": [FaultDirective(1, "root", "x")]},
        {"strategies": {"root/nope": "restart"}},
        {"strategies": {"root/w": "panic"}},
    ],
)
def test_directive_validation(kw):
    model = parse_ok(POOL_TEXT)
    topo = elaborate(model, "Pool")
    if kw.get("injections"):
        kw["injections"] = [Injection(1, "nope", rec(model, "Job", n=0))]
    with pytest.raises(KernelError):
        Kernel(model, topo, **kw)


def test_injection_payload_type_checked():
    model = parse_ok(POOL_TEXT + "message Other { s: text; }\n")
    topo = elaborate(model, "Pool")
    with pytest.raises(KernelError):
        Kernel(model, topo, injections=[
            Injection(1, "feed", rec(model, "Other", s="x")),
        ])


# --- agenda: step-indexed directives and arrivals ---


def test_inject_past_maxsteps_truncates_at_the_budget():
    model = parse_ok(POOL_TEXT)
    _, _, k = pool(maxsteps=10, injections=jobs(model, "feed", [3, 20]))
    k.run()
    assert k.truncated
    assert k.step == 11
    assert k.events and max(e.step for e in k.events) <= 10
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
    assert [replace(e, step=e.step + shift) for e in early.events] == late.events


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
    at_two = [(e.kind, e.payload) for e in k.events if e.step == 2]
    assert at_two == [
        ("SCALE", "target=3,size=3"),
        ("SCALE", "target=2,size=3"),
        ("RAISE", "first"),
        ("RAISE", "second"),
        ("SEND", "Job{n=1}"),
        ("SEND", "Job{n=2}"),
        ("SCALE", "target=2,size=2"),  # the retirement sweep ends the step
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
            ScaleDirective(0, "root/b", 2),
            ScaleDirective(0, "root/a", 2),
            # declared b first; pinned broadcast copies keep both #1 busy
            ScaleDirective(3, "root/b", 1),
            ScaleDirective(3, "root/a", 1),
        ],
        injections=[Injection(1, "feed", rec(model, "M", n=0))],
    )
    k.run()
    shrinks = [
        (e.step, e.subject) for e in k.events
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
            ScaleDirective(0, "root/w", 3),
            ScaleDirective(3, "root/w", 1),
            ScaleDirective(5, "root/w", 2),
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
    scales = [(e.step, e.payload) for e in k.events if e.kind == "SCALE"]
    assert scales == [
        (0, "target=3,size=3"),
        (3, "target=1,size=3"),
        (3, "target=1,size=1"),  # the sweep removes #1 and #2
        (5, "target=2,size=2"),
    ]
    group = k.groups["root/w"]
    assert [r.rid for r in group.live()] == [0, 3]


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
    feed = [Injection(1, "feed", rec(model, "M", n=i)) for i in range(4)]
    side = [Injection(1, "side", rec(model, "M", n=10 + i)) for i in range(2)]
    scales = [ScaleDirective(0, "root/w", 2), ScaleDirective(0, "root/v", 2)]
    _, _, k = build(TWO_STORES, "Sys", scales=scales, injections=feed + side)
    k.run()
    assert store_payloads(k, "root/w") == {0: [0, 2], 1: [1, 3]}
    assert store_payloads(k, "root/v") == {0: [10], 1: [11]}

    # restarting root/w empties both of its replicas; root/v keeps its rows
    _, _, k = build(
        TWO_STORES, "Sys",
        scales=scales,
        injections=feed + side + [Injection(4, "feed", rec(model, "M", n=4))],
        faults=[FaultDirective(3, "root/w", "wedge", rid=1)],
        strategies={"root/w": "restart"},
    )
    k.run()
    assert [e.subject for e in k.events if e.kind == "RESTART"] == ["root/w"]
    assert store_payloads(k, "root/w") == {0: [4], 1: []}
    assert store_payloads(k, "root/v") == {0: [10], 1: [11]}
    rows = [r.state for g in k.groups.values() for r in g.replicas.values()]
    assert len({id(r) for r in rows}) == len(rows)
