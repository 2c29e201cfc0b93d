"""Acceptance suite: ten end-to-end criteria, one test and one verdict line each.

Run with -v to get the per-criterion pass/fail lines. Tolerances are exact
unless a test says otherwise; random cases are seeded and reproducible.
"""

from __future__ import annotations

import hashlib
from random import Random

import pytest

from cloudadl.analyzer import apply_latency_overrides, check, elaborate
from cloudadl.harness import STATUS_FATAL, run_file
from cloudadl.kernel import FatalUnhandled, Kernel
from cloudadl.model import make_record
from cloudadl.oracle import predict
from cloudadl.parser import load_files, parse_model
from cloudadl.printer import pretty_print
from cloudadl.scenario import (
    Scenario,
    build_kernel,
    load_scenario,
    load_scenario_text,
    run_scenario,
    store_rows,
)

from helpers import MODELS_DIR, SCENARIOS_DIR, events, parse_ok, replaced, trace_text
from modelgen import POOL_TEXT, pipeline_text, random_model


def rec(model, tname, **vals):
    return make_record(model.message_types[tname], vals)


def test_a01_per_channel_fifo_holds_across_1000_random_cases():
    """1,000 random (model, scenario, latency, seed) runs keep channel FIFO."""
    checked = 0
    for case in range(1000):
        rng = Random(case)
        text, root, _stages = pipeline_text(rng)
        model, diags = parse_model(text, f"<case{case}>")
        assert model is not None, diags
        topo = elaborate(model, root)
        apply_latency_overrides(
            topo, [(ch.id, rng.randint(1, 4)) for ch in topo.channels]
        )
        injections = [
            (rng.randint(1, 6), "feed", rec(model, "Item", n=i), 0)
            for i in range(rng.randint(1, 12))
        ]
        k = Kernel(topo, seed=case, injections=injections)
        k.run()
        assert not k.truncated, case
        for ch in topo.channels:
            sends = [e for e in events(k) if e.kind == "SEND" and e.channel == ch.id]
            delis = [e for e in events(k) if e.kind == "DELIVER" and e.channel == ch.id]
            assert [e.seq for e in sends] == list(range(1, len(sends) + 1)), case
            assert [e.seq for e in delis] == [e.seq for e in sends], (case, ch.id)
            assert [e.payload for e in delis] == [e.payload for e in sends], case
            checked += len(delis)
    assert checked > 0
    print(f"PASS: FIFO order held on every channel of 1000 runs "
          f"({checked} deliveries checked)")


def test_a02_each_of_10000_routed_messages_delivered_exactly_once():
    """10,000 messages into groups of sizes 1-8 each reach exactly one replica."""
    model = parse_ok(POOL_TEXT)
    total = 0
    for size in range(1, 9):
        topo = elaborate(model, "Pool")
        injections = [
            (1 + i // 50, "feed", rec(model, "Job", n=i), 0)
            for i in range(1250)
        ]
        k = Kernel(
            topo,
            scales=[(0, "root/w", size, 0)],
            injections=injections,
        )
        k.run()
        assert not k.truncated
        group_ch = "root.feed->root/w.i"
        sends = [e for e in events(k) if e.kind == "SEND" and e.channel == group_ch]
        delis = [e for e in events(k) if e.kind == "DELIVER" and e.channel == group_ch]
        assert len(sends) == len(delis) == 1250
        seen = [e.seq for e in delis]
        assert sorted(seen) == list(range(1, 1251))  # exactly once, no drops
        rids = {e.subject.split("#")[1].split(".")[0] for e in delis}
        assert rids == {str(r) for r in range(size)}  # all replicas live and used
        assert len(k.out_streams["drain"]) == 1250
        total += len(delis)
    assert total == 10000
    print("PASS: 10000/10000 routed messages delivered exactly once "
          "(group sizes 1-8)")


def test_a03_context_tokens_pin_chains_to_their_opening_replica():
    """100 chains x 20 seeds x k in {2,5}: closing hops land on the opener."""
    model, diags = load_files([str(MODELS_DIR / "request_chain.arc")])
    assert not diags
    chains_checked = 0
    for k_replicas in (2, 5):
        for seed in range(20):
            topo = elaborate(model, "RequestChain")
            kernel = Kernel(
                topo, seed=seed,
                scales=[(0, "root/a", k_replicas, 0)],
                injections=[
                    (1 + i, "task", rec(model, "Req", body=f"r{i}"), 0)
                    for i in range(100)
                ],
            )
            kernel.run()
            assert not kernel.truncated
            assert len(kernel.out_streams["done"]) == 100  # all chains complete
            opener: dict[tuple, str] = {}
            for e in events(kernel):
                if e.kind != "DELIVER" or not e.subject.startswith("root/a#"):
                    continue
                rid = e.subject.split(".")[0]
                for tok in e.tokens:
                    if tok in opener:
                        assert opener[tok] == rid, (k_replicas, seed, tok)
                    else:
                        opener[tok] = rid
            assert len(opener) == 100
            binds = [e for e in events(kernel) if e.kind == "BIND"]
            assert len(binds) == 100  # bound once, never rebound
            chains_checked += len(opener)
    assert chains_checked == 2 * 20 * 100
    print(f"PASS: {chains_checked}/4000 chains stayed on their opening replica")


def test_a04_broadcast_and_index_selection_against_group_sizes():
    """Broadcast reaches each of n replicas once; index(i) picks replica i;
    broadcast reaches the new group size after scaling."""
    text = (
        "message M { v: integer; }\n"
        "component W { port in M i; port out M o; behavior forward(out=o); }\n"
        "component H { port in M i; port out M o replicating;"
        " behavior forward(out=o, broadcast=true); }\n"
        "component R { port in M i; port out M o replicating;"
        " behavior route_by(field=v); }\n"
        "component BSys { port in M feed; port out M drain; component H h;"
        " replicating component W w;"
        " connect feed -> h.i; connect h.o -> w.i; connect w.o -> drain; }\n"
        "component ISys { port in M feed; port out M drain; component R r;"
        " replicating component W w;"
        " connect feed -> r.i; connect r.o -> w.i; connect w.o -> drain; }\n"
    )
    model = parse_ok(text)
    assert not check(model, "BSys") and not check(model, "ISys")
    for n in (1, 3, 7):
        # broadcast: one copy per live replica
        topo = elaborate(model, "BSys")
        k = Kernel(topo,
                   scales=[(0, "root/w", n, 0)],
                   injections=[(1, "feed", rec(model, "M", v=0), 0)])
        k.run()
        ch = "root/h.o->root/w.i"
        hits = sorted(e.subject for e in events(k)
                      if e.kind == "DELIVER" and e.channel == ch)
        assert hits == [f"root/w#{i}.i" for i in range(n)]
        assert len(k.out_streams["drain"]) == n

        # index: v=i lands exactly on replica i
        for i in range(n):
            topo = elaborate(model, "ISys")
            k = Kernel(topo,
                       scales=[(0, "root/w", n, 0)],
                       injections=[(1, "feed", rec(model, "M", v=i), 0)])
            k.run()
            got = [e.subject for e in events(k)
                   if e.kind == "DELIVER" and e.channel == "root/r.o->root/w.i"]
            assert got == [f"root/w#{i}.i"]

        # broadcast tracks the group across a scale event
        topo = elaborate(model, "BSys")
        k = Kernel(topo,
                   scales=[(0, "root/w", n, 0),
                           (3, "root/w", n + 1, 0)],
                   injections=[(1, "feed", rec(model, "M", v=0), 0),
                               (4, "feed", rec(model, "M", v=1), 0)])
        k.run()
        ch_delis = [e for e in events(k)
                    if e.kind == "DELIVER" and e.channel == ch]
        before = [e for e in ch_delis if e.payload == "M{v=0}"]
        after = [e for e in ch_delis if e.payload == "M{v=1}"]
        assert len(before) == n and len(after) == n + 1
    print("PASS: broadcast fan, index pick, and fan after rescaling exact "
          "for n in {1,3,7}")


def test_a05_root_stream_invariant_under_10_latency_assignments():
    """The 4-stage pipeline's drain stream never changes with latencies."""
    model, diags = load_files([str(MODELS_DIR / "pipeline4.arc")])
    assert not diags
    injections = [
        (s, "feed", rec(model, "Item", n=s), 0) for s in (1, 2, 3, 4, 5)
    ]
    renders = set()
    for assignment in range(10):
        rng = Random(assignment)
        topo = elaborate(model, "Pipeline")
        apply_latency_overrides(
            topo, [(ch.id, rng.randint(1, 6)) for ch in topo.channels]
        )
        k = Kernel(topo, injections=injections)
        k.run()
        stream = "\n".join(p.render() for _t, p in k.out_streams["drain"])
        renders.add(stream)
    assert len(renders) == 1
    # and the one stream is the reference interpreter's prediction
    want = predict(Scenario("p", "<t>", model, "Pipeline", injections=injections))
    assert renders == {"\n".join(p.render() for p in want.streams["drain"])}
    print("PASS: drain stream byte-identical across 10 latency assignments")


def test_a06_supervision_escalates_twice_then_restarts_the_failed_subtree():
    """Depth-3 fault: 2 ESCALATE then 1 RESTART; all-escalate exits 3 + FATAL."""
    model, diags = load_files([str(MODELS_DIR / "supervised.arc")])
    assert not diags
    topo = elaborate(model, "Supervised")
    k = Kernel(topo,
               strategies={"root/mid": "restart"},
               faults=[(1, "root/mid/sub/leaf", "overload", None, 0)])
    k.run()
    got = [(e.kind, e.subject) for e in events(k)]
    assert got == [
        ("RAISE", "root/mid/sub/leaf#0"),
        ("ESCALATE", "root/mid/sub/leaf"),
        ("ESCALATE", "root/mid/sub"),
        ("RESTART", "root/mid/sub"),
    ]

    topo = elaborate(model, "Supervised")
    k = Kernel(topo,
               faults=[(1, "root/mid/sub/leaf", "overload", None, 0)])
    with pytest.raises(FatalUnhandled):
        k.run()
    assert [e.kind for e in events(k)][-2:] == ["ESCALATE", "FATAL"]
    print("PASS: 2 escalations + 1 subtree restart; all-escalate went fatal")


def test_a06b_all_escalate_scenario_exits_with_status_3(tmp_path):
    """The harness maps an unhandled fault to exit status 3."""
    scn = tmp_path / "fatal.scn"
    scn.write_text(
        "scenario fatal\n"
        f"model {MODELS_DIR / 'supervised.arc'}\n"
        "root Supervised\n"
        "fault root/mid/sub/leaf at 1 overload\n"
    )
    report = run_file(str(scn))
    assert report.status == STATUS_FATAL == 3
    assert "unhandled fault 'overload' from root/mid/sub/leaf" in report.lines[0]
    print("PASS: unhandled escalation exits with status 3")


def test_a07_sensor_channel_acks_all_stores_valid_and_matches_oracle():
    """100 updates, 17 bad credentials, store scaled to 3: 100 acks, 83 rows,
    ack stream equal to the sequential reference prediction."""
    scenario, diags = load_scenario(str(SCENARIOS_DIR / "sensor_channel.scn"))
    assert scenario is not None, diags
    forged = [i for i in scenario.injections if i[2].get("cred") != "valid"]
    assert len(forged) == 17
    assert len(scenario.injections) == 100
    assert any(s[1:3] == ("root/store", 3) for s in scenario.scales)

    result = run_scenario(scenario)
    assert result.verdict == "pass", result.failures
    acks = [payload for _t, payload in result.kernel.out_streams["ack"]]
    assert len(acks) == 100
    assert sum(1 for a in acks if a.get("ok")) == 83
    rows = store_rows(result.kernel, "root/store")
    assert len(rows) == 83
    assert all(payload.get("cred") == "valid" for *_x, payload in rows)

    # replica counts cannot change totals here, so predict on one replica
    want = predict(replaced(scenario, scales=[]))
    assert acks == want.streams["ack"]
    assert sorted(p.values for *_x, p in rows) == sorted(
        r.values for r in want.stores["root/store"]
    )
    print("PASS: 100 acks, 83 stored, ack stream equals the oracle's")


def test_a08_print_parse_fixpoint_on_500_generated_models():
    """parse(print(m)) is structurally m for 500 random models."""
    for seed in range(500):
        model = random_model(Random(seed))
        text = pretty_print(model)
        again, diags = parse_model(text, f"<gen{seed}>")
        assert again is not None, (seed, [d.render() for d in diags])
        assert again == model, seed
        assert pretty_print(again) == text, seed  # printing is a fixpoint too
    print("PASS: 500/500 models round-tripped structurally")


BAD_MODELS = [
    # R1: unresolved reference
    ("component A { port in Nope p; behavior store(); }", "E_UNRESOLVED"),
    # R2: connector type mismatch
    (
        "message M { n: integer; }\nmessage N { s: text; }\n"
        "component B { port in N i; behavior store(); }\n"
        "component A { port in M x; component B b; connect x -> b.i; }",
        "E_TYPE_MISMATCH",
    ),
    # R3: illegal direction (ownIn -> ownOut bypass)
    (
        "message M { n: integer; }\n"
        "component B { port in M i; behavior store(); }\n"
        "component A { port in M x; port out M y; component B b;"
        " connect x -> b.i; connect x -> y; }",
        "E_DIRECTION",
    ),
    # R4: endpoint reaches through an enclosed component
    (
        "message M { n: integer; }\n"
        "component C { port in M i; behavior store(); }\n"
        "component B { component C c; }\n"
        "component A { port in M x; component B b; connect x -> b.c.i; }",
        "E_ENCAPSULATION",
    ),
    # R5: duplicate connector pair
    (
        "message M { n: integer; }\n"
        "component B { port in M i; behavior store(); }\n"
        "component A { port in M x; component B b;"
        " connect x -> b.i; connect x -> b.i; }",
        "E_DUP_CONNECT",
    ),
    # R6: decomposed component with a behavior clause
    (
        "message M { n: integer; }\n"
        "component B { port in M i; behavior store(); }\n"
        "component A { port in M x; component B b; connect x -> b.i;"
        " behavior forward(); }",
        "E_BEHAVIOR",
    ),
    # R7: gate names a connector that does not exist
    (
        "message M { n: integer; }\n"
        "component B { port in M i; behavior store(); }\n"
        "component A { port in M x; component B b; connect x -> b.i;"
        " context c { open b.i -> x; } }",
        "E_GATE_REF",
    ),
    # R8: type containing itself
    ("component A { component A inner; }", "E_RECURSION"),
    # R9: replicating marker on an in port
    (
        "message M { n: integer; }\n"
        "component A { port in M i replicating; behavior store(); }",
        "E_REPL_PORT",
    ),
]


def test_a09_one_bad_model_per_rule_rejected_with_its_code():
    """Nine seeded bad models: each yields exactly its rule's error code."""
    assert len(BAD_MODELS) == 9
    for idx, (text, want) in enumerate(BAD_MODELS, start=1):
        model, parse_diags = parse_model(text, f"<r{idx}>")
        assert model is not None, (idx, parse_diags)
        found = [d.code for d in check(model)]
        assert found == [want], (f"R{idx}", found)
    print("PASS: 9/9 rule violations rejected with exactly the expected code")


def test_a10_equal_seeds_give_byte_identical_traces(tmp_path):
    """Every bundled scenario, run twice per seed, traces byte-identical;
    a randomized behavior still diverges across different seeds."""
    for path in sorted(SCENARIOS_DIR.glob("*.scn")):
        scenario, diags = load_scenario(str(path))
        assert scenario is not None, diags
        traces = []
        for _ in range(2):
            k = build_kernel(scenario)
            k.run()
            traces.append(trace_text(k.events).encode())
        assert traces[0] == traces[1], path.name

    # a behavior that consults the seeded rng still replays identically, and
    # draws what it drew when the digests below were pinned: a change to a
    # replica's seed string or to its draw sequence changes them
    (tmp_path / "m.arc").write_text(
        "message M { n: integer; }\n"
        "component S { port in M i; port out M o; behavior sample(percent=50); }\n"
        "component Sys { port in M feed; port out M drain; component S s;"
        " connect feed -> s.i; connect s.o -> drain; }\n"
    )
    (tmp_path / "pool.arc").write_text(
        (tmp_path / "m.arc").read_text().replace(
            "component S s;", "replicating component S s;"
        )
    )
    from cloudadl.scenario import load_scenario_text

    pinned = {
        ("m.arc", 0, ""):
            "e8bfbd08b413a5a076a92d2d50379a9c9ec7fede77fc36d16fce191634408c8f",
        ("m.arc", 1, ""):
            "b86e2b93e6b8d3e5a4ba49d4983308f516b6a8bea128bb88dfffbb7350d12008",
        # three replicas, each drawing from its own generator
        ("pool.arc", 0, "scale root/s 3 at 0\n"):
            "1e5ccf77e340aab5915a518ecbe70091f898c6ab8357d8083b60ed65a9b27faf",
    }
    by_case = {}
    for case in pinned:
        model_file, seed, directives = case
        body = (
            f"scenario sampled\nmodel {model_file}\nroot Sys\nseed {seed}\n"
            + directives
            + "".join(f"inject feed at {s} M{{n={s}}}\n" for s in range(1, 41))
        )
        scenario, diags = load_scenario_text(body, "<scn>", str(tmp_path))
        assert scenario is not None, diags
        pair = []
        for _ in range(2):
            k = build_kernel(scenario)
            k.run()
            pair.append(trace_text(k.events).encode())
        assert pair[0] == pair[1]
        assert hashlib.sha256(pair[0]).hexdigest() == pinned[case], case
        by_case[case] = pair[0]
    # the seed does reach the behaviors
    assert by_case[("m.arc", 0, "")] != by_case[("m.arc", 1, "")]
    print("PASS: byte-identical traces per seed; seeds diverge under sampling")


def test_acceptance_suite_is_fast_enough():
    """The whole suite must stay well under a minute; spot-check the heavy
    generator path stays cheap per case."""
    import time

    rng = Random(7)
    t0 = time.perf_counter()
    for case in range(20):
        text, root, _stages = pipeline_text(rng)
        model, _diags = parse_model(text, "<speed>")
        topo = elaborate(model, root)
        k = Kernel(topo, injections=[(1, "feed", rec(model, "Item", n=0), 0)])
        k.run()
    per_case = (time.perf_counter() - t0) / 20
    assert per_case < 0.05, per_case
    print(f"PASS: generator case costs {per_case * 1000:.1f}ms, suite fits the budget")
