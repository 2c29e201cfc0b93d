"""Reference-interpreter predictions versus kernel runs."""

from __future__ import annotations

from random import Random

import pytest

from cloudadl.analyzer import apply_latency_overrides, elaborate
from cloudadl.kernel import Kernel
from cloudadl.model import make_record
from cloudadl.oracle import OracleInapplicable, predict
from cloudadl.scenario import Scenario, load_scenario, run_scenario, store_rows

from helpers import SCENARIOS_DIR, parse_ok, replaced
from modelgen import chain_text


def bundled(name: str):
    scenario, diags = load_scenario(str(SCENARIOS_DIR / name))
    assert scenario is not None, [d.render() for d in diags]
    return scenario


def descale(scenario):
    # replica counts cannot change these models' totals, so the oracle may
    # predict from a single-replica copy
    return replaced(scenario, scales=[])


@pytest.mark.parametrize(
    "name", ["sensor_channel.scn", "request_chain.scn", "pipeline4.scn"]
)
def test_streams_match_kernel(name):
    scenario = bundled(name)
    pred = predict(descale(scenario))
    result = run_scenario(scenario)
    assert result.verdict == "pass", result.failures
    for port, want in pred.streams.items():
        got = [payload for _tokens, payload in result.kernel.out_streams[port]]
        assert got == want, port


def test_store_contents_match_kernel():
    scenario = bundled("sensor_channel.scn")
    pred = predict(descale(scenario))
    result = run_scenario(scenario)
    rows = store_rows(result.kernel, "root/store")
    got = sorted(payload.values for *_k, payload in rows)
    want = sorted(r.values for r in pred.stores["root/store"])
    assert len(rows) == len(pred.stores["root/store"]) == 83
    assert got == want


def test_prediction_is_latency_free():
    # a single-path chain delivers the same stream whatever the latencies,
    # and that stream is what the oracle predicts
    text, root, _ = chain_text(Random(5))
    model = parse_ok(text)
    injections = [
        (s, "feed", make_record(model.message_types["Item"], {"n": s}), 0)
        for s in (1, 2, 3)
    ]
    scenario = Scenario("t", "<test>", model, root, injections=injections)
    want = predict(scenario).streams["drain"]
    for latency_seed in (0, 1, 2):
        rng = Random(latency_seed)
        topo = elaborate(model, root)
        apply_latency_overrides(
            topo, [(ch.id, rng.randint(1, 5)) for ch in topo.channels]
        )
        k = Kernel(topo, injections=injections)
        k.run()
        assert [p for _t, p in k.out_streams["drain"]] == want


def test_refuses_faults_and_scales():
    sup = bundled("supervised.scn")
    with pytest.raises(OracleInapplicable):
        predict(sup)
    chain = bundled("request_chain.scn")
    with pytest.raises(OracleInapplicable):
        predict(chain)  # scales present


def test_refuses_timing_dependent_builtins(tmp_path):
    from cloudadl.scenario import load_scenario_text

    model_text = (
        "message M { n: integer; }\n"
        "component S { port in M i; port out M o; behavior sample(percent=50); }\n"
        "component Sys { port in M feed; port out M drain; component S s;"
        " connect feed -> s.i; connect s.o -> drain; }\n"
    )
    (tmp_path / "m.arc").write_text(model_text)
    scenario, diags = load_scenario_text(
        "scenario t\nmodel m.arc\nroot Sys\ninject feed at 1 M{n=0}\n",
        "<scn>", str(tmp_path),
    )
    assert scenario, diags
    with pytest.raises(OracleInapplicable):
        predict(scenario)


def test_refuses_broadcast(tmp_path):
    from cloudadl.scenario import load_scenario_text

    model_text = (
        "message M { n: integer; }\n"
        "component W { port in M i; behavior store(); }\n"
        "component H { port in M i; port out M o replicating;"
        " behavior forward(out=o, broadcast=true); }\n"
        "component Sys { port in M feed; component H h;"
        " replicating component W w;"
        " connect feed -> h.i; connect h.o -> w.i; }\n"
    )
    (tmp_path / "m.arc").write_text(model_text)
    scenario, diags = load_scenario_text(
        "scenario t\nmodel m.arc\nroot Sys\ninject feed at 1 M{n=0}\n",
        "<scn>", str(tmp_path),
    )
    assert scenario, diags
    with pytest.raises(OracleInapplicable):
        predict(scenario)


def test_refuses_looping_model(tmp_path):
    from cloudadl.scenario import load_scenario_text

    model_text = (
        "message M { n: integer; }\n"
        "component P { port in M i; port out M o; behavior forward(); }\n"
        "component Sys { port in M feed; component P a; component P b;"
        " connect feed -> a.i; connect a.o -> b.i; connect b.o -> a.i; }\n"
    )
    (tmp_path / "m.arc").write_text(model_text)
    scenario, diags = load_scenario_text(
        "scenario t\nmodel m.arc\nroot Sys\ninject feed at 1 M{n=0}\n",
        "<scn>", str(tmp_path),
    )
    assert scenario, diags
    with pytest.raises(OracleInapplicable):
        predict(scenario)


def test_refuses_a_behavior_that_faults(tmp_path):
    from cloudadl.scenario import load_scenario_text

    model_text = (
        "message M { n: integer; }\n"
        "component A { port in M i; port out M o;"
        ' behavior automaton(initial="s", "s, i, n = 0 -> s, emit o"); }\n'
        "component Sys { port in M feed; port out M drain; component A a;"
        " connect feed -> a.i; connect a.o -> drain; }\n"
    )
    (tmp_path / "m.arc").write_text(model_text)
    scenario, diags = load_scenario_text(
        "scenario t\nmodel m.arc\nroot Sys\ninject feed at 1 M{n=0}\ninject feed at 2 M{n=1}\n",
        "<scn>", str(tmp_path),
    )
    assert scenario, diags
    with pytest.raises(OracleInapplicable) as exc:
        predict(scenario)
    assert str(exc.value) == "behavior at root/a raised 'no_transition'"
