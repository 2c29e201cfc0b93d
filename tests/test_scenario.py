"""Scenario parsing, validation, and run verdicts."""

from __future__ import annotations

import pytest

from cloudadl.scenario import (
    CountIs,
    EventOccurs,
    SeqPrefix,
    StoreContains,
    load_scenario,
    load_scenario_text,
    run_scenario,
    store_rows,
    strip_comment,
)

from helpers import MODELS_DIR, SCENARIOS_DIR, codes
from modelgen import POOL_TEXT

STORE_TEXT = (
    "message Job { n: integer; }\n"
    "component Keeper { port in Job i; behavior store(); }\n"
    "component Sys { port in Job feed; component Keeper k;"
    " connect feed -> k.i; }\n"
)


def load(tmp_path, model_text, body, name="t"):
    (tmp_path / "m.arc").write_text(model_text)
    text = f"scenario {name}\nmodel m.arc\n" + body
    return load_scenario_text(text, "<scn>", str(tmp_path))


def good(tmp_path, model_text, body):
    scenario, diags = load(tmp_path, model_text, body)
    assert scenario is not None, [d.render() for d in diags]
    return scenario


def bad(tmp_path, model_text, body):
    scenario, diags = load(tmp_path, model_text, body)
    assert scenario is None and diags
    return diags


# --- comment stripping ---


def test_strip_comment():
    assert strip_comment("inject x at 1 // note") == "inject x at 1 "
    assert strip_comment("plain line") == "plain line"
    assert strip_comment("// all comment") == ""
    assert strip_comment('inject x at 1 M{s="a//b"} // real') == (
        'inject x at 1 M{s="a//b"} '
    )
    assert strip_comment('M{s="a\\"//b"} // c') == 'M{s="a\\"//b"} '
    assert strip_comment('inject x at 1 M{s="http://h"}') == (
        'inject x at 1 M{s="http://h"}'
    )


# --- loading ---


def test_load_minimal_defaults(tmp_path):
    s = good(tmp_path, POOL_TEXT, "root Pool\n")
    assert s.name == "t"
    assert s.root_type == "Pool"
    assert s.seed == 0 and s.maxsteps == 1000
    assert not s.injections and not s.expectations


def test_load_full_directives(tmp_path):
    s = good(
        tmp_path, POOL_TEXT,
        "root Pool\n"
        "seed 9\n"
        "maxsteps 50\n"
        "latency root.feed* 2\n"
        "strategy root/w restart\n"
        "scale root/w 3 at 0\n"
        "inject feed at 1 Job{n=5}\n"
        "expect count drain 1 by 10\n"
        "expect prefix drain Job{n=5}\n"
        "expect event SCALE root/w\n",
    )
    assert s.seed == 9 and s.maxsteps == 50
    assert s.latency_overrides == [("root.feed*", 2)]
    assert s.strategies == {"root/w": "restart"}
    assert len(s.scales) == 1 and s.scales[0].count == 3
    assert len(s.injections) == 1
    assert s.injections[0].payload.get("n") == 5
    kinds = [type(e).__name__ for e in s.expectations]
    assert kinds == ["CountIs", "SeqPrefix", "EventOccurs"]
    count = s.expectations[0]
    assert (count.port, count.count, count.by) == ("drain", 1, 10)


def test_load_store_expectation(tmp_path):
    s = good(
        tmp_path, STORE_TEXT,
        "root Sys\ninject feed at 1 Job{n=1}\nexpect store root/k 1\n",
    )
    exp = s.expectations[0]
    assert isinstance(exp, StoreContains)
    assert (exp.path, exp.count) == ("root/k", 1)


def test_load_scenario_file_missing():
    scenario, diags = load_scenario("/nonexistent/x.scn")
    assert scenario is None and codes(diags) == ["E_IO"]


def test_bundled_scenarios_load(tmp_path):
    for path in sorted(SCENARIOS_DIR.glob("*.scn")):
        scenario, diags = load_scenario(str(path))
        assert scenario is not None, (path.name, [d.render() for d in diags])


@pytest.mark.parametrize(
    "body",
    [
        "",                                     # no root
        "root Nope\n",                          # unknown root type
        "root Pool\nbogus directive\n",          # unknown directive
        "root Pool\nseed x\n",                   # bad int
        "root Pool\nlatency root.* 0\n",         # latency below 1
        "root Pool\nstrategy root/w sulk\n",     # unknown strategy
        "root Pool\nstrategy root/nope resume\n",
        "root Pool\nscale root 2 at 0\n",        # root is not a group
        "root Pool\nscale root/w 0 at 0\n",
        "root Pool\nfault root at 1 x\n",        # fault needs an atomic path
        "root Pool\ninject nope at 1 Job{n=0}\n",
        "root Pool\ninject feed at 1 Nope{n=0}\n",
        "root Pool\ninject feed at 1 Job{n=0} Job{n=1}\n",
        'root Pool\ninject feed at 1 Job{n="s"}\n',
        "root Pool\ninject drain at 1 Job{n=0}\n",  # out port
        "root Pool\nexpect count nope 1\n",
        "root Pool\nexpect count feed 1\n",      # in port is not a stream
        "root Pool\nexpect prefix drain Nope{n=0}\n",
        "root Pool\nexpect store root/w 1\n",    # forward is not a store
        "root Pool\nexpect event NOPE root\n",
        "root Pool\nexpect wat drain 1\n",
    ],
)
def test_load_rejections(tmp_path, body):
    diags = bad(tmp_path, POOL_TEXT, body)
    assert all(d.severity == "error" for d in diags)


def test_model_file_missing(tmp_path):
    scenario, diags = load_scenario_text(
        "scenario t\nmodel absent.arc\nroot Pool\n", "<scn>", str(tmp_path)
    )
    assert scenario is None and "E_IO" in codes(diags)


# --- running ---


def test_run_pass_verdict(tmp_path):
    s = good(
        tmp_path, POOL_TEXT,
        "root Pool\n"
        "scale root/w 2 at 0\n"
        "inject feed at 1 Job{n=1}\n"
        "inject feed at 1 Job{n=2}\n"
        "expect count drain 2 by 4\n"
        "expect prefix drain Job{n=1} Job{n=2}\n"
        "expect event SCALE root/w\n",
    )
    result = run_scenario(s)
    assert result.verdict == "pass" and not result.failures
    assert result.kernel is not None and not result.kernel.truncated


def test_run_fail_verdict_lists_all(tmp_path):
    s = good(
        tmp_path, POOL_TEXT,
        "root Pool\n"
        "inject feed at 1 Job{n=1}\n"
        "expect count drain 5\n"
        "expect prefix drain Job{n=9}\n",
    )
    result = run_scenario(s)
    assert result.verdict == "fail"
    assert len(result.failures) == 2


def test_run_count_by_deadline(tmp_path):
    s = good(
        tmp_path, POOL_TEXT,
        "root Pool\n"
        "latency root/w.o->root.drain 10\n"
        "inject feed at 1 Job{n=1}\n"
        "expect count drain 1 by 3\n",
    )
    result = run_scenario(s)
    assert result.verdict == "fail"
    assert "by" in result.failures[0] or "step" in result.failures[0]


def test_run_fatal_verdict(tmp_path):
    text = (
        "message M { n: integer; }\n"
        "component W { port in M i; behavior store(); }\n"
        "component Sys { port in M feed; component W w; connect feed -> w.i; }\n"
    )
    s = good(tmp_path, text, "root Sys\nfault root/w at 1 crash\n")
    result = run_scenario(s)
    assert result.verdict == "fatal"
    assert result.fatal is not None
    assert result.fatal.path == "root/w" and result.fatal.kind == "crash"


def test_run_truncation_is_a_failure(tmp_path):
    text = (
        "message M { n: integer; }\n"
        "component P { port in M i; port out M o; behavior forward(); }\n"
        "component Sys { port in M feed; component P a; component P b;"
        " connect feed -> a.i; connect a.o -> b.i; connect b.o -> a.i; }\n"
    )
    s = good(
        tmp_path, text,
        "root Sys\nmaxsteps 20\ninject feed at 1 M{n=0}\n",
    )
    result = run_scenario(s)
    assert result.verdict == "fail"
    assert any("maxsteps" in f or "truncat" in f for f in result.failures)


def test_store_rows_shape(tmp_path):
    s = good(
        tmp_path, STORE_TEXT,
        "root Sys\n"
        "inject feed at 1 Job{n=7}\n"
        "inject feed at 2 Job{n=8}\n"
        "expect store root/k 2\n",
    )
    result = run_scenario(s)
    assert result.verdict == "pass"
    rows = store_rows(result.kernel, "root/k")
    assert [(step, rid, payload.get("n")) for step, rid, _i, payload in rows] == [
        (2, 0, 7), (3, 0, 8),
    ]


def test_bundled_scenarios_pass():
    for path in sorted(SCENARIOS_DIR.glob("*.scn")):
        scenario, diags = load_scenario(str(path))
        assert scenario is not None, [d.render() for d in diags]
        result = run_scenario(scenario)
        assert result.verdict == "pass", (path.name, result.failures)
