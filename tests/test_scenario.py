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


POOL_OTHER_TEXT = POOL_TEXT + "message Other { s: text; }\n"

# Directive lines after "root Pool" (line 3), and every diagnostic they give
# in order. Each line gets one diagnostic, for its first failing rule; the
# run-level checks come in the order strategies, scales, faults, injects,
# each category in line order.
DIRECTIVE_DIAGNOSTICS = {
    "strategy_unknown_instance": (
        ["strategy root/nope resume"],
        ["4:1: E_UNRESOLVED: unknown instance 'root/nope'"],
    ),
    "strategy_unknown_instance_twice": (
        ["strategy root/nope resume", "strategy root/nope restart"],
        [
            "4:1: E_UNRESOLVED: unknown instance 'root/nope'",
            "5:1: E_UNRESOLVED: unknown instance 'root/nope'",
        ],
    ),
    "strategy_unknown": (
        ["strategy root/w sulk"],
        ["4:1: E_SYNTAX: unknown strategy 'sulk'"],
    ),
    "maxsteps_negative": (
        ["maxsteps -1"],
        ["4:1: E_SYNTAX: maxsteps must not be negative"],
    ),
    # line rules stop the load before any instance is looked up
    "line_rules_first": (
        ["maxsteps -1", "strategy root/w sulk", "scale root/nope 1 at 0"],
        [
            "4:1: E_SYNTAX: maxsteps must not be negative",
            "5:1: E_SYNTAX: unknown strategy 'sulk'",
        ],
    ),
    "scale_unknown_instance": (
        ["scale root/nope 2 at 0"],
        ["4:1: E_UNRESOLVED: unknown instance 'root/nope'"],
    ),
    "scale_not_replicating": (
        ["scale root 2 at 0"],
        ["4:1: E_UNRESOLVED: 'root' is not a replicating instance"],
    ),
    "scale_count_below_1": (
        ["scale root/w 0 at 0"],
        ["4:1: E_SYNTAX: replica count must be at least 1"],
    ),
    "scale_negative_step": (
        ["scale root/w 2 at -3"],
        ["4:1: E_SYNTAX: step must not be negative"],
    ),
    "scale_count_before_step": (
        ["scale root/w 0 at -3"],
        ["4:1: E_SYNTAX: replica count must be at least 1"],
    ),
    "fault_unknown_instance": (
        ["fault root/nope at 1 boom"],
        ["4:1: E_UNRESOLVED: unknown instance 'root/nope'"],
    ),
    "fault_not_atomic": (
        ["fault root at 1 boom"],
        ["4:1: E_UNRESOLVED: 'root' is not an atomic instance"],
    ),
    "fault_negative_step": (
        ["fault root/w#0 at -2 boom"],
        ["4:1: E_SYNTAX: step must not be negative"],
    ),
    "inject_unknown_port": (
        ["inject nope at 1 Job{n=0}"],
        ["4:1: E_UNRESOLVED: the root component has no in port 'nope'"],
    ),
    "inject_out_port": (
        ["inject drain at 1 Job{n=0}"],
        ["4:1: E_UNRESOLVED: the root component has no in port 'drain'"],
    ),
    "inject_other_type": (
        ['inject feed at 1 Other{s="x"}'],
        ["4:1: E_TYPE_MISMATCH: port carries Job, not Other"],
    ),
    "inject_negative_step": (
        ["inject feed at -5 Job{n=0}"],
        ["4:1: E_SYNTAX: step must not be negative"],
    ),
    # the port is checked before the literal is parsed
    "inject_bad_port_and_broken_literal": (
        ["inject nope at 1 Job{n="],
        ["4:1: E_UNRESOLVED: the root component has no in port 'nope'"],
    ),
    # the literal and its type are checked before the step
    "inject_broken_literal_and_negative_step": (
        ["inject feed at -5 Job{n="],
        ["4:1: E_SYNTAX: expected a value, got end of input"],
    ),
    "inject_other_type_and_negative_step": (
        ['inject feed at -5 Other{s="x"}'],
        ["4:1: E_TYPE_MISMATCH: port carries Job, not Other"],
    ),
    # a word up to diagnostics.ECHO_LIMIT characters is quoted as written
    "unknown_directive": (
        ["bogus directive"],
        ["4:1: E_SYNTAX: unknown directive 'bogus'"],
    ),
    "unknown_directive_at_the_echo_limit": (
        ["d" * 40],
        ["4:1: E_SYNTAX: unknown directive '" + "d" * 40 + "'"],
    ),
    "unknown_directive_past_the_echo_limit": (
        ["d" * 41],
        ["4:1: E_SYNTAX: unknown directive a word of 41 characters"],
    ),
    "unknown_expectation": (
        ["expect wat drain 1"],
        ["4:1: E_SYNTAX: unknown expectation 'wat'"],
    ),
    "unknown_event_kind": (
        ["expect event NOPE root"],
        ["4:1: E_SYNTAX: unknown event kind 'NOPE'"],
    ),
    "store_no_atomic_instance": (
        ["expect store root/nope 1"],
        ["4:1: E_UNRESOLVED: no atomic instance at 'root/nope'"],
    ),
    "store_not_a_store": (
        ["expect store root/w 1"],
        ["4:1: E_UNRESOLVED: 'root/w' does not run a store behavior"],
    ),
    "stream_no_out_port": (
        ["expect count nope 1"],
        ["4:1: E_UNRESOLVED: the root component has no out port 'nope'"],
    ),
    "inject_unknown_message_type": (
        ["inject feed at 1 Nope{n=0}"],
        ["4:1: E_UNRESOLVED: unknown message type 'Nope'"],
    ),
    "categories_in_rule_order": (
        [
            "inject nope at 1 Job{n=0}",
            "fault root at 1 boom",
            "scale root/w 0 at 0",
            "strategy root/nope resume",
        ],
        [
            "7:1: E_UNRESOLVED: unknown instance 'root/nope'",
            "6:1: E_SYNTAX: replica count must be at least 1",
            "5:1: E_UNRESOLVED: 'root' is not an atomic instance",
            "4:1: E_UNRESOLVED: the root component has no in port 'nope'",
        ],
    ),
    "injects_in_line_order": (
        ["inject feed at -1 Job{n=0}", "inject nope at 1 Job{n=0}"],
        [
            "4:1: E_SYNTAX: step must not be negative",
            "5:1: E_UNRESOLVED: the root component has no in port 'nope'",
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(DIRECTIVE_DIAGNOSTICS))
def test_directive_diagnostics(tmp_path, case):
    lines, expected = DIRECTIVE_DIAGNOSTICS[case]
    body = "root Pool\n" + "".join(f"{line}\n" for line in lines)
    diags = bad(tmp_path, POOL_OTHER_TEXT, body)
    assert [d.render() for d in diags] == [f"<scn>:{e}" for e in expected]


LITERAL_TEXT = (
    "message Update { value: integer; cred: text; flag: boolean; }\n"
    "message M { n: integer; s: text; }\n"
    "component Keeper { port in Update u; port in M m; behavior store(); }\n"
    "component Sys { port in Update upd; port in M feed; component Keeper k;"
    " connect upd -> k.u; connect feed -> k.m; }\n"
)


def test_inject_payload_literal(tmp_path):
    s = good(
        tmp_path, LITERAL_TEXT,
        'root Sys\ninject upd at 1 Update{value=3, cred="ok", flag=true}\n',
    )
    payload = s.injections[0].payload
    assert payload.type_name == "Update"
    assert dict(payload.values) == {"value": 3, "cred": "ok", "flag": True}


def test_inject_payload_literal_negative_and_escape(tmp_path):
    s = good(tmp_path, LITERAL_TEXT, 'root Sys\ninject feed at 1 M{n=-5, s="a\\"b"}\n')
    payload = s.injections[0].payload
    assert payload.type_name == "M"
    assert dict(payload.values) == {"n": -5, "s": 'a"b'}


@pytest.mark.parametrize(
    "text",
    [
        "M{n=1} extra",
        "M{n=1, n=2}",
        "M{n=x}",
        "M{n=}",
        "M{",
    ],
)
def test_inject_payload_literal_errors(tmp_path, text):
    diags = bad(tmp_path, LITERAL_TEXT, f"root Sys\ninject feed at 1 {text}\n")
    assert [(d.code, d.line) for d in diags] == [("E_SYNTAX", 4)]


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


@pytest.mark.parametrize(
    "by, failure",
    [
        (4, None),
        (3, "count drain 2 by step 3: message 2 arrived at step 4"),
    ],
)
def test_count_deadline_is_inclusive(tmp_path, by, failure):
    # message 2 enters at step 2 and reaches drain at step 4
    s = good(
        tmp_path, POOL_TEXT,
        "root Pool\n"
        "inject feed at 1 Job{n=1}\n"
        "inject feed at 2 Job{n=2}\n"
        f"expect count drain 2 by {by}\n",
    )
    result = run_scenario(s)
    assert result.failures == ([failure] if failure else [])


SCALED_STORE_TEXT = (
    "message Job { n: integer; }\n"
    "component Keeper { port in Job i; behavior store(); }\n"
    "component Sys { port in Job feed; replicating component Keeper k;"
    " connect feed -> k.i; }\n"
)


def test_store_expectation_counts_rows_on_every_replica(tmp_path):
    body = (
        "root Sys\n"
        "scale root/k 2 at 0\n"
        "inject feed at 1 Job{n=1}\n"
        "inject feed at 1 Job{n=2}\n"
        "inject feed at 1 Job{n=3}\n"
    )
    s = good(tmp_path, SCALED_STORE_TEXT, body + "expect store root/k 3\n")
    result = run_scenario(s)
    assert result.verdict == "pass"
    rids = [rid for _step, rid, _i, _p in store_rows(result.kernel, "root/k")]
    assert sorted(set(rids)) == [0, 1]
    s = good(tmp_path, SCALED_STORE_TEXT, body + "expect store root/k 2\n")
    result = run_scenario(s)
    assert result.failures == ["store root/k 2: stores hold 3 rows"]


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
