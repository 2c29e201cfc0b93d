"""End-to-end CLI runs through main(argv)."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import pytest

from cloudadl import cli
from cloudadl.cli import main

from helpers import MODELS_DIR, PKG_ROOT, SCENARIOS_DIR
from modelgen import POOL_TEXT

SENSOR = str(MODELS_DIR / "sensor_channel.arc")


# --- check ---


def test_check_clean_model(capsys):
    assert main(["check", SENSOR, "--root", "SensorChannel"]) == 0
    out = capsys.readouterr()
    assert "ok" in out.out


def test_check_reports_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.arc"
    bad.write_text("component A { port in Nope p; behavior store(); }\n")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "E_UNRESOLVED" in err and "bad.arc" in err


def test_check_syntax_error_status(tmp_path, capsys):
    bad = tmp_path / "bad.arc"
    bad.write_text("component A {\n")
    assert main(["check", str(bad)]) == 2
    assert "E_SYNTAX" in capsys.readouterr().err


def test_check_topology_listing(capsys):
    assert main([
        "check", SENSOR, "--root", "SensorChannel", "--topology",
    ]) == 0
    out = capsys.readouterr().out
    assert "root/store (UpdateStore, atomic replicating)" in out
    assert "root (SensorChannel, decomposed)" in out
    assert "root.update->root/handler.update [latency 1]" in out


def test_check_topology_without_root_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", SENSOR, "--topology"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--topology needs --root" in captured.err


# --- fmt ---


def test_fmt_prints_canonical(tmp_path, capsys):
    messy = tmp_path / "messy.arc"
    messy.write_text("message M{n:integer;}\ncomponent A{port in M i;behavior store();}\n")
    assert main(["fmt", str(messy)]) == 0
    out = capsys.readouterr().out
    assert "message M {\n  n: integer;\n}" in out


def test_fmt_write_updates_file_once(tmp_path):
    messy = tmp_path / "messy.arc"
    messy.write_text("message M{n:integer;}\n")
    assert main(["fmt", "--write", str(messy)]) == 0
    assert messy.read_text() == "message M {\n  n: integer;\n}\n"
    # the second pass leaves an already-canonical file untouched
    before = messy.stat().st_mtime_ns
    assert main(["fmt", "--write", str(messy)]) == 0
    assert messy.stat().st_mtime_ns == before


def test_fmt_write_reports_an_unwritable_file_and_goes_on(tmp_path, monkeypatch, capsys):
    locked = tmp_path / "locked.arc"
    other = tmp_path / "other.arc"
    messy = "message M{n:integer;}\n"
    locked.write_text(messy)
    other.write_text(messy)
    real_open = open

    def open_refusing_locked(path, mode="r", *args, **kwargs):
        if str(path) == str(locked) and "w" in mode:
            raise PermissionError(13, "Permission denied", str(path))
        return real_open(path, mode, *args, **kwargs)

    # chmod cannot make a file unwritable for root, so fail the open itself
    monkeypatch.setattr(cli, "open", open_refusing_locked, raising=False)
    assert main(["fmt", "--write", str(locked), str(other)]) == 2
    err = capsys.readouterr().err
    assert f"{locked}:0:0: E_IO: Permission denied" in err
    assert "Traceback" not in err
    assert locked.read_text() == messy
    assert other.read_text() == "message M {\n  n: integer;\n}\n"


def test_fmt_rejects_broken_file(tmp_path, capsys):
    bad = tmp_path / "bad.arc"
    bad.write_text("message {")
    assert main(["fmt", str(bad)]) == 2
    assert "E_SYNTAX" in capsys.readouterr().err


# --- sim ---


def test_sim_bundled_scenarios_pass(capsys):
    for path in sorted(SCENARIOS_DIR.glob("*.scn")):
        assert main(["sim", str(path)]) == 0, path.name
        out = capsys.readouterr().out
        assert ": pass (" in out


def test_sim_failure_status(tmp_path, capsys):
    (tmp_path / "m.arc").write_text(POOL_TEXT)
    scn = tmp_path / "f.scn"
    scn.write_text(
        "scenario f\nmodel m.arc\nroot Pool\nexpect count drain 2\n"
    )
    assert main(["sim", str(scn)]) == 1
    assert "fail" in capsys.readouterr().out


def test_sim_diagnostics_status(tmp_path, capsys):
    scn = tmp_path / "junk.scn"
    scn.write_text("scenario junk\nmodel gone.arc\nroot X\n")
    assert main(["sim", str(scn)]) == 2
    assert "E_IO" in capsys.readouterr().err


def test_sim_fatal_status(tmp_path, capsys):
    (tmp_path / "m.arc").write_text(
        "message M { n: integer; }\n"
        "component W { port in M i; behavior store(); }\n"
        "component Sys { port in M feed; component W w; connect feed -> w.i; }\n"
    )
    scn = tmp_path / "f.scn"
    scn.write_text("scenario f\nmodel m.arc\nroot Sys\nfault root/w at 1 boom\n")
    assert main(["sim", str(scn)]) == 3
    assert "fatal" in capsys.readouterr().out


def test_sim_trace_to_stdout(tmp_path, capsys):
    (tmp_path / "m.arc").write_text(POOL_TEXT)
    scn = tmp_path / "t.scn"
    scn.write_text(
        "scenario t\nmodel m.arc\nroot Pool\ninject feed at 1 Job{n=1}\n"
    )
    assert main(["sim", str(scn), "--trace", "-"]) == 0
    out = capsys.readouterr().out
    assert "\tSEND\t" in out and "\tDELIVER\t" in out


def test_sim_trace_to_file(tmp_path):
    (tmp_path / "m.arc").write_text(POOL_TEXT)
    scn = tmp_path / "t.scn"
    scn.write_text(
        "scenario t\nmodel m.arc\nroot Pool\ninject feed at 1 Job{n=1}\n"
    )
    trace = tmp_path / "t.trace"
    assert main(["sim", str(scn), "--trace", str(trace)]) == 0
    assert "\tSEND\t" in trace.read_text()


def test_sim_store_dump(tmp_path):
    (tmp_path / "m.arc").write_text(
        "message Job { n: integer; }\n"
        "component Keeper { port in Job i; behavior store(); }\n"
        "component Sys { port in Job feed; component Keeper k;"
        " connect feed -> k.i; }\n"
    )
    scn = tmp_path / "s.scn"
    scn.write_text(
        "scenario s\nmodel m.arc\nroot Sys\ninject feed at 1 Job{n=7}\n"
    )
    dump = tmp_path / "stores.tsv"
    assert main(["sim", str(scn), "--store", str(dump)]) == 0
    assert dump.read_text() == "root/k#0\t2\tJob{n=7}\n"


def test_sim_store_and_trace_to_stdout(tmp_path, monkeypatch, capsys):
    (tmp_path / "m.arc").write_text(ONE_STORE)
    (tmp_path / "s.scn").write_text(scenario("inject feed at 1 M{n=7}"))
    monkeypatch.chdir(tmp_path)
    assert main(["sim", "s.scn", "--store", "-"]) == 0
    assert capsys.readouterr().out.endswith("\nroot/w#0\t2\tM{n=7}\n")
    assert main(["sim", "s.scn", "--trace", "t.tsv"]) == 0
    report = capsys.readouterr().out
    trace = (tmp_path / "t.tsv").read_text()
    # with both on stdout, the store rows follow the trace
    assert main(["sim", "s.scn", "--trace", "-", "--store", "-"]) == 0
    assert capsys.readouterr().out == report + trace + "root/w#0\t2\tM{n=7}\n"
    assert not (tmp_path / "-").exists()


def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# --- robustness and the refactoring contract ---


def deep_nest_text(depth: int, outermost_first: bool) -> str:
    """D0 is atomic; each Dk wraps D(k-1) and passes its ports through."""
    types = ["component D0 { port in M i; port out M o; behavior forward(); }"]
    for k in range(1, depth):
        types.append(
            f"component D{k} {{ port in M i; port out M o; component D{k - 1} c;"
            " connect i -> c.i; connect c.o -> o; }"
        )
    if outermost_first:
        types.reverse()
    return "\n".join(["message M { n: integer; }", *types]) + "\n"


@pytest.mark.parametrize(
    "depth, outermost_first", [(1200, False), (1200, True), (5000, False)]
)
def test_deep_nesting_checks_and_simulates(tmp_path, capsys, depth, outermost_first):
    root = f"D{depth - 1}"
    (tmp_path / "deep.arc").write_text(deep_nest_text(depth, outermost_first))
    scn = tmp_path / "deep.scn"
    scn.write_text(
        f"scenario deep\nmodel deep.arc\nroot {root}\n"
        "inject i at 1 M{n=1}\nexpect count o 1\n"
    )
    assert main(["check", str(tmp_path / "deep.arc"), "--root", root]) == 0
    out = capsys.readouterr()
    assert f"{depth} instances, 2 channels" in out.out
    assert "Traceback" not in out.err
    assert main(["sim", str(scn)]) == 0
    out = capsys.readouterr()
    assert ": pass (steps 3, events 4)" in out.out
    assert "Traceback" not in out.err


ONE_STORE = (
    "message M { n: integer; }\n"
    "component W { port in M i; behavior store(); }\n"
    "component Sys { port in M feed; component W w; connect feed -> w.i; }\n"
)
ONE_GROUP = (
    "message M { n: integer; }\n"
    "component W { port in M i; port out M o; behavior forward(); }\n"
    "component Sys { port in M feed; replicating component W w;"
    " connect feed -> w.i; }\n"
)


def miswired(behavior: str) -> str:
    """A selection behavior whose out port feeds a plain instance."""
    return (
        "message M { n: integer; }\n"
        f"component R {{ port in M i; port out M o; behavior {behavior}; }}\n"
        "component W { port in M i; behavior store(); }\n"
        "component Sys { port in M feed; component R r; component W w;"
        " connect feed -> r.i; connect r.o -> w.i; }\n"
    )


def fan_out(width: int) -> str:
    """A root in port feeding `width` forward instances of one type."""
    subs = "".join(
        f" component F f{i}; connect feed -> f{i}.i; connect f{i}.o -> drain;"
        for i in range(width)
    )
    return (
        "message M { n: integer; }\n"
        "component F { port in M i; port out M o; behavior forward(); }\n"
        f"component Sys {{ port in M feed; port out M drain;{subs} }}\n"
    )


def scenario(*lines: str) -> str:
    return "scenario s\nmodel m.arc\nroot Sys\n" + "".join(f"{line}\n" for line in lines)


INJECT = "inject feed at 1 M{n=1}"
NOT_UTF8 = ONE_STORE.encode() + b"// \xff\n"
# more digits than int() converts by default (sys.get_int_max_str_digits())
HUGE = "9" * 5000
HUGE_EQUALS = (
    "message M { n: integer; }\n"
    f"component W {{ port in M i; port out M o; behavior approve_if(field=n, equals={HUGE}, out=o); }}\n"
)
HUGE_ERR = "E_SYNTAX: integer literal of 5000 digits is too long"
LONG_WORD = "z" * 5000
# a forward instance whose path is longer than the echo limit
LONG_FORWARD = (
    "message M { n: integer; }\n"
    "component F { port in M i; port out M o; behavior forward(); }\n"
    f"component Sys {{ port in M feed; component F {LONG_WORD}; connect feed -> {LONG_WORD}.i; }}\n"
)
# a decomposed instance whose path is longer than the echo limit
LONG_NEST = (
    ONE_STORE.replace("component Sys", "component N")
    + f"component Sys {{ port in M feed; component N {LONG_WORD}; connect feed -> {LONG_WORD}.feed; }}\n"
)
# sensor_channel.arc with one port retyped to an undeclared message type,
# as the mutation fuzzer in test_fuzz.py first did
SENSOR_TEXT = (MODELS_DIR / "sensor_channel.arc").read_text()
SENSOR_RANGE_VERDICT = SENSOR_TEXT.replace(
    "port out Verdict result;\n  behavior validate_range", "port out range result;\n  behavior validate_range"
)
SENSOR_STORE_UPDATE = SENSOR_TEXT.replace(
    "port in Update update;\n  port out Verdict result;\n  behavior approve_if",
    "port in store update;\n  port out Verdict result;\n  behavior approve_if",
)
SENSOR_SCENARIO = (SCENARIOS_DIR / "sensor_channel.scn").read_text().replace(
    "model ../models/sensor_channel.arc", "model m.arc"
)

# (files, command line, exit status, text expected on stderr)
PATHOLOGICAL = {
    "route_by_miswired": (
        {"m.arc": miswired("route_by(field=n)"), "s.scn": scenario(INJECT)},
        ["sim", "s.scn"], 2, "E_REPL_PORT",
    ),
    "broadcast_miswired": (
        {"m.arc": miswired("forward(broadcast=true)"), "s.scn": scenario(INJECT)},
        ["sim", "s.scn"], 2, "E_REPL_PORT",
    ),
    "check_route_by_miswired": (
        {"m.arc": miswired("route_by(field=n)")},
        ["check", "m.arc", "--root", "Sys"], 2, "E_REPL_PORT",
    ),
    "check_verdict_port_of_undeclared_type": (
        {"m.arc": SENSOR_RANGE_VERDICT}, ["check", "m.arc"], 2,
        "m.arc:26:3: E_UNRESOLVED: unknown message type 'range'\n",
    ),
    "sim_item_port_of_undeclared_type": (
        {"m.arc": SENSOR_STORE_UPDATE, "s.scn": SENSOR_SCENARIO}, ["sim", "s.scn"], 2,
        "m.arc:19:3: E_UNRESOLVED: unknown message type 'store'\nscenario ",
    ),
    "check_not_utf8": ({"m.arc": NOT_UTF8}, ["check", "m.arc"], 2, "E_IO"),
    "fmt_not_utf8": ({"m.arc": NOT_UTF8}, ["fmt", "m.arc"], 2, "E_IO"),
    "sim_model_not_utf8": (
        {"m.arc": NOT_UTF8, "s.scn": scenario(INJECT)}, ["sim", "s.scn"], 2, "E_IO",
    ),
    "sim_scenario_not_utf8": (
        {"m.arc": ONE_STORE, "s.scn": scenario(INJECT).encode() + b"\xff\n"},
        ["sim", "s.scn"], 2, "E_IO",
    ),
    "inject_superscript_digit": (
        {"m.arc": ONE_STORE, "s.scn": scenario("inject feed at 1 M{n=²}")},
        ["sim", "s.scn"], 2, "E_SYNTAX",
    ),
    "behavior_arg_superscript_digit": (
        {"m.arc": "message M { n: integer; }\n"
         "component C { port in M i; port out M o; behavior collect(n=²); }\n"},
        ["check", "m.arc"], 2, "E_SYNTAX",
    ),
    "check_integer_past_the_digit_limit": (
        {"m.arc": HUGE_EQUALS}, ["check", "m.arc"], 2, HUGE_ERR,
    ),
    "fmt_integer_past_the_digit_limit": (
        {"m.arc": HUGE_EQUALS}, ["fmt", "m.arc"], 2, HUGE_ERR,
    ),
    "inject_integer_past_the_digit_limit": (
        {"m.arc": ONE_STORE, "s.scn": scenario(f"inject feed at 1 M{{n={HUGE}}}")},
        ["sim", "s.scn"], 2, HUGE_ERR,
    ),
    "seed_past_the_digit_limit": (
        {"m.arc": ONE_STORE, "s.scn": scenario(f"seed {HUGE}", INJECT)},
        ["sim", "s.scn"], 2, "s.scn:4:1: E_SYNTAX: seed of 5000 digits is too long",
    ),
    "inject_step_past_the_digit_limit": (
        {"m.arc": ONE_STORE, "s.scn": scenario(f"inject feed at -{HUGE} M{{n=1}}")},
        ["sim", "s.scn"], 2, "s.scn:4:1: E_SYNTAX: step of 5000 digits is too long",
    ),
    "seed_word_past_the_echo_limit": (
        {"m.arc": ONE_STORE, "s.scn": scenario(f"seed {HUGE}x", INJECT)},
        ["sim", "s.scn"], 2,
        "s.scn:4:1: E_SYNTAX: seed must be an integer, got a word of 5001 characters",
    ),
    "latency_word_past_the_echo_limit": (
        {"m.arc": ONE_STORE, "s.scn": scenario(f"latency * {HUGE}x", INJECT)},
        ["sim", "s.scn"], 2,
        "s.scn:4:1: E_SYNTAX: latency must be an integer, got a word of 5001 characters",
    ),
    "scale_count_word_past_the_echo_limit": (
        {"m.arc": ONE_GROUP, "s.scn": scenario("scale root/w " + "a" * 3000 + " at 1")},
        ["sim", "s.scn"], 2,
        "s.scn:4:1: E_SYNTAX: count must be an integer, got a word of 3000 characters",
    ),
    "seed_word_at_the_echo_limit": (
        {"m.arc": ONE_STORE, "s.scn": scenario("seed " + "9" * 39 + "x", INJECT)},
        ["sim", "s.scn"], 2,
        "s.scn:4:1: E_SYNTAX: seed must be an integer, got '" + "9" * 39 + "x'",
    ),
    "directive_word_past_the_echo_limit": (
        {"m.arc": ONE_STORE, "s.scn": scenario(LONG_WORD, INJECT)},
        ["sim", "s.scn"], 2,
        "s.scn:4:1: E_SYNTAX: unknown directive a word of 5000 characters",
    ),
    "expectation_word_past_the_echo_limit": (
        {"m.arc": ONE_STORE, "s.scn": scenario(INJECT, f"expect {LONG_WORD} 1")},
        ["sim", "s.scn"], 2,
        "s.scn:5:1: E_SYNTAX: unknown expectation a word of 5000 characters",
    ),
    "event_kind_word_past_the_echo_limit": (
        {"m.arc": ONE_STORE, "s.scn": scenario(INJECT, f"expect event {LONG_WORD} root")},
        ["sim", "s.scn"], 2,
        "s.scn:5:1: E_SYNTAX: unknown event kind a word of 5000 characters",
    ),
    "store_path_word_past_the_echo_limit": (
        {"m.arc": ONE_STORE, "s.scn": scenario(INJECT, f"expect store root/{LONG_WORD} 1")},
        ["sim", "s.scn"], 2,
        "s.scn:5:1: E_UNRESOLVED: no atomic instance at a word of 5005 characters",
    ),
    "non_store_path_word_past_the_echo_limit": (
        {"m.arc": LONG_FORWARD, "s.scn": scenario(INJECT, f"expect store root/{LONG_WORD} 1")},
        ["sim", "s.scn"], 2,
        "s.scn:5:1: E_UNRESOLVED: a word of 5005 characters does not run a store behavior",
    ),
    "out_port_word_past_the_echo_limit": (
        {"m.arc": ONE_STORE, "s.scn": scenario(INJECT, f"expect count {LONG_WORD} 1")},
        ["sim", "s.scn"], 2,
        "s.scn:5:1: E_UNRESOLVED: the root component has no out port a word of 5000 characters",
    ),
    "message_type_word_past_the_echo_limit": (
        {"m.arc": ONE_STORE, "s.scn": scenario(f"inject feed at 1 {LONG_WORD}{{n=1}}")},
        ["sim", "s.scn"], 2,
        "s.scn:4:1: E_UNRESOLVED: unknown message type a word of 5000 characters",
    ),
    # the kernel's directive rules name a long word by its length too
    "strategy_path_word_past_the_echo_limit": (
        {"m.arc": ONE_STORE, "s.scn": scenario(f"strategy root/{LONG_WORD} resume")},
        ["sim", "s.scn"], 2,
        "s.scn:4:1: E_UNRESOLVED: unknown instance a word of 5005 characters\n",
    ),
    "strategy_and_inject_port_word_past_the_echo_limit": (
        {"m.arc": ONE_STORE, "s.scn": scenario(
            f"strategy root/{LONG_WORD} resume", f"inject {LONG_WORD} at 1 M{{n=1}}"
        )},
        ["sim", "s.scn"], 2,
        "s.scn:5:1: E_UNRESOLVED: the root component has no in port a word of 5000 characters\n",
    ),
    "strategy_word_past_the_echo_limit": (
        {"m.arc": ONE_STORE, "s.scn": scenario(f"strategy root {LONG_WORD}")},
        ["sim", "s.scn"], 2, "s.scn:4:1: E_SYNTAX: unknown strategy a word of 5000 characters\n",
    ),
    "scale_path_word_past_the_echo_limit": (
        {"m.arc": LONG_FORWARD, "s.scn": scenario(f"scale root/{LONG_WORD} 2 at 1")},
        ["sim", "s.scn"], 2,
        "s.scn:4:1: E_UNRESOLVED: a word of 5005 characters is not a replicating instance\n",
    ),
    "fault_path_word_past_the_echo_limit": (
        {"m.arc": LONG_NEST, "s.scn": scenario(f"fault root/{LONG_WORD} at 1 boom")},
        ["sim", "s.scn"], 2,
        "s.scn:4:1: E_UNRESOLVED: a word of 5005 characters is not an atomic instance\n",
    ),
    "prefix_integer_past_the_digit_limit": (
        {"m.arc": fan_out(1), "s.scn": scenario(INJECT, f"expect prefix drain M{{n=-{HUGE}}}")},
        ["sim", "s.scn"], 2, HUGE_ERR,
    ),
    "maxsteps_0": (
        {"m.arc": ONE_STORE, "s.scn": scenario("maxsteps 0", INJECT)},
        ["sim", "s.scn"], 1, "",
    ),
    "huge_fan_out": (
        {"m.arc": fan_out(3000), "s.scn": scenario(INJECT, "expect count drain 3000")},
        ["sim", "s.scn"], 0, "",
    ),
    "unwired_out_port": (
        {"m.arc": ONE_GROUP, "s.scn": scenario(INJECT)}, ["sim", "s.scn"], 0, "",
    ),
    "fault_on_retired_replica": (
        {"m.arc": ONE_GROUP, "s.scn": scenario(
            "scale root/w 2 at 0", "scale root/w 1 at 2", "fault root/w#1 at 5 boom"
        )},
        ["sim", "s.scn"], 2, "s.scn:6:1: E_UNRESOLVED: no replica root/w#1 at step 5",
    ),
    "fault_on_replica_never_started": (
        {"m.arc": ONE_GROUP, "s.scn": scenario(INJECT, "fault root/w#99 at 5 boom")},
        ["sim", "s.scn"], 2, "s.scn:5:1: E_UNRESOLVED: no replica root/w#99 at step 5",
    ),
    # a path below a regular file can never be created
    "trace_target_unwritable": (
        {"m.arc": ONE_STORE, "s.scn": scenario(INJECT)},
        ["sim", "s.scn", "--trace", "s.scn/t.tsv"], 2, "s.scn/t.tsv:0:0: E_IO:",
    ),
    "store_target_unwritable": (
        {"m.arc": ONE_STORE, "s.scn": scenario(INJECT)},
        ["sim", "s.scn", "--store", "s.scn/s.tsv"], 2, "s.scn/s.tsv:0:0: E_IO:",
    ),
}


@pytest.mark.parametrize("case", sorted(PATHOLOGICAL))
def test_pathological_input_ends_in_a_status(tmp_path, capsys, case):
    files, argv, status, expected_err = PATHOLOGICAL[case]
    for name, content in files.items():
        data = content if isinstance(content, bytes) else content.encode()
        (tmp_path / name).write_bytes(data)
    argv = [str(tmp_path / arg) if arg.split("/")[0] in files else arg for arg in argv]
    assert main(argv) == status
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert expected_err in err
    if case.endswith(("_past_the_digit_limit", "_past_the_echo_limit")):
        # the diagnostic names the length; it does not echo the word
        assert len(err.replace(str(tmp_path), "").encode()) < 200


# --- one output path for sim ---


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS_DIR.glob("*.scn")))
def test_stdout_targets_hold_the_verdict_then_the_file_targets(tmp_path, capsys, name):
    path = str(SCENARIOS_DIR / name)
    trace, store = tmp_path / "t.tsv", tmp_path / "s.tsv"
    assert main(["sim", path, "--trace", str(trace), "--store", str(store)]) == 0
    verdict = capsys.readouterr().out
    assert verdict.startswith("scenario ") and ": pass (" in verdict
    assert verdict.count("\n") == 1
    assert main(["sim", path, "--trace", "-", "--store", "-"]) == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == (verdict + trace.read_text() + store.read_text(), "")


BOOM = "fault root/w at 2 boom"
NO_REPLICA = "fault root/w#3 at 2 boom"
TWO_LINES = "1\tSEND\troot.feed->root/w.i\t1\t-\tM{n=1}\n2\tDELIVER\troot/w#0.i\t1\t-\tM{n=1}\n"
FATAL_TRACE = (
    "1\tSEND\troot.feed->root/w.i\t1\t-\tM{n=1}\n2\tRAISE\troot/w#0\t-\t-\tboom\n"
    "2\tESCALATE\troot/w\t-\t-\tboom\n2\tESCALATE\troot\t-\t-\tboom\n2\tFATAL\troot\t-\t-\tboom\n"
)
FATAL_LINE = "scenario s: fatal (unhandled fault 'boom' from root/w)\n"
FAIL_LINES = "scenario s: fail\n  store root/w 2: stores hold 1 rows\n"
NOT_A_DIR = ":0:0: E_IO: Not a directory\n"
NOT_RUNNABLE = (
    "s.scn:5:1: E_UNRESOLVED: no replica root/w#3 at step 2 to fault\nscenario s: not runnable\n"
)

# scenario directives after root, sim flags -> exit status, stdout, stderr,
# then the contents of t.tsv and s.tsv (None: not written). "s.scn/..." is
# below a regular file, so it can never be created.
SIM_OUTPUTS = {
    "trace_target_unwritable": (
        [INJECT], ["--trace", "s.scn/t.tsv", "--store", "s.tsv"],
        2, "", "s.scn/t.tsv" + NOT_A_DIR + "scenario s: trace not written\n", None, None,
    ),
    "store_target_unwritable": (
        [INJECT], ["--trace", "t.tsv", "--store", "s.scn/s.tsv"],
        2, "scenario s: pass (steps 2, events 2)\n", "s.scn/s.tsv" + NOT_A_DIR, TWO_LINES, None,
    ),
    "store_target_unwritable_trace_to_stdout": (
        [INJECT], ["--trace", "-", "--store", "s.scn/s.tsv"],
        2, "scenario s: pass (steps 2, events 2)\n" + TWO_LINES, "s.scn/s.tsv" + NOT_A_DIR,
        None, None,
    ),
    "kernel_error": (
        [INJECT, NO_REPLICA], ["--trace", "t.tsv", "--store", "s.tsv"],
        2, "", NOT_RUNNABLE, None, None,
    ),
    "kernel_error_to_stdout": (
        [INJECT, NO_REPLICA], ["--trace", "-", "--store", "-"], 2, "", NOT_RUNNABLE, None, None,
    ),
    "fatal": (
        [INJECT, BOOM], ["--trace", "t.tsv", "--store", "s.tsv"],
        3, FATAL_LINE, "", FATAL_TRACE, "",
    ),
    "fatal_to_stdout": (
        [INJECT, BOOM], ["--trace", "-", "--store", "-"],
        3, FATAL_LINE + FATAL_TRACE, "", None, None,
    ),
    "fatal_store_target_unwritable": (
        [INJECT, BOOM], ["--trace", "t.tsv", "--store", "s.scn/s.tsv"],
        3, FATAL_LINE, "s.scn/s.tsv" + NOT_A_DIR, FATAL_TRACE, None,
    ),
    "fail": (
        [INJECT, "expect store root/w 2"], ["--trace", "t.tsv", "--store", "s.tsv"],
        1, FAIL_LINES, "", TWO_LINES, "root/w#0\t2\tM{n=1}\n",
    ),
    "fail_to_stdout": (
        [INJECT, "expect store root/w 2"], ["--trace", "-", "--store", "-"],
        1, FAIL_LINES + TWO_LINES + "root/w#0\t2\tM{n=1}\n", "", None, None,
    ),
    "two_scenarios_with_trace": (
        [INJECT], ["s.scn", "--trace", "t.tsv"],
        2, "", "--trace and --store take a single scenario\n", None, None,
    ),
    "two_scenarios_with_store_to_stdout": (
        [INJECT], ["s.scn", "--store", "-"],
        2, "", "--trace and --store take a single scenario\n", None, None,
    ),
}


@pytest.mark.parametrize("case", sorted(SIM_OUTPUTS))
def test_sim_outputs_of_failing_runs_and_targets(tmp_path, monkeypatch, capsys, case):
    lines, flags, status, stdout, stderr, trace, store = SIM_OUTPUTS[case]
    (tmp_path / "m.arc").write_text(ONE_STORE)
    (tmp_path / "s.scn").write_text(scenario(*lines))
    monkeypatch.chdir(tmp_path)
    assert main(["sim", "s.scn", *flags]) == status
    assert capsys.readouterr() == (stdout, stderr)
    written = [p.read_text() if p.exists() else None for p in (tmp_path / "t.tsv", tmp_path / "s.tsv")]
    assert written == [trace, store]


# SHA-256 of (trace, store, stdout) for each bundled scenario. Any change to
# the kernel that alters a trace, however slightly, fails here.
PINNED_OUTPUTS = {
    "pipeline4.scn": (
        "d683dc105c3e859738e0c458fe0c8cc7d9c1adda0d798ff5ade1f421dd98d32e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6da41379623b921fb4195e756f4205417a190af777e9c3b2c508a4e4df7eb7e6",
    ),
    "request_chain.scn": (
        "ca0f2574e57626abcc5e6f3d5178df0076041f35ee16d660c1b705691a27cf94",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "d2f03184a7f1d6e1fcbabfb730faffaba7cade5aa412edbbbe2eb47f94d8b607",
    ),
    "sensor_channel.scn": (
        "0c6fc1978cc90735def0394476f3c67cb60eb3a917347babf170eaf75b720b31",
        "783fb2bd4e5a8fdab54d8900edffcd095561c9230c10938e7cdbfb2464dbde95",
        "0405ce3d6f0aee8e08de9283297bd0b487779a5d5d0db0b0ed3a8153b1916042",
    ),
    "supervised.scn": (
        "c4e0990b7d21fd99af07d1d9568b633d4fbef07f886de0dd71b97e42917c2c56",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "491c12412d252e6d1b37a8453809c1d46ce3dd5efb1890b87f067cf5a30d8a29",
    ),
}


def test_bundled_scenario_outputs_match_pinned_digests(tmp_path, capsys):
    paths = sorted(SCENARIOS_DIR.glob("*.scn"))
    assert sorted(p.name for p in paths) == sorted(PINNED_OUTPUTS)
    for path in paths:
        trace, store = tmp_path / "run.trace", tmp_path / "run.store"
        assert main(["sim", str(path), "--trace", str(trace), "--store", str(store)]) == 0
        stdout = capsys.readouterr().out.encode()
        got = tuple(
            hashlib.sha256(data).hexdigest()
            for data in (trace.read_bytes(), store.read_bytes(), stdout)
        )
        assert got == PINNED_OUTPUTS[path.name], path.name


def sim_in_a_new_process(path: str, hash_seed: str) -> subprocess.CompletedProcess:
    """`cloudadl sim PATH --trace - --store -` in a fresh interpreter."""
    src = str(PKG_ROOT / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "-c", "import sys; from cloudadl.cli import main; sys.exit(main())",
         "sim", path, "--trace", "-", "--store", "-"],
        env=env, capture_output=True, timeout=120, check=False,
    )


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_outputs_do_not_depend_on_string_hashing(name):
    # within one interpreter string hashing, and so set order, is fixed;
    # two interpreters with different hash seeds must still agree
    path = str(SCENARIOS_DIR / name)
    first, second = (sim_in_a_new_process(path, seed) for seed in ("0", "1"))
    assert first.returncode == 0, first.stderr
    assert first.stdout
    assert (second.returncode, second.stdout, second.stderr) == (
        first.returncode, first.stdout, first.stderr
    )
