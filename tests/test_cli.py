"""End-to-end CLI runs through main(argv)."""

from __future__ import annotations

import hashlib

import pytest

from cloudadl.cli import main

from helpers import MODELS_DIR, SCENARIOS_DIR
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


def scenario(*lines: str) -> str:
    return "scenario s\nmodel m.arc\nroot Sys\n" + "".join(f"{line}\n" for line in lines)


INJECT = "inject feed at 1 M{n=1}"
NOT_UTF8 = ONE_STORE.encode() + b"// \xff\n"

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
    "maxsteps_0": (
        {"m.arc": ONE_STORE, "s.scn": scenario("maxsteps 0", INJECT)},
        ["sim", "s.scn"], 1, "",
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
