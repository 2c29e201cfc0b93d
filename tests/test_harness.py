"""Scenario harness reports and exit statuses."""

from __future__ import annotations

from cloudadl.harness import (
    STATUS_DIAGNOSTICS,
    STATUS_FAIL,
    STATUS_FATAL,
    STATUS_PASS,
    overall_status,
    render_stores,
    run_file,
)
from cloudadl.scenario import load_scenario, run_scenario

from helpers import SCENARIOS_DIR
from modelgen import POOL_TEXT


def write_case(tmp_path, body, model_text=POOL_TEXT, name="case"):
    (tmp_path / "m.arc").write_text(model_text)
    scn = tmp_path / f"{name}.scn"
    scn.write_text(f"scenario {name}\nmodel m.arc\n" + body)
    return str(scn)


def test_pass_report(tmp_path):
    path = write_case(
        tmp_path,
        "root Pool\ninject feed at 1 Job{n=1}\nexpect count drain 1\n",
    )
    report = run_file(path)
    assert report.status == STATUS_PASS
    assert len(report.lines) == 1
    assert report.lines[0].startswith("scenario case: pass (steps ")
    assert "events" in report.lines[0]


def test_fail_report_lists_failures(tmp_path):
    path = write_case(
        tmp_path,
        "root Pool\ninject feed at 1 Job{n=1}\n"
        "expect count drain 3\nexpect prefix drain Job{n=2}\n",
    )
    report = run_file(path)
    assert report.status == STATUS_FAIL
    assert report.lines[0] == "scenario case: fail"
    assert len(report.lines) == 3
    assert all(line.startswith("  ") for line in report.lines[1:])


def test_diagnostics_report(tmp_path):
    scn = tmp_path / "broken.scn"
    scn.write_text("scenario broken\nmodel absent.arc\nroot Pool\n")
    report = run_file(str(scn))
    assert report.status == STATUS_DIAGNOSTICS
    assert report.diagnostics
    assert report.lines[-1].endswith("not loadable")


def test_fatal_report(tmp_path):
    model_text = (
        "message M { n: integer; }\n"
        "component W { port in M i; behavior store(); }\n"
        "component Sys { port in M feed; component W w; connect feed -> w.i; }\n"
    )
    path = write_case(
        tmp_path, "root Sys\nfault root/w at 1 crash\n", model_text=model_text
    )
    report = run_file(path)
    assert report.status == STATUS_FATAL
    assert report.lines == [
        "scenario case: fatal (unhandled fault 'crash' from root/w)"
    ]


def test_trace_written(tmp_path):
    path = write_case(
        tmp_path, "root Pool\ninject feed at 1 Job{n=1}\n"
    )
    trace_path = tmp_path / "out.trace"
    run_file(path, str(trace_path))
    lines = trace_path.read_text().splitlines()
    assert any("\tSEND\t" in line for line in lines)
    assert any("\tDELIVER\t" in line for line in lines)


def test_kernel_error_is_a_diagnostic_and_writes_no_trace(tmp_path):
    # root/w has one replica, #0; the fault names #3
    path = write_case(
        tmp_path, "root Pool\ninject feed at 1 Job{n=1}\nfault root/w#3 at 2 boom\n"
    )
    trace_path = tmp_path / "out.trace"
    report = run_file(path, str(trace_path))
    assert report.status == STATUS_DIAGNOSTICS
    assert report.lines == [
        f"{path}:5:1: E_UNRESOLVED: no replica root/w#3 at step 2 to fault",
        "scenario case: not runnable",
    ]
    assert not trace_path.exists()


def test_run_files_and_overall_status(tmp_path):
    ok = write_case(
        tmp_path, "root Pool\ninject feed at 1 Job{n=1}\n", name="ok"
    )
    failing = write_case(
        tmp_path, "root Pool\nexpect count drain 5\n", name="failing"
    )
    reports = [run_file(ok), run_file(failing)]
    assert [r.status for r in reports] == [STATUS_PASS, STATUS_FAIL]
    assert overall_status(reports) == STATUS_FAIL
    assert overall_status([]) == STATUS_PASS


def test_render_stores():
    scenario, diags = load_scenario(str(SCENARIOS_DIR / "sensor_channel.scn"))
    assert scenario is not None, diags
    result = run_scenario(scenario)
    dump = render_stores(result.kernel)
    lines = dump.splitlines()
    assert len(lines) == 83
    assert lines[0].startswith("root/store#")
    subject, step, payload = lines[0].split("\t")
    assert payload.startswith("Update{")
    assert int(step) > 0
