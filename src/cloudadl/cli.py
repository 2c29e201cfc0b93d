"""Command line entry points: check, fmt, and sim.

COMMANDS holds each command's function and options. `main` reads a plain
command line straight from that table; any other line (help, a usage error,
an abbreviation, `--opt=value`) goes to the argparse parser that
`build_parser` builds from the same table, so every help text, error text
and exit status is argparse's own. argparse is imported only then: its
import and the parser's construction cost more than a `check` or `fmt` run
on a small model.
"""

from __future__ import annotations

import errno
import os
import sys

from .analyzer import check, check_selection_ports, elaborate
from .diagnostics import io_error, render_all
from .harness import STATUS_DIAGNOSTICS, STATUS_PASS, overall_status, run_file
from .parser import load_files, parse_model, read_source
from .printer import pretty_print


def cmd_check(files: list[str], root: str | None, topology: bool) -> int:
    topo = None
    model, diags = load_files(files)
    if model is not None:
        diags = check(model, root)
        if root and not diags:
            topo = elaborate(model, root)
            diags = check_selection_ports(topo)
    if diags:
        print(render_all(diags), file=sys.stderr)
        return STATUS_DIAGNOSTICS
    print(
        f"ok: {len(model.message_types)} message types, "
        f"{len(model.component_types)} component types"
    )
    if topo is not None:
        print(
            f"root {root}: {len(topo.instances)} instances, "
            f"{len(topo.channels)} channels"
        )
        if topology:
            for inst in topo.instances.values():
                kind = "atomic" if inst.atomic else "decomposed"
                repl = " replicating" if inst.replicating else ""
                print(f"  {inst.path} ({inst.type_def.name}, {kind}{repl})")
            for ch in topo.channels:
                print(f"  {ch.id} [latency {ch.latency}]")
    return STATUS_PASS


def cmd_fmt(files: list[str], write: bool) -> int:
    status = STATUS_PASS
    for path in files:
        text, diags = read_source(path)
        if text is None:
            print(render_all(diags), file=sys.stderr)
            status = STATUS_DIAGNOSTICS
            continue
        model, diags = parse_model(text, path)
        if model is None:
            print(render_all(diags), file=sys.stderr)
            status = STATUS_DIAGNOSTICS
            continue
        formatted = pretty_print(model)
        if write:
            if formatted != text:
                try:
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(formatted)
                except OSError as exc:
                    print(io_error(path, exc).render(), file=sys.stderr)
                    status = STATUS_DIAGNOSTICS
        else:
            sys.stdout.write(formatted)
    return status


def cmd_sim(files: list[str], trace: str | None, store: str | None) -> int:
    if (trace or store) and len(files) > 1:
        print("--trace and --store take a single scenario", file=sys.stderr)
        return STATUS_DIAGNOSTICS
    return overall_status([run_file(path, trace, store) for path in files])


FLAG = None  # the metavar slot of an option that takes no value

# name -> (function, help, metavar of the files, options in help order).
# An option maps its name to (metavar, help); its value reaches the function
# as the keyword named by the option without its leading "--".
COMMANDS = {
    "check": (cmd_check, "parse and validate model files", "MODEL", {
        "--root": ("ROOT", "also elaborate with this root component type"),
        "--topology": (FLAG, "print instances and channels (needs --root)"),
    }),
    "fmt": (cmd_fmt, "print models in canonical form", "MODEL", {
        "--write": (FLAG, "rewrite the files in place"),
    }),
    "sim": (cmd_sim, "run scenario files", "SCENARIO", {
        "--trace": (
            "FILE", "write the event trace of a single scenario ('-' for stdout)"
        ),
        "--store": (
            "FILE",
            "write store contents of a single scenario after the run"
            " ('-' for stdout, after the trace)",
        ),
    }),
}


def build_parser():
    """The argparse parser for COMMANDS (an argparse.ArgumentParser)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="cloudadl",
        description="Check, format, and simulate component-and-connector models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_func, help_, files_metavar, options) in COMMANDS.items():
        p_command = sub.add_parser(name, help=help_)
        p_command.add_argument("files", nargs="+", metavar=files_metavar)
        for option, (metavar, option_help) in options.items():
            if metavar is FLAG:
                p_command.add_argument(option, action="store_true", help=option_help)
            else:
                p_command.add_argument(option, metavar=metavar, help=option_help)
    return parser


def read_plain(argv: list[str]) -> dict | None:
    """What argparse would read from a plain command line; None for any other.

    A plain line is a command, one unbroken run of one or more files, and
    exact long options, each given at most once, whose value is a word that
    does not start with "-" or is exactly "-". Splitting the files by an
    option is not plain: argparse takes only the first run and rejects the
    rest as unrecognized arguments.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    options = COMMANDS[argv[0]][3]
    values = {"command": argv[0], "files": None}
    for option, (metavar, _help) in options.items():
        values[option[2:]] = False if metavar is FLAG else None
    files: list[str] = []
    after_files = False  # an option has followed the run of files
    seen = set()
    index, end = 1, len(argv)
    while index < end:
        word = argv[index]
        index += 1
        if word == "-" or word[:1] != "-":
            if after_files:
                return None
            files.append(word)
            continue
        if word not in options or word in seen:
            return None
        seen.add(word)
        after_files = bool(files)
        if options[word][0] is FLAG:
            values[word[2:]] = True
            continue
        if index == end:
            return None
        value = argv[index]
        index += 1
        if value != "-" and value[:1] == "-":
            return None
        values[word[2:]] = value
    if not files:
        return None
    values["files"] = files
    return values


def usage_problem(values: dict) -> str | None:
    """A usage error that argparse cannot see on its own."""
    if values["command"] == "check" and values["topology"] and not values["root"]:
        return "check: --topology needs --root"
    return None


def parse_args(argv: list[str]) -> dict:
    """argv read by argparse, which prints help or a usage error and exits."""
    parser = build_parser()
    values = vars(parser.parse_args(argv))
    problem = usage_problem(values)
    if problem:
        parser.error(problem)
    return values


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    values = read_plain(argv)
    if values is None or usage_problem(values):
        values = parse_args(argv)
    func = COMMANDS[values.pop("command")][0]
    streams = sys.stdout, sys.stderr
    # None when the process started without fd 1 or fd 2; print() would
    # then drop the text or send it to the other stream
    sys.stdout, sys.stderr = (_CLOSED if s is None else s for s in streams)
    try:
        status = func(**values)
        sys.stdout.flush()
    except OSError as exc:
        # Every file a command opens reports its own errors as E_IO, so an
        # OSError that gets here is a failed write to stdout (a closed pipe,
        # a full disk, no fd 1) or to stderr, which only diagnostics reach:
        # status 2 either way.
        status = STATUS_DIAGNOSTICS
        try:
            sys.stdout.flush()
        except OSError:
            _discard_stdout()
        try:
            print(io_error("-", exc).render(), file=sys.stderr)
        except OSError:
            pass  # stderr cannot be written either
    finally:
        sys.stdout, sys.stderr = streams
    return status


class _Closed:
    """Stands in for a standard stream the process started without: each
    write fails as on a closed descriptor, and a flush has nothing to do."""

    def write(self, text: str) -> int:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))

    def flush(self) -> None:
        pass


_CLOSED = _Closed()


def _discard_stdout() -> None:
    """Point the process's stdout at the null device, so that the flush at
    exit does not fail again on the output still buffered. A stream that an
    in-process caller put in place of stdout is left alone."""
    if sys.stdout is not sys.__stdout__:
        return
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
