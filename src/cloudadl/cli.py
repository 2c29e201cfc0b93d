"""Command line entry points: check, fmt, and sim."""

from __future__ import annotations

import argparse
import sys

from .analyzer import check, check_selection_ports, elaborate
from .diagnostics import io_error, render_all
from .harness import STATUS_DIAGNOSTICS, STATUS_PASS, overall_status, run_file
from .parser import load_files, parse_model, read_source
from .printer import pretty_print


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudadl",
        description="Check, format, and simulate component-and-connector models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and validate model files")
    p_check.add_argument("files", nargs="+", metavar="MODEL")
    p_check.add_argument(
        "--root", help="also elaborate with this root component type"
    )
    p_check.add_argument(
        "--topology",
        action="store_true",
        help="print instances and channels (needs --root)",
    )
    p_check.set_defaults(func=cmd_check)

    p_fmt = sub.add_parser("fmt", help="print models in canonical form")
    p_fmt.add_argument("files", nargs="+", metavar="MODEL")
    p_fmt.add_argument(
        "--write", action="store_true", help="rewrite the files in place"
    )
    p_fmt.set_defaults(func=cmd_fmt)

    p_sim = sub.add_parser("sim", help="run scenario files")
    p_sim.add_argument("files", nargs="+", metavar="SCENARIO")
    p_sim.add_argument(
        "--trace",
        metavar="FILE",
        help="write the event trace of a single scenario ('-' for stdout)",
    )
    p_sim.add_argument(
        "--store",
        metavar="FILE",
        help="write store contents of a single scenario after the run"
        " ('-' for stdout, after the trace)",
    )
    p_sim.set_defaults(func=cmd_sim)
    return parser


def cmd_check(args: argparse.Namespace) -> int:
    topology = None
    model, diags = load_files(args.files)
    if model is not None:
        diags = check(model, args.root)
        if args.root and not diags:
            topology = elaborate(model, args.root)
            diags = check_selection_ports(topology)
    if diags:
        print(render_all(diags), file=sys.stderr)
        return STATUS_DIAGNOSTICS
    print(
        f"ok: {len(model.message_types)} message types, "
        f"{len(model.component_types)} component types"
    )
    if topology is not None:
        print(
            f"root {args.root}: {len(topology.instances)} instances, "
            f"{len(topology.channels)} channels"
        )
        if args.topology:
            for inst in topology.instances.values():
                kind = "atomic" if inst.atomic else "decomposed"
                repl = " replicating" if inst.replicating else ""
                print(f"  {inst.path} ({inst.type_def.name}, {kind}{repl})")
            for ch in topology.channels:
                print(f"  {ch.id} [latency {ch.latency}]")
    return STATUS_PASS


def cmd_fmt(args: argparse.Namespace) -> int:
    status = STATUS_PASS
    for path in args.files:
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
        if args.write:
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


def cmd_sim(args: argparse.Namespace) -> int:
    if (args.trace or args.store) and len(args.files) > 1:
        print("--trace and --store take a single scenario", file=sys.stderr)
        return STATUS_DIAGNOSTICS
    return overall_status([run_file(path, args.trace, args.store) for path in args.files])


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "check" and args.topology and not args.root:
        parser.error("check: --topology needs --root")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
