"""Correctness checks on the outputs of benchmark ops.

The first op of each kind is checked in full against independent
references (the sequential oracle, trace invariants, a parse round-trip,
counts the generator knows). Its output digests then become the reference
that every later op of that kind, traced or not, must match byte for byte.
"""

from __future__ import annotations

import hashlib

from cloudadl.oracle import predict
from cloudadl.parser import load_files, parse_model
from cloudadl.scenario import load_scenario


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def read_bytes(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def trace_rows(text: str):
    """Yield (step, kind, subject, seq, tokens, payload) per trace line."""
    for line in text.splitlines():
        step, kind, subject, seq, tokens, payload = line.split("\t")
        yield (
            int(step),
            kind,
            subject,
            None if seq == "-" else int(seq),
            () if tokens == "-" else tuple(tokens.split(",")),
            payload,
        )


def _target(subject: str) -> tuple[str, str, int | None]:
    """'root/a#2.port' -> ('root/a', 'port', 2); 'root.port' -> ('root', 'port', None)."""
    where, port = subject.rsplit(".", 1)
    if "#" in where:
        path, rid = where.split("#")
        return path, port, int(rid)
    return where, port, None


def trace_shape(text: str) -> dict[str, int]:
    """Counts read off the rendered trace alone."""
    steps = set()
    in_flight = peak = activations = 0
    for step, kind, subject, _seq, _tokens, _payload in trace_rows(text):
        steps.add(step)
        if kind == "SEND":
            in_flight += 1
            peak = max(peak, in_flight)
        elif kind == "DELIVER":
            in_flight -= 1
            if not subject.startswith("root."):
                activations += 1
    return {
        "steps_with_events": len(steps),
        "peak_in_flight": peak,
        "activations": activations,
    }


def check_delivery(text: str) -> list[str]:
    """Per-channel FIFO, exactly-once delivery and sticky routing.

    A DELIVER line names its target, not its channel; the channel is the
    one SEND channel id ending in that target, which must be unique.
    """
    problems: list[str] = []
    by_target: dict[tuple[str, str], str] = {}
    pending: dict[str, list[int]] = {}  # channel -> sent seqs not yet delivered
    bindings: dict[tuple[str, str], int] = {}
    for step, kind, subject, seq, tokens, _payload in trace_rows(text):
        if kind == "SEND":
            tail = subject.rpartition("->")[2]
            target = _target(tail)[:2]
            known = by_target.setdefault(target, subject)
            if known != subject:
                problems.append(f"two channels end at {tail}; cannot attribute deliveries")
                return problems
            pending.setdefault(subject, []).append(seq)
        elif kind == "BIND":
            path, rid = subject.split("#")
            for tok in tokens:
                bindings[(path, tok)] = int(rid)
        elif kind == "DELIVER":
            path, port, rid = _target(subject)
            channel = by_target.get((path, port))
            queue = pending.get(channel)
            if not queue or seq not in queue:
                problems.append(f"step {step}: {subject} seq {seq} was never sent or came twice")
                continue
            if seq != queue[0]:
                problems.append(f"step {step}: {channel} delivered seq {seq} out of order")
            queue.remove(seq)
            for tok in tokens:
                bound = bindings.get((path, tok))
                if bound is not None and bound != rid:
                    problems.append(
                        f"step {step}: {tok} bound to {path}#{bound} reached #{rid}"
                    )
        if len(problems) > 5:
            break
    for channel, queue in pending.items():
        if queue:
            problems.append(f"{channel}: {len(queue)} messages sent but never delivered")
    return problems


def check_oracle(scenario_path: str, trace_text: str, store_text: str) -> list[str]:
    """The drain streams and store rows equal what oracle.predict computes."""
    scn, diags = load_scenario(scenario_path)
    if scn is None:
        return [d.render() for d in diags]
    expected = predict(scn)
    problems = []
    streams: dict[str, list[str]] = {port: [] for port in expected.streams}
    for _step, kind, subject, _seq, _tokens, payload in trace_rows(trace_text):
        if kind == "DELIVER" and subject.startswith("root."):
            streams.setdefault(subject[len("root."):], []).append(payload)
    for port, records in expected.streams.items():
        if streams[port] != [r.render() for r in records]:
            problems.append(f"stream {port} differs from the oracle")
    stores: dict[str, list[str]] = {path: [] for path in expected.stores}
    for line in store_text.splitlines():
        where, _step, payload = line.split("\t")
        stores.setdefault(where.split("#")[0], []).append(payload)
    for path, records in expected.stores.items():
        if stores[path] != [r.render() for r in records]:
            problems.append(f"store {path} differs from the oracle")
    return problems


def check_fmt(model_paths: list[str], output: str) -> list[str]:
    """Parsing what fmt printed gives the same model as parsing its inputs."""
    original, diags = load_files(model_paths)
    if original is None:
        return [d.render() for d in diags]
    again, diags = parse_model(output, "<fmt output>")
    if again is None:
        return ["fmt output does not parse: " + "; ".join(d.render() for d in diags)]
    if again != original:
        return ["parse -> fmt -> parse changed the model"]
    return []
