"""Seeded random generators shared by the test modules.

Two kinds of output:

* random_model builds an ArchitectureModel object directly.  The result is
  syntactically printable but deliberately unchecked (dangling type refs and
  odd connectors are fine) so print/parse round-trips get wide coverage.
* pipeline_text builds a layered forward-DAG of forwarding stages that is
  semantically valid, for kernel ordering and delivery tests.
"""

from __future__ import annotations

import string
from random import Random

from cloudadl.model import (
    ArchitectureModel,
    BehaviorArg,
    BehaviorClause,
    ComponentTypeDef,
    ConnectorDecl,
    ContextDecl,
    Endpoint,
    FieldDef,
    Ident,
    MessageTypeDef,
    PortDecl,
    PRIMITIVES,
    SubcomponentDecl,
)
from cloudadl.parser import RESERVED

_TRICKY_STRINGS = (
    "",
    "plain",
    "with space",
    'quote " inside',
    "back\\slash",
    "line\nbreak",
    "tab\there",
    "mixed \\ \" \n \t end",
    "unicode µ λ",
)


def fresh_name(rng: Random, used: set[str], title: bool = False) -> str:
    while True:
        length = rng.randint(1, 8)
        body = "".join(rng.choice(string.ascii_lowercase) for _ in range(length))
        if rng.random() < 0.3:
            body += str(rng.randint(0, 99))
        if rng.random() < 0.2:
            body = body[:1] + "_" + body[1:]
        name = body.capitalize() if title else body
        if name in RESERVED or name in used:
            continue
        used.add(name)
        return name


def _random_value(rng: Random, used: set[str]):
    pick = rng.randrange(5)
    if pick == 0:
        return rng.randint(-1000, 1000)
    if pick == 1:
        return rng.random() < 0.5
    if pick == 2:
        return rng.choice(_TRICKY_STRINGS)
    if pick == 3:
        return Ident(fresh_name(rng, used))
    return rng.randint(0, 9)


def _random_endpoint(rng: Random, used: set[str]) -> Endpoint:
    depth = rng.choice((1, 1, 2, 2, 2, 3))
    return Endpoint(tuple(fresh_name(rng, set(used)) for _ in range(depth)))


def _random_component(rng: Random, name: str, type_names: list[str]) -> ComponentTypeDef:
    used: set[str] = set()
    ports = tuple(
        PortDecl(
            name=fresh_name(rng, used),
            direction=rng.choice(("in", "out")),
            message_type=rng.choice(type_names),
            replicating=rng.random() < 0.25,
        )
        for _ in range(rng.randint(0, 4))
    )
    subs = tuple(
        SubcomponentDecl(
            name=fresh_name(rng, used),
            type_ref=rng.choice(type_names),
            replicating=rng.random() < 0.25,
        )
        for _ in range(rng.randint(0, 3))
    )
    connectors = tuple(
        ConnectorDecl(_random_endpoint(rng, used), _random_endpoint(rng, used))
        for _ in range(rng.randint(0, 4))
    )
    ctx_used: set[str] = set(used)
    contexts = []
    for _ in range(rng.randint(0, 2)):
        opening = tuple(
            ConnectorDecl(_random_endpoint(rng, used), _random_endpoint(rng, used))
            for _ in range(rng.randint(1, 2))
        )
        closing = tuple(
            ConnectorDecl(_random_endpoint(rng, used), _random_endpoint(rng, used))
            for _ in range(rng.randint(0, 2))
        )
        contexts.append(ContextDecl(fresh_name(rng, ctx_used), opening, closing))
    behavior = None
    if rng.random() < 0.6:
        arg_used: set[str] = set()
        args = []
        named_started = False
        for _ in range(rng.randint(0, 3)):
            named_started = named_started or rng.random() < 0.5
            arg_name = fresh_name(rng, arg_used) if named_started else None
            args.append(BehaviorArg(arg_name, _random_value(rng, arg_used)))
        behavior = BehaviorClause(fresh_name(rng, set()), tuple(args))
    return ComponentTypeDef(
        name=name,
        ports=ports,
        subcomponents=subs,
        connectors=connectors,
        contexts=tuple(contexts),
        behavior=behavior,
    )


def random_model(rng: Random) -> ArchitectureModel:
    top: set[str] = set()
    msg_names = [fresh_name(rng, top, title=True) for _ in range(rng.randint(1, 3))]
    comp_names = [fresh_name(rng, top, title=True) for _ in range(rng.randint(1, 3))]
    messages = {}
    for name in msg_names:
        fields_used: set[str] = set()
        fields = tuple(
            FieldDef(fresh_name(rng, fields_used), rng.choice(PRIMITIVES))
            for _ in range(rng.randint(1, 3))
        )
        messages[name] = MessageTypeDef(name, fields)
    type_names = msg_names + comp_names
    components = {
        name: _random_component(rng, name, type_names) for name in comp_names
    }
    return ArchitectureModel(messages, components)


def pipeline_text(rng: Random) -> tuple[str, str, int]:
    """Layered forward-DAG model text.

    Returns (text, root type name, stage count).  Every stage forwards to at
    least one stage of the next layer, the last layer drains to the root out
    port, so each injected message fans out along every edge and all copies
    eventually surface on `drain`.
    """
    layers = [
        [f"n{d}_{i}" for i in range(rng.randint(1, 3))]
        for d in range(rng.randint(2, 4))
    ]
    lines = [
        "message Item { n: integer; }",
        "component Node {",
        "  port in Item i;",
        "  port out Item o;",
        "  behavior forward(out=o);",
        "}",
        "component Root {",
        "  port in Item feed;",
        "  port out Item drain;",
    ]
    for layer in layers:
        for node in layer:
            lines.append(f"  component Node {node};")
    edges: set[tuple[str, str]] = set()
    for node in layers[0]:
        edges.add(("feed", f"{node}.i"))
    for depth in range(1, len(layers)):
        for node in layers[depth]:
            src = rng.choice(layers[depth - 1])
            edges.add((f"{src}.o", f"{node}.i"))
        for src in layers[depth - 1]:
            tgt = rng.choice(layers[depth])
            edges.add((f"{src}.o", f"{tgt}.i"))
        for _ in range(rng.randint(0, 2)):
            src = rng.choice(layers[depth - 1])
            tgt = rng.choice(layers[depth])
            edges.add((f"{src}.o", f"{tgt}.i"))
    for node in layers[-1]:
        edges.add((f"{node}.o", "drain"))
    for src, tgt in sorted(edges):
        lines.append(f"  connect {src} -> {tgt};")
    lines.append("}")
    return "\n".join(lines) + "\n", "Root", sum(len(layer) for layer in layers)


def chain_text(rng: Random) -> tuple[str, str, int]:
    """Single-path pipeline text: one forwarding stage per layer.

    Unlike pipeline_text there is exactly one route from feed to drain, so
    the drain stream is independent of channel latencies.
    """
    count = rng.randint(2, 6)
    lines = [
        "message Item { n: integer; }",
        "component Node {",
        "  port in Item i;",
        "  port out Item o;",
        "  behavior forward(out=o);",
        "}",
        "component Root {",
        "  port in Item feed;",
        "  port out Item drain;",
    ]
    for i in range(count):
        lines.append(f"  component Node n{i};")
    lines.append("  connect feed -> n0.i;")
    for i in range(count - 1):
        lines.append(f"  connect n{i}.o -> n{i + 1}.i;")
    lines.append(f"  connect n{count - 1}.o -> drain;")
    lines.append("}")
    return "\n".join(lines) + "\n", "Root", count


POOL_TEXT = """
message Job { n: integer; }
component Worker {
  port in Job i;
  port out Job o;
  behavior forward(out=o);
}
component Pool {
  port in Job feed;
  port out Job drain;
  replicating component Worker w;
  connect feed -> w.i;
  connect w.o -> drain;
}
"""
