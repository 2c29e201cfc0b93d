"""Seeded input generators for the three benchmark workloads.

Each generator writes `.arc` and `.scn` files into a directory and returns
an `Inputs` record naming them. The same (seed, size) always gives
byte-identical files. Sizes are fixed multisets that the seed only
permutes, so the amount of work in a run barely moves with the seed.

- stream:   many steps and directives, shallow in-flight, one growing store.
- sessions: the bundled sensor_channel and request_chain roots under one
            root; deep in-flight queues, contexts, replica selection.
- bigmodel: a long chain of two-level module instances; the front end and
            the per-group kernel cost dominate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

REPO = Path(__file__).resolve().parent.parent
BUNDLED_MODELS = REPO / "models"


@dataclass
class Inputs:
    """Generated files plus the facts an independent check needs."""

    name: str
    models: list[str]
    scenario: str
    root: str
    message_types: int
    component_types: int
    instances: int
    channels: int
    oracle: bool  # oracle.predict applies (no scaling, no faults)
    meta: dict = field(default_factory=dict)

    def check_lines(self) -> list[str]:
        """The stdout `cloudadl check <models> --root <root>` must print."""
        return [
            f"ok: {self.message_types} message types, "
            f"{self.component_types} component types",
            f"root {self.root}: {self.instances} instances, "
            f"{self.channels} channels",
        ]


def _rng(workload: str, seed: int) -> Random:
    return Random(f"cloudadl-bench:{workload}:{seed}")


def _write(directory: str, name: str, text: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _item(rng: Random, i: int) -> str:
    tag = rng.choice(("alpha", "beta", "gamma", "delta", "eps"))
    return f'Item{{n={rng.randint(-10**6, 10**6)}, tag="{tag}{i % 97}"}}'


ITEM_AND_STAGES = """\
message Item {
  n: integer;
  tag: text;
}

component Stage {
  port in Item a;
  port out Item b;
  behavior forward(out=b);
}

component Tap {
  port in Item a;
  behavior store();
}
"""

# ---------------------------------------------------------------------------
# stream

STREAM_STAGES = 8
# One latency per channel: feed->s1, s1->s2 ... s7->s8, s8->drain, s8->tap.
STREAM_LATENCIES = (1, 1, 1, 2, 2, 3, 3, 5, 8, 13)


def stream(directory: str, seed: int, steps: int) -> Inputs:
    """An 8-stage forward pipeline with one inject per step for `steps` steps."""
    rng = _rng("stream", seed)
    lines = [ITEM_AND_STAGES, "component Stream {", "  port in Item feed;", "  port out Item drain;"]
    lines += [f"  component Stage s{k};" for k in range(1, STREAM_STAGES + 1)]
    lines.append("  component Tap tap;")
    lines.append("  connect feed -> s1.a;")
    lines += [f"  connect s{k}.b -> s{k + 1}.a;" for k in range(1, STREAM_STAGES)]
    lines.append(f"  connect s{STREAM_STAGES}.b -> drain;")
    lines.append(f"  connect s{STREAM_STAGES}.b -> tap.a;")
    lines.append("}")
    arc = _write(directory, "stream.arc", "\n".join(lines) + "\n")

    last = f"root/s{STREAM_STAGES}"
    channel_ids = ["root.feed->root/s1.a"]
    channel_ids += [f"root/s{k}.b->root/s{k + 1}.a" for k in range(1, STREAM_STAGES)]
    channel_ids += [f"{last}.b->root.drain", f"{last}.b->root/tap.a"]
    latencies = list(STREAM_LATENCIES)
    rng.shuffle(latencies)
    to_drain = sum(latencies[: STREAM_STAGES + 1])

    payloads = [_item(rng, i) for i in range(steps)]
    scn = [
        "scenario stream",
        "model stream.arc",
        "root Stream",
        f"seed {seed}",
        f"maxsteps {steps + sum(latencies) + 10}",
    ]
    scn += [f"latency {cid} {lat}" for cid, lat in zip(channel_ids, latencies)]
    scn += [f"inject feed at {step} {p}" for step, p in enumerate(payloads, start=1)]
    scn.append(f"expect count drain {steps} by {steps + to_drain}")
    scn.append("expect prefix drain " + " ".join(payloads[:20]))
    scn.append(f"expect store root/tap {steps}")
    path = _write(directory, "stream.scn", "\n".join(scn) + "\n")
    return Inputs(
        "stream", [arc], path, "Stream",
        message_types=1, component_types=3,
        instances=STREAM_STAGES + 2, channels=STREAM_STAGES + 2, oracle=True,
        meta={"steps": steps},
    )


# ---------------------------------------------------------------------------
# sessions

SESSIONS_ROOT = """\
// Both bundled service roots side by side under one root.

component Sessions {
  port in Update update;
  port out Ack ack;
  port in Req task;
  port out Req done;
  component SensorChannel sensors;
  component RequestChain chains;
  connect update -> sensors.update;
  connect sensors.ack -> ack;
  connect task -> chains.task;
  connect chains.done -> done;
}
"""

STORE = "root/sensors/store"
CHAIN_A = "root/chains/a"
SLOW_CHANNELS = (
    ("root/sensors/handler.store->root/sensors/store.update", 60),
    ("root/chains/c.back->root/chains/a.back", 40),
)


def sessions(directory: str, seed: int, messages: int) -> Inputs:
    """Bursts of mixed sensor updates and chained requests, `messages` in all."""
    rng = _rng("sessions", seed)
    models = []
    for name in ("sensor_channel.arc", "request_chain.arc"):
        text = (BUNDLED_MODELS / name).read_text(encoding="utf-8")
        models.append(_write(directory, name, text))
    models.append(_write(directory, "sessions.arc", SESSIONS_ROOT))

    # Fixed shares, shuffled: half updates, a tenth out of range, a sixth forged.
    updates = messages // 2
    requests = messages - updates
    values = [rng.randint(0, 1000) for _ in range(updates - updates // 10)]
    values += [rng.randint(1001, 5000) for _ in range(updates // 10)]
    rng.shuffle(values)
    creds = ["forged"] * (updates // 6) + ["valid"] * (updates - updates // 6)
    rng.shuffle(creds)
    kinds = ["u"] * updates + ["r"] * requests
    rng.shuffle(kinds)

    sizes: list[int] = []
    while sum(sizes) < messages:
        sizes.append(1 + len(sizes) % 8)
    sizes[-1] -= sum(sizes) - messages
    rng.shuffle(sizes)
    gaps = [2 + i % 3 for i in range(len(sizes))]
    rng.shuffle(gaps)

    injects = []
    ack_ok = []
    req_bodies = []
    step, u, r, pos = 0, 0, 0, 0
    mid = None
    for j, (size, gap) in enumerate(zip(sizes, gaps)):
        step += gap
        if j == len(sizes) // 2:
            mid = step
        for kind in kinds[pos : pos + size]:
            if kind == "u":
                value, cred = values[u], creds[u]
                u += 1
                ack_ok.append(cred == "valid" and value <= 1000)
                injects.append(f'inject update at {step} Update{{value={value}, cred="{cred}"}}')
            else:
                body = f"r{r}-{rng.randint(0, 9999)}"
                r += 1
                req_bodies.append(body)
                injects.append(f'inject task at {step} Req{{body="{body}"}}')
        pos += size

    scn = [
        "scenario sessions",
        *(f"model {os.path.basename(m)}" for m in models),
        "root Sessions",
        f"seed {seed}",
        f"maxsteps {step + 1000}",
        *(f"latency {cid} {lat}" for cid, lat in SLOW_CHANNELS),
        f"scale {STORE} 3 at 0",
        f"scale {CHAIN_A} 4 at 0",
        f"scale {STORE} 5 at {mid}",
        f"scale {CHAIN_A} 2 at {mid}",
        *injects,
        f"expect count ack {updates}",
        f"expect count done {requests}",
        f"expect store {STORE} {sum(ack_ok)}",
        "expect prefix ack "
        + " ".join(f"Ack{{ok={'true' if ok else 'false'}}}" for ok in ack_ok[:12]),
        "expect prefix done " + " ".join(f'Req{{body="{b}"}}' for b in req_bodies[:12]),
        f"expect event SCALE {CHAIN_A}",
    ]
    path = _write(directory, "sessions.scn", "\n".join(scn) + "\n")
    return Inputs(
        "sessions", models, path, "Sessions",
        message_types=4, component_types=10, instances=10, channels=12, oracle=False,
        meta={"messages": messages, "steps": step},
    )


# ---------------------------------------------------------------------------
# bigmodel

MODULES_PER_TYPE = 5


def bigmodel(directory: str, seed: int, width: int) -> Inputs:
    """A root chaining `width` two-level modules drawn from width/5 types."""
    rng = _rng("bigmodel", seed)
    types = max(1, width // MODULES_PER_TYPE)
    stage_counts = [1 + i % 4 for i in range(types)]
    rng.shuffle(stage_counts)
    blocks = [ITEM_AND_STAGES]
    for t, stages in enumerate(stage_counts):
        inner = [f"component Sec{t} {{", "  port in Item i;", "  port out Item o;"]
        inner += [f"  component Stage x{k};" for k in range(stages)]
        inner.append("  connect i -> x0.a;")
        inner += [f"  connect x{k}.b -> x{k + 1}.a;" for k in range(stages - 1)]
        inner.append(f"  connect x{stages - 1}.b -> o;")
        inner.append("}")
        blocks.append("\n".join(inner) + "\n")
        blocks.append(
            f"component Mod{t} {{\n"
            "  port in Item i;\n"
            "  port out Item o;\n"
            f"  component Sec{t} s;\n"
            "  connect i -> s.i;\n"
            "  connect s.o -> o;\n"
            f"  context c{t} {{\n"
            "    open i -> s.i;\n"
            "    close s.o -> o;\n"
            "  }\n"
            "}\n"
        )
    order = [i % types for i in range(width)]
    rng.shuffle(order)
    root = ["component Big {", "  port in Item feed;", "  port out Item drain;"]
    root += [f"  component Mod{t} m{k};" for k, t in enumerate(order)]
    root.append("  component Tap tap;")
    root.append("  connect feed -> m0.i;")
    root += [f"  connect m{k}.o -> m{k + 1}.i;" for k in range(width - 1)]
    root.append(f"  connect m{width - 1}.o -> drain;")
    root.append(f"  connect m{width - 1}.o -> tap.a;")
    root.append("}")
    blocks.append("\n".join(root) + "\n")
    arc = _write(directory, "bigmodel.arc", "\n".join(blocks))

    total_stages = sum(stage_counts[t] for t in order)
    payloads = [_item(rng, i) for i in range(6)]
    scn = [
        "scenario bigmodel",
        "model bigmodel.arc",
        "root Big",
        f"seed {seed}",
        f"maxsteps {total_stages + 100}",
        *(f"inject feed at {k} {p}" for k, p in enumerate(payloads, start=1)),
        f"expect count drain {len(payloads)} by {len(payloads) + total_stages + 1}",
        "expect prefix drain " + " ".join(payloads),
        f"expect store root/tap {len(payloads)}",
    ]
    path = _write(directory, "bigmodel.scn", "\n".join(scn) + "\n")
    return Inputs(
        "bigmodel", [arc], path, "Big",
        message_types=1, component_types=3 + 2 * types,
        instances=2 + 2 * width + total_stages, channels=total_stages + 2, oracle=True,
        meta={"width": width, "types": types, "stages": total_stages},
    )


GENERATORS = {"stream": stream, "sessions": sessions, "bigmodel": bigmodel}
