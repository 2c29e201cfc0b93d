"""Reference interpreter for predicting run results independently.

Computes the expected root out streams and store contents of a scenario
with a deliberately different execution scheme than the kernel: one
replica per instance, immediate delivery, a single work queue, no steps.
Useful as a cross-check wherever its simplifications cannot change the
outcome; it refuses models whose results depend on timing, replication,
randomness, or supervision.

Applicability: every behavior must be deterministic and timing-free (no
sample or fault_at), send without broadcast or index selection (no
route_by, no forward(broadcast=true)), and never raise; the scenario must
not scale or fault. Outputs are then fixed by per-channel FIFO order
alone, provided each in port is fed by at most one channel or the
receiving behavior is insensitive to cross-port interleaving.
"""

from __future__ import annotations

from collections import deque
from random import Random

from .analyzer import elaborate
from .behaviors import MODE_ONE, ActivationContext, Raise
from .model import OUT, Record
from .scenario import Scenario
from .values import Value

EXCLUDED_BUILTINS = ("sample", "fault_at", "route_by")

WORK_LIMIT = 1_000_000


class OracleInapplicable(Exception):
    pass


class OracleResult(Value):
    _fields = ("streams", "stores")

    def __init__(
        self,
        streams: dict[str, list[Record]] | None = None,
        stores: dict[str, list[Record]] | None = None,
    ):
        self.streams = {} if streams is None else streams
        self.stores = {} if stores is None else stores


def predict(scenario: Scenario) -> OracleResult:
    if scenario.faults:
        raise OracleInapplicable("scenario injects faults")
    if scenario.scales:
        raise OracleInapplicable("scenario changes replica counts")

    topology = elaborate(scenario.model, scenario.root_type)
    behaviors: dict[str, object] = {}
    states: dict[str, object] = {}
    for inst in topology.instances.values():
        if not inst.atomic or inst.type_def.behavior is None:
            continue
        clause = inst.type_def.behavior
        if clause.builtin in EXCLUDED_BUILTINS:
            raise OracleInapplicable(f"behavior '{clause.builtin}' is timing-dependent")
        behavior = inst.behavior
        if behavior.mode != MODE_ONE:
            raise OracleInapplicable("behavior uses broadcast selection")
        behaviors[inst.path] = behavior
        states[inst.path] = behavior.initial_state()

    result = OracleResult()
    for p in topology.root.type_def.ports:
        if p.direction == OUT:
            result.streams[p.name] = []
    ctx = ActivationContext(0, Random(0))
    work: deque = deque()
    for inj in sorted(
        enumerate(scenario.injections), key=lambda pair: (pair[1].step, pair[0])
    ):
        injection = inj[1]
        for ch in topology.channels_from.get(("root", injection.port), []):
            work.append((ch, injection.payload))

    pops = 0
    while work:
        pops += 1
        if pops > WORK_LIMIT:
            raise OracleInapplicable("model does not settle")
        ch, payload = work.popleft()
        if ch.external:
            result.streams[ch.target_port].append(payload)
            continue
        path = ch.target_path
        behavior = behaviors[path]
        state, actions = behavior.handle(states[path], ch.target_port, payload, ctx)
        for act in actions:
            if isinstance(act, Raise):
                raise OracleInapplicable(f"behavior at {path} raised '{act.kind}'")
            if act.mode != MODE_ONE:
                raise OracleInapplicable("behavior uses replica selection")
        states[path] = state
        for act in actions:
            for ch2 in topology.channels_from.get((path, act.port), []):
                work.append((ch2, act.payload))
    # store rows are read once, from the final states
    for inst in topology.instances.values():
        if inst.atomic and inst.type_def.behavior is not None:
            if inst.type_def.behavior.builtin == "store":
                result.stores[inst.path] = [row[1] for row in states[inst.path]]
    return result
