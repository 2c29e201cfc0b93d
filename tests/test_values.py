"""Value semantics of the record classes: ==, hash, immutability, repr.

The tables name every record class of the package, with a maker that puts
a distinguishing value in a compared field and a source position, where
the class has one, in its position field.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import cloudadl
from cloudadl import lexer
from cloudadl.analyzer import ChannelSpec, InstanceSpec, RuntimeTopology
from cloudadl.behaviors import Guard
from cloudadl.diagnostics import Diagnostic
from cloudadl.harness import RunReport
from cloudadl.kernel import Replica
from cloudadl.lexer import Token
from cloudadl.model import (
    IN,
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
    Record,
    SubcomponentDecl,
)
from cloudadl.oracle import OracleResult
from cloudadl.scenario import Scenario, ScenarioResult, _RawScenario
from cloudadl.values import Frozen, Value

P1 = ("a.arc", 1, 2)
P2 = ("b.arc", 3, 4)


def cdef(name, pos=P1):
    return ComponentTypeDef(name, (), (), (), (), None, pos)


FROZEN = {
    FieldDef: lambda pos, x: FieldDef(x, "integer", pos),
    MessageTypeDef: lambda pos, x: MessageTypeDef(x, (), pos),
    PortDecl: lambda pos, x: PortDecl(x, IN, "M", False, pos),
    SubcomponentDecl: lambda pos, x: SubcomponentDecl(x, "T", False, pos),
    Endpoint: lambda pos, x: Endpoint((x, "p"), pos),
    ConnectorDecl: lambda pos, x: ConnectorDecl(Endpoint((x,)), Endpoint(("y",)), pos),
    ContextDecl: lambda pos, x: ContextDecl(x, (), (), pos),
    Ident: lambda pos, x: Ident(x),
    BehaviorArg: lambda pos, x: BehaviorArg("n", x),
    BehaviorClause: lambda pos, x: BehaviorClause(x, (), pos),
    ComponentTypeDef: lambda pos, x: cdef(x, pos),
    Record: lambda pos, x: Record("M", (("n", x),)),
    Diagnostic: lambda pos, x: Diagnostic("E_SYNTAX", "m.arc", 1, 1, x),
    Guard: lambda pos, x: Guard("n", "=", x),
}

MUTABLE = {
    ArchitectureModel: lambda pos, x: ArchitectureModel({x: MessageTypeDef(x, (), pos)}),
    Token: lambda pos, x: Token(lexer.IDENT, x, 1, 1),
    Replica: lambda pos, x: Replica(0, None, None, x, {}),
    # a fresh behavior object each time: it is not compared
    InstanceSpec: lambda pos, x: InstanceSpec(x, cdef("T", pos), None, False, object()),
    ChannelSpec: lambda pos, x: ChannelSpec(x, "root", "a", "root/w", "i", "M", False, False, ()),
    RuntimeTopology: lambda pos, x: RuntimeTopology(x, {}, []),
    RunReport: lambda pos, x: RunReport(x, 0),
    OracleResult: lambda pos, x: OracleResult({x: []}),
    Scenario: lambda pos, x: Scenario(x, "s.scn", ArchitectureModel(), "Sys"),
    ScenarioResult: lambda pos, x: ScenarioResult(None, x, [], None),
    _RawScenario: lambda pos, x: _RawScenario(x),
}

SLOTTED = {Token}

# fields whose default is a fresh container per instance
DEFAULT_CONTAINERS = {
    ArchitectureModel: (lambda: ArchitectureModel(), ("message_types", "component_types")),
    Replica: (lambda: Replica(0, None, None, "root/w#0", {}), ("held",)),
    RunReport: (lambda: RunReport("s.scn", 0), ("lines", "diagnostics")),
    OracleResult: (lambda: OracleResult(), ("streams", "stores")),
    Scenario: (
        lambda: Scenario("s", "s.scn", ArchitectureModel(), "Sys"),
        ("latency_overrides", "strategies", "injections", "scales", "faults", "expectations"),
    ),
    _RawScenario: (
        lambda: _RawScenario(),
        ("model_paths", "latency_overrides", "strategies", "scales", "faults",
         "injections", "expectations"),
    ),
}


def name_of(cls) -> str:
    return cls.__name__


def test_the_tables_name_every_record_class():
    for info in pkgutil.iter_modules(cloudadl.__path__):
        importlib.import_module(f"cloudadl.{info.name}")
    defined, todo = set(), [Value]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("cloudadl.") and cls is not Frozen:
                defined.add(cls)
    listed = {*FROZEN, *MUTABLE}
    assert sorted(map(name_of, defined - listed)) == []
    assert sorted(map(name_of, listed - defined)) == []


@pytest.mark.parametrize("cls", [*FROZEN, *MUTABLE], ids=name_of)
def test_equal_fields_compare_equal_and_positions_do_not_count(cls):
    make = {**FROZEN, **MUTABLE}[cls]
    a = make(P1, "x")
    assert a == make(P1, "x")
    assert a == make(P2, "x")
    assert a != make(P1, "y")
    assert a != object()
    assert hasattr(a, "__dict__") == (cls not in SLOTTED)


@pytest.mark.parametrize("cls", FROZEN, ids=name_of)
def test_frozen_records_hash_and_refuse_assignment(cls):
    make = FROZEN[cls]
    a = make(P1, "x")
    assert hash(a) == hash(make(P2, "x"))
    first = next(iter(vars(a)))
    before = getattr(a, first)
    with pytest.raises(AttributeError):
        setattr(a, first, "changed")
    with pytest.raises(AttributeError):
        delattr(a, first)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert getattr(a, first) is before


@pytest.mark.parametrize("cls", MUTABLE, ids=name_of)
def test_mutable_records_are_unhashable(cls):
    a = MUTABLE[cls](P1, "x")
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize("cls", DEFAULT_CONTAINERS, ids=name_of)
def test_default_containers_are_not_shared(cls):
    make, names = DEFAULT_CONTAINERS[cls]
    a, b = make(), make()
    for name in names:
        assert not getattr(a, name)
        assert getattr(a, name) is not getattr(b, name), name


def test_repr_lists_the_fields_and_omits_the_behavior():
    assert repr(Ident("x")) == "Ident(name='x')"
    assert repr(Token(lexer.INT, "7", 1, 2)) == "Token(type='INT', value='7', line=1, col=2)"
    assert repr(FieldDef("n", "integer", P1)) == (
        "FieldDef(name='n', primitive='integer', pos=('a.arc', 1, 2))"
    )
    inst = InstanceSpec("root/w", cdef("T"), "root", True, object())
    assert repr(inst) == (
        f"InstanceSpec(path='root/w', type_def={cdef('T')!r}, parent='root', replicating=True)"
    )


def test_importing_the_cli_generates_no_code():
    """No record class is built by a decorator at import: neither
    dataclasses nor the inspect module it loads is imported."""
    code = "import sys, cloudadl.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    # the package under test, wherever it was imported from
    src = os.path.dirname(os.path.dirname(cloudadl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
