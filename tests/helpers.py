"""Shared paths and small assertion helpers for the test suite."""

from __future__ import annotations

import copy
import io
import pathlib
from collections import namedtuple

from cloudadl.analyzer import check, elaborate
from cloudadl.parser import parse_model
from cloudadl.trace import render_trace

PKG_ROOT = pathlib.Path(__file__).resolve().parent.parent
MODELS_DIR = PKG_ROOT / "models"
SCENARIOS_DIR = PKG_ROOT / "scenarios"


def parse_ok(text: str):
    model, diags = parse_model(text, "<test>")
    assert model is not None, [d.render() for d in diags]
    return model


def checked(text: str, root: str):
    model = parse_ok(text)
    diags = check(model, root)
    assert not diags, [d.render() for d in diags]
    return model, elaborate(model, root)


def codes(diags) -> list[str]:
    return [d.code for d in diags]


# a kernel event tuple with its fields named, in the kernel's field order
Event = namedtuple("Event", "step kind subject seq tokens payload channel")


def events(kernel) -> list[Event]:
    """The kernel's events as Event views, for tests that read fields by name."""
    return [Event._make(e) for e in kernel.events]


def trace_text(events) -> str:
    """The trace render_trace writes for these events, as one string."""
    out = io.StringIO()
    render_trace(events, out)
    return out.getvalue()


def replaced(record, **changes):
    """A shallow copy of a mutable record with the given fields set anew."""
    new = copy.copy(record)
    for name, value in changes.items():
        setattr(new, name, value)
    return new
