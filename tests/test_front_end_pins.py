"""The front end's outputs on many inputs, pinned by SHA-256.

Parser diagnostics: each bundled `.arc` file and a small `bigmodel` model
is cut at every token boundary, and has each of its tokens deleted in
turn; every variant is parsed (and checked, when it parses) and the
rendered diagnostics are hashed. An automaton transition and a scenario
payload literal get the same treatment, since their grammars walk the same
`TokenCursor`.

Elaboration: the `repr` of the instances and channels that `elaborate`
builds, which covers every `ChannelSpec` field (id, ends, gates, group,
external, latency), for each bundled model's root and for the benchmark
workloads' models at small sizes.

A change to the parser or the elaborator that moves any message, position,
instance or channel fails here.
"""

from __future__ import annotations

import functools
import hashlib
import re
import sys
import tempfile
from pathlib import Path

import pytest

from cloudadl import lexer, scenario
from cloudadl.analyzer import check, elaborate
from cloudadl.diagnostics import render_all
from cloudadl.parser import merge_models, parse_model

from helpers import MODELS_DIR, PKG_ROOT

sys.path.insert(0, str(PKG_ROOT / "perfbench"))
import workloads  # noqa: E402
from test_workload_outputs import SMALL  # noqa: E402

BUNDLED_ROOTS = {
    "pipeline4.arc": "Pipeline",
    "request_chain.arc": "RequestChain",
    "sensor_channel.arc": "SensorChannel",
    "supervised.arc": "Supervised",
}
BIGMODEL_WIDTH = 6  # small enough that every variant parses in a few ms

_STRING = re.compile(r'"(?:[^"\\\n]|\\.)*"')


def _variants(text: str):
    """(label, text) for every prefix cut at a token start and every text
    with one token deleted (its source characters only)."""
    line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    for k, tok in enumerate(lexer.tokenize(text)):
        start = line_starts[tok.line - 1] + tok.col - 1
        yield f"cut {k}", text[:start]
        if tok.type == lexer.EOF:
            continue
        if tok.type == lexer.STRING:
            end = _STRING.match(text, start).end()
        else:
            end = start + len(tok.value)
        yield f"drop {k}", text[:start] + text[end:]


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _arc_diagnostics(text: str, origin: str) -> str:
    model, diags = parse_model(text, origin)
    if model is not None:
        diags = check(model)
    return render_all(diags) or "ok"


def _arc_text(name: str) -> str:
    if name == "bigmodel.arc":
        files, _root = _generated("bigmodel", 1, BIGMODEL_WIDTH)
        return files[0][1]
    return (MODELS_DIR / name).read_text(encoding="utf-8")


@functools.lru_cache(maxsize=None)
def _generated(name: str, seed: int, size: int):
    """((file name, text) of each model file, root) of a benchmark workload."""
    with tempfile.TemporaryDirectory() as tmp:
        inputs = workloads.GENERATORS[name](tmp, seed, size)
        files = tuple((Path(p).name, Path(p).read_text(encoding="utf-8")) for p in inputs.models)
    return files, inputs.root


PARSER_PINNED = {
    "bigmodel.arc": (
        "58ceba4e3dd309b772867fe317c6383b429679f373ad8581494001e0cae8b1da"
    ),
    "pipeline4.arc": (
        "2e48869c8f10d3edae60ba2766723a8fbd52b43eba016b072dd0b29f6e882b5c"
    ),
    "request_chain.arc": (
        "3388ea108f9a4a1c01b7fee88f74888b847f855ce01ca05b3409ca3792f00618"
    ),
    "sensor_channel.arc": (
        "8ac9c733f9a8bfdd5488e886cb9ed7f6797c6c12b7dff7c6e6243fac6d0f9484"
    ),
    "supervised.arc": (
        "09c9c36478eb0bf89ba3d231d29db4b78bf5e296bd5c2b29d6e69b4c01300b68"
    ),
}


@pytest.mark.parametrize("name", sorted(PARSER_PINNED))
def test_parser_diagnostics_on_cut_and_dropped_tokens(name):
    lines = [
        f"{label}: {_arc_diagnostics(variant, name)}"
        for label, variant in _variants(_arc_text(name))
    ]
    assert _digest(lines) == PARSER_PINNED[name]


TRANSITION = 's0, i, n >= -3 -> s1, emit o M{n=1, s="a", b=true}; emit o'
TRANSITION_MODEL = """\
message M { n: integer; s: text; b: boolean; }
component A {
  port in M i;
  port out M o;
  behavior automaton(initial="s0", "%s");
}
"""
TRANSITION_PINNED = "842603b26fa04d1743f95d289145bb949a805d920c7f8040c8d82522b65ed220"


def test_automaton_diagnostics_on_cut_and_dropped_tokens():
    lines = []
    for label, variant in _variants(TRANSITION):
        escaped = variant.replace("\\", "\\\\").replace('"', '\\"')
        model, diags = parse_model(TRANSITION_MODEL % escaped, "a.arc")
        assert model is not None, render_all(diags)
        lines.append(f"{label}: {render_all(check(model)) or 'ok'}")
    assert _digest(lines) == TRANSITION_PINNED


PAYLOAD = 'M{n=-12, s="a\\"b", b=false} M{} N{x=y}'
PAYLOAD_PINNED = "0b3c7685fae663b59778e96da6681aa65027bb57490abab14e422a42df96f1bc"


def test_payload_diagnostics_on_cut_and_dropped_tokens():
    lines = []
    for label, variant in _variants(PAYLOAD):
        try:
            outcome = repr(scenario._lexed_payloads(variant))
        except scenario._LineError as exc:
            outcome = exc.message
        lines.append(f"{label}: {outcome}")
    assert _digest(lines) == PAYLOAD_PINNED


def _topology_digest(files, root: str) -> str:
    fragments = []
    for origin, text in files:
        fragment, diags = parse_model(text, origin)
        assert fragment is not None, render_all(diags)
        fragments.append(fragment)
    model, diags = merge_models(fragments)
    assert model is not None, render_all(diags)
    assert not check(model, root)
    topology = elaborate(model, root)
    text = repr(topology.instances) + "\n" + repr(topology.channels)
    return hashlib.sha256(text.encode()).hexdigest()


BUNDLED_ELABORATION_PINNED = {
    "pipeline4.arc": (
        "5d03bf1a010f784ec38b3bd0f7ddd9f45733ec37ff27c9b9c9f84f6f15b8f8f5"
    ),
    "request_chain.arc": (
        "472128d2e3287d1397552ede98fb0c9a538513cab6bbe15b3b5f379de510d34d"
    ),
    "sensor_channel.arc": (
        "53dcb303949c04876bfec2cf519d5707711028753fa9ac6f5e649220f0b9ba8a"
    ),
    "supervised.arc": (
        "bd62de87bdca37fad95e3f3069f4ea7ca179a8fdfc49a18d9e7b9c7f12b46057"
    ),
}

# (workload, seed) at test_workload_outputs.SMALL sizes
WORKLOAD_ELABORATION_PINNED = {
    ("bigmodel", 1): (
        "a58b5c185f0eeaf5e345d6f1df9f539c4c72cd6cd6a05b3a8f37d47c0293d27f"
    ),
    ("bigmodel", 7): (
        "e763c8a3050beda3c82ca44788d3bdc38b75b87a1a8b94b73158cf2eee4da17e"
    ),
    ("sessions", 1): (
        "f1d328451271aa38f529fbfc02302bc031aa7baf47f93441a6c8cd5b9666a508"
    ),
    ("sessions", 7): (
        "f1d328451271aa38f529fbfc02302bc031aa7baf47f93441a6c8cd5b9666a508"
    ),
    ("stream", 1): (
        "240d587d082e395a4980227ef5a11dda0c64a826d57eadb4de57fc02e8db7274"
    ),
    ("stream", 7): (
        "240d587d082e395a4980227ef5a11dda0c64a826d57eadb4de57fc02e8db7274"
    ),
}


@pytest.mark.parametrize("name", sorted(BUNDLED_ELABORATION_PINNED))
def test_bundled_elaboration_matches_pinned_digest(name):
    files = [(name, _arc_text(name))]
    got = _topology_digest(files, BUNDLED_ROOTS[name])
    assert got == BUNDLED_ELABORATION_PINNED[name]


@pytest.mark.parametrize("name, seed", sorted(WORKLOAD_ELABORATION_PINNED))
def test_workload_elaboration_matches_pinned_digest(name, seed):
    files, root = _generated(name, seed, SMALL[name])
    assert _topology_digest(files, root) == WORKLOAD_ELABORATION_PINNED[name, seed]
