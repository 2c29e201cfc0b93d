"""Lexer and parser coverage: tokens, grammar, diagnostics, round-trips."""

from __future__ import annotations

import gc
from random import Random

import pytest

from cloudadl import lexer
from cloudadl.model import Ident
from cloudadl.parser import load_files, parse_model
from cloudadl.printer import pretty_print
from cloudadl.values import Value

from helpers import MODELS_DIR, codes, parse_ok
from modelgen import random_model


# --- lexer ---


def kinds(text):
    return [(t.type, t.value) for t in lexer.tokenize(text)]


def test_tokenize_basics():
    toks = lexer.tokenize("message M { n: integer; }")
    assert [t.type for t in toks] == [
        "IDENT", "IDENT", "{", "IDENT", ":", "IDENT", ";", "}", "EOF",
    ]
    assert toks[0].line == 1 and toks[0].col == 1
    assert toks[1].value == "M" and toks[1].col == 9


def test_tokenize_punct_and_arrow():
    assert kinds("a -> b; x - 1")[:6] == [
        ("IDENT", "a"), ("->", "->"), ("IDENT", "b"),
        (";", ";"), ("IDENT", "x"), ("-", "-"),
    ]
    # comparison punctuation used by automaton guards
    assert [t.type for t in lexer.tokenize("< <= > >= != =")][:-1] == [
        "<", "<=", ">", ">=", "!=", "=",
    ]
    # unspaced: a two-character punct wins whenever its pair matches
    toks = lexer.tokenize("->>=<=!=-<>*")
    assert [(t.type, t.col) for t in toks] == [
        ("->", 1), (">=", 3), ("<=", 5), ("!=", 7),
        ("-", 9), ("<", 10), (">", 11), ("*", 12), ("EOF", 13),
    ]
    assert kinds("a-->b") == [
        ("IDENT", "a"), ("-", "-"), ("->", "->"), ("IDENT", "b"), ("EOF", ""),
    ]
    assert kinds("x<=-1") == [
        ("IDENT", "x"), ("<=", "<="), ("-", "-"), ("INT", "1"), ("EOF", ""),
    ]


def test_tokenize_comments_and_lines():
    toks = lexer.tokenize("a // rest of line\nb")
    assert [(t.type, t.value, t.line) for t in toks[:2]] == [
        ("IDENT", "a", 1), ("IDENT", "b", 2),
    ]


def test_tokenize_string_escapes():
    toks = lexer.tokenize(r'"a\"b" "c\\d" "e\nf" "g\th"')
    assert [t.value for t in toks[:-1]] == ['a"b', "c\\d", "e\nf", "g\th"]


def test_tokenize_string_unknown_escape_is_literal():
    assert lexer.tokenize(r'"a\qb"')[0].value == "aqb"


def test_tokenize_integer():
    # INT tokens keep the raw digits; the parser converts
    toks = lexer.tokenize("42 007")
    assert [(t.type, t.value) for t in toks[:2]] == [("INT", "42"), ("INT", "007")]


def test_tokenize_errors():
    with pytest.raises(lexer.LexError):
        lexer.tokenize('"unterminated')
    with pytest.raises(lexer.LexError):
        lexer.tokenize('"raw\nnewline"')
    with pytest.raises(lexer.LexError):
        lexer.tokenize("a @ b")
    # '!' is only a prefix of '!='
    for text, col in (("!", 1), ("!=!", 3)):
        with pytest.raises(lexer.LexError) as exc:
            lexer.tokenize(text)
        assert exc.value.message == "unexpected character '!'"
        assert (exc.value.line, exc.value.col) == (1, col)
    # '²' passes str.isdigit, but int() rejects it
    with pytest.raises(lexer.LexError) as exc:
        lexer.tokenize("n=1\nn=²")
    assert (exc.value.line, exc.value.col) == (2, 3)


# --- grammar ---


def test_parse_message_and_component():
    model = parse_ok(
        """
        message Ping { n: integer; who: text; up: boolean; }
        component Echo {
          port in Ping req;
          port out Ping rsp;
          behavior forward(out=rsp);
        }
        """
    )
    ping = model.message_types["Ping"]
    assert [(f.name, f.primitive) for f in ping.fields] == [
        ("n", "integer"), ("who", "text"), ("up", "boolean"),
    ]
    echo = model.component_types["Echo"]
    assert [p.direction for p in echo.ports] == ["in", "out"]
    assert echo.behavior.builtin == "forward"
    assert echo.behavior.args[0].name == "out"
    assert echo.behavior.args[0].value == Ident("rsp")


def test_parse_replicating_markers():
    # the parser accepts the marker on any port; placement rules are checked later
    model = parse_ok(
        """
        message M { n: integer; }
        component W { port in M i; behavior store(); }
        component R {
          port out M sink replicating;
          replicating component W w;
        }
        """
    )
    r = model.component_types["R"]
    assert r.ports[0].replicating
    assert r.subcomponents[0].replicating


def test_parse_connectors_and_deep_endpoints():
    model = parse_ok(
        """
        component A {
          connect x -> y.p;
          connect a.b.c -> d;
        }
        """
    )
    conns = model.component_types["A"].connectors
    assert conns[0].source.parts == ("x",)
    assert conns[0].target.parts == ("y", "p")
    assert conns[1].source.parts == ("a", "b", "c")
    assert conns[0].render() == "x -> y.p"


def test_parse_context_gates_keep_order():
    model = parse_ok(
        """
        component A {
          context session {
            open a -> b.i;
            close b.o -> c;
            open d -> e.i;
          }
        }
        """
    )
    ctx = model.component_types["A"].contexts[0]
    assert ctx.name == "session"
    assert [g.source.parts[0] for g in ctx.opening] == ["a", "d"]
    assert [g.source.parts[0] for g in ctx.closing] == ["b"]


def test_parse_behavior_args_variety():
    model = parse_ok(
        'component A { behavior f(1, -2, true, "s", x, k=3, s="t"); }'
    )
    args = model.component_types["A"].behavior.args
    assert [a.value for a in args] == [1, -2, True, "s", Ident("x"), 3, "t"]
    assert [a.name for a in args] == [None, None, None, None, None, "k", "s"]


def test_parse_reserved_arg_name_allowed():
    # the '=' lookahead lets argument names shadow keywords
    model = parse_ok("component A { behavior f(out=o, in=2); }")
    args = model.component_types["A"].behavior.args
    assert args[0].name == "out" and args[1].name == "in"


def test_parse_empty_component():
    model = parse_ok("component Leaf { }")
    leaf = model.component_types["Leaf"]
    assert not leaf.ports and not leaf.subcomponents and leaf.behavior is None


# --- parse diagnostics ---


def fails(text: str) -> list:
    model, diags = parse_model(text, "<t>")
    assert diags, "expected diagnostics"
    return diags


def test_syntax_error_position():
    diags = fails("message M { n integer; }")
    assert codes(diags) == ["E_SYNTAX"]
    assert diags[0].line == 1 and diags[0].col == 15
    assert diags[0].origin == "<t>"
    assert "<t>:1:15: E_SYNTAX:" in diags[0].render()


def test_syntax_error_stops_parse():
    model, diags = parse_model("component A {", "<t>")
    assert model is None and codes(diags) == ["E_SYNTAX"]


@pytest.mark.parametrize(
    "text",
    [
        "component in { }",
        "message M { open: integer; }",
        "component A { port in M connect; }",
        "component A { component B port; }",
        "context C { }",
        "component A { port sideways M p; }",
        "message M { n: float; }",
        "component A { behavior f(x=); }",
        "component A { behavior f(true=1); }",
    ],
)
def test_syntax_rejections(text):
    assert codes(fails(text)) == ["E_SYNTAX"]


def test_syntax_error_names_a_long_word_by_its_length():
    word = "x" * 60
    diags = fails(f"message M {{ n: integer; }}\ncomponent A {{ port in M i; {word} }}")
    assert [d.render() for d in diags] == [
        "<t>:2:28: E_SYNTAX: expected a component item, got a word of 60 characters"
    ]
    diags = fails(f"component A {{ port in M i; {word[:40]} }}")
    assert diags[0].message == f"expected a component item, got '{word[:40]}'"


def test_duplicate_toplevel_names_collected():
    diags = fails(
        """
        message M { n: integer; }
        message M { n: integer; }
        component C { }
        component C { }
        """
    )
    assert codes(diags) == ["E_DUP_DEF", "E_DUP_DEF"]
    assert "M" in diags[0].message and "C" in diags[1].message


def test_message_component_name_clash():
    assert codes(fails("message X { n: integer; }\ncomponent X { }")) == ["E_DUP_DEF"]


def test_duplicate_field_port_sub():
    assert codes(fails("message M { a: integer; a: text; }")) == ["E_SYNTAX"]
    assert codes(fails(
        "component A { port in M p; port out M p; }"
    )) == ["E_SYNTAX"]
    assert codes(fails(
        "component A { component X s; component Y s; }"
    )) == ["E_SYNTAX"]


LONG = "w" * 41  # one character past ECHO_LIMIT

# a text with names repeated in one file -> its rendered diagnostics
REPEATED_NAMES = {
    "message_type": (
        "message M { n: integer; }\nmessage M { n: text; }",
        ["<t>:2:1: E_DUP_DEF: message type 'M' is already defined"],
    ),
    "component_type": (
        "component C { }\ncomponent C { port in M p; }",
        ["<t>:2:1: E_DUP_DEF: component type 'C' is already defined"],
    ),
    # message and component types share one namespace
    "component_after_message": (
        "message X { n: integer; }\ncomponent X { }",
        ["<t>:2:1: E_DUP_DEF: component type 'X' is already defined"],
    ),
    "message_after_component": (
        "component X { }\n  message X { n: integer; }",
        ["<t>:2:3: E_DUP_DEF: message type 'X' is already defined"],
    ),
    "every_repeat_collected": (
        "message M { n: integer; }\ncomponent M { }\ncomponent C { }\n"
        "message C { n: integer; }\nmessage M { n: integer; }",
        [
            "<t>:2:1: E_DUP_DEF: component type 'M' is already defined",
            "<t>:4:1: E_DUP_DEF: message type 'C' is already defined",
            "<t>:5:1: E_DUP_DEF: message type 'M' is already defined",
        ],
    ),
    # a repeated field, port or subcomponent stops the parse at its name,
    # its port keyword, or its first word
    "field": (
        "message M { a: integer; a: text; }",
        ["<t>:1:25: E_SYNTAX: field 'a' is already declared"],
    ),
    "field_after_its_primitive": (
        "message M { a: integer; a: float; }",
        ["<t>:1:28: E_SYNTAX: unknown primitive 'float' (expected integer, text, or boolean)"],
    ),
    "port": (
        "component A { port in M p; port out M p; }",
        ["<t>:1:28: E_SYNTAX: port 'p' is already declared"],
    ),
    "port_of_either_direction": (
        "component A {\n  port out M p;\n  port in N p replicating;\n}",
        ["<t>:3:3: E_SYNTAX: port 'p' is already declared"],
    ),
    "subcomponent": (
        "component A { component X s; component Y s; }",
        ["<t>:1:30: E_SYNTAX: subcomponent 's' is already declared"],
    ),
    "replicating_subcomponent": (
        "component A { component X s;\n  replicating component Y s; }",
        ["<t>:2:3: E_SYNTAX: subcomponent 's' is already declared"],
    ),
    "port_and_subcomponent_names_apart": (
        "component A { port in M s; component X s; }", [],
    ),
    # a name longer than ECHO_LIMIT is named by its length
    "message_type_past_the_echo_limit": (
        f"message {LONG} {{ n: integer; }}\nmessage {LONG} {{ n: integer; }}",
        ["<t>:2:1: E_DUP_DEF: message type a word of 41 characters is already defined"],
    ),
    "component_type_at_the_echo_limit": (
        f"component {LONG[1:]} {{ }}\ncomponent {LONG[1:]} {{ }}",
        [f"<t>:2:1: E_DUP_DEF: component type '{LONG[1:]}' is already defined"],
    ),
    "field_past_the_echo_limit": (
        f"message M {{ {LONG}: integer; {LONG}: text; }}",
        ["<t>:1:65: E_SYNTAX: field a word of 41 characters is already declared"],
    ),
    "port_past_the_echo_limit": (
        f"component A {{ port in M {LONG}; port out M {LONG}; }}",
        ["<t>:1:68: E_SYNTAX: port a word of 41 characters is already declared"],
    ),
    "subcomponent_past_the_echo_limit": (
        f"component A {{ component X {LONG}; component Y {LONG}; }}",
        ["<t>:1:70: E_SYNTAX: subcomponent a word of 41 characters is already declared"],
    ),
    "primitive_past_the_echo_limit": (
        f"message M {{ n: {LONG}; }}",
        ["<t>:1:16: E_SYNTAX: unknown primitive a word of 41 characters"
         " (expected integer, text, or boolean)"],
    ),
}


@pytest.mark.parametrize("case", sorted(REPEATED_NAMES))
def test_repeated_names(case):
    text, expected = REPEATED_NAMES[case]
    _, diags = parse_model(text, "<t>")
    assert [d.render() for d in diags] == expected


def test_second_behavior_rejected():
    assert codes(fails("component A { behavior f(); behavior g(); }")) == ["E_SYNTAX"]


# --- files ---


def test_load_files_merges(tmp_path):
    (tmp_path / "a.arc").write_text("message M { n: integer; }\n")
    (tmp_path / "b.arc").write_text(
        "component C { port in M p; behavior store(); }\n"
    )
    model, diags = load_files([str(tmp_path / "a.arc"), str(tmp_path / "b.arc")])
    assert not diags
    assert set(model.message_types) == {"M"}
    assert set(model.component_types) == {"C"}


def test_load_files_cross_file_duplicate(tmp_path):
    (tmp_path / "a.arc").write_text("component C { }\n")
    (tmp_path / "b.arc").write_text("component C { }\n")
    model, diags = load_files([str(tmp_path / "a.arc"), str(tmp_path / "b.arc")])
    assert codes(diags) == ["E_DUP_DEF"]
    assert diags[0].origin.endswith("b.arc")


# a.arc, then b.arc -> the rendered diagnostics of loading both
CROSS_FILE_REPEATS = {
    "message_type": (
        "message M { n: integer; }\n", "message M { n: integer; }\n",
        ["b.arc:1:1: E_DUP_DEF: message type 'M' is already defined in another file"],
    ),
    "component_type": (
        "component C { }\n", "\ncomponent C { }\n",
        ["b.arc:2:1: E_DUP_DEF: component type 'C' is already defined in another file"],
    ),
    "message_after_component": (
        "component X { }\n", "message X { n: integer; }\n",
        ["b.arc:1:1: E_DUP_DEF: message type 'X' is already defined in another file"],
    ),
    "component_after_message": (
        "message X { n: integer; }\n", "component X { }\n",
        ["b.arc:1:1: E_DUP_DEF: component type 'X' is already defined in another file"],
    ),
    "component_type_past_the_echo_limit": (
        f"component {LONG} {{ }}\n", f"message {LONG} {{ n: integer; }}\n",
        ["b.arc:1:1: E_DUP_DEF: message type a word of 41 characters"
         " is already defined in another file"],
    ),
}


@pytest.mark.parametrize("case", sorted(CROSS_FILE_REPEATS))
def test_cross_file_repeats(tmp_path, case):
    a, b, expected = CROSS_FILE_REPEATS[case]
    (tmp_path / "a.arc").write_text(a)
    (tmp_path / "b.arc").write_text(b)
    model, diags = load_files([str(tmp_path / "a.arc"), str(tmp_path / "b.arc")])
    assert model is None
    assert [d.render().replace(f"{tmp_path}/", "") for d in diags] == expected


def test_load_files_missing_file(tmp_path):
    model, diags = load_files([str(tmp_path / "nope.arc")])
    assert model is None and codes(diags) == ["E_IO"]


# --- round-trips ---


def test_round_trip_random_models():
    for seed in range(200):
        model = random_model(Random(seed))
        text = pretty_print(model)
        again, diags = parse_model(text, f"<gen{seed}>")
        assert again is not None, (seed, [d.render() for d in diags])
        assert again == model, (seed, text)


def test_round_trip_is_stable():
    model = random_model(Random(99))
    once = pretty_print(model)
    twice = pretty_print(parse_model(once, "<g>")[0])
    assert once == twice


def positioned(model):
    """Every declaration in `model` that has a `pos` field, at any depth."""
    stack = [*model.message_types.values(), *model.component_types.values()]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.extend(node)
        elif isinstance(node, Value):
            if "pos" in node._fields:
                yield node
            stack.extend(getattr(node, name) for name in node._fields if name != "pos")


def test_positions_are_tuples_the_collector_stops_tracking():
    """A position is a plain (origin, line, col) tuple of atoms, so one full
    collection untracks it; a record or a namedtuple would stay tracked."""
    models = {
        path.name: parse_ok(path.read_text(encoding="utf-8"))
        for path in sorted(MODELS_DIR.glob("*.arc"))
    }
    gc.collect()
    kinds = set()
    for name, model in models.items():
        for decl in positioned(model):
            kinds.add(type(decl).__name__)
            assert not gc.is_tracked(decl.pos), (name, decl)
            origin, line, col = decl.pos
            assert origin == "<test>" and line > 0 and col > 0, (name, decl)
    assert kinds == {
        "BehaviorClause", "ComponentTypeDef", "ConnectorDecl", "ContextDecl", "Endpoint",
        "FieldDef", "MessageTypeDef", "PortDecl", "SubcomponentDecl",
    }
