"""Lexer and parser coverage: tokens, grammar, diagnostics, round-trips."""

from __future__ import annotations

from random import Random

import pytest

from cloudadl import lexer
from cloudadl.model import Ident
from cloudadl.parser import load_files, parse_model
from cloudadl.printer import pretty_print

from helpers import codes, parse_ok
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
