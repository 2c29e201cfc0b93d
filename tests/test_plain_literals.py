"""The plain-literal fast form of scenario payloads against the general path.

`scenario._plain_payloads` reads a plain `Type{field=value, ...}` literal
with regex matches; anything else it returns None for, and
`scenario._lexed_payloads` (lexer and TokenCursor) reads it and words every
error. Every literal must give the same records, value types included
(`True == 1`), or the same diagnostic, whichever path takes it.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

from cloudadl import lexer, scenario

from helpers import PKG_ROOT, SCENARIOS_DIR

sys.path.insert(0, str(PKG_ROOT / "perfbench"))
import workloads  # noqa: E402

SEEDS = (1, 7, 9104557)
SMALL = {"stream": 60, "sessions": 80, "bigmodel": 20}

EDGE_LITERALS = {
    # whitespace the lexer rejects, though str.split would take it
    "vertical_tab": 'M{n=1,\x0bs="a"}',
    "no_break_space": 'M{n=1,\xa0s="a"}',
    # non-ASCII letters and digits
    "non_ascii_type": "Mé{n=1}",
    "non_ascii_field": "M{né=1}",
    "non_ascii_digits": "M{n=٣٤}",
    "ascii_then_non_ascii_digit": "M{n=1٣}",
    # escapes, and // inside and outside a string
    "escaped_quote": 'M{s="a\\"b"}',
    "escaped_newline": 'M{s="a\\nb"}',
    "escaped_tab_and_backslash": 'M{s="a\\tb\\\\"}',
    "slashes_in_string": 'M{s="a//b"}',
    "comment_after": "M{n=1} // note",
    # values the fast form leaves alone
    "minus_space_digits": "M{n=- 5}",
    "double_minus": "M{n=--5}",
    "plus_sign": "M{n=+5}",
    "underscore_digits": "M{n=1_000}",
    "decimal_point": "M{n=1.5}",
    "trueish": "M{b=trueish}",
    "falsey": "M{b=falsey}",
    "digits_then_letters": "M{n=1abc}",
    "bare_identifier": "M{n=x}",
    "no_value": "M{n=}",
    "unterminated_string": 'M{s="open}',
    # shape errors
    "trailing_comma": "M{n=1,}",
    "duplicate_field": "M{n=1, n=2}",
    "missing_comma": "M{n=1 m=2}",
    "unclosed": "M{",
    "extra_brace": "M{n=1}}",
    "extra_word": "M{n=1} extra",
    "no_type_name": "{n=1}",
    # reserved words as type, field and value
    "reserved_type": "message{n=1}",
    "reserved_field": "M{in=1}",
    "true_as_field": "M{true=1}",
    "true_as_type": "true{n=1}",
    "reserved_value": "M{n=integer}",
    # integers past the interpreter's int() digit limit
    "digits_5000": "M{n=" + "9" * 5000 + "}",
    "negative_digits_5000": "M{n=-" + "9" * 5000 + "}",
    # plain literals
    "empty_record": "Item{}",
    "empty_record_spaced": "Item{ }",
    "empty_record_spaced_out": "Item { }  ",
    "two_records": "M{n=1} M{n=2}",
    "three_records_unspaced": "M{n=1}M{n=-2}Item{}",
    "spaced_out_fields": 'M {n = -0 , s = "" , b = true,c=false}',
    "tabs_and_leading_zeros": "\tM{n=007}\t",
    "any_character_in_string": 'M{s="a\tb é \x0b"}',
    "boolean_before_integer": "M{b=true, n=1}",
    "empty": "",
    "blank": "   ",
}


def outcome(parse, text: str):
    """Records with each value's exact type, or the diagnostic."""
    try:
        records = parse(text)
    except scenario._LineError as exc:
        return ("error", exc.code, exc.message)
    return [(t, [(k, type(v), v) for k, v in values.items()]) for t, values in records]


def literals_of(path) -> list[str]:
    """The literal text of every inject and expect prefix line, as loading reads it."""
    found = []
    for line in pathlib.Path(path).read_text(encoding="utf-8").splitlines():
        line = scenario.strip_comment(line).strip()
        words = line.split()
        if len(words) > 4 and words[0] == "inject":
            found.append(line.split(None, 4)[4])
        elif len(words) > 3 and words[:2] == ["expect", "prefix"]:
            found.append(line.split(None, 3)[3])
    return found


def generated(tmp_path, name: str, seed: int):
    directory = tmp_path / f"{name}-{seed}"
    directory.mkdir()
    return workloads.GENERATORS[name](str(directory), seed, SMALL[name])


def assert_same_as_general_path(text: str) -> None:
    want = outcome(scenario._lexed_payloads, text)
    assert outcome(scenario._parse_payloads, text) == want
    plain = scenario._plain_payloads(text)
    if plain is not None:
        assert outcome(lambda _text: plain, text) == want


@pytest.mark.parametrize("case", sorted(EDGE_LITERALS))
def test_edge_literal_reads_as_the_general_path_does(case):
    assert_same_as_general_path(EDGE_LITERALS[case])


def test_bundled_literals_read_as_the_general_path_does():
    texts = [t for p in sorted(SCENARIOS_DIR.glob("*.scn")) for t in literals_of(p)]
    assert texts
    for text in texts:
        assert_same_as_general_path(text)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SMALL))
def test_generated_literals_read_as_the_general_path_does(tmp_path, name, seed):
    texts = literals_of(generated(tmp_path, name, seed).scenario)
    assert texts
    for text in texts:
        assert_same_as_general_path(text)


def test_fast_form_takes_plain_literals_and_leaves_the_rest():
    assert scenario._plain_payloads('M{n=-3, s="x", b=false} Item{}') == [
        ("M", {"n": -3, "s": "x", "b": False}),
        ("Item", {}),
    ]
    for text in ("M{n=- 5}", "M{n=1,}", "M{n=1, n=2}", "M{in=1}", 'M{s="a\\"b"}',
                 "M{n=1,\x0bs=2}", "M{n=" + "9" * 5000 + "}"):
        assert scenario._plain_payloads(text) is None


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["stream", "sessions"])
def test_generated_workload_literals_all_take_the_fast_form(
    tmp_path, monkeypatch, name, seed
):
    inputs = generated(tmp_path, name, seed)
    texts = literals_of(inputs.scenario)
    assert [t for t in texts if scenario._plain_payloads(t) is None] == []

    # loading the scenario lexes its model files (and automaton clauses),
    # none of its payload literals
    lexed = []
    tokenize = lexer.tokenize
    monkeypatch.setattr(lexer, "tokenize", lambda text: lexed.append(text) or tokenize(text))
    loaded, diags = scenario.load_scenario(inputs.scenario)
    assert loaded is not None, [d.render() for d in diags]
    assert lexed and not set(lexed) & set(texts)
