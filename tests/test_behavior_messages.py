"""Exact E_BEHAVIOR messages for every configuration rule of every builtin.

Each case is one model whose component A (or J) has a behavior clause;
check() must report exactly the expected message, or nothing for None.
Cases named `X_before_Y` break two rules in one clause and pin which one
is reported: each clause reports only its first failing rule.
"""

from __future__ import annotations

import pytest

from cloudadl.analyzer import check
from cloudadl.cli import main
from cloudadl.diagnostics import E_BEHAVIOR

from helpers import parse_ok

U = "message U { v: integer; }\n"
W = "message W { s: text; }\n"
V = "message V { ok: boolean; }\n"
B2 = "message B2 { a: boolean; b: boolean; }\n"
UT = "message T { v: text; }\n"

IO = "port in U u; port out U o;"
MIS = "port in U u; port out W o;"  # in/out type mismatch
TWO = "port in U u; port out U a; port out U b;"
VER = "port in U u; port out V r;"

J = U + V + W
JP = (
    "port in U i; port in V ok; port out V ack; port out U req;"
    " port out U fwd; port out W bad;"
)
A = U + W


def comp(ports: str, clause: str, name: str = "A") -> str:
    return f"component {name} {{ {ports} behavior {clause}; }}"


def auto(*lines: str, initial: str = '"a"', ports: str = IO) -> str:
    """An automaton clause; a line starting with = is a raw argument."""
    args = [f"initial={initial}"]
    args += [line[1:] if line.startswith("=") else f'"{line}"' for line in lines]
    return A + comp(ports, f"automaton({', '.join(args)})")


CASES = [
    # analyzer rules on the clause itself
    ("decomposed_with_clause", U + comp("port in U u;", "store()", "B")
     + "component A { port in U u; component B b; connect u -> b.u; behavior store(); }",
     "a decomposed component cannot have a behavior clause"),
    ("atomic_without_clause", U + "component A { port in U u; }",
     "atomic component 'A' receives messages but has no behavior clause"),
    ("unknown_builtin", U + comp("port in U u;", "nope()"),
     "unknown behavior 'nope' (known: approval_join, approve_if, automaton, collect,"
     " delay, fault_at, forward, route_by, sample, store, validate_range)"),

    # argument binding, before any type rule
    ("positional_after_named", U + comp(IO, "forward(out=o, true)"),
     "forward: positional argument after a named one"),
    ("too_many_arguments", U + comp(IO, "forward(o, true, 1)"),
     "forward: too many arguments (takes 2)"),
    ("store_takes_none", U + comp("port in U u;", "store(1)"),
     "store: too many arguments (takes 0)"),
    ("store_unknown_named", U + comp("port in U u;", "store(x=1)"),
     "store: unknown argument 'x'"),
    ("unknown_argument", U + comp(IO, "forward(out=o, extra=1)"),
     "forward: unknown argument 'extra'"),
    ("argument_given_twice", U + comp(IO, "forward(o, out=o)"),
     "forward: argument 'out' given twice"),
    ("missing_argument", U + comp(IO, "collect()"),
     "collect: missing argument 'n'"),
    ("binding_before_types", U + W + comp(MIS, "forward(extra=1)"),
     "forward: unknown argument 'extra'"),
    ("positional_before_missing", U + comp(IO, "route_by(out=o, v)"),
     "route_by: positional argument after a named one"),

    # forward
    ("forward_no_out", U + comp("port in U u;", "forward()"),
     "forward: component has 0 out ports, name one with out="),
    ("forward_two_outs", U + comp(TWO, "forward()"),
     "forward: component has 2 out ports, name one with out="),
    ("forward_out_unknown", U + comp(IO, "forward(out=x)"),
     "forward: 'A' has no port 'x'"),
    ("forward_out_is_in", U + comp(IO, "forward(out=u)"),
     "forward: port 'u' must be an out port"),
    ("forward_out_not_name", U + comp(IO, "forward(out=1)"),
     "forward: 'out' must be a name"),
    ("forward_out_text", U + comp(IO, 'forward(out="o")'),
     None),
    ("forward_broadcast_not_bool", U + comp(IO, "forward(broadcast=1)"),
     "forward: 'broadcast' must be true or false"),
    ("forward_mismatch", U + W + comp(MIS, "forward()"),
     "forward: port 'u' carries U but port 'o' carries W"),
    ("forward_broadcast_before_mismatch", U + W + comp(MIS, "forward(out=o, broadcast=1)"),
     "forward: 'broadcast' must be true or false"),
    ("forward_out_before_broadcast", U + comp(TWO, "forward(broadcast=1)"),
     "forward: component has 2 out ports, name one with out="),

    # route_by
    ("route_by_field_not_name", U + comp(IO, "route_by(field=1)"),
     "route_by: 'field' must be a name"),
    ("route_by_no_field", U + comp(IO, "route_by(field=w)"),
     "route_by: message type 'U' on port 'u' has no field 'w'"),
    ("route_by_text_field", UT + comp("port in T u; port out T o;", "route_by(field=v)"),
     "route_by: field 'v' must be an integer field"),
    ("route_by_mixed_primitives", U + UT + comp("port in U u; port in T t; port out U o;", "route_by(field=v)"),
     "route_by: field 'v' has mixed primitives across in ports"),
    ("route_by_mismatch", U + W + comp(MIS, "route_by(field=v)"),
     "route_by: port 'u' carries U but port 'o' carries W"),
    ("route_by_field_before_out", U + comp(TWO, "route_by(field=1)"),
     "route_by: 'field' must be a name"),
    ("route_by_out_before_field_type", UT + comp("port in T u; port out T a; port out T b;", "route_by(field=v)"),
     "route_by: component has 2 out ports, name one with out="),

    # approve_if
    ("approve_if_out_not_verdict", U + comp(IO, "approve_if(field=v, equals=1)"),
     "approve_if: port 'o' must carry a message type with exactly one boolean field"),
    ("approve_if_two_booleans", U + B2 + comp("port in U u; port out B2 r;", "approve_if(field=v, equals=1)"),
     "approve_if: port 'r' must carry a message type with exactly one boolean field"),
    ("approve_if_equals_ident", U + V + comp(VER, "approve_if(field=v, equals=w)"),
     "approve_if: 'equals' must be a literal"),
    ("approve_if_no_field", U + V + comp(VER, "approve_if(field=w, equals=1)"),
     "approve_if: message type 'U' on port 'u' has no field 'w'"),
    ("approve_if_equals_misfit", U + V + comp(VER, 'approve_if(field=v, equals="nope")'),
     'approve_if: \'equals\' value "nope" does not fit integer field \'v\''),
    ("approve_if_field_not_name", U + V + comp(VER, "approve_if(field=1, equals=1)"),
     "approve_if: 'field' must be a name"),
    ("approve_if_verdict_before_field", U + comp(IO, "approve_if(field=w, equals=x)"),
     "approve_if: port 'o' must carry a message type with exactly one boolean field"),

    # validate_range
    ("validate_range_no_bounds", U + V + comp(VER, "validate_range(field=v)"),
     "validate_range: needs min=, max=, or both"),
    ("validate_range_text_field", UT + V + comp("port in T u; port out V r;", "validate_range(field=v, min=1)"),
     "validate_range: field 'v' must be an integer field"),
    ("validate_range_min_not_int", U + V + comp(VER, "validate_range(field=v, min=true)"),
     "validate_range: 'min' must be an integer"),
    ("validate_range_max_not_int", U + V + comp(VER, 'validate_range(field=v, max="9")'),
     "validate_range: 'max' must be an integer"),
    ("validate_range_min_before_max", U + V + comp(VER, "validate_range(field=v, min=x, max=y)"),
     "validate_range: 'min' must be an integer"),
    ("validate_range_field_before_bounds", UT + V + comp("port in T u; port out V r;", "validate_range(field=v)"),
     "validate_range: field 'v' must be an integer field"),
    ("validate_range_out_not_verdict", U + comp(IO, "validate_range(field=v, min=1)"),
     "validate_range: port 'o' must carry a message type with exactly one boolean field"),

    # collect
    ("collect_n_not_int", U + comp(IO, "collect(n=true)"),
     "collect: 'n' must be an integer"),
    ("collect_n_zero", U + comp(IO, "collect(n=0)"),
     "collect: 'n' must be at least 1"),
    ("collect_n_before_out", U + comp(TWO, "collect(n=0)"),
     "collect: 'n' must be at least 1"),
    ("collect_n_before_mismatch", U + W + comp(MIS, "collect(n=0)"),
     "collect: 'n' must be at least 1"),
    ("collect_mismatch", U + W + comp(MIS, "collect(n=2)"),
     "collect: port 'u' carries U but port 'o' carries W"),

    # sample
    ("sample_percent_not_int", U + comp(IO, 'sample(percent="50")'),
     "sample: 'percent' must be an integer"),
    ("sample_percent_negative", U + comp(IO, "sample(percent=-1)"),
     "sample: 'percent' must be between 0 and 100"),
    ("sample_percent_above_100", U + comp(IO, "sample(percent=150)"),
     "sample: 'percent' must be between 0 and 100"),
    ("sample_percent_before_out", U + comp("port in U u;", "sample(percent=150)"),
     "sample: 'percent' must be between 0 and 100"),
    ("sample_mismatch", U + W + comp(MIS, "sample(percent=50)"),
     "sample: port 'u' carries U but port 'o' carries W"),

    # fault_at
    ("fault_at_step_not_int", U + comp(IO, "fault_at(step=x)"),
     "fault_at: 'step' must be an integer"),
    ("fault_at_kind_not_text", U + comp(IO, "fault_at(step=1, kind=boom)"),
     "fault_at: 'kind' must be a string"),
    ("fault_at_step_before_kind", U + comp(IO, "fault_at(step=x, kind=boom)"),
     "fault_at: 'step' must be an integer"),
    ("fault_at_two_outs", U + comp(TWO, "fault_at(step=1)"),
     "fault_at: component has 2 out ports, name one with out="),
    ("fault_at_mismatch", U + W + comp(MIS, "fault_at(step=1)"),
     "fault_at: port 'u' carries U but port 'o' carries W"),
    ("fault_at_names_missing_out", U + comp("port in U u;", "fault_at(step=1, out=o)"),
     "fault_at: 'A' has no port 'o'"),
    ("fault_at_without_out_port", U + comp("port in U u;", "fault_at(step=1)"), None),

    # delay
    ("delay_k_not_int", U + comp(IO, "delay(k=false)"),
     "delay: 'k' must be an integer"),
    ("delay_k_negative", U + comp(IO, "delay(k=-2)"),
     "delay: 'k' must not be negative"),
    ("delay_k_before_out", U + comp("port in U u;", "delay(k=-2)"),
     "delay: 'k' must not be negative"),
    ("delay_mismatch", U + W + comp(MIS, "delay(k=1)"),
     "delay: port 'u' carries U but port 'o' carries W"),

    # approval_join
    ("approval_join_item_not_name", J + comp(JP, "approval_join(item=1, respond=ack)"),
     "approval_join: 'item' must be a name"),
    ("approval_join_item_unknown", J + comp(JP, "approval_join(item=x, respond=ack)"),
     "approval_join: 'A' has no port 'x'"),
    ("approval_join_item_is_out", J + comp(JP, "approval_join(item=req, respond=ack)"),
     "approval_join: port 'req' must be an in port"),
    ("approval_join_respond_is_in", J + comp(JP, "approval_join(item=i, respond=ok)"),
     "approval_join: port 'ok' must be an out port"),
    ("approval_join_respond_not_verdict", J + comp(JP, "approval_join(item=i, respond=req)"),
     "approval_join: port 'req' must carry a message type with exactly one boolean field"),
    ("approval_join_request_is_in", J + comp(JP, "approval_join(item=i, respond=ack, request=ok)"),
     "approval_join: port 'ok' must be an out port"),
    ("approval_join_forward_unknown", J + comp(JP, "approval_join(item=i, respond=ack, forward=x)"),
     "approval_join: 'A' has no port 'x'"),
    ("approval_join_request_mismatch", J + comp(JP, "approval_join(item=i, respond=ack, request=bad)"),
     "approval_join: port 'i' carries U but port 'bad' carries W"),
    ("approval_join_forward_mismatch", J + comp(JP, "approval_join(item=i, respond=ack, forward=bad)"),
     "approval_join: port 'i' carries U but port 'bad' carries W"),
    ("approval_join_request_before_forward", J + comp(JP, "approval_join(item=i, respond=ack, request=bad, forward=x)"),
     "approval_join: 'A' has no port 'x'"),
    ("approval_join_verdict_port_not_verdict", J + comp("port in U i; port in U other; port out V ack;", "approval_join(item=i, respond=ack)"),
     "approval_join: port 'other' must carry a message type with exactly one boolean field"),
    ("approval_join_no_verdict_port", J + comp("port in U i; port out V ack;", "approval_join(item=i, respond=ack)"),
     "approval_join: needs at least one verdict in port besides the item port"),
    ("approval_join_item_before_respond", J + comp(JP, "approval_join(item=x, respond=ok)"),
     "approval_join: 'A' has no port 'x'"),
    ("approval_join_missing_respond", J + comp(JP, "approval_join(item=i)"),
     "approval_join: missing argument 'respond'"),

    # automaton
    ("automaton_initial_not_text", auto("a, u, * -> a", initial="a"),
     "automaton: 'initial' must be a string"),
    ("automaton_no_transitions", auto(),
     "automaton: needs at least one transition string"),
    ("automaton_initial_before_transitions", auto(initial="a"),
     "automaton: 'initial' must be a string"),
    ("automaton_transition_not_text", auto("=1"),
     "automaton: 'transition' must be a string"),
    ("automaton_lex_error", auto("a, u, * -> a, emit o $"),
     "automaton: bad transition 'a, u, * -> a, emit o $': unexpected character '$'"),
    ("automaton_syntax_error", auto("a, u, * -> "),
     "automaton: bad transition 'a, u, * -> ': expected state name, got end of input"),
    ("automaton_trailing_tokens", auto("a, u, * -> a b"),
     "automaton: bad transition 'a, u, * -> a b': unexpected 'b' in transition"),
    ("automaton_port_unknown", auto("a, nope, * -> a"),
     "automaton: 'A' has no port 'nope'"),
    ("automaton_port_is_out", auto("a, o, * -> a"),
     "automaton: port 'o' must be an in port"),
    ("automaton_bad_comparison", auto("a, u, v ~ 1 -> a"),
     "automaton: bad transition 'a, u, v ~ 1 -> a': unexpected character '~'"),
    ("automaton_bad_comparison_word", auto("a, u, v is 1 -> a"),
     "automaton: bad transition 'a, u, v is 1 -> a': expected a comparison, got 'is'"),
    ("automaton_guard_ident", auto("a, u, v = w -> a"),
     "automaton: guard on 'v' needs a literal"),
    ("automaton_guard_no_field", auto("a, u, w = 1 -> a"),
     "automaton: message type 'U' on port 'u' has no field 'w'"),
    ("automaton_guard_misfit", auto("a, u, v = true -> a"),
     "automaton: guard literal true does not fit integer field 'v'"),
    ("automaton_ordered_on_text", A + UT + comp("port in T u; port out T o;", 'automaton(initial="a", "a, u, v < \\"x\\" -> a")'),
     "automaton: ordered comparison needs an integer field, 'v' is text"),
    ("automaton_emit_keyword", auto("a, u, * -> a, send o"),
     "automaton: bad transition 'a, u, * -> a, send o': expected 'emit', got 'send'"),
    ("automaton_emit_port_is_in", auto("a, u, * -> a, emit u"),
     "automaton: port 'u' must be an out port"),
    ("automaton_emit_unknown_type", auto("a, u, * -> a, emit o X{v=1}"),
     "automaton: unknown message type 'X' in emission"),
    ("automaton_emit_wrong_type", auto("a, u, * -> a, emit o W{s=\\\"x\\\"}"),
     "automaton: port 'o' carries U, not W"),
    ("automaton_emit_bad_record", auto("a, u, * -> a, emit o U{v=true}"),
     "automaton: U.v: expected integer, got boolean"),
    ("automaton_emit_missing_field", auto("a, u, * -> a, emit o U{}"),
     "automaton: U: missing fields v"),
    ("automaton_emit_mismatch", auto("a, u, * -> a, emit o", ports=MIS),
     "automaton: port 'u' carries U but port 'o' carries W"),
    ("automaton_guards_overlap", auto("a, u, v < 5 -> a, emit o", "a, u, * -> a"),
     "automaton: guards 'v < 5' and '*' overlap in state 'a' on port 'u'"),
    ("automaton_guards_overlap_ranges", auto("a, u, v <= 5 -> a", "a, u, v >= 5 -> a"),
     "automaton: guards 'v <= 5' and 'v >= 5' overlap in state 'a' on port 'u'"),
    ("automaton_first_bad_transition_wins", auto("a, nope, * -> a", "a, u, v = true -> a"),
     "automaton: 'A' has no port 'nope'"),
    ("automaton_transition_before_overlap", auto("a, u, * -> a", "a, u, * -> a", "a, o, * -> a"),
     "automaton: port 'o' must be an in port"),
    ("automaton_positional_initial", A + comp(IO, 'automaton("a", "a, u, * -> a", initial="b")'),
     "automaton: argument 'initial' given twice"),
    ("automaton_transitions_after_named_initial", A + comp(IO, 'automaton(initial="a", "a, u, * -> a")'),
     None),
]


@pytest.mark.parametrize("text, want", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_behavior_config_message(text, want):
    found = [d.message for d in check(parse_ok(text)) if d.code == E_BEHAVIOR]
    assert found == ([] if want is None else [want])


# A port whose message type is not declared: `check` reports that one root
# cause and does not configure the behavior, which would read the type.
NOPE = "message U { n: integer; }\nmessage V { ok: boolean; }\n"
UNDECLARED_PORT_TYPE = {
    "approve_if": ("port in Nope i; port out V o;", "approve_if(field=n, equals=1)"),
    "validate_range": ("port in Nope i; port out V o;", "validate_range(field=n, min=1)"),
    "route_by": ("port in Nope i; port out U o;", "route_by(field=n)"),
    "approval_join": ("port in U i; port in Nope ok; port out V ack;",
                      "approval_join(item=i, respond=ack)"),
    "automaton_field_guard": ("port in Nope i; port out U o;", 'automaton(initial="a", "a, i, n < 5 -> a")'),
    "forward": ("port in Nope i; port out V o;", "forward(out=o)"),
}


@pytest.mark.parametrize("case", sorted(UNDECLARED_PORT_TYPE))
def test_undeclared_port_type_is_the_only_diagnostic(tmp_path, capsys, case):
    ports, clause = UNDECLARED_PORT_TYPE[case]
    path = tmp_path / "m.arc"
    path.write_text(NOPE + comp(ports, clause) + "\n")
    assert main(["check", str(path)]) == 2
    out = capsys.readouterr()
    col = ports.index("port in Nope") + 15
    assert (out.out, out.err) == ("", f"{path}:3:{col}: E_UNRESOLVED: unknown message type 'Nope'\n")
