import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btpolicy.errors import ParseError
from btpolicy.grammar import (parse_action, parse_literal,
                              parse_literal_conjunction, parse_value)
from btpolicy.terms import GroundAction, Literal, Quantity


def test_parse_simple_literal():
    assert parse_literal("on(mug, table)") == Literal("on", ("mug", "table"))


def test_parse_negated_wildcard():
    lit = parse_literal("~on(any_object, blue_cube)")
    assert lit.negated and lit.args == ("any_object", "blue_cube")


def test_parse_zero_arity_without_parens():
    assert parse_literal("hand_empty") == Literal("hand_empty")
    assert parse_literal("hand_empty()") == Literal("hand_empty")


def test_parse_param_and_placeholder_args():
    assert parse_literal("grasped($obj)").args == ("$obj",)
    assert parse_literal("on(any_object, @dst)").args == ("any_object", "@dst")


def test_conjunction_split():
    lits = parse_literal_conjunction("on(a, b) & ~grasped(c)")
    assert [str(x) for x in lits] == ["on(a, b)", "~grasped(c)"]


def test_empty_conjunct_rejected():
    with pytest.raises(ParseError):
        parse_literal_conjunction("on(a, b) & ")


@pytest.mark.parametrize("bad", [
    "on(blue,",            # unclosed
    "on blue)",            # missing paren
    "(a, b)",              # no predicate
    "on(a,,b)",            # empty arg
    "~~on(a, b)",          # double negation not in the grammar
    "on(a, b) extra",      # trailing tokens
    "",
])
def test_malformed_literals_raise(bad):
    with pytest.raises(ParseError):
        parse_literal(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_literal("on(blue,")
    assert err.value.line == 1
    assert err.value.column is not None
    assert err.value.expected


@pytest.mark.parametrize("parse, text, line, column", [
    (parse_literal, "on(blue,", 1, 9),               # end of input
    (parse_literal, "on(a, %)", 1, 7),               # bad character
    (parse_literal, "on(a,\n  b c)", 2, 5),          # unexpected token
    (parse_literal, "on(a)\n\n   x", 3, 4),          # trailing input
    (parse_literal, "\n \n", 1, 1),                  # nothing at all
    (parse_action, "grasp(\n obj=\n\t)", 3, 2),      # missing value
    (parse_action, "grasp(obj=egg,\r\n force=5 N", 2, 11),
])
def test_error_positions(parse, text, line, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (line, column)


def test_parse_action_with_quantity():
    action = parse_action("grasp(obj=egg, force=5.3 N)")
    assert action.skill == "grasp"
    assert action.get("force") == Quantity(5.3, "N")
    assert action.get("obj") == "egg"


def test_parse_action_compound_unit():
    action = parse_action("put(dst=bed, obj=pillow, speed=0.1 m/s)")
    assert action.get("speed") == Quantity(0.1, "m/s")


def test_slot_bound_twice_rejected_at_the_second_binding():
    with pytest.raises(ParseError, match="slot 'obj' is bound twice") as err:
        parse_action("grasp(obj=a, obj=b)")
    assert (err.value.line, err.value.column) == (1, 14)
    with pytest.raises(ParseError, match="slot 'force' is bound twice"):
        parse_action("grasp(force=5 N, obj=a, force=7 N)")
    assert parse_action("place(obj=a, dst=b)").as_dict() == {"obj": "a", "dst": "b"}


def test_parse_value_variants():
    assert parse_value("shovel") == "shovel"
    assert parse_value("37.2 N") == Quantity(37.2, "N")
    assert parse_value("3") == Quantity(3.0, "")


_IDENT = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)


@st.composite
def literals(draw):
    predicate = draw(_IDENT)
    n_args = draw(st.integers(0, 3))
    args = tuple(draw(st.one_of(_IDENT, st.just("any_object"),
                                st.just("$slot"))) for _ in range(n_args))
    return Literal(predicate, args, draw(st.booleans()))


@given(literals())
@settings(max_examples=300, deadline=None)
def test_literal_round_trip(lit):
    assert parse_literal(str(lit)) == lit


@st.composite
def actions(draw):
    skill = draw(_IDENT)
    n = draw(st.integers(0, 3))
    binding = {}
    for _ in range(n):
        slot = draw(_IDENT)
        value = draw(st.one_of(
            _IDENT,
            st.builds(Quantity,
                      st.floats(min_value=0, max_value=999,
                                allow_nan=False).map(lambda x: round(x, 3)),
                      st.sampled_from(["N", "m/s", "kg", ""]))))
        binding[slot] = value
    return GroundAction.from_mapping(skill, binding)


@given(actions())
@settings(max_examples=300, deadline=None)
def test_action_round_trip(action):
    assert parse_action(str(action)) == action


@given(st.text(max_size=80))
@settings(max_examples=400, deadline=None)
def test_parser_totality_on_noise(noise):
    try:
        parse_literal(noise)
    except ParseError:
        pass
