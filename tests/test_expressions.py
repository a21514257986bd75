import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualgeo.expressions import (
    MAX_DEPTH, MAX_INTEGER_EXPONENT, Add, Call, Const, Div, Mul, Neg, Num, ParseError, Pow, Sub, Var,
    is_constant, parse, to_source,
)
from dualgeo.jets import compile


def test_basic_arithmetic_tree():
    tree = parse("x1^2 + x2^2", 2)
    assert tree == Add(Pow(Var("x1", 0), Num(2.0)), Pow(Var("x2", 1), Num(2.0)))


def test_precedence_and_associativity():
    assert parse("2 + 3*x1", 1) == Add(Num(2.0), Mul(Num(3.0), Var("x1", 0)))
    # ^ binds above unary minus and is right-associative
    assert parse("-x1^2", 1) == Neg(Pow(Var("x1", 0), Num(2.0)))
    assert parse("2^3^2", 1) == Pow(Num(2.0), Pow(Num(3.0), Num(2.0)))
    assert parse("x1^-2", 1) == Pow(Var("x1", 0), Neg(Num(2.0)))
    # left associativity of - and /
    assert parse("1 - 2 - 3", 1) == Sub(Sub(Num(1.0), Num(2.0)), Num(3.0))
    assert parse("8/4/2", 1) == Div(Div(Num(8.0), Num(4.0)), Num(2.0))


def test_functions_and_constants():
    assert parse("sin(x1)", 1) == Call("sin", Var("x1", 0))
    tree = parse("c*x1", 1, constants={"c": 2.5})
    assert tree == Mul(Const("c", 2.5), Var("x1", 0))


def test_scientific_notation():
    assert parse("1.5e-3", 1) == Num(1.5e-3)
    assert parse("2E2 + .5", 1) == Add(Num(200.0), Num(0.5))


@pytest.mark.parametrize("source,offset_check", [
    ("", 0),
    ("   ", 0),
    ("x1 + ", 5),
    ("(x1 + x2", 8),
    ("x1 + x2)", 7),
    ("x1 $ x2", 3),
    ("sin(x1, x2)", 6),
    ("nope + 1", 0),
    ("f(x1)", 0),
])
def test_parse_errors_carry_offsets(source, offset_check):
    with pytest.raises(ParseError) as err:
        parse(source, 2)
    assert err.value.offset == offset_check


@pytest.mark.parametrize("source,offset", [
    ("x1^1e9", 3), ("x1^-1e9", 3), ("x2 + x1^(1e9)", 8), ("x1^-1001", 3), ("x1^big", 3),
])
def test_integer_exponents_beyond_the_bound_are_parse_errors(source, offset):
    with pytest.raises(ParseError, match="exceeds 1000 in absolute value") as err:
        parse(source, 2, constants={"big": 2.0**40})
    assert err.value.offset == offset


def test_exponents_within_the_bound_or_not_integer_parse():
    assert MAX_INTEGER_EXPONENT == 1000
    # a real or coordinate-dependent exponent is evaluated through u**e or
    # exp(log(u) * e), never as products, so it is not bounded
    for source in ("x1^1000", "x1^-1000", "x1^1000.5", "x1^1.5e-9", "x1^(x2*1e9)"):
        parse(source, 2)


DEPTH_100 = {   # sources whose tree, or whose nesting, is exactly MAX_DEPTH deep
    "sum": " + ".join(["x1"] * 100),
    "unary-minus": "-" * 99 + "x1",
    "calls": "sin(" * 99 + "x1" + ")" * 99,
    "parentheses": "(" * 100 + "x1" + ")" * 100,
    "powers": "^".join(["x1"] * 100),
}


@pytest.mark.parametrize("name", list(DEPTH_100))
def test_depth_bound(name):
    assert MAX_DEPTH == 100
    source = DEPTH_100[name]
    jets = compile([parse(source, 1)]).jet_arrays(np.array([0.9]), 3)
    assert all(np.isfinite(j).all() for j in jets)
    one_deeper = {"sum": source + " + x1", "unary-minus": "-" + source,
                  "calls": f"sin({source})", "parentheses": f"({source})",
                  "powers": f"{source}^x1"}[name]
    with pytest.raises(ParseError, match="more than 100 levels deep"):
        parse(one_deeper, 1)


def test_depth_errors_carry_offsets():
    # a chain fails at the operator that makes it 101 levels deep
    with pytest.raises(ParseError) as exc:
        parse(" + ".join(["x1"] * 20000), 1)
    assert exc.value.offset == len(" + ".join(["x1"] * 100)) + 1
    with pytest.raises(ParseError) as exc:
        parse("(" * 200 + "x1" + ")" * 200, 1)
    assert exc.value.offset == 100


@pytest.mark.parametrize("source", [5, 1.5, None, ["x1"]])
def test_non_string_sources_are_parse_errors(source):
    with pytest.raises(ParseError, match="expected an expression string") as err:
        parse(source, 2)
    assert err.value.offset == 0


def test_unknown_identifier_is_a_parse_error_not_a_nan():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("x3 + 1", 2)
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("k*x1", 1)  # unbound constant


@pytest.mark.parametrize("source, message", [
    ("x1 + foo", "unknown identifier 'foo' (at offset 5)"),
    ("x1 + foo(x1)", "unknown function 'foo' (at offset 5)"),
    ("x1 x2", "unexpected trailing input 'x2' (at offset 3)"),
    ("x1 + *", "unexpected '*' (at offset 5)"),
    # a token whose repr has 2 * 100 characters is still quoted whole
    ("x1 + " + "a" * 198, f"unknown identifier '{'a' * 198}' (at offset 5)"),
    ("x1 + " + "a" * 199, f"unknown identifier '{'a' * 100}' (the first 100 of 199 "
                          "characters) (at offset 5)"),
])
def test_a_parse_error_quotes_a_short_token_whole_and_a_long_one_in_part(source, message):
    with pytest.raises(ParseError) as exc:
        parse(source, 2)
    assert str(exc.value) == message


def test_round_trip_fixed_corpus():
    corpus = [
        "x1^2 + x2^2",
        "1/x1^2",
        "sin(x1)*cos(x2) - tan(x1/2)",
        "-x1^-2",
        "(x1 + x2)*(x1 - x2)",
        "exp(-x1^2/2)/sqrt(2*x2)",
        "x1 - x2 - 1",
        "2^3^x1",
        "-(x1 + x2)",
        "x1/(x2*x1)/x2",
        "log(x1) + 1.5e-3",
        "(x1^2)^3",
    ]
    for source in corpus:
        tree = parse(source, 2)
        assert parse(to_source(tree), 2) == tree, source


# hypothesis AST generator: round trip print->parse on random trees
_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=9.0, allow_nan=False).map(Num),
    st.sampled_from([Var("x1", 0), Var("x2", 1)]),
)


def _combine(children):
    unary = children.map(Neg) | children.map(lambda a: Call("sin", a))
    binary = st.tuples(children, children).map(lambda ab: Add(*ab)) \
        | st.tuples(children, children).map(lambda ab: Sub(*ab)) \
        | st.tuples(children, children).map(lambda ab: Mul(*ab)) \
        | st.tuples(children, children).map(lambda ab: Div(*ab)) \
        | st.tuples(children, st.integers(min_value=0, max_value=3).map(
            lambda k: Num(float(k)))).map(lambda ab: Pow(*ab))
    return unary | binary


@given(st.recursive(_leaf, _combine, max_leaves=25))
@settings(max_examples=300, deadline=None)
def test_round_trip_random_trees(tree):
    assert parse(to_source(tree), 2) == tree


def test_is_constant():
    assert is_constant(parse("1 + sin(3)*2", 2))
    assert not is_constant(parse("1 + x2", 2))
