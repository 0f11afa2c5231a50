import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvdesk import formula
from bvdesk.formula import (MAX_DEPTH, PARSE_MEMO_SIZE, And, Eq, Exists, Forall,
                            Iff, Implies, Mem, Not, Or, ParseError, Var, _parse,
                            _Parser, free_names, parse, quantifier_depth, unparse)


class TestParsing:
    def test_atoms(self):
        assert parse("a = b") == Eq(Var("a"), Var("b"))
        assert parse("a in b") == Mem(Var("a"), Var("b"))

    def test_quantifiers(self):
        f = parse("forall t in x : t = y")
        assert f == Forall("t", Var("x"), Eq(Var("t"), Var("y")))
        g = parse("exists t in x : t in y")
        assert g == Exists("t", Var("x"), Mem(Var("t"), Var("y")))

    def test_precedence(self):
        # ! binds tighter than &, & tighter than |, | tighter than ->
        f = parse("!a = b & c = d | e = f -> g = h")
        assert isinstance(f, Implies)
        assert isinstance(f.left, Or)
        assert isinstance(f.left.left, And)
        assert isinstance(f.left.left.left, Not)

    def test_implication_right_associative(self):
        f = parse("a = a -> b = b -> c = c")
        assert isinstance(f, Implies)
        assert isinstance(f.right, Implies)

    def test_parenthesized_quantifier(self):
        f = parse("(forall t in x : t = t) & y = y")
        assert isinstance(f, And)
        assert isinstance(f.left, Forall)

    def test_quantifier_body_extends_right(self):
        f = parse("forall t in x : t = t | t in x")
        assert isinstance(f, Forall)
        assert isinstance(f.body, Or)

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError) as exc:
            parse("a == b")
        assert exc.value.position == 3
        with pytest.raises(ParseError):
            parse("forall in x : a = a")
        with pytest.raises(ParseError):
            parse("(a = b")
        with pytest.raises(ParseError):
            parse("a = b extra")
        with pytest.raises(ParseError):
            parse("a @ b")

    def test_keywords_are_not_identifiers(self):
        with pytest.raises(ParseError):
            parse("forall forall in x : a = a")

    def test_quantifier_depth(self):
        assert quantifier_depth(parse("a = b")) == 0
        assert quantifier_depth(parse("forall t in a : t in a")) == 1
        assert quantifier_depth(parse(
            "(forall a in x : forall b in a : b in x) & (exists c in x : c = c)")) == 2
        assert quantifier_depth(parse("!(exists a in x : a = a) -> "
                                      "(forall a in x : (a = a | (exists b in a : b = b)))")) == 2


NESTINGS = [
    lambda n: "(" * n + "a = a" + ")" * n,
    lambda n: "!" * n + "a = a",
    lambda n: "forall t in a : " * n + "a = a",
    lambda n: " -> ".join(["a = a"] * n),
    lambda n: " | ".join(["a = a"] * n),
    lambda n: " & ".join(["a in a"] * n),
]


@pytest.mark.parametrize("nest", NESTINGS)
def test_nesting_depth_is_capped(nest):
    parse(nest(MAX_DEPTH - 1))
    for n in (MAX_DEPTH + 1, 2000):
        with pytest.raises(ParseError, match="nested deeper"):
            parse(nest(n))


def test_free_names():
    f = parse("forall t in x : t = y")
    assert free_names(f) == {"x", "y"}
    g = parse("exists t in x : forall s in t : s in t")
    assert free_names(g) == {"x"}


def test_unparse_round_trips():
    texts = [
        "a = b",
        "a in b",
        "!(a = b)",
        "(a = b) & (c in d)",
        "forall t in x : exists s in t : (s = t) | !(s in x)",
        "(a = a) -> ((b = b) -> (c = c))",
    ]
    for text in texts:
        assert parse(unparse(parse(text))) == parse(text)


_names = st.sampled_from(["a", "b", "c", "x", "y", "t"])


def _formulas(depth):
    atom = st.one_of(
        st.tuples(_names, _names).map(lambda p: Eq(Var(p[0]), Var(p[1]))),
        st.tuples(_names, _names).map(lambda p: Mem(Var(p[0]), Var(p[1]))),
    )
    if depth == 0:
        return atom
    sub = _formulas(depth - 1)
    return st.one_of(
        atom,
        sub.map(Not),
        st.tuples(sub, sub).map(lambda p: And(*p)),
        st.tuples(sub, sub).map(lambda p: Or(*p)),
        st.tuples(sub, sub).map(lambda p: Implies(*p)),
        st.tuples(_names, _names, sub).map(lambda p: Forall(p[0], Var(p[1]), p[2])),
        st.tuples(_names, _names, sub).map(lambda p: Exists(p[0], Var(p[1]), p[2])),
    )


@settings(max_examples=300)
@given(_formulas(3))
def test_unparse_parse_identity_random(f):
    assert parse(unparse(f)) == f


def test_iff_unparses_via_definition():
    # Iff has no concrete syntax; it round-trips through its definition
    f = Iff(Eq(Var("a"), Var("b")), Mem(Var("a"), Var("c")))
    g = parse(unparse(f))
    assert g == And(Implies(f.left, f.right), Implies(f.right, f.left))


# -- the parse memo -----------------------------------------------------------------


def _outcome(thunk):
    """The formula ``thunk()`` returns, or the message and position it raises."""
    try:
        return thunk()
    except ParseError as exc:
        return str(exc), exc.position


def _wrapped(text, depth, shape):
    """``text`` nested ``depth`` times in the given shape."""
    if shape == "parens":
        return "(" * depth + text + ")" * depth
    if shape == "not":
        return "!(" * depth + text + ")" * depth
    return "forall t in a : " * depth + text  # rebinds t over and over


_texts = st.one_of(
    _formulas(3).map(unparse),
    st.tuples(_formulas(2).map(unparse), st.integers(0, 2 * MAX_DEPTH),
              st.sampled_from(["parens", "not", "forall"])).map(lambda p: _wrapped(*p)),
    st.text("abtx=in!&|->():forallexists ", max_size=30),
)


@settings(max_examples=300)
@given(_texts, st.sampled_from(["", " ", "\t\n"]))
def test_memo_agrees_with_the_parser(text, pad):
    text = pad + text + pad
    first, second = _outcome(lambda: parse(text)), _outcome(lambda: parse(text))
    assert first == second == _outcome(lambda: _Parser(text).parse())
    if not isinstance(first, tuple):  # a formula, not an error's message and position
        assert first is second


def test_errors_are_not_remembered():
    _parse.cache_clear()
    for text in ["a == b", "(a = b", " a @ b", *(nest(MAX_DEPTH + 1) for nest in NESTINGS)]:
        positions = set()
        for _ in range(3):
            with pytest.raises(ParseError) as exc:
                parse(text)
            positions.add(exc.value.position)
        assert len(positions) == 1
    assert _parse.cache_info().currsize == 0


def test_memo_is_bounded():
    _parse.cache_clear()
    for i in range(PARSE_MEMO_SIZE + 50):
        parse(f"x{i} = y")
    info = _parse.cache_info()
    assert info.maxsize == PARSE_MEMO_SIZE
    assert info.currsize == PARSE_MEMO_SIZE
    assert (info.hits, info.misses) == (0, PARSE_MEMO_SIZE + 50)
    parse(f"x{PARSE_MEMO_SIZE + 49} = y")
    assert _parse.cache_info().hits == 1


def test_parse_is_a_plain_function():
    # the benchmark's tracer wraps plain functions only; the memo stays behind it
    assert isinstance(formula.parse, types.FunctionType)
