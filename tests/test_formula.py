import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvdesk.formula import (MAX_DEPTH, And, Eq, Exists, Forall, Iff, Implies,
                            Mem, Not, Or, ParseError, Var, free_names, parse,
                            quantifier_depth, unparse)


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


@pytest.mark.parametrize("nest", [
    lambda n: "(" * n + "a = a" + ")" * n,
    lambda n: "!" * n + "a = a",
    lambda n: "forall t in a : " * n + "a = a",
    lambda n: " -> ".join(["a = a"] * n),
    lambda n: " | ".join(["a = a"] * n),
    lambda n: " & ".join(["a in a"] * n),
])
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
