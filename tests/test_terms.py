from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepump import (
    Context,
    InvalidAddressError,
    ParseError,
    RankedAlphabet,
    Tree,
    addresses,
    check_marks,
    compose,
    context_at,
    format_address,
    infer_alphabet,
    is_prefix,
    is_strict_prefix,
    merge_alphabets,
    parse_address,
    parse_context,
    parse_tree,
    power,
    render,
    replace_at,
    size,
    size_context,
    split,
    substitute,
    subtree_at,
    walk,
)

from treepump.terms import _Index

from helpers import ALPHA_FGA, ALPHA_GA, random_ancestor_pair

A = ALPHA_FGA


def T(text: str) -> Tree:
    return parse_tree(None, text)[0]


def C(text: str) -> Context:
    return parse_context(None, text)[0]


# ---------------------------------------------------------------- alphabets


def test_alphabet_basics():
    assert A.rank("f") == 2 and A.rank("a") == 0
    assert "g" in A and "z" not in A
    assert A.max_rank == 2
    assert RankedAlphabet({"a": 0, "b": 0}).max_rank == 0


def test_alphabet_rejects_bad_names():
    with pytest.raises(ValueError):
        RankedAlphabet({"@": 0})
    with pytest.raises(ValueError):
        RankedAlphabet({"": 0})
    with pytest.raises(ValueError):
        RankedAlphabet({"1x": 0})
    with pytest.raises(ValueError):
        RankedAlphabet({"a": -1})


def test_merge_alphabets():
    merged = merge_alphabets(ALPHA_GA, RankedAlphabet({"f": 2, "g": 1}))
    assert merged.symbols == {"g": 1, "a": 0, "f": 2}
    with pytest.raises(ValueError):
        merge_alphabets(ALPHA_GA, RankedAlphabet({"g": 2}))


@pytest.mark.parametrize("label", ["", "f(x", "a b", "1a", "g!", "é", "@@", 3])
def test_tree_rejects_labels_render_cannot_round_trip(label):
    # Tree("f(x") used to render as the unparseable f(f(x)
    with pytest.raises(ValueError, match="bad node label"):
        Tree(label, (Tree("x"),))


@pytest.mark.parametrize("label", ["a", "_x1", "If", "@"])
def test_tree_accepts_symbol_names_and_the_hole(label):
    assert Tree(label).label == label


def test_check_tree():
    A.check_tree(T("f(g(a),a)"))
    with pytest.raises(ValueError):
        A.check_tree(Tree("z"))
    with pytest.raises(ValueError):
        A.check_tree(Tree("f", (Tree("a"),)))


def test_alphabet_check_texts():
    A.check("f", 2)
    with pytest.raises(ValueError, match="^unknown symbol 'z'$"):
        A.check("z", 0)
    with pytest.raises(ValueError) as err:
        A.check("f", 1)
    assert str(err.value) == "rank mismatch: 'f' takes 2 children, got 1"
    # check_tree reports the first bad node in preorder with the same texts
    with pytest.raises(ValueError) as err:
        A.check_tree(Tree("f", (Tree("g"), Tree("z"))))
    assert str(err.value) == "rank mismatch: 'g' takes 1 children, got 0"


# ---------------------------------------------------------------- addresses


@pytest.mark.parametrize(
    "text,addr",
    [("e", ()), ("1", (1,)), ("1.2", (1, 2)), ("10.3.1", (10, 3, 1))],
)
def test_address_round_trip(text, addr):
    assert parse_address(text) == addr
    assert format_address(addr) == text


@pytest.mark.parametrize("bad", ["", "0", "1.", ".1", "1.0", "e.1", "x", "-1"])
def test_address_rejects(bad):
    with pytest.raises(ValueError):
        parse_address(bad)


# Arabic-Indic one, superscript two, fullwidth one: digits to str.isdigit,
# and the first and last even to int()
@pytest.mark.parametrize(
    "bad", ["\u0661", "\u00b2", "\uff11", "1.\u0661", "\u0661\u0662"]
)
def test_address_accepts_ascii_digits_only(bad):
    with pytest.raises(ValueError, match="^bad address component "):
        parse_address(bad)


def test_prefix_orders():
    assert is_prefix((), (1, 2)) and is_prefix((1,), (1,))
    assert is_strict_prefix((1,), (1, 2))
    assert not is_strict_prefix((1,), (1,))
    assert not is_strict_prefix((2,), (1, 2))
    # tuple comparison is the documented lexicographic order
    assert () < (1,) < (1, 1) < (2,)


# ---------------------------------------------------------------- parsing


def test_parse_plain_and_marked():
    t, marks = parse_tree(A, "a")
    assert t == Tree("a") and marks == frozenset()
    t, marks = parse_tree(A, "f(g!(a),g!(a))")
    assert t == Tree("f", (Tree("g", (Tree("a"),)), Tree("g", (Tree("a"),))))
    assert marks == frozenset({(1,), (2,)})
    _, marks = parse_tree(A, "a!")
    assert marks == frozenset({()})


def test_parse_whitespace_insignificant():
    assert parse_tree(A, " f ( g ( a ) , a ) ") == parse_tree(A, "f(g(a),a)")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("f(a)", "rank mismatch"),
        ("zz", "unknown symbol"),
        ("f(a,,a)", "expected a symbol name"),
        ("f(a,a))", "trailing"),
        ("f(a,a)x", "trailing"),
        ("", "expected a symbol name"),
        ("f(a,a", "expected ',' or ')'"),
        ("(a)", "expected a symbol name"),
        ("@", "only allowed in a context"),
        ("a()", "expected a symbol name"),
    ],
)
def test_parse_tree_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_tree(A, text)
    assert fragment in str(err.value)
    assert err.value.position >= 1


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_tree(A, "f(a,zz)")
    assert err.value.position == 5
    with pytest.raises(ParseError) as err:
        parse_tree(A, "f(a)")
    assert err.value.position == 1  # reported at the offending symbol


def test_parse_context():
    c, marks = parse_context(A, "f(g(@),a!)")
    assert c.hole_address == (1, 1)
    assert marks == frozenset({(2,)})
    assert parse_context(A, "@")[0] == Context.identity()


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("g(a)", "no hole"),
        ("f(@,@)", "second"),
        ("@(a)", "takes no children"),
        ("@!", "cannot be marked"),
    ],
)
def test_parse_context_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_context(A, text)
    assert fragment in str(err.value)


def test_parse_infer_mode():
    t, _ = parse_tree(None, "f(g(b),b)")
    assert t.label == "f"
    with pytest.raises(ParseError) as err:
        parse_tree(None, "f(a,f(a))")
    assert "previously" in str(err.value)


def test_inferred_rank_texts_agree():
    # the inner f closes first, so the outer one is the conflict
    with pytest.raises(ParseError) as err:
        parse_tree(None, "f(a,f(a))")
    assert str(err.value) == (
        "symbol 'f' used with 2 children, previously 1 (at position 1)"
    )
    with pytest.raises(ValueError) as err:
        infer_alphabet(T("f(g(a),a)"), T("g(a,a)"))
    assert str(err.value) == "symbol 'g' used with 2 children, previously 1"
    with pytest.raises(ValueError) as err:
        infer_alphabet(C("g(@)"), T("a"), T("g(a,a)"), T("g(a)"))
    assert str(err.value) == "symbol 'g' used with 2 children, previously 1"


def test_infer_alphabet():
    t = T("f(g(a),a)")
    assert infer_alphabet(t).symbols == {"f": 2, "g": 1, "a": 0}
    assert infer_alphabet(C("g(@)")).symbols == {"g": 1}
    with pytest.raises(ValueError):
        infer_alphabet(t, T("g(a,a)"))


# ---------------------------------------------------------------- rendering


@pytest.mark.parametrize(
    "text", ["a", "g(a)", "f(g!(a),g!(a))", "f(f(a,a),g(g(a!)))", "a!"]
)
def test_render_round_trip_examples(text):
    t, marks = parse_tree(A, text)
    assert render(t, marks) == text
    assert parse_tree(A, render(t, marks)) == (t, marks)


def test_render_marks_a_context_shape():
    c, marks = parse_context(A, "f(g(@),a!)")
    assert render(c.shape, marks) == "f(g(@),a!)"


def test_str_is_render():
    assert str(T("f(a,a)")) == "f(a,a)"
    assert str(C("g(@)")) == "g(@)"


# ---------------------------------------------------------------- traversal


def test_walk_is_preorder_lexicographic():
    t = T("f(g(a),f(a,a))")
    addrs = list(addresses(t))
    assert addrs == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]
    assert addrs == sorted(addrs)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("a", 1),
        ("g(a)", 2),
        ("f(a,a)", 3),
        # derived: 2n + 3 nodes for f(g^n a, g^n a); n = 3 gives 9
        ("f(g(g(g(a))),g(g(g(a))))", 9),
    ],
)
def test_size(text, expected):
    assert size(T(text)) == expected


def test_size_context():
    assert size_context(Context.identity()) == 0
    assert size_context(C("f(@,a)")) == 2
    assert size_context(C("g(g(@))")) == 2


def test_subtree_at():
    t = T("f(g(a),a)")
    assert subtree_at(t, ()) == t
    assert subtree_at(t, (1,)) == T("g(a)")
    assert subtree_at(t, (2,)) == T("a")
    assert subtree_at(t, (1, 1)) == T("a")
    with pytest.raises(InvalidAddressError):
        subtree_at(t, (1, 2))
    with pytest.raises(InvalidAddressError):
        subtree_at(t, (3,))


def test_replace_at():
    t = T("f(g(a),a)")
    assert replace_at(t, (1,), T("a")) == T("f(a,a)")
    assert replace_at(t, (), T("a")) == T("a")


@pytest.mark.parametrize(
    "addr,k", [((3,), 1), ((0,), 1), ((1, 2), 2), ((1, 1, 1), 3), ((2, 1, 5), 2)]
)
@pytest.mark.parametrize(
    "call",
    [
        lambda t, a: subtree_at(t, a),
        lambda t, a: replace_at(t, a, Tree("a")),
        lambda t, a: context_at(t, a),
        lambda t, a: split(t, (), a),
        lambda t, a: check_marks(t, {(1,), a}),
        lambda t, a: _Index(t).flags({(1,), a}),
    ],
)
def test_invalid_address_names_the_first_bad_component(call, addr, k):
    with pytest.raises(InvalidAddressError) as err:
        call(T("f(g(a),a)"), addr)
    assert str(err.value) == f"address {format_address(addr)} invalid at component {k}"


def test_check_marks():
    t = T("g(a)")
    check_marks(t, {(), (1,)})
    with pytest.raises(InvalidAddressError):
        check_marks(t, {(2,)})


# ---------------------------------------------------------------- contexts


def test_context_validation():
    with pytest.raises(ValueError):
        Context(T("g(a)"))  # no hole
    with pytest.raises(ValueError):
        Context(Tree("f", (Tree("@"), Tree("@"))))  # two holes
    with pytest.raises(ValueError):
        Context(Tree("@", (Tree("a"),)))  # hole with a child


def test_context_validation_messages():
    with pytest.raises(ValueError, match="exactly one hole, found 0$"):
        Context(Tree("a"))
    with pytest.raises(ValueError, match="exactly one hole, found 2$"):
        Context(Tree("f", (Tree("@"), Tree("g", (Tree("@"),)))))
    with pytest.raises(ValueError, match="^the hole must be a leaf$"):
        Context(Tree("f", (Tree("a"), Tree("@", (Tree("a"),)))))
    # a hole below the hole is a second hole, not a non-leaf hole
    with pytest.raises(ValueError, match="found 2$"):
        Context(Tree("@", (Tree("@"),)))


def test_substitute():
    assert substitute(C("f(@,a)"), T("g(a)")) == T("f(g(a),a)")
    assert substitute(Context.identity(), T("a")) == T("a")


def test_compose():
    c = compose(C("f(@,a)"), C("g(@)"))
    assert c == C("f(g(@),a)")
    assert c.hole_address == (1, 1)
    # composition acts like substitution after substitution
    t = T("a")
    assert substitute(c, t) == substitute(C("f(@,a)"), substitute(C("g(@)"), t))


def test_power():
    c = C("g(@)")
    assert power(c, 0) == Context.identity()
    assert power(c, 3) == C("g(g(g(@)))")
    assert power(C("f(@,a)"), 2) == C("f(f(@,a),a)")
    with pytest.raises(ValueError):
        power(c, -1)


# ---------------------------------------------------------------- splitting


def test_split_examples():
    t = T("f(g(a),a)")
    cprime, c, tprime = split(t, (1,), (1, 1))
    assert (cprime, c, tprime) == (C("f(@,a)"), C("g(@)"), T("a"))
    cprime, c, tprime = split(t, (), (1,))
    assert (cprime, c, tprime) == (Context.identity(), C("f(@,a)"), T("g(a)"))


def test_split_rejects():
    t = T("f(g(a),a)")
    with pytest.raises(ValueError):
        split(t, (1,), (1,))  # u = v
    with pytest.raises(ValueError):
        split(t, (1,), (2,))  # not an ancestor
    with pytest.raises(InvalidAddressError):
        split(t, (1,), (1, 1, 1))


def test_split_names_the_bad_component_from_the_root():
    t = T("f(g(a),a)")
    with pytest.raises(InvalidAddressError) as err:
        split(t, (1,), (1, 2))  # a bad v is counted from t's root, not from u
    assert str(err.value) == "address 1.2 invalid at component 2"
    with pytest.raises(InvalidAddressError) as err:
        split(t, (3,), (3, 1))  # a bad u is reported before v is read
    assert str(err.value) == "address 3 invalid at component 1"


def test_split_rejects_a_tree_holding_the_hole():
    # cprime would be f(@,@): the old hole plus the cut at u
    t = Tree("f", (Tree("@"), Tree("g", (Tree("a"),))))
    with pytest.raises(ValueError, match="hole"):
        split(t, (2,), (2, 1))


def test_context_at():
    t = T("f(g(a),a)")
    assert context_at(t, (1,)) == C("f(@,a)")
    assert context_at(t, ()) == Context.identity()



def test_context_at_rejects_a_tree_holding_the_hole():
    # the cut at 2 would give the two-hole f(@,@)
    t = Tree("f", (Tree("@"), Tree("a")))
    with pytest.raises(ValueError) as by_context_at:
        context_at(t, (2,))
    with pytest.raises(ValueError) as by_split:
        split(Tree("g", (t,)), (1,), (1, 2))
    msg = "a tree cannot contain the hole '@'"
    assert str(by_context_at.value) == str(by_split.value) == msg


# ------------------------------------------------------- property testing


def trees(max_leaves: int = 12):
    return st.recursive(
        st.just(Tree("a")) | st.just(Tree("b")),
        lambda kids: st.builds(lambda k: Tree("g", (k,)), kids)
        | st.builds(lambda l, r: Tree("f", (l, r)), kids, kids),
        max_leaves=max_leaves,
    )


@given(trees(), st.data())
def test_split_recomposes(t, data):
    if size(t) < 2:
        return
    addrs = [a for a in addresses(t) if a]
    v = data.draw(st.sampled_from(addrs))
    u = v[: data.draw(st.integers(0, len(v) - 1))]
    cprime, c, tprime = split(t, u, v)
    assert substitute(cprime, substitute(c, tprime)) == t
    assert size_context(cprime) + size_context(c) + size(tprime) == size(t)
    assert size_context(c) >= 1


@given(trees(), st.data())
def test_render_parse_round_trip(t, data):
    marks = frozenset(
        a for a in addresses(t) if data.draw(st.booleans(), label=str(a))
    )
    alphabet = RankedAlphabet({"f": 2, "g": 1, "a": 0, "b": 0})
    assert parse_tree(alphabet, render(t, marks)) == (t, marks)


@given(st.integers(0, 4), st.integers(0, 4))
def test_power_adds(m, n):
    c = C("f(g(@),a)")
    t = T("a")
    lhs = substitute(power(c, m + n), t)
    rhs = substitute(power(c, m), substitute(power(c, n), t))
    assert lhs == rhs


@settings(max_examples=30)
@given(trees(max_leaves=8), trees(max_leaves=8))
def test_substitute_size_additive(t1, t2):
    c = context_at(t1, max(addresses(t1)))
    assert size(substitute(c, t2)) == size_context(c) + size(t2)


def test_deep_trees_do_not_recurse():
    # equality, hashing, rendering and size stay iterative on deep chains
    def chain(n: int) -> Tree:
        t = Tree("a")
        for _ in range(n):
            t = Tree("g", (t,))
        return t

    left, right = chain(5000), chain(5000)
    assert left == right
    assert hash(left) == hash(right)
    assert left != chain(5001)
    assert size(left) == 5001
    text = render(left)
    assert parse_tree(ALPHA_GA, text)[0] == left


def test_random_pairs_recompose_across_seeds():
    import random

    rng = random.Random(7)
    for _ in range(50):
        t = parse_tree(A, "f(g(g(a)),f(g(a),f(a,g(g(g(a))))))")[0]
        u, v = random_ancestor_pair(rng, t)
        cprime, c, tprime = split(t, u, v)
        assert substitute(cprime, substitute(c, tprime)) == t
