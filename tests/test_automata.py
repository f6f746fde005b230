from __future__ import annotations

import random

import pytest

import treepump.automata as automata
from treepump import (
    AutomatonError,
    Dta,
    RankedAlphabet,
    Tree,
    annotate,
    accepts,
    context_at,
    enumerate_language,
    parse_context,
    parse_dta,
    parse_tree,
    pumping_constant,
    render,
    run,
    run_context,
    size,
    subtree_at,
    walk,
)

from helpers import (
    ALPHA_FGA,
    L3_TEXT,
    PARITY_TEXT,
    all_trees,
    naive_run,
    random_dta,
)


def T(m: Dta, text: str):
    return parse_tree(m.alphabet, text)[0]


# ---------------------------------------------------------------- parsing


def test_parse_l3(l3):
    assert l3.alphabet.symbols == {"g": 1, "a": 0}
    assert l3.states == frozenset({"q"})
    assert l3.final == frozenset({"q"})
    assert l3.transitions == {("a", ()): "q", ("g", ("q",)): "q"}


def test_parse_ignores_comments_and_blank_lines():
    text = "\n# top\nalphabet: a/0  # trailing\n\nstates: q\nfinal: q\ntrans: a -> q\n"
    m = parse_dta(text)
    assert m.transitions == {("a", ()): "q"}


def test_parse_sections_in_any_order():
    text = "trans: a -> q\nfinal: q\nstates: q\nalphabet: a/0\n"
    assert accepts(parse_dta(text), parse_tree(None, "a")[0])


@pytest.mark.parametrize(
    "text,fragment",
    [
        (L3_TEXT + "trans: a -> q\n", "duplicate transition"),
        (L3_TEXT + "final: qq\n", "undeclared"),
        (L3_TEXT + "trans: g(qq) -> q\n", "undeclared state"),
        (L3_TEXT + "trans: g(q,q) -> q\n", "rank"),
        (L3_TEXT + "alphabet: g/2\n", "duplicate symbol"),
        (L3_TEXT + "trans: h -> q\n", "undeclared symbol"),
        ("alphabet a/0\n", "expected 'key"),
        ("junk: a/0\n", "unknown section"),
        ("alphabet: a/x\n", "bad alphabet entry"),
        ("alphabet: a/0\nstates: q\nfinal: q\ntrans: a() -> q\n", "bad transition"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(AutomatonError) as err:
        parse_dta(text)
    assert fragment in str(err.value)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(AutomatonError) as err:
        parse_dta("alphabet: a/0\nstates: q\nfinal: nope\ntrans: a -> q\n")
    assert "line 3" in str(err.value)


def test_dta_constructor_validation():
    with pytest.raises(ValueError):
        Dta(ALPHA_FGA, frozenset({"q"}), frozenset({"r"}), {})
    with pytest.raises(ValueError):
        Dta(ALPHA_FGA, frozenset({"q"}), frozenset(), {("z", ()): "q"})
    with pytest.raises(ValueError):
        Dta(ALPHA_FGA, frozenset({"q"}), frozenset(), {("g", ()): "q"})


# one rule, one text: parse_dta prefixes the line, Dta(...) raises it bare
TRANSITION_ERRORS = [
    ("h -> q", ("h", ()), "q", "undeclared symbol 'h'"),
    ("g -> q", ("g", ()), "q", "'g' has rank 1, got 0 argument states"),
    ("f(q) -> q", ("f", ("q",)), "q", "'f' has rank 2, got 1 argument states"),
    ("g(r) -> q", ("g", ("r",)), "q", "undeclared state 'r'"),
    ("f(q,q) -> r", ("f", ("q", "q")), "r", "undeclared state 'r'"),
]


@pytest.mark.parametrize(
    "line,lhs,target,message",
    TRANSITION_ERRORS,
    ids=["symbol", "rank-low", "rank-high", "arg-state", "target-state"],
)
def test_transition_errors_have_one_text(line, lhs, target, message):
    text = "alphabet: f/2 g/1 a/0\nstates: q\nfinal: q\ntrans: a -> q\n"
    with pytest.raises(AutomatonError) as err:
        parse_dta(text + f"trans: {line}\n")
    assert str(err.value) == f"line 5: {message}"
    with pytest.raises(ValueError) as err:
        Dta(ALPHA_FGA, frozenset({"q"}), frozenset({"q"}), {lhs: target})
    assert type(err.value) is ValueError and str(err.value) == message


# ---------------------------------------------------------------- running


def test_run_l3(l3):
    # derived by hand: a -> q, then g(q) -> q twice
    assert run(l3, T(l3, "g(g(a))")) == "q"
    assert accepts(l3, T(l3, "g(g(a))"))


def test_run_parity(parity):
    # derived by hand: both leaves are q1, f(q1,q1) -> q0
    assert run(parity, T(parity, "f(a,a)")) == "q0"
    assert run(parity, T(parity, "a")) == "q1"
    assert not accepts(parity, T(parity, "a"))
    assert accepts(parity, T(parity, "f(a,g(a))"))


def test_run_missing_transition_is_none():
    m = parse_dta("alphabet: g/1 a/0\nstates: q\nfinal: q\ntrans: a -> q\n")
    assert run(m, parse_tree(m.alphabet, "a")[0]) == "q"
    assert run(m, parse_tree(m.alphabet, "g(a)")[0]) is None
    assert not accepts(m, parse_tree(m.alphabet, "g(a)")[0])


def test_run_alphabet_mismatch(l3):
    with pytest.raises(ValueError):
        run(l3, Tree("zz"))
    with pytest.raises(ValueError):
        run(l3, Tree("g"))  # rank 1 symbol used as a leaf


@pytest.mark.parametrize(
    "t,message",
    [
        (Tree("f", (Tree("x"), Tree("y"))), "unknown symbol 'x'"),
        (
            Tree("f", (Tree("a"), Tree("f", (Tree("y"), Tree("x"))))),
            "unknown symbol 'y'",
        ),
        (
            Tree("f", (Tree("f", (Tree("a"),)), Tree("x"))),
            "rank mismatch: 'f' takes 2 children, got 1",
        ),
        (Tree("f", (Tree("a", (Tree("a"),)), Tree("f"))), "rank mismatch: 'a'"),
    ],
)
def test_bad_node_errors_name_the_first_in_preorder(t, message):
    m = parse_dta("alphabet: f/2 a/0\nstates: q\nfinal: q\ntrans: a -> q\n")
    for entry in (run, accepts, annotate):
        with pytest.raises(ValueError) as info:
            entry(m, t)
        assert str(info.value).startswith(message)


@pytest.mark.parametrize(
    "text,message,position",
    [
        ("f(a,g(z))", "unknown symbol 'z'", 7),
        ("f(a,g(a,a))", "rank mismatch: 'g' takes 1 children, got 2", 5),
        ("g(f(a))", "rank mismatch: 'f' takes 2 children, got 1", 3),
    ],
)
def test_rank_texts_agree(parity, text, message, position):
    t = parse_tree(None, text)[0]
    for check in (ALPHA_FGA.check_tree, lambda t: run(parity, t)):
        with pytest.raises(ValueError) as err:
            check(t)
        assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        parse_tree(parity.alphabet, text)
    assert str(err.value) == f"{message} (at position {position})"


def test_annotate(l3, parity):
    assert annotate(l3, T(l3, "g(a)")) == {(): "q", (1,): "q"}
    assert annotate(parity, T(parity, "f(a,a)")) == {
        (): "q0",
        (1,): "q1",
        (2,): "q1",
    }


def test_annotate_stuck_is_none():
    m = parse_dta("alphabet: g/1 a/0\nstates: q\nfinal: q\ntrans: a -> q\n")
    assert annotate(m, parse_tree(m.alphabet, "g(a)")[0]) is None


def test_annotate_root_matches_run(parity):
    for t in all_trees(parity.alphabet, 5):
        ann = annotate(parity, t)
        assert ann is not None and ann[()] == run(parity, t)


def test_run_context(l3, parity):
    c, _ = parse_context(l3.alphabet, "g(@)")
    assert run_context(l3, c, "q") == "q"
    c, _ = parse_context(parity.alphabet, "f(@,a)")
    # derived by hand: hole carries q0, a gives q1, f(q0,q1) -> q1
    assert run_context(parity, c, "q0") == "q1"
    assert run_context(parity, parse_context(parity.alphabet, "@")[0], "q1") == "q1"
    with pytest.raises(ValueError):
        run_context(l3, c, "zz")


def test_run_agrees_with_reference_evaluator(parity, l3):
    automata = [parity, l3]
    rng = random.Random(11)
    automata += [random_dta(rng, rng.randrange(1, 4)) for _ in range(3)]
    for m in automata:
        trees = all_trees(m.alphabet, 6)
        for t in trees:
            assert run(m, t) == naive_run(m, t)


def test_run_splits_through_contexts(parity):
    # run(t) = run_context(t holed at u, run(subtree at u)) on a total automaton
    for t in all_trees(parity.alphabet, 5):
        for u, _ in walk(t):
            q = run(parity, subtree_at(t, u))
            assert run_context(parity, context_at(t, u), q) == run(parity, t)


# ------------------------------------------------------------- enumeration


def test_enumerate_l3(l3):
    assert [render(t) for t in enumerate_language(l3, 3)] == [
        "a",
        "g(a)",
        "g(g(a))",
    ]


def test_enumerate_parity_small(parity):
    assert enumerate_language(parity, 1) == []  # the single leaf is odd
    got = [render(t) for t in enumerate_language(parity, 3)]
    assert got == ["f(a,a)"]


def test_enumerate_agrees_with_brute_force(parity, l3):
    rng = random.Random(23)
    automata = [parity, l3] + [random_dta(rng, rng.randrange(1, 4)) for _ in range(4)]
    for m in automata:
        expected = [t for t in all_trees(m.alphabet, 6) if accepts(m, t)]
        expected.sort(key=lambda t: (size(t), render(t)))
        assert enumerate_language(m, 6) == expected


def test_enumerate_ordering(parity):
    out = enumerate_language(parity, 6)
    keys = [(size(t), render(t)) for t in out]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)  # no duplicates


def test_enumerate_empty_final():
    m = parse_dta("alphabet: a/0\nstates: q\nfinal:\ntrans: a -> q\n")
    assert enumerate_language(m, 4) == []


def test_enumerate_rejects_bad_bound(l3):
    with pytest.raises(ValueError):
        enumerate_language(l3, 0)


def test_enumerate_self_check_evaluates_every_tree(parity, monkeypatch):
    real = automata._states_bottom_up
    seen = []

    def spy(m, t, memo=None):
        seen.append(t)
        return real(m, t, memo)

    monkeypatch.setattr(automata, "_states_bottom_up", spy)
    out = enumerate_language(parity, 6)
    assert len(out) > 5
    assert sorted(map(id, seen)) == sorted(map(id, out))

    def fifth_rejected(m, t, memo=None):
        seen.append(t)
        q = real(m, t, memo)
        return None if len(seen) == 5 else q

    seen.clear()
    monkeypatch.setattr(automata, "_states_bottom_up", fifth_rejected)
    with pytest.raises(RuntimeError, match="rejected tree"):
        enumerate_language(parity, 6)


def test_enumerate_is_deterministic(parity):
    assert enumerate_language(parity, 6) == enumerate_language(parity, 6)


# ------------------------------------------------------------- pumping constant


def test_pumping_constant(l3, parity):
    assert pumping_constant(l3) == 2  # max rank 1, one state: 1 + 1
    assert pumping_constant(parity) == 7  # max rank 2, two states: 1 + 2 + 4
    nullary = parse_dta("alphabet: a/0 b/0\nstates: q\nfinal: q\ntrans: a -> q\n")
    assert pumping_constant(nullary) == 2
