from __future__ import annotations

import random

import pytest

from treepump import (
    Candidate,
    GameConstraint,
    addresses,
    builtin_oracle,
    dta_oracle,
    enumerate_decompositions,
    is_prefix,
    is_strict_prefix,
    parse_tree,
    play,
    refute,
    size,
    split,
    standard_decompose,
    substitute,
    subtree_at,
)

from helpers import ALPHA_L2, random_alphabet, random_marking, random_tree


def T(text):
    return parse_tree(None, text)[0]


def naive_candidates(t, constraint):
    """Quadratic reference enumeration of legal (u, v) cut pairs."""
    out = []
    for u in addresses(t):
        for v in addresses(t):
            if not is_strict_prefix(u, v):
                continue
            if constraint.mode == "classic":
                if size(subtree_at(t, u)) > constraint.p:
                    continue
            else:
                inside_u = sum(1 for m in constraint.marks if is_prefix(u, m))
                inside_v = sum(1 for m in constraint.marks if is_prefix(v, m))
                if inside_u > constraint.p or inside_u - inside_v < 1:
                    continue
            out.append((u, v))
    return sorted(out)


# ----------------------------------------------------------------- oracles


@pytest.mark.parametrize(
    "text,member",
    [
        ("f(g(a),g(a))", True),
        ("f(g(g(a)),g(g(a)))", True),
        ("f(a,a)", False),
        ("f(g(a),g(g(a)))", False),
        ("f(g(a),a)", False),
        ("a", False),
        ("g(f(g(a),g(a)))", False),
    ],
)
def test_l1_membership(text, member):
    assert builtin_oracle("L1").membership(T(text)) is member


@pytest.mark.parametrize(
    "text,member",
    [
        ("f(g(h(a)),g(h(a)))", True),
        ("f(g(h(h(a))),g(h(a)))", True),
        ("f(g(g(h(a))),g(g(h(h(h(a))))))", True),
        ("f(g(g(h(a))),g(h(a)))", False),
        ("f(h(a),h(a))", False),
        ("f(g(a),g(h(a)))", False),
        ("f(g(h(a)),g(h(g(a))))", False),
    ],
)
def test_l2_membership(text, member):
    assert builtin_oracle("L2").membership(T(text)) is member


def test_unknown_oracle():
    with pytest.raises(ValueError):
        builtin_oracle("L9")


def test_dta_oracle(parity):
    oracle = dta_oracle(parity)
    assert oracle.name == "dta"
    assert oracle.membership(T("f(a,a)"))
    assert not oracle.membership(T("a"))


# -------------------------------------------------------------- constraint


def test_constraint_validation():
    with pytest.raises(ValueError):
        GameConstraint("sudden-death", 2)
    with pytest.raises(ValueError):
        GameConstraint.classic(0)
    with pytest.raises(ValueError):
        GameConstraint("ogden", 2)  # marks missing
    with pytest.raises(ValueError):
        GameConstraint("classic", 2, frozenset({()}))
    assert GameConstraint.classic(3).mode == "classic"
    assert GameConstraint.ogden(3, {()}).marks == frozenset({()})


# ------------------------------------------------------------- enumeration


def test_enumerate_frozen_counts():
    t = T("f(g(g(a)),g(g(a)))")
    assert len(enumerate_decompositions(t, GameConstraint.classic(2))) == 2
    assert len(enumerate_decompositions(t, GameConstraint.classic(7))) == 12
    assert enumerate_decompositions(T("a"), GameConstraint.classic(5)) == []


def test_enumerate_small_classic_pairs():
    t = T("f(g(g(a)),g(g(a)))")
    got = enumerate_decompositions(t, GameConstraint.classic(2))
    assert [(d.u, d.v) for d in got] == [((1, 1), (1, 1, 1)), ((2, 1), (2, 1, 1))]
    d = got[0]
    assert str(d.c) == "g(@)"
    assert str(d.tprime) == "a"


def test_enumerate_is_lex_ordered_and_recomposes():
    t = T("f(g(g(a)),g(g(a)))")
    got = enumerate_decompositions(t, GameConstraint.classic(7))
    pairs = [(d.u, d.v) for d in got]
    assert pairs == sorted(pairs)
    for d in got:
        assert split(t, d.u, d.v) == (d.cprime, d.c, d.tprime)
        assert substitute(d.cprime, substitute(d.c, d.tprime)) == t


def test_enumerate_matches_naive_reference():
    rng = random.Random(83)
    for _ in range(60):
        alphabet = random_alphabet(rng)
        t = random_tree(rng, alphabet, rng.randrange(1, 16))
        if rng.random() < 0.5:
            constraint = GameConstraint.classic(rng.randrange(1, size(t) + 2))
        else:
            marks = random_marking(rng, t, rng.randrange(0, size(t) + 1))
            constraint = GameConstraint.ogden(
                rng.randrange(1, len(marks) + 2), marks
            )
        got = enumerate_decompositions(t, constraint)
        assert [(d.u, d.v) for d in got] == naive_candidates(t, constraint)


def test_enumerate_ogden_loop_owns_a_mark():
    t = T("f(g(h(a)),g(h(a)))")
    marks = frozenset({(1,), (2,)})
    for d in enumerate_decompositions(t, GameConstraint.ogden(2, marks)):
        owned = {
            m for m in marks if is_prefix(d.u, m) and not is_prefix(d.v, m)
        }
        assert owned


# ------------------------------------------------------------------ refute


def test_refute_desynced_g_loop():
    oracle = builtin_oracle("L1")
    t = T("f(g(g(a)),g(g(a)))")
    _, c, tp = split(t, (1, 1), (1, 1, 1))
    cand = Candidate((1, 1), (1, 1, 1), split(t, (1, 1), (1, 1, 1))[0], c, tp)
    # n=0 already desyncs the branches; the counterexample comes along
    assert refute(oracle, cand, 5) == (0, T("f(g(a),g(g(a)))"))


def test_refute_h_loop_never_leaves_l2():
    oracle = builtin_oracle("L2")
    t = parse_tree(ALPHA_L2, "f(g(h(h(a))),g(h(h(a))))")[0]
    cprime, c, tp = split(t, (1, 1, 1), (1, 1, 1, 1))
    cand = Candidate((1, 1, 1), (1, 1, 1, 1), cprime, c, tp)
    assert str(c) == "h(@)"
    assert refute(oracle, cand, 10) is None


def test_refute_rejects_negative_budget():
    oracle = builtin_oracle("L1")
    t = T("f(g(a),g(a))")
    d = enumerate_decompositions(t, GameConstraint.classic(2))[0]
    with pytest.raises(ValueError):
        refute(oracle, d, -1)


# -------------------------------------------------------------------- play


def test_play_l1_we_win():
    oracle = builtin_oracle("L1")
    t = T("f(g(g(g(a))),g(g(g(a))))")
    report = play(oracle, t, GameConstraint.classic(3), max_n=2)
    assert report.we_win
    assert report.overall == "WE_WIN"
    assert len(report.verdicts) > 0
    for v in report.verdicts:
        assert v.refuted_at is not None
        assert v.counterexample is not None
        assert not oracle.membership(v.counterexample)


def test_play_l2_classic_adversary_survives():
    oracle = builtin_oracle("L2")
    t = parse_tree(ALPHA_L2, "f(g(h(h(a))),g(h(h(a))))")[0]
    report = play(oracle, t, GameConstraint.classic(3), max_n=5)
    assert not report.we_win
    assert report.overall == "ADVERSARY_SURVIVES"
    survivors = [v for v in report.verdicts if v.refuted_at is None]
    assert any(
        str(v.candidate.c) == "h(@)" and str(v.candidate.tprime) == "a"
        for v in survivors
    )
    for v in survivors:
        assert v.counterexample is None
        assert v.up_to == 5


def _loop_labels(c):
    out = set()
    stack = [c.shape]
    while stack:
        n = stack.pop()
        out.add(n.label)
        stack.extend(n.children)
    return out


def test_play_l2_ogden_we_win():
    # marking only the g nodes forces every loop to move a g
    oracle = builtin_oracle("L2")
    t = parse_tree(ALPHA_L2, "f(g(h(a)),g(h(a)))")[0]
    marks = frozenset({(1,), (2,)})
    constraint = GameConstraint.ogden(2, marks)
    for d in enumerate_decompositions(t, constraint):
        assert "g" in _loop_labels(d.c)
    report = play(oracle, t, constraint, max_n=2)
    assert report.we_win


def test_play_vacuous_win():
    oracle = builtin_oracle("L1")
    t = T("f(g(a),g(a))")
    report = play(oracle, t, GameConstraint.classic(1), max_n=3)
    assert report.verdicts == ()
    assert report.we_win  # no legal move for the adversary


def test_play_rejects_negative_budget_without_a_legal_move():
    # refute never runs here, so play has to check max_n itself
    oracle = builtin_oracle("L1")
    with pytest.raises(ValueError, match="^max_n must be nonnegative$"):
        play(oracle, T("f(g(a),g(a))"), GameConstraint.classic(1), max_n=-1)


def test_play_rejects_a_non_member():
    # every move "refutes" at n=1 on a tree outside L1; that win means nothing
    oracle = builtin_oracle("L1")
    with pytest.raises(ValueError, match="not in the language"):
        play(oracle, T("f(g(a),g(g(a)))"), GameConstraint.classic(5))


def test_play_checks_alphabet():
    oracle = builtin_oracle("L1")
    with pytest.raises(ValueError):
        play(oracle, T("h(a)"), GameConstraint.classic(2))


def test_play_budget_monotone():
    oracle = builtin_oracle("L2")
    t = parse_tree(ALPHA_L2, "f(g(h(h(a))),g(h(h(a))))")[0]
    lo = play(oracle, t, GameConstraint.classic(4), max_n=2)
    hi = play(oracle, t, GameConstraint.classic(4), max_n=5)
    by_pair_lo = {(v.candidate.u, v.candidate.v): v for v in lo.verdicts}
    by_pair_hi = {(v.candidate.u, v.candidate.v): v for v in hi.verdicts}
    assert by_pair_lo.keys() == by_pair_hi.keys()
    for pair, v_lo in by_pair_lo.items():
        v_hi = by_pair_hi[pair]
        if v_lo.refuted_at is not None:
            assert v_hi.refuted_at == v_lo.refuted_at
        if v_hi.refuted_at is not None and v_hi.refuted_at <= 2:
            assert v_lo.refuted_at == v_hi.refuted_at


def test_refuted_at_is_minimal():
    oracle = builtin_oracle("L1")
    t = T("f(g(g(a)),g(g(a)))")
    report = play(oracle, t, GameConstraint.classic(7), max_n=4)
    for v in report.verdicts:
        assert v.refuted_at is not None
        d = v.candidate
        inner = d.tprime
        for n in range(v.refuted_at):
            assert oracle.membership(substitute(d.cprime, inner))
            inner = substitute(d.c, inner)
        assert not oracle.membership(substitute(d.cprime, inner))
        assert v.counterexample == substitute(d.cprime, inner)


def test_game_agrees_with_pump_witness(l3):
    # our own extracted loop must be a surviving move in the matching game
    t = T("g(g(g(g(a))))")
    w = standard_decompose(l3, t)
    u = w.cprime.hole_address
    v = u + w.c.hole_address
    report = play(dta_oracle(l3), t, GameConstraint.classic(w.p_used), max_n=5)
    mine = [x for x in report.verdicts if (x.candidate.u, x.candidate.v) == (u, v)]
    assert len(mine) == 1
    assert mine[0].refuted_at is None
