"""Differential tests of the fast paths against naive references.

Pumping builds c^n inside-out and every context operation states its hole
address instead of searching for it; these tests compare both against
`naive_pump` and against `Context(shape)`, which re-validates a shape and
re-derives its hole from the hole counts cached on its nodes. Those caches,
and the cached sizes, are compared in turn with counts taken by `walk`, on
trees and contexts from every constructor, and `Context(shape)` must find
its hole where `walk` finds the ``@``. Cut states come from one memoised
run of the automaton and are compared with `naive_run` on each cut subtree.
Interesting nodes, the best path and the cuts are computed on a positional
preorder index and compared with `naive_interesting`, `naive_best_path` and
`walk`, including trees that hold one subtree object at two positions.
`render` is compared with `naive_render` on such trees, with holes and with
marks that name no node, and the game's candidates with `naive_cuts`.
`annotate` is compared with `naive_run` at every address, and on chains too
deep for it with states known in closed form; so are `run` and `run_context`,
and `run` on a shared tree with 2^64 leaves. `run_context` folds a state up
the spine and is compared with `naive_run_context`, and its errors with
`check_tree`. `play` and `refute` with an automaton oracle decide on states;
they are compared, verdict for verdict, with a predicate oracle built on
`naive_run`, which pumps and tests whole trees. `enumerate_language` builds each
tree's rendering beside it and sorts on that; it is compared with brute force
(`all_trees`), with the counting DP, with its own output at the next bound,
and on names whose renderings differ at every kind of byte.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pytest

from treepump import (
    HOLE,
    Candidate,
    Context,
    Dta,
    GameConstraint,
    InvalidAddressError,
    LanguageOracle,
    MultiPumpWitness,
    NotEnoughInteresting,
    PumpWitness,
    RankedAlphabet,
    Tree,
    addresses,
    annotate,
    check_marks,
    compose,
    context_at,
    decompose_k,
    dta_oracle,
    enumerate_decompositions,
    enumerate_language,
    g_sigma,
    interesting_nodes,
    iterate,
    max_interesting_path,
    ogden_decompose,
    ogden_decompose_multi,
    parse_context,
    parse_dta,
    parse_tree,
    play,
    power,
    pump,
    pump_multi,
    refute,
    render,
    replace_at,
    run,
    run_context,
    size,
    size_context,
    split,
    substitute,
    subtree_at,
    walk,
)
from treepump.decompose import _cut_depths
from treepump.pump import _accepted_memo
from treepump.terms import _Index

from helpers import (
    ALPHA_FGA,
    PARITY_TEXT,
    accepted_count,
    all_trees,
    naive_best_path,
    naive_cuts,
    naive_interesting,
    naive_pump,
    naive_render,
    naive_run,
    naive_run_context,
    random_alphabet,
    random_ancestor_pair,
    random_dta,
    random_marking,
    random_tree,
    sample_accepted,
    state_size_counts,
)

seeds = st.integers(0, 2**32 - 1)

# mostly unary, so pumped contexts grow into deep chains
CHAINY = RankedAlphabet({"a": 0, "u": 1, "v": 1, "f": 2})


def random_context(rng: random.Random, alphabet: RankedAlphabet, nodes: int) -> Context:
    """A nonempty context: a random tree of `nodes` >= 2 nodes, holed below the root."""
    t = random_tree(rng, alphabet, nodes)
    return context_at(t, rng.choice([a for a in addresses(t) if a]))


def revalidated(c: Context) -> Context:
    return Context(c.shape)


# ------------------------------------------------------------------ pumping


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(0, 12))
def test_power_matches_naive(seed, n):
    rng = random.Random(seed)
    c = random_context(rng, random_alphabet(rng), rng.randrange(2, 12))
    assert power(c, n) == Context(naive_pump(c, n, Tree(HOLE)))


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(0, 12), st.integers(1, 3))
def test_pump_and_pump_multi_match_naive(seed, n, loops):
    rng = random.Random(seed)
    alphabet = random_alphabet(rng)
    cprime = Context.identity()
    if rng.random() < 0.5:
        cprime = random_context(rng, alphabet, rng.randrange(2, 8))
    chain = tuple(
        random_context(rng, alphabet, rng.randrange(2, 8)) for _ in range(loops)
    )
    tprime = random_tree(rng, alphabet, rng.randrange(1, 8))

    single = PumpWitness(cprime, chain[0], tprime, "q", 1)
    assert pump(single, n) == substitute(cprime, naive_pump(chain[0], n, tprime))

    multi = MultiPumpWitness(cprime, chain, tprime, "q", 1)
    inner = tprime
    for c in reversed(chain):
        inner = naive_pump(c, n, inner)
    assert pump_multi(multi, n) == substitute(cprime, inner)


@settings(max_examples=5, deadline=None)
@given(seeds, st.integers(5000, 6000))
def test_pumping_deep_chains_matches_naive(seed, n):
    # every result has more than 5000 nodes, most of them on one spine
    rng = random.Random(seed)
    c = random_context(rng, CHAINY, rng.randrange(2, 5))
    tprime = random_tree(rng, CHAINY, rng.randrange(1, 4))
    expected = naive_pump(c, n, tprime)
    assert size(expected) > 5000

    p = power(c, n)
    assert p == revalidated(p)
    assert substitute(p, tprime) == expected

    w = PumpWitness(Context.identity(), c, tprime, "q", 1)
    assert pump(w, n) == expected
    multi = MultiPumpWitness(Context.identity(), (c, c), tprime, "q", 1)
    assert pump_multi(multi, n // 2) == naive_pump(c, 2 * (n // 2), tprime)


# ------------------------------------------------- known-hole constructors


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_context_ops_agree_with_revalidation(seed):
    rng = random.Random(seed)
    alphabet = random_alphabet(rng)
    t = random_tree(rng, alphabet, rng.randrange(2, 30))

    for a in addresses(t):
        c = context_at(t, a)
        assert c == revalidated(c)
        assert c.hole_address == a

    u, v = random_ancestor_pair(rng, t)
    cprime, c, _ = split(t, u, v)
    assert cprime == revalidated(cprime)
    assert c == revalidated(c)

    outer = random_context(rng, alphabet, rng.randrange(2, 10))
    inner = random_context(rng, alphabet, rng.randrange(2, 10))
    for x, y in [(outer, inner), (inner, outer), (Context.identity(), inner)]:
        both = compose(x, y)
        assert both == revalidated(both)
    assert compose(outer, Context.identity()) == outer

    for n in range(4):
        p = power(outer, n)
        assert p == revalidated(p)


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(1, 3))
def test_decompose_k_contexts_agree_with_revalidation(seed, k):
    rng = random.Random(seed)
    t = random_tree(rng, random_alphabet(rng), rng.randrange(k + 1, 40))
    marks = frozenset(addresses(t))
    if rng.random() < 0.5:
        marks = random_marking(rng, t, rng.randrange(1, size(t) + 1))
    try:
        d = decompose_k(t, marks, k)
    except NotEnoughInteresting:
        assume(False)
    for c in (d.cprime, *d.chain):
        assert c == revalidated(c)


# ----------------------------------------------- cached size and hole count


def check_caches(x: Tree) -> None:
    """size and the hole count of every subtree of x, against counts by walk."""
    for _, node in walk(x):
        below = [n for _, n in walk(node)]
        assert size(node) == len(below)
        assert node._holes == sum(n.label == HOLE for n in below)


def check_context(c: Context) -> None:
    """The caches of c's shape, and its hole where walk finds the '@'."""
    check_caches(c.shape)
    assert [a for a, n in walk(c.shape) if n.label == HOLE] == [c.hole_address]
    assert Context(c.shape).hole_address == c.hole_address
    assert size_context(c) == size(c.shape) - 1


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_size_and_hole_caches_match_walk(seed):
    rng = random.Random(seed)
    alphabet = random_alphabet(rng)
    t = random_tree(rng, alphabet, rng.randrange(2, 30))
    outer = random_context(rng, alphabet, rng.randrange(2, 10))
    inner = random_context(rng, alphabet, rng.randrange(2, 10))
    a = rng.choice(list(addresses(t)))
    cprime, c, tprime = split(t, *random_ancestor_pair(rng, t))

    contexts = [
        parse_context(None, render(outer.shape))[0],
        context_at(t, a),
        compose(outer, inner),
        compose(inner, Context.identity()),
        power(inner, rng.randrange(0, 4)),
        cprime,
        c,
        Context(replace_at(t, a, inner.shape)),
    ]
    for x in contexts:
        check_context(x)

    trees = [
        t,
        parse_tree(None, render(t))[0],
        tprime,
        replace_at(t, a, tprime),
        *iterate(outer, t, 3),
        # two and three holes
        Tree("f", (outer.shape, inner.shape)),
        Tree("f", (outer.shape, Tree(HOLE), inner.shape)),
    ]
    for x in trees:
        check_caches(x)


@settings(max_examples=20, deadline=None)
@given(seeds, st.integers(1, 3))
def test_size_and_hole_caches_match_walk_on_enumerated_trees(seed, n_states):
    # enumerate_language builds its trees from shared child objects
    m = random_dta(random.Random(seed), n_states)
    for t in enumerate_language(m, 7):
        check_caches(t)


# -------------------------------------------------------------- cut states


def accepted_instance(rng: random.Random, n_states: int, k: int):
    """A random machine with an accepted tree of size in [p, p+5], p = g(2, k)."""
    p = g_sigma(2, k)
    for _ in range(300):
        m = random_dta(rng, n_states)
        counts = state_size_counts(m, p + 5)
        viable = [s for s in range(p, p + 6) if accepted_count(m, counts, s)]
        if viable:
            return m, sample_accepted(rng, m, rng.choice(viable), counts)
    raise AssertionError("no usable machine after 300 draws")


def pick_marks(rng: random.Random, t: Tree, p: int):
    if rng.random() < 0.5:
        return frozenset(addresses(t))
    return random_marking(rng, t, rng.randrange(p, size(t) + 1))


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(1, 3))
def test_cut_states_match_naive_run(seed, n_states):
    rng = random.Random(seed)
    m, t = accepted_instance(rng, n_states, n_states)
    marks = pick_marks(rng, t, g_sigma(2, n_states))

    d = decompose_k(t, marks, n_states)
    ix = _Index(t)
    path, depths = _cut_depths(ix, ix.flags(marks), n_states)
    assert tuple(ix.address(path[i]) for i in depths) == d.cut_addresses
    memo = _accepted_memo(m, t)
    states = [memo[id(ix.nodes[path[i]])] for i in depths]
    assert states == [naive_run(m, subtree_at(t, a)) for a in d.cut_addresses]

    w = ogden_decompose(m, t, marks)
    u = w.cprime.hole_address
    v = u + w.c.hole_address
    assert naive_run(m, subtree_at(t, u)) == w.q
    assert naive_run(m, subtree_at(t, v)) == w.q


@settings(max_examples=20, deadline=None)
@given(seeds, st.sampled_from([(1, 2), (1, 3), (2, 2)]))
def test_multi_cut_states_match_naive_run(seed, combo):
    n_states, mfold = combo
    rng = random.Random(seed)
    m, t = accepted_instance(rng, n_states, mfold * n_states)
    marks = pick_marks(rng, t, g_sigma(2, mfold * n_states))

    w = ogden_decompose_multi(m, t, marks, mfold)
    spot = w.cprime.hole_address
    assert naive_run(m, subtree_at(t, spot)) == w.q
    for c in w.chain:
        spot = spot + c.hole_address
        assert naive_run(m, subtree_at(t, spot)) == w.q


def loop_spots(w) -> list:
    """The addresses where a witness's pieces meet, from cprime's hole down."""
    spots = [w.cprime.hole_address]
    for c in (w.chain if isinstance(w, MultiPumpWitness) else (w.c,)):
        spots.append(spots[-1] + c.hole_address)
    return spots


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from([(1, 1), (2, 1), (3, 1), (1, 2), (1, 3), (2, 2)]))
def test_witness_spots_follow_the_selection_rules(seed, combo):
    # one loop: the first equal-state pair (i, j) of the |Q|+1 cuts;
    # m loops: the first m+1 cuts at the most frequent state, ties by name
    n_states, mfold = combo
    rng = random.Random(seed)
    m, t = accepted_instance(rng, n_states, mfold * n_states)
    marks = pick_marks(rng, t, g_sigma(2, mfold * n_states))
    cuts = decompose_k(t, marks, mfold * n_states).cut_addresses
    states = [naive_run(m, subtree_at(t, a)) for a in cuts]

    q = min(states, key=lambda s: (-states.count(s), s))
    want = [i for i, s in enumerate(states) if s == q][: mfold + 1]
    w = ogden_decompose_multi(m, t, marks, mfold)
    assert (loop_spots(w), w.q) == ([cuts[i] for i in want], q)
    if mfold == 1:
        i, j = min(
            (i, j)
            for i in range(len(states))
            for j in range(i + 1, len(states))
            if states[i] == states[j]
        )
        w = ogden_decompose(m, t, marks)
        assert (loop_spots(w), w.q) == ([cuts[i], cuts[j]], states[i])


# ------------------------------------------------------- preorder index


def marked_instance(rng: random.Random, shared: bool):
    """A random tree and marking; `shared` puts one subtree object at two
    positions, f(x, x), and marks (mostly) under one copy only."""
    alphabet = random_alphabet(rng)
    x = random_tree(rng, alphabet, rng.randrange(1, 30))
    if not shared:
        marks = random_marking(rng, x, rng.randrange(0, size(x) + 1))
        return x, marks
    t = Tree("f", (x, x))
    copy = rng.choice([1, 2])
    marks = {(copy,) + a for a in random_marking(rng, x, rng.randrange(1, size(x) + 1))}
    if rng.random() < 0.3:
        marks.add(rng.choice(list(addresses(t))))
    return t, frozenset(marks)


def check_against_naive(t: Tree, marks, k: int) -> None:
    """interesting_nodes, max_interesting_path and the decompose_k cuts (the
    last k+1 interesting nodes on the best path) against the naive oracles."""
    interesting = naive_interesting(t, marks)
    assert interesting_nodes(t, marks) == interesting
    on_path = []
    if interesting:
        path = naive_best_path(t, interesting)
        assert max_interesting_path(t, interesting) == path
        on_path = [a for a in path if a in interesting]
    if len(on_path) <= k:
        with pytest.raises(NotEnoughInteresting):
            decompose_k(t, marks, k)
    else:
        d = decompose_k(t, marks, k)
        assert d.cut_addresses == tuple(on_path[-(k + 1) :])
        assert d.tprime is subtree_at(t, on_path[-1])


@settings(max_examples=80, deadline=None)
@given(seeds, st.booleans())
def test_index_matches_walk(seed, shared):
    rng = random.Random(seed)
    t, marks = marked_instance(rng, shared)
    pairs = list(walk(t))
    ix = _Index(t)
    addrs = ix.addresses()
    assert addrs == [a for a, _ in pairs]
    assert all(x is node for x, (_, node) in zip(ix.nodes, pairs))
    for i, (a, node) in enumerate(pairs):
        assert ix.end[i] - i == size(node)
        assert ix.address(i) == a
        if a:
            assert addrs[ix.parent[i]] == a[:-1]
            assert ix.slot[i] == a[-1]
    assert ix.flags(marks) == [a in marks for a, _ in pairs]


@settings(max_examples=100, deadline=None)
@given(seeds, st.booleans(), st.integers(1, 3))
def test_interesting_path_and_cuts_match_naive(seed, shared, k):
    rng = random.Random(seed)
    t, marks = marked_instance(rng, shared)
    check_against_naive(t, marks, k)


def test_mark_under_one_copy_of_a_shared_subtree():
    x = Tree("g", (Tree("g", (Tree("a"),)),))
    t = Tree("f", (x, x))
    marks = frozenset({(1,), (1, 1, 1)})
    assert interesting_nodes(t, marks) == marks
    d = decompose_k(t, marks, 1)
    assert d.cut_addresses == ((1,), (1, 1, 1))
    assert str(d.cprime) == "f(@,g(g(a)))"


@settings(max_examples=3, deadline=None)
@given(seeds, st.integers(5000, 6000))
def test_deep_chains_with_sparse_marks_match_naive(seed, depth):
    rng = random.Random(seed)
    t = random_tree(rng, CHAINY, rng.randrange(1, 6))
    for _ in range(depth):
        t = Tree(rng.choice("uv"), (t,))
    marks = random_marking(rng, t, rng.randrange(1, 6))
    check_against_naive(t, marks, rng.randrange(1, 4))


def invalid_address(rng: random.Random, t: Tree):
    """An address one step past a node: child 0, or one past its rank."""
    a, node = rng.choice(list(walk(t)))
    return a + (rng.choice([0, len(node.children) + 1]),)


@settings(max_examples=60, deadline=None)
@given(seeds, st.booleans())
def test_invalid_marks_raise_like_check_marks(seed, shared):
    rng = random.Random(seed)
    t, marks = marked_instance(rng, shared)
    marks = marks | {invalid_address(rng, t) for _ in range(rng.randrange(1, 3))}
    with pytest.raises(InvalidAddressError) as want:
        check_marks(t, marks)
    calls = [
        lambda: interesting_nodes(t, marks),
        lambda: max_interesting_path(t, marks),
        lambda: decompose_k(t, marks, 1),
        lambda: enumerate_decompositions(t, GameConstraint.ogden(size(t), marks)),
    ]
    for call in calls:
        with pytest.raises(InvalidAddressError) as got:
            call()
        assert str(got.value) == str(want.value)


MARK_SHAPES = ["every node", "ancestors", "leaves", "every other depth", "run"]


def shaped_marks(rng: random.Random, t: Tree, shape: str) -> frozenset:
    """Mark sets that `flags` places differently and random markings rarely
    draw: closed under parents (every node; the ancestors of random nodes),
    with no marked parent (the leaves; every other depth), and a run of
    descendants below an unmarked node."""
    addrs = list(addresses(t))
    picks = rng.sample(addrs, rng.randrange(1, min(len(addrs), 6) + 1))
    if shape == "every node":
        return frozenset(addrs)
    if shape == "ancestors":
        return frozenset(a[:k] for a in picks for k in range(len(a) + 1))
    if shape == "leaves":
        return frozenset(a for a, node in walk(t) if not node.children)
    if shape == "every other depth":
        parity = rng.randrange(2)
        return frozenset(a for a in addrs if len(a) % 2 == parity)
    # the run climbs from picks to a child of `top`, an unmarked strict
    # ancestor of the last pick
    picks.append(rng.choice(addrs))
    top = picks[-1][: rng.randrange(len(picks[-1]) + 1)]
    return frozenset(
        a[:k] for a in picks if a[: len(top)] == top for k in range(len(top) + 1, len(a) + 1)
    )


def deep_tree(rng: random.Random, depth: int) -> Tree:
    """A spine of `depth` unary or binary nodes over a small random tree; a
    binary node holds the spine at a random slot and a leaf at the other."""
    t = random_tree(rng, CHAINY, rng.randrange(1, 6))
    for _ in range(depth):
        if rng.random() < 0.5:
            t = Tree(rng.choice("uv"), (t,))
        else:
            t = Tree("f", (t, Tree("a")) if rng.random() < 0.5 else (Tree("a"), t))
    return t


@settings(max_examples=150, deadline=None)
@given(seeds, st.sampled_from(MARK_SHAPES), st.booleans())
def test_flags_match_walk_on_shaped_marks(seed, shape, shared):
    rng = random.Random(seed)
    t, _ = marked_instance(rng, shared)
    marks = shaped_marks(rng, t, shape)
    assert _Index(t).flags(marks) == [a in marks for a, _ in walk(t)]


@pytest.mark.parametrize("shape", MARK_SHAPES)
@settings(max_examples=2, deadline=None)
@given(seeds)
def test_flags_match_walk_on_shaped_marks_at_depth_2000(shape, seed):
    rng = random.Random(seed)
    t = deep_tree(rng, rng.randrange(2000, 2100))
    marks = shaped_marks(rng, t, shape)
    assert _Index(t).flags(marks) == [a in marks for a, _ in walk(t)]


@settings(max_examples=80, deadline=None)
@given(seeds, st.sampled_from(MARK_SHAPES), st.booleans())
def test_flags_on_bad_marks_raise_like_check_marks(seed, shape, bad_parent):
    # the bad mark's parent is a placed mark; with bad_parent, marks below
    # the bad one are bad too, and no parent of theirs is ever placed
    rng = random.Random(seed)
    t, _ = marked_instance(rng, rng.random() < 0.5)
    marks = shaped_marks(rng, t, shape) or frozenset({()})
    a, node = rng.choice([(a, node) for a, node in walk(t) if a in marks])
    bad = a + (rng.choice([0, len(node.children) + 1]),)
    marks = marks | {bad}
    if bad_parent:
        marks = marks | {bad + (1,), bad + (1, 2)}
    with pytest.raises(InvalidAddressError) as want:
        check_marks(t, marks)
    with pytest.raises(InvalidAddressError) as got:
        _Index(t).flags(marks)
    assert str(got.value) == str(want.value)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_game_candidates_match_split(seed):
    rng = random.Random(seed)
    t, marks = marked_instance(rng, rng.random() < 0.5)
    if rng.random() < 0.5:
        constraint = GameConstraint.classic(rng.randrange(1, size(t) + 2))
    else:
        constraint = GameConstraint.ogden(rng.randrange(1, len(marks) + 2), marks)
    for d in enumerate_decompositions(t, constraint):
        assert d == Candidate(d.u, d.v, *split(t, d.u, d.v))


@settings(max_examples=60, deadline=None)
@given(seeds, st.booleans())
def test_game_candidates_match_every_ancestor_pair(seed, shared):
    rng = random.Random(seed)
    t, marks = marked_instance(rng, shared)
    for p in range(1, size(t) + 2):
        found = enumerate_decompositions(t, GameConstraint.classic(p))
        assert [(d.u, d.v) for d in found] == naive_cuts(t, "classic", p)
    for p in range(1, len(marks) + 2):
        found = enumerate_decompositions(t, GameConstraint.ogden(p, marks))
        assert [(d.u, d.v) for d in found] == naive_cuts(t, "ogden", p, marks)


# ---------------------------------------------------------------- rendering


@settings(max_examples=100, deadline=None)
@given(seeds, st.booleans(), st.integers(0, 3))
def test_render_matches_naive_render(seed, shared, holes):
    rng = random.Random(seed)
    t, marks = marked_instance(rng, shared)
    for _ in range(holes):  # shapes with one or more holes, anywhere
        t = replace_at(t, rng.choice(list(addresses(t))), Tree(HOLE))
    # marks below a new hole, and one step past a node, name no node
    marks = marks | {invalid_address(rng, t) for _ in range(rng.randrange(3))}
    assert render(t) == naive_render(t)
    assert render(t, marks) == naive_render(t, marks)
    assert render(t, sorted(marks)) == naive_render(t, marks)


def test_render_marks_one_copy_of_a_shared_subtree():
    x = Tree("g", (Tree("a"),))
    t = Tree("f", (x, x))
    assert render(t, {(2, 1)}) == naive_render(t, {(2, 1)}) == "f(g(a),g(a!))"
    assert render(t, {(1,)}) == "f(g!(a),g(a))"


# ------------------------------------------------------------------ annotate


def check_annotate(m, t: Tree) -> None:
    """annotate against naive_run at every address, keys in preorder."""
    ann = annotate(m, t)
    assert (ann is None) == (naive_run(m, t) is None) == (run(m, t) is None)
    if ann is not None:
        assert list(ann) == list(addresses(t))
        for a, q in ann.items():
            assert q == naive_run(m, subtree_at(t, a))


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(1, 3), st.booleans())
def test_annotate_matches_naive_run(seed, n_states, shared):
    rng = random.Random(seed)
    m = random_dta(rng, n_states)
    x = random_tree(rng, ALPHA_FGA, rng.randrange(1, 40))
    # shared: one subtree object at two positions, f(x, x)
    check_annotate(m, Tree("f", (x, x)) if shared else x)


@settings(max_examples=20, deadline=None)
@given(seeds, st.integers(1, 3))
def test_annotate_matches_naive_run_on_enumerated_trees(seed, n_states):
    # enumerate_language builds its trees from shared child objects
    m = random_dta(random.Random(seed), n_states)
    for t in enumerate_language(m, 7):
        check_annotate(m, t)


MOD3_TEXT = """\
alphabet: g/1 a/0
states: q0 q1 q2
final: q0
trans: a -> q0
trans: g(q0) -> q1
trans: g(q1) -> q2
"""


@pytest.mark.parametrize("n", [3001, 3002, 3003])
def test_annotate_deep_chain_in_closed_form(n):
    # too deep for naive_run: g^n(a) has state q((n - d) mod 3) at depth d
    t = Tree("a")
    for _ in range(n):
        t = Tree("g", (t,))
    m = parse_dta(MOD3_TEXT + "trans: g(q2) -> q0\n")
    ann = annotate(m, t)
    assert ann is not None
    assert list(ann) == [(1,) * d for d in range(n + 1)]
    assert list(ann.values()) == [f"q{(n - d) % 3}" for d in range(n + 1)]
    # without g(q2) the run is stuck from depth n - 3 up
    stuck = parse_dta(MOD3_TEXT)
    assert annotate(stuck, t) is None
    assert run(stuck, t) is None


# ------------------------------------------------------- enumerate_language


def enum_instance(rng: random.Random, n_states: int, kind: str, bound: int):
    """A random automaton and a size bound; `kind` shapes its final states.

    "none" has no final state. "first" keeps one final state, the one
    first reached at the largest size, and returns that size as the bound,
    so every accepted tree has the top size.
    """
    m = random_dta(rng, n_states)
    if kind == "none":
        return replace(m, final=frozenset()), bound
    if kind == "first":
        counts = state_size_counts(m, bound)
        first = {}
        for q, s in sorted(counts, key=lambda qs: qs[1]):
            first.setdefault(q, s)
        q = max(sorted(first), key=first.__getitem__)
        return replace(m, final=frozenset({q})), first[q]
    return m, bound


ENUM_KINDS = st.sampled_from(["random", "random", "none", "first"])


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(1, 3), ENUM_KINDS, st.integers(1, 6))
def test_enumerate_language_matches_brute_force(seed, n_states, kind, bound):
    m, bound = enum_instance(random.Random(seed), n_states, kind, bound)
    want = sorted(
        (t for t in all_trees(ALPHA_FGA, bound) if naive_run(m, t) in m.final),
        key=lambda t: (size(t), render(t)),
    )
    got = enumerate_language(m, bound)
    assert got == want
    assert [render(t) for t in got] == [render(t) for t in want]


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(1, 3), ENUM_KINDS, st.integers(1, 10))
def test_enumerate_language_counts_and_prefix(seed, n_states, kind, bound):
    m, bound = enum_instance(random.Random(seed), n_states, kind, bound)
    got = enumerate_language(m, bound)
    counts = state_size_counts(m, bound)
    sizes = [size(t) for t in got]
    for s in range(1, bound + 1):
        assert sizes.count(s) == accepted_count(m, counts, s)
    # the next bound builds the trees of size `bound` for every state, not
    # only for the final ones, and must return the same ones first
    longer = enumerate_language(m, bound + 1)
    assert got == [t for t in longer if size(t) <= bound]


@pytest.mark.parametrize("bound", [1, 2, 5, 8])
def test_enumerate_language_final_only_at_the_bound(bound):
    # a tree of size s <= bound runs to q<s-1> and a larger one gets stuck,
    # so the one final state, q<bound-1>, holds exactly the trees of size bound
    states = [f"q{i}" for i in range(bound)]
    trans = {("a", ()): "q0"}
    for i in range(bound - 1):
        trans["g", (f"q{i}",)] = f"q{i + 1}"
        for j in range(bound - 2 - i):
            trans["f", (f"q{i}", f"q{j}")] = f"q{i + j + 2}"
    m = Dta(ALPHA_FGA, frozenset(states), frozenset({states[-1]}), trans)
    want = sorted(
        (t for t in all_trees(ALPHA_FGA, bound) if size(t) == bound), key=render
    )
    assert enumerate_language(m, bound) == want
    if bound > 1:
        assert enumerate_language(m, bound - 1) == []


def test_enumerate_language_orders_like_render_bytes():
    # names that are prefixes of one another, so that two renderings of one
    # size first differ at "(", ",", ")", a digit, "_" or a letter
    alphabet = RankedAlphabet({"a": 0, "a1": 0, "a_": 0, "b": 0, "f": 1, "f1": 2})
    trans = {(sym, ("q",) * alphabet.rank(sym)): "q" for sym in alphabet.symbols}
    m = Dta(alphabet, frozenset({"q"}), frozenset({"q"}), trans)
    want = sorted(all_trees(alphabet, 5), key=lambda t: (size(t), render(t)))
    assert [render(t) for t in enumerate_language(m, 5)] == [
        render(t) for t in want
    ]


# ------------------------------------------------ run on deep and shared trees


@pytest.mark.parametrize("n", [20000, 20001, 20002])
def test_run_deep_chain_in_closed_form(n):
    # too deep for naive_run: g^n(a) runs to q(n mod 3)
    t = Tree("a")
    for _ in range(n):
        t = Tree("g", (t,))
    m = parse_dta(MOD3_TEXT + "trans: g(q2) -> q0\n")
    assert run(m, t) == f"q{n % 3}"
    assert run(parse_dta(MOD3_TEXT), t) is None


def test_run_visits_each_shared_object_once():
    # x_k = f(x_(k-1), x_(k-1)) has 2^k a-leaves but only k + 1 objects, so
    # a run that visits each object once finishes at once
    m = parse_dta(PARITY_TEXT)
    x = Tree("a")
    for _ in range(64):
        x = Tree("f", (x, x))
    start = time.perf_counter()
    assert run(m, x) == "q0"
    assert run(m, Tree("f", (x, Tree("a")))) == "q1"
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("n", [20000, 20001, 20002])
def test_run_context_deep_chain_in_closed_form(n):
    shape = Tree(HOLE)
    for _ in range(n):
        shape = Tree("g", (shape,))
    c = Context(shape)
    m = parse_dta(MOD3_TEXT + "trans: g(q2) -> q0\n")
    for i in range(3):
        assert run_context(m, c, f"q{i}") == f"q{(i + n) % 3}"


# ------------------------------------------------- contexts and game states


@settings(max_examples=80, deadline=None)
@given(seeds, st.integers(1, 3))
def test_run_context_matches_naive(seed, n_states):
    # random partial automata, so many of these contexts get stuck
    rng = random.Random(seed)
    m = random_dta(rng, n_states)
    for _ in range(5):
        x = random_tree(rng, ALPHA_FGA, rng.randrange(1, 8))
        c = random_context(rng, ALPHA_FGA, rng.randrange(2, 30))
        if rng.random() < 0.3:  # one subtree object on both sides of the spine
            c = Context(Tree("f", (x, Tree("f", (c.shape, x)))))
        for q in sorted(m.states):
            assert run_context(m, c, q) == naive_run_context(m, c, q)


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_run_context_raises_like_check_tree(seed):
    # symbols outside the automaton's alphabet anywhere around the spine;
    # the error names the first bad node in preorder, as for c . a
    rng = random.Random(seed)
    m = parse_dta(PARITY_TEXT)
    c = random_context(rng, random_alphabet(rng), rng.randrange(2, 30))
    try:
        m.alphabet.check_tree(substitute(c, Tree("a")))
    except ValueError as want:
        with pytest.raises(ValueError) as got:
            run_context(m, c, "q0")
        assert str(got.value) == str(want)
    else:
        assert run_context(m, c, "q0") == naive_run_context(m, c, "q0")


@pytest.mark.parametrize(
    "text,message",
    [
        # left of the spine high up, before a bad spine node and a bad
        # right sibling lower down
        ("f(f(a,h(a)),g(f(@,k),a))", "unknown symbol 'h'"),
        # on the spine
        ("f(f(a,a),g(f(@,k),a))", "rank mismatch: 'g' takes 1 children, got 2"),
        # right siblings: the deeper one comes first in preorder
        ("f(f(@,k),h)", "unknown symbol 'k'"),
    ],
)
def test_run_context_names_the_first_bad_node_in_preorder(text, message):
    m = parse_dta(PARITY_TEXT)
    c = parse_context(None, text)[0]
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_context(m, c, "q0")


def reference_oracle(m: Dta) -> LanguageOracle:
    """A predicate oracle for m's language, so refute takes the tree path."""
    return LanguageOracle("ref", m.alphabet, lambda t: naive_run(m, t) in m.final)


def game_instance(rng: random.Random, n_states: int):
    """A random machine with an accepted tree of 2-12 nodes."""
    for _ in range(300):
        m = random_dta(rng, n_states)
        counts = state_size_counts(m, 12)
        viable = [s for s in range(2, 13) if accepted_count(m, counts, s)]
        if viable:
            return m, sample_accepted(rng, m, rng.choice(viable), counts)
    raise AssertionError("no usable machine after 300 draws")


def game_constraint(rng: random.Random, t: Tree) -> GameConstraint:
    if rng.random() < 0.5:
        return GameConstraint.classic(rng.randrange(1, size(t) + 2))
    marks = random_marking(rng, t, rng.randrange(1, size(t) + 1))
    return GameConstraint.ogden(rng.randrange(1, len(marks) + 2), marks)


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(1, 3), st.integers(0, 7))
def test_play_on_states_matches_play_on_trees(seed, n_states, max_n):
    # max_n up to 7 runs past |Q| + 1, where the states start to repeat
    rng = random.Random(seed)
    m, t = game_instance(rng, n_states)
    constraint = game_constraint(rng, t)
    fast, ref = dta_oracle(m), reference_oracle(m)
    assert fast.automaton is m and ref.automaton is None
    got = play(fast, t, constraint, max_n)
    assert got == play(ref, t, constraint, max_n)
    for v in got.verdicts:
        assert refute(fast, v.candidate, max_n) == (
            None if v.refuted_at is None else (v.refuted_at, v.counterexample)
        )


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(1, 3), st.integers(0, 7))
def test_refute_on_states_matches_refute_on_trees(seed, n_states, max_n):
    # single candidates cut from any tree, accepted or not, stuck or not
    rng = random.Random(seed)
    m = random_dta(rng, n_states)
    fast, ref = dta_oracle(m), reference_oracle(m)
    for _ in range(10):
        t = random_tree(rng, ALPHA_FGA, rng.randrange(2, 15))
        u, v = random_ancestor_pair(rng, t)
        d = Candidate(u, v, *split(t, u, v))
        assert refute(fast, d, max_n) == refute(ref, d, max_n)
