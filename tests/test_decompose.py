from __future__ import annotations

import random

import pytest

from treepump import (
    GameConstraint,
    NotEnoughInteresting,
    Tree,
    decompose_k,
    enumerate_decompositions,
    depth_d,
    g_sigma,
    interesting_nodes,
    is_prefix,
    max_interesting_path,
    parse_tree,
    pumping_threshold,
    recompose,
    parse_context,
    render,
    size,
    subtree_at,
    walk,
)

from helpers import (
    ALPHA_FGA,
    ALPHA_GA,
    naive_interesting,
    random_alphabet,
    random_marking,
    random_tree,
)


def T(text, alphabet=ALPHA_FGA):
    return parse_tree(alphabet, text)


def C(text):
    return parse_context(None, text)[0]


def marks_under(marks, root):
    return {m for m in marks if is_prefix(root, m)}


def chain_marks(dec, i, marks):
    """Marks owned by chain piece i: at or below its cut, above the next."""
    lo, hi = dec.cut_addresses[i], dec.cut_addresses[i + 1]
    return {m for m in marks if is_prefix(lo, m) and not is_prefix(hi, m)}


# ---------------------------------------------------------------- g_sigma


@pytest.mark.parametrize(
    "max_rank,n,expected",
    [
        (2, 0, 1),
        (2, 1, 3),
        (2, 2, 7),
        (1, 0, 1),
        (1, 1, 2),
        (1, 4, 5),
        (3, 2, 13),
    ],
)
def test_g_sigma_values(max_rank, n, expected):
    assert g_sigma(max_rank, n) == expected


def test_g_sigma_rejects():
    with pytest.raises(ValueError):
        g_sigma(0, 2)
    with pytest.raises(ValueError):
        g_sigma(2, -1)


def test_pumping_threshold_floor():
    assert pumping_threshold(0, 5) == 2
    assert pumping_threshold(2, 2) == 7


# ---------------------------------------------------------- interesting set


def test_interesting_example():
    t, marks = T("f(g(a!),g(a!))")
    got = interesting_nodes(t, marks)
    # derived: both marked leaves, plus the root joining two busy branches
    assert got == frozenset({(), (1, 1), (2, 1)})
    assert got == naive_interesting(t, marks)


def test_interesting_all_marked_chain():
    t, marks = T("g!(g!(a!))", ALPHA_GA)
    assert interesting_nodes(t, marks) == frozenset({(), (1,), (1, 1)})


def test_interesting_empty():
    t, _ = T("f(a,a)")
    assert interesting_nodes(t, frozenset()) == frozenset()


def test_interesting_single_branch_no_join():
    # one busy child is not enough to make the parent interesting
    t, marks = T("f(g(a!),a)")
    assert interesting_nodes(t, marks) == frozenset({(1, 1)})


def test_interesting_agrees_with_fixpoint():
    rng = random.Random(31)
    for _ in range(80):
        alphabet = random_alphabet(rng)
        t = random_tree(rng, alphabet, rng.randrange(1, 26))
        marks = random_marking(rng, t, rng.randrange(0, size(t) + 1))
        assert interesting_nodes(t, marks) == naive_interesting(t, marks)


def test_interesting_validates_marks():
    t, _ = T("f(a,a)")
    with pytest.raises(ValueError):
        interesting_nodes(t, frozenset({(9,)}))


# ---------------------------------------------------------------- depth_d


def test_depth_d_example():
    t, marks = T("f(g(a!),g(a!))")
    ints = interesting_nodes(t, marks)
    assert depth_d(t, ints, ()) == 0
    assert depth_d(t, ints, (1,)) == 1
    assert depth_d(t, ints, (1, 1)) == 1
    assert depth_d(t, ints, (2, 1)) == 1


# ---------------------------------------------------------------- max path


def test_max_path_chain():
    t, marks = T("g!(g!(a!))", ALPHA_GA)
    ints = interesting_nodes(t, marks)
    assert max_interesting_path(t, ints) == [(), (1,), (1, 1)]


def test_max_path_tie_breaks_to_least_leaf():
    t, marks = T("f(g(a!),g(a!))")
    ints = interesting_nodes(t, marks)
    assert max_interesting_path(t, ints) == [(), (1,), (1, 1)]


def test_max_path_follows_the_marks():
    t, marks = T("f(a,g(a!))")
    ints = interesting_nodes(t, marks)
    assert max_interesting_path(t, ints) == [(), (2,), (2, 1)]


def test_max_path_requires_interesting():
    t, _ = T("f(a,a)")
    with pytest.raises(ValueError):
        max_interesting_path(t, frozenset())


# ---------------------------------------------------------------- decompose


def test_decompose_chain_example():
    t, marks = T("g!(g!(a!))", ALPHA_GA)
    d = decompose_k(t, marks, 1)
    assert d.cprime == C("g(@)")
    assert d.chain == (C("g(@)"),)
    assert render(d.tprime) == "a"
    assert d.cut_addresses == ((1,), (1, 1))
    assert recompose(d) == t


def test_decompose_join_example_below_threshold():
    # 2 marks < g_sigma(2, 1) = 3, but a 2-interesting path exists
    t, marks = T("f(g(a!),g(a!))")
    d = decompose_k(t, marks, 1)
    assert d.cprime == C("@")
    assert d.chain == (C("f(g(@),g(a))"),)
    assert render(d.tprime) == "a"
    assert d.cut_addresses == ((), (1, 1))
    assert recompose(d) == t


def test_decompose_not_enough():
    t, _ = T("f(a,a)")
    with pytest.raises(NotEnoughInteresting):
        decompose_k(t, frozenset(), 1)
    t, marks = T("f(g(a!),g(a!))")
    with pytest.raises(NotEnoughInteresting):
        decompose_k(t, marks, 2)  # best path has only 2 interesting nodes


def test_decompose_rejects_bad_k():
    t, marks = T("g!(a)", ALPHA_GA)
    with pytest.raises(ValueError):
        decompose_k(t, marks, 0)


def test_a_hole_inside_the_tree_is_rejected():
    # used to cut out the two-hole cprime f(@,@), which no Context can hold
    t = Tree("f", (Tree("@"), Tree("g", (Tree("a"),))))
    marks = frozenset({(1,), (2,), (2, 1)})
    with pytest.raises(ValueError, match="hole"):
        decompose_k(t, marks, 1)
    with pytest.raises(ValueError, match="hole"):
        interesting_nodes(t, marks)
    with pytest.raises(ValueError, match="hole"):
        enumerate_decompositions(t, GameConstraint.classic(4))


def test_decompose_is_deterministic():
    t, marks = T("f(g!(g!(a)),g!(g!(a)))")
    assert decompose_k(t, marks, 1) == decompose_k(t, marks, 1)


# ------------------------------------------------------------- properties


def test_every_interesting_node_reaches_a_mark():
    # P1: from an interesting node there is always a marked node below or at it
    rng = random.Random(47)
    for _ in range(100):
        alphabet = random_alphabet(rng)
        t = random_tree(rng, alphabet, rng.randrange(1, 31))
        marks = random_marking(rng, t, rng.randrange(0, size(t) + 1))
        for u in interesting_nodes(t, marks):
            assert any(is_prefix(u, m) for m in marks)


def test_unique_root_of_the_interesting_region():
    # P2: with marks present, exactly one interesting node has depth 0
    rng = random.Random(53)
    for _ in range(100):
        alphabet = random_alphabet(rng)
        t = random_tree(rng, alphabet, rng.randrange(1, 31))
        marks = random_marking(rng, t, rng.randrange(1, size(t) + 1))
        ints = interesting_nodes(t, marks)
        roots = [u for u in ints if depth_d(t, ints, u) == 0]
        assert len(roots) == 1


def test_interesting_branching_bound():
    # P3: at most max_rank interesting nodes sit at depth n+1 under one at n
    rng = random.Random(59)
    for _ in range(60):
        alphabet = random_alphabet(rng)
        t = random_tree(rng, alphabet, rng.randrange(1, 31))
        marks = random_marking(rng, t, rng.randrange(1, size(t) + 1))
        ints = interesting_nodes(t, marks)
        depth = {u: depth_d(t, ints, u) for u in ints}
        for u in ints:
            kids = [
                v
                for v in ints
                if u != v and is_prefix(u, v) and depth[v] == depth[u] + 1
            ]
            assert len(kids) <= alphabet.max_rank


def test_interesting_count_bound():
    # P4: at most g_sigma(max_rank, k-1) interesting nodes of depth <= k-1
    rng = random.Random(61)
    for _ in range(60):
        alphabet = random_alphabet(rng)
        t = random_tree(rng, alphabet, rng.randrange(1, 31))
        marks = random_marking(rng, t, rng.randrange(1, size(t) + 1))
        ints = interesting_nodes(t, marks)
        for k in range(1, 5):
            shallow = [u for u in ints if depth_d(t, ints, u) <= k - 1]
            assert len(shallow) <= g_sigma(alphabet.max_rank, k - 1)


def test_decompose_guarantee_at_threshold():
    # P5: enough marks force success, mark ownership, and the inner budget
    rng = random.Random(67)
    for _ in range(60):
        k = rng.randrange(1, 4)
        alphabet = random_alphabet(rng, max_rank=2)
        need = g_sigma(alphabet.max_rank, k)
        n = need + rng.randrange(0, 12)
        t = random_tree(rng, alphabet, n)
        marks = random_marking(rng, t, rng.randrange(need, size(t) + 1))
        d = decompose_k(t, marks, k)
        assert recompose(d) == t
        assert len(d.chain) == k
        for u, v in zip(d.cut_addresses, d.cut_addresses[1:]):
            assert is_prefix(u, v) and u != v
        for i in range(k):
            assert len(chain_marks(d, i, marks)) >= 1
        inner = marks_under(marks, d.cut_addresses[0])
        assert len(inner) <= need
        # the chain pieces really are the slices between consecutive cuts
        for i, c in enumerate(d.chain):
            lo, hi = d.cut_addresses[i], d.cut_addresses[i + 1]
            assert c.hole_address == hi[len(lo):]
            assert subtree_at(t, lo + c.hole_address) == subtree_at(t, hi)


def test_decompose_piece_shapes():
    t, marks = T("f(g!(g!(g!(a))),a)")
    d = decompose_k(t, marks, 2)
    assert d.cprime.hole_address == (1,)
    sizes = [size(c.shape) - 1 for c in d.chain]
    assert all(s >= 1 for s in sizes)
    assert size(recompose(d)) == size(t)
