"""Shared test machinery: reference oracles and random instance generators.

The oracles here are deliberately independent of the library's code paths:
`all_trees` enumerates by brute force, `naive_run` and `naive_run_context`
evaluate recursively, `naive_interesting` iterates a fixpoint,
`naive_best_path` scores every leaf, `naive_pump` substitutes one copy of a
context at a time, `naive_render` recurses with each node's address, and
`naive_cuts` tries every strict ancestor pair. Expected values frozen into
tests were produced by these or by hand evaluation noted inline.
"""

from __future__ import annotations

import itertools
import random

from treepump import (
    HOLE,
    Context,
    Dta,
    RankedAlphabet,
    Tree,
    addresses,
    is_prefix,
    is_strict_prefix,
    substitute,
    walk,
)

ALPHA_FGA = RankedAlphabet({"f": 2, "g": 1, "a": 0})
ALPHA_GA = RankedAlphabet({"g": 1, "a": 0})
ALPHA_L2 = RankedAlphabet({"f": 2, "g": 1, "h": 1, "a": 0})

L3_TEXT = """\
# unary chains over a single letter
alphabet: g/1 a/0
states: q
final: q
trans: a -> q
trans: g(q) -> q
"""

PARITY_TEXT = """\
# accepts trees with an even number of a-leaves
alphabet: f/2 g/1 a/0
states: q0 q1
final: q0
trans: a -> q1
trans: g(q0) -> q0
trans: g(q1) -> q1
trans: f(q0,q0) -> q0
trans: f(q0,q1) -> q1
trans: f(q1,q0) -> q1
trans: f(q1,q1) -> q0
"""


def compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All tuples of `parts` positive integers summing to `total`."""
    if parts == 0:
        return [()] if total == 0 else []
    if parts == 1:
        return [(total,)] if total >= 1 else []
    out = []
    for head in range(1, total - parts + 2):
        for rest in compositions(total - head, parts - 1):
            out.append((head,) + rest)
    return out


def all_trees(alphabet: RankedAlphabet, max_size: int) -> list[Tree]:
    """Every tree over the alphabet of size <= max_size, smallest first."""
    by_size: dict[int, list[Tree]] = {}
    for s in range(1, max_size + 1):
        bucket = []
        for name in sorted(alphabet.symbols):
            rank = alphabet.rank(name)
            if rank == 0:
                if s == 1:
                    bucket.append(Tree(name))
                continue
            for sizes in compositions(s - 1, rank):
                for kids in itertools.product(*(by_size[sz] for sz in sizes)):
                    bucket.append(Tree(name, kids))
        by_size[s] = bucket
    return [t for s in range(1, max_size + 1) for t in by_size[s]]


def naive_run(m: Dta, t: Tree) -> str | None:
    """Reference recursive evaluator; fine for the shallow trees tests use."""
    states = []
    for child in t.children:
        q = naive_run(m, child)
        if q is None:
            return None
        states.append(q)
    return m.transitions.get((t.label, tuple(states)))


def naive_run_context(m: Dta, c: Context, q: str) -> str | None:
    """Reference recursive evaluator of a context whose hole has state q."""

    def go(t: Tree) -> str | None:
        if t.label == HOLE:
            return q
        states = []
        for child in t.children:
            s = go(child)
            if s is None:
                return None
            states.append(s)
        return m.transitions.get((t.label, tuple(states)))

    return go(c.shape)


def naive_pump(c: Context, n: int, t: Tree) -> Tree:
    """c^n . t as n separate substitutions, innermost first."""
    for _ in range(n):
        t = substitute(c, t)
    return t


def naive_render(t: Tree, marks=frozenset(), at=()) -> str:
    """Reference recursive rendering; a node whose address is in marks gets ``!``."""
    text = t.label + ("!" if at in marks else "")
    if not t.children:
        return text
    kids = (naive_render(c, marks, at + (i,)) for i, c in enumerate(t.children, 1))
    return text + "(" + ",".join(kids) + ")"


def naive_cuts(t: Tree, mode: str, p: int, marks=frozenset()) -> list:
    """The (u, v) of every legal game decomposition, in lexicographic order.

    Every strict ancestor pair is tried. classic: the subtree at u has at
    most p nodes. ogden: it holds at most p marks, and more than the
    subtree at v does.
    """
    addrs = sorted(addresses(t))
    load = {}
    for u in addrs:
        below = [a for a in addrs if is_prefix(u, a)]
        load[u] = len(below) if mode == "classic" else len(marks.intersection(below))
    return [
        (u, v)
        for u in addrs
        for v in addrs
        if is_strict_prefix(u, v) and load[v] < load[u] <= p
    ]


def naive_interesting(t: Tree, marks) -> frozenset:
    """Fixpoint of: marked, or >= 2 children with an interesting descendant."""
    out = set(marks)
    changed = True
    while changed:
        changed = False
        for addr, node in walk(t):
            if addr in out:
                continue
            busy = sum(
                1
                for i in range(len(node.children))
                if any(is_prefix(addr + (i + 1,), x) for x in out)
            )
            if busy >= 2:
                out.add(addr)
                changed = True
    return frozenset(out)


def naive_best_path(t: Tree, interesting) -> list:
    """Root-to-leaf prefixes of the leaf with the most interesting prefixes.

    Every leaf is scored on its own; ties go to the lexicographically least.
    """
    leaves = sorted(addr for addr, node in walk(t) if not node.children)
    scores = [sum(a[:i] in interesting for i in range(len(a) + 1)) for a in leaves]
    best = leaves[scores.index(max(scores))]
    return [best[:i] for i in range(len(best) + 1)]


def random_alphabet(rng: random.Random, max_rank: int = 3) -> RankedAlphabet:
    """Random alphabet that always has a nullary and a unary symbol.

    The unary symbol keeps every exact tree size reachable.
    """
    symbols = {"a": 0, "u": 1}
    for name, rank in [("b", 0), ("v", 1), ("f", 2), ("k", 2), ("w", 3)]:
        if rank <= max_rank and rng.random() < 0.5:
            symbols[name] = rank
    return RankedAlphabet(symbols)


def random_tree(rng: random.Random, alphabet: RankedAlphabet, size: int) -> Tree:
    """A random tree with exactly `size` nodes."""
    by_rank: dict[int, list[str]] = {}
    for name in sorted(alphabet.symbols):
        by_rank.setdefault(alphabet.rank(name), []).append(name)

    def build(budget: int) -> Tree:
        if budget == 1:
            return Tree(rng.choice(by_rank[0]))
        ranks = [r for r in by_rank if 1 <= r <= budget - 1]
        r = rng.choice(ranks)
        total = budget - 1
        cuts = sorted(rng.sample(range(1, total), r - 1)) if r > 1 else []
        bounds = [0] + cuts + [total]
        parts = [b - a for a, b in zip(bounds, bounds[1:])]
        return Tree(rng.choice(by_rank[r]), tuple(build(p) for p in parts))

    return build(size)


def random_marking(rng: random.Random, t: Tree, count: int) -> frozenset:
    addrs = list(addresses(t))
    return frozenset(rng.sample(addrs, count))


def random_ancestor_pair(rng: random.Random, t: Tree):
    """A uniform strict-ancestor pair (u, v); t must have >= 2 nodes."""
    below = [a for a in addresses(t) if a]
    v = rng.choice(below)
    u = v[: rng.randrange(len(v))]
    return u, v


def random_dta(rng: random.Random, n_states: int) -> Dta:
    """A random partial automaton over f/2 g/1 a/0."""
    states = [f"q{i}" for i in range(n_states)]
    trans: dict[tuple[str, tuple[str, ...]], str] = {
        ("a", ()): rng.choice(states)
    }
    for q in states:
        if rng.random() < 0.85:
            trans[("g", (q,))] = rng.choice(states)
    for q1 in states:
        for q2 in states:
            if rng.random() < 0.7:
                trans[("f", (q1, q2))] = rng.choice(states)
    final = frozenset(rng.sample(states, rng.randrange(1, n_states + 1)))
    return Dta(ALPHA_FGA, frozenset(states), final, trans)


def state_size_counts(m: Dta, bound: int) -> dict[tuple[str, int], int]:
    """counts[q, s] = number of trees of size s that run to state q."""
    counts: dict[tuple[str, int], int] = {}
    for s in range(1, bound + 1):
        for (sym, args), target in m.transitions.items():
            arity = len(args)
            if arity == 0:
                if s == 1:
                    counts[target, 1] = counts.get((target, 1), 0) + 1
            elif arity == 1:
                c = counts.get((args[0], s - 1), 0)
                if c:
                    counts[target, s] = counts.get((target, s), 0) + c
            else:
                acc = 0
                for i in range(1, s - 1):
                    left = counts.get((args[0], i), 0)
                    if left:
                        acc += left * counts.get((args[1], s - 1 - i), 0)
                if acc:
                    counts[target, s] = counts.get((target, s), 0) + acc
    return counts


def accepted_count(m: Dta, counts, s: int) -> int:
    return sum(counts.get((q, s), 0) for q in m.final)


def sample_tree(
    rng: random.Random, m: Dta, q: str, s: int, counts
) -> Tree:
    """A random tree of size s running to q, weighted by subtree counts.

    Iterative: sampled trees can be deep unary chains well past the
    recursion limit. Builds a mutable [label, children] skeleton first.
    """
    root: list = [None, []]
    stack = [(q, s, root[1])]
    while stack:
        want_q, want_s, slot = stack.pop()
        options = []
        total = 0
        for (sym, args), target in sorted(m.transitions.items()):
            if target != want_q:
                continue
            arity = len(args)
            if arity == 0:
                if want_s == 1:
                    options.append((sym, args, (), 1))
                    total += 1
            elif arity == 1:
                w = counts.get((args[0], want_s - 1), 0)
                if w:
                    options.append((sym, args, (want_s - 1,), w))
                    total += w
            else:
                for i in range(1, want_s - 1):
                    w = counts.get((args[0], i), 0) * counts.get(
                        (args[1], want_s - 1 - i), 0
                    )
                    if w:
                        options.append((sym, args, (i, want_s - 1 - i), w))
                        total += w
        assert total > 0, "sampling a (state, size) pair with no trees"
        r = rng.randrange(total)
        for sym, args, sizes, w in options:
            if r < w:
                break
            r -= w
        node: list = [sym, []]
        slot.append(node)
        for qa, sa in reversed(list(zip(args, sizes))):
            stack.append((qa, sa, node[1]))

    # freeze the skeleton bottom-up, again without recursion
    done: dict[int, Tree] = {}
    todo = [(root[1][0], False)]
    while todo:
        node, expanded = todo.pop()
        if expanded:
            done[id(node)] = Tree(node[0], tuple(done[id(c)] for c in node[1]))
        else:
            todo.append((node, True))
            todo.extend((c, False) for c in node[1])
    return done[id(root[1][0])]


def sample_accepted(rng: random.Random, m: Dta, s: int, counts) -> Tree | None:
    """A random accepted tree of exactly size s, or None if there is none."""
    weights = [(q, counts.get((q, s), 0)) for q in sorted(m.final)]
    total = sum(w for _, w in weights)
    if total == 0:
        return None
    r = rng.randrange(total)
    for q, w in weights:
        if r < w:
            return sample_tree(rng, m, q, s, counts)
        r -= w
    raise AssertionError("unreachable")
