"""Marked-node combinatorics: interesting nodes, path selection, k-cut splits.

The central construction: given a tree with marked nodes, find a root-to-leaf
path rich in *interesting* nodes and cut the tree along its last k+1 of them,
yielding an outer context, a chain of k one-hole pieces, and an inner tree.
Every chain piece is guaranteed to own at least one mark, and the inner part
(chain plus core) carries at most g_sigma(max_rank, k) marks, the counting
bound that makes the whole pumping argument work.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (
    Address,
    Context,
    Marking,
    Tree,
    _Index,
    context_at,
    is_strict_prefix,
    size_context,
    substitute,
    subtree_at,
)

__all__ = [
    "NotEnoughInteresting",
    "Decomposition",
    "g_sigma",
    "pumping_threshold",
    "interesting_nodes",
    "depth_d",
    "max_interesting_path",
    "decompose_k",
    "recompose",
]


class NotEnoughInteresting(Exception):
    """No root-to-leaf path visits k+1 interesting nodes."""


def g_sigma(max_rank: int, n: int) -> int:
    """sum of max_rank**i for i in 0..n; the mark budget for n cuts."""
    if max_rank < 1:
        raise ValueError("max_rank must be at least 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(max_rank**i for i in range(n + 1))


def pumping_threshold(max_rank: int, k: int) -> int:
    """g_sigma(max_rank, k), except that rank-0 alphabets get the floor of 2.

    Over an all-nullary alphabet every tree is a single node, so no tree can
    carry 2 marks and the pumping guarantee holds vacuously.
    """
    return 2 if max_rank == 0 else g_sigma(max_rank, k)


@dataclass(frozen=True)
class Decomposition:
    """A k-cut: source = cprime . chain[0] . ... . chain[k-1] . tprime.

    cut_addresses are the k+1 cut points v_1..v_{k+1} in the source tree,
    each a strict ancestor of the next; chain[i] is the piece rooted at
    v_{i+1} with its hole at v_{i+2} (so each piece has size >= 1).
    """

    cprime: Context
    chain: tuple[Context, ...]
    tprime: Tree
    cut_addresses: tuple[Address, ...]

    def __post_init__(self) -> None:
        if len(self.cut_addresses) != len(self.chain) + 1:
            raise ValueError("need exactly one more cut address than chain pieces")
        for u, v in zip(self.cut_addresses, self.cut_addresses[1:]):
            if not is_strict_prefix(u, v):
                raise ValueError("cut addresses must strictly descend")
        for c in self.chain:
            if size_context(c) < 1:
                raise ValueError("chain pieces must be nonempty contexts")


def recompose(d: Decomposition) -> Tree:
    """Plug the pieces back together; equals the source tree by construction."""
    t = d.tprime
    for c in reversed(d.chain):
        t = substitute(c, t)
    return substitute(d.cprime, t)


def _interesting(ix: _Index, marked: list[bool]) -> list[bool]:
    """Per-position interestingness, in one reverse-preorder pass.

    Every child comes after its parent in preorder, so walking positions
    backwards settles each node after all of its children.
    """
    parent = ix.parent
    busy = [0] * len(marked)  # children whose subtree holds an interesting node
    out = [False] * len(marked)
    for i in range(len(marked) - 1, -1, -1):
        here = marked[i] or busy[i] >= 2
        out[i] = here
        if i and (here or busy[i]):
            busy[parent[i]] += 1
    return out


def _best_path(ix: _Index, interesting: list[bool]) -> list[int]:
    """Positions on the root-to-leaf path richest in interesting nodes.

    One forward pass counts the interesting nodes above and at each
    position. Ties go to the first such leaf in preorder, which is the
    lexicographically least one.
    """
    parent, end = ix.parent, ix.end
    count = [0] * len(interesting)
    best_count, best_leaf = -1, 0
    for i, here in enumerate(interesting):
        c = (count[parent[i]] if i else 0) + here
        count[i] = c
        if end[i] == i + 1 and c > best_count:
            best_count, best_leaf = c, i
    path = []
    i = best_leaf
    while i >= 0:
        path.append(i)
        i = parent[i]
    path.reverse()
    return path


def interesting_nodes(t: Tree, marks: Marking) -> frozenset[Address]:
    """Least set containing the marks and closed under branching joins.

    A node is interesting iff it is marked, or at least two of its children
    root subtrees that contain an interesting node. One bottom-up pass over
    the preorder index suffices because interestingness at a node depends
    only on its subtree; addresses are built for the result only.
    """
    ix = _Index(t)
    found = ix.addresses(_interesting(ix, ix.flags(marks)))
    return frozenset(a for a in found if a is not None)


def depth_d(t: Tree, interesting: frozenset[Address], u: Address) -> int:
    """Number of interesting strict ancestors of u."""
    subtree_at(t, u)  # validate
    return sum(u[:i] in interesting for i in range(len(u)))


def max_interesting_path(
    t: Tree, interesting: frozenset[Address]
) -> list[Address]:
    """Root-to-leaf address sequence visiting the most interesting nodes.

    Ties go to the lexicographically least leaf, which is the first one in
    preorder. Every interesting address must denote a node of t.
    """
    if not interesting:
        raise ValueError("no interesting nodes")
    ix = _Index(t)
    leaf = ix.address(_best_path(ix, ix.flags(interesting))[-1])
    return [leaf[:i] for i in range(len(leaf) + 1)]


def decompose_k(t: Tree, marks: Marking, k: int) -> Decomposition:
    """Cut t along the last k+1 interesting nodes of a maximal path.

    Raises NotEnoughInteresting when no root-to-leaf path visits k+1
    interesting nodes; by the counting bound this cannot happen once
    |marks| >= g_sigma(max_rank, k), but callers below that threshold are
    welcome to try. On success, every chain piece owns at least one mark
    (the piece's own cut node, or a marked node reachable without passing
    the next cut), and the subtree at the first cut carries at most
    g_sigma(max_rank, k) marks.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    ix = _Index(t)
    path, depths = _cut_depths(ix, ix.flags(marks), k)
    cprime, chain, tprime, leaf = _cut_along(ix, path, depths)
    return Decomposition(cprime, chain, tprime, tuple(leaf[:d] for d in depths))


def _cut_along(
    ix: _Index, path: list[int], depths: list[int]
) -> tuple[Context, tuple[Context, ...], Tree, Address]:
    """Cut the indexed tree at the given depths of a root-to-leaf path.

    Returns cprime (the tree holed at the first cut), the pieces between
    consecutive cuts, tprime (the subtree at the last cut) and the leaf's
    address, whose prefixes are the cuts. Only the spines down to the cuts
    are rebuilt; the source tree is shared.
    """
    nodes = ix.nodes
    leaf = ix.address(path[-1])
    cprime = context_at(nodes[0], leaf[: depths[0]])
    pieces = tuple(
        context_at(nodes[path[a]], leaf[a:b]) for a, b in zip(depths, depths[1:])
    )
    return cprime, pieces, nodes[path[depths[-1]]], leaf


def _cut_depths(
    ix: _Index, marked: list[bool], k: int
) -> tuple[list[int], list[int]]:
    """The cut search of decompose_k on a preorder index with mark flags.

    Returns the positions of the chosen root-to-leaf path and the depths on
    it of its last k+1 interesting nodes, so cut i is position
    path[depths[i]]. No address is built.
    """
    interesting = _interesting(ix, marked)
    if not any(interesting):
        raise NotEnoughInteresting(
            f"no interesting nodes at all, need a path with {k + 1}"
        )
    path = _best_path(ix, interesting)
    on_path = [d for d, i in enumerate(path) if interesting[i]]  # depths
    if len(on_path) < k + 1:
        raise NotEnoughInteresting(
            f"best path visits {len(on_path)} interesting nodes, need {k + 1}"
        )
    return path, on_path[-(k + 1) :]
