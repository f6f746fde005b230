"""Deterministic bottom-up tree automata with a partial transition table.

A missing transition behaves as an implicit rejecting sink: runs return None
instead of a state. The text format is line-oriented::

    # free-form comment
    alphabet: f/2 g/1 a/0
    states: q0 q1
    final: q0
    trans: a -> q1
    trans: g(q1) -> q1
    trans: f(q1,q1) -> q0

Sections may appear in any order; duplicate symbol declarations and duplicate
transition left-hand sides are errors.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Collection, Mapping

from .decompose import pumping_threshold
from .terms import Address, Context, RankedAlphabet, Tree, render
from .terms import _NAME_RE, _Index

__all__ = [
    "AutomatonError",
    "Dta",
    "StateAnnotation",
    "parse_dta",
    "run",
    "accepts",
    "annotate",
    "run_context",
    "enumerate_language",
    "pumping_constant",
]

StateAnnotation = dict[Address, str]

_NAME = _NAME_RE.pattern
_TRANS_RE = re.compile(
    rf"^({_NAME})\s*(?:\(\s*({_NAME}(?:\s*,\s*{_NAME})*)\s*\))?\s*->\s*({_NAME})$"
)
_DECL_RE = re.compile(rf"^({_NAME})/(\d+)$")


class AutomatonError(ValueError):
    """Malformed or inconsistent automaton description."""


@dataclass(frozen=True)
class Dta:
    """Deterministic bottom-up tree automaton; transitions may be partial."""

    alphabet: RankedAlphabet
    states: frozenset[str]
    final: frozenset[str]
    transitions: dict[tuple[str, tuple[str, ...]], str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "final", frozenset(self.final))
        object.__setattr__(self, "transitions", dict(self.transitions))
        if not self.final <= self.states:
            raise ValueError(
                f"final states {sorted(self.final - self.states)} are undeclared"
            )
        for (sym, args), target in self.transitions.items():
            error = _transition_error(
                self.alphabet.symbols, self.states, sym, args, target
            )
            if error:
                raise ValueError(error)


def _transition_error(
    symbols: Mapping[str, int],
    states: Collection[str],
    sym: str,
    args: tuple[str, ...],
    target: str,
) -> str | None:
    """Why sym(args) -> target uses an undeclared name or a wrong rank, or None."""
    if sym not in symbols:
        return f"undeclared symbol {sym!r}"
    if len(args) != symbols[sym]:
        return f"{sym!r} has rank {symbols[sym]}, got {len(args)} argument states"
    for q in args + (target,):
        if q not in states:
            return f"undeclared state {q!r}"
    return None


def parse_dta(text: str) -> Dta:
    """Parse the line-oriented automaton format; see the module docstring."""
    symbols: dict[str, int] = {}
    states: set[str] = set()
    final: list[tuple[str, int]] = []
    transitions: dict[tuple[str, tuple[str, ...]], str] = {}
    trans_lines: list[tuple[tuple[str, tuple[str, ...]], str, int]] = []

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, payload = line.partition(":")
        key = key.strip()
        payload = payload.strip()
        if not sep:
            raise AutomatonError(f"line {lineno}: expected 'key: ...'")
        if key == "alphabet":
            for entry in payload.split():
                m = _DECL_RE.match(entry)
                if not m:
                    raise AutomatonError(
                        f"line {lineno}: bad alphabet entry {entry!r}, "
                        "expected name/rank"
                    )
                name, rank = m.group(1), int(m.group(2))
                if name in symbols:
                    raise AutomatonError(
                        f"line {lineno}: duplicate symbol {name!r}"
                    )
                symbols[name] = rank
        elif key in ("states", "final"):
            for name in payload.split():
                if not _NAME_RE.fullmatch(name):
                    raise AutomatonError(f"line {lineno}: bad state name {name!r}")
                if key == "states":
                    states.add(name)
                else:
                    final.append((name, lineno))
        elif key == "trans":
            m = _TRANS_RE.match(payload)
            if not m:
                raise AutomatonError(f"line {lineno}: bad transition {payload!r}")
            sym = m.group(1)
            args = tuple(a.strip() for a in m.group(2).split(",")) if m.group(2) else ()
            trans_lines.append(((sym, args), m.group(3), lineno))
        else:
            raise AutomatonError(f"line {lineno}: unknown section {key!r}")

    for name, lineno in final:
        if name not in states:
            raise AutomatonError(f"line {lineno}: final state {name!r} is undeclared")
    for (sym, args), target, lineno in trans_lines:
        error = _transition_error(symbols, states, sym, args, target)
        if error:
            raise AutomatonError(f"line {lineno}: {error}")
        if (sym, args) in transitions:
            raise AutomatonError(
                f"line {lineno}: duplicate transition for "
                f"{sym}({','.join(args)})"
            )
        transitions[sym, args] = target

    return Dta(
        RankedAlphabet(symbols),
        frozenset(states),
        frozenset(name for name, _ in final),
        transitions,
    )


def _states_bottom_up(
    m: Dta, t: Tree, memo: dict[int, str | None] | None = None
) -> str | None:
    """Evaluate t bottom-up; shared subtrees are evaluated once (memo by id).

    Nodes are first visited in preorder, so a bad symbol or rank raises
    ValueError for the first bad node in preorder. A tree already in the
    memo returns at once.

    A caller that passes `memo` reads the state of every subtree of t from
    it afterwards, and may share it across several trees. Keys are ids, so
    every tree evaluated with one memo has to stay alive while the memo is
    in use.
    """
    if memo is None:
        memo = {}
    elif id(t) in memo:
        return memo[id(t)]
    check = m.alphabet.check
    stack: list[tuple[Tree, bool]] = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:  # checked on the way down, children evaluated since
            args = tuple(memo[id(c)] for c in node.children)
            memo[id(node)] = (
                None if None in args else m.transitions.get((node.label, args))
            )
            continue
        if id(node) in memo:
            continue
        check(node.label, len(node.children))
        stack.append((node, True))
        stack.extend((c, False) for c in reversed(node.children))
    return memo[id(t)]


def _plug_state(
    m: Dta, c: Context, q: str | None, memo: dict[int, str | None]
) -> str | None:
    """The state of c with a subtree of state q in its hole; None if stuck.

    Descends c's spine to the hole, checking each spine node and evaluating
    the siblings left of the spine on the way down and those right of it on
    the way up, so a bad node is reported at the first one in preorder, as
    for a tree. q is folded up the spine; None stays None. Off-spine
    siblings go through `memo`, under the same rules as for
    `_states_bottom_up`, so siblings already in it cost O(1) and the fold
    is O(hole depth * max rank).
    """
    check = m.alphabet.check
    spine: list[tuple[Tree, int, tuple[str | None, ...]]] = []
    node = c.shape
    for i in c.hole_address:
        kids = node.children
        check(node.label, len(kids))
        left = tuple(_states_bottom_up(m, k, memo) for k in kids[: i - 1])
        spine.append((node, i, left))
        node = kids[i - 1]
    for node, i, left in reversed(spine):
        right = tuple(_states_bottom_up(m, k, memo) for k in node.children[i:])
        if q is not None:
            args = left + (q,) + right
            q = None if None in args else m.transitions.get((node.label, args))
    return q


def run(m: Dta, t: Tree) -> str | None:
    """The state t evaluates to, or None when a transition is missing."""
    return _states_bottom_up(m, t)


def accepts(m: Dta, t: Tree) -> bool:
    q = run(m, t)
    return q is not None and q in m.final


def run_context(m: Dta, c: Context, q: str) -> str | None:
    """The state of c with its hole preloaded to state q; None if stuck.

    One fold up c's spine, O(|c|) with a fresh memo for the off-spine
    subtrees; a bad node raises ValueError at the first one in preorder.
    """
    if q not in m.states:
        raise ValueError(f"unknown state {q!r}")
    return _plug_state(m, c, q, {})


def annotate(m: Dta, t: Tree) -> StateAnnotation | None:
    """Map every address, in preorder, to its state; None if the run gets stuck.

    One evaluator pass plus the addresses: a stuck node makes the root stuck,
    so the result is None exactly when run(m, t) is.
    """
    memo: dict[int, str | None] = {}
    if _states_bottom_up(m, t, memo) is None:
        return None
    ix = _Index(t)
    return {a: memo[id(node)] for a, node in zip(ix.addresses(), ix.nodes)}


def _compositions(total: int, parts: int):
    """Tuples of `parts` positive integers summing to `total`."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for head in range(1, total - parts + 2):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def enumerate_language(m: Dta, size_bound: int) -> list[Tree]:
    """All accepted trees of size <= size_bound, ordered by (size, rendering).

    Dynamic programming over (state, size): a tree of size s with root symbol
    f arises from child trees whose sizes sum to s-1 and whose states match a
    transition. Each tree is built beside its rendering, joined from its
    children's renderings, so the sort never walks a tree. Trees of the top
    size are nobody's children and are built only for final states.

    Cost: O(#trees x max rank) Python steps, plus the string joins, which
    run in C. Every returned tree is re-evaluated and must be accepted.
    """
    if size_bound < 1:
        raise ValueError("size_bound must be at least 1")
    # rows are (rendering, tree); a tree runs to one state only, so the
    # renderings of one size are unique and sort the rows on their own
    by: dict[tuple[str, int], list[tuple[str, Tree]]] = {}
    out: list[Tree] = []
    for s in range(1, size_bound + 1):
        for (sym, args), target in m.transitions.items():
            if s == size_bound and target not in m.final:
                continue
            arity = len(args)
            if arity == 0:
                if s == 1:
                    by.setdefault((target, 1), []).append((sym, Tree(sym)))
                continue
            if s - 1 < arity:
                continue
            head = sym + "("
            for sizes in _compositions(s - 1, arity):
                pools = [by.get((q, sz)) for q, sz in zip(args, sizes)]
                if any(not pool for pool in pools):
                    continue
                bucket = by.setdefault((target, s), [])
                for pairs in itertools.product(*pools):
                    strs, kids = zip(*pairs)
                    bucket.append((head + ",".join(strs) + ")", Tree(sym, kids)))
        rows = [row for q in m.final for row in by.get((q, s), ())]
        rows.sort(key=itemgetter(0))
        out.extend([t for _, t in rows])
    # the strings go before the check; `out` keeps every tree alive, so no id
    # is reused while the memo is in use. Children are shared objects, so one
    # memo makes the check O(#trees).
    del by, rows
    memo: dict[int, str | None] = {}
    for t in out:
        q = _states_bottom_up(m, t, memo)
        if q is None or q not in m.final:  # pragma: no cover - consistency check
            raise RuntimeError(f"enumeration produced a rejected tree: {render(t)}")
    return out


def pumping_constant(m: Dta) -> int:
    """Mark threshold above which an accepted tree is guaranteed pumpable."""
    return pumping_threshold(m.alphabet.max_rank, len(m.states))
