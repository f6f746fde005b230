"""The pumping adversary game, played to completion against a language oracle.

We present a tree in the language; the adversary picks any decomposition that
is legal under the agreed constraint (classic size bound or mark-based); we
then try to push the pumped tree out of the language with some n. The report
covers every legal decomposition, so a WE_WIN verdict is exhaustive and an
ADVERSARY_SURVIVES verdict names the surviving choices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .automata import Dta, _plug_state, _states_bottom_up, accepts
from .terms import (
    Address,
    Context,
    Marking,
    RankedAlphabet,
    Tree,
    _Index,
    context_at,
    iterate,
    substitute,
)

__all__ = [
    "DEFAULT_MAX_N",
    "LanguageOracle",
    "GameConstraint",
    "Candidate",
    "Verdict",
    "GameReport",
    "builtin_oracle",
    "dta_oracle",
    "enumerate_decompositions",
    "refute",
    "play",
]

DEFAULT_MAX_N = 5


@dataclass(frozen=True)
class LanguageOracle:
    """A named total membership predicate over trees of a fixed alphabet.

    `automaton`, when set, must accept exactly the trees `membership` does;
    `refute` and `play` then decide membership on its states instead of
    calling `membership` on whole trees. `dta_oracle` sets it.
    """

    name: str
    alphabet: RankedAlphabet
    membership: Callable[[Tree], bool]
    automaton: Dta | None = None


@dataclass(frozen=True)
class GameConstraint:
    """What the adversary's decomposition must satisfy.

    classic: the pumped context is nonempty and size(c . tprime) <= p.
    ogden:   c contains a marked node and c . tprime at most p of them.
    """

    mode: str
    p: int
    marks: Marking | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("classic", "ogden"):
            raise ValueError(f"unknown constraint mode {self.mode!r}")
        if self.p < 1:
            raise ValueError("p must be positive")
        if self.mode == "ogden" and self.marks is None:
            raise ValueError("ogden constraint needs a marking")
        if self.mode == "classic" and self.marks is not None:
            raise ValueError("classic constraint takes no marking")

    @classmethod
    def classic(cls, p: int) -> GameConstraint:
        return cls("classic", p)

    @classmethod
    def ogden(cls, p: int, marks: Marking) -> GameConstraint:
        return cls("ogden", p, frozenset(marks))


@dataclass(frozen=True)
class Candidate:
    """One legal decomposition t = cprime . c . tprime, cut at (u, v)."""

    u: Address
    v: Address
    cprime: Context
    c: Context
    tprime: Tree


@dataclass(frozen=True)
class Verdict:
    """Outcome for one candidate: refuted at the smallest n, or unrefuted."""

    candidate: Candidate
    refuted_at: int | None
    counterexample: Tree | None
    up_to: int


@dataclass(frozen=True)
class GameReport:
    verdicts: tuple[Verdict, ...]
    max_n: int

    @property
    def we_win(self) -> bool:
        return all(v.refuted_at is not None for v in self.verdicts)

    @property
    def overall(self) -> str:
        return "WE_WIN" if self.we_win else "ADVERSARY_SURVIVES"


def _unary_run(t: Tree, label: str) -> tuple[int, Tree]:
    n = 0
    while t.label == label and len(t.children) == 1:
        n += 1
        t = t.children[0]
    return n, t


def _is_l1(t: Tree) -> bool:
    # f(g^n a, g^n a) with matching n >= 1
    if t.label != "f" or len(t.children) != 2:
        return False
    n1, rest1 = _unary_run(t.children[0], "g")
    n2, rest2 = _unary_run(t.children[1], "g")
    return (
        n1 == n2 >= 1
        and rest1.label == "a"
        and not rest1.children
        and rest2.label == "a"
        and not rest2.children
    )


def _is_l2(t: Tree) -> bool:
    # f(g^n h^m1 a, g^n h^m2 a) with n >= 1 shared, m1, m2 >= 1 free
    if t.label != "f" or len(t.children) != 2:
        return False
    n1, rest1 = _unary_run(t.children[0], "g")
    m1, core1 = _unary_run(rest1, "h")
    n2, rest2 = _unary_run(t.children[1], "g")
    m2, core2 = _unary_run(rest2, "h")
    return (
        n1 == n2 >= 1
        and m1 >= 1
        and m2 >= 1
        and core1.label == "a"
        and not core1.children
        and core2.label == "a"
        and not core2.children
    )


_BUILTINS = {
    "L1": (RankedAlphabet({"f": 2, "g": 1, "a": 0}), _is_l1),
    "L2": (RankedAlphabet({"f": 2, "g": 1, "h": 1, "a": 0}), _is_l2),
}


def builtin_oracle(name: str) -> LanguageOracle:
    """L1: f(g^n a, g^n a), n >= 1. L2: f(g^n h^m1 a, g^n h^m2 a), all >= 1."""
    try:
        alphabet, membership = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown oracle {name!r}") from None
    return LanguageOracle(name, alphabet, membership)


def dta_oracle(m: Dta, name: str = "dta") -> LanguageOracle:
    """Wrap an automaton's accepts as a game oracle that carries the automaton."""
    return LanguageOracle(name, m.alphabet, lambda t: accepts(m, t), m)


def enumerate_decompositions(
    t: Tree, constraint: GameConstraint
) -> list[Candidate]:
    """Every legal decomposition, ordered lexicographically by (u, v).

    Walks all strict ancestor pairs on the preorder index: the descendants
    of position u are u+1 .. end[u]-1, so preorder on u and then on v is the
    lexicographic order. Admissibility is decided from loads (node or mark
    counts per subtree) before any context or address is built, and cprime
    is built once per u. A u is scanned only when its load is at most p and
    some position below it carries less, so that at least one v is legal.
    The cost is O(N) plus the subtrees below each such u plus the candidates.
    """
    ix = _Index(t)
    nodes, end, parent = ix.nodes, ix.end, ix.parent
    if constraint.mode == "ogden":  # load: marks per subtree
        assert constraint.marks is not None
        load = [int(f) for f in ix.flags(constraint.marks)]
    else:  # load: nodes per subtree
        load = [1] * len(nodes)
    least = [float("inf")] * len(nodes)  # the least load strictly below
    for i in range(len(nodes) - 1, 0, -1):
        load[parent[i]] += load[i]
        least[parent[i]] = min(least[parent[i]], least[i], load[i])
    # addresses are built for the u's and their descendants only
    is_u = [least[i] < load[i] <= constraint.p for i in range(len(nodes))]
    kept = is_u[:]
    for i in range(1, len(nodes)):
        kept[i] = is_u[i] or kept[parent[i]]
    addrs = ix.addresses(kept)
    out: list[Candidate] = []
    for u in range(len(nodes)):
        if not is_u[u]:
            continue
        cprime = None
        for v in range(u + 1, end[u]):
            if load[v] == load[u]:
                continue
            if cprime is None:
                cprime = context_at(t, addrs[u])
            c = context_at(nodes[u], addrs[v][len(addrs[u]) :])
            out.append(Candidate(addrs[u], addrs[v], cprime, c, nodes[v]))
    return out


def refute(
    oracle: LanguageOracle, d: Candidate, max_n: int
) -> tuple[int, Tree] | None:
    """Smallest n in 0..max_n whose pumped tree leaves the language, if any.

    Returns that n with the pumped tree cprime . c^n . tprime itself, the
    counterexample; pumping stops at the first n that refutes.

    A predicate oracle is called on each pumped tree. An oracle with an
    automaton is decided on states: cprime's action on c's action applied
    n times to tprime's state, each action one fold up a spine, cached per
    state. A candidate then costs one run over its off-spine subtrees plus
    O(min(max_n, |Q| + 1) * spine * max rank), and only the refuting tree
    is built.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    if oracle.automaton is not None:
        return _refute_states(oracle.automaton, d, max_n, {})
    for n, inner in enumerate(iterate(d.c, d.tprime, max_n)):
        pumped = substitute(d.cprime, inner)
        if not oracle.membership(pumped):
            return n, pumped
    return None


def _refute_states(
    m: Dta, d: Candidate, max_n: int, memo: dict[int, str | None]
) -> tuple[int, Tree] | None:
    """`refute` for an automaton; `memo` holds or receives off-spine states."""
    outer: dict[str | None, str | None] = {}  # state -> cprime's action on it
    loop: dict[str | None, str | None] = {}  # state -> c's action on it
    q = _states_bottom_up(m, d.tprime, memo)
    for n in range(max_n + 1):
        if q not in outer:
            outer[q] = _plug_state(m, d.cprime, q, memo)
        if outer[q] not in m.final:
            *_, inner = iterate(d.c, d.tprime, n)
            return n, substitute(d.cprime, inner)
        if n < max_n:
            if q not in loop:
                loop[q] = _plug_state(m, d.c, q, memo)
            q = loop[q]
    return None


def play(
    oracle: LanguageOracle,
    t: Tree,
    constraint: GameConstraint,
    max_n: int = DEFAULT_MAX_N,
) -> GameReport:
    """Adjudicate every legal adversary move; WE_WIN iff all are refuted.

    The presented tree must be in the oracle's language, since a win on a
    non-member proves nothing; ValueError otherwise, as for a negative max_n.
    A member admitting no legal decomposition is a vacuous win.

    With an automaton, t is run once and every candidate is refuted on
    states from that run (see `refute`), so a candidate costs its spine,
    not the tree, at every n. Predicate oracles go through `refute`.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    oracle.alphabet.check_tree(t)
    m = oracle.automaton
    if m is not None:
        # One memo for the whole game, holding the state of every subtree
        # of t. Keys are ids: every tprime and every off-spine child of a
        # candidate's cprime and c is an object of t, which outlives the
        # loop, so the memo only ever holds ids of t's subtrees.
        memo: dict[int, str | None] = {}
        member = _states_bottom_up(m, t, memo) in m.final
    else:
        member = oracle.membership(t)
    if not member:
        raise ValueError(f"the tree {t} is not in the language {oracle.name}")
    verdicts = []
    for d in enumerate_decompositions(t, constraint):
        if m is None:
            refuted = refute(oracle, d, max_n)
        else:
            refuted = _refute_states(m, d, max_n, memo)
        if refuted is None:
            verdicts.append(Verdict(d, None, None, max_n))
        else:
            verdicts.append(Verdict(d, *refuted, max_n))
    return GameReport(tuple(verdicts), max_n)
