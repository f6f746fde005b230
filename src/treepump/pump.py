"""Constructive pumping witnesses for trees accepted by a bottom-up automaton.

Decompose an accepted tree along marked nodes, then use the pigeonhole on the
states at the cut points to find a loop: a context c that maps some state q
back to itself. The resulting witness certifies cprime . c^n . tprime is
accepted for every n, algebraically and by bounded spot checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from .automata import (
    Dta,
    _states_bottom_up,
    accepts,
    pumping_constant,
    run,
    run_context,
)
from .decompose import _cut_along, _cut_depths, pumping_threshold
from .game import DEFAULT_MAX_N
from .terms import (
    Context,
    Marking,
    Tree,
    _Index,
    iterate,
    size_context,
    substitute,
)

__all__ = [
    "NotAccepted",
    "NotEnoughMarks",
    "TreeTooSmall",
    "PumpWitness",
    "MultiPumpWitness",
    "VerificationReport",
    "ogden_decompose",
    "standard_decompose",
    "ogden_decompose_multi",
    "pump",
    "pump_multi",
    "verify_witness",
]


class NotAccepted(Exception):
    """The automaton rejects the tree, so no pumping witness exists."""


class NotEnoughMarks(Exception):
    """Fewer marks than the threshold; the guarantee does not apply."""


class TreeTooSmall(Exception):
    """The tree has fewer nodes than the pumping constant."""


@dataclass(frozen=True)
class PumpWitness:
    """A loop at state q: tprime runs to q, c maps q to q, cprime finishes final."""

    cprime: Context
    c: Context
    tprime: Tree
    q: str
    p_used: int

    def __post_init__(self) -> None:
        if size_context(self.c) < 1:
            raise ValueError("the pumped context must be nonempty")
        if self.p_used < 1:
            raise ValueError("p_used must be positive")


@dataclass(frozen=True)
class MultiPumpWitness:
    """Several loops at one shared state q, pumped in lockstep."""

    cprime: Context
    chain: tuple[Context, ...]
    tprime: Tree
    q: str
    p_used: int

    def __post_init__(self) -> None:
        if not self.chain:
            raise ValueError("need at least one pumped context")
        for c in self.chain:
            if size_context(c) < 1:
                raise ValueError("every pumped context must be nonempty")
        if self.p_used < 1:
            raise ValueError("p_used must be positive")


@dataclass(frozen=True)
class VerificationReport:
    """Named check results; the witness verifies iff all of them hold."""

    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def failures(self) -> list[str]:
        return [name for name, ok in self.checks if not ok]


def _accepted_memo(m: Dta, t: Tree) -> dict[int, str]:
    """One bottom-up pass over t: the state of every subtree, by id.

    Raises NotAccepted unless t runs to a final state. No value is None:
    a stuck subtree would have made the root stuck too.
    """
    memo: dict[int, str | None] = {}
    if _states_bottom_up(m, t, memo) not in m.final:
        raise NotAccepted("the automaton rejects this tree")
    return memo


def _witness(
    ix: _Index,
    marked: list[bool],
    memo: dict[int, str],
    k: int,
    pick: Callable[[list[str]], list[int]],
) -> tuple[Context, tuple[Context, ...], Tree, str]:
    """The pieces of a witness, cut straight from the indexed tree.

    The tree is cut at the k+1 interesting nodes decompose_k picks; each
    cut's state is read from the memo of the tree's run. `pick` names the
    spots s_0 < ... < s_m among the cuts that share one state q. cprime is
    the tree holed at s_0, loop i the piece from s_i down to s_{i+1}, and
    tprime the subtree at s_m.
    """
    path, depths = _cut_depths(ix, marked, k)
    states = [memo[id(ix.nodes[path[d]])] for d in depths]
    cprime, loops, tprime, _ = _cut_along(ix, path, [depths[s] for s in pick(states)])
    return cprime, loops, tprime, memo[id(tprime)]


def _first_pair(states: list[str]) -> list[int]:
    """The equal-state pair (i, j) with the smallest i, then the smallest j."""
    for i, q in enumerate(states):
        if q in states[i + 1 :]:
            return [i, states.index(q, i + 1)]
    raise AssertionError("k+1 states drawn from k values must repeat")


def ogden_decompose(m: Dta, t: Tree, marks: Marking) -> PumpWitness:
    """Extract a pumping witness from an accepted tree with >= p marked nodes.

    Cuts the tree at |Q|+1 interesting nodes along a maximal path; two cuts
    must carry the same state, and the piece between them is the loop. Among
    equal-state index pairs (i, j), the one with smallest i, then smallest j,
    is chosen. The loop contains at least one mark and the pumped part
    c . tprime at most p of them.
    """
    memo = _accepted_memo(m, t)
    p = pumping_constant(m)
    if len(marks) < p:
        raise NotEnoughMarks(f"{len(marks)} marks, need at least {p}")
    ix = _Index(t)
    cprime, (c,), tprime, q = _witness(
        ix, ix.flags(marks), memo, len(m.states), _first_pair
    )
    return PumpWitness(cprime, c, tprime, q, p)


def standard_decompose(m: Dta, t: Tree) -> PumpWitness:
    """The all-marked special case: any accepted tree of size >= p pumps.

    Every position is marked directly on the preorder index, so no address
    is built for the marks and the automaton runs once.
    """
    memo = _accepted_memo(m, t)
    p = pumping_constant(m)
    ix = _Index(t)
    if len(ix.nodes) < p:
        raise TreeTooSmall(f"size {len(ix.nodes)}, need at least {p}")
    marked = [True] * len(ix.nodes)
    cprime, (c,), tprime, q = _witness(ix, marked, memo, len(m.states), _first_pair)
    return PumpWitness(cprime, c, tprime, q, p)


def ogden_decompose_multi(
    m: Dta, t: Tree, marks: Marking, mfold: int
) -> MultiPumpWitness:
    """Extract mfold loops at a single shared state.

    With k = mfold * |Q| cuts, some state occurs at least mfold+1 times among
    the k+1 cut states; the pieces between its first mfold+1 occurrences all
    map that state to itself. The most frequent such state is used, ties
    resolved by name order.
    """
    if mfold < 1:
        raise ValueError("mfold must be at least 1")
    memo = _accepted_memo(m, t)
    k = mfold * len(m.states)
    p = pumping_threshold(m.alphabet.max_rank, k)
    if len(marks) < p:
        raise NotEnoughMarks(f"{len(marks)} marks, need at least {p}")

    def first_of_top_state(states: list[str]) -> list[int]:
        counts = Counter(states)
        top = max(counts.values())
        q = min(s for s, c in counts.items() if c == top)
        assert top >= mfold + 1  # k+1 states drawn from |Q| values
        return [i for i, s in enumerate(states) if s == q][: mfold + 1]

    ix = _Index(t)
    cprime, chain, tprime, q = _witness(
        ix, ix.flags(marks), memo, k, first_of_top_state
    )
    return MultiPumpWitness(cprime, chain, tprime, q, p)


def _pump(cprime: Context, loops: tuple[Context, ...], tprime: Tree, n: int) -> Tree:
    """cprime . loops[0]^n . ... . loops[-1]^n . tprime, built inside-out.

    The cost is O(n * total loop size) plus cprime's spine.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    t = tprime
    for c in reversed(loops):
        *_, t = iterate(c, t, n)
    return substitute(cprime, t)


def pump(w: PumpWitness, n: int) -> Tree:
    """cprime . c^n . tprime; n = 1 reproduces the source tree exactly."""
    return _pump(w.cprime, (w.c,), w.tprime, n)


def pump_multi(w: MultiPumpWitness, n: int) -> Tree:
    """cprime . c_1^n . ... . c_m^n . tprime, all loops pumped in lockstep."""
    return _pump(w.cprime, w.chain, w.tprime, n)


def verify_witness(
    m: Dta, w: PumpWitness | MultiPumpWitness, max_n: int = DEFAULT_MAX_N
) -> VerificationReport:
    """Check the algebraic certificate, then pumped membership for n in 0..max_n.

    The certificate (tprime runs to q, every loop maps q to q, cprime sends q
    to a final state) covers all n at once; the spot checks catch witnesses
    whose pieces were assembled inconsistently.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    checks: list[tuple[str, bool]] = []
    checks.append(("tprime_state", run(m, w.tprime) == w.q))
    if isinstance(w, MultiPumpWitness):
        for i, c in enumerate(w.chain, 1):
            checks.append((f"loop_state_c{i}", run_context(m, c, w.q) == w.q))
        pumped = pump_multi
    else:
        checks.append(("loop_state", run_context(m, w.c, w.q) == w.q))
        pumped = pump
    checks.append(("cprime_final", run_context(m, w.cprime, w.q) in m.final))
    for n in range(max_n + 1):
        checks.append((f"pump_n{n}", accepts(m, pumped(w, n))))
    return VerificationReport(tuple(checks))
