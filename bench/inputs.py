"""Seeded inputs for the three workloads.

Nothing here imports treepump: the program only ever sees the tree text,
automaton text and argv built here. Every block of tasks is drawn from
``random.Random(f"{workload}:{seed}:{block}")``, so a seed fixes the inputs
byte for byte.

Each block is a fixed design (the same mix of depths, pump counts, tree sizes
or pool sizes in every block) and the seed varies the details inside each
cell. Runs measure whole blocks, so the quantiles of two runs describe the
same mix of tasks, whatever the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import refs

# ------------------------------------------------------------------ automata


@dataclass(frozen=True)
class Machine:
    """A bottom-up automaton as plain data; `text` is the program's format."""

    alphabet: dict[str, int]
    states: tuple[str, ...]
    final: frozenset[str]
    trans: dict[tuple[str, tuple[str, ...]], str]

    @property
    def max_rank(self) -> int:
        return max(self.alphabet.values())

    def text(self) -> str:
        lines = [
            "alphabet: " + " ".join(f"{s}/{r}" for s, r in self.alphabet.items()),
            "states: " + " ".join(self.states),
            "final: " + " ".join(sorted(self.final)),
        ]
        for (sym, args), target in sorted(self.trans.items()):
            lhs = f"{sym}({','.join(args)})" if args else sym
            lines.append(f"trans: {lhs} -> {target}")
        return "\n".join(lines) + "\n"


CHAINS = Machine(
    {"g": 1, "a": 0}, ("q",), frozenset({"q"}), {("a", ()): "q", ("g", ("q",)): "q"}
)
PARITY = Machine(
    {"f": 2, "g": 1, "a": 0},
    ("q0", "q1"),
    frozenset({"q0"}),
    {
        ("a", ()): "q1",
        ("g", ("q0",)): "q0",
        ("g", ("q1",)): "q1",
        **{
            ("f", (f"q{i}", f"q{j}")): f"q{(i + j) % 2}"
            for i in range(2)
            for j in range(2)
        },
    },
)
MOD3 = Machine(
    {"f": 2, "g": 1, "a": 0},
    ("r0", "r1", "r2"),
    frozenset({"r0"}),
    {
        ("a", ()): "r0",
        **{("g", (f"r{i}",)): f"r{(i + 1) % 3}" for i in range(3)},
        **{
            ("f", (f"r{i}", f"r{j}")): f"r{(i + j) % 3}"
            for i in range(3)
            for j in range(3)
        },
    },
)

# the automaton files the CLI workloads read, by file name
CLI_MACHINES = {"chains.dta": CHAINS, "parity.dta": PARITY, "mod3.dta": MOD3}


def g_sigma(max_rank: int, n: int) -> int:
    """The mark budget for n cuts: sum of max_rank**i for i in 0..n."""
    return sum(max_rank**i for i in range(n + 1))


def random_machine(rng: random.Random, n_states: int) -> Machine:
    """A random partial automaton over f/2 g/1 a/0."""
    states = tuple(f"q{i}" for i in range(n_states))
    trans = {("a", ()): rng.choice(states)}
    for q in states:
        if rng.random() < 0.85:
            trans["g", (q,)] = rng.choice(states)
    for q1 in states:
        for q2 in states:
            if rng.random() < 0.7:
                trans["f", (q1, q2)] = rng.choice(states)
    final = frozenset(rng.sample(states, rng.randrange(1, n_states + 1)))
    return Machine({"f": 2, "g": 1, "a": 0}, states, final, trans)


# ------------------------------------------------------------------ chains

CHAIN_DEPTHS = (128, 256, 512, 1024)
PUMP_COUNTS = (32, 64, 128, 256)
CHAIN_KINDS = ("chain", "parity", "mod3")
_KIND_FILE = {"chain": "chains.dta", "parity": "parity.dta", "mod3": "mod3.dta"}
_KIND_MACHINE = {"chain": CHAINS, "parity": PARITY, "mod3": MOD3}


def _spine_text(spine: list[tuple[str, int]], marked: set[int], legs_marked: bool) -> str:
    """Render a marked spine top-down; ``(label, leg)`` with leg 0 none, 1 left, 2 right.

    Index len(spine) is the bottom leaf ``a``.
    """
    opens, closes = [], []
    for i, (label, leg) in enumerate(spine):
        mark = "!" if i in marked else ""
        leaf = "a!" if legs_marked else "a"
        if leg == 0:
            opens.append(f"{label}{mark}(")
            closes.append(")")
        elif leg == 1:
            opens.append(f"{label}{mark}({leaf},")
            closes.append(")")
        else:
            opens.append(f"{label}{mark}(")
            closes.append(f",{leaf})")
    bottom = "a!" if len(spine) in marked else "a"
    return "".join(opens) + bottom + "".join(reversed(closes))


def _chain_task(rng, kind, level, n, multi, sparse) -> dict:
    m = _KIND_MACHINE[kind]
    depth = level - level % 3 if kind == "mod3" else level
    if kind == "parity":
        # a caterpillar: f and g alternate up from a g above the bottom leaf,
        # each f with an `a` leg on a random side; the root turns g if needed
        # so the number of f, hence of `a` beyond the bottom one, is odd
        spine = [("f", rng.choice((1, 2))) if (depth - i) % 2 == 0 else ("g", 0) for i in range(depth)]
        if sum(label == "f" for label, _ in spine) % 2 == 0:
            spine[0] = ("g", 0)
    else:
        spine = [("g", 0)] * depth
    k = len(m.states) * (2 if multi else 1)
    need = g_sigma(m.max_rank, k)
    if sparse:
        # a run of exactly `need` marked spine nodes, anywhere, ending an even
        # distance above the bottom leaf so the loop cut is the same shape
        last = depth + 1 - need
        start = rng.choice([s for s in range(last + 1) if (last - s) % 2 == 0])
        marked = set(range(start, start + need))
        text = _spine_text(spine, marked, legs_marked=False)
    else:
        text = _spine_text(spine, set(range(depth + 1)), legs_marked=True)
    argv = ["ogden-multi", "--m", "2"] if multi else ["ogden"]
    return {
        "kind": kind,
        "depth": level,  # nominal: mod3 trims the spine to a multiple of 3
        "spine": depth,
        "n": n,
        "multi": multi,
        "sparse": sparse,
        "file": _KIND_FILE[kind],
        "argv": argv,
        "tree": text,
    }


def chains_block(rng: random.Random) -> list[dict]:
    """Every (depth, N, automaton) cell once. Which cells use ogden-multi or a
    sparse marking is fixed, so every block costs the same; the seed picks
    the legs, the place of the sparse marks and the order."""
    tasks = []
    for d, level in enumerate(CHAIN_DEPTHS):
        for k, kind in enumerate(CHAIN_KINDS):
            for i, n in enumerate(PUMP_COUNTS):
                multi = i == (d + k) % len(PUMP_COUNTS)
                sparse = (i + d + k) % 2 == 0
                tasks.append(_chain_task(rng, kind, level, n, multi, sparse))
    rng.shuffle(tasks)
    return tasks


# ------------------------------------------------------------------ game

GAME_SIZES = (13, 17, 21, 27, 33, 41, 51)
GAME_KINDS = ("L1", "L2-classic", "L2-ogden", "dta")


def _unary(labels: list[str], inner: str, mark: bool = False) -> str:
    m = "!" if mark else ""
    return "".join(f"{x}{m}(" for x in labels) + inner + ")" * len(labels)


def _game_task(rng, kind, size) -> dict:
    if kind == "L1":
        k = (size - 3) // 2
        branch = _unary(["g"] * k, "a")
        tree, shape = f"f({branch},{branch})", ("L1", k, k)
        argv = ["--oracle", "L1", "--mode", "classic", "--p", str(size)]
        expect = "WE_WIN"
    elif kind in ("L2-classic", "L2-ogden"):
        rest = size - 3
        n = rest // 4
        free = rest - 2 * n  # m1 + m2
        m1 = free // 2 + rng.choice((-1, 1))
        m2 = free - m1
        mark = kind == "L2-ogden"
        left = _unary(["g"] * n, _unary(["h"] * m1, "a"), mark)
        right = _unary(["g"] * n, _unary(["h"] * m2, "a"), mark)
        tree, shape = f"f({left},{right})", ("L2", n, m1, m2)
        if mark:
            # marks sit on the shared g chains; p counts one branch's marks
            argv = ["--oracle", "L2", "--mode", "ogden", "--p", str(n)]
            expect = "WE_WIN"
        else:
            argv = ["--oracle", "L2", "--mode", "classic", "--p", str(size), "--max-n", "10"]
            expect = "ADVERSARY_SURVIVES"
    else:
        rest = size - 3
        d = rng.choice((-1, 1)) if rest % 2 else rng.choice((-2, 2))
        k = (rest + d) // 2
        j = rest - k
        tree, shape = f"f({_unary(['g'] * k, 'a')},{_unary(['g'] * j, 'a')})", ("dta", k, j)
        argv = ["--oracle", "dta:parity.dta", "--mode", "classic", "--p", str(size)]
        expect = "ADVERSARY_SURVIVES"
    return {
        "kind": kind,
        "size": size,
        "depth": refs.text_depth(tree),
        "shape": list(shape),
        "argv": ["game", *argv, tree],
        "tree": tree,
        "expect": expect,
    }


def game_block(rng: random.Random) -> list[dict]:
    """Every (size, kind) cell once; sizes spread geometrically over 13..51."""
    tasks = [_game_task(rng, kind, size) for size in GAME_SIZES for kind in GAME_KINDS]
    rng.shuffle(tasks)
    return tasks


# ------------------------------------------------------------------ enum

# (states, target pool size, size of the tree given to ogden_decompose_multi)
# for the twelve tasks of a block; pools are hit within +-5 %. The two
# largest and the two middle tasks are alike, so p90 and p50 fall inside a
# cluster of similar tasks and not on the gap between two of them.
ENUM_CELLS = (
    (1, 8, 1000), (2, 40, 100), (2, 120, 750), (2, 250, 133),
    (2, 500, 562), (2, 1000, 237), (2, 1000, 237), (3, 2000, 422),
    (3, 3500, 178), (3, 6000, 316), (3, 10000, 870), (3, 10000, 870),
)
_POOL_SLACK = 0.05
_MAX_DRAWS = 20000
# enum trees are bushy: the multi tree's depth stays within this times sqrt(size)
_MAX_DEPTH_FACTOR = 3


def _pool_machine(rng, n_states, target):
    """A random automaton and bound whose pool lands within the slack of target.

    The trees built for non-final states stay under the pool size, so the
    enumeration's cost follows the pool.
    """
    p = g_sigma(2, n_states)
    lo, hi = target * (1 - _POOL_SLACK), target * (1 + _POOL_SLACK)
    for _ in range(_MAX_DRAWS):
        m = random_machine(rng, n_states)
        counts = refs.count_by_state_size(m.trans, p + 3)
        for bound in (p + 1, p + 2, p + 3):
            per_size = refs.accepted_per_size(counts, m.final, bound)
            pool = sum(per_size)
            built = sum(sum(c[: bound + 1]) for c in counts.values())
            big = sum(per_size[p - 1 :])
            if lo <= pool <= hi and big >= 3 and built <= 2 * pool:
                return m, p, bound, per_size
            if pool > hi:
                break
    raise RuntimeError(f"no {n_states}-state automaton with a pool near {target}")


def _multi_tree(rng, m, target):
    """A shallow accepted tree of size near target, sampled uniformly from the
    counts; None when the language has none (few draws are allowed)."""
    p = g_sigma(2, 2 * len(m.states))
    want = max(target, p)
    weights = refs.scaled_counts(m.trans, m.states, want + 8)
    for size in sorted(range(want, want + 9), key=lambda s: abs(s - want)):
        if sum(weights[q][size] for q in m.final) > 1e-250:
            break
    else:
        return None
    for _ in range(4):
        tree = refs.sample_tree(rng, m.trans, sorted(m.final), size, weights)
        if refs.depth(tree) <= _MAX_DEPTH_FACTOR * size**0.5:
            return tree
    return None


def _enum_task(rng, n_states, target, multi_size) -> dict:
    while True:
        m, p, bound, per_size = _pool_machine(rng, n_states, target)
        big = sum(per_size[p - 1 :])
        tree = _multi_tree(rng, m, multi_size)
        if tree is not None:
            break
    picks = [
        {"offset": off, "all_marked": rng.random() < 0.5, "mark_seed": rng.randrange(2**32)}
        for off in rng.sample(range(big), 3)
    ]
    text = refs.render(tree, mark_all=True)
    return {
        "states": n_states,
        "automaton": m.text(),
        "machine": m,
        "bound": bound,
        "p": p,
        "pool": sum(per_size),
        "per_size": per_size,
        "picks": picks,
        "multi_tree": text,
        "multi_size": refs.size(tree),
        "depth": refs.text_depth(text),
    }


def enum_block(rng: random.Random) -> list[dict]:
    tasks = [_enum_task(rng, n_states, target, multi) for n_states, target, multi in ENUM_CELLS]
    rng.shuffle(tasks)
    return tasks


# ------------------------------------------------------------------ blocks

BLOCKS = {"chains": chains_block, "game": game_block, "enum": enum_block}


def block(workload: str, seed: int, index: int) -> list[dict]:
    return BLOCKS[workload](random.Random(f"{workload}:{seed}:{index}"))


def serialize(tasks: list[dict]) -> bytes:
    """The program-visible part of a block, as canonical bytes."""
    visible = [{k: v for k, v in t.items() if k != "machine"} for t in tasks]
    return json.dumps(visible, sort_keys=True).encode()

