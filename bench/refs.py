"""Independent references: the benchmark's own trees, counting and checks.

Nothing here imports or calls treepump. Program objects are read only through
their data attributes (``label``, ``children``, ``shape``, ``checks``, ...)
and converted to plain tuples ``(label, children)`` before any comparison,
so the checks never run the code they check. Every check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import random
from bisect import bisect
from collections import Counter
from itertools import accumulate
from operator import mul

HOLE = "@"

# ------------------------------------------------------------------ trees


def parse(text: str) -> tuple[tuple, set[tuple[int, ...]]]:
    """Parse concrete syntax into a ``(label, children)`` tuple and its marks."""
    marks: set[tuple[int, ...]] = set()
    frames: list[tuple[str, list]] = []
    path: list[int] = []
    pos, n = 0, len(text)
    while True:
        start = pos
        while pos < n and (text[pos].isalnum() or text[pos] in "_@"):
            pos += 1
        if pos == start:
            raise ValueError(f"expected a label at {pos}")
        label = text[start:pos]
        if pos < n and text[pos] == "!":
            marks.add(tuple(path))
            pos += 1
        if pos < n and text[pos] == "(":
            frames.append((label, []))
            path.append(1)
            pos += 1
            continue
        node = (label, ())
        while True:
            if not frames:
                if pos != n:
                    raise ValueError(f"trailing input at {pos}")
                return node, marks
            frames[-1][1].append(node)
            if pos < n and text[pos] == ",":
                path[-1] += 1
                pos += 1
                break
            if pos < n and text[pos] == ")":
                label, kids = frames.pop()
                path.pop()
                node = (label, tuple(kids))
                pos += 1
                continue
            raise ValueError(f"expected ',' or ')' at {pos}")


def render(tree: tuple, mark_all: bool = False) -> str:
    mark = "!" if mark_all else ""
    parts: list[str] = []
    stack: list = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        label, kids = item
        parts.append(label + (mark if label != HOLE else ""))
        if kids:
            stack.append(")")
            for i in range(len(kids) - 1, -1, -1):
                stack.append(kids[i])
                if i:
                    stack.append(",")
            stack.append("(")
    return "".join(parts)


def size(tree: tuple) -> int:
    n, stack = 0, [tree]
    while stack:
        label, kids = stack.pop()
        n += 1
        stack.extend(kids)
    return n


def depth(tree: tuple) -> int:
    """Nodes on the longest root-to-leaf path."""
    best, stack = 0, [(tree, 1)]
    while stack:
        (label, kids), d = stack.pop()
        best = max(best, d)
        stack.extend((k, d + 1) for k in kids)
    return best


def text_depth(text: str) -> int:
    """Nodes on the longest root-to-leaf path of a tree in concrete syntax."""
    depth = best = 0
    for ch in text:
        if ch == "(":
            depth += 1
            best = max(best, depth)
        elif ch == ")":
            depth -= 1
    return best + 1


def addresses(tree: tuple) -> list[tuple[int, ...]]:
    out, stack = [], [((), tree)]
    while stack:
        addr, (label, kids) = stack.pop()
        out.append(addr)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((addr + (i + 1,), kids[i]))
    return out


def hole_address(tree: tuple) -> tuple[int, ...] | None:
    stack = [((), tree)]
    while stack:
        addr, (label, kids) = stack.pop()
        if label == HOLE:
            return addr
        for i, kid in enumerate(kids):
            stack.append((addr + (i + 1,), kid))
    return None


def plug(context: tuple, tree: tuple) -> tuple:
    """Replace the hole of a context by tree."""
    addr = hole_address(context)
    if addr is None:
        raise ValueError("context without a hole")
    spine, node = [], context
    for i in addr:
        spine.append(node)
        node = node[1][i - 1]
    new = tree
    for i, (label, kids) in zip(reversed(addr), reversed(spine)):
        new = (label, kids[: i - 1] + (new,) + kids[i:])
    return new


def same(a: tuple, b: tuple) -> bool:
    """Structural equality of two tuple trees, without recursion."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        if x[0] != y[0] or len(x[1]) != len(y[1]):
            return False
        todo.extend(zip(x[1], y[1]))
    return True


def from_program(obj, memo: dict | None = None) -> tuple:
    """Copy a program tree into plain tuples, reading only label/children."""
    memo = {} if memo is None else memo
    stack = [(obj, False)]
    while stack:
        node, done = stack.pop()
        if id(node) in memo:
            continue
        if done:
            memo[id(node)] = (node.label, tuple(memo[id(c)] for c in node.children))
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in node.children)
    return memo[id(obj)]


def text_shape_ok(text: str, ranks: dict[str, int]) -> bool:
    """True iff text is one well-formed tree whose labels are used at their rank."""
    frames: list[list] = []  # [label, children seen]
    pos, n = 0, len(text)
    while True:
        if pos >= n or text[pos] not in ranks:
            return False
        label = text[pos]
        pos += 1
        if pos < n and text[pos] == "(":
            frames.append([label, 0])
            pos += 1
            continue
        if ranks[label] != 0:
            return False
        while True:
            if not frames:
                return pos == n
            frames[-1][1] += 1
            if pos < n and text[pos] == ",":
                pos += 1
                break
            if pos < n and text[pos] == ")":
                label, kids = frames.pop()
                if ranks[label] != kids:
                    return False
                pos += 1
                continue
            return False


# ------------------------------------------------------------------ automata


def evaluate(trans: dict, tree: tuple, hole_state: str | None = None, memo=None):
    """Bottom-up state of a tuple tree, or None when a transition is missing."""
    memo = {} if memo is None else memo
    stack = [(tree, False)]
    while stack:
        node, done = stack.pop()
        if id(node) in memo:
            continue
        label, kids = node
        if label == HOLE:
            memo[id(node)] = hole_state
        elif done:
            args = tuple(memo[id(k)] for k in kids)
            memo[id(node)] = None if None in args else trans.get((label, args))
        else:
            stack.append((node, True))
            stack.extend((k, False) for k in kids)
    return memo[id(tree)]


def count_by_state_size(trans: dict, bound: int) -> dict[str, list[int]]:
    """counts[q][s]: the number of trees of size s that run to q; builds no trees."""
    states = {t for t in trans.values()} | {q for (_, args) in trans for q in args}
    counts = {q: [0] * (bound + 1) for q in states}
    for s in range(1, bound + 1):
        for (sym, args), target in trans.items():
            counts[target][s] += _rule_weight(counts, args, s)
    return counts


def accepted_per_size(counts: dict[str, list[int]], final, bound: int) -> list[int]:
    """Accepted trees of each size 1..bound (index s-1)."""
    return [sum(counts[q][s] for q in final if q in counts) for s in range(1, bound + 1)]


def scaled_counts(trans: dict, states, max_size: int) -> dict[str, list[float]]:
    """counts[q][s] / 3**s as floats: sampling weights for large sizes."""
    w = {q: [0.0] * (max_size + 1) for q in states}
    for s in range(1, max_size + 1):
        for (sym, args), target in trans.items():
            w[target][s] += _rule_weight(w, args, s) / 3.0
    return w


def sample_tree(rng: random.Random, trans: dict, finals, size: int, weights) -> tuple:
    """A uniformly drawn accepted tree of the given size (up to float rounding)."""
    q = _pick(rng, [(weights[f][size], f) for f in finals])
    # skeleton of [label, [children]]; filled top-down without recursion
    root = [None, []]
    stack = [(q, size, root)]
    rules = sorted(trans.items())
    while stack:
        want, s, slot = stack.pop()
        options = []
        for (sym, args), target in rules:
            if target == want:
                wt = _rule_weight(weights, args, s)
                if wt:
                    options.append((wt, (sym, args)))
        sym, args = _pick(rng, options)
        slot[0] = sym
        if len(args) == 1:
            kids = [(args[0], s - 1)]
        elif len(args) == 2:
            cum = list(accumulate(map(mul, weights[args[0]][1 : s - 1], weights[args[1]][s - 2 : 0 : -1])))
            i = min(bisect(cum, rng.random() * cum[-1]), len(cum) - 1) + 1
            kids = [(args[0], i), (args[1], s - 1 - i)]
        else:
            kids = []
        for kq, ks in kids:
            child = [None, []]
            slot[1].append(child)
            stack.append((kq, ks, child))
    return _freeze(root)


def _rule_weight(weights, args, s: int) -> float:
    """Trees (or their weights) of size s built with one rule at the root."""
    if not args:
        return int(s == 1)
    if len(args) == 1:
        return weights[args[0]][s - 1] if s >= 2 else 0
    if s < 3:
        return 0
    return sum(map(mul, weights[args[0]][1 : s - 1], weights[args[1]][s - 2 : 0 : -1]))


def _pick(rng, weighted):
    total = sum(w for w, _ in weighted)
    r = rng.random() * total
    for w, item in weighted:
        if r < w:
            return item
        r -= w
    return weighted[-1][1]


def _freeze(skeleton) -> tuple:
    memo = {}
    stack = [(skeleton, False)]
    while stack:
        node, done = stack.pop()
        if done:
            memo[id(node)] = (node[0], tuple(memo[id(c)] for c in node[1]))
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in node[1])
    return memo[id(skeleton)]


# ------------------------------------------------------------------ checks


def _fields(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


CHAIN_RANKS = {"f": 2, "g": 1, "a": 0}


def chain_member(kind: str, text: str) -> bool:
    """Membership of a well-formed tree, decided from symbol counts alone."""
    counts = Counter(text)
    if kind == "chain":
        return counts["f"] == 0 and counts["a"] == 1
    if kind == "parity":
        return counts["a"] % 2 == 0
    return counts["g"] % 3 == 0


def pump_inputs(ogden_out: str, multi: bool) -> tuple[str, str, str]:
    """The (cprime, c, tprime) the pump step is given: for a two-loop witness,
    the first loop is pumped and the second folded into tprime."""
    f = _fields(ogden_out)
    if multi:
        return f["cprime"], f["c1"], f["c2"].replace(HOLE, f["tprime"])
    return f["cprime"], f["c"], f["tprime"]


def check_chains(task: dict, ogden: tuple[int, str], pumped: tuple[int, str] | None) -> list[str]:
    rc, out = ogden
    problems = []
    if rc != 0:
        return [f"ogden exit {rc}"]
    f = _fields(out)
    names = ["cprime", "c1", "c2"] if task["multi"] else ["cprime", "c"]
    if any(n not in f for n in names + ["tprime"]):
        return ["witness lines missing"]
    if any(f[n].count(HOLE) != 1 for n in names):
        return ["a context without exactly one hole"]
    joined = f["tprime"]
    for n in reversed(names):
        joined = f[n].replace(HOLE, joined)
    if joined != task["tree"].replace("!", ""):
        problems.append("pieces do not re-join to the input")
    if f.get("verdict") != "pass":
        problems.append("verdict is not pass")
    if pumped is None:
        return problems
    rc, text = pumped
    if rc != 0:
        return problems + [f"pump exit {rc}"]
    text = text.rstrip("\n")
    cprime, c, tprime = pump_inputs(out, task["multi"])
    want = Counter(cprime) + Counter(tprime)
    for sym, k in Counter(c).items():
        want[sym] += task["n"] * k
    got = Counter(text)
    if any(got[s] != want[s] for s in CHAIN_RANKS):
        problems.append("pumped symbol counts differ from |cprime| + N|c| + |tprime|")
    elif not text_shape_ok(text, CHAIN_RANKS):
        problems.append("pumped output is not a well-formed tree")
    elif not chain_member(task["kind"], text):
        problems.append("pumped tree is outside the language")
    return problems


def legal_pairs(text: str, mode: str, p: int) -> int:
    """Brute-force count of the (u, v) cuts the game constraint allows."""
    tree, marks = parse(text)
    addrs = addresses(tree)
    below = {a: 0 for a in addrs}
    marked = {a: 0 for a in addrs}
    for v in addrs:
        for i in range(len(v) + 1):
            below[v[:i]] += 1
            marked[v[:i]] += v in marks
    count = 0
    for u in addrs:
        for v in addrs:
            if len(u) < len(v) and v[: len(u)] == u:
                if mode == "classic":
                    count += below[u] <= p
                else:
                    count += marked[u] <= p and marked[u] - marked[v] >= 1
    return count


def check_game(task: dict, rc: int, out: str) -> list[str]:
    f = _fields(out)
    argv = task["argv"]
    mode = argv[argv.index("--mode") + 1]
    p = int(argv[argv.index("--p") + 1])
    problems = []
    if f.get("overall") != task["expect"]:
        problems.append(f"overall {f.get('overall')!r}, expected {task['expect']}")
    if rc != (0 if task["expect"] == "WE_WIN" else 1):
        problems.append(f"exit {rc}")
    want = legal_pairs(task["tree"], mode, p)
    if f.get("decompositions") != str(want):
        problems.append(f"decompositions {f.get('decompositions')!r}, brute force {want}")
    verdicts = sum(1 for line in out.splitlines() if line.startswith("d") and " -> " in line)
    if verdicts != want:
        problems.append(f"{verdicts} verdict lines, expected {want}")
    return problems


def _marks_under(marks, addr) -> int:
    return sum(1 for m in marks if m[: len(addr)] == addr)


def check_witness(trans, final, source: tuple, marks, w, report, multi: bool) -> list[str]:
    """Re-join the pieces, re-run the loop certificate, re-count the marks."""
    problems = []
    cprime = from_program(w.cprime.shape)
    loops = [from_program(c.shape) for c in (w.chain if multi else (w.c,))]
    tprime = from_program(w.tprime)
    joined = tprime
    for c in reversed(loops):
        joined = plug(c, joined)
    if not same(plug(cprime, joined), source):
        problems.append("witness pieces do not re-join to the source")
    if evaluate(trans, tprime) != w.q:
        problems.append("tprime does not run to the loop state")
    if any(evaluate(trans, c, w.q) != w.q for c in loops):
        problems.append("a loop does not map the state to itself")
    if evaluate(trans, cprime, w.q) not in final:
        problems.append("cprime does not finish in a final state")
    spots = [hole_address(cprime)]
    for c in loops:
        spots.append(spots[-1] + hole_address(c))
    if any(_marks_under(marks, a) - _marks_under(marks, b) < 1 for a, b in zip(spots, spots[1:])):
        problems.append("a loop owns no mark")
    if _marks_under(marks, spots[0]) > w.p_used:
        problems.append("the pumped part carries more than p marks")
    if not all(ok for _, ok in report.checks):
        problems.append("verify_witness reported a failure")
    return problems


def check_language(task: dict, language: list) -> list[str]:
    """Per-size counts against the counting table, membership and order."""
    trans, final = task["machine"].trans, task["machine"].final
    memo: dict = {}
    states: dict = {}
    sizes = [0] * len(task["per_size"])
    seen = set()
    last = 0
    for obj in language:
        t = from_program(obj, memo)
        s = size(t)
        if s < last or s > len(sizes):
            return ["enumeration out of size order or past the bound"]
        last = s
        sizes[s - 1] += 1
        if evaluate(trans, t, memo=states) not in final:
            return ["enumeration holds a rejected tree"]
        seen.add(t)
    problems = []
    if sizes != task["per_size"]:
        problems.append(f"trees per size {sizes}, counting table {task['per_size']}")
    if len(seen) != len(language):
        problems.append("enumeration repeats a tree")
    return problems
