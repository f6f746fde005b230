"""Ranked trees, one-hole contexts, and the splitting operations built on them.

Trees are ordered and labeled over a ranked alphabet; positions are Gorn
addresses (1-based child indices, the empty tuple is the root). A context is a
tree with exactly one hole, written ``@`` in concrete syntax. Traversals are
iterative throughout: pumped trees are routinely deep unary chains, and
recursion would overflow on them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

__all__ = [
    "HOLE",
    "Address",
    "Marking",
    "InvalidAddressError",
    "ParseError",
    "RankedAlphabet",
    "Tree",
    "Context",
    "parse_address",
    "format_address",
    "is_prefix",
    "is_strict_prefix",
    "walk",
    "addresses",
    "size",
    "size_context",
    "render",
    "subtree_at",
    "replace_at",
    "context_at",
    "substitute",
    "compose",
    "power",
    "iterate",
    "split",
    "check_marks",
    "parse_tree",
    "parse_context",
    "infer_alphabet",
    "merge_alphabets",
]

HOLE = "@"

Address = tuple[int, ...]
Marking = frozenset[Address]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class InvalidAddressError(ValueError):
    """An address does not denote a node of the tree at hand."""


class ParseError(ValueError):
    """Malformed concrete syntax; `position` is the 1-based character index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_address(text: str) -> Address:
    """Parse a dot-separated address; ``e`` denotes the root."""
    text = text.strip()
    if text == "e":
        return ()
    if not text:
        raise ValueError("empty address (the root is written 'e')")
    parts = text.split(".")
    out = []
    for part in parts:
        if not part.isdigit() or int(part) < 1:
            raise ValueError(f"bad address component {part!r} in {text!r}")
        out.append(int(part))
    return tuple(out)


def format_address(addr: Address) -> str:
    return "e" if not addr else ".".join(str(i) for i in addr)


def is_prefix(u: Address, v: Address) -> bool:
    """True iff u is an ancestor of v or equal to it."""
    return len(u) <= len(v) and v[: len(u)] == u


def is_strict_prefix(u: Address, v: Address) -> bool:
    return len(u) < len(v) and v[: len(u)] == u


@dataclass(frozen=True)
class RankedAlphabet:
    """A finite map from symbol names to ranks (child counts)."""

    symbols: Mapping[str, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", dict(self.symbols))
        for name, rank in self.symbols.items():
            if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
                raise ValueError(f"bad symbol name {name!r}")
            if not isinstance(rank, int) or rank < 0:
                raise ValueError(f"bad rank {rank!r} for symbol {name!r}")

    def __contains__(self, name: str) -> bool:
        return name in self.symbols

    def rank(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError:
            raise ValueError(f"unknown symbol {name!r}") from None

    @property
    def max_rank(self) -> int:
        return max(self.symbols.values(), default=0)

    def check_tree(self, t: Tree) -> None:
        """Raise ValueError unless every node uses a declared symbol at its rank."""
        for node in _nodes(t):
            if node.label not in self.symbols:
                raise ValueError(f"unknown symbol {node.label!r}")
            if len(node.children) != self.symbols[node.label]:
                raise ValueError(
                    f"rank mismatch: {node.label!r} takes "
                    f"{self.symbols[node.label]} children, got {len(node.children)}"
                )


@dataclass(frozen=True, eq=False, slots=True)
class Tree:
    """An ordered labeled tree. Structural equality; hash cached per node.

    A label is a symbol name (ASCII letters, digits and ``_``, not starting
    with a digit) or the hole ``@``, so that `render` output always parses
    back; anything else raises ValueError. Each node also caches its size
    and how many hole nodes it holds, summed from its children in the same
    loop that builds the hash, so `size` and every hole check are O(1).
    """

    label: str
    children: tuple[Tree, ...] = ()
    _hash: int = field(init=False, repr=False)
    _size: int = field(init=False, repr=False)
    _holes: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        label = self.label
        if not isinstance(label, str) or not (
            label == HOLE or (label.isascii() and label.isidentifier())
        ):
            raise ValueError(f"bad node label {label!r}")
        if not isinstance(self.children, tuple):
            object.__setattr__(self, "children", tuple(self.children))
        hashes, n, holes = [label], 1, int(label == HOLE)
        for c in self.children:
            hashes.append(c._hash)
            n += c._size
            holes += c._holes
        object.__setattr__(self, "_hash", hash(tuple(hashes)))
        object.__setattr__(self, "_size", n)
        object.__setattr__(self, "_holes", holes)

    # equality and hashing avoid recursion: chains can exceed the stack limit
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Tree):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if (
                a._hash != b._hash
                or a.label != b.label
                or len(a.children) != len(b.children)
            ):
                return False
            todo.extend(zip(a.children, b.children))
        return True

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Tree({render(self)!r})"

    def __str__(self) -> str:
        return render(self)


def walk(t: Tree) -> Iterator[tuple[Address, Tree]]:
    """Yield (address, subtree) pairs in preorder, i.e. lexicographic order."""
    stack: list[tuple[Address, Tree]] = [((), t)]
    while stack:
        addr, node = stack.pop()
        yield addr, node
        for i in range(len(node.children) - 1, -1, -1):
            stack.append((addr + (i + 1,), node.children[i]))


def _nodes(t: Tree) -> Iterator[Tree]:
    """The subtrees of t in preorder, without building their addresses."""
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def addresses(t: Tree) -> Iterator[Address]:
    return (addr for addr, _ in walk(t))


def size(t: Tree) -> int:
    """Number of nodes, cached on the tree: O(1)."""
    return t._size


def subtree_at(t: Tree, addr: Address) -> Tree:
    node = t
    for depth, idx in enumerate(addr):
        if idx < 1 or idx > len(node.children):
            raise InvalidAddressError(
                f"address {format_address(addr)} invalid at component {depth + 1}"
            )
        node = node.children[idx - 1]
    return node


def replace_at(t: Tree, addr: Address, replacement: Tree) -> Tree:
    """Return t with the subtree at addr swapped for `replacement`."""
    spine: list[Tree] = []
    node = t
    for depth, idx in enumerate(addr):
        if idx < 1 or idx > len(node.children):
            raise InvalidAddressError(
                f"address {format_address(addr)} invalid at component {depth + 1}"
            )
        spine.append(node)
        node = node.children[idx - 1]
    new = replacement
    for idx, parent in zip(reversed(addr), reversed(spine)):
        new = Tree(
            parent.label, parent.children[: idx - 1] + (new,) + parent.children[idx:]
        )
    return new


@dataclass(frozen=True)
class Context:
    """A tree over the alphabet plus ``@`` with exactly one hole, at a leaf.

    `Context(shape)` validates the shape from its cached hole count and
    derives `hole_address` by descending through the one child that holds
    the hole: O(hole depth * max rank). The operations below (`context_at`,
    `compose`, `power`, `split`) already know where the hole lands and skip
    even that. The size of a context never counts the hole.
    """

    shape: Tree
    hole_address: Address = field(init=False)

    def __post_init__(self) -> None:
        node = self.shape
        if node._holes != 1:
            raise ValueError(f"a context needs exactly one hole, found {node._holes}")
        addr: list[int] = []
        while node.label != HOLE:
            i = next(i for i, c in enumerate(node.children) if c._holes)
            addr.append(i + 1)
            node = node.children[i]
        if node.children:
            raise ValueError("the hole must be a leaf")
        object.__setattr__(self, "hole_address", tuple(addr))

    @classmethod
    def _known(cls, shape: Tree, hole_address: Address) -> Context:
        """A context whose caller already knows the hole; nothing is re-checked."""
        c = object.__new__(cls)
        object.__setattr__(c, "shape", shape)
        object.__setattr__(c, "hole_address", hole_address)
        return c

    @classmethod
    def identity(cls) -> Context:
        """The bare hole: substitution into it returns the argument unchanged."""
        return cls._known(Tree(HOLE), ())

    def __str__(self) -> str:
        return render(self.shape)


def size_context(c: Context) -> int:
    """Number of non-hole nodes."""
    return size(c.shape) - 1


def context_at(t: Tree, addr: Address) -> Context:
    """The complement of the subtree at addr: t with that subtree holed out.

    t must be hole-free (a tree, not a context's shape), so that the new
    hole at addr is the only one; a t that holds the hole raises ValueError.
    That check reads the cached hole count, so the cut costs
    O(|addr| * max rank), the spine rebuilt by replace_at.
    """
    if t._holes:
        raise ValueError("a tree cannot contain the hole '@'")
    return Context._known(replace_at(t, addr, Tree(HOLE)), addr)


def substitute(c: Context, t: Tree) -> Tree:
    """Plug t into the hole of c."""
    return replace_at(c.shape, c.hole_address, t)


def compose(outer: Context, inner: Context) -> Context:
    """The context whose substitution acts as outer after inner.

    The hole lands at outer.hole_address + inner.hole_address; only outer's
    spine down to its hole is rebuilt, and inner's shape is shared.
    """
    return Context._known(
        replace_at(outer.shape, outer.hole_address, inner.shape),
        outer.hole_address + inner.hole_address,
    )


def iterate(c: Context, t: Tree, n: int) -> Iterator[Tree]:
    """Yield c^k . t for k = 0, 1, ..., n, built inside-out.

    Step k plugs step k-1 into a fresh copy of c's spine down to its hole,
    so all n+1 trees together cost O(n * |c|) and share their lower parts.
    This is the one place a context is pumped: `power`, `pump`,
    `pump_multi`, the game's `refute` and the CLI's `pump` all use it.
    """
    if n < 0:
        raise ValueError("negative context power")
    yield t
    for _ in range(n):
        t = replace_at(c.shape, c.hole_address, t)
        yield t


def power(c: Context, n: int) -> Context:
    """n-fold self-composition; power(c, 0) is the bare hole.

    Linear in n * |c|: built inside-out by `iterate`, hole at
    c.hole_address repeated n times.
    """
    *_, shape = iterate(c, Tree(HOLE), n)
    return Context._known(shape, c.hole_address * n)


def split(t: Tree, u: Address, v: Address) -> tuple[Context, Context, Tree]:
    """Cut t at a strict ancestor pair: t = cprime . c . tprime.

    cprime is t holed at u, c is the piece between u and v (hole at v,
    root at u), tprime is the subtree at v. Requires u to be a strict
    ancestor of v; in particular u = v is rejected, so c never collapses
    to the bare hole. A t that holds the hole raises ValueError from
    context_at, since cprime would get a second one. The cost is
    O(|v| * max rank): the two cut spines.
    """
    if not is_strict_prefix(u, v):
        raise ValueError(
            f"{format_address(u)} is not a strict ancestor of {format_address(v)}"
        )
    cprime = context_at(t, u)  # rejects a holed t, then validates u
    sub = subtree_at(t, u)  # v is validated by the inner cut
    c = context_at(sub, v[len(u) :])
    tprime = subtree_at(sub, v[len(u) :])
    return cprime, c, tprime


def check_marks(t: Tree, marks: Iterable[Address]) -> None:
    """Raise InvalidAddressError unless every mark denotes a node of t."""
    for m in marks:
        subtree_at(t, m)


def _shared_prefix(a: Address, b: Address) -> int:
    """Length of the longest common prefix of a and b.

    Slices compare in C, so a binary search over them avoids one Python
    step per shared component: marks on a deep chain share long prefixes.
    """
    n = min(len(a), len(b))
    if a[:n] == b[:n]:
        return n
    lo, hi = 0, n - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


class _Index:
    """A positional preorder index of one hole-free tree.

    Position i is the i-th node in preorder (lexicographic address order):
    `nodes[i]` is its subtree, `parent[i]` its parent's position (-1 at the
    root), `slot[i]` its 1-based child index, and `end[i]` one past the last
    position of its subtree. So the subtree at i has size end[i] - i, its
    descendants are i+1 .. end[i]-1, and u is an ancestor of v iff
    u <= v < end[u]: the pre/post numbering of Grust, "Accelerating XPath
    location steps" (SIGMOD 2002), with end[i] = i + the cached size of
    nodes[i]. Building it is one O(N) pass and makes no address tuple;
    addresses are made only where a caller asks for them.

    Keys are positions, never ids: enumeration and splitting share one
    subtree object across several addresses, and a mark or a cut belongs to
    one of those addresses only. A tree that holds the hole raises
    ValueError, since every position must be a node of a tree; that check
    reads the root's cached hole count.
    """

    __slots__ = ("nodes", "parent", "slot", "end")

    def __init__(self, t: Tree) -> None:
        if t._holes:
            raise ValueError("a tree cannot contain the hole '@'")
        nodes: list[Tree] = []
        parent: list[int] = []
        slot: list[int] = []
        stack: list[tuple[Tree, int, int]] = [(t, -1, 0)]
        while stack:
            node, up, k = stack.pop()
            i = len(nodes)
            nodes.append(node)
            parent.append(up)
            slot.append(k)
            kids = node.children
            for j in range(len(kids), 0, -1):
                stack.append((kids[j - 1], i, j))
        self.nodes = nodes
        self.parent = parent
        self.slot = slot
        self.end = [i + node._size for i, node in enumerate(nodes)]

    def flags(self, marks: Iterable[Address]) -> list[bool]:
        """Per-position membership of a set of addresses.

        The addresses are sorted, which puts them in preorder. Each one is
        descended only from the deepest position it shares with the one
        before, hopping over siblings by subtree end. For M marks of total
        length L that is O(N + M log N) Python steps plus O(L log N) address
        element comparisons done in C (the sort and `_shared_prefix`), and
        no address is built. An address that names no node raises the
        InvalidAddressError that check_marks raises for `marks`.
        """
        nodes, end = self.nodes, self.end
        out = [False] * len(nodes)
        prev: Address = ()
        trail = [0]  # trail[d] is the position of prev[:d]
        for addr in sorted(marks):
            d = _shared_prefix(prev, addr)
            # sorted order: if addr leaves prev at depth d, it goes right of
            # prev's child there, so hopping resumes from that child
            at, k = (trail[d + 1], prev[d]) if d < len(prev) else (trail[d] + 1, 1)
            del trail[d + 1 :]
            for want in addr[d:]:
                if not 1 <= want <= len(nodes[trail[-1]].children):
                    check_marks(nodes[0], marks)
                    raise InvalidAddressError(f"address {format_address(addr)} invalid")
                while k < want:
                    at, k = end[at], k + 1
                trail.append(at)
                at, k = at + 1, 1
            out[trail[-1]] = True
            prev = addr
        return out

    def address(self, i: int) -> Address:
        """The address of position i, read up its parents: O(depth)."""
        out = []
        while i > 0:
            out.append(self.slot[i])
            i = self.parent[i]
        return tuple(reversed(out))

    def addresses(self, keep: list[bool] | None = None) -> list[Address | None]:
        """The address of every position, or of every kept one (None elsewhere).

        One preorder pass with a path stack: O(N) steps plus the size of the
        addresses built.
        """
        parent, slot = self.parent, self.slot
        n = len(parent)
        depth = [0] * n
        path: list[int] = []  # slots from the root down to the current position
        out: list[Address | None] = [None] * n
        if keep is None or keep[0]:
            out[0] = ()
        for i in range(1, n):
            d = depth[parent[i]] + 1
            depth[i] = d
            del path[d - 1 :]
            path.append(slot[i])
            if keep is None or keep[i]:
                out[i] = tuple(path)
        return out


def render(t: Tree, marks: Iterable[Address] = frozenset()) -> str:
    """Canonical concrete syntax; marked addresses carry a ``!`` suffix.

    Addresses are carried along only when there are marks to look up, so an
    unmarked render is linear in the size of t.
    """
    marks = marks if isinstance(marks, (set, frozenset)) else frozenset(marks)
    parts: list[str] = []
    stack: list[str | tuple[Address | None, Tree]] = [((), t)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        addr, node = item
        parts.append(node.label + ("!" if marks and addr in marks else ""))
        if node.children:
            stack.append(")")
            for i in range(len(node.children) - 1, -1, -1):
                child = addr + (i + 1,) if marks else None
                stack.append((child, node.children[i]))
                if i:
                    stack.append(",")
            stack.append("(")
    return "".join(parts)


def parse_tree(
    alphabet: RankedAlphabet | None, text: str
) -> tuple[Tree, Marking]:
    """Parse ``name['!'][ '(' tree (',' tree)* ')' ]`` concrete syntax.

    With an alphabet, every symbol must be declared and used at its rank;
    with None, ranks are inferred and must merely be used consistently.
    The hole ``@`` is rejected here; use parse_context for contexts.
    """
    return _parse(text, alphabet, allow_hole=False)


def parse_context(
    alphabet: RankedAlphabet | None, text: str
) -> tuple[Context, Marking]:
    """Like parse_tree, but the input must contain exactly one hole ``@``."""
    shape, marks = _parse(text, alphabet, allow_hole=True)
    if not shape._holes:
        raise ParseError("context contains no hole '@'", len(text) + 1)
    return Context(shape), marks


def _parse(
    text: str, alphabet: RankedAlphabet | None, allow_hole: bool
) -> tuple[Tree, Marking]:
    n = len(text)
    pos = 0
    marks: set[Address] = set()
    seen_hole = False
    seen: dict[str, int] = {}  # inferred ranks when alphabet is None
    # frames: one per open '(' -- [label, label position, children so far]
    frames: list[tuple[str, int, list[Tree]]] = []
    path: list[int] = []  # 1-based child index per open frame

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def fail(message: str, at: int) -> ParseError:
        return ParseError(message, at + 1)

    def check_rank(label: str, count: int, at: int) -> None:
        if label == HOLE:
            return
        if alphabet is None:
            if label in seen and seen[label] != count:
                raise fail(
                    f"symbol {label!r} used with {count} children, "
                    f"previously {seen[label]}",
                    at,
                )
            seen[label] = count
        else:
            if label not in alphabet:
                raise fail(f"unknown symbol {label!r}", at)
            want = alphabet.rank(label)
            if want != count:
                raise fail(
                    f"rank mismatch: {label!r} takes {want} children, got {count}", at
                )

    while True:
        # read one symbol occurrence
        skip_ws()
        if pos >= n:
            raise fail("expected a symbol name", pos)
        name_at = pos
        if text[pos] == HOLE:
            if not allow_hole:
                raise fail("hole '@' is only allowed in a context", pos)
            name = HOLE
            pos += 1
        else:
            m = _NAME_RE.match(text, pos)
            if not m:
                raise fail(f"expected a symbol name, found {text[pos]!r}", pos)
            name = m.group()
            pos = m.end()
        if pos < n and text[pos] == "!":
            if name == HOLE:
                raise fail("the hole cannot be marked", pos)
            marks.add(tuple(path))
            pos += 1
        if name == HOLE:
            if seen_hole:
                raise fail("a context has exactly one hole, found a second", name_at)
            seen_hole = True
        skip_ws()
        if pos < n and text[pos] == "(":
            if name == HOLE:
                raise fail("the hole takes no children", pos)
            frames.append((name, name_at, []))
            path.append(1)
            pos += 1
            continue
        node = Tree(name)
        check_rank(name, 0, name_at)

        # attach the finished node, closing frames as their ')' arrives
        while True:
            if not frames:
                skip_ws()
                if pos < n:
                    raise fail(f"trailing input {text[pos]!r}", pos)
                return node, frozenset(marks)
            frames[-1][2].append(node)
            skip_ws()
            if pos < n and text[pos] == ",":
                pos += 1
                path[-1] = len(frames[-1][2]) + 1
                break
            if pos < n and text[pos] == ")":
                pos += 1
                label, label_at, kids = frames.pop()
                path.pop()
                check_rank(label, len(kids), label_at)
                node = Tree(label, tuple(kids))
                continue
            raise fail("expected ',' or ')'", pos)


def infer_alphabet(*items: Tree | Context) -> RankedAlphabet:
    """Collect symbol ranks from usage; inconsistent arity is an error."""
    ranks: dict[str, int] = {}
    for item in items:
        t = item.shape if isinstance(item, Context) else item
        for node in _nodes(t):
            if node.label == HOLE:
                continue
            prev = ranks.get(node.label)
            if prev is None:
                ranks[node.label] = len(node.children)
            elif prev != len(node.children):
                raise ValueError(
                    f"symbol {node.label!r} used with ranks {prev} and "
                    f"{len(node.children)}"
                )
    return RankedAlphabet(ranks)


def merge_alphabets(*alphabets: RankedAlphabet) -> RankedAlphabet:
    """Union of alphabets; a symbol declared at two ranks is an error."""
    ranks: dict[str, int] = {}
    for alpha in alphabets:
        for name, rank in alpha.symbols.items():
            if ranks.setdefault(name, rank) != rank:
                raise ValueError(
                    f"symbol {name!r} declared with ranks {ranks[name]} and {rank}"
                )
    return RankedAlphabet(ranks)
