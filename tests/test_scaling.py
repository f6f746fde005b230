"""Size-regression tests: pumped and parsed chains stay near-linear.

Pumping produces deep unary chains, and every operation on the pumped tree
has to stay near-linear in its size. The bounds are wall-clock and loose
(about ten times what a quick machine needs), so they catch a return to
quadratic or cubic behaviour rather than noise.
"""

from __future__ import annotations

import subprocess
import sys
import time

from treepump import (
    Context,
    GameConstraint,
    PumpWitness,
    Tree,
    dta_oracle,
    interesting_nodes,
    ogden_decompose,
    parse_context,
    parse_dta,
    parse_tree,
    play,
    pump,
    render,
    run,
    size,
    split,
)

from helpers import ALPHA_GA, L3_TEXT, PARITY_TEXT


def C(text):
    return parse_context(None, text)[0]


def test_pump_64000_fold_with_render():
    w = PumpWitness(C("g(@)"), C("g(@)"), Tree("a"), "q", 1)
    t0 = time.perf_counter()
    text = render(pump(w, 64000))
    elapsed = time.perf_counter() - t0
    assert text == "g(" * 64001 + "a" + ")" * 64001
    assert elapsed < 5.0


def test_cli_pump_4000_fold():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "treepump", "pump", "g(@)", "g(@)", "a", "--n", "4000"],
        capture_output=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0
    assert proc.stdout == b"g(" * 4001 + b"a" + b")" * 4001 + b"\n"
    assert elapsed < 5.0


def test_parse_and_render_depth_10k_chain():
    text = "g(" * 10000 + "a" + ")" * 10000
    t0 = time.perf_counter()
    t, marks = parse_tree(ALPHA_GA, text)
    out = render(t)
    elapsed = time.perf_counter() - t0
    assert out == text
    assert marks == frozenset()
    assert size(t) == 10001
    assert elapsed < 2.0


def marked_chain(depth: int):
    """g^depth(a) with four marks spread down the spine."""
    t = Tree("a")
    for _ in range(depth):
        t = Tree("g", (t,))
    marks = frozenset((1,) * (depth * i // 5) for i in range(1, 5))
    return t, marks


def test_ogden_on_a_50000_deep_chain_with_four_marks():
    t, marks = marked_chain(50000)
    m = parse_dta(L3_TEXT)
    t0 = time.perf_counter()
    w = ogden_decompose(m, t, marks)
    elapsed = time.perf_counter() - t0
    assert w.c.hole_address == (1,) * 10000
    assert elapsed < 5.0


def test_interesting_nodes_on_a_50000_deep_chain_with_four_marks():
    t, marks = marked_chain(50000)
    t0 = time.perf_counter()
    found = interesting_nodes(t, marks)
    elapsed = time.perf_counter() - t0
    assert found == marks
    assert elapsed < 2.0


def test_run_on_a_100000_deep_chain():
    t, _ = marked_chain(100000)
    m = parse_dta(L3_TEXT)
    t0 = time.perf_counter()
    q = run(m, t)
    elapsed = time.perf_counter() - t0
    assert q == "q"
    assert elapsed < 2.0


def test_split_size_and_context_on_a_50000_deep_chain():
    # each call reads the cached size and hole counts; none walks the chain
    t, _ = marked_chain(50000)
    t0 = time.perf_counter()
    for _ in range(200):
        cprime, c, tprime = split(t, (1,) * 10, (1,) * 20)
        n = size(t)
        holed = Context(Tree("f", (Tree("@"), t)))
    elapsed = time.perf_counter() - t0
    assert (cprime.hole_address, c.hole_address) == ((1,) * 10, (1,) * 10)
    assert (n, size(tprime)) == (50001, 50001 - 20)
    assert holed.hole_address == (1,)
    assert elapsed < 1.0


def test_play_with_an_automaton_on_two_40_deep_chains():
    # 1722 candidates; each is decided on states, and only the refuting
    # pumped tree is built, not the whole tree at every n
    arm = Tree("a")
    for _ in range(40):
        arm = Tree("g", (arm,))
    t = Tree("f", (arm, arm))
    m = parse_dta(PARITY_TEXT)
    t0 = time.perf_counter()
    report = play(dta_oracle(m), t, GameConstraint.classic(size(t)), 5)
    elapsed = time.perf_counter() - t0
    assert len(report.verdicts) == 1722
    assert report.overall == "ADVERSARY_SURVIVES"
    assert elapsed < 1.5
