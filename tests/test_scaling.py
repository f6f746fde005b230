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
    PumpWitness,
    Tree,
    parse_context,
    parse_tree,
    pump,
    render,
    size,
)

from helpers import ALPHA_GA


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
