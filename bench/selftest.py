"""Self-test of the benchmark: its checks reject wrong outputs, its inputs
are fixed by the seed, and its metric names match BENCHMARK.json.

    python3 bench/selftest.py
"""

from __future__ import annotations

import itertools
import json
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402


class Node:
    """A stand-in for a program tree: only label and children."""

    def __init__(self, label, children=()):
        self.label = label
        self.children = tuple(children)


def to_nodes(tree: tuple) -> Node:
    label, kids = tree
    return Node(label, [to_nodes(k) for k in kids])


def all_trees(max_size: int) -> list[tuple]:
    """Every tree over f/2 g/1 a/0 up to max_size, by brute force."""
    by_size = {1: [("a", ())]}
    for s in range(2, max_size + 1):
        trees = [("g", (t,)) for t in by_size[s - 1]]
        for i in range(1, s - 1):
            trees += [("f", (l, r)) for l, r in itertools.product(by_size[i], by_size[s - 1 - i])]
        by_size[s] = trees
    return [t for s in range(1, max_size + 1) for t in by_size[s]]


class ChainCheck(unittest.TestCase):
    task = {"kind": "chain", "tree": "g!(g!(g!(a!)))", "multi": False, "n": 3}
    ogden = (0, "cprime: g(g(@))\nc: g(@)\ntprime: a\nstate: q\np_used: 2\nverdict: pass\n")
    pumped = "g(g(g(g(g(a)))))\n"

    def test_accepts_correct_output(self):
        self.assertEqual(refs.check_chains(self.task, self.ogden, (0, self.pumped)), [])

    def test_rejects_a_dropped_symbol(self):
        for i, ch in enumerate(self.pumped.rstrip()):
            if ch.isalpha():
                broken = self.pumped[:i] + self.pumped[i + 1 :]
                self.assertNotEqual(refs.check_chains(self.task, self.ogden, (0, broken)), [])

    def test_rejects_a_dropped_node(self):
        broken = "g(g(g(g(a))))\n"
        self.assertNotEqual(refs.check_chains(self.task, self.ogden, (0, broken)), [])

    def test_rejects_pieces_that_do_not_rejoin(self):
        ogden = (0, self.ogden[1].replace("cprime: g(g(@))", "cprime: g(@)"))
        self.assertNotEqual(refs.check_chains(self.task, ogden, None), [])

    def test_rejects_a_failed_verdict(self):
        ogden = (0, self.ogden[1].replace("verdict: pass", "verdict: fail"))
        self.assertNotEqual(refs.check_chains(self.task, ogden, None), [])

    def test_membership_is_arithmetic(self):
        self.assertTrue(refs.chain_member("parity", "f(a,g(a))"))
        self.assertFalse(refs.chain_member("parity", "f(a,f(a,a))"))
        self.assertTrue(refs.chain_member("mod3", "g(g(g(a)))"))
        self.assertFalse(refs.chain_member("mod3", "g(g(a))"))


class GameCheck(unittest.TestCase):
    def output(self, task, overall):
        mode = task["argv"][task["argv"].index("--mode") + 1]
        p = int(task["argv"][task["argv"].index("--p") + 1])
        k = refs.legal_pairs(task["tree"], mode, p)
        lines = [f"decompositions: {k}"]
        lines += [f"d{i}: u=e v=1 c=f(@,a) tprime=a -> refuted n=0 counterexample=a" for i in range(1, k + 1)]
        lines.append(f"overall: {overall}")
        return "\n".join(lines) + "\n"

    def test_flipped_overall_is_rejected(self):
        flip = {"WE_WIN": "ADVERSARY_SURVIVES", "ADVERSARY_SURVIVES": "WE_WIN"}
        for task in inputs.block("game", 3, 0):
            rc = 0 if task["expect"] == "WE_WIN" else 1
            self.assertEqual(refs.check_game(task, rc, self.output(task, task["expect"])), [])
            self.assertNotEqual(refs.check_game(task, rc, self.output(task, flip[task["expect"]])), [])

    def test_brute_force_count(self):
        # f(g(a),g(a)): pairs (e,1) (e,1.1) (e,2) (e,2.1) (1,1.1) (2,2.1)
        self.assertEqual(refs.legal_pairs("f(g(a),g(a))", "classic", 5), 6)
        self.assertEqual(refs.legal_pairs("f(g(a),g(a))", "classic", 2), 2)
        # ogden with p=1 and the two g marked: only the cuts inside one branch
        self.assertEqual(refs.legal_pairs("f(g!(a),g!(a))", "ogden", 1), 2)


class EnumCheck(unittest.TestCase):
    def test_missing_tree_is_rejected(self):
        import random

        rng = random.Random(5)
        bound = 7
        universe = all_trees(bound)
        for _ in range(20):
            m = inputs.random_machine(rng, rng.choice((1, 2, 3)))
            language = [t for t in universe if refs.evaluate(m.trans, t) in m.final]
            if len(language) < 2:
                continue
            language.sort(key=lambda t: (refs.size(t), refs.render(t)))
            counts = refs.count_by_state_size(m.trans, bound)
            task = {"machine": m, "per_size": refs.accepted_per_size(counts, m.final, bound)}
            nodes = [to_nodes(t) for t in language]
            self.assertEqual(refs.check_language(task, nodes), [])
            for i in (0, len(nodes) // 2, len(nodes) - 1):
                self.assertNotEqual(refs.check_language(task, nodes[:i] + nodes[i + 1 :]), [])
            self.assertNotEqual(refs.check_language(task, nodes + nodes[-1:]), [])


class Inputs(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload in run.WORKLOADS:
            a = inputs.serialize(inputs.block(workload, 11, 0))
            self.assertEqual(a, inputs.serialize(inputs.block(workload, 11, 0)))
            self.assertNotEqual(a, inputs.serialize(inputs.block(workload, 12, 0)))
            self.assertNotEqual(a, inputs.serialize(inputs.block(workload, 11, 1)))

    def test_chain_trees_are_members(self):
        for task in inputs.block("chains", 4, 0):
            text = task["tree"].replace("!", "")
            self.assertTrue(refs.text_shape_ok(text, refs.CHAIN_RANKS))
            self.assertTrue(refs.chain_member(task["kind"], text))


class Metrics(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        self.assertEqual(e2e, list(run.END_TO_END))
        layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        self.assertEqual(layers, run.per_layer_names())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


class Smoke(unittest.TestCase):
    """The first tasks of every workload pass their checks on this checkout."""

    def test_first_tasks_pass(self):
        if not (run.SRC / "treepump").is_dir():
            self.skipTest("no treepump sources")
        api = run.entry_points(run.load_program())
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            workdir = Path(tmp)
            for workload in run.WORKLOADS:
                first = inputs.block(workload, 2, 0)
                run.write_automata(workload, first, workdir)
                tasks = sorted(first, key=lambda t: t.get("depth", 0))
                for task in tasks[:3]:
                    _, problems, _ = run.run_task(api, workload, task, workdir)
                    self.assertEqual(problems, [], (workload, task.get("kind")))


if __name__ == "__main__":
    unittest.main()
