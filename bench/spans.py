"""An in-memory span recorder wrapped around treepump's public functions.

Tracing is installed from outside: each listed function is replaced, in the
namespace of every treepump module that calls it, by a wrapper that records
one span per call (name, parent span, task, start, end) and its self time,
the duration minus the time its child spans cover. Nothing under ``src/``
changes.

Two kinds of call are left inside their caller's self time, because those
functions are built from one another: calls within ``terms`` (``split`` is
two ``context_at``, ``power`` is repeated ``compose``) and within
``automata`` (``accepts`` is ``run``; ``enumerate_language`` re-runs the
automaton on every tree it returns). ``terms.render`` is wrapped in ``terms``
too, because ``str()`` of a tree or context reaches it only from outside.
``automata.run`` names one span for the three evaluator entry points ``run``,
``accepts`` and ``run_context``.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import defaultdict
from time import perf_counter

MODULES = ("terms", "automata", "decompose", "pump", "game", "cli")

# (defining module, function, span name)
WRAPPED = (
    ("terms", "parse_tree", "terms.parse_tree"),
    ("terms", "parse_context", "terms.parse_context"),
    ("terms", "render", "terms.render"),
    ("terms", "context_at", "terms.context_at"),
    ("terms", "compose", "terms.compose"),
    ("terms", "power", "terms.power"),
    ("terms", "split", "terms.split"),
    ("terms", "substitute", "terms.substitute"),
    ("automata", "parse_dta", "automata.parse_dta"),
    ("automata", "run", "automata.run"),
    ("automata", "accepts", "automata.run"),
    ("automata", "run_context", "automata.run"),
    ("automata", "annotate", "automata.annotate"),
    ("automata", "enumerate_language", "automata.enumerate_language"),
    ("decompose", "interesting_nodes", "decompose.interesting_nodes"),
    ("decompose", "max_interesting_path", "decompose.max_interesting_path"),
    ("decompose", "decompose_k", "decompose.decompose_k"),
    ("pump", "ogden_decompose", "pump.ogden_decompose"),
    ("pump", "ogden_decompose_multi", "pump.ogden_decompose_multi"),
    ("pump", "pump", "pump.pump"),
    ("pump", "verify_witness", "pump.verify_witness"),
    ("game", "enumerate_decompositions", "game.enumerate_decompositions"),
    ("game", "refute", "game.refute"),
    ("cli", "cli_main", "cli.cli_main"),
)
_OWN_MODULE_KEPT = {("terms", "render")}


def _nodes_in(text: str) -> int:
    """Nodes of a tree in concrete syntax: the root, then one per '(' or ','."""
    return text.count("(") + text.count(",") + 1


class Recorder:
    """Spans of the current run, as columns; counters per task and name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self._open: list[list] = []  # [span index, time covered by children]
        self.current_task = -1
        self.counts: dict[tuple[int, str], int] = defaultdict(int)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, value: int = 1) -> None:
        self.counts[self.current_task, key] += value

    def span(self, fn, name: str, after=None):
        nid = self.intern(name)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._open[-1][0] if self._open else -1)
            self.task.append(self.current_task)
            self.end.append(0.0)
            self.self_time.append(0.0)
            frame = [idx, 0.0]
            self._open.append(frame)
            t0 = perf_counter()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._open.pop()
                self.end[idx] = t1
                self.self_time[idx] = (t1 - t0) - frame[1]
                if self._open:
                    self._open[-1][1] += t1 - t0
            if after is not None:
                after(args, result)
                # the bookkeeping is no work of the caller's
                if self._open:
                    self._open[-1][1] += perf_counter() - t1
            return result

        return traced

    # ---------------------------------------------------------- per task

    def per_task(self) -> dict[int, dict[str, list]]:
        """task -> name -> [calls, inclusive seconds, self seconds]."""
        out: dict[int, dict[str, list]] = defaultdict(dict)
        names = self.names
        for nid, task, t0, t1, own in zip(self.name, self.task, self.start, self.end, self.self_time):
            row = out[task].setdefault(names[nid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += own
        return out

    def write(self, path) -> None:
        """All spans, column-wise, as gzipped JSON."""
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "task": self.task.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "self": self.self_time.tolist(),
            "counts": [[t, k, v] for (t, k), v in sorted(self.counts.items())],
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)


def install(rec: Recorder, lib) -> tuple[dict, list]:
    """Wrap every listed function where treepump calls it; return the wrappers
    the benchmark itself calls, by function name, and an undo list."""
    mods = {name: getattr(lib, name) for name in MODULES}

    def after_for(fname):
        if fname == "parse_tree":
            return lambda args, res: rec.count("terms.parse_tree.nodes", _nodes_in(args[1]))
        if fname == "render":
            return lambda args, res: rec.count("terms.render.nodes", _nodes_in(res))
        if fname == "enumerate_decompositions":
            return lambda args, res: rec.count("game.enumerate_decompositions.candidates", len(res))
        if fname == "refute":
            return lambda args, res: rec.count("game.refute.refuted", res is not None)
        if fname == "enumerate_language":
            return lambda args, res: rec.count("automata.enumerate_language.trees", len(res))
        return None

    undo = []
    wrappers = {}
    for home, fname, span_name in WRAPPED:
        orig = getattr(mods[home], fname)
        wrapper = rec.span(orig, span_name, after_for(fname))
        wrappers[fname] = wrapper
        for mname, mod in mods.items():
            if getattr(mod, fname, None) is not orig:
                continue
            if mname == home and home in ("terms", "automata") and (home, fname) not in _OWN_MODULE_KEPT:
                continue
            undo.append((mod, fname, orig))
            setattr(mod, fname, wrapper)

    # oracle membership, as the cli obtains oracles
    cli, game = mods["cli"], mods["game"]
    for fname in ("builtin_oracle", "dta_oracle"):
        make = getattr(cli, fname)

        def traced_oracle(*args, _make=make, **kwargs):
            o = _make(*args, **kwargs)
            return game.LanguageOracle(o.name, o.alphabet, rec.span(o.membership, "game.oracle"))

        undo.append((cli, fname, make))
        setattr(cli, fname, traced_oracle)
    return wrappers, undo


def uninstall(undo) -> None:
    for mod, fname, orig in reversed(undo):
        setattr(mod, fname, orig)
