"""treepump benchmark: three workloads, reference-checked, optionally traced.

    python3 bench/run.py --workload chains --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1            # every workload, untraced and traced

One process, one thread, one client in a closed loop: the next task starts
when the previous one returns. A run measures whole blocks of tasks (see
inputs.py) until about --seconds of task time have passed and at least
MIN_TASKS tasks ran. Reference checks run between tasks, outside the timing.
The last line of standard output is one JSON object: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import inputs  # noqa: E402
import refs  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("chains", "game", "enum")
MIN_TASKS = 100
SETUP_REPEATS = 9

# ------------------------------------------------------------------ program


def load_program() -> SimpleNamespace:
    """Import treepump from this checkout's src/, and only from there."""
    if not (SRC / "treepump" / "__init__.py").is_file():
        raise SystemExit(f"error: no treepump sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import treepump

    if Path(treepump.__file__).resolve().parent != SRC / "treepump":
        raise SystemExit(f"error: imported treepump from {treepump.__file__}, not {SRC}")
    # by module path: the package attribute `pump` is the function, not the module
    return SimpleNamespace(
        **{name: importlib.import_module(f"treepump.{name}") for name in spans.MODULES}
    )


def entry_points(lib: SimpleNamespace) -> SimpleNamespace:
    """The functions the tasks call directly, untraced."""
    return SimpleNamespace(
        cli_main=lib.cli.cli_main,
        parse_dta=lib.automata.parse_dta,
        parse_tree=lib.terms.parse_tree,
        enumerate_language=lib.automata.enumerate_language,
        ogden_decompose=lib.pump.ogden_decompose,
        ogden_decompose_multi=lib.pump.ogden_decompose_multi,
        verify_witness=lib.pump.verify_witness,
    )


_SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import treepump, treepump.cli
for path in sys.argv[3:]:
    with open(path, encoding="utf-8") as fh:
        treepump.parse_dta(fh.read())
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import calib
print(repr(elapsed), repr(calib.calibrate(5)))
"""


def measure_setup(automaton_paths: list[Path]) -> tuple[float, float]:
    """Median time for a fresh interpreter to import treepump and parse the
    workload's automata, scaled and raw. Interpreter start-up is outside the
    clock; each interpreter calibrates itself after it stops the clock."""
    argv = [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC), str(BENCH), *map(str, automaton_paths)]
    scaled, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        if i:  # the first import also compiles the bytecode cache
            elapsed, cal = map(float, proc.stdout.split())
            scaled.append(calib.scale(elapsed, cal))
            raw.append(elapsed)
    return statistics.median(scaled), statistics.median(raw)


# ------------------------------------------------------------------ tasks


class Clock:
    """Accumulates the time spent inside program calls of one task."""

    def __init__(self) -> None:
        self.total = 0.0

    def __enter__(self):
        self._t0 = perf_counter()

    def __exit__(self, *exc):
        self.total += perf_counter() - self._t0


def call_cli(api, clock: Clock, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), clock:
        rc = api.cli_main(argv)
    return rc, out.getvalue()


def run_chains(api, task: dict, clock: Clock, workdir: Path) -> dict:
    ogden = call_cli(api, clock, [*task["argv"], str(workdir / task["file"]), task["tree"]])
    result = {"ogden": ogden, "pump": None}
    if ogden[0] == 0:
        cprime, c, tprime = refs.pump_inputs(ogden[1], task["multi"])
        before = clock.total
        result["pump"] = call_cli(api, clock, ["pump", cprime, c, tprime, "--n", str(task["n"])])
        result["pump_s"] = clock.total - before
    result["stdout"] = ogden[1] + (result["pump"][1] if result["pump"] else "")
    return result


def check_chains(task: dict, result: dict) -> list[str]:
    return refs.check_chains(task, result["ogden"], result["pump"])


def run_game(api, task: dict, clock: Clock, workdir: Path) -> dict:
    argv = [a.replace("dta:", f"dta:{workdir}{os.sep}") if a.startswith("dta:") else a for a in task["argv"]]
    rc, out = call_cli(api, clock, argv)
    return {"rc": rc, "stdout": out}


def check_game(task: dict, result: dict) -> list[str]:
    return refs.check_game(task, result["rc"], result["stdout"])


def run_enum(api, task: dict, clock: Clock, workdir: Path) -> dict:
    with clock:
        m = api.parse_dta(task["automaton"])
        language = api.enumerate_language(m, task["bound"])
    p = task["p"]
    big = sum(task["per_size"][p - 1 :])
    witnesses = []
    for pick in task["picks"]:
        obj = language[len(language) - big + pick["offset"]]
        source = refs.from_program(obj)
        addrs = refs.addresses(source)
        if pick["all_marked"]:
            marks = frozenset(addrs)
        else:
            r = random.Random(pick["mark_seed"])
            marks = frozenset(r.sample(addrs, r.randrange(p, len(addrs) + 1)))
        with clock:
            w = api.ogden_decompose(m, obj, marks)
            report = api.verify_witness(m, w)
        witnesses.append((source, marks, w, report, False))
    source, marks = refs.parse(task["multi_tree"])
    with clock:
        tree, program_marks = api.parse_tree(m.alphabet, task["multi_tree"])
        w = api.ogden_decompose_multi(m, tree, program_marks, 2)
        report = api.verify_witness(m, w)
    witnesses.append((source, marks, w, report, True))
    return {"language": language, "witnesses": witnesses}


def check_enum(task: dict, result: dict) -> list[str]:
    machine = task["machine"]
    problems = refs.check_language(task, result["language"])
    for source, marks, w, report, multi in result["witnesses"]:
        problems += refs.check_witness(machine.trans, machine.final, source, marks, w, report, multi)
    return problems


def enum_stdout(result: dict) -> str:
    """A canonical text of an enum task's outputs, for the output digest."""
    memo: dict = {}
    lines = [refs.render(refs.from_program(t, memo)) for t in result["language"]]
    for _, _, w, _, multi in result["witnesses"]:
        loops = w.chain if multi else (w.c,)
        pieces = [w.cprime.shape, *(c.shape for c in loops), w.tprime]
        lines.append(" ".join(refs.render(refs.from_program(x)) for x in pieces) + f" {w.q}")
    return "\n".join(lines) + "\n"


RUNNERS = {"chains": run_chains, "game": run_game, "enum": run_enum}
CHECKS = {"chains": check_chains, "game": check_game, "enum": check_enum}


def write_automata(workload: str, first: list[dict], workdir: Path) -> list[Path]:
    """The automaton files the CLI reads, and the ones setup parses (for
    enum, those of the first block)."""
    paths = []
    for name, machine in inputs.CLI_MACHINES.items():
        path = workdir / name
        path.write_text(machine.text(), encoding="utf-8")
        if workload == "chains" or (workload == "game" and name == "parity.dta"):
            paths.append(path)
    if workload == "enum":
        for i, task in enumerate(first):
            path = workdir / f"enum{i}.dta"
            path.write_text(task["automaton"], encoding="utf-8")
            paths.append(path)
    return paths


# ------------------------------------------------------------------ loop


def run_task(api, workload, task, workdir, rec=None, index=-1):
    """Run and check one task; returns (seconds, problems, result)."""
    clock = Clock()
    if rec is not None:
        rec.current_task = index
    try:
        result = RUNNERS[workload](api, task, clock, workdir)
    except Exception as exc:  # a task that raises is a failed task
        return clock.total, [f"raised {type(exc).__name__}: {exc}"], None
    finally:
        if rec is not None:
            rec.current_task = -1
    try:
        problems = CHECKS[workload](task, result)
    except Exception as exc:  # malformed output can break a check
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return clock.total, problems, result


def measure(api, workload, seed, first, seconds, workdir, rec=None):
    """Run whole blocks, `first` being block 0, until about `seconds` of task
    time and MIN_TASKS tasks; the digest covers block 0's outputs.

    Stops before a block when it would overshoot by more than half of the
    last block.
    """
    records = []
    digest = hashlib.sha256()
    elapsed = 0.0
    index = 0
    while True:
        tasks = first if index == 0 else inputs.block(workload, seed, index)
        block_time = 0.0
        for task in tasks:
            cal = calib.calibrate()
            dt, problems, result = run_task(api, workload, task, workdir, rec, len(records))
            block_time += dt
            if index == 0 and result is not None:
                text = enum_stdout(result) if workload == "enum" else result["stdout"]
                digest.update(text.encode())
            rec_row = {k: task[k] for k in ("kind", "depth", "n") if k in task}
            rec_row.update(seconds=dt, cal=cal, problems=problems)
            if result is not None:
                rec_row["stdout_bytes"] = len(result.get("stdout", "").encode())
                if "pump_s" in result:
                    rec_row["pump_s"] = result["pump_s"]
            records.append(rec_row)
            del result
        elapsed += block_time
        index += 1
        if len(records) >= MIN_TASKS and elapsed + block_time / 2 > seconds:
            break
    return records, elapsed, digest.hexdigest()


# ------------------------------------------------------------------ metrics

END_TO_END = (
    ("task_p50_ms", "ms"),
    ("task_p90_ms", "ms"),
    ("tasks_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

SELF_TIMES = (
    "terms.parse_tree", "terms.render", "terms.context_at", "terms.compose",
    "terms.power", "terms.split", "terms.substitute",
    "automata.run", "automata.annotate", "automata.enumerate_language",
    "decompose.interesting_nodes", "decompose.max_interesting_path", "decompose.decompose_k",
    "pump.ogden_decompose", "pump.ogden_decompose_multi", "pump.pump", "pump.verify_witness",
    "game.enumerate_decompositions", "game.refute", "cli.cli_main",
)
CALLS = ("terms.compose", "terms.split", "game.oracle", "automata.run")
DEPTH_SLOPES = (
    "terms.parse_tree", "terms.render", "automata.run", "automata.annotate",
    "decompose.interesting_nodes", "pump.ogden_decompose",
)


def per_layer_names() -> list[tuple[str, str, str]]:
    """(metric, unit, better) for every per-layer metric, in output order."""
    out = [(f"{n}.self_s", "s", "lower") for n in SELF_TIMES]
    out += [(f"{n}.calls", "count", "lower") for n in CALLS]
    out += [
        ("terms.parse_tree.nodes_per_s", "1/s", "higher"),
        ("terms.render.nodes_per_s", "1/s", "higher"),
        ("automata.enumerate_language.trees", "count", "lower"),
        ("game.enumerate_decompositions.candidates", "count", "lower"),
        ("game.refuted_ratio", "ratio", "higher"),
        ("cli.stdout_bytes", "bytes", "lower"),
    ]
    out += [(f"{n}.slope", "exponent", "lower") for n in DEPTH_SLOPES]
    out += [("pump.pump.slope", "exponent", "lower"), ("trace.overhead_ratio", "ratio", "higher")]
    return out


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x); 0 with fewer than two x."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def series(records, per_task, name, key, field=1):
    """Per value of records[i][key], the median per-task time of one span name
    (field 1 inclusive, 2 self), over the tasks that made such a span."""
    groups: dict[int, list[float]] = {}
    for i, r in enumerate(records):
        row = per_task.get(i, {}).get(name)
        if row is not None and key in r:
            groups.setdefault(r[key], []).append(row[field])
    return {k: statistics.median(v) for k, v in sorted(groups.items())}


def layer_metrics(records, rec: spans.Recorder, overhead: float) -> tuple[dict, dict]:
    per_task = rec.per_task()
    for i, rows in per_task.items():
        for row in rows.values():
            row[1] = calib.scale(row[1], records[i]["cal"])
            row[2] = calib.scale(row[2], records[i]["cal"])
    n = len(records)
    totals: dict[str, list] = {}
    for rows in per_task.values():
        for name, (calls, incl, own) in rows.items():
            t = totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += calls
            t[1] += incl
            t[2] += own
    counts: dict[str, int] = {}
    for (_, key), value in rec.counts.items():
        counts[key] = counts.get(key, 0) + value
    zero = [0, 0.0, 0.0]
    m = {}
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = totals.get(name, zero)[2] / n
    for name in CALLS:
        m[f"{name}.calls"] = totals.get(name, zero)[0] / n
    for name in ("terms.parse_tree", "terms.render"):
        busy = totals.get(name, zero)[2]
        m[f"{name}.nodes_per_s"] = counts.get(f"{name}.nodes", 0) / busy if busy else 0.0
    m["automata.enumerate_language.trees"] = counts.get("automata.enumerate_language.trees", 0) / n
    candidates = counts.get("game.enumerate_decompositions.candidates", 0)
    m["game.enumerate_decompositions.candidates"] = candidates / n
    m["game.refuted_ratio"] = counts.get("game.refute.refuted", 0) / candidates if candidates else 0.0
    m["cli.stdout_bytes"] = sum(r.get("stdout_bytes", 0) for r in records) / n
    by_depth = {name: series(records, per_task, name, "depth") for name in DEPTH_SLOPES}
    for name, pts in by_depth.items():
        m[f"{name}.slope"] = loglog_slope(list(pts.items()))
    pump_by_n: dict[int, list[float]] = {}
    for r in records:
        if "pump_s" in r:
            pump_by_n.setdefault(r["n"], []).append(calib.scale(r["pump_s"], r["cal"]))
    pump_series = {k: statistics.median(v) for k, v in sorted(pump_by_n.items())}
    m["pump.pump.slope"] = loglog_slope(list(pump_series.items()))
    m["trace.overhead_ratio"] = overhead
    detail = {
        "per_depth_inclusive_s": {name: {str(k): v for k, v in pts.items()} for name, pts in by_depth.items()},
        "per_depth_self_s": {
            name: {str(k): v for k, v in series(records, per_task, name, "depth", 2).items()}
            for name in sorted(totals)
        },
        "pump_step_by_n_s": {str(k): v for k, v in pump_series.items()},
        "totals": {name: {"calls": c, "inclusive_s": i, "self_s": s} for name, (c, i, s) in sorted(totals.items())},
        "counts": counts,
    }
    return m, detail


def timings(latencies: list[float]) -> dict:
    q = statistics.quantiles(latencies, n=10)
    return {"task_p50_ms": q[4] * 1e3, "task_p90_ms": q[8] * 1e3, "tasks_per_s": len(latencies) / sum(latencies)}


def end_to_end(records, setup_s) -> dict:
    """Task timings at the reference speed (see calib.py), set-up time, memory."""
    metrics = timings([calib.scale(r["seconds"], r["cal"]) for r in records])
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


# ------------------------------------------------------------------ main


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> int:
    wall0 = perf_counter()
    lib = load_program()
    api = entry_points(lib)
    OUT.mkdir(exist_ok=True)
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        first = inputs.block(workload, seed, 0)
        setup_s, setup_raw = measure_setup(write_automata(workload, first, workdir))
        # warm-up: one task, untimed and unchecked
        RUNNERS[workload](api, first[0], Clock(), workdir)
        overhead = None
        if trace:
            rec = spans.Recorder()
            wrappers, undo = spans.install(rec, lib)
            traced_api = SimpleNamespace(**{k: wrappers[k] for k in vars(api)})
            try:
                records, elapsed, digest = measure(
                    traced_api, workload, seed, first, seconds, workdir, rec
                )
            finally:
                spans.uninstall(undo)
            # overhead on block 1, warm both times: traced above, untraced now
            second = inputs.block(workload, seed, 1)
            plain = 0.0
            for task in second:
                cal = calib.calibrate()
                plain += calib.scale(run_task(api, workload, task, workdir)[0], cal)
            traced = records[len(first) : len(first) + len(second)]
            overhead = plain / sum(calib.scale(r["seconds"], r["cal"]) for r in traced)
        else:
            records, elapsed, digest = measure(api, workload, seed, first, seconds, workdir)

    failed = [r for r in records if r["problems"]]
    host_speed = statistics.median(calib.REFERENCE_S / r["cal"] for r in records)
    summary = dict(info, tasks=len(records), failed=len(failed), measured_s=elapsed, host_speed=host_speed)
    summary["outputs_sha256"] = digest
    summary["outputs_sha256_tasks"] = len(first)
    summary["failures"] = [r["problems"] for r in failed[:20]]
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        metrics, detail = layer_metrics(records, rec, overhead)
        units = {name: unit for name, unit, _ in per_layer_names()}
        summary["layers"] = detail
        rec.write(OUT / f"{stem}-spans.json.gz")
    else:
        metrics = end_to_end(records, setup_s)
        units = dict(END_TO_END)
        summary["raw"] = dict(timings([r["seconds"] for r in records]), setup_s=setup_raw)
    summary["metrics"] = metrics
    summary["fail_ratio"] = len(failed) / len(records)
    summary["wall_s"] = perf_counter() - wall0
    (OUT / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")

    print(f"# {workload}: seed {seed}, trace {int(trace)}, python {info['python']}, nproc {info['nproc']}")
    print(
        f"# tasks {len(records)} in {elapsed:.2f} s of task time, "
        f"{summary['wall_s']:.1f} s wall (closed loop, 1 client)"
    )
    print(f"# timings at the reference speed; this host ran at {host_speed:.3f} of it")
    for name, value in metrics.items():
        notes = [f"n={len(records)}"] if name.startswith("task_p") else []
        if name in summary.get("raw", {}):
            notes.append(f"raw {summary['raw'][name]:.6g}")
        note = f"  ({'; '.join(notes)})" if notes else ""
        print(f"{name:44s} {value:14.6g} {units[name]}{note}")
    print(f"{'fail_ratio':44s} {summary['fail_ratio']:14.6g} ratio  ({len(failed)}/{len(records)})")
    print(f"outputs_sha256 {digest} (block 0, {len(first)} tasks)")
    for problems in summary["failures"][:5]:
        print("failure:", "; ".join(problems))
    if trace and workload == "chains":
        print_depth_table(summary["layers"])
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def print_depth_table(detail: dict) -> None:
    """Median inclusive ms per task at each chain depth, per layer."""
    rows = detail["per_depth_inclusive_s"]
    depths = sorted({int(d) for pts in rows.values() for d in pts})
    print("# per-depth median inclusive ms per task")
    print(f"{'layer':32s}" + "".join(f"{d:>10d}" for d in depths))
    for name, pts in rows.items():
        print(f"{name:32s}" + "".join(f"{pts.get(str(d), 0) * 1e3:10.3f}" for d in depths))
    pump = detail["pump_step_by_n_s"]
    print(f"{'pump step by N':32s}" + "".join(f"{n:>6s}:{v * 1e3:.1f}" for n, v in pump.items()))


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced, then traced; one table of results."""
    table = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return proc.returncode
            sys.stdout.write(proc.stdout)
            table[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("# end to end (untraced)")
    print(f"{'metric':16s}" + "".join(f"{w:>16s}" for w in WORKLOADS))
    for name, unit in END_TO_END:
        cells = "".join(f"{table[w, 0]['metrics'][name]['value']:16.6g}" for w in WORKLOADS)
        print(f"{name:16s}{cells}  {unit}")
    cells = "".join(f"{table[w, 0]['failed'] / table[w, 0]['attempted']:16.6g}" for w in WORKLOADS)
    print(f"{'fail_ratio':16s}{cells}  ratio")
    cells = "".join(f"{table[w, 1]['metrics']['trace.overhead_ratio']['value']:16.6g}" for w in WORKLOADS)
    print(f"{'trace overhead':16s}{cells}  traced/untraced tasks_per_s")
    return 0 if all(r["correct"] for r in table.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="default: all, untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "treepump" / "__init__.py").is_file():
        print(f"error: no treepump sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
