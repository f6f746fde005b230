"""Command-line front end.

Trees are passed inline or as @path file references (a bare ``@`` is the hole
context, never a file). Exit codes: 0 for accept / verified / WE_WIN, 1 for
reject / verification failure / ADVERSARY_SURVIVES, 2 for usage and
validation errors. All output is deterministic byte-for-byte.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .automata import (
    AutomatonError,
    Dta,
    accepts,
    annotate,
    parse_dta,
    run,
)
from .decompose import NotEnoughInteresting, decompose_k, g_sigma
from .game import (
    DEFAULT_MAX_N,
    GameConstraint,
    GameReport,
    builtin_oracle,
    dta_oracle,
    play,
)
from .pump import (
    MultiPumpWitness,
    NotAccepted,
    NotEnoughMarks,
    PumpWitness,
    TreeTooSmall,
    VerificationReport,
    ogden_decompose,
    ogden_decompose_multi,
    pump,
    verify_witness,
)
from .terms import (
    Context,
    Marking,
    ParseError,
    RankedAlphabet,
    Tree,
    check_marks,
    format_address,
    merge_alphabets,
    infer_alphabet,
    iterate,
    parse_address,
    parse_context,
    parse_tree,
    render,
    substitute,
)

_USAGE_ERRORS = (
    ParseError,
    AutomatonError,
    ValueError,
    OSError,
    NotAccepted,
    NotEnoughMarks,
    TreeTooSmall,
    NotEnoughInteresting,
)


def _read_source(arg: str) -> str:
    """Inline text, or the contents of @path; a bare '@' stays inline."""
    if arg.startswith("@") and len(arg) > 1:
        with open(arg[1:], "r", encoding="utf-8") as fh:
            return fh.read().strip()
    return arg


def _load_dta(path: str) -> Dta:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dta(fh.read())


def _load_tree(
    arg: str, alphabet: RankedAlphabet | None, marks_flag: str | None
) -> tuple[Tree, Marking]:
    t, marks = parse_tree(alphabet, _read_source(arg))
    if marks_flag is not None:
        extra = _parse_marks(marks_flag)
        check_marks(t, extra)
        marks = marks | extra
    return t, marks


def _load_context(arg: str, alphabet: RankedAlphabet | None) -> Context:
    c, _ = parse_context(alphabet, _read_source(arg))
    return c


def _parse_marks(flag: str) -> Marking:
    flag = flag.strip()
    if not flag:
        return frozenset()
    return frozenset(parse_address(part) for part in flag.split(","))


def _print_report(report: VerificationReport) -> None:
    for name, ok in report.checks:
        print(f"check {name}: {'ok' if ok else 'FAIL'}")
    print(f"verdict: {'pass' if report.passed else 'fail'}")


def _print_witness(w: PumpWitness | MultiPumpWitness) -> None:
    print(f"cprime: {w.cprime}")
    if isinstance(w, MultiPumpWitness):
        for i, c in enumerate(w.chain, 1):
            print(f"c{i}: {c}")
    else:
        print(f"c: {w.c}")
    print(f"tprime: {render(w.tprime)}")
    print(f"state: {w.q}")
    print(f"p_used: {w.p_used}")


def _print_game(report: GameReport, header: list[tuple[str, object]]) -> None:
    for key, value in header:
        print(f"{key}: {value}")
    print(f"decompositions: {len(report.verdicts)}")
    for i, v in enumerate(report.verdicts, 1):
        d = v.candidate
        lead = (
            f"d{i}: u={format_address(d.u)} v={format_address(d.v)} "
            f"c={d.c} tprime={render(d.tprime)}"
        )
        if v.refuted_at is not None:
            assert v.counterexample is not None
            print(
                f"{lead} -> refuted n={v.refuted_at} "
                f"counterexample={render(v.counterexample)}"
            )
        else:
            print(f"{lead} -> unrefuted up_to={v.up_to}")
    print(f"overall: {report.overall}")


def _cmd_member(args: argparse.Namespace) -> int:
    m = _load_dta(args.automaton)
    t, _ = _load_tree(args.tree, m.alphabet, None)
    if accepts(m, t):
        print("accept")
        return 0
    print("reject")
    return 1


def _cmd_run(args: argparse.Namespace) -> int:
    m = _load_dta(args.automaton)
    t, _ = _load_tree(args.tree, m.alphabet, None)
    ann = annotate(m, t)
    if ann is None:
        print("rejected")
        return 1
    for addr, q in ann.items():  # preorder, which is sorted address order
        print(f"{format_address(addr)} {q}")
    return 0


def _cmd_gsigma(args: argparse.Namespace) -> int:
    if args.max_rank < 1:
        raise ValueError("--max-rank must be at least 1")
    if args.k < 0:
        raise ValueError("--k must be nonnegative")
    print(g_sigma(args.max_rank, args.k))
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    t, marks = _load_tree(args.tree, None, args.marks)
    d = decompose_k(t, marks, args.k)
    print(f"cprime: {d.cprime}")
    for i, c in enumerate(d.chain, 1):
        print(f"c{i}: {c}")
    print(f"tprime: {render(d.tprime)}")
    print(f"cuts: {','.join(format_address(a) for a in d.cut_addresses)}")
    return 0


def _cmd_ogden(args: argparse.Namespace) -> int:
    m = _load_dta(args.automaton)
    t, marks = _load_tree(args.tree, m.alphabet, args.marks)
    if args.m is None:
        w: PumpWitness | MultiPumpWitness = ogden_decompose(m, t, marks)
    elif args.m < 1:
        raise ValueError("--m must be at least 1")
    else:
        w = ogden_decompose_multi(m, t, marks, args.m)
    report = verify_witness(m, w, args.max_n)  # fails on a bad --max-n, before output
    _print_witness(w)
    _print_report(report)
    return 0 if report.passed else 1


def _cmd_pump(args: argparse.Namespace) -> int:
    cprime = _load_context(args.cprime, None)
    c = _load_context(args.c, None)
    tprime, _ = parse_tree(None, _read_source(args.tprime))
    merge_alphabets(infer_alphabet(cprime), infer_alphabet(c), infer_alphabet(tprime))
    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    *_, inner = iterate(c, tprime, args.n)
    print(render(substitute(cprime, inner)))
    return 0


def _cmd_game(args: argparse.Namespace) -> int:
    if args.oracle in ("L1", "L2"):
        oracle = builtin_oracle(args.oracle)
    elif args.oracle.startswith("dta:"):
        oracle = dta_oracle(_load_dta(args.oracle[4:]))
    else:
        raise ValueError(f"unknown oracle {args.oracle!r}")
    t, marks = _load_tree(args.tree, oracle.alphabet, args.marks)
    if args.mode == "classic":
        constraint = GameConstraint.classic(args.p)
    else:
        constraint = GameConstraint.ogden(args.p, marks)
    report = play(oracle, t, constraint, args.max_n)
    header = [
        ("oracle", args.oracle),
        ("mode", args.mode),
        ("p", args.p),
        ("max_n", args.max_n),
    ]
    _print_game(report, header)
    return 0 if report.we_win else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="treepump",
        description="Tree automata and pumping decompositions for their languages.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("member", help="test whether an automaton accepts a tree")
    p.add_argument("automaton", help="automaton file")
    p.add_argument("tree", help="tree, inline or @path")
    p.set_defaults(fn=_cmd_member)

    p = sub.add_parser("run", help="print the state at every node")
    p.add_argument("automaton")
    p.add_argument("tree")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("gsigma", help="the mark budget for k cuts at a max rank")
    p.add_argument("--max-rank", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_gsigma)

    p = sub.add_parser("decompose", help="cut a marked tree at k+1 points")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--marks", help="comma-separated addresses, root is 'e'")
    p.add_argument("tree")
    p.set_defaults(fn=_cmd_decompose)

    for name, what in [
        ("ogden", "extract and verify a pumping witness"),
        ("ogden-multi", "extract a multi-loop witness"),
    ]:
        p = sub.add_parser(name, help=what)
        if name == "ogden-multi":
            p.add_argument("--m", type=int, required=True, help="number of loops")
        p.add_argument("--marks")
        p.add_argument("--max-n", type=int, default=5)
        p.add_argument("automaton")
        p.add_argument("tree")
        p.set_defaults(fn=_cmd_ogden, m=None)

    p = sub.add_parser("pump", help="print cprime . c^n . tprime")
    p.add_argument("cprime", help="context, inline or @path ('@' is the hole)")
    p.add_argument("c")
    p.add_argument("tprime")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_pump)

    p = sub.add_parser("game", help="play the pumping game against an oracle")
    p.add_argument("--oracle", required=True, help="L1, L2, or dta:<file>")
    p.add_argument("--mode", required=True, choices=["classic", "ogden"])
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    p.add_argument("--marks")
    p.add_argument("tree")
    p.set_defaults(fn=_cmd_game)

    return top


def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep its code
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
