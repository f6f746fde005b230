from __future__ import annotations

import subprocess
import sys

import pytest

from treepump.cli import cli_main

from helpers import L3_TEXT, PARITY_TEXT

PARTIAL_TEXT = """\
alphabet: f/2 g/1 a/0
states: q
final: q
trans: a -> q
trans: f(q,q) -> q
"""


@pytest.fixture
def partial_file(tmp_path):
    path = tmp_path / "partial.dta"
    path.write_text(PARTIAL_TEXT, encoding="utf-8")
    return str(path)


def invoke(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- member / run


def test_member_accept(capsys, l3_file):
    code, out, err = invoke(capsys, "member", l3_file, "g(g(a))")
    assert (code, out, err) == (0, "accept\n", "")


def test_member_reject(capsys, parity_file):
    code, out, err = invoke(capsys, "member", parity_file, "a")
    assert (code, out, err) == (1, "reject\n", "")


def test_member_tree_from_file(capsys, l3_file, tmp_path):
    tree_path = tmp_path / "t.tree"
    tree_path.write_text("g(g(g(a)))\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "member", l3_file, f"@{tree_path}")
    assert (code, out) == (0, "accept\n")


def test_member_bad_syntax(capsys, l3_file):
    code, out, err = invoke(capsys, "member", l3_file, "g(g(a")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_member_missing_file(capsys):
    code, _, err = invoke(capsys, "member", "/no/such/file.dta", "a")
    assert code == 2
    assert err.startswith("error:")


def test_run_annotation(capsys, parity_file):
    code, out, _ = invoke(capsys, "run", parity_file, "f(a,a)")
    assert code == 0
    assert out == "e q0\n1 q1\n2 q1\n"


def test_run_order_is_sorted(capsys, parity_file):
    code, out, _ = invoke(capsys, "run", parity_file, "f(a,g(a))")
    assert code == 0
    assert out == "e q0\n1 q1\n2 q1\n2.1 q1\n"


def test_run_stuck(capsys, partial_file):
    code, out, _ = invoke(capsys, "run", partial_file, "g(a)")
    assert (code, out) == (1, "rejected\n")


# ------------------------------------------------------------------ gsigma


def test_gsigma(capsys):
    code, out, _ = invoke(capsys, "gsigma", "--max-rank", "2", "--k", "2")
    assert (code, out) == (0, "7\n")


def test_gsigma_rejects_rank_zero(capsys):
    code, _, err = invoke(capsys, "gsigma", "--max-rank", "0", "--k", "2")
    assert code == 2
    assert err.startswith("error:")


# --------------------------------------------------------------- decompose


def test_decompose_inline_marks(capsys):
    code, out, _ = invoke(capsys, "decompose", "--k", "1", "g!(g!(a!))")
    assert code == 0
    assert out == "cprime: g(@)\nc1: g(@)\ntprime: a\ncuts: 1,1.1\n"


def test_decompose_marks_flag(capsys):
    code, out, _ = invoke(
        capsys, "decompose", "--k", "1", "--marks", "e,1,1.1", "g(g(a))"
    )
    assert code == 0
    assert out == "cprime: g(@)\nc1: g(@)\ntprime: a\ncuts: 1,1.1\n"


def test_decompose_flag_and_inline_marks_union(capsys):
    code, out, _ = invoke(
        capsys, "decompose", "--k", "1", "--marks", "e,1", "g(g(a!))"
    )
    assert code == 0
    assert out.endswith("cuts: 1,1.1\n")


def test_decompose_not_enough(capsys):
    code, _, err = invoke(capsys, "decompose", "--k", "1", "f(a,a)")
    assert code == 2
    assert err.startswith("error:")


def test_decompose_bad_mark_address(capsys):
    code, _, err = invoke(
        capsys, "decompose", "--k", "1", "--marks", "9", "g(g(a))"
    )
    assert code == 2
    assert err.startswith("error:")


# ------------------------------------------------------------------- ogden


def test_ogden_witness_and_report(capsys, l3_file):
    code, out, _ = invoke(capsys, "ogden", l3_file, "g!(g!(g!(a!)))")
    assert code == 0
    assert out == (
        "cprime: g(g(@))\n"
        "c: g(@)\n"
        "tprime: a\n"
        "state: q\n"
        "p_used: 2\n"
        "check tprime_state: ok\n"
        "check loop_state: ok\n"
        "check cprime_final: ok\n"
        "check pump_n0: ok\n"
        "check pump_n1: ok\n"
        "check pump_n2: ok\n"
        "check pump_n3: ok\n"
        "check pump_n4: ok\n"
        "check pump_n5: ok\n"
        "verdict: pass\n"
    )


def test_ogden_max_n(capsys, l3_file):
    code, out, _ = invoke(
        capsys, "ogden", "--max-n", "0", l3_file, "g!(g!(g!(a!)))"
    )
    assert code == 0
    assert "pump_n0" in out and "pump_n1" not in out


def test_ogden_too_few_marks(capsys, l3_file):
    code, _, err = invoke(capsys, "ogden", l3_file, "g(g(g(a!)))")
    assert code == 2
    assert err.startswith("error:")


def test_ogden_rejected_tree(capsys, parity_file):
    code, _, err = invoke(capsys, "ogden", parity_file, "a!")
    assert code == 2
    assert err.startswith("error:")


def test_ogden_multi(capsys, l3_file):
    code, out, _ = invoke(
        capsys,
        "ogden-multi",
        "--m",
        "2",
        "--max-n",
        "2",
        l3_file,
        "g!(g!(g!(g!(g!(a!)))))",
    )
    assert code == 0
    assert out == (
        "cprime: g(g(g(@)))\n"
        "c1: g(@)\n"
        "c2: g(@)\n"
        "tprime: a\n"
        "state: q\n"
        "p_used: 3\n"
        "check tprime_state: ok\n"
        "check loop_state_c1: ok\n"
        "check loop_state_c2: ok\n"
        "check cprime_final: ok\n"
        "check pump_n0: ok\n"
        "check pump_n1: ok\n"
        "check pump_n2: ok\n"
        "verdict: pass\n"
    )


# -------------------------------------------------------------------- pump


def test_pump(capsys):
    code, out, _ = invoke(capsys, "pump", "g(@)", "g(@)", "a", "--n", "3")
    assert (code, out) == (0, "g(g(g(g(a))))\n")


def test_pump_bare_hole_is_not_a_file(capsys):
    code, out, _ = invoke(capsys, "pump", "@", "g(@)", "a", "--n", "0")
    assert (code, out) == (0, "a\n")


def test_pump_context_from_file(capsys, tmp_path):
    path = tmp_path / "c.ctx"
    path.write_text("f(@,a)\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "pump", f"@{path}", "g(@)", "a", "--n", "1")
    assert (code, out) == (0, "f(g(a),a)\n")


def test_pump_arity_conflict(capsys):
    code, _, err = invoke(capsys, "pump", "f(@)", "f(@,a)", "a", "--n", "1")
    assert code == 2
    assert err.startswith("error:")


# -------------------------------------------------------------------- game


def test_game_l1_we_win(capsys):
    code, out, _ = invoke(
        capsys,
        "game",
        "--oracle",
        "L1",
        "--mode",
        "classic",
        "--p",
        "3",
        "--max-n",
        "2",
        "f(g(g(g(a))),g(g(g(a))))",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "oracle: L1"
    assert lines[1] == "mode: classic"
    assert lines[2] == "p: 3"
    assert lines[3] == "max_n: 2"
    assert lines[4].startswith("decompositions: ")
    assert lines[-1] == "overall: WE_WIN"
    assert all(" -> refuted n=" in ln for ln in lines[5:-1])


def test_game_l2_survives(capsys):
    code, out, _ = invoke(
        capsys,
        "game",
        "--oracle",
        "L2",
        "--mode",
        "classic",
        "--p",
        "3",
        "f(g(h(h(a))),g(h(h(a))))",
    )
    assert code == 1
    assert out.endswith("overall: ADVERSARY_SURVIVES\n")
    assert any(
        "c=h(@) tprime=a -> unrefuted up_to=5" in ln
        for ln in out.splitlines()
    )


def test_game_ogden_mode(capsys):
    code, out, _ = invoke(
        capsys,
        "game",
        "--oracle",
        "L2",
        "--mode",
        "ogden",
        "--p",
        "2",
        "--max-n",
        "2",
        "--marks",
        "1,2",
        "f(g(h(a)),g(h(a)))",
    )
    assert code == 0
    assert out.endswith("overall: WE_WIN\n")


def test_game_dta_oracle(capsys, l3_file):
    code, out, _ = invoke(
        capsys,
        "game",
        "--oracle",
        f"dta:{l3_file}",
        "--mode",
        "classic",
        "--p",
        "2",
        "g(g(g(a)))",
    )
    assert code == 1  # a regular language always survives its own pumping
    assert out.endswith("overall: ADVERSARY_SURVIVES\n")


def test_game_unknown_oracle(capsys):
    code, _, err = invoke(
        capsys,
        "game",
        "--oracle",
        "L9",
        "--mode",
        "classic",
        "--p",
        "2",
        "f(g(a),g(a))",
    )
    assert code == 2
    assert err.startswith("error:")


def test_game_wrong_alphabet_tree(capsys):
    code, _, err = invoke(
        capsys,
        "game",
        "--oracle",
        "L1",
        "--mode",
        "classic",
        "--p",
        "2",
        "f(h(a),h(a))",
    )
    assert code == 2
    assert err.startswith("error:")


def test_game_non_member_is_usage_error(capsys):
    code, out, err = invoke(
        capsys,
        "game",
        "--oracle",
        "L1",
        "--mode",
        "classic",
        "--p",
        "5",
        "f(g(a),g(g(a)))",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "not in the language" in err


# ----------------------------------------------------------------- argparse


def test_no_arguments_is_usage_error(capsys):
    assert cli_main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "member" in out and "game" in out


def test_bad_flag_value(capsys):
    assert cli_main(["gsigma", "--max-rank", "x", "--k", "2"]) == 2
    capsys.readouterr()


def test_ogden_takes_no_loop_count(capsys, l3_file):
    assert cli_main(["ogden", "--m", "2", l3_file, "g!(g!(a!))"]) == 2
    assert capsys.readouterr().out == ""


def test_ogden_multi_needs_a_loop_count(capsys, l3_file):
    assert cli_main(["ogden-multi", l3_file, "g!(g!(a!))"]) == 2
    assert capsys.readouterr().out == ""


# --help output captured from the build with one parser per ogden command;
# argparse wraps at $COLUMNS, so the tests pin it to 80
HELP_GOLDENS = [
    (
        [],
        'usage: treepump [-h]\n'
        '                {member,run,gsigma,decompose,ogden,ogden-multi,pump,game} ...\n'
        '\n'
        'Tree automata and pumping decompositions for their languages.\n'
        '\n'
        'positional arguments:\n'
        '  {member,run,gsigma,decompose,ogden,ogden-multi,pump,game}\n'
        '    member              test whether an automaton accepts a tree\n'
        '    run                 print the state at every node\n'
        '    gsigma              the mark budget for k cuts at a max rank\n'
        '    decompose           cut a marked tree at k+1 points\n'
        '    ogden               extract and verify a pumping witness\n'
        '    ogden-multi         extract a multi-loop witness\n'
        '    pump                print cprime . c^n . tprime\n'
        '    game                play the pumping game against an oracle\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n',
    ),
    (
        ["ogden"],
        'usage: treepump ogden [-h] [--marks MARKS] [--max-n MAX_N] automaton tree\n'
        '\n'
        'positional arguments:\n'
        '  automaton\n'
        '  tree\n'
        '\n'
        'options:\n'
        '  -h, --help     show this help message and exit\n'
        '  --marks MARKS\n'
        '  --max-n MAX_N\n',
    ),
    (
        ["ogden-multi"],
        'usage: treepump ogden-multi [-h] --m M [--marks MARKS] [--max-n MAX_N]\n'
        '                            automaton tree\n'
        '\n'
        'positional arguments:\n'
        '  automaton\n'
        '  tree\n'
        '\n'
        'options:\n'
        '  -h, --help     show this help message and exit\n'
        '  --m M          number of loops\n'
        '  --marks MARKS\n'
        '  --max-n MAX_N\n',
    ),
]


@pytest.mark.parametrize(
    "argv,expected", HELP_GOLDENS, ids=["treepump", "ogden", "ogden-multi"]
)
def test_help_golden(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")
    assert invoke(capsys, *argv, "--help") == (0, expected, "")


# ---------------------------------------------------------------- goldens


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "treepump", *args],
        capture_output=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "args,code",
    [
        (("gsigma", "--max-rank", "2", "--k", "2"), 0),
        (
            (
                "game",
                "--oracle",
                "L1",
                "--mode",
                "classic",
                "--p",
                "3",
                "--max-n",
                "2",
                "f(g(g(g(a))),g(g(g(a))))",
            ),
            0,
        ),
    ],
)
def test_golden_runs_twice_identical(args, code):
    first = run_cli(args)
    second = run_cli(args)
    assert first == second
    assert first[0] == code
    assert first[2] == b""


def test_golden_member(l3_file):
    args = ("member", l3_file, "g(g(a))")
    first = run_cli(args)
    second = run_cli(args)
    assert first == second
    assert first == (0, b"accept\n", b"")


# ------------------------------------------------------- byte-exact goldens

UPTO2_TEXT = """\
# unary chains with one or two g above the leaf
alphabet: g/1 a/0
states: z o t
final: o t
trans: a -> z
trans: g(z) -> o
trans: g(o) -> t
"""

# stdout captured from the outside-in implementation of power/compose;
# the known-hole rewrite must reproduce it byte for byte
GOLDENS = [
    (
        'ogden_parity',
        ['ogden', 'parity.dta', 'f!(g!(a!),g!(g!(g!(a!))))'],
        0,
        'cprime: f(g(a),g(@))\n'
        'c: g(@)\n'
        'tprime: g(a)\n'
        'state: q1\n'
        'p_used: 7\n'
        'check tprime_state: ok\n'
        'check loop_state: ok\n'
        'check cprime_final: ok\n'
        'check pump_n0: ok\n'
        'check pump_n1: ok\n'
        'check pump_n2: ok\n'
        'check pump_n3: ok\n'
        'check pump_n4: ok\n'
        'check pump_n5: ok\n'
        'verdict: pass\n',
    ),
    (
        'ogden_marks_flag',
        ['ogden', '--marks', '1,1.1,1.1.1,2,2.1,2.1.1,2.1.2', 'parity.dta', 'f(g(g(f(a,a))),g(f(a,g(a))))'],
        0,
        'cprime: f(@,g(f(a,g(a))))\n'
        'c: g(@)\n'
        'tprime: g(f(a,a))\n'
        'state: q0\n'
        'p_used: 7\n'
        'check tprime_state: ok\n'
        'check loop_state: ok\n'
        'check cprime_final: ok\n'
        'check pump_n0: ok\n'
        'check pump_n1: ok\n'
        'check pump_n2: ok\n'
        'check pump_n3: ok\n'
        'check pump_n4: ok\n'
        'check pump_n5: ok\n'
        'verdict: pass\n',
    ),
    (
        'ogden_multi',
        ['ogden-multi', '--m', '2', 'l3.dta', 'g!(g(g!(g(g!(g(g!(a)))))))'],
        0,
        'cprime: g(g(@))\n'
        'c1: g(g(@))\n'
        'c2: g(g(@))\n'
        'tprime: g(a)\n'
        'state: q\n'
        'p_used: 3\n'
        'check tprime_state: ok\n'
        'check loop_state_c1: ok\n'
        'check loop_state_c2: ok\n'
        'check cprime_final: ok\n'
        'check pump_n0: ok\n'
        'check pump_n1: ok\n'
        'check pump_n2: ok\n'
        'check pump_n3: ok\n'
        'check pump_n4: ok\n'
        'check pump_n5: ok\n'
        'verdict: pass\n',
    ),
    (
        'ogden_multi_parity',
        ['ogden-multi', '--m', '2', '--max-n', '3', 'parity.dta', 'g!(f!(a!,f!(a!,f!(a!,f!(a!,f!(a!,f!(a!,f!(a!,f!(a!,f!(a!,f!(a!,f!(a!,f!(a!,f!(a!,f!(a!,f!(a!,a!))))))))))))))))'],
        0,
        'cprime: g(f(a,f(a,f(a,f(a,f(a,f(a,f(a,f(a,f(a,f(a,f(a,@))))))))))))\n'
        'c1: f(a,f(a,@))\n'
        'c2: f(a,f(@,a))\n'
        'tprime: a\n'
        'state: q1\n'
        'p_used: 31\n'
        'check tprime_state: ok\n'
        'check loop_state_c1: ok\n'
        'check loop_state_c2: ok\n'
        'check cprime_final: ok\n'
        'check pump_n0: ok\n'
        'check pump_n1: ok\n'
        'check pump_n2: ok\n'
        'check pump_n3: ok\n'
        'verdict: pass\n',
    ),
    (
        'pump',
        ['pump', 'f(@,a)', 'g(f(a,@))', 'g(a)', '--n', '7'],
        0,
        'f(g(f(a,g(f(a,g(f(a,g(f(a,g(f(a,g(f(a,g(f(a,g(a))))))))))))))),a)\n',
    ),
    (
        'decompose',
        ['decompose', '--k', '2', 'f!(g!(a!),f!(g!(a!),g(a!)))'],
        0,
        'cprime: f(g(a),@)\n'
        'c1: f(@,g(a))\n'
        'c2: g(@)\n'
        'tprime: a\n'
        'cuts: 2,2.1,2.1.1\n',
    ),
    (
        'game_l1_classic',
        ['game', '--oracle', 'L1', '--mode', 'classic', '--p', '4', '--max-n', '3', 'f(g(g(a)),g(g(a)))'],
        0,
        'oracle: L1\n'
        'mode: classic\n'
        'p: 4\n'
        'max_n: 3\n'
        'decompositions: 6\n'
        'd1: u=1 v=1.1 c=g(@) tprime=g(a) -> refuted n=0 counterexample=f(g(a),g(g(a)))\n'
        'd2: u=1 v=1.1.1 c=g(g(@)) tprime=a -> refuted n=0 counterexample=f(a,g(g(a)))\n'
        'd3: u=1.1 v=1.1.1 c=g(@) tprime=a -> refuted n=0 counterexample=f(g(a),g(g(a)))\n'
        'd4: u=2 v=2.1 c=g(@) tprime=g(a) -> refuted n=0 counterexample=f(g(g(a)),g(a))\n'
        'd5: u=2 v=2.1.1 c=g(g(@)) tprime=a -> refuted n=0 counterexample=f(g(g(a)),a)\n'
        'd6: u=2.1 v=2.1.1 c=g(@) tprime=a -> refuted n=0 counterexample=f(g(g(a)),g(a))\n'
        'overall: WE_WIN\n',
    ),
    (
        'game_l2_ogden',
        ['game', '--oracle', 'L2', '--mode', 'ogden', '--p', '3', '--max-n', '3', '--marks', '1,2,1.1', 'f(g(h(a)),g(h(h(a))))'],
        0,
        'oracle: L2\n'
        'mode: ogden\n'
        'p: 3\n'
        'max_n: 3\n'
        'decompositions: 13\n'
        'd1: u=e v=1 c=f(@,g(h(h(a)))) tprime=g(h(a)) -> refuted n=0 counterexample=g(h(a))\n'
        'd2: u=e v=1.1 c=f(g(@),g(h(h(a)))) tprime=h(a) -> refuted n=0 counterexample=h(a)\n'
        'd3: u=e v=1.1.1 c=f(g(h(@)),g(h(h(a)))) tprime=a -> refuted n=0 counterexample=a\n'
        'd4: u=e v=2 c=f(g(h(a)),@) tprime=g(h(h(a))) -> refuted n=0 counterexample=g(h(h(a)))\n'
        'd5: u=e v=2.1 c=f(g(h(a)),g(@)) tprime=h(h(a)) -> refuted n=0 counterexample=h(h(a))\n'
        'd6: u=e v=2.1.1 c=f(g(h(a)),g(h(@))) tprime=h(a) -> refuted n=0 counterexample=h(a)\n'
        'd7: u=e v=2.1.1.1 c=f(g(h(a)),g(h(h(@)))) tprime=a -> refuted n=0 counterexample=a\n'
        'd8: u=1 v=1.1 c=g(@) tprime=h(a) -> refuted n=0 counterexample=f(h(a),g(h(h(a))))\n'
        'd9: u=1 v=1.1.1 c=g(h(@)) tprime=a -> refuted n=0 counterexample=f(a,g(h(h(a))))\n'
        'd10: u=1.1 v=1.1.1 c=h(@) tprime=a -> refuted n=0 counterexample=f(g(a),g(h(h(a))))\n'
        'd11: u=2 v=2.1 c=g(@) tprime=h(h(a)) -> refuted n=0 counterexample=f(g(h(a)),h(h(a)))\n'
        'd12: u=2 v=2.1.1 c=g(h(@)) tprime=h(a) -> refuted n=0 counterexample=f(g(h(a)),h(a))\n'
        'd13: u=2 v=2.1.1.1 c=g(h(h(@))) tprime=a -> refuted n=0 counterexample=f(g(h(a)),a)\n'
        'overall: WE_WIN\n',
    ),
    (
        'game_dta_classic',
        ['game', '--oracle', 'dta:upto2.dta', '--mode', 'classic', '--p', '3', '--max-n', '3', 'g(g(a))'],
        0,
        'oracle: dta:upto2.dta\n'
        'mode: classic\n'
        'p: 3\n'
        'max_n: 3\n'
        'decompositions: 3\n'
        'd1: u=e v=1 c=g(@) tprime=g(a) -> refuted n=2 counterexample=g(g(g(a)))\n'
        'd2: u=e v=1.1 c=g(g(@)) tprime=a -> refuted n=0 counterexample=a\n'
        'd3: u=1 v=1.1 c=g(@) tprime=a -> refuted n=2 counterexample=g(g(g(a)))\n'
        'overall: WE_WIN\n',
    ),
    (
        'game_dta_ogden',
        ['game', '--oracle', 'dta:upto2.dta', '--mode', 'ogden', '--p', '2', '--max-n', '4', '--marks', '1', 'g(g(a))'],
        0,
        'oracle: dta:upto2.dta\n'
        'mode: ogden\n'
        'p: 2\n'
        'max_n: 4\n'
        'decompositions: 2\n'
        'd1: u=e v=1.1 c=g(g(@)) tprime=a -> refuted n=0 counterexample=a\n'
        'd2: u=1 v=1.1 c=g(@) tprime=a -> refuted n=2 counterexample=g(g(g(a)))\n'
        'overall: WE_WIN\n',
    ),
    (
        'game_dta_survives',
        ['game', '--oracle', 'dta:l3.dta', '--mode', 'ogden', '--p', '2', '--max-n', '2', '--marks', '1,1.1', 'g(g(g(a)))'],
        1,
        'oracle: dta:l3.dta\n'
        'mode: ogden\n'
        'p: 2\n'
        'max_n: 2\n'
        'decompositions: 5\n'
        'd1: u=e v=1.1 c=g(g(@)) tprime=g(a) -> unrefuted up_to=2\n'
        'd2: u=e v=1.1.1 c=g(g(g(@))) tprime=a -> unrefuted up_to=2\n'
        'd3: u=1 v=1.1 c=g(@) tprime=g(a) -> unrefuted up_to=2\n'
        'd4: u=1 v=1.1.1 c=g(g(@)) tprime=a -> unrefuted up_to=2\n'
        'd5: u=1.1 v=1.1.1 c=g(@) tprime=a -> unrefuted up_to=2\n'
        'overall: ADVERSARY_SURVIVES\n',
    ),
]


@pytest.mark.parametrize(
    "argv,code,expected", [g[1:] for g in GOLDENS], ids=[g[0] for g in GOLDENS]
)
def test_golden_stdout(capsys, tmp_path, monkeypatch, argv, code, expected):
    for name, text in [
        ("l3.dta", L3_TEXT),
        ("parity.dta", PARITY_TEXT),
        ("upto2.dta", UPTO2_TEXT),
    ]:
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # game prints the oracle argument verbatim
    assert invoke(capsys, *argv) == (code, expected, "")


# ------------------------------------------------------- stderr goldens

CHAINS_HEAD = "alphabet: g/1 a/0\nstates: q\nfinal: q\ntrans: a -> q\n"
DUP_TEXT = "alphabet: a/0\nstates: q\nfinal: q\n" + "trans: a -> q\n" * 2

# validation errors, captured from the build with one rank check per caller;
# each exits 2 with nothing on stdout
STDERR_GOLDENS = [
    (
        "unknown_symbol",
        ["member", "l3.dta", "h(a)"],
        "error: unknown symbol 'h' (at position 1)\n",
    ),
    (
        "rank_mismatch",
        ["member", "l3.dta", "g(a,a)"],
        "error: rank mismatch: 'g' takes 1 children, got 2 (at position 1)\n",
    ),
    (
        "rank_mismatch_leaf",
        ["run", "parity.dta", "f(a,g(g))"],
        "error: rank mismatch: 'g' takes 1 children, got 0 (at position 7)\n",
    ),
    (
        "rank_mismatch_ogden",
        ["ogden", "parity.dta", "f!(g!(a!),g(a,a))"],
        "error: rank mismatch: 'g' takes 1 children, got 2 (at position 11)\n",
    ),
    (
        "game_unknown_symbol",
        ["game", "--oracle", "L1", "--mode", "classic", "--p", "2", "f(h(a),h(a))"],
        "error: unknown symbol 'h' (at position 3)\n",
    ),
    (
        "game_rank_mismatch",
        ["game", "--oracle", "L1", "--mode", "classic", "--p", "2", "f(g(a))"],
        "error: rank mismatch: 'f' takes 2 children, got 1 (at position 1)\n",
    ),
    (
        "inferred_rank_conflict",
        ["decompose", "--k", "1", "f(a!,f(a!))"],
        "error: symbol 'f' used with 2 children, previously 1 (at position 1)\n",
    ),
    (
        "dta_undeclared_symbol",
        ["member", "undeclared_symbol.dta", "a"],
        "error: line 5: undeclared symbol 'h'\n",
    ),
    (
        "dta_bad_arity",
        ["member", "bad_arity.dta", "a"],
        "error: line 5: 'g' has rank 1, got 0 argument states\n",
    ),
    (
        "dta_undeclared_state",
        ["member", "undeclared_state.dta", "a"],
        "error: line 5: undeclared state 'r'\n",
    ),
    (
        "dta_undeclared_final",
        ["member", "bad_final.dta", "a"],
        "error: line 3: final state 'r' is undeclared\n",
    ),
    (
        "dta_duplicate_transition",
        ["member", "dup_trans.dta", "a"],
        "error: line 5: duplicate transition for a()\n",
    ),
    (
        "pump_conflict_across_inputs",
        ["pump", "f(@)", "f(@,a)", "a", "--n", "1"],
        "error: symbol 'f' declared with ranks 1 and 2\n",
    ),
    (
        "pump_conflict_with_tprime",
        ["pump", "f(@,g(a))", "g(@)", "g(a,a)", "--n", "1"],
        "error: symbol 'g' declared with ranks 1 and 2\n",
    ),
    (
        "hole_in_a_tree",
        ["member", "l3.dta", "g(@)"],
        "error: hole '@' is only allowed in a context (at position 3)\n",
    ),
    (
        "two_holes",
        ["pump", "f(@,@)", "g(@)", "a", "--n", "1"],
        "error: a context has exactly one hole, found a second (at position 5)\n",
    ),
    (
        "no_hole",
        ["pump", "g(a)", "g(@)", "a", "--n", "1"],
        "error: context contains no hole '@' (at position 5)\n",
    ),
    # flags are named as typed, not as the library parameters behind them
    (
        "gsigma_negative_k",
        ["gsigma", "--max-rank", "2", "--k", "-1"],
        "error: --k must be nonnegative\n",
    ),
    (
        "gsigma_zero_max_rank",
        ["gsigma", "--max-rank", "0", "--k", "1"],
        "error: --max-rank must be at least 1\n",
    ),
    (
        "ogden_multi_zero_m",
        ["ogden-multi", "--m", "0", "l3.dta", "g!(g!(a!))"],
        "error: --m must be at least 1\n",
    ),
    (
        "pump_negative_n",
        ["pump", "@", "g(@)", "a", "--n", "-1"],
        "error: --n must be nonnegative\n",
    ),
]


@pytest.fixture
def error_files(tmp_path, monkeypatch):
    for name, text in [
        ("l3.dta", L3_TEXT),
        ("parity.dta", PARITY_TEXT),
        ("undeclared_symbol.dta", CHAINS_HEAD + "trans: h(q) -> q\n"),
        ("bad_arity.dta", CHAINS_HEAD + "trans: g -> q\n"),
        ("undeclared_state.dta", CHAINS_HEAD + "trans: g(q) -> r\n"),
        ("bad_final.dta", "alphabet: a/0\nstates: q\nfinal: r\ntrans: a -> q\n"),
        ("dup_trans.dta", DUP_TEXT),
    ]:
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize(
    "argv,expected",
    [g[1:] for g in STDERR_GOLDENS],
    ids=[g[0] for g in STDERR_GOLDENS],
)
def test_golden_stderr(capsys, error_files, argv, expected):
    assert invoke(capsys, *argv) == (2, "", expected)


# a usage error prints nothing on stdout, whatever stage finds it
@pytest.mark.parametrize(
    "argv",
    [
        # no legal decomposition at p=1, so refute never sees the budget
        ["game", "--oracle", "L1", "--mode", "classic", "--p", "1",
         "--max-n", "-1", "f(g(a),g(a))"],
        ["ogden", "--max-n", "-1", "l3.dta", "g!(g!(a!))"],
        ["ogden-multi", "--m", "1", "--max-n", "-1", "l3.dta", "g!(g!(a!))"],
    ],
    ids=["game", "ogden", "ogden-multi"],
)
def test_negative_max_n_is_a_usage_error(capsys, error_files, argv):
    assert invoke(capsys, *argv) == (2, "", "error: max_n must be nonnegative\n")


@pytest.mark.parametrize(
    "marks,part",
    [("١,١.١", "١"), ("²", "²")],
    ids=["arabic-indic", "superscript"],
)
def test_marks_take_ascii_digits_only(capsys, marks, part):
    code, out, err = invoke(
        capsys, "decompose", "--k", "1", "--marks", marks, "g(g(a))"
    )
    assert (code, out) == (2, "")
    assert err == f"error: bad address component {part!r} in {part!r}\n"
