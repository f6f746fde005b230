from __future__ import annotations

import random

import pytest

from treepump import (
    MultiPumpWitness,
    NotAccepted,
    NotEnoughMarks,
    PumpWitness,
    TreeTooSmall,
    Context,
    accepts,
    addresses,
    enumerate_language,
    ogden_decompose,
    ogden_decompose_multi,
    parse_context,
    parse_dta,
    parse_tree,
    pump,
    pump_multi,
    pumping_constant,
    pumping_threshold,
    render,
    size,
    standard_decompose,
    verify_witness,
)

from helpers import (
    accepted_count,
    random_dta,
    sample_accepted,
    state_size_counts,
)


def T(text):
    return parse_tree(None, text)


def C(text):
    return parse_context(None, text)[0]


def all_marked(t):
    return frozenset(addresses(t))


# --------------------------------------------------------------- l3 witness


def test_l3_witness_values(l3):
    t, _ = T("g(g(g(a)))")
    w = ogden_decompose(l3, t, all_marked(t))
    assert w.cprime == C("g(g(@))")
    assert w.c == C("g(@)")
    assert render(w.tprime) == "a"
    assert w.q == "q"
    assert w.p_used == 2
    assert pump(w, 1) == t


def test_l3_pump_series(l3):
    t, _ = T("g(g(g(a)))")
    w = ogden_decompose(l3, t, all_marked(t))
    assert render(pump(w, 0)) == "g(g(a))"
    assert render(pump(w, 3)) == "g(g(g(g(g(a)))))"
    for n in range(6):
        assert accepts(l3, pump(w, n))


def test_l3_witness_verifies(l3):
    t, _ = T("g(g(g(a)))")
    w = ogden_decompose(l3, t, all_marked(t))
    report = verify_witness(l3, w)
    assert report.passed
    assert report.failures() == []
    names = [name for name, _ in report.checks]
    assert names[:3] == ["tprime_state", "loop_state", "cprime_final"]
    assert names[3:] == [
        "pump_n0", "pump_n1", "pump_n2", "pump_n3", "pump_n4", "pump_n5"
    ]


# ----------------------------------------------------------- preconditions


def test_rejected_tree_refused(parity):
    with pytest.raises(NotAccepted):
        ogden_decompose(parity, T("a")[0], frozenset({()}))


def test_too_few_marks_refused(l3):
    t, _ = T("g(g(g(a)))")
    with pytest.raises(NotEnoughMarks):
        ogden_decompose(l3, t, frozenset({(1, 1, 1)}))


def test_witness_loop_must_be_proper():
    with pytest.raises(ValueError):
        PumpWitness(
            cprime=C("g(@)"),
            c=Context.identity(),
            tprime=T("a")[0],
            q="q",
            p_used=2,
        )
    with pytest.raises(ValueError):
        MultiPumpWitness(
            cprime=C("g(@)"),
            chain=(C("g(@)"), Context.identity()),
            tprime=T("a")[0],
            q="q",
            p_used=3,
        )


def test_pump_rejects_negative(l3):
    t, _ = T("g(g(g(a)))")
    w = ogden_decompose(l3, t, all_marked(t))
    with pytest.raises(ValueError):
        pump(w, -1)


# ------------------------------------------------------------------ parity


def test_parity_witness_verifies(parity):
    t, _ = T("f(g(a),g(g(g(a))))")
    assert size(t) == 7 == pumping_constant(parity)
    w = ogden_decompose(parity, t, all_marked(t))
    assert w.q == "q1"
    assert verify_witness(parity, w).passed
    # pumping the loop never changes the number of a-leaves
    for n in range(5):
        assert accepts(parity, pump(w, n))


def test_tampered_witness_fails_by_name(parity):
    t, _ = T("f(g(a),g(g(g(a))))")
    w = ogden_decompose(parity, t, all_marked(t))
    bad = PumpWitness(
        cprime=w.cprime, c=C("f(@,a)"), tprime=w.tprime, q=w.q, p_used=w.p_used
    )
    report = verify_witness(parity, bad)
    assert not report.passed
    assert "loop_state" in report.failures()


def test_tampered_final_fails_by_name(parity):
    # the loop state q1 is not final, so a bare g-chain above it cannot be
    t, _ = T("f(g(a),g(g(g(a))))")
    w = ogden_decompose(parity, t, all_marked(t))
    bad = PumpWitness(
        cprime=C("g(@)"), c=w.c, tprime=w.tprime, q=w.q, p_used=w.p_used
    )
    report = verify_witness(parity, bad)
    assert not report.passed
    assert "cprime_final" in report.failures()


# ---------------------------------------------------------------- standard


def test_standard_small_chain(l3):
    t, _ = T("g(a)")
    w = standard_decompose(l3, t)
    assert w.cprime == Context.identity()
    assert w.c == C("g(@)")
    assert render(w.tprime) == "a"
    assert render(pump(w, 2)) == "g(g(a))"


def test_standard_requires_size(l3):
    with pytest.raises(TreeTooSmall):
        standard_decompose(l3, T("a")[0])


def test_standard_is_ogden_with_everything_marked(l3, parity):
    for m, bound in ((l3, 9), (parity, 9)):
        p = pumping_constant(m)
        for t in enumerate_language(m, bound):
            if size(t) < p:
                continue
            assert standard_decompose(m, t) == ogden_decompose(
                m, t, all_marked(t)
            )


# ------------------------------------------------------------------- multi


def test_multi_l3_values(l3):
    t, _ = T("g(g(g(g(g(a)))))")
    w = ogden_decompose_multi(l3, t, all_marked(t), mfold=2)
    assert w.cprime == C("g(g(g(@)))")
    assert w.chain == (C("g(@)"), C("g(@)"))
    assert render(w.tprime) == "a"
    assert w.q == "q"
    assert w.p_used == 3
    for n in range(4):
        got = pump_multi(w, n)
        assert size(got) == 4 + 2 * n  # both loops advance in lockstep
        assert accepts(l3, got)
    assert pump_multi(w, 1) == t


def test_multi_takes_the_first_occurrences():
    # derived by hand: on g^6(a) the 5 cuts are depths 2..6, with states
    # q q q q r; q occurs 4 times and the loops join its first 3 cuts
    m = parse_dta(
        "alphabet: g/1 a/0\nstates: q r\nfinal: q\n"
        "trans: a -> r\ntrans: g(r) -> q\ntrans: g(q) -> q\n"
    )
    t, _ = T("g(g(g(g(g(g(a))))))")
    w = ogden_decompose_multi(m, t, all_marked(t), mfold=2)
    assert w.cprime == C("g(g(@))")
    assert w.chain == (C("g(@)"), C("g(@)"))
    assert render(w.tprime) == "g(g(a))"
    assert (w.q, w.p_used) == ("q", 5)


def test_multi_witness_verifies(l3):
    t, _ = T("g(g(g(g(g(a)))))")
    w = ogden_decompose_multi(l3, t, all_marked(t), mfold=2)
    report = verify_witness(l3, w)
    assert report.passed
    names = [name for name, _ in report.checks]
    assert "loop_state_c1" in names and "loop_state_c2" in names


def test_multi_parity(parity):
    left = "g(" * 14 + "a" + ")" * 14
    right = "g(" * 15 + "a" + ")" * 15
    t, _ = T(f"f({left},{right})")
    assert size(t) == 32
    w = ogden_decompose_multi(parity, t, all_marked(t), mfold=2)
    assert w.p_used == 31
    assert len(w.chain) == 2
    assert verify_witness(parity, w).passed
    for n in range(4):
        assert accepts(parity, pump_multi(w, n))


def test_multi_rejects_bad_mfold(l3):
    t, _ = T("g(g(g(a)))")
    with pytest.raises(ValueError):
        ogden_decompose_multi(l3, t, all_marked(t), mfold=0)


def test_multi_too_few_marks(l3):
    # mfold=2 over one state needs g_sigma(1, 2) = 3 marks
    t, _ = T("g(g(g(g(g(a)))))")
    with pytest.raises(NotEnoughMarks):
        ogden_decompose_multi(l3, t, frozenset({(), (1,)}), mfold=2)


def test_multi_rejects_rejected_tree(parity):
    t, _ = T("g(a)")
    with pytest.raises(NotAccepted):
        ogden_decompose_multi(parity, t, all_marked(t), mfold=2)


# -------------------------------------------------------------- properties


def test_witness_soundness_on_random_machines():
    # any witness extracted from a sampled accepted tree must verify, and
    # its pumps must stay in the language well past the spot-check range
    rng = random.Random(71)
    built = 0
    for _ in range(200):
        if built >= 12:
            break
        m = random_dta(rng, rng.choice([1, 2]))
        p = pumping_constant(m)
        bound = p + 6
        counts = state_size_counts(m, bound)
        sizes = [s for s in range(p, bound + 1) if accepted_count(m, counts, s)]
        if not sizes:
            continue
        t = sample_accepted(rng, m, rng.choice(sizes), counts)
        assert t is not None
        w = standard_decompose(m, t)
        assert verify_witness(m, w).passed
        assert pump(w, 1) == t
        for n in range(8):
            assert accepts(m, pump(w, n))
        built += 1
    assert built == 12


def test_multi_soundness_on_random_machines():
    rng = random.Random(73)
    built = 0
    for _ in range(200):
        if built >= 8:
            break
        m = random_dta(rng, rng.choice([1, 2]))
        mfold = rng.choice([2, 3])
        p = pumping_threshold(m.alphabet.max_rank, mfold * len(m.states))
        bound = p + 4
        counts = state_size_counts(m, bound)
        sizes = [s for s in range(p, bound + 1) if accepted_count(m, counts, s)]
        if not sizes:
            continue
        t = sample_accepted(rng, m, rng.choice(sizes), counts)
        assert t is not None
        w = ogden_decompose_multi(m, t, frozenset(addresses(t)), mfold)
        assert len(w.chain) == mfold
        assert verify_witness(m, w).passed
        assert pump_multi(w, 1) == t
        for n in range(5):
            assert accepts(m, pump_multi(w, n))
        built += 1
    assert built == 8
