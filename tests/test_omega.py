import pytest

from apseq import generators as G
from apseq import omega as O
from apseq.core import Alphabet
from apseq.errors import (CostRefusal, MachineParseError, NoCertifiedBound,
                          SpecError, UnsupportedFeature)

B = Alphabet.binary()


def test_run_basics(p01, tm):
    one = O.MullerAutomaton(B, ("q",), "q",
                            {("q", "0"): "q", ("q", "1"): "q"}, frozenset())
    assert O.run(one, tm, 5) == ["q"] * 5
    par = O.parity_of_ones_automaton()
    states = O.run(par, p01, 9)
    # simulation: each 01 block flips the parity once, so the state stream
    # is periodic with period 4
    assert states == (["even", "even", "odd", "odd"] * 3)[:9]
    # the parity run tracks the running digit-sum parity of the prefix
    pref = tm.codes(64)[:64]
    acc, want = 0, []
    for c in pref:
        want.append("even" if acc % 2 == 0 else "odd")
        acc += c
    assert O.run(par, tm, 64) == want


def test_limit_set_oracle(tm):
    sink = O.sink_automaton(B)
    assert O.limit_set_oracle(sink, tm, 1000) == frozenset({"sink"})
    tracker = O.both_letters_tracker()
    assert O.limit_set_oracle(tracker, tm, 10**5) == frozenset({"q0", "q1"})
    ep = G.eventually_periodic("01", "0")
    assert O.limit_set_oracle(tracker, ep, 10**5) == frozenset({"q0"})


def test_run_without_a_transition_is_a_spec_error():
    tracker, ab = O.both_letters_tracker(), G.periodic("ab")
    for probe in (lambda: O.run(tracker, ab, 10), lambda: O.limit_set_oracle(tracker, ab, 10)):
        with pytest.raises(SpecError, match=r"automaton has no transition at \('q0', 'a'\)"):
            probe()


def test_decide_muller(tm, p01):
    tracker = O.both_letters_tracker()
    v = O.decide_muller(tracker, tm)
    assert v.accept and v.limit_macrostate == frozenset({"q0", "q1"})
    assert v.limit_macrostate == O.limit_set_oracle(tracker, tm, 10**6)
    ep = G.eventually_periodic("01", "0")
    v = O.decide_muller(tracker, ep)
    assert not v.accept and v.limit_macrostate == frozenset({"q0"})
    # empty accepting family rejects everything
    for x in (tm, p01, ep):
        assert not O.decide_muller(O.sink_automaton(B), x).accept


def test_decide_buchi(tm, p01):
    all_accepting = O.BuchiAutomaton(
        B, ("q0", "q1"), "q0",
        frozenset((q, a, f"q{a}") for q in ("q0", "q1") for a in B),
        frozenset({"q0", "q1"}))
    assert O.decide_buchi_det(all_accepting, p01).accept
    assert O.decide_buchi_det(all_accepting, tm).accept
    sees1 = O.sees_letter_buchi(B, "1")
    assert O.decide_buchi_det(sees1, p01).accept
    zeros = G.periodic(B.word("00"))
    assert not O.decide_buchi_det(sees1, zeros).accept


def test_sees_letter_on_golden_word_via_oracle(fib):
    # the golden word carries no certified bound: the decision refuses,
    # and the empirical oracle supplies the (accepting) answer instead
    sees1 = O.sees_letter_buchi(B, "1")
    with pytest.raises(NoCertifiedBound):
        O.decide_buchi_det(sees1, fib)
    limit = O.limit_set_oracle(sees1, fib, 10**5)
    assert limit & sees1.accepting


def test_refusals(tm, kolak):
    tracker = O.both_letters_tracker()
    with pytest.raises(NoCertifiedBound):
        O.decide_muller(tracker, kolak)
    capped = G.thue_morse()
    capped.horizon_cap = 10**4
    with pytest.raises(CostRefusal):
        O.decide_muller(tracker, capped)
    nd = O.BuchiAutomaton(B, ("a", "b"), "a",
                          frozenset({("a", "0", "a"), ("a", "0", "b"),
                                     ("a", "1", "a"), ("b", "0", "b"),
                                     ("b", "1", "b")}),
                          frozenset({"b"}))
    assert not nd.deterministic
    with pytest.raises(UnsupportedFeature):
        O.decide_buchi_det(nd, tm)


def test_window_sufficiency_spot_check(tm, p01, scheme_seq):
    tracker = O.both_letters_tracker()
    for x in (tm, p01, scheme_seq):
        v = O.decide_muller(tracker, x)
        w_end = v.window.j + 1
        states = O.run(tracker, x, 2 * w_end)
        recur = frozenset(states[w_end:])
        assert v.limit_macrostate <= recur


def test_verdict_determinism(tm):
    tracker = O.both_letters_tracker()
    v1 = O.decide_muller(tracker, tm)
    v2 = O.decide_muller(tracker, tm)
    assert v1 == v2


def test_certified_equals_oracle_matrix(tm, p01, scheme_seq):
    ep = G.eventually_periodic("01", "0")
    autos = [O.both_letters_tracker(), O.parity_of_ones_automaton(),
             O.sink_automaton(B), O.sees_letter_buchi(B, "1")]
    for x in (tm, p01, ep, scheme_seq):
        for aut in autos:
            if isinstance(aut, O.MullerAutomaton):
                v = O.decide_muller(aut, x)
            else:
                v = O.decide_buchi_det(aut, x)
            assert v.limit_macrostate == O.limit_set_oracle(aut, x, 10**5), \
                (str(x.provenance), aut.states)


def test_automaton_text_roundtrip():
    for aut in (O.both_letters_tracker(), O.sink_automaton(B),
                O.sees_letter_buchi(B, "1"), O.cycle_counter_automaton(B, 3)):
        text = O.print_automaton(aut)
        again = O.parse_automaton(text)
        assert O.print_automaton(again) == text
    with pytest.raises(MachineParseError):
        O.parse_automaton("states: q\nstart: q\nq 0 -> q\naccept: q\n")  # no alphabet
    with pytest.raises(MachineParseError):
        O.parse_automaton("states: q\nstart: q\nalphabet: 0\nq 0 -> q\n")  # no accept


def test_automaton_validation():
    with pytest.raises(SpecError):
        O.MullerAutomaton(B, ("q",), "nope", {("q", "0"): "q", ("q", "1"): "q"},
                          frozenset())
    with pytest.raises(SpecError):
        O.MullerAutomaton(B, ("q",), "q", {("q", "0"): "q"}, frozenset())
    with pytest.raises(SpecError):
        O.MullerAutomaton(B, ("q",), "q", {("q", "0"): "q", ("q", "1"): "q"},
                          frozenset({frozenset({"other"})}))
