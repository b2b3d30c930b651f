from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from test_generators import described_words
from apseq import generators as G
from apseq import omega as O
from apseq.cli import SequenceSpec, build_sequence
from apseq.core import Alphabet, Bound, Segment
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


def test_decide_without_a_transition_names_the_first_missing_one():
    tracker = O.both_letters_tracker()
    with pytest.raises(SpecError, match=r"automaton has no transition at \('q0', 'a'\)"):
        O.decide_muller(tracker, G.periodic("ab"))
    # arcs on "2" from q0 only: the run first needs one from q1 at
    # position 70001, past the first chunk of the scan
    abc = Alphabet.of("0", "1", "2")
    delta = {**tracker.delta, ("q0", "2"): "q0"}
    aut = O.MullerAutomaton(B, tracker.states, "q0", delta, tracker.accepting)
    x = G.eventually_periodic(abc.word("0" * 70000), abc.word("12"))
    with pytest.raises(SpecError, match=r"automaton has no transition at \('q1', '2'\)"):
        O.decide_muller(aut, x)


@st.composite
def _decisions(draw):
    """A random automaton over 0/1 (with arcs on a third letter "2" where
    the draw puts them) run on a periodic or eventually periodic word over
    two or three letters that carries the bound n + c."""
    letters = "012"[:draw(st.integers(2, 3))]
    qs = tuple(f"s{i}" for i in range(draw(st.integers(1, 8))))
    delta = {(q, a): draw(st.sampled_from(qs)) for q in qs for a in "01"}
    if len(letters) == 3:
        delta.update({(q, "2"): draw(st.sampled_from(qs)) for q in qs if draw(st.booleans())})
    pre = draw(st.text(letters, max_size=5))
    period = draw(st.text(letters, min_size=1, max_size=6))
    c = draw(st.integers(0, 300))
    subsets = st.frozensets(st.sampled_from(qs), min_size=1)
    if draw(st.booleans()):
        aut = O.MullerAutomaton(B, qs, qs[0], delta, draw(st.frozensets(subsets, max_size=3)))
    else:
        arcs = frozenset((q, a, q2) for (q, a), q2 in delta.items())
        aut = O.BuchiAutomaton(B, qs, qs[0], arcs, draw(subsets))
    return aut, delta, Alphabet(tuple(letters)), pre, period, c


# scan geometries (chunk, block): the default, and two small ones under
# which a window spans many chunks and its last block is cut short
GEOMETRIES = [(O._SCAN_CHUNK, O._SCAN_BLOCK), (256, 16), (112, 7)]


@pytest.mark.parametrize("chunk, block", GEOMETRIES)
@settings(max_examples=60, deadline=None)
@given(case=_decisions())
def test_decision_equals_the_per_symbol_run(chunk, block, case):
    aut, delta, abc, pre, period, c = case
    x = G.eventually_periodic(abc.word(pre), abc.word(period)) if pre \
        else G.periodic(abc.word(period))
    x = x.with_bound(Bound(lambda n: n + c, "n + c"))
    x.substitutive = None  # decide by the scan, in the geometries under test
    w = 2 * len(aut.states) * (c + 1) - 1           # the image window of n + c
    symbols = [x.alphabet.symbols[i] for i in x.codes(2 * w)[:2 * w]]
    decide = O.decide_muller if isinstance(aut, O.MullerAutomaton) else O.decide_buchi_det
    try:
        want = oracles.window_states(delta, aut.initial, symbols, w)
    except KeyError as e:
        with mock.patch.multiple(O, _SCAN_CHUNK=chunk, _SCAN_BLOCK=block), \
                pytest.raises(SpecError) as err:
            decide(aut, x)
        assert str(err.value) == f"automaton has no transition at {e.args[0]}"
        return
    with mock.patch.multiple(O, _SCAN_CHUNK=chunk, _SCAN_BLOCK=block):
        v = decide(aut, x)
    assert v.limit_macrostate == want and v.window == Segment(w, 2 * w - 1)
    if isinstance(aut, O.MullerAutomaton):
        assert v.accept == (want in aut.accepting)
    else:
        assert v.accept == bool(want & aut.accepting)
    if c >= len(pre) + len(period) - 1:  # the bound is sound: the exact limit set
        assert want == oracles.eventual_limit_set(delta, aut.initial, pre, period)


@st.composite
def _deltas(draw):
    """A transition map on 1-8 states over 0/1, with arcs on a third
    letter "2" from the states where the draw puts them; or a counter
    whose states tell the positions 0..39, or 0..69, apart (more rows than
    a 64-bit word has bits)."""
    if draw(st.booleans()):
        top = draw(st.sampled_from([39, 69]))
        qs = tuple(f"t{i}" for i in range(top + 1))
        return qs, {(q, a): qs[min(i + 1, top)] for i, q in enumerate(qs) for a in "012"}
    qs = tuple(f"s{i}" for i in range(draw(st.integers(1, 8))))
    delta = {(q, a): draw(st.sampled_from(qs)) for q in qs for a in "01"}
    delta.update({(q, "2"): draw(st.sampled_from(qs)) for q in qs if draw(st.booleans())})
    return qs, delta


def _outcome(call):
    try:
        return call()
    except SpecError as e:
        return str(e)


# described words whose images psi(c) span several chunks of the small geometries
_long_images = st.builds(G.eventually_periodic, st.text("012", min_size=1, max_size=300),
                         st.text("012", min_size=200, max_size=600))


@pytest.mark.parametrize("chunk, block", GEOMETRIES)
@settings(max_examples=150, deadline=None)
@given(qd=_deltas(), x=described_words() | _long_images, w=st.integers(1, 12) | st.integers(1, 5000))
def test_described_window_states_equal_the_scan(chunk, block, qd, x, w):
    qs, delta = qd
    with mock.patch.multiple(O, _SCAN_CHUNK=chunk, _SCAN_BLOCK=block):
        got = _outcome(lambda: O._window_states(qs[0], delta, x, w))
        assert len(x._store) == 0  # a missing transition is named without reading x
        x.substitutive = None
        assert got == _outcome(lambda: O._window_states(qs[0], delta, x, w))


@pytest.mark.parametrize("x", [G.periodic("012"), G.eventually_periodic("1", "01"),
                               G.eventually_periodic("21", "0120")],
                         ids=["012", "1(01)", "21(0120)"])
def test_blocks_that_cut_the_window_are_split(x):
    # a counter is in state t_i at position i, so each block kept whole that
    # reaches past 2w, or starts before w, adds a state from outside the window
    qs = tuple(f"t{i}" for i in range(40))
    delta = {(q, a): qs[min(i + 1, 39)] for i, q in enumerate(qs) for a in "012"}
    for w in range(1, 16):
        assert O._window_states("t0", delta, x, w) == frozenset(qs[w:2 * w])
    assert len(x._store) == 0


def test_thue_morse_m3_is_decided_without_reading_the_word():
    x = G.thue_morse()
    v = O.decide_muller(O.cycle_counter_automaton(B, 3), x)
    assert v.window == Segment(4194304, 8388607) and len(v.limit_macrostate) == 3
    assert len(x._store) == 0
    with pytest.raises(CostRefusal):
        O.decide_muller(O.cycle_counter_automaton(B, 4), x)


@pytest.mark.parametrize("spec", ["progression_rewrite base_period=01 n0=2 ratio=3",
                                  "scheme file={dir}/pairs"])
def test_bounded_workload_words_are_decided_without_reading_them(spec, tmp_path):
    (tmp_path / "pairs").write_text("kind: gap\nbase: 0 = 01\nbase: 1 = 10\n"
                                    "expand: 0 = 010\nexpand: 1 = 101\npairs: 01 10\n")
    x = build_sequence(SequenceSpec.parse(spec.format(dir=tmp_path)))
    v = O.decide_muller(O.cycle_counter_automaton(B, 3), x)
    assert v.window == Segment(708588, 1417175) and len(v.limit_macrostate) == 3
    assert len(x._store) == 0


def test_a_block_stream_with_forty_heads_is_decided_from_its_levels():
    x = G.block_product_seq(["01"] * 40 + ["011"], assert_both_letters=True)
    v = O.decide_muller(O.both_letters_tracker(), x)
    assert v.accept and v.window == Segment(87383, 174765) and len(x._store) == 0


def test_a_rewrite_past_every_window_carries_no_description():
    # psi = base[:n1] is read only when the one-state window fits the cap
    base = G.periodic("01")
    x = G.progression_rewrite(base, G.geometric_levels(1000, 1000))
    assert x.substitutive is None and len(base._store) == 0
    with pytest.raises(CostRefusal, match=r"^certified window \[2000000000000000000000000, "
                       r"3999999999999999999999999\] exceeds the horizon cap 10000000; "):
        O.decide_muller(O.both_letters_tracker(), x)


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


def test_refusals(tm, fib, kolak):
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
    for probe in (lambda: O.decide_buchi_det(nd, tm), lambda: O.run(nd, tm, 10),
                  lambda: O.limit_set_oracle(nd, tm, 10)):
        with pytest.raises(UnsupportedFeature):
            probe()
    with pytest.raises(NoCertifiedBound):  # the bound is checked before the moves are read
        O.decide_buchi_det(nd, fib)


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
