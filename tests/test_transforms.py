import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from apseq import analysis as A
from apseq import generators as G
from apseq import transforms as T
from apseq.core import _CHUNK, Alphabet, Word, agreement_length
from apseq.errors import HorizonExhausted, MachineFault, MachineParseError, SpecError

B = Alphabet.binary()


def merger_machine():
    """Uniform 2-state machine: letter 0 merges the states, letter 1
    swaps them; emits the (state, symbol) pair."""
    out = T.pair_alphabet(Alphabet(("s", "t")), B)
    emit = {(q, a): out.word([T.pair_symbol(q, a)]) for q in ("s", "t") for a in B}
    step = {("s", "0"): "t", ("t", "0"): "t", ("s", "1"): "t", ("t", "1"): "s"}
    return T.Transducer(B, out, ("s", "t"), "s", emit, step)


def random_uniform_machine(n_states, seed):
    rng = random.Random(seed)
    states = tuple(f"r{i}" for i in range(n_states))
    out = T.pair_alphabet(Alphabet(states), B)
    emit = {(q, a): out.word([T.pair_symbol(q, a)]) for q in states for a in B}
    step = {(q, a): states[rng.randrange(n_states)] for q in states for a in B}
    return T.Transducer(B, out, states, states[0], emit, step)


# -- morphism application -----------------------------------------------------


def test_apply_morphism_fixed_point(tm):
    phi = G.Morphism.from_rules(B, B, {"0": "01", "1": "10"})
    assert agreement_length(T.apply_morphism(phi, tm), tm, 10**4) is None


def test_apply_morphism_identity_and_projection(tm):
    ident = G.Morphism.identity(B)
    assert agreement_length(T.apply_morphism(ident, tm), tm, 1000) is None
    a = Alphabet.of("a")
    proj = G.Morphism.from_rules(B, a, {"0": "a", "1": "a"})
    assert T.apply_morphism(proj, tm).prefix(6).text == "aaaaaa"


def test_apply_morphism_concatenates_the_letter_images(tm):
    phi = G.Morphism.from_rules(B, B, {"0": "011", "1": "0"})
    n = 20_000  # several input chunks
    want = "".join({"0": "011", "1": "0"}[c] for c in tm.prefix(n).text)
    assert T.apply_morphism(phi, tm).prefix(len(want)).text == want


def test_apply_morphism_stall_limit():
    # at most 100,000 consecutive input symbols may have empty images
    erase = G.Morphism.from_rules(B, B, {"0": "", "1": "1"}, erasing_ok=True)
    ok = T.apply_morphism(erase, G.eventually_periodic("1" + "0" * 100_000, "1"))
    assert ok.prefix(3).text == "111"
    bad = T.apply_morphism(erase, G.eventually_periodic("1" + "0" * 100_001, "1"))
    assert bad.prefix(1).text == "1"
    with pytest.raises(SpecError, match="long input stretch"):
        bad.prefix(2)
    every = G.Morphism.from_rules(B, B, {"0": "", "1": ""}, erasing_ok=True)
    with pytest.raises(SpecError, match="every letter erased"):
        T.apply_morphism(every, G.thue_morse())


# -- transduction ----------------------------------------------------------------


def test_identity_machine(tm):
    ident = T.identity_transducer(B)
    img = T.transduce(ident, tm)
    assert agreement_length(img, tm, 10**4) is None
    # one-state formula collapses: h(h(n)) with h(n) = g(n)
    assert img.certified_bound(4) == tm.certified_bound(tm.certified_bound(4))


def test_state_emitting_alphabet(tm):
    se = T.state_emitting(merger_machine())
    img = T.transduce(se, tm)
    assert len(img.alphabet) <= len(se.states) * len(B)


def test_cyclic_equals_product(fib):
    mach = T.cyclic_transducer(B, 3)
    assert agreement_length(T.cyclic(fib, 3), T.transduce(mach, fib), 10**4) is None


def test_decompose_roundtrip(tm, fib):
    rng = random.Random(5)
    for i in range(20):
        n_states = rng.randrange(1, 4)
        states = tuple(f"q{j}" for j in range(n_states))
        out = Alphabet.of("x", "y", "z")
        emit = {}
        step = {}
        for q in states:
            for a in B:
                # keep the letter-0 emissions nonempty so the image stays infinite
                low = 1 if a == "0" else 0
                w = "".join(rng.choice("xyz") for _ in range(rng.randrange(low, 4)))
                emit[(q, a)] = out.word(w)
                step[(q, a)] = states[rng.randrange(n_states)]
        mach = T.Transducer(B, out, states, states[0], emit, step)
        uniform, phi = T.decompose(mach)
        assert uniform.uniform
        lhs = T.transduce(mach, tm)
        rhs = T.apply_morphism(phi, T.transduce(uniform, tm))
        assert agreement_length(lhs, rhs, 10**4) is None


def test_decompose_image_lengths():
    out = Alphabet.of("x")
    emit = {(q, a): out.word("xxx") for q in ("p", "q") for a in B}
    step = {(q, a): "q" for q in ("p", "q") for a in B}
    mach = T.Transducer(B, out, ("p", "q"), "p", emit, step)
    _, phi = T.decompose(mach)
    assert phi.uniform_length == 3


def test_reversibility():
    assert T.is_reversible(T.cyclic_transducer(B, 5))
    m = merger_machine()
    assert not T.is_reversible(m)
    assert T.is_almost_reversible(m, {"1"})
    assert not T.is_almost_reversible(m, {"0", "1"})
    with pytest.raises(SpecError):
        T.is_almost_reversible(m, {"2"})


# -- products -----------------------------------------------------------------------


def test_product_with_constant_is_renaming(tm):
    const = G.constant("c")
    prod = T.product(tm, const)
    for i in range(200):
        assert prod[i] == T.pair_symbol(tm[i], "c")


def test_cyclic_of_periodic_has_period_lcm(p01):
    z = T.cyclic(p01, 3)
    pref = z.codes(100)[:100]
    assert oracles.eventual_period(pref) == (0, 6)


def test_cyclic_fib_regulator_finite(fib):
    z = T.cyclic(fib, 3)
    for n in range(1, 7):
        rep = A.empirical_regulator(z, n, 10**5)
        assert rep.finitely_occurring == []
        assert rep.value < 10**4


def test_product_bound_requires_periodic_right(tm, fib, p01):
    assert T.product(tm, p01).certified_bound is not None
    assert T.product(tm, fib).certified_bound is None
    assert T.product(fib, p01).certified_bound is None  # left factor unbounded


def test_product_reads_stop_at_its_own_cap():
    x = G.thue_morse()
    x.horizon_cap = 6000
    prod = T.product(x, G.periodic("01"))
    assert prod.horizon_cap == 6000
    want = [2 * a + i % 2 for i, a in enumerate(G.thue_morse().codes(6000)[:6000])]
    assert prod.codes(6000) == want
    with pytest.raises(HorizonExhausted, match=re.escape(
            "requested 6001 symbols of product left=thue_morse definition=recurrence "
            "right=periodic period=01 period_len=2, cap is 6000")):
        prod.codes(6001)


def test_product_raises_the_error_of_a_factor_capped_after_it_was_built():
    x = G.thue_morse()
    prod = T.product(x, G.periodic("01"))
    x.horizon_cap = 7000
    assert len(prod.codes(7000)) >= 7000
    for _ in range(2):
        with pytest.raises(HorizonExhausted, match=re.escape(
                "requested 7001 symbols of thue_morse definition=recurrence, cap is 7000")):
            prod.codes(7001)


# -- split ---------------------------------------------------------------------------


def test_split_paper_shape():
    x = G.eventually_periodic("3200122403100110", "110")
    s = T.split(x, "0", 500)
    assert [s[i] for i in range(5)] == ["0", "12240", "310", "0", "110"]


def test_split_periodic(p01):
    s = T.split(p01, "1", 100)
    assert set(s.alphabet.symbols) == {"01"}


def test_split_block_lengths_bounded(tm):
    s = T.split(tm, "0", 10**4)
    # gaps between marker letters stay below the length-1 window value,
    # so every block has length at most 3
    assert set(s.alphabet.symbols) == {"0", "10", "110"}


def test_split_roundtrip(tm):
    s = T.split(tm, "0", 10**4)
    first = tm.prefix(1)  # first block of the doubling word is "0"
    restored = T.unsplit(s, 40, tm.alphabet)
    assert restored.text == tm.prefix(len(first) + len(restored)).text[len(first):]


def test_split_errors(p01):
    with pytest.raises(SpecError):
        T.split(G.constant("0"), "1", 100)


# -- stack machines ----------------------------------------------------------------------


def test_counterexample_runs_grow():
    pd = T.counterexample_machine()
    out = T.pushdown_transduce(pd, G.alternating_prefix_example())
    small = oracles.longest_constant_run(out.codes(10**4)[:10**4])
    big = oracles.longest_constant_run(out.codes(10**5)[:10**5])
    assert small >= 8
    assert big >= small


def test_counterexample_on_periodic(p01):
    pd = T.counterexample_machine()
    out = T.pushdown_transduce(pd, p01)
    assert out.prefix(16).text == "a" * 16  # balance never goes negative


def test_pushdown_fault():
    rules = {("q", "0", None): ("x", "q", ("pop",)),
             ("q", "1", None): ("x", "q", ("noop",))}
    zeros = G.periodic(B.word("00"))
    pd = T.PushdownTransducer(B, Alphabet.of("x"), ("q",), "q", (), rules)
    with pytest.raises(MachineFault):
        T.pushdown_transduce(pd, zeros).prefix(2)
    # missing rule is also a machine fault
    pd2 = T.PushdownTransducer(B, Alphabet.of("x"), ("q",), "q", (), {})
    with pytest.raises(MachineFault):
        T.pushdown_transduce(pd2, zeros).prefix(1)


@pytest.mark.parametrize("action, fault, text", [
    (("pop",), MachineFault, "pop on empty stack"),  # as oracles.pushdown orders them
    (("noop",), SpecError, "symbol 'z' not in alphabet"),
    (("push", "s"), SpecError, "symbol 'z' not in alphabet")])
def test_pushdown_fault_order_on_a_bad_emission(action, fault, text):
    rules = {("q", a, top): ("z", "q", action) for a in "01" for top in (None, "s")}
    pd = T.PushdownTransducer(B, Alphabet.of("x"), ("q",), "q", ("s",), rules)
    with pytest.raises(fault, match=re.escape(text)):
        T.pushdown_transduce(pd, G.periodic(B.word("0"))).prefix(1)


def test_stack_blind_pushdown_equals_projection(tm):
    rules = {}
    for q in ("u", "v"):
        for a in ("0", "1"):
            for top in (None, "z"):
                nq = "v" if (q == "u") == (a == "1") else "u"
                rules[(q, a, top)] = (("x" if q == "u" else "y"), nq, ("noop",))
    pd = T.PushdownTransducer(B, Alphabet.of("x", "y"), ("u", "v"), "u", ("z",), rules)
    emit = {(q, a): Alphabet.of("x", "y").word("x" if q == "u" else "y")
            for q in ("u", "v") for a in B}
    step = {(q, a): ("v" if (q == "u") == (a == "1") else "u")
            for q in ("u", "v") for a in B}
    fst = T.Transducer(B, Alphabet.of("x", "y"), ("u", "v"), "u", emit, step)
    assert agreement_length(T.pushdown_transduce(pd, tm),
                            T.transduce(fst, tm), 10**4) is None


# -- streams after an error ---------------------------------------------------------------
# A derived stream whose generator raised stays failed: later reads return
# only symbols produced before the error and raise the same class past them.


def test_transduce_reads_input_up_to_its_cap():
    x = G.thue_morse()
    x.horizon_cap = 5000
    img = T.transduce(T.identity_transducer(B), x)
    img.codes(4096)
    assert img.codes(4500)[:4500] == G.thue_morse().codes(4500)[:4500]


def test_erasing_transduce_after_horizon_error(tm):
    # emits the input symbols at odd positions and erases the others
    emit = {("p", a): B.word("") for a in B}
    emit.update({("r", a): B.word(a) for a in B})
    step = {(q, a): "r" if q == "p" else "p" for q in ("p", "r") for a in B}
    odd = T.Transducer(B, B, ("p", "r"), "p", emit, step)
    want = T.transduce(odd, tm).codes(3000)[:3000]
    x = G.thue_morse()
    x.horizon_cap = 6000
    out = T.transduce(odd, x)
    with pytest.raises(HorizonExhausted):
        out.codes(4096)
    for _ in range(3):
        try:
            got = out.codes(3000)[:3000]
        except HorizonExhausted:
            continue
        assert got == want
    for _ in range(2):
        with pytest.raises(HorizonExhausted):
            out.codes(3001)


def test_pushdown_stays_failed_after_fault(tm):
    # faults at step 3 (state t reading 0); restarting from the initial
    # state with the stack left behind would emit b forever
    rules = {("s", "0", None): ("a", "t", ("push", "z")),
             ("t", "1", "z"): ("b", "t", ("push", "z")),
             ("s", "0", "z"): ("b", "s", ("noop",)),
             ("s", "1", "z"): ("b", "s", ("noop",))}
    pd = T.PushdownTransducer(B, Alphabet.of("a", "b"), ("s", "t"), "s", ("z",), rules)
    out = T.pushdown_transduce(pd, tm)
    for _ in range(3):
        with pytest.raises(MachineFault):
            out.prefix(5)
    assert out.prefix(3).text == "abb"


def test_split_unknown_block_after_valid_ones():
    # only the blocks 0 and 10 are discovered; 1110 comes after 5000 of them
    x = G.eventually_periodic("0" + "10" * 5000 + "1110", "0")
    s = T.split(x, "0", 100)
    assert list(s.prefix(4096)) == ["10"] * 4096
    for _ in range(2):
        with pytest.raises(SpecError):
            s.prefix(5001)
    assert list(s.prefix(5000)) == ["10"] * 5000


# -- chunk kernels against per-symbol references ----------------------------------------------

LONG = 3 * _CHUNK + 1000  # input codes read: several store chunks


def _input(rng, k, n):
    """n codes over k letters: stretches of repeated short blocks with a
    few letters changed, so that later stretches hold blocks and machine
    configurations that earlier ones lack."""
    codes = []
    while len(codes) < n:
        block = [rng.randrange(k) for _ in range(rng.randint(1, 12))]
        codes += block * rng.randint(1, 2000 // len(block) + 1)
    codes = codes[:n]
    for _ in range(rng.randint(0, 20)):
        codes[rng.randrange(n)] = rng.randrange(k)
    return codes


def _capped(codes, k):
    """The sequence that starts with the codes, readable no further."""
    x = G.periodic(Word(Alphabet.of(*range(k)), tuple(codes)))
    x.horizon_cap = len(codes)
    return x


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 300), st.integers(0, 20), st.booleans())
def test_run_states_matches_a_per_symbol_run(seed, n, block, visits):
    rng = random.Random(seed)
    m, k = rng.randint(1, 6), rng.randint(1, 4)
    table = np.array([[rng.randrange(m) * k for _ in range(k)] for _ in range(m)], dtype=np.intp)
    codes = np.array([rng.randrange(k) for _ in range(n)], dtype=np.int64)
    q = start = rng.randrange(m) * k
    want = []
    for c in codes.tolist():
        want.append(q)
        q = int(table[q // k, c])
    before, end = T.run_states(table, start, codes, block, visits)
    assert end == q
    assert before is None and not visits or before.tolist() == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 4), st.integers(1, 6), st.booleans())
def test_transduce_matches_the_per_symbol_reference(seed, k, m, uniform):
    rng = random.Random(seed)
    out = Alphabet.of(*"abc"[:rng.randint(1, 3)])
    states = tuple(f"s{i}" for i in range(m))
    emit = {(q, c): [rng.randrange(len(out)) for _ in range(1 if uniform else rng.randint(0, 3))]
            for q in states for c in range(k)}
    step = {(q, c): rng.choice(states) for q in states for c in range(k)}
    machine = T.Transducer(Alphabet.of(*range(k)), out, states, states[0],
                           {(q, str(c)): Word(out, tuple(w)) for (q, c), w in emit.items()},
                           {(q, str(c)): q2 for (q, c), q2 in step.items()})
    codes = _input(rng, k, LONG)
    want = oracles.transduce(emit, step, states[0], codes)[:LONG]
    assert T.transduce(machine, _capped(codes, k)).codes(len(want))[:len(want)] == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 4))
def test_split_matches_the_per_symbol_reference(seed, k):
    rng = random.Random(seed)
    codes = _input(rng, k, LONG)
    marker, horizon = rng.randrange(k), rng.randint(1, LONG)
    if codes[:horizon].count(marker) < 2:
        with pytest.raises(SpecError, match="does not cut twice"):
            T.split(_capped(codes, k), str(marker), horizon)
        return
    want, unknown = oracles.split(codes, marker, horizon)
    s = T.split(_capped(codes, k), str(marker), horizon)
    assert s.codes(len(want))[:len(want)] == want
    if unknown is not None:  # the blocks before it are served, then the same error every time
        for _ in range(2):
            with pytest.raises(SpecError, match=re.escape(f"block {unknown} not discovered")):
                s.codes(len(want) + 1)
        assert s.codes(len(want))[:len(want)] == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 3), st.integers(1, 3), st.booleans())
def test_pushdown_matches_the_per_symbol_reference(seed, k, m, total):
    # a total machine never pops the empty stack nor misses a rule; the
    # others fault, mostly within the first chunk
    rng = random.Random(seed)
    inp, out = Alphabet.of(*range(k)), Alphabet.of("x", "y")
    states = tuple(f"s{i}" for i in range(m))
    rules = {}
    for q in states:
        for a in inp:
            for top in (None, "A", "B"):
                if total or rng.random() < 0.97:
                    acts = [("push", "A"), ("push", "B"), ("noop",)]
                    acts += [("pop",)] if top or not total else []
                    emit = "".join(rng.choice("xy") for _ in range(rng.randint(0, 2)))
                    rules[(q, a, top)] = (emit, rng.choice(states), rng.choice(acts))
    pd = T.PushdownTransducer(inp, out, states, states[0], ("A", "B"), rules)
    codes = _input(rng, k, LONG)
    want, fault = oracles.pushdown(rules, states[0], [str(c) for c in codes], out.symbols)
    run = T.pushdown_transduce(pd, _capped(codes, k))
    n = min(len(want), LONG)
    assert run.codes(n)[:n] == want[:n]
    if fault is not None and len(want) < LONG:
        for _ in range(2):
            with pytest.raises(MachineFault, match=re.escape(fault)):
                run.codes(n + 1)
        assert run.codes(n)[:n] == want


# -- bound formulas ------------------------------------------------------------------------


def test_bound_formula_examples():
    # g(n) = n+1, two states: h(n) = n+3, image h(h(n)) = n+6
    bf = T.bound_formulas(lambda n: n + 1, 2)
    assert [bf["image"](n) for n in (1, 5)] == [7, 11]
    assert bf["reversible"](5) == 8
    # three states: g^3(1) + g^2(1) + g(1) = 4 + 3 + 2
    assert T.bound_formulas(lambda n: n + 1, 3)["prefix"] == 9
    with pytest.raises(SpecError):
        T.bound_formulas(lambda n: n - 1, 1)["image"](4)


def test_transduce_bound_dropped_when_not_uniform(tm):
    out = Alphabet.of("x")
    emit = {("q", a): out.word("xx") for a in B}
    step = {("q", a): "q" for a in B}
    mach = T.Transducer(B, out, ("q",), "q", emit, step)
    assert T.transduce(mach, tm).certified_bound is None


# -- bound soundness matrix (the module's central empirical check) ---------------------------


def _max_run_image_pairs(tm, scheme_seq, branching_seq):
    pairs = []
    for m in (2, 3, 4, 5):
        pairs.append((tm, T.cyclic_transducer(B, m), True))
    pairs.append((tm, merger_machine(), False))
    for seed in (1, 2, 3):
        pairs.append((scheme_seq, random_uniform_machine(2, seed), None))
    for seed in (4, 5):
        pairs.append((branching_seq, random_uniform_machine(3, seed), None))
    return pairs


def test_bound_soundness_matrix_small(tm, scheme_seq, branching_seq):
    # full-horizon (1e6) version runs in the acceptance suite; this is the
    # same matrix at 1e5 for quick feedback
    for x, mach, reversible in _max_run_image_pairs(tm, scheme_seq, branching_seq):
        img = T.transduce(mach, x)
        bounds = T.bound_formulas(x.certified_bound, len(mach.states))
        for n in (1, 3, 5, 8):
            val = A.empirical_regulator(img, n, 10**5).value
            assert val <= bounds["image"](n)
            if reversible or (reversible is None and T.is_reversible(mach)):
                assert val <= bounds["reversible"](n)


# -- text format -----------------------------------------------------------------------------


def test_transducer_text_roundtrip():
    m = merger_machine()
    text = T.print_transducer(m)
    again = T.parse_transducer(text)
    assert T.print_transducer(again) == text
    assert again.states == m.states and again.initial == m.initial


def test_transducer_text_erasing():
    text = "states: q0\nstart: q0\nq0 0 -> - q0\nq0 1 -> 0 q0\n"
    m = T.parse_transducer(text)
    assert m.erasing and T.print_transducer(m) == text


def test_transducer_parse_errors():
    with pytest.raises(MachineParseError):
        T.parse_transducer("start: q0\nq0 0 -> x q0\n")
    with pytest.raises(MachineParseError):
        T.parse_transducer("states: q0\nstart: q0\nq0 0 x q0\n")
    with pytest.raises(MachineParseError):
        T.parse_transducer("states: q0\nstart: q0\nq0 0 -> x q9\n")
