import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from apseq import generators as G
from apseq.core import (Alphabet, Segment, Sequence, Word, agreement_length, factors,
                        occurrences, prefix, segment, shift)
from apseq.errors import HorizonExhausted, SpecError


def test_alphabet_invariants():
    with pytest.raises(SpecError):
        Alphabet(())
    with pytest.raises(SpecError):
        Alphabet(("a", "a"))
    b = Alphabet.binary()
    assert list(b) == ["0", "1"]
    assert b.index("1") == 1
    with pytest.raises(SpecError):
        b.index("2")


def test_word_basics():
    b = Alphabet.binary()
    w = b.word("0110")
    assert len(w) == 4 and w[1] == "1" and w.text == "0110"
    assert w.count("1") == 2 and w.count("0") == 2
    assert (w + b.word("1")).text == "01101"
    assert w.complement().text == "1001"
    assert w[1:3].text == "11"
    multi = Alphabet.of("10", "20")
    assert multi.word(["10", "20"]).text == "10,20"


def test_prefix_and_segment(tm, fib, p01):
    assert prefix(tm, 16).text == "0110100110010110"
    assert prefix(tm, 0).text == ""
    assert prefix(p01, 5).text == "01010"
    assert segment(tm, Segment(0, 3)).text == "0110"
    assert segment(fib, Segment(0, 20)).text == "010010100100101001010"
    k = 7
    assert segment(tm, Segment(k, k)).text == tm[k]


def test_segment_prefix_coherence(tm, fib, kolak):
    for x in (tm, fib, kolak):
        for n in (1, 17, 256, 10**4):
            assert segment(x, Segment(0, n - 1)).codes == prefix(x, n).codes


def test_factors():
    b = Alphabet.binary()
    w = b.word("0110")
    assert {f.text for f in factors(w, 2)} == {"01", "11", "10"}
    assert factors(w, 5) == set()
    with pytest.raises(SpecError):
        factors(w, 0)


def test_factors_of_sequence(tm, fib):
    assert len(factors(fib, 4, horizon=200)) == 5
    assert len(factors(tm, 3, horizon=1000)) == 6
    with pytest.raises(SpecError):
        factors(tm, 3)  # horizon required


def test_occurrences():
    b = Alphabet.binary()
    u4 = b.word("0110100110010110")
    # recomputed by brute force: the doubling word of size 16 contains its
    # 4-prefix at 0, 6 and 12
    hits = occurrences(u4, b.word("0110"))
    assert hits == [0, 6, 12]
    assert hits == oracles.occurrences(list(u4.codes), [0, 1, 1, 0])
    a = Alphabet.of("a")
    assert occurrences(a.word("aaaa"), a.word("aa")) == [0, 1, 2]
    with pytest.warns(UserWarning):
        assert occurrences(b.word("01"), Alphabet.of("2").word("2")) == []


def test_occurrences_complete_against_brute_force():
    rng = random.Random(7)
    b = Alphabet.binary()
    for _ in range(20):
        m = rng.randrange(10, 2000)
        hay = [rng.randrange(2) for _ in range(m)]
        nl = rng.randrange(1, 6)
        start = rng.randrange(0, m - nl)
        needle = hay[start:start + nl]  # guaranteed to occur
        got = occurrences(Word(b, tuple(hay)), Word(b, tuple(needle)))
        assert got == oracles.occurrences(hay, needle)


def test_agreement_length(tm, fib, p01):
    assert agreement_length(tm, tm, 100) is None
    assert agreement_length(tm, p01, 100) == 2
    # brute-force recomputation: fib = 01001..., doubling word = 01101...
    assert agreement_length(fib, tm, 100) == 2


def test_shift(tm, p01):
    assert prefix(shift(p01, 1), 4).text == "1010"
    assert prefix(shift(tm, 1), 5).text == "11010"
    s0 = shift(tm, 0)
    assert all(s0[i] == tm[i] for i in range(50))
    assert s0.certified_bound is None  # dropped on shift


def test_shift_composition(tm):
    rng = random.Random(11)
    for _ in range(5):
        a, b_ = rng.randrange(0, 100), rng.randrange(0, 100)
        n = rng.randrange(1, 1000)
        lhs = prefix(shift(shift(tm, a), b_), n)
        rhs = prefix(shift(tm, a + b_), n)
        assert lhs.codes == rhs.codes


def test_determinism_fresh_oracle(tm):
    # same family constructed twice: cache vs fresh evaluation agree
    fresh = G.thue_morse()
    idx = [0, 1, 5, 100, 999, 12345]
    assert [tm[i] for i in idx] == [fresh[i] for i in idx]
    # repeated reads of one instance agree with themselves
    assert [tm[i] for i in idx] == [tm[i] for i in idx]


def test_horizon_cap():
    x = G.periodic("01")
    x.horizon_cap = 100
    with pytest.raises(HorizonExhausted):
        x.prefix(101)
    assert x.prefix(100).text.startswith("0101")


def test_segment_invariant():
    with pytest.raises(SpecError):
        Segment(3, 2)
    with pytest.raises(SpecError):
        Segment(-1, 2)
    assert len(Segment(2, 5)) == 4


def test_concurrent_readers():
    import threading

    from apseq import transforms as T

    makers = (G.thue_morse, G.kolakoski,
              lambda: T.transduce(T.cyclic_transducer(G.BINARY, 3), G.thue_morse()),
              lambda: shift(G.thue_morse(), 10), lambda: G.with_prefix("221", G.kolakoski()),
              lambda: T.cyclic(G.thue_morse(), 3))
    for make in makers:
        x = make()
        want = make().prefix(20000).codes
        results, arrays = [None] * 8, [None] * 8
        def reader(slot):
            results[slot] = tuple(x.codes(20000)[:20000])
            n = 5000 * (slot % 4 + 1)  # views of the store while other threads read it
            arrays[slot] = x.prefix_array(n).copy()
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == want for r in results)
        assert all(a.tolist() == list(want[:a.size]) for a in arrays)


def test_views_read_while_the_store_grows():
    # a reader without the lock reads the filled count before the buffer, so
    # no view shows a position that growing the buffer has not copied yet
    import sys
    import threading

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for make in (G.thue_morse, lambda: G.with_prefix("0", G.fibonacci())) * 6:
            x, want = make(), np.array(make().codes(2 * 10**5))
            torn = []
            def reader(slot):
                for n in range(1 + 37 * slot, 2 * 10**5, 1500):
                    arr = x.prefix_array(n)
                    if arr[-1] != want[n - 1] or arr[n // 2] != want[n // 2]:
                        torn.append(n)
            threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert not torn
    finally:
        sys.setswitchinterval(switch)


def test_negative_index_is_refused(tm):
    with pytest.raises(IndexError):
        tm.code_at(-1)
    with pytest.raises(IndexError):
        tm[-3]


@pytest.mark.parametrize("make", [G.thue_morse, G.paperfolding,
                                  lambda: G.eventually_periodic("0010", "011")])
def test_prefix_array_after_growing_reads(make):
    x = make()
    early = []
    for n in (1, 4097, 70001):
        arr = x.prefix_array(n)
        assert arr.dtype == np.int64 and arr.size == n
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1
        assert np.array_equal(arr, np.array(x.codes(n)[:n]))
        early.append(arr)
    assert np.array_equal(x.prefix_array(70001), np.array(make().codes(70001)[:70001]))
    # arrays taken before the store grew still hold the same codes
    codes = x.codes(70001)
    for arr in early[:2]:
        assert arr.tolist() == codes[:arr.size]


def test_from_index_fn_serves_the_codes_before_a_failing_index():
    def fn(i):
        if i[-1] >= 5000:
            raise SpecError("no symbol at 5000")
        return i & 1
    x = Sequence.from_index_fn(Alphabet.binary(), fn)
    assert x.codes(5000)[:5000] == [i & 1 for i in range(5000)]
    for _ in range(2):
        with pytest.raises(SpecError, match="no symbol at 5000"):
            x.codes(5001)
    # a digit automaton whose state after a digit 1 outputs a symbol
    # outside its alphabet raises the alphabet's own error at index 1
    arcs = {("a", 0): "a", ("a", 1): "b", ("b", 0): "b", ("b", 1): "b"}
    y = G.automatic(G.DFAO(2, ("a", "b"), "a", arcs, {"a": "0", "b": "7"}, Alphabet.binary()))
    assert y.prefix(1).text == "0"
    with pytest.raises(SpecError, match="'7' not in alphabet"):
        y.prefix(2)


def test_from_index_fn_bisects_a_failing_block():
    calls = []

    def fn(i):
        calls.append(i.size)
        if i[-1] >= 4095:
            raise SpecError(f"no symbol at {i[i >= 4095][0]}")
        return i & 1
    x = Sequence.from_index_fn(Alphabet.binary(), fn)
    assert x.codes(4095)[:4095] == [i & 1 for i in range(4095)]
    assert len(calls) <= 16
    with pytest.raises(SpecError, match="no symbol at 4095"):
        x.codes(4096)
    assert calls[-1] == 1  # the failing index is read alone


# -- chunk-generator streams ------------------------------------------------------


def test_from_chunks_cuts_and_keeps_leftovers():
    pulls = []

    def chunks():
        for chunk in ([0] * 3000, [], [1] * 3000):
            pulls.append(len(chunk))
            yield chunk
    want = [0] * 3000 + [1] * 3000
    x = Sequence.from_chunks(Alphabet.binary(), chunks(), horizon_cap=5000)
    assert x.codes(1) == want[:4096] and pulls == [3000, 0, 3000]
    assert x.codes(4097) == want[:5000]
    x.horizon_cap = 10**4
    for _ in range(2):
        with pytest.raises(HorizonExhausted):
            x.codes(6001)
    assert x.codes(6000) == want


def test_from_chunks_stays_failed():
    def chunks():
        yield [1] * 5000
        raise ZeroDivisionError("boom")
    x = Sequence.from_chunks(Alphabet.binary(), chunks())
    assert x.codes(4096)[:4096] == [1] * 4096
    for _ in range(3):
        with pytest.raises(ZeroDivisionError):
            x.codes(5001)
    assert x.prefix(5000).codes == (1,) * 5000


def test_reads_of_produced_positions_succeed():
    # each stream stops or fails after its first few symbols; a first read
    # of those symbols succeeds and a read past them still raises
    from apseq import transforms as T

    B = G.BINARY
    erase = G.Morphism.from_rules(B, B, {"0": "", "1": "1"}, erasing_ok=True)
    collapsed = T.apply_morphism(erase, G.eventually_periodic("1", "0"))
    assert collapsed.prefix(1).text == "1"
    with pytest.raises(SpecError):
        collapsed.prefix(2)
    stalled = G.block_product_seq(["01"] * 5 + ["0"])
    assert stalled.prefix(1).text == "0"
    assert len(stalled.prefix(32)) == 32
    with pytest.raises(HorizonExhausted):
        stalled.prefix(33)
    tm = G.thue_morse()
    tm.horizon_cap = 5000
    shifted = shift(tm, 10)
    assert shifted.codes(4500)[:4500] == tm.codes(4510)[10:4510]
    assert len(shifted.codes(4990)) == 4990
    with pytest.raises(HorizonExhausted):
        shifted.codes(4991)


def _chunk_families():
    from apseq import transforms as T

    B = G.BINARY
    swap = G.Morphism.from_rules(B, B, {"0": "1", "1": "10"})
    coding = G.Morphism.from_rules(B, B, {"0": "1", "1": "1"})
    return {
        "mechanical": lambda: G.mechanical("2/7", "1/3", "upper"),
        "tm_morphic": lambda: G.thue_morse("morphic"),
        "fibonacci": G.fibonacci,
        "witness": lambda: G.aperiodicity_witness(5),
        "coded": lambda: G.morphic(G.Morphism.from_rules(B, B, {"0": "01", "1": "0"}),
                                   "0", coding),
        "keane": G.keane,
        "alternating_prefix": G.alternating_prefix_example,
        "scheme": lambda: G.scheme_generate(G.aperiodic_scheme(), mode="GAP", junk="0110"),
        "kolakoski": G.kolakoski,
        "alternating_morphic": lambda: G.alternating_morphic(G.kolakoski_system()),
        "random": lambda: G.random_sequence(B, 7),
        "morphism_image": lambda: T.apply_morphism(swap, G.thue_morse()),
        "transduce": lambda: T.transduce(T.cyclic_transducer(B, 3), G.thue_morse()),
        "split": lambda: T.split(G.thue_morse(), "0", 10**4),
        "pushdown": lambda: T.pushdown_transduce(T.counterexample_machine(),
                                                 G.alternating_prefix_example()),
        "periodic": lambda: G.periodic("0110101"),
        "eventually_periodic": lambda: G.eventually_periodic("0010", "011"),
        "shift": lambda: shift(G.kolakoski(), 4093),
        "with_prefix": lambda: G.with_prefix("0010", G.fibonacci()),
        "cyclic": lambda: T.cyclic(G.thue_morse(), 3),
        "digit_sum": lambda: G.thue_morse("digit_sum"),
        "toeplitz": lambda: G.toeplitz(G.ToeplitzPattern.from_text("10_1_")),
        "automatic": lambda: G.automatic(G.DFAO(
            3, ("x", "y"), "x", {("x", 0): "x", ("x", 1): "y", ("x", 2): "x",
                                 ("y", 0): "y", ("y", 1): "x", ("y", 2): "y"},
            {"x": "0", "y": "1"}, B)),
        "mechanical_invphi2": lambda: G.mechanical(G.inv_golden_sq(), G.inv_golden_sq()),
    }


_SCHEDULE_MAX = 9000
_fresh_reads = {}


@pytest.mark.parametrize("family", sorted(_chunk_families()))
@settings(max_examples=20, deadline=None)
@given(reads=st.lists(st.integers(0, _SCHEDULE_MAX), min_size=1, max_size=6),
       slack=st.integers(0, _SCHEDULE_MAX))
def test_read_schedules_match_one_fresh_read(family, reads, slack):
    make = _chunk_families()[family]
    if family not in _fresh_reads:
        _fresh_reads[family] = make().codes(_SCHEDULE_MAX)[:_SCHEDULE_MAX]
    want = _fresh_reads[family]
    x = make()
    x.horizon_cap = min(max(reads) + slack, _SCHEDULE_MAX) or 1
    for n in reads:
        assert x.codes(n)[:n] == want[:n]
