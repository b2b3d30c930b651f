import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from apseq import analysis as A
from apseq import generators as G
from apseq.core import Alphabet, Segment, Word
from apseq.errors import HorizonExhausted, SpecError

B = Alphabet.binary()


# -- complexity -----------------------------------------------------------------


def test_complexity_examples(tm, fib, p01):
    for n in range(1, 11):
        assert A.subword_complexity(fib, n, 2000) == n + 1
    assert A.subword_complexity(p01, 7, 400) == 2
    assert A.subword_complexity(tm, 3, 1000) == 6


def test_complexity_matches_brute_force(kolak):
    codes = kolak.codes(600)[:600]
    for n in (1, 2, 5, 9):
        assert A.subword_complexity(kolak, n, 600) == oracles.factor_count(codes, n)


# -- regulators -------------------------------------------------------------------


def test_empirical_regulator_examples(tm, p01):
    assert A.empirical_regulator(p01, 2, 1000).value == 3
    assert A.empirical_regulator(tm, 1, 10**4).value == 3
    ep = G.eventually_periodic("1", "0")
    rep = A.empirical_regulator(ep, 1, 1000)
    # the length-1 window misses "0" at position 0, so the true value is 2
    assert rep.value == 2
    assert [w.text for w in rep.finitely_occurring] == ["1"]


def test_empirical_regulator_equals_brute_force(tm, fib, kolak):
    for x in (tm, fib, kolak):
        codes = x.codes(800)[:800]
        for n in (1, 2, 3, 5):
            assert A.empirical_regulator(x, n, 800).value == \
                oracles.min_window(codes, n, 800)


def test_empirical_regulator_monotone_in_horizon(tm, fib, kolak, scheme_seq):
    for x in (tm, fib, kolak, scheme_seq):
        for n in (1, 3, 5):
            values = [A.empirical_regulator(x, n, h).value
                      for h in (2000, 10**4, 10**5)]
            assert values == sorted(values)


def test_certified_regulator_examples(tm, p01):
    assert A.certified_regulator(p01, 1).value == 2
    assert A.certified_regulator(p01, 2).value == 3
    assert A.certified_regulator(tm, 1).value == 3
    const = G.constant("0")
    for n in (1, 2, 7):
        assert A.certified_regulator(const, n).value == n
    with pytest.raises(SpecError):
        A.certified_regulator(G.fibonacci(), 1)  # no bound shipped


def test_certified_regulator_rejects_a_lying_bound(p01):
    lying = p01.with_bound(G.Bound(lambda n: n, "too tight"))
    with pytest.raises(SpecError, match="certified bound violated"):
        A.certified_regulator(lying, 1)


def test_certified_regulator_equals_brute_force(tm, p01, scheme_seq):
    for x, ns in ((p01, range(1, 7)), (tm, (1, 2, 3)), (scheme_seq, (1, 2))):
        codes = x.codes(3000)[:3000]
        for n in ns:
            assert A.certified_regulator(x, n).value == oracles.min_window(codes, n, 3000)


def test_empirical_le_exact_le_upper(tm, p01, scheme_seq):
    ep = G.eventually_periodic("01", "0")
    for x in (tm, p01, ep, scheme_seq):
        for n in range(1, 7):
            emp = A.empirical_regulator(x, n, 10**5).value
            exact = A.certified_regulator(x, n).value
            upper = A.certified_bound_report(x, n).value
            assert emp <= exact <= upper


def test_check_certified_bound(tm, p01):
    assert A.check_certified_bound(tm, 3, 10**4)
    assert A.check_certified_bound(p01, 2, 1000)
    lying = p01.with_bound(G.Bound(lambda n: n, "too tight"))
    assert not A.check_certified_bound(lying, 2, 1000)


# widest window whose base-k code fits in 62 bits; wider windows take the
# prefix-doubling path
CODE_WIDTH = {2: 62, 3: 39, 4: 31, 5: 26}


@st.composite
def _words_and_lengths(draw):
    """A word over k letters (a repeated block with a few letters changed,
    so that long factors recur) and a factor length n up to past twice the
    base-k code width, so that doubling takes more than one step; the word
    is at least 4 n long."""
    k = draw(st.sampled_from(sorted(CODE_WIDTH)))
    n = draw(st.integers(1, 2 * CODE_WIDTH[k] + 8))
    block = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=12))
    size = 4 * n + draw(st.integers(0, 40))
    codes = (block * size)[:size]
    for i, c in draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, k - 1)),
                              max_size=4)):
        codes[i] = c
    return k, codes, n


def _brute_regulator(codes, n):
    """Regulator of the whole list by the definition: a factor whose last
    start lies before the half is cut off past that start; every other one
    must occur in each window, i.e. the longest stretch holding none of its
    occurrences, plus one.  Also returns the cut-off factors, sorted."""
    h = len(codes)
    best, finite = n, []
    for u in sorted({tuple(codes[i:i + n]) for i in range(h - n + 1)}):
        pos = oracles.occurrences(codes, list(u))
        if pos[-1] < h // 2:
            best = max(best, pos[-1] + 1)
            finite.append(u)
        else:
            best = max(best, max(q - p for p, q in zip([-1] + pos, pos + [h - n + 1])) + n - 1)
    return best, finite


@settings(max_examples=80, deadline=None)
@given(_words_and_lengths())
def test_factor_statistics_match_brute_force_past_the_code_width(case):
    k, codes, n = case
    x = G.periodic(Word(Alphabet.of(*range(k)), tuple(codes)))
    h = len(codes)
    assert A.subword_complexity(x, n, h) == oracles.factor_count(codes, n)
    rep = A.empirical_regulator(x, n, h)
    assert (rep.value, [w.codes for w in rep.finitely_occurring]) == _brute_regulator(codes, n)


@st.composite
def _factor_word_cases(draw):
    """A sequence over 2-4 letters, random (a period as long as the
    horizon) or eventually periodic, and a factor length; both regulators
    apply to the eventually periodic ones, which carry a bound."""
    k = draw(st.integers(2, 4))
    letters = Alphabet.of(*range(k))
    n = draw(st.integers(1, 6))
    word = st.lists(st.integers(0, k - 1), min_size=1, max_size=40).map(
        lambda codes: Word(letters, tuple(codes)))
    if draw(st.booleans()):
        codes = draw(st.lists(st.integers(0, k - 1), min_size=4 * n, max_size=300))
        return G.periodic(Word(letters, tuple(codes))), n, len(codes)
    return G.eventually_periodic(draw(word), draw(word)), n, draw(st.integers(4 * n, 300))


@settings(max_examples=80, deadline=None)
@given(_factor_word_cases())
def test_finitely_occurring_words_are_built_when_read(case):
    x, n, h = case
    reports = [A.empirical_regulator(x, n, h)]
    if x.provenance.family == "eventually_periodic":
        reports.append(A.certified_regulator(x, n))
    for words in (rep.finitely_occurring for rep in reports):
        eager = [x.segment(Segment(int(s), int(s) + n - 1)) for s in words.starts]
        assert len(words) == len(eager) and list(words) == eager and words == eager
        assert (words == []) == (eager == []) and words != eager + [x.prefix(n)]
        assert words[1:] == eager[1:] and words[::-2] == eager[::-2] and words[:0] == []
        if eager:
            assert words[0] == eager[0] and words[-1] == eager[-1]
            assert sorted(w.codes for w in words) == [w.codes for w in eager]


def test_large_n_path_runs_only_past_the_code_width(monkeypatch, kolak, x5):
    # the benchmark's analysis.large_n_s times the calls reaching this name;
    # kolakoski n=64 and the k=5 witness n=30 are its large-n jobs
    calls = []
    slow = A._factor_groups_slow
    monkeypatch.setattr(A, "_factor_groups_slow", lambda *a: calls.append(a) or slow(*a))
    for n in range(1, 63):
        A.subword_complexity(kolak, n, 400)
    assert calls == []
    A.subword_complexity(kolak, 64, 400)
    assert len(calls) == 1
    A.subword_complexity(x5, 30, 400)
    assert len(calls) == 2


def _widest(k, bound):
    """The widest window whose base-k code stays within bound."""
    return max(w for w in range(1, 64) if k**w <= bound)


@st.composite
def _window_cases(draw):
    """Codes over k = 2..5 letters and a window length n at, beside or
    between the uint32 limit and the 2**62 code width, or past the width;
    the horizon is often exactly n."""
    k = draw(st.integers(2, 5))
    w32, w62 = _widest(k, 2**32), _widest(k, 2**62)
    n = draw(st.sampled_from([1, w32 - 1, w32, w32 + 1, w62, w62 + 1, 2 * w62 + 3])
             | st.integers(1, w62 + 8))
    size = n + draw(st.just(0) | st.integers(1, 60))
    return k, n, draw(st.lists(st.integers(0, k - 1), min_size=size, max_size=size))


@settings(max_examples=300, deadline=None)
@given(_window_cases())
def test_window_ids_are_base_k_codes_up_to_the_width(case):
    k, n, codes = case
    ids = A._window_ids(np.array(codes, dtype=np.uint8), n, k)
    windows = [tuple(codes[i:i + n]) for i in range(len(codes) - n + 1)]
    narrow = n <= _widest(k, 2**62) and k**n <= 2**32
    assert ids.dtype == (np.uint32 if narrow else np.int64) and ids.size == len(windows)
    if n <= _widest(k, 2**62):
        assert ids.tolist() == [sum(c * k ** (n - 1 - j) for j, c in enumerate(w))
                                for w in windows]
    else:   # prefix doubling: ids ordered like the windows, equal when they are
        place = {w: r for r, w in enumerate(sorted(set(windows)))}
        assert np.unique(ids, return_inverse=True)[1].tolist() == [place[w] for w in windows]


def _packing_tops(size):
    """The largest ids just below and at the limits of the keys id << b |
    position of analysis._runs, b the bit length of size - 1: 2**(32 - b)
    for uint32 keys and 2**(63 - b) for int64 ones, past which ids are
    re-ranked by np.unique."""
    b = (size - 1).bit_length()
    return [2**(32 - b) - 1, 2**(32 - b), 2**(63 - b) - 1, 2**(63 - b), 2**(63 - b) + 1]


@st.composite
def _packed_ids(draw):
    """Ids with repeats whose largest value lies at a packing limit or
    below three times their number, or a single distinct id; uint32 or
    int64 when they fit, as window ids."""
    size = draw(st.integers(2, 300))
    top = draw(st.sampled_from(_packing_tops(size)) | st.integers(0, 3 * size))
    values = draw(st.lists(st.integers(0, top), max_size=8)) + [top]
    ids = draw(st.lists(st.sampled_from(values), min_size=size, max_size=size))
    ids[draw(st.integers(0, size - 1))] = top
    return np.array(ids, dtype=draw(st.sampled_from([np.uint32, np.int64]))
                    if top < 2**32 else np.int64)


@settings(max_examples=300, deadline=None)
@given(_packed_ids())
def test_id_groups_match_a_plain_oracle(ids):
    groups = A._id_groups(ids)
    assert all(a.dtype == np.intp for a in groups)
    assert list(zip(*(a.tolist() for a in groups))) == oracles.id_groups(ids.tolist())


@st.composite
def _double_cases(draw):
    """Ids whose largest value lies just below, at or far past twice their
    number (the presence table ranks the first, the packed keys of
    analysis._runs or np.unique the others), at a packing limit, or a
    single distinct id; uint8 when they fit, as the codes of a prefix."""
    size = draw(st.integers(2, 200))
    top = draw(st.sampled_from([2 * size - 1, 2 * size, 2**40, *_packing_tops(size)])
               | st.integers(0, 3 * size))
    if draw(st.booleans()):
        ids = [top] * size
    else:
        ids = draw(st.lists(st.integers(0, top), min_size=size, max_size=size))
        ids[draw(st.integers(0, size - 1))] = top
    dtype = draw(st.sampled_from([np.uint8, np.int64])) if top < 256 else np.int64
    return np.array(ids, dtype=dtype), draw(st.integers(1, size - 1))


@settings(max_examples=300, deadline=None)
@given(_double_cases())
def test_double_ranks_like_unique(case):
    ids, step = case
    uniq, inverse = np.unique(ids, return_inverse=True)
    rank, joined = A._double(ids, step)
    assert rank.dtype == inverse.dtype and rank.tolist() == inverse.tolist()
    assert joined.tolist() == (inverse[:-step] * uniq.size + inverse[step:]).tolist()


def test_prefix_regulator(tm, fib, p01):
    assert A.prefix_regulator(p01, 2, 1000) == 3
    const = G.constant("0")
    for n in (1, 2, 5):
        assert A.prefix_regulator(const, n, 500) == n
    for x in (fib, tm):
        for n in (1, 2, 4, 8):
            assert A.prefix_regulator(x, n, 10**5) <= \
                A.empirical_regulator(x, n, 10**5).value
    never = G.eventually_periodic("1", "0")
    with pytest.raises(HorizonExhausted):
        A.prefix_regulator(never, 1, 1000)


def test_stabilization_prefix_exact_on_eventually_periodic_words():
    assert A.stabilization_prefix(G.eventually_periodic("1", "0"), 5, 1000) == 5
    assert A.stabilization_prefix(G.eventually_periodic("11", "0"), 3, 1000) == 4
    assert A.stabilization_prefix(G.periodic("011"), 4, 1000) == 0


@settings(max_examples=60, deadline=None)
@given(pre=st.text("01", min_size=1, max_size=12), period=st.text("01", min_size=1, max_size=6),
       max_len=st.integers(1, 6))
def test_stabilization_prefix_equals_brute_force(pre, period, max_len):
    # at this horizon every finite factor ends in the first half, and every
    # recurring one occurs again in the second
    x = G.eventually_periodic(pre, period)
    horizon = 4 * (len(pre) + len(period) + max_len)
    assert A.stabilization_prefix(x, max_len, horizon) == \
        oracles.stabilization_prefix(pre, period, max_len)


def test_ap_coefficient(fib, p01):
    rep = A.ap_coefficient(p01, 10, 10**4)
    assert rep.max_ratio <= 2
    assert all(v == 2 for v in rep.rd.values())
    rep = A.ap_coefficient(fib, 12, 10**5)
    assert rep.rd[1] == 3  # the length-1 spacing of the golden word


# -- balance ------------------------------------------------------------------------


def test_balance(fib, tm):
    assert A.is_balanced(fib, 20, 10**4).balanced
    rep = A.is_balanced(tm, 8, 10**4)
    assert not rep.balanced and rep.n <= 4
    assert abs(rep.high.count("1") - rep.low.count("1")) == rep.spread >= 2
    with pytest.raises(SpecError):
        A.is_balanced(G.aperiodicity_witness(3), 4, 500)


def test_balance_constant_binary():
    zeros = G.periodic(B.word("00"))
    assert A.is_balanced(zeros, 10, 400).balanced


# -- powers -------------------------------------------------------------------------


def test_powers_squares_periodic(p01):
    occs = A.detect_powers(p01, 60, "square")
    assert set(oracles.squares(p01.codes(60)[:60], 30)) == set(occs)
    assert all((pos, 2) in occs for pos in range(0, 40, 2))


def test_powers_avoidance_small(tm):
    assert A.detect_powers(tm, 2000, "cube") == []
    assert A.detect_powers(tm, 2000, "overlap") == []
    # squares do occur in the doubling word
    assert A.detect_powers(tm, 100, "square", max_period=4)


def test_powers_shapes():
    x = G.periodic("001")
    # overlap auaua with a=0, u=01: "0010010" sits at every third position
    occs = A.detect_powers(x, 50, "overlap")
    assert any(ul == 2 for _, ul in occs)
    with pytest.raises(SpecError):
        A.detect_powers(x, 2, "square")
    with pytest.raises(SpecError):
        A.detect_powers(x, 100, "banana")


KINDS = ("square", "cube", "overlap")


@st.composite
def _power_cases(draw):
    """A word over 2-4 letters of length 4-300 (a repeated block with a few
    letters changed, so that long runs of one period occur; a block as long
    as the word makes it random), a kind, a period cap and a limit."""
    k = draw(st.integers(2, 4))
    size = draw(st.integers(4, 300))
    block = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=size))
    codes = (block * size)[:size]
    for i, c in draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, k - 1)),
                              max_size=6)):
        codes[i] = c
    return (k, codes, draw(st.sampled_from(KINDS)),
            draw(st.none() | st.integers(1, size)), draw(st.none() | st.integers(0, 60)))


@settings(max_examples=120, deadline=None)
@given(_power_cases())
def test_powers_match_the_oracle(case):
    k, codes, kind, max_period, limit = case
    x = G.periodic(Word(Alphabet.of(*range(k)), tuple(codes)))
    expected = oracles.powers(codes, kind, max_period)
    assert A.detect_powers(x, len(codes), kind, max_period, limit) == expected[:limit]


@pytest.mark.parametrize("block", ["0", "001"])
def test_powers_of_long_runs(block):
    # every multiple of the block's period is a period of the whole
    # horizon, so the occurrences grow with the square of the horizon
    x = G.periodic(block)
    codes = x.prefix_array(240).tolist()
    for kind in KINDS:
        assert A.detect_powers(x, 240, kind) == oracles.powers(codes, kind)
    if block == "0":
        assert len(A.detect_powers(x, 240, "square")) == 120 ** 2


def test_powers_across_many_blocks(monkeypatch, tm, fib, kolak):
    # 16 samples to a block: a limit falls inside, at the end of and past
    # the last block
    monkeypatch.setattr(A, "_POWER_BLOCK", 16)
    for x in (G.periodic("0"), G.periodic("0110"), tm, fib, kolak):
        codes = x.prefix_array(200).tolist()
        for kind in KINDS:
            expected = oracles.powers(codes, kind)
            for limit in (None, 1, 17, 100, len(expected), len(expected) + 1):
                assert A.detect_powers(x, 200, kind, limit=limit) == expected[:limit]


def _planted_runs(k, p, length, h, rng):
    """A random word over k letters of length h with stretches of exactly
    length positions j where x[j] = x[j + p]: one at 0, one inside, one
    ending at h - p."""
    codes = [rng.randrange(k) for _ in range(h)]
    for a in (0, h // 2 + rng.randrange(p), h - p - length):
        for j in range(a, a + length):
            codes[j + p] = codes[j]
        if a + length + p < h:
            codes[a + length + p] = (codes[a + length] + 1) % k
        if a > 0:
            codes[a - 1] = (codes[a - 1 + p] + 1) % k
    return codes


@pytest.mark.parametrize("kind", KINDS)
def test_power_level_filter_edges_match_the_oracle(monkeypatch, kind):
    # one period to a block, so that the filter reads the widest level 2**j
    # with 2**(j + 1) <= need; runs one short of need, of need and one
    # longer, for periods whose need is at or beside a power of two, where
    # the kept sample may lie less than 2**j from either end of its run
    monkeypatch.setattr(A, "_POWER_BLOCK", 1)
    rng = random.Random(kind)
    for j in (2, 3, 4, 5, 6):
        for p in (2**j - 1, 2**j, 2**j + 1):
            need = {"square": p, "cube": 2 * p, "overlap": p + 1}[kind]
            for length in (need - 1, need, need + 1):
                h = rng.randrange(1000, 2001)
                codes = _planted_runs(3, p, length, h, rng)
                x = G.periodic(Word(Alphabet.of(0, 1, 2), tuple(codes)))
                assert A.detect_powers(x, h, kind, max_period=p) == \
                    oracles.powers(codes, kind, p)


def test_powers_limit_reached_in_a_later_block():
    # at this horizon the samples of period 1 fill the first block alone
    h = 5 * 10**4
    occs = A.detect_powers(G.periodic("0"), h, "square", limit=h + 9)
    assert occs == [(i, 1) for i in range(h - 1)] + [(i, 2) for i in range(10)]
    occs = A.detect_powers(G.periodic("01"), h, "square", limit=h)
    assert occs == [(i, 2) for i in range(h - 3)] + [(i, 4) for i in range(3)]


def test_powers_limit_zero_and_negative():
    x = G.periodic("0")
    assert A.detect_powers(x, 20, "square", limit=0) == []
    assert A.detect_powers(x, 20, "square", limit=1) == [(0, 1)]
    with pytest.raises(SpecError):
        A.detect_powers(x, 20, "square", limit=-1)


# -- shift-mismatch measures -----------------------------------------------------------


def test_besicovitch_zero(tm):
    assert A.besicovitch_density(tm, tm, 5000) == 0
    assert A.besicovitch_density(tm, G.thue_morse("digit_sum"), 5000) == 0


def test_am_small(tm):
    rep = A.am_estimate(tm, 16, 2**12)
    assert Fraction(1, 4) < rep.minimum < Fraction(2, 5)
    assert set(rep.per_shift) == set(range(1, 17))


# -- frequencies ------------------------------------------------------------------------


def test_frequency(fib, p01):
    w0 = fib.alphabet.word("0")
    rep = A.frequency(fib, w0, 0, 20)
    assert rep.count == 13 and rep.density == Fraction(13, 21)
    for k in (1, 5, 50):
        rep = A.frequency(p01, p01.alphabet.word("0"), 0, 2 * k - 1)
        assert rep.density == Fraction(1, 2)
    rep = A.frequency(p01, p01.alphabet.word("01"), 0, 9)
    assert rep.count == 5  # starts at even positions 0..8


def test_cesaro(tm):
    curve = A.cesaro_estimate(tm, tm.alphabet.word("1"), 10**5)
    t_last, d_last = curve[-1]
    assert t_last == 10**5 and abs(float(d_last) - 0.5) < 0.01


# -- entropy -------------------------------------------------------------------------------


def test_entropy(p01, tm):
    assert A.entropy_estimate(p01, 2, 1000) == pytest.approx(0.5)
    assert A.entropy_estimate(p01, 10, 1000) <= 0.1
    e8 = A.entropy_estimate(tm, 8, 10**5)
    e20 = A.entropy_estimate(tm, 20, 10**6)
    assert e20 < e8 and e20 <= 0.35
    rand = G.random_sequence(B, 2024)
    assert A.entropy_estimate(rand, 8, 10**6) == pytest.approx(1.0, abs=0.05)


# -- word periodicities ---------------------------------------------------------------------


def test_quasiperiods_examples():
    w = G.word_from_text("abaaba")
    rep = A.quasiperiods(w)
    assert rep.minimal.text == "aba"
    assert {q.text for q in rep.quasiperiods} == {"aba", "abaaba"}
    only_self = A.quasiperiods(G.word_from_text("ab"))
    assert [q.text for q in only_self.quasiperiods] == ["ab"]
    assert only_self.proper == []


def test_quasiperiods_fibonacci_prefix(fib):
    rep = A.quasiperiods(fib.prefix(13))
    assert rep.proper  # the golden word has proper covers


def test_quasiperiods_match_oracle_random():
    rng = random.Random(31)
    sampled = ("".join(rng.choice("ab") for _ in range(rng.randrange(1, 13))) for _ in range(200))
    every = ("".join(t) for m in range(1, 13) for t in itertools.product("ab", repeat=m))
    for text in itertools.chain(sampled, every):
        got = {q.text for q in A.quasiperiods(G.word_from_text(text)).quasiperiods}
        assert got == set(oracles.quasiperiods(text)), text


def test_tiling_examples():
    u = G.word_from_text("0011")
    assert A.is_tiling_period(u, "0_1")
    assert A.is_tiling_period(G.word_from_text("00"), "0")
    assert not A.is_tiling_period(G.word_from_text("01"), "0")
    assert A.is_tiling_period(u, "0011")
    periods = A.tiling_periods(u)
    assert [A.pattern_text(t, u.alphabet) for t in periods] == ["0_1", "0011"]


def test_tiling_found_patterns_verify():
    rng = random.Random(17)
    for _ in range(60):
        m = rng.randrange(1, 11)
        w = Word(B, tuple(rng.randrange(2) for _ in range(m)))
        for slots in A.tiling_periods(w):
            assert A.is_tiling_period(w, slots)


# -- multigrade partition ---------------------------------------------------------------------


def test_prouhet():
    rep = A.prouhet_partition(4)
    assert rep.zero_power_sums == rep.one_power_sums
    assert rep.zero_power_sums[1] == 60
    assert rep.zero_power_sums[2] == sum(i * i for i in rep.zeros)
    one = A.prouhet_partition(1)
    assert one.zeros == [0] and one.ones == [1]
    assert one.zero_power_sums == one.one_power_sums == [1]


# -- screen -------------------------------------------------------------------------------------


def test_screen(fib):
    rep = A.periodicity_screen(G.periodic("011"), 2000)
    assert rep.confirmed and rep.period == 3 and rep.preperiod == 0
    assert A.periodicity_screen(fib, 4000, n_max=12).triggered_at is None
    rep = A.periodicity_screen(G.eventually_periodic("10", "01"), 2000)
    assert rep.confirmed and (rep.preperiod, rep.period) == (2, 2)
    codes = G.eventually_periodic("10", "01").codes(2000)[:2000]
    assert (rep.preperiod, rep.period) == oracles.eventual_period(codes)
    # p(12) = 12 triggers, but period 12 does not fit in a quarter of 40 symbols
    rep = A.periodicity_screen(G.periodic("0" * 11 + "1"), 40)
    assert (rep.triggered_at, rep.preperiod, rep.period, rep.confirmed) == (12, None, None, False)


# -- progression witnesses ----------------------------------------------------------------------


def test_progression_witness(p01):
    w = p01.alphabet.word("01")
    found = A.progression_witness(p01, w, 4000)
    assert found is not None
    a, d = found
    assert a % 2 == 0 and d % 2 == 0
    rare = G.eventually_periodic("1", "0")
    assert A.progression_witness(rare, rare.alphabet.word("1"), 4000) is None
