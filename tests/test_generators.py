import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from apseq import analysis as A
from apseq import generators as G
from apseq.core import Alphabet, Word, agreement_length
from apseq.errors import GenerationStuck, HorizonExhausted, PrecisionExhausted, SpecError

B = Alphabet.binary()


# -- periodic families -------------------------------------------------------


def test_periodic(p01):
    assert p01.prefix(6).text == "010101"
    assert p01.certified_bound(2) == 3
    with pytest.raises(SpecError):
        G.periodic("")


def test_certified_regulator_value_matches_brute_force(p01):
    # the periodic bound is tight enough for the exact algorithm
    assert A.certified_regulator(p01, 2).value == oracles.min_window(p01.codes(400)[:400], 2, 400)


def test_eventually_periodic():
    ep = G.eventually_periodic("1", "0")
    assert ep.prefix(5).text == "10000"
    # sound window: straddling the preperiod needs pre + n + period - 1
    assert ep.certified_bound(1) == 2
    assert A.check_certified_bound(ep, 1, 4000)
    tricky = G.eventually_periodic("2", "01")
    assert tricky.certified_bound(1) == 3  # max-form would give 2 and be violated
    assert A.check_certified_bound(tricky, 1, 4000)


# -- doubling construction ---------------------------------------------------


def test_thue_morse_printed_prefix(tm):
    assert tm.prefix(32).text == "01101001100101101001011001101001"


def test_thue_morse_digit_sum_value():
    t = G.thue_morse("digit_sum")
    assert t[5] == "0"  # binary digit sum of 5 is 2


def test_thue_morse_definitions_agree(tm):
    for d in ("digit_sum", "morphic"):
        assert agreement_length(tm, G.thue_morse(d), 10**5) is None


def test_thue_morse_definitions_agree_with_the_bit_count_in_uneven_reads():
    n = 2**21 + 17
    want = (np.bitwise_count(np.arange(n)) & 1).tolist()
    steps = [1, 4095, 4097, 1, 12345, 2**16 + 3, 2**20 - 5, 2**20 + 1]
    for d in ("recurrence", "digit_sum", "morphic"):
        x, read = G.thue_morse(d), 0
        for step in steps + [n]:
            read = min(read + step, n)
            assert x.codes(read)[:read] == want[:read], (d, read)


def test_thue_morse_bound_margin(tm):
    # measured regulator reaches 9 at n=2 and 43 at n=8: one doubling level
    # above the 4*2^m window is required and suffices
    for n in range(1, 13):
        rep = A.empirical_regulator(tm, n, 10**5)
        assert rep.value <= tm.certified_bound(n)
    assert tm.certified_bound(2) == 16
    assert A.empirical_regulator(tm, 2, 10**5).value == 9


# -- mechanical ---------------------------------------------------------------


def test_mechanical_golden(fib):
    mech = G.mechanical(G.inv_golden_sq(), G.inv_golden_sq(), "lower")
    assert mech.prefix(21).text == "010010100100101001010"
    assert agreement_length(fib, mech, 10**4) is None


def test_mechanical_rational():
    assert G.mechanical("0", "0").prefix(5).text == "00000"
    assert G.mechanical("1/2", "0").prefix(6).text == "010101"
    assert G.mechanical("1/2", "0", "upper").prefix(6).text == "101010"
    with pytest.raises(SpecError):
        G.mechanical("3/2", "0")
    with pytest.raises(SpecError):
        G.mechanical("1/2", "1")


def test_mechanical_precision_budget():
    # adversarial oracle straddling the integer 1 never lets a floor settle
    from fractions import Fraction
    stuck = G.RealParam(oracle=lambda eps: (1 - Fraction(eps) / 2, 1 + Fraction(eps) / 2),
                        name="straddles-one")
    x = G.mechanical(stuck, G.RealParam.of(0), "lower")
    with pytest.raises(PrecisionExhausted):
        x.prefix(1)


# -- morphic engine ------------------------------------------------------------


def test_morphic_fixed_points(fib):
    phi = G.Morphism.from_rules(B, B, {"0": "01", "1": "10"})
    assert G.morphic(phi, "0").prefix(16).text == "0110100110010110"
    psi = G.Morphism.from_rules(B, B, {"0": "01", "1": "0"})
    assert G.morphic(psi, "0").prefix(8).text == "01001010"
    a = Alphabet.of("a")
    ident = G.Morphism.identity(a)
    assert G.morphic(ident, "a").prefix(6).text == "aaaaaa"


def test_morphic_with_coding():
    # doubling construction seen through a relabeling
    phi = G.Morphism.from_rules(B, B, {"0": "01", "1": "10"})
    ab = Alphabet.of("a", "b")
    coding = G.Morphism.from_rules(B, ab, {"0": "a", "1": "b"})
    x = G.morphic(phi, "0", coding)
    assert x.prefix(8).text == "abbabaab"
    with pytest.raises(SpecError):
        G.morphic(phi, "0", G.Morphism.from_rules(B, B, {"0": "01", "1": "1"}))


def test_morphic_errors():
    phi = G.Morphism.from_rules(B, B, {"0": "10", "1": "01"})
    with pytest.raises(SpecError):
        G.morphic(phi, "0")  # not prolongable
    erasing = G.Morphism.from_rules(B, B, {"0": "01", "1": ""}, erasing_ok=True)
    with pytest.raises(SpecError):
        G.morphic(erasing, "0")  # remainder letters all mortal
    abc = Alphabet.of("0", "1", "2")
    ok = G.Morphism.from_rules(abc, abc, {"0": "012", "1": "", "2": "2"}, erasing_ok=True)
    assert G.morphic(ok, "0").prefix(6).text == "012222"
    with pytest.raises(SpecError):
        G.Morphism.from_rules(B, B, {"0": "01", "1": ""})  # erasing needs the flag


def test_mortality():
    abc = Alphabet.of("a", "b", "c")
    phi = G.Morphism.from_rules(abc, abc, {"a": "b", "b": "", "c": "ca"},
                                erasing_ok=True)
    assert phi.mortal_letters() == {"a", "b"}


# -- automatic -----------------------------------------------------------------


def _parity_dfao():
    return G.DFAO(2, ("e", "o"), "e",
                  {("e", 0): "e", ("e", 1): "o", ("o", 0): "o", ("o", 1): "e"},
                  {"e": "0", "o": "1"}, B)


def _powers_of_two_dfao():
    return G.DFAO(2, ("z", "zero", "one", "dead"), "z",
                  {("z", 0): "zero", ("z", 1): "one",
                   ("zero", 0): "dead", ("zero", 1): "dead",
                   ("one", 0): "one", ("one", 1): "dead",
                   ("dead", 0): "dead", ("dead", 1): "dead"},
                  {"z": "0", "zero": "0", "one": "1", "dead": "0"}, B)


def test_automatic_doubling(tm):
    x = G.automatic(_parity_dfao())
    assert x.prefix(32).text == tm.prefix(32).text


def test_automatic_powers_of_two():
    x = G.automatic(_powers_of_two_dfao())
    # 1 exactly at the binary weights 1, 2, 4, 8, ...
    expect = "".join("1" if i > 0 and (i & (i - 1)) == 0 else "0" for i in range(16))
    assert x.prefix(16).text == expect == "0110100010000000"


def test_automatic_constant():
    d = G.DFAO(2, ("q",), "q", {("q", 0): "q", ("q", 1): "q"}, {"q": "7"},
               Alphabet.of("7"))
    assert G.automatic(d).prefix(5).text == "77777"


# -- block products --------------------------------------------------------------


def test_block_product_word():
    u, v = B.word("01"), B.word("01")
    assert G.block_product_word(u, v).text == "0110"
    assert G.block_product_word(u, Word(B, ())).text == ""


def test_block_product_algebra():
    rng = random.Random(3)
    for _ in range(25):
        u = Word(B, (0,) + tuple(rng.randrange(2) for _ in range(rng.randrange(7))))
        v = Word(B, tuple(rng.randrange(2) for _ in range(rng.randrange(8))))
        w = Word(B, tuple(rng.randrange(2) for _ in range(rng.randrange(8))))
        lhs = G.block_product_word(u, v + w)
        rhs = G.block_product_word(u, v) + G.block_product_word(u, w)
        assert lhs.codes == rhs.codes  # right distributivity
        lhs = G.block_product_word(u, G.block_product_word(v, w))
        rhs = G.block_product_word(G.block_product_word(u, v), w)
        assert lhs.codes == rhs.codes  # associativity


def test_keane_printed_prefix():
    assert G.keane().prefix(25).text == "0010011100010011101101100"


def test_block_product_seq_equals_iterated_products():
    for blocks in (["001"], ["001", "0111"], ["01", "0110", "011"]):
        x = G.block_product_seq(blocks)
        words = [G.word_from_text(b, B) for b in blocks]
        w = words[0]
        for level in range(1, 9):
            w = G.block_product_word(w, words[min(level, len(words) - 1)])
            assert x.prefix(len(w)) == w, (blocks, level)


def test_block_product_seq_validation():
    with pytest.raises(SpecError):
        G.block_product_seq(["01", "10"]).prefix(8)  # later block starts with 1
    with pytest.raises(SpecError):
        G.block_product_seq(["01", "00"], assert_both_letters=True).prefix(8)


def test_alternating_prefix_imbalance():
    # |u_m|_0 - |u_m|_1 alternates sign with magnitude 2^m
    u = B.word("001")
    block = B.word("0111")
    for m in range(0, 7):
        w = u
        for _ in range(m):
            w = G.block_product_word(w, block)
        assert w.count("0") - w.count("1") == (-1) ** m * 2 ** m
    ape = G.alternating_prefix_example()
    stream = G.block_product_seq(["001", "0111"])
    assert agreement_length(ape, stream, 10**4) is None


# -- schemes -----------------------------------------------------------------------


def test_scheme_validate_ok():
    assert G.scheme_validate(G.doubling_scheme(), 5) == []
    assert G.scheme_validate(G.pair_alternation_scheme(), 4) == []
    assert G.scheme_validate(G.aperiodic_scheme(), 4) == []


def test_scheme_validate_violations():
    # wrong length at level 2
    def bad_level(n):
        l = 2 ** n
        words = (Word(B, (0,) * l), Word(B, (1,) * (l + (1 if n == 2 else 0))))
        return l, words
    bad = G.Scheme(B, bad_level)
    viols = G.scheme_validate(bad, 3)
    assert any(v.level == 2 and v.condition == 1 for v in viols)

    # pair set missing a block in second position
    def bad_gap(n):
        l = 2 * 3 ** n
        a = Word(B, (0, 1) * (l // 2))
        b = a.complement()
        pairs = (a + b,)  # b never appears as the second half
        return l, (a, b), pairs
    viols = G.scheme_validate(G.Scheme(B, bad_gap), 1)
    assert any(v.condition == 2 and "second" in v.message for v in viols)

    # straddling pair of a level-1 pair word escapes the level-0 pair set
    good = G.pair_alternation_scheme()

    def bad_straddle(n):
        ln, bn, cn = good.level(n)
        if n == 1:
            a, b = bn
            return ln, bn, (a + a, b + b)  # middles (01,01),(10,10) not in C_0
        return ln, bn, cn
    viols = G.scheme_validate(G.Scheme(B, bad_straddle), 1)
    assert any(v.condition == 4 for v in viols)


def test_scheme_validate_block_set_and_pair_word_shapes():
    empty = G.scheme_validate(G.Scheme(B, lambda n: (1, ())), 1)
    assert [(v.level, v.condition, v.message) for v in empty] == [
        (0, 1, "empty block set"), (1, 1, "empty block set")]
    good = G.pair_alternation_scheme()

    def with_level0_pair(text):
        def level(n):
            ln, bn, cn = good.level(n)
            return (ln, bn, (*cn, B.word(text))) if n == 0 else (ln, bn, cn)
        return [str(v) for v in G.scheme_validate(G.Scheme(B, level), 1)]
    assert "level 0, condition (2): pair word '011' is not two blocks long" \
        in with_level0_pair("011")
    assert "level 0, condition (2): pair word '0001' has a half outside the block set" \
        in with_level0_pair("0001")


def test_scheme_generate_doubling_matches_doubling_word(tm):
    x = G.scheme_generate(G.doubling_scheme())
    assert agreement_length(x, tm, 10**4) is None
    for n in range(1, 9):
        xf = {w.codes for w in x.prefix(4000).factors(n)}
        tf = {w.codes for w in tm.prefix(4000).factors(n)}
        assert xf == tf


def test_scheme_generate_constant():
    zeros = G.substitution_scheme("ap", B, {"0": "0"}, {"0": "00"}, name="zeros")
    x = G.scheme_generate(zeros)
    assert x.prefix(64).text == "0" * 64


def test_scheme_generate_policies():
    sch = G.choice_scheme()
    lex = G.scheme_generate(sch, policy="lex")
    rnd = G.scheme_generate(sch, policy="random", seed=42)
    rnd2 = G.scheme_generate(sch, policy="random", seed=42)
    assert rnd.prefix(500).codes == rnd2.prefix(500).codes  # seeded determinism
    assert lex.prefix(5).text == "00110"
    # only level 0 of the choice scheme offers a choice; the callback takes the other one
    cb = G.scheme_generate(sch, policy=lambda level, cands: cands[-1])
    assert cb.prefix(5).text == "11001"
    assert G.scheme_validate(sch, 3) == []
    # three whole levels of each chain
    least = ("00110001101100111001001100011000110110011100100110110011100100"
             "110001101100111001110010011000110110010011000110110011100100110")
    assert lex.prefix(125).text == least
    assert rnd.prefix(125).text == least
    assert cb.prefix(125).text == ("11001110010011000110110011100111001001100011011001001100011011"
                                   "001110010011000110001101100111001001101100111001001100011011001")


def test_choice_scheme_offers_a_choice_at_level_0_only():
    # w_n(a) begins with w_{n-1}(a), so the chain is forced after level 0
    seen = []

    def log(level, cands):
        seen.append((level, len(cands)))
        return cands[0]

    G.scheme_generate(G.choice_scheme(), policy=log).prefix(5)
    assert seen == [(0, 2), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1)]


def test_scheme_generate_stuck():
    # every chain dies at level 2: the only level-2 word extends no
    # level-1 word
    def level(n):
        if n == 0:
            return 1, (Word(B, (0,)),)
        if n == 1:
            return 2, (Word(B, (0, 1)),)
        return 2 ** n, (Word(B, (1,) * 2 ** n),)
    with pytest.raises(GenerationStuck):
        G.scheme_generate(G.Scheme(B, level)).prefix(4)


def test_pair_scheme_generation_builds_no_pair_word(monkeypatch):
    built, add = [], Word.__add__

    def counting_add(u, v):  # pair words are the concatenations of two level words
        built.append(len(u) + len(v))
        return add(u, v)

    monkeypatch.setattr(Word, "__add__", counting_add)
    sch = G.pair_alternation_scheme()
    x = G.scheme_generate(sch)
    # the chain runs on code arrays: reading the output builds no Word at all
    made, of, check = [], Word._of, Word.__post_init__
    monkeypatch.setattr(Word, "_of", classmethod(lambda cls, a, c: made.append(len(c)) or of(a, c)))
    monkeypatch.setattr(Word, "__post_init__", lambda w: made.append(len(w.codes)) or check(w))
    assert x.codes(1_500_000)[:12] == [0, 1, 1, 0] * 3
    assert built == []
    assert made == []
    # validation reads the pair words, and still finds no violation
    assert G.scheme_validate(sch, 4) == []
    assert built and {len(c) for c in sch.level(3)[2]} == {2 * sch.length(3)}


def test_scheme_outputs_match_the_substitution_oracle():
    # each chain limit is a substitution fixed point; the pair scheme's is
    # coded letter by letter through its level-0 words 01 and 10
    letters = oracles.fixed_point([[0, 1, 0], [1, 0, 1]], 0, 708_588)
    pair = [c for a in letters for c in ((0, 1), (1, 0))[a]]
    assert G.scheme_generate(G.pair_alternation_scheme()).prefix_array(1_417_176).tolist() == pair
    ape = oracles.fixed_point([[0, 0, 1, 0], [0, 1, 0, 0]], 0, 200_000)
    assert G.scheme_generate(G.aperiodic_scheme()).prefix_array(200_000).tolist() == ape
    gap = G.scheme_generate(G.aperiodic_scheme(), mode="GAP", junk="0110")
    assert gap.prefix_array(200_004).tolist() == [0, 1, 1, 0] + ape
    dbl = oracles.fixed_point([[0, 1], [1, 0]], 0, 200_000)
    assert G.scheme_generate(G.doubling_scheme()).prefix_array(200_000).tolist() == dbl


def test_scheme_generate_lex_follows_tuple_order():
    # candidates differ in length and share prefixes, and codes 256 and up
    # take two bytes: the lex policy must still take the least code tuple
    al = Alphabet(tuple(f"s{i}" for i in range(300)))
    levels = [[(256,), (1,)],
              [(1, 0, 1), (256, 0), (1, 256), (1, 0), (2, 0)],
              [(1, 0, 1, 5), (1, 0, 256, 0), (1, 0, 1), (1, 256, 0)],
              [(1, 0, 1, 7, 7), (1, 0, 1, 5, 0), (1, 0, 256, 0, 0)]]

    def level(n):
        return n + 1, tuple(Word(al, c) for c in (levels[n] if n < len(levels) else ()))

    x = G.scheme_generate(G.Scheme(al, level))
    assert x.prefix_array(3).tolist() == [1, 0, 1]
    with pytest.raises(GenerationStuck):  # level 4 is empty, so level 3 has no viable word
        x.prefix_array(4)


def test_pair_window_generation_memory():
    tracemalloc.start()
    try:
        G.scheme_generate(G.pair_alternation_scheme()).prefix_array(1_417_176)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6  # level words as tuples peaked at 266 MB


def test_gap_generation_window_constraints(branching_seq, scheme_seq):
    # a-posteriori check of the pair-window constraints through level 4
    for sch, x in ((G.aperiodic_scheme(), branching_seq),
                   (G.pair_alternation_scheme(), scheme_seq)):
        for n in range(0, 5):
            ln, _bn, cn = sch.level(n)
            cset = {w.codes for w in cn}
            limit = min(10**4, 20 * ln)
            pref = x.codes(limit)
            i = 0
            while (i + 2) * ln <= limit:
                assert tuple(pref[i * ln:(i + 2) * ln]) in cset
                i += 1


def test_gap_mode_junk_prefix():
    sch = G.pair_alternation_scheme()
    x = G.scheme_generate(sch, mode="GAP", junk="111")
    assert x.prefix(7).text == "1110110"
    # bound accounts for the junk: still empirically sound
    for n in (1, 2, 3):
        assert A.check_certified_bound(x, n, 10**4)
    rep = A.empirical_regulator(x, 3, 10**4)
    assert "111" in [w.text for w in rep.finitely_occurring]


def test_scheme_bounds_empirically_sound(scheme_seq, branching_seq):
    for x in (scheme_seq, branching_seq):
        for n in (1, 2, 4, 8):
            assert A.check_certified_bound(x, n, 10**5)


# -- hole filling -------------------------------------------------------------------


def test_toeplitz_paperfolding():
    pf = G.paperfolding()
    assert pf.prefix(32).text == "11011001110010011101100011001001"


def test_toeplitz_iterative_oracle_agreement():
    rng = random.Random(99)
    pats = ["1_", "1_0_", "10__1_"]
    while len(pats) < 8:
        p = rng.randrange(2, 7)
        slots = ["1"] + [rng.choice("01_") for _ in range(p - 1)]
        t = "".join(slots)
        if "_" in t:
            pats.append(t)
    for text in pats:
        pat = G.ToeplitzPattern.from_text(text)
        x = G.toeplitz(pat)
        want = oracles.toeplitz_fill(pat.slots, 10**4, rounds=256)
        got = list(x.prefix(10**4).codes)
        assert got == want, text


def test_toeplitz_validation():
    with pytest.raises(SpecError):
        G.ToeplitzPattern.from_text("10")  # no holes: use periodic()
    with pytest.raises(SpecError):
        G.ToeplitzPattern.from_text("__")
    with pytest.raises(SpecError):
        G.ToeplitzPattern.from_text("_1")  # position 0 would never resolve


# -- self-describing run lengths ------------------------------------------------------


def test_kolakoski_prefix(kolak):
    assert kolak.prefix(23).text == "22112122122112112212112"


def test_kolakoski_rle_self_similar(kolak):
    for h in (10**3, 10**4, 10**5):
        vals = [c + 1 for c in kolak.codes(h)[:h]]
        rle = oracles.run_length_encode(vals)[:-1]
        assert rle == vals[:len(rle)]


def test_kolakoski_alternating_system(kolak):
    sys = G.kolakoski_system()
    w = sys.alphabet.word("2211")
    assert G.alternating_apply(sys, w).text == "221121"
    w2 = sys.alphabet.word("221121221")
    assert G.alternating_apply(sys, w2).text == "22112122122112"
    assert agreement_length(kolak, G.alternating_morphic(sys), 10**4) is None


def test_alternating_single_morphism_degenerates(tm):
    phi = G.Morphism.from_rules(B, B, {"0": "01", "1": "10"})
    x = G.alternating_morphic(G.AlternatingMorphismSystem((phi,), "0"))
    assert agreement_length(x, tm, 10**4) is None


# -- progression rewriting -------------------------------------------------------------


def test_progression_rewrite_constant():
    x = G.progression_rewrite(G.constant("0"), G.geometric_levels(4, 4))
    assert x.prefix(300).text == "0" * 300


def test_progression_rewrite_prefix_recurs_along_progressions():
    base = G.eventually_periodic("0", "011")
    levels = G.geometric_levels(8, 8)
    x = G.progression_rewrite(base, levels)
    pref = x.codes(10**5)
    for k in range(0, 4):
        nk, nk1 = levels(k), levels(k + 1)
        target = pref[:nk]
        i = 0
        while i * nk1 + nk <= 10**5:
            assert pref[i * nk1:i * nk1 + nk] == target, (k, i)
            i += 1


def test_progression_rewrite_untouched_positions_keep_base():
    base = G.eventually_periodic("0", "011")
    levels = G.geometric_levels(8, 8)
    x = G.progression_rewrite(base, levels)
    for i in (1, 2, 3, 9, 11, 70, 71):
        # classified never-rewritten: i mod n_{k+1} >= n_k at every level
        k = 0
        pinned = False
        while levels(k + 1) <= i:
            if i % levels(k + 1) < levels(k):
                pinned = True
                break
            k += 1
        if not pinned:
            assert x[i] == base[i]


def test_progression_rewrite_equals_the_definition():
    for pre, period, n0, ratio in (("", "01", 2, 3), ("0", "011", 8, 8), ("10", "1", 1, 2),
                                   ("", "012", 3, 2), ("0101", "00111", 5, 3), ("", "0", 4, 4),
                                   ("1", "10", 6, 2), ("", "0112", 7, 5)):
        base = G.eventually_periodic(pre, period) if pre else G.periodic(period)
        levels = G.geometric_levels(n0, ratio)
        x = G.progression_rewrite(base, levels)
        n = 6000 + 7 * n0
        assert x.codes(n)[:n] == oracles.progression_rewrite(base.codes(n), levels, n), \
            (pre, period, n0, ratio)


def test_progression_rewrite_serves_the_codes_before_a_source_past_the_base_cap():
    # index 6560 is the first whose source lies past the base's cap of 5000
    base = G.periodic("01")
    base.horizon_cap = 5000
    levels = G.geometric_levels(2, 3)
    x = G.progression_rewrite(base, levels)
    x.horizon_cap = 10**6
    got = x.codes(5001)
    assert len(got) == 6560
    assert got == oracles.progression_rewrite(G.periodic("01").codes(6560), levels, 6560)
    for _ in range(2):
        with pytest.raises(HorizonExhausted, match=re.escape(
                "requested 6561 symbols of periodic period=01 period_len=2, cap is 5000")):
            x.codes(9000)


def test_progression_rewrite_bound_only_when_aligned():
    aligned = G.progression_rewrite(G.periodic("01"), G.geometric_levels(4, 4))
    assert aligned.certified_bound is not None
    assert A.check_certified_bound(aligned, 2, 10**4)
    misaligned = G.progression_rewrite(G.eventually_periodic("0", "011"),
                                       G.geometric_levels(8, 8))
    assert misaligned.certified_bound is None
    with pytest.raises(SpecError):
        G.progression_rewrite(G.constant("0"), lambda k: 3 * 2 ** k + (k == 1))


# -- triangular-sum witness --------------------------------------------------------------


def test_witness_image_table():
    assert G.triangular_images(5) == {
        "0": "01310", "1": "12421", "2": "23032", "3": "34143", "4": "40204"}
    # evaluating the sum formula directly for k=3, letter 0: 0,1,0
    assert G.triangular_images(3)["0"] == "010"


def test_witness_prefix(x5):
    assert x5.prefix(30).text == "013101242134143124210131012421"
    with pytest.raises(SpecError):
        G.aperiodicity_witness(2)


# -- every block-built family against its per-symbol definition ------------------------


_N = 3 * 2**16 + 5
_READS = (1, 4095, 4097, 65537, 2 * 2**16 + 3, _N)
_A3 = Alphabet.of("0", "1", "2")


def _reads_match(x, want):
    """Reads of growing, uneven lengths each return the definition's codes."""
    for n in _READS:
        n = min(n, len(want))
        assert x.codes(n)[:n] == want[:n], n


def _images(phi):
    return [list(im) for im in phi.image_codes()]


def test_periodic_families_match_the_definition():
    _reads_match(G.periodic("0110101"), [int("0110101"[i % 7]) for i in range(_N)])
    pre, period = "0010", "011"
    _reads_match(G.eventually_periodic(pre, period),
                 [int(pre[i]) if i < 4 else int(period[(i - 4) % 3]) for i in range(_N)])


def test_digit_sum_matches_the_bit_count():
    _reads_match(G.thue_morse("digit_sum"), [bin(i).count("1") & 1 for i in range(_N)])


@pytest.mark.parametrize("text", ["1_0_", "10_1_", "1__"])
def test_toeplitz_matches_the_hole_filling(text):
    pat = G.ToeplitzPattern.from_text(text)
    n = _N if text == "1_0_" else 2**14 + 3
    want = oracles.toeplitz_fill(pat.slots, n, rounds=256)
    _reads_match(G.paperfolding() if text == "1_0_" else G.toeplitz(pat), want)


def test_automatic_matches_the_digit_run():
    parity = _parity_dfao()
    out = {"e": 0, "o": 1}
    _reads_match(G.automatic(parity),
                 [oracles.dfao_run(2, parity.transition, "e", out, i) for i in range(_N)])
    # base 3, state 2q + d mod 3: a digit sum weighted by position, so the
    # digits must be read most significant first
    mod = G.DFAO(3, ("x", "y", "z"), "x",
                 {(q, d): ("x", "y", "z")[(j * 2 + d) % 3]
                  for j, q in enumerate("xyz") for d in range(3)},
                 {"x": "0", "y": "1", "z": "2"}, _A3)
    out3 = {"x": 0, "y": 1, "z": 2}
    _reads_match(G.automatic(mod),
                 [oracles.dfao_run(3, mod.transition, "x", out3, i) for i in range(3**9 + 5)])


@pytest.mark.parametrize("make, rules, seed", [
    (G.fibonacci, {"0": "01", "1": "0"}, "0"),
    (lambda: G.thue_morse("morphic"), {"0": "01", "1": "10"}, "0"),
    (lambda: G.aperiodicity_witness(5), G.triangular_images(5), "0"),
    (None, {"0": "012", "1": "20", "2": "110"}, "0"),
    (None, {"0": "01", "1": "12", "2": "2"}, "0"),    # polynomial growth
    (None, {"0": "01", "1": "1", "2": "2"}, "0"),     # one new letter per level
    (None, {"0": "012", "1": "", "2": "21"}, "0"),    # an erasing image
])
def test_morphic_matches_the_iterated_substitution(make, rules, seed):
    letters = Alphabet(tuple(sorted({seed, *rules, *"".join(rules.values())})))
    phi = G.Morphism.from_rules(letters, letters, rules, erasing_ok=True)
    want = oracles.fixed_point(_images(phi), letters.index(seed), _N)
    _reads_match(make() if make else G.morphic(phi, seed), want)


@pytest.mark.parametrize("k", [11, 13])
def test_witness_with_two_digit_letters_matches_the_substitution(k):
    # letter i -> the letters i + j(j+1)/2 mod k: "10" is one letter, not "1", "0"
    images = [[(i + j * (j + 1) // 2) % k for j in range(k)] for i in range(k)]
    x = G.aperiodicity_witness(k)
    _reads_match(x, oracles.fixed_point(images, 0, _N))
    assert x.prefix(k).codes == tuple(images[0])
    if k == 11:
        assert x.prefix(11).text == "0,1,3,6,10,4,10,6,3,1,0"


def test_coded_morphic_matches_the_recoded_substitution():
    phi = G.Morphism.from_rules(_A3, _A3, {"0": "012", "1": "20", "2": "110"})
    coding = G.Morphism.from_rules(_A3, B, {"0": "1", "1": "0", "2": "1"})
    want = [(1, 0, 1)[c] for c in oracles.fixed_point(_images(phi), 0, _N)]
    _reads_match(G.morphic(phi, "0", coding), want)


def test_kolakoski_and_alternating_match_their_definitions():
    want = [v - 1 for v in oracles.kolakoski(_N)]
    _reads_match(G.kolakoski(), want)
    system = G.kolakoski_system()
    _reads_match(G.alternating_morphic(system), want)
    w = system.alphabet.word("2")
    while len(w) < 2**14:
        w = G.alternating_apply(system, w)
    assert tuple(want[:len(w)]) == w.codes
    h = [G.Morphism.from_rules(_A3, _A3, r) for r in
         ({"0": "01", "1": "2", "2": "10"}, {"0": "2", "1": "01", "2": "0"},
          {"0": "1", "1": "1", "2": "22"})]
    three = G.AlternatingMorphismSystem(tuple(h), "0")
    _reads_match(G.alternating_morphic(three),
                 oracles.alternating_fixed_point([_images(m) for m in h], 0, _N))


def test_alternating_finite_fixed_word_serves_it_then_stops():
    ident = G.Morphism.identity(B)
    x = G.alternating_morphic(G.AlternatingMorphismSystem((ident, ident), "1"))
    assert x.prefix(1).text == "1"
    for _ in range(2):
        with pytest.raises(HorizonExhausted, match="reached a finite fixed word"):
            x.prefix(2)


@pytest.mark.parametrize("variant", ["lower", "upper"])
def test_mechanical_matches_exact_fraction_floors(variant):
    upper = variant == "upper"
    want = oracles.mechanical(Fraction(2, 7), Fraction(1, 3), _N, upper)
    _reads_match(G.mechanical("2/7", "1/3", variant), want)
    # 3n/8 + 1/4 is an integer for every n = 2 mod 8
    want = oracles.mechanical(Fraction(3, 8), Fraction(1, 4), 20000, upper)
    assert G.mechanical("3/8", "1/4", variant).codes(20000)[:20000] == want
    # n*alpha numerators pass 2**63, so the floors leave int64; with
    # alpha = 1 - 1/c and rho = 5000/c, alpha*n + rho is the integer n at n = 5000
    c = 10**20 + 7
    for alpha, rho in ((Fraction(10**20, c), Fraction(0)), (Fraction(10**20, c), Fraction(5, 11)),
                       (Fraction(c - 1, c), Fraction(5000, c))):
        want = oracles.mechanical(alpha, rho, 20000, upper)
        x = G.mechanical(G.RealParam.of(alpha), G.RealParam.of(rho), variant)
        assert x.codes(20000)[:20000] == want, (alpha, rho)


def _straddling(value, name):
    """An enclosure oracle whose intervals always have value strictly inside."""
    return G.RealParam(oracle=lambda eps: (value - Fraction(eps) / 2, value + Fraction(eps) / 2),
                       name=name)


@pytest.mark.parametrize("value, n", [(Fraction(1, 3), 3), (Fraction(1, 6000), 6000)])
@pytest.mark.parametrize("variant", ["lower", "upper"])
def test_mechanical_stops_at_the_first_unresolved_floor(value, n, variant):
    # alpha * n is the integer 1, which no enclosure of alpha separates; the
    # symbols before it stay readable, also when n lies past the first block
    x = G.mechanical(_straddling(value, "edge"), G.RealParam.of(0), variant)
    f = "ceil" if variant == "upper" else "floor"
    assert len(x.codes(n - 1)) == n - 1
    for _ in range(2):
        with pytest.raises(PrecisionExhausted,
                           match=rf"^could not separate {f}\(edge\*{n} \+ 0\) after 256 refinements$"):
            x.codes(n)


def test_mechanical_invphi2_equals_fibonacci_on_a_million_symbols(fib):
    mech = G.mechanical(G.inv_golden_sq(), G.inv_golden_sq())
    assert agreement_length(fib, mech, 10**6) is None


@st.composite
def _mechanical_cases(draw):
    q, d = draw(st.integers(1, 9000)), draw(st.integers(1, 40))
    return (Fraction(draw(st.integers(0, q)), q), Fraction(draw(st.integers(0, d - 1)), d),
            draw(st.booleans()), draw(st.booleans()), draw(st.sampled_from(["lower", "upper"])))


@settings(max_examples=30, deadline=None)
@given(case=_mechanical_cases())
def test_mechanical_reads_match_the_definition_up_to_the_first_open_floor(case):
    # exact rationals, or straddling oracles for either parameter: a floor
    # stays open where alpha*n + rho is an integer inside an interval of
    # positive width (rho straddles, or alpha straddles and n > 0)
    alpha, rho, alpha_oracle, rho_oracle, variant = case
    length, upper = 9000, variant == "upper"
    a = _straddling(alpha, "a") if alpha_oracle else G.RealParam.of(alpha)
    r = _straddling(rho, "r") if rho_oracle else G.RealParam.of(rho)
    stuck = next((n for n in range(length + 1) if (alpha * n + rho).denominator == 1
                  and (rho_oracle or (alpha_oracle and n > 0))), None)
    want = oracles.mechanical(alpha, rho, length, upper)
    x = G.mechanical(a, r, variant)
    reads = {1, 4095, 4097, 8193, length} | ({stuck - 1, stuck} if stuck else set())
    f = "ceil" if upper else "floor"
    for n in sorted(reads - {0}):
        if stuck is None or n < stuck:
            assert x.codes(n)[:n] == want[:n], n
        else:  # reading n symbols needs the floor at n
            with pytest.raises(PrecisionExhausted, match=re.escape(
                    f"could not separate {f}({a}*{stuck} + {r}) after 256 refinements")):
                x.codes(n)


def test_mechanical_oracle_that_cannot_give_the_block_width_fails_at_the_block_start():
    # no interval narrower than 2**-11: the first block's width is out of reach
    coarse = G.RealParam(oracle=lambda eps: (Fraction(1, 3) - Fraction(1, 2**12),
                                             Fraction(1, 3) + Fraction(1, 2**12)), name="coarse")
    x = G.mechanical(coarse, "0")
    for _ in range(2):
        with pytest.raises(SpecError, match="enclosure oracle coarse returned width"):
            x.prefix(1)


# -- the level-indexed certified bounds -------------------------------------------------

_BLOCK_001_0111 = [
    55, 56, 57, 220, 221, 222, 223, 224, 225, 226, 227, 228, 877, 878, 879, 880, 881, 882,
    883, 884, 885, 886, 887, 888, 889, 890, 891, 892, 893, 894, 895, 896, 897, 898, 899,
    900, 901, 902, 903, 904, 905, 906, 907, 908, 909, 910, 911, 912, 3505, 3506, 3507, 3508,
    3509, 3510, 3511, 3512, 3513, 3514, 3515, 3516, 3517, 3518, 3519, 3520]

_LEVEL_BOUNDS = {
    "thue_morse": (lambda: G.thue_morse(), "doubling-block window argument", [
        8, 16, 32, 32, *[64] * 4, *[128] * 8, *[256] * 16, *[512] * 32]),
    "keane": (lambda: G.keane(), "block product window (4*l_{m+1} + 2*l_m + n)", [
        43, 44, 45, 130, 131, 132, 133, 134, 135, 388, 389, 390, 391, 392, 393, 394, 395, 396,
        397, 398, 399, 400, 401, 402, 403, 404, 405, 1162, 1163, 1164, 1165, 1166, 1167, 1168,
        1169, 1170, 1171, 1172, 1173, 1174, 1175, 1176, 1177, 1178, 1179, 1180, 1181, 1182,
        1183, 1184, 1185, 1186, 1187, 1188, 1189, 1190, 1191, 1192, 1193, 1194, 1195, 1196,
        1197, 1198]),
    "alternating_prefix_example": (
        lambda: G.alternating_prefix_example(),
        "block product window (4*l_{m+1} + 2*l_m + n)", _BLOCK_001_0111),
    "block_product_001_0111": (
        lambda: G.block_product_seq(["001", "0111"], assert_both_letters=True),
        "block product window (4*l_{m+1} + 2*l_m + n)", _BLOCK_001_0111),
    "pair_scheme_ap": (
        lambda: G.scheme_generate(G.pair_alternation_scheme()),
        "pair-scheme window (junk + 2 * next level length)", [
            12, 12, 36, 36, 36, 36, 108, 108, 108, 108, 108, 108, 108, 108, 108, 108, 108, 108,
            324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324,
            324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324,
            324, 324, 972, 972, 972, 972, 972, 972, 972, 972, 972, 972]),
    "pair_scheme_gap_0110": (
        lambda: G.scheme_generate(G.pair_alternation_scheme(), mode="GAP", junk="0110"),
        "pair-scheme window (junk + 2 * next level length)", [
            16, 16, 40, 40, 40, 40, 112, 112, 112, 112, 112, 112, 112, 112, 112, 112, 112, 112,
            328, 328, 328, 328, 328, 328, 328, 328, 328, 328, 328, 328, 328, 328, 328, 328, 328,
            328, 328, 328, 328, 328, 328, 328, 328, 328, 328, 328, 328, 328, 328, 328, 328, 328,
            328, 328, 976, 976, 976, 976, 976, 976, 976, 976, 976, 976]),
    "rewrite_01_n0_2_ratio_3": (
        lambda: G.progression_rewrite(G.periodic("01"), G.geometric_levels(2, 3)),
        "progression rewrite window (phase-aligned base)", [
            12, 12, 36, 36, 36, 36, 108, 108, 108, 108, 108, 108, 108, 108, 108, 108, 108, 108,
            324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324,
            324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324, 324,
            324, 324, 972, 972, 972, 972, 972, 972, 972, 972, 972, 972]),
    "rewrite_1_0011_n0_4_ratio_2": (
        lambda: G.progression_rewrite(G.eventually_periodic("1", "0011"), G.geometric_levels(4, 2)),
        "progression rewrite window (phase-aligned base)", [
            16, 16, 16, 16, 32, 32, 32, 32, 64, 64, 64, 64, 64, 64, 64, 64, 128, 128, 128, 128,
            128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 256, 256, 256, 256, 256,
            256, 256, 256, 256, 256, 256, 256, 256, 256, 256, 256, 256, 256, 256, 256, 256, 256,
            256, 256, 256, 256, 256, 256, 256, 256, 256, 256]),
}


@pytest.mark.parametrize("name", sorted(_LEVEL_BOUNDS))
def test_level_indexed_bounds_keep_their_values(name):
    make, provenance, want = _LEVEL_BOUNDS[name]
    bound = make().certified_bound
    assert bound.provenance == provenance
    assert [bound(n) for n in range(1, 65)] == want


@pytest.mark.parametrize("make", [
    lambda: G.thue_morse(), lambda: G.thue_morse("digit_sum"), lambda: G.thue_morse("morphic"),
    G.keane, G.alternating_prefix_example], ids=[
    "thue_morse", "thue_morse_digit_sum", "thue_morse_morphic", "keane",
    "alternating_prefix_example"])
def test_moved_level_bounds_hold(make):
    x = make()
    assert all(A.check_certified_bound(x, n, 20000) for n in range(1, 9))


@pytest.mark.xfail(reason="ROADMAP item 1: the block-product bound is unsound")
def test_block_product_bound_holds_on_010_00010():
    # g(2) = 68 while the empirical regulator is 73
    x = G.block_product_seq(["010", "00010"], assert_both_letters=True)
    assert A.check_certified_bound(x, 2, 3000)
