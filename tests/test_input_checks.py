"""Every input check that the other tests never reach: each call is refused
with its own exception class and message, before any symbol is read."""

import os
import re
import tempfile
from fractions import Fraction

import pytest

from apseq import analysis as A
from apseq import generators as G
from apseq import omega as O
from apseq import transforms as T
from apseq.cli import SequenceSpec, build_sequence, parse_dfao_file, parse_scheme_file
from apseq.core import (Alphabet, Bound, Substitutive, Word, agreement_length, factors,
                        occurrences, shift)
from apseq.errors import MachineParseError, SpecError

B = Alphabet.binary()
AB = Alphabet.of("a", "b")
A3 = Alphabet.of("0", "1", "2")


def _parsed(parse, text):
    """A call that parses ``text`` from a file."""
    def call():
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "input.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return parse(path)
    return call


def _rules(rules, source=B, target=B, erasing_ok=False):
    return G.Morphism.from_rules(source, target, rules, erasing_ok)


def _transducer(initial="q", emit_alphabet=B, total=True):
    emit = {("q", a): emit_alphabet.word([emit_alphabet.symbols[0]]) for a in B}
    step = {("q", a): "q" for a in B}
    if not total:
        del step[("q", "1")]
    return T.Transducer(B, B, ("q",), initial, emit, step)


def _dfao(base=2, output=None, drop=None):
    delta = {("q", d): "q" for d in range(max(base, 2))}
    delta.pop(drop, None)
    return G.DFAO(base, ("q",), "q", delta, {"q": "0"} if output is None else output, B)


LOOP = {("q", "0"): "q", ("q", "1"): "q"}

CHECKS = [
    # core
    (lambda: Word(B, (2,)), SpecError, "letter code out of range for alphabet"),
    (lambda: B.word("01") + AB.word("ab"), SpecError,
     "cannot concatenate words over different alphabets"),
    (lambda: A3.word("012").complement(), SpecError, "complement requires a binary alphabet"),
    (lambda: Bound(lambda n: n, "n")(0), SpecError, "bound is defined for factor lengths n >= 1"),
    (lambda: G.thue_morse().prefix(-1), SpecError, "prefix length must be >= 0"),
    (lambda: factors(G.thue_morse(), 5, horizon=3), SpecError,
     "horizon must be at least the factor length"),
    (lambda: occurrences(B.word("01"), Word(B, ())), SpecError, "needle must be nonempty"),
    (lambda: agreement_length(G.thue_morse(), G.periodic("ab"), 10), SpecError,
     "agreement_length requires a common alphabet"),
    (lambda: shift(G.thue_morse(), -1), SpecError, "shift offset must be >= 0"),
    (lambda: next(G.thue_morse().chunks(-1)), SpecError, "chunk start must be >= 0"),
    (lambda: Substitutive(((0, 5),), 0, ((1,),)), SpecError, "sigma names a letter outside 0..0"),
    (lambda: Substitutive(((0, 1), (1, 0)), 0, ((1,),)), SpecError,
     "psi has 1 images for the 2 letters of sigma"),
    (lambda: Substitutive(((0, 1), (1, 0)), 2, ((0,), (1,))), SpecError,
     "a substitutive description needs sigma(seed) = seed u, u nonempty, and a nonerasing psi"),
    (lambda: Substitutive(((0, 1), (1, 0)), 0, ((0,), (1,)), head=(((0, 1),),)), SpecError,
     "head morphisms need 2 nonempty images, the seed's starting with it"),  # one image
    (lambda: Substitutive(((0, 1), (1, 0)), 0, ((0,), (1,)), head=(((0,), (1,)), ((1, 0), (0,)))),
     SpecError, "head morphisms need 2 nonempty images, the seed's starting with it"),  # 0 -> 10
    # generators
    (lambda: Alphabet(()), SpecError, "alphabet must contain at least one symbol"),
    (lambda: G.periodic(""), SpecError, "period must be nonempty"),
    (lambda: G.periodic(Word(B, ())), SpecError, "period must be nonempty"),
    (lambda: G.eventually_periodic(AB.word("a"), B.word("0")), SpecError,
     "preperiod and period must share an alphabet"),
    (lambda: G.eventually_periodic(B.word("0"), Word(B, ())), SpecError,
     "period must be nonempty"),
    (lambda: G.eventually_periodic("", ""), SpecError, "period must be nonempty"),
    (lambda: G.with_prefix(AB.word("a"), G.thue_morse()), SpecError,
     "prefix word must be over the sequence alphabet"),
    (lambda: G.RealParam(), SpecError,
     "give exactly one of an exact rational or an enclosure oracle"),
    (lambda: G.Morphism(B, B, {"0": AB.word("a"), "1": B.word("1")}), SpecError,
     "image of '0' is not over the target alphabet"),
    (lambda: G.morphic(_rules({"0": "0a", "1": "b"}, B, Alphabet.of("0", "a", "b")), "0"),
     SpecError, "fixed points need an endomorphism"),
    (lambda: G.morphic(_rules({"0": "01", "1": "10"}), "2"), SpecError,
     "seed '2' not in the alphabet"),
    (lambda: G.morphic(_rules({"0": "01", "1": "10"}), "0",
                       _rules({"a": "0", "b": "1"}, AB, B)), SpecError,
     "recoding source alphabet mismatch"),
    (lambda: _dfao(base=1), SpecError, "DFAO base must be >= 2"),
    (lambda: _dfao(drop=("q", 1)), SpecError, "transition missing for ('q', 1)"),
    (lambda: _dfao(output={}), SpecError, "output missing for state 'q'"),
    (lambda: G.block_product_seq([]), SpecError, "need at least one block"),
    (lambda: G.block_product_seq([A3.word("01")]), SpecError, "blocks must be binary"),
    (lambda: G.block_product_seq(["10"]), SpecError, "block 0 does not start with 0"),
    (lambda: G.substitution_scheme("pairs", B, {"0": "0"}, {"0": "00"}), SpecError,
     "scheme kind must be 'ap' or 'gap'"),
    (lambda: G.substitution_scheme("gap", B, {"0": "0"}, {"0": "00"}), SpecError,
     "a pair scheme needs its junction pairs"),
    (lambda: G.scheme_validate(G.doubling_scheme(), 0), SpecError, "depth must be >= 1"),
    (lambda: G.scheme_generate(G.doubling_scheme(), "GAP"), SpecError,
     "GAP generation needs a pair scheme"),
    (lambda: G.scheme_generate(G.doubling_scheme(), "AP", junk="0"), SpecError,
     "junk prefix only makes sense in GAP mode"),
    (lambda: G.AlternatingMorphismSystem((), "0"), SpecError, "need at least one morphism"),
    (lambda: G.AlternatingMorphismSystem(
        (_rules({"0": "01", "1": "1"}), _rules({"a": "ab", "b": "b"}, AB, AB)), "0"),
     SpecError, "all morphisms must be endomorphisms of one alphabet"),
    (lambda: G.AlternatingMorphismSystem((_rules({"0": "01", "1": ""}, erasing_ok=True),), "0"),
     SpecError, "alternating systems require nonerasing morphisms"),
    (lambda: G.AlternatingMorphismSystem((_rules({"0": "10", "1": "1"}),), "0"), SpecError,
     "system is not prolongable on '0'"),
    # transforms
    (lambda: _transducer(initial="p"), SpecError, "initial state missing from state list"),
    (lambda: _transducer(total=False), SpecError, "transducer not total at ('q', '1')"),
    (lambda: _transducer(emit_alphabet=AB), SpecError, "emission over the wrong alphabet"),
    (lambda: T.cyclic_transducer(B, 0), SpecError, "need at least one state"),
    (lambda: T.apply_morphism(_rules({"a": "0", "b": "1"}, AB, B), G.thue_morse()), SpecError,
     "morphism source does not match the sequence alphabet"),
    (lambda: T.bound_formulas(lambda n: n, 0), SpecError, "need at least one state"),
    (lambda: T.transduce(_transducer(), G.periodic("ab")), SpecError,
     "machine input alphabet does not match the sequence"),
    (lambda: T.pushdown_transduce(T.counterexample_machine(), G.periodic("012")), SpecError,
     "machine input alphabet does not match the sequence"),
    # omega
    (lambda: O.MullerAutomaton(B, ("q",), "q", {**LOOP, ("q", "1"): "p"}, frozenset()),
     SpecError, "transition to unknown state"),
    (lambda: O.BuchiAutomaton(B, ("q",), "p", frozenset(), frozenset()), SpecError,
     "initial state missing"),
    (lambda: O.BuchiAutomaton(B, ("q",), "q", frozenset(), frozenset({"p"})), SpecError,
     "accepting states outside the state set"),
    (lambda: O.limit_set_oracle(O.parity_of_ones_automaton(), G.thue_morse(), 1), SpecError,
     "horizon must be at least 2"),
    # analysis
    (lambda: A.RegulatorReport(5, 3, "empirical-lower"), SpecError,
     "a regulator value cannot be smaller than the factor length"),
    (lambda: A.FrequencyReport(B.word("0"), (0, 0), 2, Fraction(2)), SpecError,
     "occurrence density must lie in [0, 1]"),
    (lambda: A.subword_complexity(G.thue_morse(), 5, 3), SpecError,
     "horizon must be at least n"),
    (lambda: A.subword_complexity(G.thue_morse(), 0, 100), SpecError, "n must be at least 1"),
    (lambda: A.subword_complexity(G.thue_morse(), -3, 100), SpecError, "n must be at least 1"),
    (lambda: A.entropy_estimate(G.thue_morse(), 0, 100), SpecError, "n must be at least 1"),
    (lambda: A.empirical_regulator(G.thue_morse(), 0, 100), SpecError, "n must be at least 1"),
    (lambda: A.empirical_regulator(G.thue_morse(), -3, 100), SpecError, "n must be at least 1"),
    (lambda: A.prefix_regulator(G.thue_morse(), 0, 100), SpecError, "n must be at least 1"),
    (lambda: A.prefix_regulator(G.thue_morse(), -3, 100), SpecError, "n must be at least 1"),
    (lambda: A.empirical_regulator(G.thue_morse(), 5, 19), SpecError,
     "horizon must be at least 4*n for a meaningful estimate"),
    (lambda: A.certified_bound_report(G.fibonacci(), 1), SpecError,
     "sequence carries no certified bound"),
    (lambda: A.check_certified_bound(G.fibonacci(), 1, 100), SpecError,
     "sequence carries no certified bound"),
    (lambda: A.check_certified_bound(G.thue_morse(), 1, 10), SpecError,
     "horizon too small to exercise the bound"),
    (lambda: A.prefix_regulator(G.thue_morse(), 5, 19), SpecError, "horizon must be at least 4*n"),
    (lambda: A.besicovitch_density(G.thue_morse(), G.periodic("ab"), 10), SpecError,
     "densities need a common alphabet"),
    (lambda: A.besicovitch_density(G.thue_morse(), G.thue_morse(), 0), SpecError,
     "horizon must be positive"),
    (lambda: A.am_estimate(G.thue_morse(), 0, 10), SpecError, "need at least one shift"),
    (lambda: A.am_estimate(G.thue_morse(), 16, 0), SpecError, "horizon must be at least 1"),
    (lambda: A.is_balanced(G.thue_morse(), 8, 5), SpecError, "horizon must be at least n_max"),
    (lambda: A.is_balanced(G.thue_morse(), 0, 5), SpecError, "n_max must be at least 1"),
    (lambda: A.ap_coefficient(G.thue_morse(), 0, 100), SpecError, "n_max must be at least 1"),
    (lambda: A.periodicity_screen(G.thue_morse(), 100, 0), SpecError, "n_max must be at least 1"),
    (lambda: A.power_blocks(G.thue_morse(), 100, "square", max_period=0), SpecError,
     "max_period must be at least 1"),
    (lambda: A.frequency(G.thue_morse(), Word(B, ()), 0, 1), SpecError,
     "block must be nonempty"),
    (lambda: A.frequency(G.thue_morse(), B.word("0"), 2, 1), SpecError, "need 0 <= i <= j"),
    (lambda: A.cesaro_estimate(G.thue_morse(), B.word("0"), 1), SpecError, "horizon too small"),
    (lambda: A.quasiperiods(Word(B, ())), SpecError, "the empty word has no quasiperiods"),
    (lambda: A.is_tiling_period(B.word("01"), "__"), SpecError, "pattern has no symbols"),
    (lambda: A.tiling_periods(Word(B, ())), SpecError, "the empty word has no tiling periods"),
    (lambda: A.prouhet_partition(0), SpecError, "need n >= 1"),
    # cli
    (lambda: SequenceSpec.parse("  "), SpecError, "empty sequence spec"),
    (lambda: build_sequence(SequenceSpec.parse("toeplitz pattern=")), SpecError,
     "pattern needs 1 <= holes < length"),
    (lambda: build_sequence(SequenceSpec.parse("toeplitz pattern=__")), SpecError,
     "pattern needs 1 <= holes < length"),
    (lambda: build_sequence(SequenceSpec.parse("alternating_morphic rules= seed=0")), SpecError,
     "rules must name at least one letter"),
    (_parsed(parse_scheme_file, "base: 0 = 0\nexpand: 0 = 00\n"), SpecError,
     "scheme file must set kind: ap or kind: gap"),
    (_parsed(parse_dfao_file, "states: q\nstart: q\n"), MachineParseError,
     "digit automaton file missing base/states/start"),
]


@pytest.mark.parametrize("call, error, message", CHECKS, ids=[m for _, _, m in CHECKS])
def test_input_check(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error
