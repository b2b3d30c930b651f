"""Constructors for every sequence family shipped by the toolkit.

Families that come with a proof-backed window argument attach a certified
regulator bound; all other families are empirical-only.  Bounds ship for:

* periodic / eventually periodic words (exact formulas),
* the doubling construction behind :func:`thue_morse`,
* block products whose blocks all contain both letters,
* pair-scheme generation (:func:`scheme_generate` over a pair :class:`Scheme`),
* :func:`progression_rewrite` over phase-aligned eventually periodic bases.
"""

from __future__ import annotations

import itertools
import math
import random as _random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import _CHUNK, Alphabet, Bound, Provenance, Sequence, Word
from .errors import GenerationStuck, HorizonExhausted, PrecisionExhausted, SpecError

BINARY = Alphabet.binary()

# Window factor for the doubling construction: every prefix block of size
# 2**m recurs within every window of 2**(m + _DOUBLING_SHIFT) symbols.
# The value is fixed by measurement against the empirical regulator
# (see tests); 2 is too tight for factors straddling block boundaries.
_DOUBLING_SHIFT = 3


def word_from_text(text: str | Word, alphabet: Alphabet | None = None) -> Word:
    """Build a word from a string of single-character symbol names (a Word passes unchanged)."""
    if isinstance(text, Word):
        return text
    if alphabet is None:
        alphabet = Alphabet(tuple(sorted(set(text))))
    return alphabet.word(text)


def _code_array(codes, alphabet: Alphabet) -> np.ndarray:
    """Codes as an array of the narrowest unsigned dtype for the alphabet."""
    return np.array(codes, dtype=np.min_scalar_type(len(alphabet) - 1))


def _level_bound(length, window, provenance: str) -> Bound:
    """The bound n -> window(m, n), with m the least level whose length(m) >= n."""
    def fn(n):
        m = 0
        while length(m) < n:
            m += 1
        return window(m, n)

    return Bound(fn, provenance)


# -- periodic families ----------------------------------------------------


def periodic(period) -> Sequence:
    """The purely periodic sequence with the given period word.

    Certified bound: n + |period| - 1; a window of that length covers a
    full residue cycle, so it contains every length-n factor.
    """
    w = word_from_text(period)
    p = len(w)
    if p < 1:
        raise SpecError("period must be nonempty")
    codes = _code_array(w.codes, w.alphabet)
    bound = Bound(lambda n: n + p - 1, f"periodic window, period {p}")
    prov = Provenance("periodic", {"period": w.text, "period_len": p})
    return Sequence.from_index_fn(w.alphabet, lambda i: codes[i % p], bound=bound, provenance=prov)


def eventually_periodic(pre, period) -> Sequence:
    """Preperiod word followed by a periodic tail.

    Certified bound: |pre| + n + |period| - 1.  The naive
    max(|pre| + n, n + |period| - 1) is not sound: a window that straddles
    the preperiod boundary needs the full preperiod plus one residue cycle
    before it is guaranteed to contain every recurring factor.
    """
    alphabet = Alphabet(tuple(sorted(set(str(pre)) | set(str(period))))) \
        if isinstance(pre, str) and isinstance(period, str) else None
    u = word_from_text(pre, alphabet)
    w = word_from_text(period, alphabet if alphabet is not None else u.alphabet)
    if u.alphabet != w.alphabet:
        raise SpecError("preperiod and period must share an alphabet")
    p = len(w)
    if p < 1:
        raise SpecError("period must be nonempty")
    k, codes = len(u), _code_array(u.codes + w.codes, u.alphabet)
    bound = Bound(lambda n: k + n + p - 1, f"eventually periodic window, pre {k}, period {p}")
    prov = Provenance("eventually_periodic",
                      {"pre": u.text, "period": w.text, "pre_len": k, "period_len": p})
    fn = lambda i: codes[np.where(i < k, i, k + (i - k) % p)]
    return Sequence.from_index_fn(u.alphabet, fn, bound=bound, provenance=prov)


def constant(symbol: str) -> Sequence:
    return periodic(word_from_text(symbol))


def with_prefix(prefix_word, x: Sequence) -> Sequence:
    """The concatenation (finite word) + (sequence); no bound is asserted."""
    u = word_from_text(prefix_word, x.alphabet)
    if u.alphabet != x.alphabet:
        raise SpecError("prefix word must be over the sequence alphabet")
    return Sequence.from_chunks(
        x.alphabet, itertools.chain([u.codes], x.chunks()),
        provenance=Provenance("with_prefix", {"prefix": u.text, "of": str(x.provenance)}),
        horizon_cap=x.horizon_cap)


# -- doubling construction (invert-and-append) ----------------------------


def thue_morse(definition: str = "recurrence") -> Sequence:
    """The binary invert-and-append sequence, by one of three equivalent
    constructions: the recurrence w -> w ~w, which is the block product of
    01 with itself; binary digit-sum parity; or the fixed point of
    0 -> 01, 1 -> 10.

    Certified bound: 2**(ceil(log2 n) + 3).  The sequence splits into
    aligned blocks b/~b of size 2**m whose block code is the sequence
    itself; cube-freeness puts both block kinds in any four consecutive
    blocks, and one extra doubling level absorbs factors that straddle a
    block boundary.
    """
    if definition == "recurrence":
        seq = block_product_seq(["01"], family="thue_morse", params={"definition": definition})
    elif definition == "digit_sum":
        seq = Sequence.from_index_fn(
            BINARY, lambda i: np.bitwise_count(i) & 1,
            provenance=Provenance("thue_morse", {"definition": definition}))
    elif definition == "morphic":
        phi = Morphism.from_rules(BINARY, BINARY, {"0": "01", "1": "10"})
        seq = morphic(phi, "0")
        seq.provenance = Provenance("thue_morse", {"definition": definition})
    else:
        raise SpecError(f"unknown definition {definition!r}")

    seq.certified_bound = _level_bound(lambda m: 1 << m, lambda m, n: 1 << (m + _DOUBLING_SHIFT),
                                       "doubling-block window argument")
    return seq


# -- mechanical sequences --------------------------------------------------


class RealParam:
    """A real parameter given either exactly (rational) or as a refinable
    enclosure oracle eps -> rational interval of width <= eps."""

    def __init__(self, exact: Fraction | None = None, oracle=None, name: str | None = None):
        if (exact is None) == (oracle is None):
            raise SpecError("give exactly one of an exact rational or an enclosure oracle")
        self.exact = exact
        self._oracle = oracle
        self.name = name if name is not None else (str(exact) if exact is not None else "oracle")
        self._best = None  # narrowest enclosure seen so far

    @staticmethod
    def of(value) -> "RealParam":
        """An int, Fraction or "p/q" as an exact rational; "invphi2" as inv_golden_sq()."""
        if isinstance(value, RealParam):
            return value
        if value == "invphi2":
            return inv_golden_sq()
        if isinstance(value, str):
            try:
                num, den = value.split("/") if "/" in value else (value, 1)
                return RealParam(exact=Fraction(int(num), int(den)))
            except (ValueError, ZeroDivisionError):
                raise SpecError(f"bad rational {value!r} (expected an integer or p/q)") from None
        return RealParam(exact=Fraction(value))

    def enclosure(self, eps: Fraction):
        if self.exact is not None:
            return self.exact, self.exact
        if self._best is not None and self._best[1] - self._best[0] <= eps:
            return self._best
        lo, hi = self._oracle(eps)
        lo, hi = Fraction(lo), Fraction(hi)
        if hi - lo > eps:
            raise SpecError(f"enclosure oracle {self.name} returned width {hi - lo} > {eps}")
        if self._best is not None:
            blo, bhi = self._best
            lo, hi = max(lo, blo), min(hi, bhi)
        self._best = (lo, hi)
        return lo, hi

    def __str__(self):
        return self.name


def inv_golden_sq() -> RealParam:
    """2 - (1+sqrt(5))/2, i.e. the inverse square of the golden ratio, as an
    enclosure oracle built from ratios of consecutive terms of the
    1,1,2,3,5,... recurrence (consecutive ratios bracket the limit)."""

    def oracle(eps):
        a, b, c = 1, 1, 2  # F_n, F_{n+1}, F_{n+2}
        prev = Fraction(a, c)
        while True:
            a, b, c = b, c, b + c
            cur = Fraction(a, c)
            if abs(cur - prev) <= eps:
                return (min(prev, cur), max(prev, cur))
            prev = cur

    return RealParam(oracle=oracle, name="invphi2")


_REFINE_BUDGET = 256


def _affine_floors(alpha: Fraction, rho: Fraction, n: np.ndarray, upper: bool) -> np.ndarray:
    """floor (or ceil when upper) of alpha*n + rho for every n of an int64
    array, in exact integer arithmetic: int64 when the products fit, Python
    ints otherwise."""
    if upper:  # ceil(v) = -floor(-v)
        return -_affine_floors(-alpha, -rho, n, False)
    a, c = alpha.numerator, alpha.denominator
    whole, r = divmod(rho.numerator, rho.denominator)  # rho = whole + r/d, 0 <= r/d < 1
    d = rho.denominator
    top = max(int(np.abs(n).max()), 1)
    if top * abs(a) < 2**63 and 2 * c * d < 2**63:
        # alpha*n = q + m/c with 0 <= m < c, and m/c + r/d < 2
        q, m = np.divmod(n * a, c)
        return q + whole + (m * d + r * c >= c * d)
    v = n.astype(object) * (a * d) + rho.numerator * c
    return (v // (c * d)).astype(np.int64)


def mechanical(alpha, rho, variant: str = "lower") -> Sequence:
    """The mechanical sequence with slope alpha and intercept rho:
    difference of consecutive floors (lower) or ceilings (upper) of
    alpha*n + rho.  Parameters are exact rationals or enclosure oracles.
    A block of n is computed at both ends of enclosures of width
    2**-(bitlen(last n) + 20); positions whose ends differ are computed again
    at half the width, at most _REFINE_BUDGET = 256 more times.  Rationals
    give equal ends and one pass; an integer hit under an oracle stays open,
    and reading the first open position raises PrecisionExhausted (or the
    oracle's error).
    """
    alpha, rho = RealParam.of(alpha), RealParam.of(rho)
    if variant not in ("lower", "upper"):
        raise SpecError("variant must be 'lower' or 'upper'")
    if alpha.exact is not None and not (0 <= alpha.exact <= 1):
        raise SpecError("slope must lie in [0, 1]")
    if rho.exact is not None and not (0 <= rho.exact < 1):
        raise SpecError("intercept must lie in [0, 1)")
    upper = variant == "upper"

    def floors(n: np.ndarray) -> np.ndarray:
        """The exact values at the block n; raises PrecisionExhausted (or the
        oracle's error) when a position cannot be resolved."""
        f, todo = np.empty_like(n), np.arange(n.size)  # todo: the positions not yet resolved
        eps = Fraction(1, 1 << (int(n[-1]).bit_length() + 20))
        for _ in range(_REFINE_BUDGET + 1):
            (alo, ahi), (rlo, rhi) = alpha.enclosure(eps), rho.enclosure(eps)
            at = slice(None) if todo.size == n.size else todo  # no gather while all are open
            lo = _affine_floors(alo, rlo, n[at], upper)
            hi = lo if (alo, rlo) == (ahi, rhi) else _affine_floors(ahi, rhi, n[at], upper)
            f[at] = lo
            todo = todo[lo != hi]
            if not todo.size:
                return f
            eps /= 2
        raise PrecisionExhausted(
            f"could not separate {'ceil' if upper else 'floor'}({alpha}*{n[todo[0]]} + {rho}) "
            f"after {_REFINE_BUDGET} refinements")

    prov = Provenance("mechanical", {"alpha": str(alpha), "rho": str(rho), "variant": variant})
    return Sequence.from_index_fn(BINARY, lambda i: np.diff(floors(np.arange(i[0], i[-1] + 2))),
                                  provenance=prov)


# -- morphisms and their fixed points --------------------------------------


@dataclass(frozen=True)
class Morphism:
    """A monoid morphism between free monoids, given by letter images.

    Nonerasing by default; erasing images are allowed only behind the
    explicit flag, in which case mortality (letters whose iterated image
    vanishes) is analysed where it matters.
    """

    source: Alphabet
    target: Alphabet
    images: dict  # symbol name -> Word over target
    erasing_ok: bool = False

    def __post_init__(self):
        for a in self.source:
            if a not in self.images:
                raise SpecError(f"morphism missing image for {a!r}")
            img = self.images[a]
            if img.alphabet != self.target:
                raise SpecError(f"image of {a!r} is not over the target alphabet")
            if len(img) == 0 and not self.erasing_ok:
                raise SpecError(f"erasing image for {a!r} (pass erasing_ok=True to allow)")
        if stray := [a for a in self.images if a not in self.source]:
            raise SpecError(f"morphism has an image for {stray[0]!r}, not in its source alphabet")

    @staticmethod
    def from_rules(source: Alphabet, target: Alphabet, rules: dict, erasing_ok=False) -> "Morphism":
        images = {a: word_from_text(w, target) for a, w in rules.items()}
        return Morphism(source, target, images, erasing_ok)

    @staticmethod
    def identity(alphabet: Alphabet) -> "Morphism":
        return Morphism(alphabet, alphabet,
                        {a: alphabet.word([a]) for a in alphabet})

    @property
    def uniform_length(self) -> int | None:
        lengths = {len(self.images[a]) for a in self.source}
        return lengths.pop() if len(lengths) == 1 else None

    def image_codes(self) -> list:
        """Image of each source code as a tuple of target codes."""
        return [self.images[a].codes for a in self.source]

    def mortal_letters(self) -> set:
        """Letters whose iterated image eventually vanishes."""
        mortal = {a for a in self.source if len(self.images[a]) == 0}
        changed = True
        while changed:
            changed = False
            for a in self.source:
                if a in mortal:
                    continue
                if all(b in mortal for b in self.images[a]):
                    mortal.add(a)
                    changed = True
        return mortal


def morphic(phi: Morphism, seed: str, coding: Morphism | None = None) -> Sequence:
    """The fixed point of phi started from seed, optionally recoded by a
    1-uniform morphism.

    phi must be prolongable on seed: phi(seed) starts with seed and the
    remainder keeps growing forever.  The evaluator appends the images of
    already-fixed letters, as many as the next chunk needs, so no symbol
    is ever re-derived.  phi(seed) = seed is accepted as the degenerate
    constant stream.
    """
    if phi.source != phi.target:
        raise SpecError("fixed points need an endomorphism")
    if seed not in phi.source:
        raise SpecError(f"seed {seed!r} not in the alphabet")
    img = phi.images[seed]
    if len(img) == 0 or img[0] != seed:
        raise SpecError(f"phi is not prolongable on {seed!r}: phi({seed}) = {img.text!r}")
    mortal = phi.mortal_letters() if phi.erasing_ok else set()
    degenerate = len(img) == 1
    if not degenerate and all(b in mortal for b in list(img)[1:]):
        raise SpecError("image collapse: the fixed point of phi is a finite word")
    if coding is not None:
        if coding.uniform_length != 1:
            raise SpecError("the recoding morphism must be 1-uniform")
        if coding.source != phi.source:
            raise SpecError("recoding source alphabet mismatch")
        out_alphabet = coding.target
        code_map = [coding.images[a].codes[0] for a in phi.source]
    else:
        out_alphabet = phi.source
        code_map = None

    def chunks():
        seed_code = phi.source.index(seed)
        if degenerate:
            c = seed_code if code_map is None else code_map[seed_code]
            yield from itertools.repeat(np.full(_CHUNK, c))
        # The fixed point of phi is that of psi = phi**m.  An m with a long
        # psi(seed) keeps the run of letters waiting for expansion long, so
        # each step is a large array operation even where the word grows by
        # a bounded amount per level (images of length 1, or erasing ones).
        table = _image_table(phi.image_codes(), phi.source)
        power = [_code_array(im, phi.source) for im in phi.image_codes()]
        while len(power[seed_code]) < _CHUNK // 4 and max(map(len, power)) <= _CHUNK * 16:
            power = [_expand(table, im) for im in power]
        fixed = _fixed_point_chunks(
            _image_table(power, phi.source), power[seed_code], lambda i, c: c,
            SpecError("image collapse: the fixed point of phi is a finite word"))
        if code_map is None:
            yield from fixed
        else:
            recode = _code_array(code_map, out_alphabet)
            yield from (recode[chunk] for chunk in fixed)

    prov = Provenance("morphic", {"rules": _rules_text(phi), "seed": seed,
                                  "coding": _rules_text(coding) if coding else "-"})
    return Sequence.from_chunks(out_alphabet, chunks(), provenance=prov)


def _image_table(images: list, alphabet: Alphabet) -> tuple:
    """Images (code sequences) as one flat code array with the offset and
    length of each image."""
    lens = np.array([len(im) for im in images], dtype=np.int64)
    flat = np.concatenate([_code_array(im, alphabet) for im in images])
    return flat, np.cumsum(lens) - lens, lens


def _expand(table: tuple, keys: np.ndarray) -> np.ndarray:
    """The concatenated images of the table's entries at keys."""
    flat, offs, lens = table
    n = lens[keys]
    return flat[np.arange(int(n.sum())) + np.repeat(offs[keys] - (np.cumsum(n) - n), n)]


def _fixed_point_chunks(table: tuple, first: np.ndarray, key, collapse):
    """Chunks of the word w that starts with ``first`` and continues with
    the images of its own letters from position 1 on: the letter c at
    position i contributes the table's image at ``key(i, c)`` (``key`` acts
    on index and code arrays).  Each step expands only as many letters as
    the next chunk needs; a word that stops growing yields what it has and
    raises ``collapse``."""
    lens = table[2]
    buf, size, ptr = first, first.size, 1
    for done in itertools.count(0, _CHUNK):
        while size < done + _CHUNK:
            if ptr == size:
                yield buf[done:size]
                raise collapse
            need = done + _CHUNK - size
            end = min(size, ptr + need)  # nonerasing letters add >= 1 each
            keys = key(np.arange(ptr, end), buf[ptr:end])
            keys = keys[:np.searchsorted(np.cumsum(lens[keys]), need) + 1]
            new = _expand(table, keys)
            buf = _grown(buf, size + new.size)
            buf[size:size + new.size] = new
            size, ptr = size + new.size, ptr + keys.size
        yield buf[done:done + _CHUNK]


def _grown(buf: np.ndarray, size: int) -> np.ndarray:
    """buf itself when it holds size codes, else a copy of at least twice
    its capacity."""
    if size <= buf.size:
        return buf
    out = np.empty(max(2 * buf.size, size), dtype=buf.dtype)
    out[:buf.size] = buf
    return out


def _rules_text(phi: Morphism) -> str:
    return ",".join(f"{a}:{phi.images[a].text}" for a in phi.source)


def fibonacci() -> Sequence:
    """Fixed point of 0 -> 01, 1 -> 0; equals the lower mechanical sequence
    with slope and intercept both invphi2 (checked in the test suite)."""
    phi = Morphism.from_rules(BINARY, BINARY, {"0": "01", "1": "0"})
    seq = morphic(phi, "0")
    seq.provenance = Provenance("fibonacci")
    return seq


# -- automatic sequences ----------------------------------------------------


@dataclass(frozen=True)
class DFAO:
    """Deterministic finite automaton with per-state output, run on the
    base-k digits of the index, most significant digit first."""

    base: int
    states: tuple
    initial: str
    transition: dict  # (state, digit) -> state
    output: dict      # state -> symbol name
    output_alphabet: Alphabet

    def __post_init__(self):
        if self.base < 2:
            raise SpecError("DFAO base must be >= 2")
        if self.initial not in self.states:
            raise SpecError(f"start state {self.initial!r} is not among the states")
        for q in self.states:
            for d in range(self.base):
                if (q, d) not in self.transition:
                    raise SpecError(f"transition missing for ({q!r}, {d})")
                if self.transition[(q, d)] not in self.states:
                    raise SpecError(f"transition ({q!r}, {d}) to unknown state")
            if q not in self.output:
                raise SpecError(f"output missing for state {q!r}")


def automatic(dfao: DFAO) -> Sequence:
    """x(n) = output of the DFAO run on the base-k digits of n (n = 0 reads
    the single digit 0).  Indices with the same number of digits run
    together, one table lookup per digit position."""
    b, states = dfao.base, {q: j for j, q in enumerate(dfao.states)}
    step = np.array([[states[dfao.transition[(q, d)]] for d in range(b)] for q in dfao.states])
    out_alphabet = dfao.output_alphabet
    outputs = np.array([out_alphabet.index(dfao.output[q]) if dfao.output[q] in out_alphabet
                        else -1 for q in dfao.states])

    def fn(i: np.ndarray) -> np.ndarray:
        powers = [1]
        while powers[-1] * b <= i.max():
            powers.append(powers[-1] * b)
        digits = np.searchsorted(np.array(powers[1:], dtype=np.int64), i, side="right") + 1
        q = np.empty(i.size, dtype=np.int64)
        for n in np.unique(digits).tolist():
            at = np.flatnonzero(digits == n)
            x, qs = i[at], np.full(at.size, states[dfao.initial])
            for pw in reversed(powers[:n]):
                qs = step[qs, x // pw % b]
            q[at] = qs
        codes = outputs[q]
        if (codes < 0).any():  # an output outside the alphabet: the same error as a lookup
            out_alphabet.index(dfao.output[dfao.states[q[np.argmax(codes < 0)]]])
        return codes

    return Sequence.from_index_fn(
        out_alphabet, fn,
        provenance=Provenance("automatic", {"base": dfao.base, "states": len(dfao.states)}))


# -- block products ---------------------------------------------------------


def block_product_word(u: Word, v: Word) -> Word:
    """Recursive product: empty for empty v, else the product over v less
    its last letter, followed by u (letter 0) or the complement of u
    (letter 1)."""
    if len(u.alphabet) != 2 or len(v.alphabet) != 2:
        raise SpecError("block products are defined over the binary alphabet")
    out = []
    uc = u.codes
    ubar = tuple(1 - c for c in uc)
    for bit in v.codes:
        out.extend(uc if bit == 0 else ubar)
    return Word(u.alphabet, tuple(out))


def block_product_seq(blocks, *, assert_both_letters: bool = False,
                      family: str = "block_product", params: dict | None = None) -> Sequence:
    """Limit of the iterated block product of a list of binary words whose
    last entry repeats forever (01 alone gives the doubling word).

    The blocks are checked here: every block past the first must be
    nonempty and start with 0.  A repeated last block of length 1 adds
    nothing, so the stream ends after the product of the earlier blocks.
    With ``assert_both_letters`` the caller asserts that every block past
    the first contains both letters; under that assertion the sequence
    carries the certified bound 4 * l_{m+1} + 2 * l_m + n with l_m the
    m-th partial product length and m minimal with l_m >= n: any factor
    sits inside a pair of adjacent level-m blocks, pairs recur within four
    level-(m+1) blocks, and the extra terms absorb alignment slack.  The
    plain 4 * l_{m+1} window is too tight for streams such as 001, 0111,
    0111, ... (measured regulator 4 * l_{m+1} + 2 * l_m + n - 1).
    """
    words = [word_from_text(b, BINARY) for b in blocks]
    if not words:
        raise SpecError("need at least one block")
    for k, w in enumerate(words):
        if len(w.alphabet) != 2:
            raise SpecError("blocks must be binary")
        if len(w) == 0:
            raise SpecError(f"block {k} is empty")
        if k >= 1 and w.codes[0] != 0:
            raise SpecError(f"block {k} does not start with 0")
        if assert_both_letters and k >= 1 and len(set(w.codes)) != 2:
            raise SpecError(f"block {k} lacks both letters but the bound asserts them")
    block = lambda k: words[min(k, len(words) - 1)]
    level_len = lambda m: math.prod(len(block(k)) for k in range(m + 1))

    def chunks():
        w = np.array(words[0].codes, dtype=np.uint8)
        yield w
        for level in itertools.count(1):
            bits = np.array(block(level).codes, dtype=np.uint8)[:, None]
            if bits.size == 1 and level >= len(words) - 1:
                raise HorizonExhausted("block stream stalled on length-1 blocks")
            done, w = w.size, (bits ^ w).ravel()
            yield w[done:]

    bound = _level_bound(level_len, lambda m, n: 4 * level_len(m + 1) + 2 * level_len(m) + n,
                         "block product window (4*l_{m+1} + 2*l_m + n)") if assert_both_letters else None

    return Sequence.from_chunks(BINARY, chunks(), bound=bound,
                                provenance=Provenance(family, params or {}))


def keane() -> Sequence:
    """The ternary-pattern block product: every block equals 001."""
    return block_product_seq(["001"], assert_both_letters=True,
                             family="keane")


def alternating_prefix_example() -> Sequence:
    """001 followed by the repeated block 0111: a uniformly recurrent
    sequence whose prefix imbalances alternate sign with value 2**m.
    Ships as a named fixture for the stack-machine counterexample."""
    return block_product_seq(["001", "0111"], assert_both_letters=True,
                             family="alternating_prefix_example")


# -- schemes ----------------------------------------------------------------


@dataclass(frozen=True)
class Scheme:
    """Level-indexed block system: ``level`` maps n to (l_n, B_n), or to
    (l_n, B_n, C_n) for a pair scheme.  Conditions (checkable to any depth
    via :func:`scheme_validate`; 2 and 4 apply to pair schemes only):

    1. every B_n word has length l_n;
    2. every C_n word is v1 v2 with halves in B_n, and every B_n word is
       used in the first position of some C_n word and in the second
       position of some C_n word;
    3. every B_{n+1} word splits into B_n blocks; with pairs, its
       consecutive blocks form C_n words and it realizes every C_n word at
       some junction; without pairs, it contains every B_n word;
    4. the middle junction of every C_{n+1} word lies in C_n.

    ``level_length`` (n -> l_n) and ``level_codes`` (n -> the B_n words as
    code arrays, in ``level(n)[1]`` order) are optional shortcuts that let
    bounds and :func:`scheme_generate` skip building ``Word`` objects.
    """

    alphabet: Alphabet
    level: "callable"
    name: str = "scheme"
    level_length: "callable | None" = None  # n -> l_n without building words
    level_codes: "callable | None" = None   # n -> B_n as code arrays

    def length(self, n: int) -> int:
        return self.level_length(n) if self.level_length else self.level(n)[0]


def substitution_scheme(kind: str, alphabet: Alphabet, base: dict, expand: dict,
                        pairs: list | None = None, name: str = "scheme"):
    """Scheme whose level-n words are indexed by letters: w_0(a) = base[a]
    and w_{n+1}(a) is the concatenation of w_n(b) over the letters b of
    expand[a].  For a pair scheme, ``pairs`` lists two-letter strings ab
    meaning w_n(a) w_n(b) belongs to C_n."""
    letters = list(expand.keys())
    if kind not in ("ap", "gap"):
        raise SpecError("scheme kind must be 'ap' or 'gap'")
    if not letters:
        raise SpecError("a scheme needs at least one expansion")
    for a in letters:
        for b in (a, *expand[a]):
            if b not in base or b not in expand:
                raise SpecError(f"scheme letter {b!r} needs both a base word and an expansion")
    if kind == "gap" and not pairs:
        raise SpecError("a pair scheme needs its junction pairs")
    if kind == "gap" and any(len(p) != 2 or not set(p) <= set(letters) for p in pairs):
        raise SpecError(f"junction pairs {pairs} are not all two scheme letters")

    @lru_cache(maxsize=None)
    def codes(n: int) -> tuple:
        if n == 0:
            return tuple(_code_array(word_from_text(base[a], alphabet).codes, alphabet) for a in letters)
        prev = dict(zip(letters, codes(n - 1)))
        empty = prev[letters[0]][:0]  # an empty expansion still gives an array of the dtype
        return tuple(np.concatenate([empty, *(prev[b] for b in expand[a])]) for a in letters)

    base_lens = {len(word_from_text(base[a], alphabet)) for a in letters}
    expand_lens = {len(expand[a]) for a in letters}
    length_fn = None
    if len(base_lens) == 1 and len(expand_lens) == 1:
        l0, k = base_lens.pop(), expand_lens.pop()
        length_fn = lambda n: l0 * k**n

    def level(n):
        ws = {a: Word._of(alphabet, tuple(c.tolist())) for a, c in zip(letters, codes(n))}
        data = len(ws[letters[0]]), tuple(ws[a] for a in letters)
        return data + (_PairWords(ws, pairs),) if kind == "gap" else data

    return Scheme(alphabet, level, name, length_fn, codes)


class _PairWords:
    """The C_n words w_n(a) w_n(b) of a pair scheme, built only when
    iterated: generation reads B_n alone."""

    def __init__(self, words: dict, pairs: list):
        self._words, self._pairs = words, pairs

    def __iter__(self):
        return (self._words[a] + self._words[b] for a, b in self._pairs)


def doubling_scheme() -> Scheme:
    """B_n = {b_n, ~b_n} with b_{n+1} = b_n ~b_n: the scheme behind the
    invert-and-append sequence."""
    return substitution_scheme("ap", BINARY, {"0": "0", "1": "1"},
                               {"0": "01", "1": "10"}, name="doubling")


def pair_alternation_scheme() -> Scheme:
    """Ratio-3 pair scheme over {01, 10}: every level alternates a word
    with its complement.  Generates the period-4 word 0110 repeated; its
    interest is the scheme-derived certified bound."""
    return substitution_scheme(
        "gap", BINARY, {"0": "01", "1": "10"}, {"0": "010", "1": "101"},
        pairs=["01", "10"], name="pair-alternation")


def aperiodic_scheme() -> Scheme:
    """Ratio-4 pair scheme whose unique output is aperiodic: level words
    U, V expand to UUVU and UVUU with junction pairs UU, UV, VU.  Both
    expansions start with U, so the prefix chain is forced and the
    generated sequence is the fixed point of the expansion."""
    return substitution_scheme(
        "gap", BINARY, {"0": "0", "1": "1"}, {"0": "0010", "1": "0100"},
        pairs=["00", "01", "10"], name="aperiodic")


def choice_scheme() -> Scheme:
    """Ratio-5 pair scheme with all four junction pairs: both letters
    expand to words starting with themselves (UUVVU and VVUUV).  So every
    level word w_n(a) begins with w_{n-1}(a), only level 0 offers a choice
    (U or V), and the scheme generates two sequences."""
    return substitution_scheme(
        "gap", BINARY, {"0": "0", "1": "1"}, {"0": "00110", "1": "11001"},
        pairs=["00", "01", "10", "11"], name="choice")


@dataclass
class SchemeViolation:
    level: int
    condition: int
    message: str

    def __str__(self):
        return f"level {self.level}, condition ({self.condition}): {self.message}"


def _aligned_blocks(w: Word, size: int):
    if len(w) % size:
        return None
    return [w[i:i + size] for i in range(0, len(w), size)]


def scheme_validate(scheme, depth: int) -> list:
    """Check the scheme conditions through the given level; returns the
    list of violations (empty means ok)."""
    if depth < 1:
        raise SpecError("depth must be >= 1")
    out = []
    is_gap = len(scheme.level(0)) == 3
    for n in range(depth + 1):
        data = scheme.level(n)
        ln, bn = data[0], set(data[1])
        cn = set(data[2]) if is_gap else None
        if not bn:
            out.append(SchemeViolation(n, 1, "empty block set"))
            continue
        for w in bn:
            if len(w) != ln:
                out.append(SchemeViolation(n, 1, f"word {w.text!r} has length {len(w)} != {ln}"))
        if is_gap:
            firsts, seconds = set(), set()
            for c in cn:
                if len(c) != 2 * ln:
                    out.append(SchemeViolation(n, 2, f"pair word {c.text!r} is not two blocks long"))
                    continue
                v1, v2 = c[:ln], c[ln:]
                if v1 not in bn or v2 not in bn:
                    out.append(SchemeViolation(n, 2, f"pair word {c.text!r} has a half outside the block set"))
                firsts.add(v1)
                seconds.add(v2)
            for w in bn - firsts:
                out.append(SchemeViolation(n, 2, f"block {w.text!r} unused in first position"))
            for w in bn - seconds:
                out.append(SchemeViolation(n, 2, f"block {w.text!r} unused in second position"))
        if n == depth:
            break
        nxt = scheme.level(n + 1)
        ln1, bn1 = nxt[0], set(nxt[1])
        for w in bn1:
            blocks = _aligned_blocks(w, ln)
            if blocks is None:
                out.append(SchemeViolation(n + 1, 3, f"length {len(w)} not a multiple of {ln}"))
                continue
            if any(b not in bn for b in blocks):
                out.append(SchemeViolation(n + 1, 3, f"word {w.text!r} uses a block outside level {n}"))
                continue
            if is_gap:
                junctions = {blocks[i] + blocks[i + 1] for i in range(len(blocks) - 1)}
                if not junctions <= cn:
                    out.append(SchemeViolation(n + 1, 3, f"word {w.text!r} has a junction outside the pair set"))
                if not cn <= junctions:
                    out.append(SchemeViolation(n + 1, 3, f"word {w.text!r} misses some pair word"))
            else:
                if not bn <= set(blocks):
                    out.append(SchemeViolation(n + 1, 3, f"word {w.text!r} misses some level-{n} block"))
        if is_gap:
            cn1 = set(nxt[2])
            k = ln1 // ln if ln1 % ln == 0 else None
            for c in cn1:
                blocks = _aligned_blocks(c, ln)
                if blocks is None or k is None:
                    continue
                middle = blocks[k - 1] + blocks[k]
                if middle not in cn:
                    out.append(SchemeViolation(n + 1, 4, f"straddling pair of {c.text!r} not in level {n} pairs"))
    return out


def scheme_generate(scheme, mode: str = "AP", policy="lex", seed=None,
                    junk=None) -> Sequence:
    """Generate a sequence satisfying the scheme's window constraints.

    The generator maintains a chain of nested level words, each a prefix
    of the next, and extends it lazily; the policy resolves the choice
    among candidate extensions (default: lexicographically least; also a
    seeded random policy or a caller callback level, candidates -> word).
    A level where no candidate extends to the next level, or whose chosen
    word adds no symbols, raises :class:`GenerationStuck` naming the level.

    AP mode emits the chain limit.  GAP mode (pair schemes only) prepends
    a junk word: the result satisfies the offset window constraints with
    every offset equal to the junk length, and carries the certified bound
    |junk| + 2 * l_{m+1} (a window that long contains a whole aligned
    level-(m+1) block, and every pair word sits inside every such block).
    AP-scheme outputs carry no bound: no window argument is available
    without the pair sets.
    """
    is_gap = len(scheme.level(0)) == 3
    if mode not in ("AP", "GAP"):
        raise SpecError("mode must be 'AP' or 'GAP'")
    if mode == "GAP" and not is_gap:
        raise SpecError("GAP generation needs a pair scheme")
    junk_word = word_from_text(junk, scheme.alphabet) if junk is not None else Word(scheme.alphabet, ())
    if mode == "AP" and len(junk_word):
        raise SpecError("junk prefix only makes sense in GAP mode")

    if policy not in ("lex", "random") and not callable(policy):
        raise SpecError(f"unknown policy {policy!r} (expected lex, random or a callable)")
    if policy == "random" and seed is None:
        raise SpecError("the random policy needs a seed")
    rng = _random.Random(seed)

    def level_arrays(n: int):
        if scheme.level_codes:
            return scheme.level_codes(n)
        return [_code_array(w.codes, scheme.alphabet) for w in scheme.level(n)[1]]

    def candidates(level_n: int, prev: np.ndarray | None):
        """The B_n words that extend prev, ordered like their code tuples
        (big-endian bytes compare as the codes do)."""
        arrs = level_arrays(level_n)
        if prev is not None:
            arrs = [a for a in arrs if np.array_equal(a[:prev.size], prev)]
        return sorted(arrs, key=lambda a: a.astype(a.dtype.newbyteorder(">"), copy=False).tobytes())

    def choose(level_n: int, prev: np.ndarray | None) -> np.ndarray:
        cands = [w for w in candidates(level_n, prev) if candidates(level_n + 1, w)]
        if not cands:
            raise GenerationStuck(f"no viable continuation at level {level_n}", level=level_n)
        if policy == "lex":
            return cands[0]
        if policy == "random":
            return rng.choice(cands)
        words = [Word._of(scheme.alphabet, tuple(a.tolist())) for a in cands]
        return _code_array(policy(level_n, words).codes, scheme.alphabet)

    jlen = len(junk_word)

    def chunks():
        yield junk_word.codes
        word = None
        for level in itertools.count():
            done = word.size if word is not None else 0
            word = choose(level, word)
            if word.size == done:
                raise GenerationStuck(f"level {level} adds no symbols to the chain", level=level)
            yield word[done:]

    bound = _level_bound(scheme.length, lambda m, n: jlen + 2 * scheme.length(m + 1),
                         "pair-scheme window (junk + 2 * next level length)") if is_gap else None

    prov = Provenance("scheme", {"name": getattr(scheme, "name", "?"), "mode": mode,
                                 "policy": str(policy), "junk": junk_word.text})
    return Sequence.from_chunks(scheme.alphabet, chunks(), bound=bound, provenance=prov)


# -- hole-filling words ------------------------------------------------------


HOLE_CHARS = ("_", "□")


def pattern_slots(text: str, alphabet: Alphabet) -> tuple:
    """The symbol codes of a hole pattern's text, None at each hole."""
    return tuple(None if c in HOLE_CHARS else alphabet.index(c) for c in text)


def pattern_text(slots: tuple, alphabet: Alphabet) -> str:
    return "".join("_" if s is None else alphabet.symbols[s] for s in slots)


@dataclass(frozen=True)
class ToeplitzPattern:
    """A word over alphabet + hole.  ``slots`` holds symbol codes with None
    at holes.  The first slot must be a symbol: the construction never
    assigns a value to position 0 otherwise."""

    alphabet: Alphabet
    slots: tuple

    def __post_init__(self):
        p = len(self.slots)
        q = sum(1 for s in self.slots if s is None)
        if not (1 <= q < p):
            raise SpecError("pattern needs 1 <= holes < length")
        if self.slots[0] is None:
            raise SpecError("pattern must start with a symbol, not a hole")

    @staticmethod
    def from_text(text: str) -> "ToeplitzPattern":
        alphabet = Alphabet(tuple(sorted(set(text) - set(HOLE_CHARS))))
        return ToeplitzPattern(alphabet, pattern_slots(text, alphabet))

    @property
    def text(self) -> str:
        return pattern_text(self.slots, self.alphabet)


def toeplitz(pattern: ToeplitzPattern) -> Sequence:
    """Iterated hole filling: repeat the pattern forever, then feed the
    stream itself back into the holes, in order.  The hole at i reads
    position (i // p) * q + (holes before slot i mod p), which is earlier.
    Chunks span a whole number of pattern periods: each starts as the
    tiled pattern, and its holes read their positions until nothing
    changes.  That is exact, because every read goes to an earlier
    position, so the values have one consistent assignment; past the first
    chunks every position read lies in an earlier chunk."""
    slots = pattern.slots
    p = len(slots)
    is_hole = np.array([s is None for s in slots])
    q = int(is_hole.sum())
    size = -(-_CHUNK // p) * p
    r = np.arange(size) % p
    tile = _code_array([0 if s is None else s for s in slots], pattern.alphabet)[r]
    holes = np.flatnonzero(is_hole[r])
    reads = (holes // p) * q + (np.cumsum(is_hole) - is_hole)[r[holes]]

    def chunks():
        made = tile[:0]  # every symbol so far, in the narrowest dtype
        for start in itertools.count(0, size):
            made = _grown(made, start + size)
            made[start:start + size] = tile
            at, src = start + holes, start // p * q + reads
            while not np.array_equal(made[at], new := made[src]):
                made[at] = new
            yield made[start:start + size]

    return Sequence.from_chunks(pattern.alphabet, chunks(),
                                provenance=Provenance("toeplitz", {"pattern": pattern.text}))


def paperfolding() -> Sequence:
    """The crease sequence of repeated same-direction folds; equals the
    hole-filling construction for the pattern 1_0_."""
    seq = toeplitz(ToeplitzPattern.from_text("1_0_"))
    seq.provenance = Provenance("paperfolding")
    return seq


# -- self-describing run lengths --------------------------------------------


def kolakoski() -> Sequence:
    """The run-length self-describing sequence over {1, 2} starting 2, 2:
    the lengths of its own runs spell out the sequence again.  Generated
    feed-forward: run j has length x(j), with symbols alternating 2, 1,
    which is the limit of :func:`kolakoski_system`."""
    seq = alternating_morphic(kolakoski_system())
    seq.provenance = Provenance("kolakoski")
    return seq


# -- position-alternating morphisms -----------------------------------------


@dataclass(frozen=True)
class AlternatingMorphismSystem:
    """p nonerasing morphisms over one alphabet; the rewriting map applies
    morphism i mod p to the letter at absolute position i."""

    morphisms: tuple
    seed: str

    def __post_init__(self):
        if not self.morphisms:
            raise SpecError("need at least one morphism")
        alphabet = self.morphisms[0].source
        for h in self.morphisms:
            if h.source != alphabet or h.target != alphabet:
                raise SpecError("all morphisms must be endomorphisms of one alphabet")
            if h.erasing_ok or any(len(h.images[a]) == 0 for a in alphabet):
                raise SpecError("alternating systems require nonerasing morphisms")
        if self.seed not in alphabet:
            raise SpecError("seed not in the alphabet")
        first = self.morphisms[0].images[self.seed]
        if first[0] != self.seed:
            raise SpecError(f"system is not prolongable on {self.seed!r}")

    @property
    def alphabet(self) -> Alphabet:
        return self.morphisms[0].source


def alternating_apply(system: AlternatingMorphismSystem, w: Word) -> Word:
    """One rewriting step: letter at position i maps through morphism
    i mod p."""
    p = len(system.morphisms)
    tables = [h.image_codes() for h in system.morphisms]
    out = []
    for i, c in enumerate(w.codes):
        out.extend(tables[i % p][c])
    return Word(system.alphabet, tuple(out))


def alternating_morphic(system: AlternatingMorphismSystem) -> Sequence:
    """Iterated limit of the position-alternating rewriting map from the
    seed letter.  Each iterate is a prefix of the next, so the limit is
    well defined."""
    alphabet = system.alphabet
    p, k = len(system.morphisms), len(alphabet)
    images = [im for h in system.morphisms for im in h.image_codes()]
    chunks = _fixed_point_chunks(
        _image_table(images, alphabet),
        _code_array(system.morphisms[0].images[system.seed].codes, alphabet),
        lambda i, c: (i % p) * k + c,
        HorizonExhausted("alternating system reached a finite fixed word"))
    rules = ";".join(_rules_text(h) for h in system.morphisms)
    prov = Provenance("alternating_morphic", {"rules": rules, "seed": system.seed})
    return Sequence.from_chunks(alphabet, chunks, provenance=prov)


def kolakoski_system() -> AlternatingMorphismSystem:
    """The two-morphism system whose iterated limit is the run-length
    self-describing sequence."""
    alphabet = Alphabet.of("1", "2")
    h0 = Morphism.from_rules(alphabet, alphabet, {"1": "2", "2": "22"})
    h1 = Morphism.from_rules(alphabet, alphabet, {"1": "1", "2": "11"})
    return AlternatingMorphismSystem((h0, h1), "2")


# -- arithmetic-progression rewriting ----------------------------------------


def geometric_levels(n0: int, ratio: int):
    """Divisor chain n0, n0*ratio, n0*ratio**2, ..."""
    if n0 < 1 or ratio < 2:
        raise SpecError("need n0 >= 1 and ratio >= 2")
    return lambda k: n0 * ratio**k


def progression_rewrite(base: Sequence, levels) -> Sequence:
    """Overwrite, at every step k, the segments of length n_k starting at
    the positive multiples of n_{k+1} with the (current) length-n_k prefix.
    The divisor chain makes all rewrites agree, and every prefix of the
    result recurs along an arithmetic progression, so the result is
    precisely almost periodic.

    Symbols are resolved a chunk of indices at a time, each through the
    first level that pins its index.  A certified bound (2 * n_{k+1} for
    n <= n_k) is attached only when the base is (eventually) periodic,
    phase-aligned with the chain: period length dividing n_0 and preperiod
    at most n_0.  For general bases the junction factors between copies
    and base content recur on a slower schedule and no bound is asserted.
    """
    @lru_cache(maxsize=None)
    def lv(k: int) -> int:
        v = int(levels(k))
        if k > 0:
            prev = lv(k - 1)
            if v <= prev or v % prev:
                raise SpecError(f"levels must form a strictly increasing divisor chain, "
                                f"got n_{k-1}={prev}, n_{k}={v}")
        return v

    def resolve(idx: np.ndarray) -> np.ndarray:
        """The base index that each index of idx reads, in one walk up the
        levels.  An index i pinned first at level k (i >= n_{k+1} and
        r = i mod n_{k+1} < n_k) reads r, which no level pins again: for
        j < k, r mod n_{j+1} = i mod n_{j+1} >= n_j (n_{j+1} divides
        n_{k+1}, and i >= n_{j+1} was not pinned at j), and for j >= k,
        r < n_k < n_{j+1}."""
        todo, k = np.arange(idx.size), 0
        while todo.size:
            i, n = idx[todo], lv(k + 1)
            r = i % n
            hit = (r < lv(k)) & (i >= n)
            idx[todo[hit]] = r[hit]
            todo = todo[(i >= n) & ~hit]
            k += 1
        return idx

    def fn(idx: np.ndarray) -> np.ndarray:
        src = resolve(idx)
        return base.prefix_array(int(src.max()) + 1)[src]  # past the base's cap it raises

    bound = None
    fam = base.provenance.family
    if fam in ("periodic", "eventually_periodic"):
        plen = base.provenance.params.get("period_len", 0)
        prelen = base.provenance.params.get("pre_len", 0)
        if plen >= 1 and lv(0) % plen == 0 and prelen <= lv(0):
            bound = _level_bound(lv, lambda k, n: 2 * lv(k + 1),
                                 "progression rewrite window (phase-aligned base)")

    prov = Provenance("progression_rewrite",
                      {"base": str(base.provenance), "n0": lv(0), "n1": lv(1)})
    return Sequence.from_index_fn(base.alphabet, fn, bound=bound, provenance=prov,
                                  horizon_cap=base.horizon_cap)


# -- triangular-sum witness ---------------------------------------------------


def aperiodicity_witness(k: int) -> Sequence:
    """Fixed point of the triangular-sum substitution over k >= 3 letters:
    letter i maps to the word whose j-th letter is i + 1 + 2 + ... + j
    mod k.  For prime k the sequence sits at Besicovitch distance
    1 - 2/k from all of its shifts."""
    if k < 3:
        raise SpecError("the witness construction needs k >= 3")
    seq = morphic(_triangular_morphism(k), "0")
    seq.provenance = Provenance("aperiodicity_witness", {"k": k})
    return seq


def _triangular_morphism(k: int) -> Morphism:
    """The witness substitution: letter i -> the letters i + j(j+1)/2 mod k, j < k."""
    alphabet = Alphabet(tuple(str(i) for i in range(k)))
    return Morphism(alphabet, alphabet, {
        str(i): alphabet.word([str((i + j * (j + 1) // 2) % k) for j in range(k)])
        for i in range(k)})


def triangular_images(k: int) -> dict:
    """The image table of the witness substitution, letter -> word text
    (comma-separated letter names from k = 11 on, as ``Word.text``)."""
    return {a: w.text for a, w in _triangular_morphism(k).images.items()}


# -- misc plumbing -------------------------------------------------------------


def random_sequence(alphabet: Alphabet, seed: int) -> Sequence:
    """Seeded uniform random stream (deterministic per seed); used by the
    test suite and demos as a full-shift reference point."""
    rng = _random.Random(seed)
    k = len(alphabet)
    chunks = ([rng.randrange(k) for _ in range(_CHUNK)] for _ in itertools.count())
    return Sequence.from_chunks(alphabet, chunks,
                                provenance=Provenance("random", {"seed": seed, "k": k}))
