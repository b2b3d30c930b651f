"""Measurements and certificates over sequences and words.

Window semantics: every regulator-style value counts only windows that lie
fully inside the examined horizon, and reports the minimal window length
that works.  Factors whose last occurrence dies before the half-horizon
are treated as finitely occurring: they move from the coverage condition
to the cutoff condition, mirroring the two-part regulator of generalized
almost periodicity.

Factor statistics share one kernel: every length-n window of a prefix gets
a uint32 or int64 id, equal exactly when the windows are equal and ordered
like them (lexicographically).  One sort of id << b | position groups them
by id: per distinct factor, its first and last start and the largest step
between consecutive starts, from which every coverage value follows.
"""

from __future__ import annotations

import ctypes
import math
import os
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import Segment, Sequence, Word, occurrences
from .errors import HorizonExhausted, SpecError
from .generators import pattern_slots, pattern_text, thue_morse  # noqa: F401 (re-exported)

_POWER_BLOCK = 1 << 16      # detect_powers: samples lifted, and about occurrences made, together

# glibc maps each block of 128 KB or more afresh, faulting in every page, until its
# dynamic threshold happens to pass the block's size; the factor kernels' horizon-sized
# temporaries thus cost from nothing to a quarter of an analysis pass, by process.
_libc = ctypes.CDLL(None) if os.name == "posix" else None
if hasattr(_libc, "mallopt"):   # blocks under 32 MB stay on the heap, 64 MB of it once freed
    _libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD

# -- report types ----------------------------------------------------------


class FactorWords(_SequenceABC):
    """The length-n words at the given starts of a code array, read-only;
    a Word is made when an item is read.  Equal to a list of the same words."""

    def __init__(self, alphabet, codes: np.ndarray, starts: np.ndarray, n: int):
        self.alphabet, self.codes, self.starts, self.n = alphabet, codes, starts, n

    def __len__(self):
        return len(self.starts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return FactorWords(self.alphabet, self.codes, self.starts[i], self.n)
        s = int(self.starts[i])
        return Word._of(self.alphabet, tuple(self.codes[s:s + self.n].tolist()))

    def __eq__(self, other):
        if not isinstance(other, (list, FactorWords)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self):
        return repr(list(self))


@dataclass
class RegulatorReport:
    """``finitely_occurring``: the length-n words taken to occur finitely
    often, in lexicographic order, as a read-only FactorWords (or a list)."""

    n: int
    value: int
    kind: str                      # empirical-lower | certified-exact | certified-upper
    horizon: int | None = None
    finitely_occurring: _SequenceABC = field(default_factory=list)

    def __post_init__(self):
        if self.value < self.n:
            raise SpecError("a regulator value cannot be smaller than the factor length")


@dataclass
class FrequencyReport:
    block: Word
    interval: tuple
    count: int
    density: Fraction

    def __post_init__(self):
        if not (0 <= self.density <= 1):
            raise SpecError("occurrence density must lie in [0, 1]")


@dataclass
class BalanceReport:
    balanced: bool
    n: int | None = None           # first violating length
    low: Word | None = None
    high: Word | None = None
    spread: int | None = None


@dataclass
class AmReport:
    per_shift: dict                # shift -> density (Fraction)
    minimum: Fraction
    argmin: int
    shift_max: int
    horizon: int


@dataclass
class ScreenReport:
    complexities: dict             # n -> p(n)
    triggered_at: int | None      # first n with p(n) <= n
    preperiod: int | None = None
    period: int | None = None
    confirmed: bool = False


@dataclass
class QuasiperiodReport:
    word: Word
    quasiperiods: list             # all covers, shortest first
    minimal: Word

    @property
    def proper(self) -> list:
        return [q for q in self.quasiperiods if len(q) < len(self.word)]


@dataclass
class ProuhetReport:
    n: int
    zeros: list
    ones: list
    zero_power_sums: list
    one_power_sums: list


# -- factor statistics -------------------------------------------------------


def _window_ids(arr: np.ndarray, n: int, k: int) -> np.ndarray:
    """Id of every length-n window of arr over k letters: base-k codes up
    to the widest window whose code stays below 2**62, composed from
    power-of-two widths as ids_{a+b}[i] = ids_a[i] * k**b + ids_b[i + a],
    in place in the ids and two part buffers, uint32 while k**n <= 2**32 and
    int64 past that; past the width, prefix doubling goes on."""
    width = 1
    while width < n and k ** (width + 1) <= 2**62:
        width += 1
    m = arr.size - width + 1
    part = arr.astype(np.uint32 if k**width <= 2**32 else np.int64)  # length-size window ids
    spare, have, size = np.empty_like(part), 0, 1
    while True:
        if width & size:
            if have:                                  # so k**size < k**width fits the dtype
                ids *= k**size
                ids += part[have:have + m]
            else:
                ids = part[:m].copy()
            have += size
        if 2 * size > width:
            break
        np.multiply(part[:-size], k**size, out=spare[:-size])
        spare[:-size] += part[size:]
        part, spare, size = spare, part, 2 * size
    return ids if width == n else _factor_groups_slow(ids, width, n)


def _runs(ids: np.ndarray, top: int):
    """The positions of ids in (id, position) order and a mask of where each
    id's run starts, from one sort of id << b | position, b the bit length of
    the largest position and top the largest id: in uint32 if top < 2**(32 - b),
    in int64 if top < 2**(63 - b), else None, as the keys would not fit."""
    b = (ids.size - 1).bit_length()
    if top >> (63 - b):
        return None
    keys = ids.astype(np.uint32 if top < 1 << (32 - b) else np.int64, copy=False) << b
    keys |= np.arange(ids.size, dtype=keys.dtype)
    keys.sort()
    return (np.bitwise_and(keys, (1 << b) - 1, out=np.empty(ids.size, np.intp)),
            np.concatenate(([True], keys[1:] >> b != keys[:-1] >> b)))


def _double(ids: np.ndarray, step: int):
    """One prefix-doubling step over window ids: the dense rank of each id,
    and the id of the window that joins the windows at i and i + step,
    which overlap or abut; rank * count + rank over the distinct ids keeps
    the pairs' lexicographic order.  Ids below twice their number (the
    early levels of a pyramid) are ranked by a table of the ids present and
    its running count, in about 18 bytes per id; others by the running
    count of the run starts of :func:`_runs`, or by np.unique if too wide."""
    top = int(ids.max())
    if top < 2 * ids.size:
        seen = np.zeros(top + 1, bool)
        seen[ids] = True
        table = np.cumsum(seen)                       # 1 + rank, at each id present
        count, rank = int(table[-1]), table[ids] - 1
    elif (runs := _runs(ids, top)) is None:
        uniq, rank = np.unique(ids, return_inverse=True)
        count = uniq.size
    else:
        pos, start = runs
        dense = np.cumsum(start)                      # 1 + rank, in (id, position) order
        count, rank = int(dense[-1]), np.empty_like(dense)
        rank[pos] = dense - 1
    return rank, rank[:-step] * count + rank[step:]


def _factor_groups_slow(ids: np.ndarray, width: int, n: int) -> np.ndarray:
    """Extend ids of the width-wide windows to length-n ones by prefix doubling."""
    while width < n:
        step = min(width, n - width)
        ids = _double(ids, step)[1]
        width += step
    return ids


def _id_groups(ids: np.ndarray):
    """(first, last, max_gap) arrays over the distinct ids, in id order;
    max_gap is the largest step between consecutive occurrences (0 for a
    single one).  Ids too wide for :func:`_runs` are re-ranked first."""
    m = ids.size
    pos, start = (_runs(ids, int(ids.max()))
                  or _runs(np.unique(ids, return_inverse=True)[1], m - 1))
    starts = np.flatnonzero(start)
    steps = np.diff(pos, prepend=0)
    steps[starts] = 0
    ends = np.append(starts[1:], m) - 1
    return pos[starts], pos[ends], np.maximum.reduceat(steps, starts)


def _factor_groups(x: Sequence, n: int, horizon: int):
    """(first, last, max_gap) per distinct length-n factor of the horizon
    prefix, in lexicographic order of the factors."""
    return _id_groups(_window_ids(x.prefix_array(horizon), n, len(x.alphabet)))


def _coverage(first, last, gap, n: int, horizon: int):
    """Minimal l such that every length-l window inside the horizon holds
    an occurrence of a factor with these first, last and max_gap values."""
    return np.maximum(np.maximum(first + n, gap + n - 1), horizon - last)


def subword_complexity(x: Sequence, n: int, horizon: int) -> int:
    """Number of distinct length-n factors of the horizon prefix.

    This is exact (equal to the complexity of the whole sequence) whenever
    horizon >= certified_bound(n) + n; otherwise it is a lower bound.
    """
    if n < 1:
        raise SpecError("n must be at least 1")
    if horizon < n:
        raise SpecError("horizon must be at least n")
    ids = np.sort(_window_ids(x.prefix_array(horizon), n, len(x.alphabet)))
    return 1 + int(np.count_nonzero(ids[1:] != ids[:-1]))


def empirical_regulator(x: Sequence, n: int, horizon: int) -> RegulatorReport:
    """Minimal l such that every recurring length-n factor of the prefix
    occurs in every length-l window inside the horizon, and no finitely
    occurring factor starts at or past l."""
    if n < 1:
        raise SpecError("n must be at least 1")
    if horizon < 4 * n:
        raise SpecError("horizon must be at least 4*n for a meaningful estimate")
    first, last, gap = _factor_groups(x, n, horizon)
    finite = last < horizon // 2
    best = max(_coverage(first, last, gap, n, horizon)[~finite].max(initial=n),
               last[finite].max(initial=-1) + 1)
    return RegulatorReport(n, int(best), "empirical-lower", horizon,
                           FactorWords(x.alphabet, x.prefix_array(horizon), first[finite], n))


def certified_regulator(x: Sequence, n: int) -> RegulatorReport:
    """Exact regulator value, computed from the certified bound f:

    * factors of x[f(n), 2 f(n)] are exactly the infinitely occurring
      length-n factors; every other length-n factor of x[0, f(n) + n]
      occurs finitely often;
    * l1 cuts off the finitely occurring factors;
    * l2 is the window length after which every infinitely occurring
      factor appears inside every window of every length-f(n) factor of a
      certified prefix; a length-f(n) factor lacks the factor exactly when
      the coverage over that whole prefix exceeds f(n), and otherwise the
      largest coverage inside one such factor equals it;
    * the regulator is max(l1, l2).
    """
    if x.certified_bound is None:
        raise SpecError("certified_regulator needs a sequence with a certified bound")
    f = x.certified_bound
    fn = f(n)
    ffn = f(fn)
    horizon = max(2 * ffn, ffn + fn) + 1
    ids = _window_ids(x.prefix_array(horizon), n, len(x.alphabet))
    first, last, gap = _id_groups(ids)
    group_ids = ids[first]
    recurring = np.isin(group_ids, ids[fn:2 * fn - n + 2])       # factors of x[fn, 2 f(n)]
    finite = np.isin(group_ids, ids[:fn + 2]) & ~recurring       # other factors of x[0, f(n) + n]
    dying = np.flatnonzero(np.isin(ids[:fn], group_ids[finite]))
    l1 = int(dying[-1]) + 1 if dying.size else 0
    l2 = int(_coverage(first, last, gap, n, horizon)[recurring].max(initial=n))
    if l2 > fn:
        raise SpecError(f"certified bound violated: factor missing from a length-{fn} factor")
    return RegulatorReport(n, max(l1, l2), "certified-exact", finitely_occurring=FactorWords(
        x.alphabet, x.prefix_array(horizon), first[finite], n))


def certified_bound_report(x: Sequence, n: int) -> RegulatorReport:
    if x.certified_bound is None:
        raise SpecError("sequence carries no certified bound")
    return RegulatorReport(n, x.certified_bound(n), "certified-upper")


def check_certified_bound(x: Sequence, n: int, horizon: int) -> bool:
    """Empirical soundness check of the attached bound: every length-n
    factor occurring at or past f(n) must occur in every f(n)-window of
    the horizon prefix, and no other factor may start at or past f(n)."""
    f = x.certified_bound
    if f is None:
        raise SpecError("sequence carries no certified bound")
    fn = f(n)
    if horizon < 2 * fn + 2 * n:
        raise SpecError("horizon too small to exercise the bound")
    first, last, gap = _factor_groups(x, n, horizon)
    recurring = last >= fn  # the others occur finitely within view; cutoff satisfied
    return bool((_coverage(first, last, gap, n, horizon)[recurring] <= fn).all())


def prefix_regulator(x: Sequence, n: int, horizon: int) -> int:
    """Minimal l such that the length-n prefix occurs in every length-l
    window inside the horizon."""
    if n < 1:
        raise SpecError("n must be at least 1")
    if horizon < 4 * n:
        raise SpecError("horizon must be at least 4*n")
    pos = np.flatnonzero(_occurrence_hits(x, x.prefix(n), horizon - n + 1))
    if pos.size < 2:
        raise HorizonExhausted(f"prefix of length {n} does not recur within {horizon}")
    return int(_coverage(pos[0], pos[-1], np.diff(pos).max(), n, horizon))


@dataclass
class ApCoefficientReport:
    rd: dict                      # n -> rd(n) = r(n) - n + 1 (max start spacing)
    max_ratio: Fraction           # max over n of r(n)/n (lower estimate)
    argmax: int
    horizon: int


def ap_coefficient(x: Sequence, n_max: int, horizon: int) -> ApCoefficientReport:
    """Recurrence-spacing profile rd(n) = r(n) - n + 1 together with the
    running maximum of the window quotient r(n)/n.

    The quotient is taken over r rather than rd: for the golden-slope
    word the peaks of r(n)/n climb to (5 + sqrt 5)/2 = 3.618..., the
    known limit value of the recurrence quotient, whereas rd(n)/n peaks
    a full unit lower (its limsup is the square of the golden ratio).
    The reported maximum is a lower estimate of the limsup.
    """
    if n_max < 1:
        raise SpecError("n_max must be at least 1")
    rd = {}
    best, arg = Fraction(0), 1
    for n in range(1, n_max + 1):
        rep = empirical_regulator(x, n, horizon)
        rd[n] = rep.value - n + 1
        ratio = Fraction(rep.value, n)
        if ratio > best:
            best, arg = ratio, n
    return ApCoefficientReport(rd, best, arg, horizon)


# -- balance and powers ------------------------------------------------------


def is_balanced(x: Sequence, n_max: int, horizon: int) -> BalanceReport:
    """Check |count_1(u) - count_1(v)| <= 1 over all factor pairs of each
    length up to n_max (binary alphabets only)."""
    if len(x.alphabet) != 2:
        raise SpecError("balance is defined for binary alphabets")
    if n_max < 1:
        raise SpecError("n_max must be at least 1")
    if horizon < n_max:
        raise SpecError("horizon must be at least n_max")
    arr = x.prefix_array(horizon)
    ones = np.concatenate(([0], np.cumsum(arr == 1)))
    for n in range(1, n_max + 1):
        counts = ones[n:] - ones[:-n]
        lo, hi = int(counts.min()), int(counts.max())
        if hi - lo > 1:
            i_lo = int(np.argmin(counts))
            i_hi = int(np.argmax(counts))
            return BalanceReport(False, n, x.segment(Segment(i_lo, i_lo + n - 1)),
                                 x.segment(Segment(i_hi, i_hi + n - 1)), hi - lo)
    return BalanceReport(True)


def _ramps(n: np.ndarray) -> np.ndarray:
    """0 .. n[0] - 1, 0 .. n[1] - 1, ... in one array."""
    return np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)


def _agree(level: np.ndarray, at, p, ok):
    """Per sample, ok and whether the level is equal at positions at and
    at + p, read only where ok holds."""
    at = np.where(ok, at, 0)
    return ok & (level[at] == level[np.where(ok, at + p, 0)])


def _extension(levels: list, top: int, s, p, room, back: bool):
    """Per sample, min(room, 2**(top + 1) - 1, L), where L is the longest
    common extension of the positions s and s + p, read forward or back."""
    ext = np.zeros_like(s)
    for k in range(min(top, len(levels) - 1), -1, -1):
        w = 1 << k
        ext += w * _agree(levels[k], s - ext - w if back else s + ext, p, ext + w <= room)
    return ext


def detect_powers(x: Sequence, horizon: int, kind: str,
                  max_period: int | None = None, limit: int | None = None) -> list:
    """All occurrences (position, |u|) of uu (square), uuu (cube), or
    auaua (overlap) shapes inside the horizon prefix H, smallest |u| first,
    then by position, the first ``limit`` only if one is given; the period
    (|u|, or |u| + 1 for overlaps) is at most H/2, H/3 for cubes, and max_period.

    For a period p, an occurrence at i is a stretch [i, i + need) of
    positions j < H - p with x[j] = x[j + p], need = p (square), 2p (cube)
    or p + 1 (overlap, |u| = p - 1); the maximal run [a, b) of them around
    it holds the starts a .. b - need.  As need >= p and any p consecutive
    positions hold a multiple of p, the run holds a sample s = 0, p, 2p, ..
    (about H ln H over all p), and is kept at its one sample with back < p
    for its exact extent [s - back, s + fwd), ends capped at 0 and H.  The
    extensions read a rank pyramid made by prefix doubling, whose level k is
    equal at two positions exactly when the length-2**k windows there are,
    so the levels from the top down add each power of two that still
    matches; the levels up to need drop the short runs first.  Before any
    extension, a sample is dropped unless level j, with w = 2**j the widest
    such that 2 w <= need, is equal at s and s + p or at s - w + 1 and
    s - w + 1 + p: a run of need or more positions that holds s holds
    [s, s + w) or [s - w + 1, s + 1).  For cubes in the doubling word at H = 10^5 this
    keeps 0.10M of the 1.08M samples.  Blocks of consecutive periods go in
    (p, s) order, so the starts come out sorted and a limit stops after the
    block that reaches it; a block's filter reads the need of its least
    period.  Cost: O(H log^2 H + output) time and about 4 H log2 H bytes for
    the pyramid (6.4 MB at H = 10^5, about 0.9 GB at 10^7).  For cubes in
    the doubling word: about 0.05 s at H = 10^5 and 0.8 s at 10^6, with a
    traced peak of 112 MB (2-CPU VM).
    """
    out = []
    for pos, ulen in power_blocks(x, horizon, kind, max_period, limit):
        out += zip(pos.tolist(), ulen.tolist())
    return out


def power_blocks(x: Sequence, horizon: int, kind: str,
                 max_period: int | None = None, limit: int | None = None):
    """The occurrences of :func:`detect_powers` in its order, as (positions,
    |u|) array pairs of at most _POWER_BLOCK plus one run's, made as read;
    the arguments are checked and the prefix read at the call."""
    if kind not in ("square", "cube", "overlap"):
        raise SpecError("kind must be square, cube, or overlap")
    if horizon < 4:
        raise SpecError("horizon must be at least 4")
    if limit is not None and limit < 0:
        raise SpecError("limit must not be negative")
    if max_period is not None and max_period < 1:
        raise SpecError("max_period must be at least 1")
    reps, extra = {"square": (1, 0), "cube": (2, 0), "overlap": (1, 1)}[kind]
    p_cap = (horizon - extra) // (reps + 1)           # need + p <= horizon
    if max_period is not None:
        p_cap = min(p_cap, max_period)
    if p_cap < 1 or limit == 0:
        return iter(())
    arr = x.prefix_array(horizon)
    levels, ids = [], arr                             # level k: windows of length 2**k
    while 2 << len(levels) <= horizon:
        rank, ids = _double(ids, 1 << len(levels))
        levels.append(rank.astype(np.int32))
    levels.append(ids)
    samples = (horizon - 1) // np.arange(1, p_cap + 1)   # s = 0, p, .. below H - p
    ends = np.cumsum(samples)

    def blocks():
        lo, left = 0, limit
        while lo < p_cap:
            hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - samples[lo] + _POWER_BLOCK,
                                                 "right")))
            p = np.repeat(np.arange(lo + 1, hi + 1), samples[lo:hi])
            s = _ramps(samples[lo:hi]) * p
            hit = np.flatnonzero(arr[s] == arr[s + p])   # indices: faster than a mask here
            s, p = s[hit], p[hit]
            if (j := ((reps * (lo + 1) + extra) // 2).bit_length() - 1) > 0:
                w = 1 << j                            # 2 w <= need over the block
                hit = np.flatnonzero(_agree(levels[j], s, p, s + w <= horizon - p)
                                     | _agree(levels[j], s - w + 1, p, s >= w - 1))
                s, p = s[hit], p[hit]
            back = _extension(levels, hi.bit_length() - 1, s, p, s, True)
            first = back < p
            s, p, back = s[first], p[first], back[first]
            need = reps * p + extra
            fwd = _extension(levels, (reps * hi + extra).bit_length() - 1, s, p,
                             horizon - p - s, False)
            long = back + fwd >= need
            s, p, back, need = s[long], p[long], back[long], need[long]
            fwd = _extension(levels, len(levels), s, p, horizon - p - s, False)
            count = back + fwd - need + 1
            piece = (np.cumsum(count) - count) // _POWER_BLOCK  # runs by where they start
            edges = [0, *(np.flatnonzero(np.diff(piece)) + 1).tolist(), count.size]
            for a, b in zip(edges, edges[1:]):
                pos = (np.repeat(s[a:b] - back[a:b], count[a:b]) + _ramps(count[a:b]))[:left]
                yield pos, np.repeat(p[a:b] - extra, count[a:b])[:pos.size]
                if left is not None and (left := left - pos.size) == 0:
                    return
            lo = hi

    return blocks()


# -- shift-mismatch measures --------------------------------------------------


def besicovitch_density(x: Sequence, y: Sequence, horizon: int) -> Fraction:
    """Fraction of indices below the horizon where the sequences differ."""
    if x.alphabet != y.alphabet:
        raise SpecError("densities need a common alphabet")
    if horizon < 1:
        raise SpecError("horizon must be positive")
    a = x.prefix_array(horizon)
    b = y.prefix_array(horizon)
    return Fraction(int(np.count_nonzero(a != b)), horizon)


def am_estimate(x: Sequence, shift_max: int, horizon: int) -> AmReport:
    """Minimum over shifts 1..shift_max of the mismatch density between
    the sequence and its shift, over the first ``horizon`` positions.

    This estimates the infimum-over-shifts of the liminf mismatch density;
    the per-shift table is reported so convergence can be inspected."""
    if shift_max < 1:
        raise SpecError("need at least one shift")
    if horizon < 1:
        raise SpecError("horizon must be at least 1")
    arr = x.prefix_array(horizon + shift_max)
    base = arr[:horizon]
    per = {}
    best, arg = None, None
    for s in range(1, shift_max + 1):
        d = Fraction(int(np.count_nonzero(base != arr[s:s + horizon])), horizon)
        per[s] = d
        if best is None or d < best:
            best, arg = d, s
    return AmReport(per, best, arg, shift_max, horizon)


# -- frequencies and entropy ---------------------------------------------------


def _occurrence_hits(x: Sequence, u: Word, upto: int) -> np.ndarray:
    """Boolean array over start positions [0, upto) marking occurrences
    of u in the sequence (evaluating just past the right edge)."""
    n = len(u)
    arr = x.prefix_array(upto + n - 1) if n > 1 else x.prefix_array(upto)
    hits = np.ones(upto, dtype=bool)
    for j, c in enumerate(u.codes):
        hits &= arr[j:j + upto] == c
    return hits


def frequency(x: Sequence, u: Word, i: int, j: int) -> FrequencyReport:
    """Occurrences of the block whose start lies in [i, j], divided by the
    interval length."""
    if len(u) < 1:
        raise SpecError("block must be nonempty")
    if not (0 <= i <= j):
        raise SpecError("need 0 <= i <= j")
    hits = _occurrence_hits(x, u, j + 1)
    count = int(np.count_nonzero(hits[i:j + 1]))
    return FrequencyReport(u, (i, j), count, Fraction(count, j - i + 1))


def cesaro_estimate(x: Sequence, u: Word, horizon: int) -> list:
    """Sampled starting-average densities on a 20-point geometric grid
    t <= horizon; returns a list of (t, density) pairs."""
    if horizon < 2:
        raise SpecError("horizon too small")
    hits = _occurrence_hits(x, u, horizon)
    cum = np.cumsum(hits)
    ts = sorted({int(round(horizon ** (i / 19))) for i in range(20)} | {horizon})
    return [(t, Fraction(int(cum[t - 1]), t)) for t in ts if t >= 1]


def entropy_estimate(x: Sequence, n: int, horizon: int) -> float:
    """(1/n) * log2 of the length-n factor count (base-2 convention, so a
    full binary shift reads 1.0)."""
    return math.log2(subword_complexity(x, n, horizon)) / n


# -- word-level periodicities ---------------------------------------------------


def quasiperiods(w: Word) -> QuasiperiodReport:
    """All quasiperiods of the word (factors whose occurrences cover every
    position) and the minimal one.  Candidates are the borders of w, plus
    w itself; coverage is checked from the occurrence list."""
    if len(w) == 0:
        raise SpecError("the empty word has no quasiperiods")
    m = len(w)
    found = []
    for q in range(1, m + 1):
        if w.codes[:q] != w.codes[m - q:]:
            continue  # a cover must match both ends
        pos = occurrences(w, w[:q])
        if all(b - a <= q for a, b in zip(pos, pos[1:])):
            found.append(w[:q])
    return QuasiperiodReport(w, found, found[0])


def _pattern_slots(pattern, alphabet) -> tuple:
    """Normalize a cover pattern to a tuple of symbol codes with None at
    holes, trimmed of leading/trailing holes (they carry no footprint)."""
    slots = list(pattern_slots(pattern, alphabet) if isinstance(pattern, str) else pattern)
    while slots and slots[0] is None:
        slots.pop(0)
    while slots and slots[-1] is None:
        slots.pop()
    if not slots:
        raise SpecError("pattern has no symbols")
    return tuple(slots)


def is_tiling_period(u: Word, pattern) -> bool:
    """Exact cover test: translated copies of the pattern (holes cover
    nothing) must cover every position of u exactly once.  The leftmost
    uncovered position forces each placement, so the check is greedy."""
    slots = _pattern_slots(pattern, u.alphabet)
    offs = [o for o, s in enumerate(slots) if s is not None]
    m = len(u)
    covered = bytearray(m)
    remaining = m
    while remaining:
        p = covered.index(0)
        for o in offs:
            q = p + o
            if q >= m or covered[q] or u.codes[q] != slots[o]:
                return False
            covered[q] = 1
            remaining -= 1
    return True


def tiling_periods(u: Word) -> list:
    """All patterns whose translated copies tile the word exactly
    (exhaustive search; |u| <= 32).  Patterns are returned as slot
    tuples, shortest footprint first, the word itself included last."""
    m = len(u)
    if m > 32:
        raise SpecError("exhaustive tiling search is capped at length 32")
    if m == 0:
        raise SpecError("the empty word has no tiling periods")
    results = []

    def search(offsets, shifts, remaining):
        if not remaining:
            width = max(offsets) + 1
            slots = tuple(u.codes[o] if o in offsets else None for o in range(width))
            results.append(slots)
            return
        p = min(remaining)
        # choice A: p starts a new copy
        if all(p + o < m and p + o in remaining and u.codes[p + o] == u.codes[o]
               for o in offsets):
            newly = {p + o for o in offsets}
            search(offsets, shifts | {p}, remaining - newly)
        # choice B: p is a new offset of the pattern (covered via shift 0)
        o = p
        if all(s + o < m and s + o in remaining and u.codes[s + o] == u.codes[o]
               for s in shifts):
            newly = {s + o for s in shifts}
            search(offsets | {o}, shifts, remaining - newly)

    search({0}, {0}, set(range(m)) - {0})
    uniq = sorted(set(results), key=lambda t: (sum(1 for s in t if s is not None), len(t), t.__repr__()))
    return uniq


# -- multigrade partition --------------------------------------------------------


def prouhet_partition(n: int) -> ProuhetReport:
    """Split {0, ..., 2**n - 1} by the doubling sequence value and return
    both power-sum vectors for exponents 0 .. n-1."""
    if n < 1:
        raise SpecError("need n >= 1")
    tm = thue_morse("digit_sum")
    codes = tm.prefix_array(2 ** n)
    zeros = np.flatnonzero(codes == 0).tolist()
    ones = np.flatnonzero(codes == 1).tolist()
    zsums = [sum(i ** e for i in zeros) for e in range(n)]
    osums = [sum(i ** e for i in ones) for e in range(n)]
    return ProuhetReport(n, zeros, ones, zsums, osums)


# -- eventual-periodicity screen ---------------------------------------------------


def periodicity_screen(x: Sequence, horizon: int, n_max: int = 30) -> ScreenReport:
    """Complexity screen: if p(n) <= n for some n <= n_max the sequence is
    eventually periodic; in that case an explicit (preperiod, period) pair
    is searched for and reported when confirmed inside the horizon."""
    if n_max < 1:
        raise SpecError("n_max must be at least 1")
    comps = {}
    trigger = None
    for n in range(1, n_max + 1):
        comps[n] = subword_complexity(x, n, horizon)
        if comps[n] <= n:
            trigger = n
            break
    if trigger is None:
        return ScreenReport(comps, None)
    arr = x.prefix_array(horizon)
    for period in range(1, horizon // 4 + 1):
        mism = np.flatnonzero(arr[period:] != arr[:-period])
        pre = int(mism[-1]) + 1 if mism.size else 0
        if pre <= horizon // 4:
            return ScreenReport(comps, trigger, pre, period, True)
    return ScreenReport(comps, trigger, None, None, False)


# -- arithmetic-progression witnesses ------------------------------------------------


def progression_witness(x: Sequence, u: Word, horizon: int,
                        extra_diffs=()) -> tuple | None:
    """Find (a, d) such that u occurs at a + i*d for every i with
    a + i*d + |u| <= horizon (at least three terms).  Candidate start
    points are the first few occurrences; candidate differences come from
    occurrence spacing plus any provided values."""
    n = len(u)
    hits = _occurrence_hits(x, u, horizon - n + 1)
    occ = np.flatnonzero(hits)
    if occ.size == 0:
        return None
    occ_set = set(int(v) for v in occ)
    cands = set(int(d) for d in np.diff(occ[:200])) | set(extra_diffs)
    cands |= {int(o - occ[0]) for o in occ[1:50]}
    limit = horizon - n
    for a in (int(v) for v in occ[:8]):
        for d in sorted(c for c in cands if c > 0):
            terms = range(a, limit + 1, d)
            if len(terms) < 3:
                continue
            if all(t in occ_set for t in terms):
                return a, d
    return None


def stabilization_prefix(x: Sequence, max_len: int, horizon: int) -> int:
    """Largest end position of a finitely-occurring factor of length up to
    max_len (0 when every such factor recurs): an empirical stand-in for
    the prefix after which the sequence looks uniformly recurrent."""
    worst = 0
    for n in range(1, max_len + 1):
        last = _factor_groups(x, n, horizon)[1]
        dying = last[last < horizon // 2]
        if dying.size:
            worst = max(worst, int(dying.max()) + n)
    return worst
