"""Reference outputs for the benchmark, computed without importing apseq.

Every function here works from a closed form, a naive generator written
from the family's definition, or a direct scan, so a defect in the
package under measurement cannot hide in its own reference.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

# -- closed forms -----------------------------------------------------------------


def thue_morse(n: int) -> np.ndarray:
    """Parity of the binary digit sum of each index."""
    return (np.bitwise_count(np.arange(n, dtype=np.uint64)) & 1).astype(np.int64)


def _isqrt(v: np.ndarray) -> np.ndarray:
    """Exact integer square root of a nonnegative int64 array."""
    s = np.floor(np.sqrt(v.astype(np.float64))).astype(np.int64)
    for _ in range(2):
        s -= (s * s > v)
        s += ((s + 1) * (s + 1) <= v)
    return s


def fibonacci(n: int) -> np.ndarray:
    """s(i) = 2 + floor((i+1) phi) - floor((i+2) phi), in exact integers:
    floor(k phi) = (k + isqrt(5 k^2)) // 2 because sqrt(5 k^2) is
    irrational for k > 0."""
    k = np.arange(1, n + 2, dtype=np.int64)
    fl = (k + _isqrt(5 * k * k)) // 2
    return 2 + fl[:-1] - fl[1:]


def mechanical_invphi2(n: int) -> np.ndarray:
    """Lower mechanical word with slope and intercept (3 - sqrt 5)/2:
    s(i) = F(i + 2) - F(i + 1) with F(m) = floor(m (3 - sqrt 5) / 2)
    = (3m - isqrt(5 m^2) - 1) // 2 for m >= 1."""
    m = np.arange(1, n + 2, dtype=np.int64)
    fl = (3 * m - _isqrt(5 * m * m) - 1) // 2
    return fl[1:] - fl[:-1]


def paperfolding(n: int) -> np.ndarray:
    """1 exactly when the odd part of i + 1 is 1 mod 4."""
    m = np.arange(1, n + 1, dtype=np.int64)
    odd = m // (m & -m)
    return (odd % 4 == 1).astype(np.int64)


def _digits(n: int, base: int):
    i = np.arange(n, dtype=np.int64)
    while np.any(i):
        yield i % base
        i = i // base


def keane(n: int) -> np.ndarray:
    """Block product of 001 with itself: parity of the number of base-3
    digits equal to 2."""
    out = np.zeros(n, dtype=np.int64)
    for d in _digits(n, 3):
        out ^= (d == 2)
    return out


def aperiodicity_witness(n: int, k: int) -> np.ndarray:
    """Fixed point of a -> (a + j(j+1)/2 mod k)_j: the sum over base-k
    digits d of d(d+1)/2, mod k."""
    out = np.zeros(n, dtype=np.int64)
    for d in _digits(n, k):
        out += d * (d + 1) // 2
    return out % k


# -- naive generators -----------------------------------------------------------------


def kolakoski(n: int) -> np.ndarray:
    """Classic self-reading generation of 1,2,2,1,1,2,...; the first term
    is dropped to start at 2,2 and symbols are coded as value - 1."""
    a = [1, 2, 2]
    i = 2
    while len(a) < n + 1:
        a.extend([i % 2 + 1] * a[i])
        i += 1
    return np.array(a[1:n + 1], dtype=np.int64) - 1


def fixed_point(images: list, seed: int, n: int) -> np.ndarray:
    """Prefix of the fixed point of a prolongable substitution, by
    iterating it on the seed letter; images are lists of letter codes."""
    lens = np.array([len(im) for im in images], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
    flat = np.array([c for im in images for c in im], dtype=np.int64)
    w = np.array([seed], dtype=np.int64)
    while w.size < n:
        ln = lens[w]
        starts = np.repeat(offsets[w] - np.concatenate(([0], np.cumsum(ln)[:-1])), ln)
        w = flat[starts + np.arange(int(ln.sum()))]
    return w[:n]


def hole_filling(slots: list, n: int) -> np.ndarray:
    """Repeat the pattern, then write the stream itself into the holes in
    order (slots hold codes, None at holes).  The h-th hole lies past
    position h, so repeated filling reaches a fixed point."""
    p = len(slots)
    pos = np.arange(n, dtype=np.int64)
    sym = np.array([-1 if s is None else s for s in slots], dtype=np.int64)
    out = sym[pos % p]
    holes = np.flatnonzero(out < 0)
    src = np.arange(holes.size, dtype=np.int64)
    while True:
        new = out[src]
        if np.array_equal(out[holes], new):
            return out
        out[holes] = new


def progression_rewrite(n: int, period: list, n0: int, ratio: int) -> np.ndarray:
    """Periodic base, then for levels k = 0, 1, ...: copy the length-n_k
    prefix onto every segment that starts at a positive multiple of
    n_{k+1}.  Positions below n_k are final before level k runs."""
    out = np.array(period, dtype=np.int64)[np.arange(n) % len(period)]
    pos = np.arange(n, dtype=np.int64)
    lo, hi = n0, n0 * ratio
    while hi < n:
        r = pos % hi
        hit = (pos >= hi) & (r < lo)
        out[hit] = out[r[hit]]
        lo, hi = hi, hi * ratio
    return out


def random_codes(seed: int, k: int, n: int) -> np.ndarray:
    """The stdlib generator stream behind a seeded uniform random word."""
    rng = random.Random(seed)
    return np.array([rng.randrange(k) for _ in range(n)], dtype=np.int64)


def run_transducer(emit: dict, step: dict, initial: str, word: np.ndarray, n: int) -> list:
    """Output codes of a sequential machine, stepped one input at a time
    until n outputs exist; emit maps (state, code) to a list of codes."""
    out, q, i = [], initial, 0
    while len(out) < n:
        a = int(word[i])
        out.extend(emit[(q, a)])
        q = step[(q, a)]
        i += 1
    return out[:n]


def balance_machine(word: np.ndarray, n: int) -> list:
    """The two-mode stack tracker: an empty stack sets the mode from the
    incoming letter; the mode pushes its own letter and pops the other.
    Emits the mode (0 for a, 1 for b) per input."""
    out, depth, mode = [], 0, 0
    for a in word[:n].tolist():
        if depth == 0:
            mode = a
            depth = 1
        elif a == mode:
            depth += 1
        else:
            depth -= 1
        out.append(mode)
    return out


def split_blocks(word: np.ndarray, marker: int, n: int, names: list) -> np.ndarray:
    """Cut after every marker, drop the first block and code each block by
    its index in the sorted list of block tuples."""
    ends = np.flatnonzero(word == marker)
    if ends.size < n + 1:
        raise ValueError("word too short for the requested blocks")
    index = {b: i for i, b in enumerate(names)}
    out = []
    for a, b in zip(ends[:n].tolist(), ends[1:n + 1].tolist()):
        out.append(index[tuple(word[a + 1:b + 1].tolist())])
    return np.array(out, dtype=np.int64)


# -- factor statistics ----------------------------------------------------------------


def tm_complexity(n: int) -> int:
    """Factor complexity of the Thue-Morse word (Brlek; de Luca and
    Varricchio): with n - 1 = 2^r + q, 0 < q <= 2^r, p(n) = 3*2^r + 4q
    when q <= 2^(r-1) and 4*2^r + 2q otherwise."""
    if n <= 2:
        return 2 * n
    m = n - 1
    r = (m - 1).bit_length() - 1
    q = m - (1 << r)
    if r >= 1 and q <= 1 << (r - 1):
        return 3 * (1 << r) + 4 * q
    return 4 * (1 << r) + 2 * q


def factor_ids(arr: np.ndarray, n: int) -> np.ndarray:
    """One integer per length-n window, equal exactly for equal factors.
    The window is read in chunks whose base-k value fits in 62 bits, and
    each chunk is folded into a dense rank of the pair (ids so far,
    chunk value)."""
    k = max(2, int(arr.max()) + 1)
    chunk = max(1, 62 // (k - 1).bit_length())
    m = arr.size - n + 1
    ids = None
    for start in range(0, n, chunk):
        c = np.zeros(m, dtype=np.int64)
        for j in range(start, min(n, start + chunk)):
            c = c * k + arr[j:j + m]
        if ids is None:
            ids = c
            continue
        order = np.lexsort((c, ids))
        a, b = ids[order], c[order]
        new = np.concatenate(([True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])))
        ids = np.empty(m, dtype=np.int64)
        ids[order] = np.cumsum(new) - 1
    return ids


def complexity(arr: np.ndarray, n: int) -> int:
    return int(np.unique(factor_ids(arr, n)).size)


def regulator(arr: np.ndarray, n: int) -> tuple:
    """Empirical regulator of the prefix arr, by its definition: returns
    (value, number of distinct factors, number of finitely occurring
    factors).  Factors whose last occurrence precedes the midpoint count
    as finitely occurring and only push the cut-off past them."""
    h = arr.size
    ids = factor_ids(arr, n)
    order = np.argsort(ids, kind="stable")
    sid = ids[order]
    starts = np.flatnonzero(np.concatenate(([True], sid[1:] != sid[:-1])))
    ends = np.concatenate((starts[1:], [sid.size])) - 1
    first, last = order[starts], order[ends]
    steps = np.diff(order)
    steps[sid[1:] != sid[:-1]] = 0
    gap = np.maximum.reduceat(np.concatenate((steps, [0])), starts)
    rec = last >= h // 2
    best = max(n, int((first[rec] + n).max()), int((gap[rec] + n - 1).max()),
               int((h - last[rec]).max()))
    if (~rec).any():
        best = max(best, int(last[~rec].max()) + 1)
    return best, int(starts.size), int((~rec).sum())


def mismatch_densities(arr: np.ndarray, shift_max: int, h: int) -> dict:
    return {s: Fraction(int(np.count_nonzero(arr[:h] != arr[s:s + h])), h)
            for s in range(1, shift_max + 1)}


def eventual_period(arr: np.ndarray) -> tuple:
    """Smallest period whose last disagreement ends within the first
    quarter, with that preperiod."""
    h = arr.size
    for t in range(1, h // 4 + 1):
        bad = np.flatnonzero(arr[t:] != arr[:-t])
        pre = int(bad[-1]) + 1 if bad.size else 0
        if pre <= h // 4:
            return pre, t
    raise ValueError("no eventual period within the prefix")


# -- omega-automata ---------------------------------------------------------------------


def dfa_limit_set(delta: dict, initial, pre: list, period: list) -> frozenset:
    """States visited infinitely often by a DFA on pre followed by period
    repeated: run the preperiod, then follow the state at each period
    boundary until it repeats; the limit set is every state visited
    inside the periods of that cycle."""
    q = initial
    for a in pre:
        q = delta[(q, a)]
    seen = {}
    visits = []
    while q not in seen:
        seen[q] = len(visits)
        states = set()
        for a in period:
            states.add(q)
            q = delta[(q, a)]
        visits.append(states)
    return frozenset().union(*visits[seen[q]:])


def image_window(g, m: int) -> int:
    """w = h(h(1)) with h(n) = (t -> g(t) + 1) applied m times, minus 1:
    the uniform image window of an m-state machine over a word whose
    regulator is bounded by g."""
    def h(n):
        t = n
        for _ in range(m):
            t = g(t) + 1
        return t - 1
    return h(h(1))
