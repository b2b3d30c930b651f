"""Naive reference implementations used to cross-check the library.

Everything here works by direct definition scans over concrete symbol
lists; nothing reuses library internals beyond reading symbols out of a
sequence.
"""


def occurrences(hay, needle):
    """All (overlapping) start positions by direct window comparison."""
    n = len(needle)
    return [i for i in range(len(hay) - n + 1) if hay[i:i + n] == needle]


def min_window(codes, n, horizon):
    """Minimal l such that every length-n factor of the prefix occurs in
    every window [i, i+l-1] with i+l <= horizon; direct scan over l."""
    codes = codes[:horizon]
    facs = {tuple(codes[i:i + n]) for i in range(horizon - n + 1)}
    for l in range(n, horizon + 1):
        ok = True
        for i in range(0, horizon - l + 1):
            win = codes[i:i + l]
            wf = {tuple(win[j:j + n]) for j in range(l - n + 1)}
            if not facs <= wf:
                ok = False
                break
        if ok:
            return l
    return None


def factor_count(codes, n):
    return len({tuple(codes[i:i + n]) for i in range(len(codes) - n + 1)})


def id_groups(ids):
    """(first, last, max_gap) per distinct value of ids, in value order:
    its first and last position and the largest step between consecutive
    ones (0 for a single one)."""
    at = {}
    for i, v in enumerate(ids):
        at.setdefault(v, []).append(i)
    return [(p[0], p[-1], max((b - a for a, b in zip(p, p[1:])), default=0))
            for _v, p in sorted(at.items())]


def quasiperiods(text):
    """All covers of the word by cell marking: for each candidate prefix,
    mark every position lying under some occurrence and keep the
    candidate iff every cell got marked."""
    m = len(text)
    out = []
    for q in range(1, m + 1):
        piece = text[:q]
        covered = [False] * m
        start = 0
        while True:
            j = text.find(piece, start)
            if j == -1:
                break
            for t in range(j, j + q):
                covered[t] = True
            start = j + 1
        if all(covered):
            out.append(piece)
    return out


def eventual_period(codes):
    """Smallest (preperiod, period) confirmed on the whole list."""
    m = len(codes)
    for t in range(1, m // 2 + 1):
        pre = 0
        for i in range(m - t - 1, -1, -1):
            if codes[i] != codes[i + t]:
                pre = i + 1
                break
        if pre <= m // 4:
            return pre, t
    return None


def stabilization_prefix(pre, period, max_len):
    """Largest end position of a factor of length up to max_len that occurs
    only finitely often in pre + period + period + ... (0 when none does).
    A factor recurs exactly when it starts somewhere in the periodic part,
    so the finite ones are those starting before len(pre) and nowhere in
    one period after it."""
    p, q = len(pre), len(period)
    w = list(pre) + list(period) * (max_len // q + 2)
    worst = 0
    for n in range(1, max_len + 1):
        recurring = {tuple(w[s:s + n]) for s in range(p, p + q)}
        for s in range(p):
            if tuple(w[s:s + n]) not in recurring:
                worst = max(worst, s + n)
    return worst


def longest_constant_run(codes):
    best = cur = 1
    for i in range(1, len(codes)):
        cur = cur + 1 if codes[i] == codes[i - 1] else 1
        best = max(best, cur)
    return best


def run_length_encode(values):
    out = []
    i = 0
    while i < len(values):
        j = i
        while j < len(values) and values[j] == values[i]:
            j += 1
        out.append(j - i)
        i = j
    return out


def powers(codes, kind, max_period=None):
    """All (position, |u|) of uu (square), uuu (cube) or auaua (overlap,
    period |u| + 1) with period at most max_period, by period, then by
    position: direct check that codes[i:i + length] has that period."""
    out = []
    m = len(codes)
    for p in range(1, (m if max_period is None else max_period) + 1):
        length = {"square": 2 * p, "cube": 3 * p, "overlap": 2 * p + 1}[kind]
        for i in range(m - length + 1):
            if codes[i:i + length - p] == codes[i + p:i + length]:
                out.append((i, p - 1 if kind == "overlap" else p))
    return out


def squares(codes, max_period):
    """All (position, |u|) with codes[i:i+2u] = u-periodic, direct check."""
    return powers(codes, "square", max_period)


def toeplitz_fill(pattern_slots, length, rounds=64):
    """Materialize the hole-filling iteration on a finite window: repeat
    the pattern forever, then round after round pour the pattern stream
    itself (holes included) into the current holes, in order."""
    p = len(pattern_slots)
    work = (length + p) * 4
    t0 = [pattern_slots[i % p] for i in range(work)]
    cur = list(t0)
    for _ in range(rounds):
        holes = [i for i, v in enumerate(cur) if v is None]
        if not holes or all(v is None for v in t0):
            break
        nxt = list(cur)
        for j, pos in enumerate(holes):
            if j < len(t0):
                nxt[pos] = t0[j]
        if nxt == cur:
            break
        cur = nxt
    return cur[:length]


def window_states(delta, initial, symbols, w):
    """States q_i, w <= i < 2w, of the run q_0 = initial,
    q_{i+1} = delta[(q_i, symbols[i])], one symbol at a time; a missing
    transition raises KeyError naming the first (state, symbol) lacking
    one."""
    q, seen = initial, set()
    for i in range(2 * w):
        if i >= w:
            seen.add(q)
        q = delta[(q, symbols[i])]
    return frozenset(seen)


def eventual_limit_set(delta, initial, pre, period):
    """States visited infinitely often on pre followed by period forever:
    run to the period boundaries until the boundary state repeats, then
    collect the states of the cycle."""
    q = initial
    for a in pre:
        q = delta[(q, a)]
    first = {}
    while q not in first:
        first[q] = len(first)
        for a in period:
            q = delta[(q, a)]
    cycle = [s for s, i in first.items() if i >= first[q]]
    out = set()
    for s in cycle:
        for a in period:
            out.add(s)
            s = delta[(s, a)]
    return frozenset(out)


def progression_rewrite(base_codes, levels, length):
    """The first ``length`` symbols of the progression rewrite, by the
    definition: start from the base, then for k = 0, 1, ... copy the
    current length-n_k prefix onto every segment starting at a positive
    multiple of n_{k+1}."""
    out = list(base_codes[:length])
    k = 0
    while levels(k + 1) < length:
        nk, step = levels(k), levels(k + 1)
        for start in range(step, length, step):
            for j in range(min(nk, length - start)):
                out[start + j] = out[j]
        k += 1
    return out


def fixed_point(images, seed, length):
    """The first ``length`` codes of the fixed point of the substitution
    ``images`` (code -> list of codes) from ``seed``, by iterating the
    substitution; shorter when the word stops growing.  As phi(seed)
    starts with seed, phi^(t+1)(seed) is phi^t(seed) followed by the image
    of the part that phi^t(seed) added to phi^(t-1)(seed)."""
    return alternating_fixed_point([images], seed, length)


def alternating_fixed_point(tables, seed, length):
    """Like fixed_point, but the letter at position i is rewritten by
    tables[i mod p]."""
    w, old = [seed], 0
    while len(w) < length:
        new = [c for i in range(old, len(w)) for c in tables[i % len(tables)][w[i]]]
        if old == 0:
            new = new[1:]  # the image of position 0 starts with the seed itself
        if not new:
            break
        old = len(w)
        w.extend(new)
    return w[:length]


def alternating_apply(tables, codes):
    """One rewriting step: the letter at position i is rewritten by
    tables[i mod p]."""
    return [c for i, a in enumerate(codes) for c in tables[i % len(tables)][a]]


def block_product_word(u, v):
    """The block product of two binary code lists: u for each 0 of v and
    the complement of u for each 1."""
    return [c ^ bit for bit in v for c in u]


def kolakoski(length):
    """The first ``length`` terms (values 1 and 2) of the sequence that
    starts 2, 2 and whose j-th run has length x(j), the runs alternating
    2, 1, 2, ..."""
    x = [2, 2]
    j = 1
    while len(x) < length:
        x.extend([1 if j % 2 else 2] * x[j])
        j += 1
    return x[:length]


def dfao_run(base, transition, initial, output, n):
    """Output of the digit automaton on the base-``base`` digits of n, most
    significant first; n = 0 reads the single digit 0."""
    digits = []
    while True:
        digits.append(n % base)
        n //= base
        if n == 0:
            break
    q = initial
    for d in reversed(digits):
        q = transition[(q, d)]
    return output[q]


def mechanical(alpha, rho, length, upper=False):
    """Codes x(n) = F(n + 1) - F(n) with F(n) the floor (ceiling when upper)
    of alpha*n + rho, for Fraction alpha and rho."""
    from fractions import Fraction
    from math import ceil, floor

    alpha, rho = Fraction(alpha), Fraction(rho)
    f = ceil if upper else floor
    vals = [f(alpha * n + rho) for n in range(length + 1)]
    return [vals[n + 1] - vals[n] for n in range(length)]


def product(xs, ys, ky):
    """Pair codes x * ky + y of two code lists, ky the size of the second alphabet."""
    return [x * ky + y for x, y in zip(xs, ys)]


def morphism_image(images, codes):
    """The concatenated images (code -> list of codes) of the codes."""
    return [c for a in codes for c in images[a]]


def transduce(emit, step, initial, codes):
    """Output codes of a sequential machine, one input code at a time:
    emit[(q, c)] is the list of output codes and step[(q, c)] the next
    state."""
    q, out = initial, []
    for c in codes:
        out.extend(emit[(q, c)])
        q = step[(q, c)]
    return out


def split(codes, marker, horizon):
    """(codes, unknown) of the split of the list at the marker: the blocks
    (marker-free word, then the marker) are numbered in the sorted order of
    those ending inside the first ``horizon`` codes; the first block is
    dropped, and ``unknown`` is the first later block not among them (None
    when every complete block is)."""
    ends = [i + 1 for i in range(horizon) if codes[i] == marker]
    kinds = sorted({tuple(codes[a:b]) for a, b in zip([0] + ends, ends)})
    out, start = [], ends[0]
    for i in range(start, len(codes)):
        if codes[i] == marker:
            block = tuple(codes[start:i + 1])
            if block not in kinds:
                return out, block
            out.append(kinds.index(block))
            start = i + 1
    return out, None


def pushdown(rules, initial, symbols, out_symbols):
    """(output codes, fault) of a stack machine stepped one symbol at a
    time: rules[(state, symbol, top or None)] = (emitted text, next state,
    ("push", s) | ("pop",) | ("noop",)); ``fault`` is the text of the first
    missing rule or empty-stack pop, None when there is none."""
    q, stack, out = initial, [], []
    for a in symbols:
        top = stack[-1] if stack else None
        if (q, a, top) not in rules:
            return out, f"no rule for state {q!r}, input {a!r}, top {top!r}"
        emit, q, action = rules[(q, a, top)]
        if action[0] == "push":
            stack.append(action[1])
        elif action[0] == "pop":
            if not stack:
                return out, "pop on empty stack"
            stack.pop()
        out.extend(out_symbols.index(s) for s in emit)
    return out, None
