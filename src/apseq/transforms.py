"""Sequence-to-sequence machinery: morphism application, finite-state
transduction with certified-bound propagation, products, splits, and a
stack machine that leaves the well-behaved classes.

Bound propagation is metadata arithmetic only: it never inspects the
sequence.  A uniform transducer with m states maps a sequence with bound
g to one with bound h(h(n)), h = (g+1) composed m times minus 1; general
transducers drop the bound (they factor as uniform followed by a plain
morphism, and no window formula is asserted for morphism images).

Finite machines, the decision engine's acceptors included, run a chunk of
codes at a time through one kernel, :func:`run_states`; emissions are read
at state * k + code.  Splits number a chunk's blocks with array arithmetic;
only the stack machine steps one symbol at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Alphabet, Bound, Provenance, Sequence, Word, read_records
from .errors import MachineFault, MachineParseError, SpecError
from .generators import Morphism, _expand, _image_table, periodic

# -- machines -----------------------------------------------------------------


@dataclass(frozen=True)
class Transducer:
    """Deterministic sequential machine: per input symbol it emits an
    output word and moves to the next state.  Uniform means every emission
    has length exactly one."""

    input_alphabet: Alphabet
    output_alphabet: Alphabet
    states: tuple
    initial: str
    emit: dict        # (state, symbol) -> Word over output_alphabet
    step: dict        # (state, symbol) -> state

    def __post_init__(self):
        if self.initial not in self.states:
            raise SpecError("initial state missing from state list")
        for q in self.states:
            for a in self.input_alphabet:
                if (q, a) not in self.emit or (q, a) not in self.step:
                    raise SpecError(f"transducer not total at ({q!r}, {a!r})")
                if self.emit[(q, a)].alphabet != self.output_alphabet:
                    raise SpecError("emission over the wrong alphabet")
                if self.step[(q, a)] not in self.states:
                    raise SpecError("transition to unknown state")

    @property
    def uniform(self) -> bool:
        return all(len(w) == 1 for w in self.emit.values())

    @property
    def erasing(self) -> bool:
        return any(len(w) == 0 for w in self.emit.values())


def identity_transducer(alphabet: Alphabet) -> Transducer:
    emit = {("q0", a): alphabet.word([a]) for a in alphabet}
    step = {("q0", a): "q0" for a in alphabet}
    return Transducer(alphabet, alphabet, ("q0",), "q0", emit, step)


def cyclic_transducer(alphabet: Alphabet, m: int) -> Transducer:
    """m states cycling on every input; emits the (symbol, phase) pair."""
    if m < 1:
        raise SpecError("need at least one state")
    out = pair_alphabet(alphabet, Alphabet(tuple(str(i) for i in range(m))))
    states = tuple(f"q{i}" for i in range(m))
    emit, step = {}, {}
    for i, q in enumerate(states):
        for a in alphabet:
            emit[(q, a)] = out.word([pair_symbol(a, str(i))])
            step[(q, a)] = states[(i + 1) % m]
    return Transducer(alphabet, out, states, states[0], emit, step)


def pair_symbol(a: str, b: str) -> str:
    return f"({a},{b})"


def pair_alphabet(first: Alphabet, second: Alphabet) -> Alphabet:
    return Alphabet(tuple(pair_symbol(a, b) for a in first for b in second))


# -- morphism application -------------------------------------------------------


def apply_morphism(phi: Morphism, x: Sequence) -> Sequence:
    """Concatenation of the letter images along the sequence.  No
    certified bound propagates: class preservation holds, but no window
    formula is asserted for general morphism images."""
    if phi.source != x.alphabet:
        raise SpecError("morphism source does not match the sequence alphabet")
    table = _image_table(phi.image_codes(), phi.target)
    if not table[2].any():
        raise SpecError("image collapse: every letter erased")

    def chunks():
        stall = 0  # input symbols with empty images since the last output
        for xs in x.chunks():
            emits = np.concatenate(([-1 - stall], np.flatnonzero(table[2][xs]), [xs.size]))
            if (np.diff(emits) - 1).max() > 100_000:
                raise SpecError("image collapse: no output over a long input stretch")
            stall = xs.size - 1 - int(emits[-2])
            yield _expand(table, xs)

    prov = Provenance("morphism_image", {"of": str(x.provenance)})
    return Sequence.from_chunks(phi.target, chunks(), provenance=prov, horizon_cap=x.horizon_cap)


# -- transduction ----------------------------------------------------------------


def bound_formulas(g, m: int) -> dict:
    """The window formulas for an m-state machine applied to a sequence
    with regulator bound g:

    * ``image``: h(h(n)) with h = (g+1) composed m times, minus 1;
    * ``reversible``: h(n) alone (letters acting bijectively on states);
    * ``prefix``: g(1) + g(g(1)) + ... iterated m times and summed, a
      bound on the prefix after which the image is uniformly recurrent.
    """
    if m < 1:
        raise SpecError("need at least one state")
    g = g if isinstance(g, Bound) else Bound(g, "given window g")

    def h(n):
        t = n
        for _ in range(m):
            t = g(t) + 1
        return t - 1

    out = {
        "image": Bound(lambda n: h(h(n)), f"uniform image window, m={m}"),
        "reversible": Bound(h, f"reversible image window, m={m}"),
    }
    total, t = 0, 1
    for _ in range(m):
        t = g(t)
        total += t
    out["prefix"] = total
    return out


def run_states(table: np.ndarray, q: int, codes: np.ndarray, block: int = 0,
               visits: bool = True):
    """(before, exit) of the run from state q over the codes: before[i] is
    the state before codes[i], exit the last one.  Without ``visits``,
    before is None if the codes fill whole blocks.

    ``table`` has a row per state and a column per code; a state is its row
    times k, so state + code indexes the flat table (and emission tables).
    Blocks of ``block`` codes (default sqrt(n)/5) are advanced from every
    state at once, one gather per block position; their maps are chained
    from q, and a replay from each block's entry state lists its states."""
    flat, k, n = table.ravel(), table.shape[1], len(codes)
    B = block or max(1, math.isqrt(n) // 5)
    nb = -(-n // B)
    cols = np.zeros(nb * B, dtype=np.intp)
    cols[:n] = codes
    cols = np.ascontiguousarray(cols.reshape(nb, B).T)   # cols[j]: symbol j of each block
    maps = np.repeat(np.arange(0, flat.size, k)[:, None], nb, axis=1)  # maps[s, b]: block b from s
    tmp = np.empty_like(maps)
    for col in cols:
        flat.take(np.add(maps, col, out=tmp), out=maps)
    entry = []
    for row in maps.T.tolist():
        entry.append(q)
        q = row[q // k]
    if not (visits or n % B):  # a partial last block's map runs on past the codes
        return None, q
    visit = np.empty((B + 1, nb), dtype=np.intp)        # visit[j, b]: state before cols[j, b]
    visit[0] = entry
    for j, col in enumerate(cols):
        flat.take(np.add(visit[j], col, out=tmp[0]), out=visit[j + 1])
    before = visit[:B].T.ravel()[:n]
    return before, int(flat[before[-1] + codes[-1]]) if n else q


def transduce(machine: Transducer, x: Sequence) -> Sequence:
    """The image of the sequence under the machine.  Uniform machines
    propagate a certified bound (m-fold window composition, applied
    twice); non-uniform machines yield an unbounded image, matching the
    factoring into a uniform machine followed by a morphism."""
    if machine.input_alphabet != x.alphabet:
        raise SpecError("machine input alphabet does not match the sequence")
    k = len(x.alphabet)
    row = {q: i * k for i, q in enumerate(machine.states)}
    keys = [(q, a) for q in machine.states for a in x.alphabet]
    table = np.array([row[machine.step[key]] for key in keys], dtype=np.intp).reshape(-1, k)
    images = _image_table([machine.emit[key].codes for key in keys], machine.output_alphabet)
    uniform = machine.uniform

    def chunks():
        q = row[machine.initial]
        for xs in x.chunks():
            before, q = run_states(table, q, xs)
            yield images[0][before + xs] if uniform else _expand(images, before + xs)

    bound = None
    if uniform and x.certified_bound is not None:
        bound = bound_formulas(x.certified_bound, len(machine.states))["image"]
    prov = Provenance("transduce", {"of": str(x.provenance), "states": len(machine.states)})
    return Sequence.from_chunks(machine.output_alphabet, chunks(), bound=bound, provenance=prov,
                                horizon_cap=x.horizon_cap)


def state_emitting(machine: Transducer) -> Transducer:
    """The uniform machine with the same transitions that emits the
    (state, symbol) pair it consumes in."""
    out = pair_alphabet(Alphabet(machine.states), machine.input_alphabet)
    emit = {(q, a): out.word([pair_symbol(q, a)])
            for q in machine.states for a in machine.input_alphabet}
    return Transducer(machine.input_alphabet, out, machine.states,
                      machine.initial, emit, machine.step)


def decompose(machine: Transducer):
    """Factor the machine as (uniform state-emitting machine, morphism):
    applying the morphism that maps each (state, symbol) pair to the
    original emission reproduces the machine's image exactly."""
    uniform = state_emitting(machine)
    images = {pair_symbol(q, a): machine.emit[(q, a)]
              for q in machine.states for a in machine.input_alphabet}
    phi = Morphism(uniform.output_alphabet, machine.output_alphabet, images,
                   erasing_ok=machine.erasing)
    return uniform, phi


def is_reversible(machine: Transducer) -> bool:
    """Every input letter acts as a bijection on the state set."""
    return is_almost_reversible(machine, set(machine.input_alphabet))


def is_almost_reversible(machine: Transducer, recurrent_letters) -> bool:
    """Every letter in the given set acts as a bijection on the states
    (the letters occurring infinitely often in the intended input)."""
    letters = set(recurrent_letters)
    if not letters <= set(machine.input_alphabet):
        raise SpecError("recurrent letters must belong to the input alphabet")
    n = len(machine.states)
    for a in letters:
        image = {machine.step[(q, a)] for q in machine.states}
        if len(image) != n:
            return False
    return True


# -- products ---------------------------------------------------------------------


def product(x: Sequence, y: Sequence) -> Sequence:
    """The componentwise pair sequence over the product alphabet.  When
    the second factor is periodic with period p and the first carries a
    certified bound, the product is the image of the first under a
    p-state cyclic machine, so the uniform image window with m = p states
    is attached; one letter and no prefix describe y = psi(0)^omega."""
    out = pair_alphabet(x.alphabet, y.alphabet)
    ky = len(y.alphabet)

    def fn(i: np.ndarray) -> np.ndarray:
        j = int(i[-1]) + 1
        xs = x.prefix_array(j)[i[0]:].astype(np.int64)  # pair codes pass the factors' dtypes
        return xs * ky + y.prefix_array(j)[i[0]:]

    bound, d = None, y.substitutive
    if d is not None and len(d.sigma) == 1 and not d.prefix and x.certified_bound is not None:
        bound = bound_formulas(x.certified_bound, len(d.psi[0]))["image"]
    return Sequence.from_index_fn(out, fn, bound=bound,
                                  provenance=Provenance("product",
                                                        {"left": str(x.provenance),
                                                         "right": str(y.provenance)}),
                                  horizon_cap=min(x.horizon_cap, y.horizon_cap))


def cyclic(x: Sequence, m: int) -> Sequence:
    """Product with the cyclic counter 01...(m-1)01...; the standard way
    of interleaving a phase into a sequence."""
    counter = periodic(Word(Alphabet(tuple(str(i) for i in range(m))),
                            tuple(range(m))))
    return product(x, counter)


# -- splits -----------------------------------------------------------------------


def split(x: Sequence, marker: str, horizon: int) -> Sequence:
    """Cut after every occurrence of the marker, encode each block (a
    marker-free word followed by the marker) as a fresh symbol, and drop
    the first block.  The block alphabet is discovered on the horizon
    prefix; a later block outside it is a hard error.  One routine names
    every block: digits code + 1 in base k + 1, first digit highest, zeros
    after up to the longest discovered block, top (int64 while it fits,
    else Python ints).  Names sort as the blocks do: the prefix's sorted
    names are the alphabet, and a name's rank is its symbol."""
    mcode = x.alphabet.index(marker)
    xs = x.prefix_array(horizon)
    ends = np.flatnonzero(xs == mcode) + 1
    if ends.size < 2:
        raise SpecError(f"marker {marker!r} does not cut twice within the horizon")
    lens = np.diff(ends, prepend=0)
    base, top = len(x.alphabet) + 1, int(lens.max())
    weight = np.array([base**j for j in range(top - 1, -1, -1)] + [0],
                      dtype=np.int64 if base**top < 2**63 else object)

    def name(seg, cut):
        # places past top weigh 0: a longer block keeps top digits without the
        # marker's, which every discovered name holds, so it takes none of them
        starts = np.concatenate(([0], cut[:-1]))
        pos = np.arange(seg.size) - np.repeat(starts, cut - starts)  # places from the block start
        digit = seg.astype(weight.dtype) + 1  # widened: code 255 + 1 wraps in uint8
        return np.add.reduceat(digit * weight[np.minimum(pos, top)], starts), starts

    names, first = np.unique(name(xs[:ends[-1]], ends)[0], return_index=True)
    out = Alphabet(tuple(Word._of(x.alphabet, tuple(xs[e - n:e].tolist())).text
                         for e, n in zip(ends[first], lens[first])))

    def chunks():
        rest = []  # the codes after the last marker read
        for xs in x.chunks(int(ends[0])):
            cut = np.flatnonzero(xs == mcode) + 1
            if not cut.size:
                rest.append(xs)
                yield []
                continue
            seg = np.concatenate([*rest, xs[:cut[-1]]])
            rest, cut = [xs[cut[-1]:]], cut + (seg.size - cut[-1])
            got, starts = name(seg, cut)
            i = np.minimum(np.searchsorted(names, got), names.size - 1)
            bad = np.flatnonzero(names[i] != got)
            if bad.size:
                yield i[:bad[0]]  # the blocks before the unknown one are valid
                key = tuple(seg[starts[bad[0]]:cut[bad[0]]].tolist())
                raise SpecError(f"block {key} not discovered within the split horizon {horizon}")
            yield i

    prov = Provenance("split", {"of": str(x.provenance), "marker": marker, "horizon": horizon})
    return Sequence.from_chunks(out, chunks(), provenance=prov, horizon_cap=x.horizon_cap)


def unsplit(blocks: Sequence, n_blocks: int, source_alphabet: Alphabet) -> Word:
    """Concatenate the first n decoded blocks back into a word over the
    source alphabet (restores the source from the end of its dropped
    first block onward)."""
    letters = []
    for i in range(n_blocks):
        name = blocks[i]
        letters.extend(list(name) if source_alphabet.single_char else name.split(","))
    return source_alphabet.word(letters)


# -- stack machines ------------------------------------------------------------------


@dataclass(frozen=True)
class PushdownTransducer:
    """Finite transducer with a stack.  Rules map (state, input symbol,
    stack top or None) to (output word text, next state, action); actions
    are ("push", s), ("pop",), ("noop",).  Rules must cover every
    reachable configuration; a pop on the empty stack means the rule
    table itself asked for the impossible and faults."""

    input_alphabet: Alphabet
    output_alphabet: Alphabet
    states: tuple
    initial: str
    stack_symbols: tuple
    rules: dict

    def rule(self, q, a, top):
        try:
            return self.rules[(q, a, top)]
        except KeyError:
            raise MachineFault(f"no rule for state {q!r}, input {a!r}, top {top!r}") from None


def pushdown_transduce(machine: PushdownTransducer, x: Sequence) -> Sequence:
    """Configuration stepping.  No class is preserved and no bound is ever
    attached; stack machines can leave the well-behaved classes entirely.

    It stays per symbol: the configurations are unbounded, so no finite
    table of block maps exists for :func:`run_states`.  A rule is compiled on
    first use, keyed (top * states + state) * k + code, to (output codes,
    next state, action): the pushed symbol's number, 0, or -1 for a pop."""
    if machine.input_alphabet != x.alphabet:
        raise SpecError("machine input alphabet does not match the sequence")
    insyms, k = x.alphabet.symbols, len(x.alphabet)
    out = machine.output_alphabet
    states = list(dict.fromkeys([machine.initial, *(key[0] for key in machine.rules),
                                 *(rule[1] for rule in machine.rules.values())]))
    state = {q: i for i, q in enumerate(states)}
    tops, number, table = [None], {}, {}  # stack symbols by number, 0 the empty stack

    def compile_rule(key, stack):
        (t, q), c = divmod(key // k, len(states)), key % k
        emit, nq, action = machine.rule(states[q], insyms[c], tops[t])
        act = -(action[0] == "pop")
        if action[0] == "push":
            act = number.setdefault(action[1], len(tops))
            if act == len(tops):
                tops.append(action[1])
        try:
            table[key] = tuple(out.index(s) for s in emit), state[nq], act
        except SpecError:
            if act < 0 and not stack:
                raise MachineFault("pop on empty stack") from None
            raise
        return table[key]

    def chunks():
        q, stack, n = state[machine.initial], [], len(states)
        for xs in x.chunks():
            codes = []
            try:
                for c in xs.tolist():
                    key = ((stack[-1] if stack else 0) * n + q) * k + c
                    emit, q, act = table.get(key) or compile_rule(key, stack)
                    if act > 0:
                        stack.append(act)
                    elif act:
                        if not stack:
                            raise MachineFault("pop on empty stack")
                        stack.pop()
                    codes += emit
            except MachineFault:
                yield codes  # the steps before the faulting one are valid
                raise
            yield codes

    prov = Provenance("pushdown", {"of": str(x.provenance)})
    return Sequence.from_chunks(out, chunks(), provenance=prov, horizon_cap=x.horizon_cap)


def counterexample_machine() -> PushdownTransducer:
    """The two-mode balance tracker: mode a pushes on 0 and pops on 1,
    mode b does the opposite, and each step reports its mode.  An empty
    stack hands control to whichever mode the next symbol feeds (this is
    the toggle: the stack empties, the machine flips).  On an input whose
    prefix imbalances swing both ways without bound, the output contains
    arbitrarily long constant runs, so it is not generalized almost periodic."""
    binary = Alphabet.binary()
    out = Alphabet.of("a", "b")
    rules = {}
    for q in ("a", "b"):
        # empty stack: the incoming symbol dictates the mode
        rules[(q, "0", None)] = ("a", "a", ("push", "0"))
        rules[(q, "1", None)] = ("b", "b", ("push", "1"))
    rules[("a", "0", "0")] = ("a", "a", ("push", "0"))
    rules[("a", "1", "0")] = ("a", "a", ("pop",))
    rules[("b", "1", "1")] = ("b", "b", ("push", "1"))
    rules[("b", "0", "1")] = ("b", "b", ("pop",))
    return PushdownTransducer(binary, out, ("a", "b"), "a", ("0", "1"), rules)


# -- text format -----------------------------------------------------------------------


def print_transducer(machine: Transducer) -> str:
    """Canonical text form:

        states: q0 q1
        start: q0
        q0 a -> w q1

    with "-" for an empty emission.  parse(print(parse(t))) is the
    identity on the printed form."""
    lines = ["states: " + " ".join(machine.states), "start: " + machine.initial]
    for q in machine.states:
        for a in machine.input_alphabet:
            w = machine.emit[(q, a)]
            wtext = w.text if len(w) else "-"
            lines.append(f"{q} {a} -> {wtext} {machine.step[(q, a)]}")
    return "\n".join(lines) + "\n"


def parse_transducer(text: str) -> Transducer:
    """Parse the text format.  The input alphabet is the symbols read, the
    output alphabet the symbols emitted (the input's when nothing is)."""
    head, arcs = read_records(text, {"states": str.split, "start": str}, "q a -> w q2",
                              MachineParseError)
    if not {"states", "start"} <= head.keys():
        raise MachineParseError("missing states: or start: header")
    input_alphabet = Alphabet(tuple(sorted({a for (_q, a, _w, _q2) in arcs})))
    out_syms = sorted({c for (_q, _a, w, _q2) in arcs if w != "-" for c in w})
    output_alphabet = Alphabet(tuple(out_syms)) if out_syms else input_alphabet
    emit, step = {}, {}
    for q, a, w, q2 in arcs:
        emit[(q, a)] = output_alphabet.word("" if w == "-" else w)
        step[(q, a)] = q2
    try:
        return Transducer(input_alphabet, output_alphabet, tuple(head["states"]), head["start"],
                          emit, step)
    except SpecError as e:
        raise MachineParseError(str(e)) from None
