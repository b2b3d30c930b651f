"""Sequence-to-sequence machinery: morphism application, finite-state
transduction with certified-bound propagation, products, splits, and a
stack machine that leaves the well-behaved classes.

Bound propagation is metadata arithmetic only: it never inspects the
sequence.  A uniform transducer with m states maps a sequence with bound
g to one with bound h(h(n)), h = (g+1) composed m times minus 1; general
transducers drop the bound (they factor as uniform followed by a plain
morphism, and no window formula is asserted for morphism images).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import _CHUNK, Alphabet, Bound, Provenance, Sequence, Word, read_records
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


def bound_formulas(g, m: int, linear_coefficient=None) -> dict:
    """The window formulas for an m-state machine applied to a sequence
    with regulator bound g:

    * ``image``: h(h(n)) with h = (g+1) composed m times, minus 1;
    * ``reversible``: h(n) alone (letters acting bijectively on states);
    * ``prefix``: g(1) + g(g(1)) + ... iterated m times and summed, a
      bound on the prefix after which the image is uniformly recurrent;
    * ``linear`` (when g(n) = C*n): C^(2m)*n + C^(2m-1) + ... + C + 1.
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
    if linear_coefficient is not None:
        c = linear_coefficient

        def lin(n):
            return c**(2 * m) * n + sum(c**j for j in range(2 * m))

        out["linear"] = Bound(lin, f"linear window, C={c}, m={m}")
    return out


def transduce(machine: Transducer, x: Sequence) -> Sequence:
    """The image of the sequence under the machine.  Uniform machines
    propagate a certified bound (m-fold window composition, applied
    twice); non-uniform machines yield an unbounded image, matching the
    factoring into a uniform machine followed by a morphism."""
    if machine.input_alphabet != x.alphabet:
        raise SpecError("machine input alphabet does not match the sequence")
    insyms = x.alphabet.symbols
    emit = {k: w.codes for k, w in machine.emit.items()}
    step = machine.step

    def chunks():
        q = machine.initial
        for xs in x.chunks():
            out = []
            for c in xs.tolist():
                a = insyms[c]
                out.extend(emit[(q, a)])
                q = step[(q, a)]
            yield out

    bound = None
    if machine.uniform and x.certified_bound is not None:
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
    is attached."""
    out = pair_alphabet(x.alphabet, y.alphabet)
    ky = len(y.alphabet)

    def chunks():
        for i in itertools.count(0, _CHUNK):
            j = min(i + _CHUNK, x.horizon_cap, y.horizon_cap)
            if j <= i:
                return
            yield x.prefix_array(j)[i:] * ky + y.prefix_array(j)[i:]

    bound = None
    p = y.provenance.params.get("period_len") if y.provenance.family == "periodic" else None
    if p and x.certified_bound is not None:
        bound = bound_formulas(x.certified_bound, p)["image"]
    return Sequence.from_chunks(out, chunks(), bound=bound,
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
    prefix; a later block outside it is a hard error."""
    mcode = x.alphabet.index(marker)
    xs = x.prefix_array(horizon)
    ends = (np.flatnonzero(xs == mcode) + 1).tolist()
    blocks = [tuple(xs[a:b].tolist()) for a, b in zip([0] + ends, ends)]
    if len(blocks) < 2:
        raise SpecError(f"marker {marker!r} does not cut twice within the horizon")
    kinds = sorted(set(blocks))
    code_of = {b: i for i, b in enumerate(kinds)}
    insyms = x.alphabet.symbols
    sep = "" if x.alphabet.single_char else ","
    out = Alphabet(tuple(sep.join(insyms[c] for c in b) for b in kinds))

    def chunks():
        run = []
        for xs in x.chunks(len(blocks[0])):
            codes = []
            for c in xs.tolist():
                run.append(c)
                if c == mcode:
                    key = tuple(run)
                    if key not in code_of:
                        yield codes  # the blocks before the unknown one are valid
                        raise SpecError(
                            f"block {key} not discovered within the split horizon {horizon}")
                    codes.append(code_of[key])
                    run.clear()
            yield codes

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
    """Straightforward configuration stepping.  No class is preserved and
    no bound is ever attached; stack machines can leave the well-behaved
    classes entirely."""
    if machine.input_alphabet != x.alphabet:
        raise SpecError("machine input alphabet does not match the sequence")
    insyms = x.alphabet.symbols
    out = machine.output_alphabet

    def chunks():
        q, stack = machine.initial, []
        for xs in x.chunks():
            codes = []
            try:
                for c in xs.tolist():
                    emit, q, action = machine.rule(q, insyms[c], stack[-1] if stack else None)
                    if action[0] == "push":
                        stack.append(action[1])
                    elif action[0] == "pop":
                        if not stack:
                            raise MachineFault("pop on empty stack")
                        stack.pop()
                    codes.extend(out.index(s) for s in emit)
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


def parse_transducer(text: str, input_alphabet: Alphabet | None = None,
                     output_alphabet: Alphabet | None = None) -> Transducer:
    """Parse the text format; alphabets default to the symbols seen."""
    head, arcs = read_records(text, {"states": str.split, "start": str}, "q a -> w q2",
                              MachineParseError)
    if not {"states", "start"} <= head.keys():
        raise MachineParseError("missing states: or start: header")
    in_syms = sorted({a for (_q, a, _w, _q2) in arcs})
    if input_alphabet is None:
        input_alphabet = Alphabet(tuple(in_syms))
    out_syms = sorted({c for (_q, _a, w, _q2) in arcs if w != "-" for c in w})
    if output_alphabet is None:
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
