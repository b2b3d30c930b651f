"""Omega-automata and the certified acceptance decision.

A deterministic automaton accepts a sequence according to the set of
states it visits infinitely often.  For a sequence carrying a certified
regulator bound that limit set is computable exactly: feed the sequence
through the state-emitting machine of the automaton, propagate the bound
through the uniform-image window formula to get g, and read the states
occurring in the segment [g(1), 2 g(1) - 1] of the state stream — by the
bound, those are precisely the states that never stop occurring.

One walk computes that set.  A word described as x = u psi(sigma_0 ...
sigma_{j-1} sigma^omega(a)) is never read: after u, the states follow from
per-letter state summaries of the level blocks, level k+1 composed from
level k along sigma_k, and only u and the images psi(c) at the segment's
ends, or where a transition is missing, are run symbol by symbol.  Any
other word is generated up to 2 g(1) and run the same way, all of it u.

Sequences without a certified bound are refused: acceptance for a
deterministic automaton is decidable exactly on the sequences whose
regulator admits a computable bound, and the engine's refusal mirrors
that boundary rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Alphabet, Bound, Segment, Sequence, read_records
from .errors import CostRefusal, MachineParseError, NoCertifiedBound, SpecError, UnsupportedFeature
from .transforms import bound_formulas, run_states

# -- automata ----------------------------------------------------------------


@dataclass(frozen=True)
class MullerAutomaton:
    """Deterministic acceptor with a family of accepting limit sets."""

    alphabet: Alphabet
    states: tuple
    initial: str
    delta: dict                 # (state, symbol) -> state
    accepting: frozenset        # frozenset of frozensets of states

    def __post_init__(self):
        if self.initial not in self.states:
            raise SpecError("initial state missing")
        for q in self.states:
            for a in self.alphabet:
                if (q, a) not in self.delta:
                    raise SpecError(f"transition missing at ({q!r}, {a!r})")
                if self.delta[(q, a)] not in self.states:
                    raise SpecError("transition to unknown state")
        for mset in self.accepting:
            if not frozenset(mset) <= set(self.states):
                raise SpecError("accepting macrostate outside the state set")


@dataclass(frozen=True)
class BuchiAutomaton:
    """Acceptor with a set of accepting states: a run is accepting when
    some accepting state recurs forever.  Nondeterministic transition
    relations are stored for parsing and printing only; the decision
    procedures require the deterministic form."""

    alphabet: Alphabet
    states: tuple
    initial: str
    transitions: frozenset      # frozenset of (state, symbol, state)
    accepting: frozenset        # frozenset of states

    def __post_init__(self):
        if self.initial not in self.states:
            raise SpecError("initial state missing")
        if not self.accepting <= set(self.states):
            raise SpecError("accepting states outside the state set")
        if not {s for q, _a, q2 in self.transitions for s in (q, q2)} <= set(self.states):
            raise SpecError("transition from or to unknown state")

    @property
    def deterministic(self) -> bool:
        seen = {}
        for q, a, q2 in self.transitions:
            if (q, a) in seen and seen[(q, a)] != q2:
                return False
            seen[(q, a)] = q2
        return all((q, a) in seen for q in self.states for a in self.alphabet)

    @property
    def delta(self) -> dict:
        if not self.deterministic:
            raise UnsupportedFeature(
                "nondeterministic acceptor: determinization is out of scope; "
                "supply the deterministic form")
        return {(q, a): q2 for q, a, q2 in self.transitions}


@dataclass(frozen=True)
class Verdict:
    accept: bool
    limit_macrostate: frozenset
    window: Segment
    bound_provenance: str


# -- runs ----------------------------------------------------------------------


def run(automaton, x: Sequence, steps: int) -> list:
    """The first ``steps`` states of the run: state 0 is the initial
    state, state i+1 follows by reading x(i)."""
    delta = automaton.delta
    syms = x.alphabet.symbols
    xs = x.prefix_array(max(steps - 1, 0)).tolist()
    states = [automaton.initial]
    q = automaton.initial
    try:
        for i in range(steps - 1):
            q = delta[(q, syms[xs[i]])]
            states.append(q)
    except KeyError as e:
        raise _no_transition(e.args[0]) from None
    return states


def limit_set_oracle(automaton, x: Sequence, horizon: int) -> frozenset:
    """States visited in the second half of a long finite run: an
    empirical stand-in for the limit set, used to cross-check the
    certified decision."""
    if horizon < 2:
        raise SpecError("horizon must be at least 2")
    states = run(automaton, x, horizon)
    return frozenset(states[horizon // 2:])


def _no_transition(key: tuple) -> SpecError:
    return SpecError(f"automaton has no transition at {key}")


# -- certified decision -----------------------------------------------------------

_SCAN_CHUNK = 1 << 16   # symbols scanned at a time (a multiple of the block)
_SCAN_BLOCK = 128       # symbols per block whose state map is composed at once


def _certified_limit_set(automaton, x: Sequence):
    if x.certified_bound is None:
        raise NoCertifiedBound(
            f"{x.provenance} carries no certified regulator bound; acceptance is "
            "decided only for sequences with one (the decidability boundary)")
    delta = automaton.delta
    m = len(automaton.states)
    g = bound_formulas(x.certified_bound, m)["image"]
    w = g(1)
    if 2 * w > x.horizon_cap:
        raise CostRefusal(
            f"certified window [{w}, {2*w - 1}] exceeds the horizon cap "
            f"{x.horizon_cap}; raise the cap to decide this pair",
            needed=2 * w, cap=x.horizon_cap)
    return _window_states(automaton.initial, delta, x, w), Segment(w, 2 * w - 1), g.provenance


def _window_states(initial, delta: dict, x: Sequence, w: int) -> frozenset:
    """The states q_i, w <= i < 2w, of the run q_0 = initial,
    q_{i+1} = delta(q_i, x(i)).

    One leaf runs codes: a chunk at a time through the state table, with no
    visit replay before w; a chunk that meets the sink (a missing
    transition) is run again to name the first one.  It runs the prefix
    of x = prefix psi(sigma_0 ... sigma_{j-1} sigma^omega(seed)), or the
    first 2w codes of a word without a description.  Each block of the
    rest has a summary, its exit state and the states it visits, from every
    entry state: level 0 runs psi(c), and level k+1 composes level k along
    sigma_k(c), head[k] while k < j and sigma after.  From the prefix's end
    the walk descends from the first level whose seed block reaches 2w: a
    block before w only moves the state, a block inside [w, 2w) adds its
    visits, and a block that cuts w or 2w, or whose summary exits in the
    sink, is split, down to the leaf on psi(c).
    """
    alphabet, k = x.alphabet, len(x.alphabet)
    states = list(dict.fromkeys([initial, *(q for q, _a in delta), *delta.values()]))
    rows = {q: i for i, q in enumerate(states)}
    n = len(states) + 1                         # rows; the sink is the last
    table = np.full((n, k), (n - 1) * k, dtype=np.intp)
    for (q, a), q2 in delta.items():
        if a in alphabet:
            table[rows[q], alphabet.index(a)] = rows[q2] * k
    seen = np.zeros(n, dtype=bool)

    def leaf(codes, p, s):
        """The row at min(p + len(codes), 2w) of the run over the codes
        that start at p in row s."""
        codes = codes[:2 * w - p]
        for lo in range(0, len(codes), _SCAN_CHUNK):
            part = codes[lo:lo + _SCAN_CHUNK]
            block = min(_SCAN_BLOCK, len(part))  # a short part is not padded to a block
            before, q = run_states(table, s * k, part, block, visits=p + lo + len(part) > w)
            if q == (n - 1) * k:
                before = run_states(table, s * k, part, block)[0]
                i = np.flatnonzero(table.ravel()[before + part] == q)[0]
                raise _no_transition((states[before[i] // k], alphabet.symbols[part[i]]))
            if before is not None:
                seen[before[max(w - p - lo, 0):] // k] = True
            s = q // k
        return s

    d = x.substitutive
    prefix = x.prefix_array(2 * w) if d is None else np.array(d.prefix, dtype=np.intp)
    entry = leaf(prefix, 0, 0)                  # the row in which psi's part starts
    if d is None or len(prefix) >= 2 * w:
        return frozenset(states[i] for i in np.flatnonzero(seen))
    sigma_at = lambda j: d.head[j] if j < len(d.head) else d.sigma  # level j+1 from level j
    psi = [np.array(img, dtype=np.intp) for img in d.psi]
    exits, visits = np.empty((len(psi), n), dtype=np.intp), np.zeros((len(psi), n, n), dtype=bool)
    for c, img in enumerate(psi):
        for s in range(n):
            before, q = run_states(table, s * k, img)
            exits[c, s] = q // k
            visits[c, s, before // k] = True
    levels, lens = [(exits, visits)], [[len(img) for img in psi]]
    while len(prefix) + lens[-1][d.seed] < 2 * w:
        sigma = sigma_at(len(levels) - 1)
        exits, visits = np.empty_like(exits), np.zeros_like(visits)
        for c, image in enumerate(sigma):
            e = np.arange(n)
            for b in image:
                visits[c] |= levels[-1][1][b, e]
                e = levels[-1][0][b, e]
            exits[c] = e
        levels.append((exits, visits))
        lens.append([sum(lens[-1][b] for b in image) for image in sigma])

    def walk(level, c, p, s):
        """The row at min(end, 2w) of the block (level, c) that starts at
        p < 2w in row s."""
        end = p + lens[level][c]
        exits, visits = levels[level]
        if exits[c, s] != n - 1 and (end <= w or w <= p and end <= 2 * w):
            if end > w:
                seen[visits[c, s]] = True
            return exits[c, s]
        if level == 0:
            return leaf(psi[c], p, s)
        for b in sigma_at(level - 1)[c]:
            if p >= 2 * w:
                break
            s = walk(level - 1, b, p, s)
            p += lens[level - 1][b]
        return s

    walk(len(levels) - 1, d.seed, len(prefix), entry)
    return frozenset(states[i] for i in np.flatnonzero(seen))


def decide_muller(automaton: MullerAutomaton, x: Sequence) -> Verdict:
    """Accept iff the certified limit set belongs to the accepting
    family.  Exact whenever the attached bound is sound."""
    limit, window, prov = _certified_limit_set(automaton, x)
    return Verdict(limit in automaton.accepting, limit, window, prov)


def decide_buchi_det(automaton: BuchiAutomaton, x: Sequence) -> Verdict:
    """Accept iff the certified limit set meets the accepting states.
    Nondeterministic input raises UnsupportedFeature."""
    limit, window, prov = _certified_limit_set(automaton, x)
    return Verdict(bool(limit & automaton.accepting), limit, window, prov)


# -- text format --------------------------------------------------------------------


def print_automaton(automaton) -> str:
    """Canonical text form shared by both acceptor kinds:

        states: q0 q1
        start: q0
        alphabet: 0 1
        q0 0 -> q1
        accept-sets: {q0,q1} {q1}     (limit-set acceptor)
        accept: q0 q1                 (recurring-state acceptor)
    """
    lines = ["states: " + " ".join(automaton.states),
             "start: " + automaton.initial,
             "alphabet: " + " ".join(automaton.alphabet)]
    if isinstance(automaton, MullerAutomaton):
        for q in automaton.states:
            for a in automaton.alphabet:
                lines.append(f"{q} {a} -> {automaton.delta[(q, a)]}")
        sets = sorted("{" + ",".join(sorted(s)) + "}" for s in automaton.accepting)
        lines.append("accept-sets: " + " ".join(sets))
    else:
        for q, a, q2 in sorted(automaton.transitions):
            lines.append(f"{q} {a} -> {q2}")
        lines.append("accept: " + " ".join(sorted(automaton.accepting)))
    return "\n".join(lines) + "\n"


def _accept_sets(value: str) -> frozenset:
    return frozenset(frozenset(part.strip("{}").split(",")) if part.strip("{}") else frozenset()
                     for part in value.split())


def parse_automaton(text: str):
    """Parse the text format; returns a MullerAutomaton when an
    ``accept-sets:`` line is present, else a BuchiAutomaton."""
    head, arcs = read_records(
        text, {"states": str.split, "start": str, "accept": str.split,
               "alphabet": lambda v: Alphabet(tuple(v.split())), "accept-sets": _accept_sets},
        "q a -> q2", MachineParseError)
    if not {"states", "start", "alphabet"} <= head.keys():
        raise MachineParseError("missing states:, start:, or alphabet: header")
    alphabet, states, start = head["alphabet"], tuple(head["states"]), head["start"]
    try:
        if "accept-sets" in head:
            delta = {(q, a): q2 for q, a, q2 in arcs}
            return MullerAutomaton(alphabet, states, start, delta, head["accept-sets"])
        if "accept" not in head:
            raise MachineParseError("missing accept: or accept-sets: line")
        return BuchiAutomaton(alphabet, states, start, frozenset(arcs),
                              frozenset(head["accept"]))
    except SpecError as e:
        raise MachineParseError(str(e)) from None


# -- stock acceptors -----------------------------------------------------------------


def both_letters_tracker() -> MullerAutomaton:
    """Accepts the binary sequences in which both letters occur
    infinitely often."""
    b = Alphabet.binary()
    delta = {(q, a): f"q{a}" for q in ("q0", "q1") for a in b}
    return MullerAutomaton(b, ("q0", "q1"), "q0", delta,
                           frozenset({frozenset({"q0", "q1"})}))


def sees_letter_buchi(alphabet: Alphabet, letter: str) -> BuchiAutomaton:
    """Deterministic recurring-state acceptor for 'letter occurs
    infinitely often'."""
    arcs = frozenset((f"q{b}", a, f"q{a}") for b in alphabet for a in alphabet)
    first = alphabet.symbols[0]
    return BuchiAutomaton(alphabet, tuple(f"q{a}" for a in alphabet),
                          f"q{first}", arcs, frozenset({f"q{letter}"}))


def parity_of_ones_automaton() -> MullerAutomaton:
    """Two states tracking the running parity of 1s read so far; accepts
    when both parities recur (a stock fixture)."""
    b = Alphabet.binary()
    delta = {("even", "0"): "even", ("even", "1"): "odd",
             ("odd", "0"): "odd", ("odd", "1"): "even"}
    return MullerAutomaton(b, ("even", "odd"), "even", delta,
                           frozenset({frozenset({"even", "odd"})}))


def cycle_counter_automaton(alphabet: Alphabet, m: int) -> MullerAutomaton:
    """m states cycling on every input symbol, accepting the full cycle."""
    states = tuple(f"c{i}" for i in range(m))
    delta = {(states[i], a): states[(i + 1) % m] for i in range(m) for a in alphabet}
    return MullerAutomaton(alphabet, states, states[0], delta,
                           frozenset({frozenset(states)}))


def sink_automaton(alphabet: Alphabet) -> MullerAutomaton:
    """Everything flows to a sink; accepts nothing (empty family)."""
    delta = {("live", a): "sink" for a in alphabet}
    delta.update({("sink", a): "sink" for a in alphabet})
    return MullerAutomaton(alphabet, ("live", "sink"), "live", delta, frozenset())
