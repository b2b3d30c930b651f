"""Command-line front end: generate prefixes, run analyses, apply
machines, decide acceptance, compare sequences.

Exit codes: 0 ok, 2 bad spec, 3 horizon/precision exhausted, 4 machine
parse or machine-form problem, or an input file that cannot be read, 5
decision refused for lack of a certified bound, 6 decision refused on cost
grounds.

Sequence specs are single strings "family key=value ...": stable family
names with family-specific parameters (rationals as p/q, words as strings
of single-character symbols, schemes and machines by file path).  Data
rows go to stdout and are deterministic; run metadata goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from . import analysis as A
from . import generators as G
from . import omega as O
from . import transforms as T
from .core import Alphabet, Provenance, Sequence, agreement_length, read_records
from .errors import (CostRefusal, GenerationStuck, HorizonExhausted,
                     MachineFault, MachineParseError, NoCertifiedBound,
                     PrecisionExhausted, SpecError, UnsupportedFeature)

# -- sequence specs -------------------------------------------------------------


class SequenceSpec(Provenance):
    """family name + parameter map, with a canonical text form that
    round-trips byte-identically: keys sorted, space-separated."""

    @staticmethod
    def parse(text: str) -> "SequenceSpec":
        parts = text.split()
        if not parts:
            raise SpecError("empty sequence spec")
        family, params = parts[0], {}
        for item in parts[1:]:
            if "=" not in item:
                raise SpecError(f"bad spec parameter {item!r} (expected key=value)")
            key, value = item.split("=", 1)
            if key in params:
                raise SpecError(f"duplicate spec parameter {key!r}")
            params[key] = value
        return SequenceSpec(family, params)

    def print(self) -> str:
        return str(self)

    def pop(self, key, default=None):
        return self.params.pop(key, default)

    def require(self, key):
        try:
            return self.params.pop(key)
        except KeyError:
            raise SpecError(f"family {self.family!r} requires parameter {key!r}") from None

    def require_int(self, key) -> int:
        return _as_int(f"parameter {key}", self.require(key))


def _as_int(name: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise SpecError(f"{name}={value!r} is not an integer") from None


def _parse_rules(text: str, alphabet=None, coding=False):
    """Morphism rules "a:word,b:word" over single-character symbols, from the
    alphabet (default: every letter named) onto itself, or onto the image letters."""
    pairs = {}
    for item in text.split(","):
        if ":" not in item:
            raise SpecError(f"bad morphism rule {item!r}")
        letter, image = item.split(":", 1)
        pairs[letter] = image
    letters = {c for w in pairs.values() for c in w}
    if alphabet is None:
        alphabet = Alphabet(tuple(sorted(set(pairs) | letters)))
    target = Alphabet(tuple(sorted(letters))) if coding else alphabet
    return G.Morphism.from_rules(alphabet, target, pairs)


def _read(path: str) -> str:
    """The text of an input file, which must be UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise MachineParseError(f"{path} is not UTF-8 text: {e.reason} at byte {e.start}") \
                from None


def parse_scheme_file(path: str):
    """Substitution-indexed scheme file:

        kind: gap
        base: 0 = 01
        base: 1 = 10
        expand: 0 = 010
        expand: 1 = 101
        pairs: 01 10
    """
    head, _ = read_records(_read(path), {"kind": str, "base": dict, "expand": dict,
                                         "pairs": str.split}, None, SpecError)
    if head.get("kind") not in ("ap", "gap"):
        raise SpecError("scheme file must set kind: ap or kind: gap")
    base = head.get("base", {})
    alphabet = Alphabet(tuple(sorted({c for w in base.values() for c in w})))
    return G.substitution_scheme(head["kind"], alphabet, base, head.get("expand", {}),
                                 pairs=head.get("pairs"), name=os.path.basename(path))


def parse_dfao_file(path: str) -> G.DFAO:
    """Digit-automaton file:

        base: 2
        states: q0 q1
        start: q0
        output: q0 = 0
        q0 0 -> q0
    """
    head, arcs = read_records(_read(path), {"base": int, "states": str.split, "start": str,
                                            "output": dict}, "q d -> q2", MachineParseError)
    if not {"base", "states", "start"} <= head.keys():
        raise MachineParseError("digit automaton file missing base/states/start")
    output = head.get("output", {})
    out_alpha = Alphabet(tuple(sorted(set(output.values()))))
    try:
        return G.DFAO(head["base"], tuple(head["states"]), head["start"],
                      {(q, d): q2 for q, d, q2 in arcs}, output, out_alpha)
    except SpecError as e:
        raise MachineParseError(str(e)) from None


def _morphic(s: SequenceSpec, seed) -> Sequence:
    phi = _parse_rules(s.require("rules"))
    coding = s.pop("coding")
    cod = _parse_rules(coding, phi.source, coding=True) if coding else None
    return G.morphic(phi, s.require("seed"), cod)


def _block_product(s: SequenceSpec, seed) -> Sequence:
    head = s.require("head")
    tail = s.pop("tail", head)
    both = s.pop("both", "true")
    if both not in ("true", "false"):
        raise SpecError(f"parameter both={both!r} is not true or false")
    seq = G.block_product_seq([head, tail], assert_both_letters=both == "true")
    seq.provenance = Provenance("block_product", {"head": head, "tail": tail})
    return seq


def _alternating_morphic(s: SequenceSpec, seed) -> Sequence:
    rules = s.require("rules")
    letters = set(rules) - set(",:|")
    if not letters:  # before an alphabet is inferred from it
        raise SpecError("rules must name at least one letter")
    alpha = Alphabet(tuple(sorted(letters)))
    morphs = tuple(_parse_rules(t, alpha) for t in rules.split("|"))
    return G.alternating_morphic(G.AlternatingMorphismSystem(morphs, s.require("seed")))


def _progression_rewrite(s: SequenceSpec, seed) -> Sequence:
    pre = s.pop("base_pre", "")
    period = s.require("base_period")
    base = G.eventually_periodic(pre, period) if pre else G.periodic(period)
    levels = G.geometric_levels(s.require_int("n0"), s.require_int("ratio"))
    return G.progression_rewrite(_capped(base), levels)


# Family name -> builder(spec copy, seed) -> sequence; each builder pops its
# parameters.  File parsers are looked up by name, so wrappers see each call.
FAMILIES = {
    "periodic": lambda s, seed: G.periodic(s.require("period")),
    "eventually_periodic": lambda s, seed: G.eventually_periodic(s.require("pre"),
                                                                 s.require("period")),
    "thue_morse": lambda s, seed: G.thue_morse(s.pop("definition", "recurrence")),
    "fibonacci": lambda s, seed: G.fibonacci(),
    "mechanical": lambda s, seed: G.mechanical(
        G.RealParam.of(s.require("alpha")), G.RealParam.of(s.require("rho")),
        s.pop("variant", "lower")),
    "morphic": _morphic,
    "automatic": lambda s, seed: G.automatic(parse_dfao_file(s.require("file"))),
    "block_product": _block_product,
    "keane": lambda s, seed: G.keane(),
    "alternating_prefix_example": lambda s, seed: G.alternating_prefix_example(),
    "scheme": lambda s, seed: G.scheme_generate(
        parse_scheme_file(s.require("file")), mode=s.pop("mode", "AP"),
        policy=s.pop("policy", "lex"), seed=seed, junk=s.pop("junk")),
    "toeplitz": lambda s, seed: G.toeplitz(G.ToeplitzPattern.from_text(s.require("pattern"))),
    "paperfolding": lambda s, seed: G.paperfolding(),
    "kolakoski": lambda s, seed: G.kolakoski(),
    "alternating_morphic": _alternating_morphic,
    "progression_rewrite": _progression_rewrite,
    "aperiodicity_witness": lambda s, seed: G.aperiodicity_witness(s.require_int("k")),
}
SPEC_HELP = "a sequence spec 'family key=value ...'; families: " + ", ".join(FAMILIES)


def _capped(seq: Sequence) -> Sequence:
    cap = os.environ.get("APSEQ_HORIZON_CAP")
    if cap:
        seq.horizon_cap = _as_int("APSEQ_HORIZON_CAP", cap)
    return seq


def build_sequence(spec: SequenceSpec, seed=None) -> Sequence:
    """Instantiate the generator named by the spec.  Unknown families and
    unknown or missing parameters are rejected naming the offending key.
    ``APSEQ_HORIZON_CAP``, when set, caps every sequence built here."""
    s = SequenceSpec(spec.family, dict(spec.params))  # work on a copy
    if s.family not in FAMILIES:
        raise SpecError(f"unknown sequence family {s.family!r}")
    out = FAMILIES[s.family](s, seed)
    if s.params:
        raise SpecError(f"family {s.family!r} does not take parameter {sorted(s.params)[0]!r}")
    return _capped(out)


# -- output helpers ----------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


CSV_HEADER = "metric,param,value,kind,horizon"


# -- commands ----------------------------------------------------------------------


def cmd_gen(args) -> int:
    spec = SequenceSpec.parse(args.spec)
    x = build_sequence(spec, seed=args.seed)
    print(x.prefix(args.n).text)
    return 0


def cmd_compare(args) -> int:
    xa = build_sequence(SequenceSpec.parse(args.spec_a), seed=args.seed)
    xb = build_sequence(SequenceSpec.parse(args.spec_b), seed=args.seed)
    h = args.horizon
    agree = agreement_length(xa, xb, h)
    if agree is None:
        print(f"agreement >= {h}")
        print("density 0")
        return 0
    print(f"agreement {agree}")
    print(f"density {_fmt(A.besicovitch_density(xa, xb, h))}")
    lo = max(0, agree - 10)
    hi = agree + 10
    print(f"context[{lo},{hi}] a={xa.prefix(hi + 1).text[-(hi - lo + 1):]}")
    print(f"context[{lo},{hi}] b={xb.prefix(hi + 1).text[-(hi - lo + 1):]}")
    return 0


def cmd_transduce(args) -> int:
    machine = T.parse_transducer(_read(args.machine))
    x = build_sequence(SequenceSpec.parse(args.spec), seed=args.seed)
    img = T.transduce(machine, x)
    print(img.prefix(args.n).text)
    if args.emit_bound:
        if img.certified_bound is None:
            print("bound: none")
        else:
            vals = " ".join(str(img.certified_bound(n)) for n in range(1, 9))
            print(f"bound: {vals}")
    return 0


def cmd_decide(args) -> int:
    automaton = O.parse_automaton(_read(args.automaton))
    x = build_sequence(SequenceSpec.parse(args.spec), seed=args.seed)
    if isinstance(automaton, O.MullerAutomaton):
        verdict = O.decide_muller(automaton, x)
    else:
        verdict = O.decide_buchi_det(automaton, x)
    print("ACCEPT" if verdict.accept else "REJECT")
    print("limit {" + ",".join(sorted(verdict.limit_macrostate)) + "}")
    print(f"window [{verdict.window.i},{verdict.window.j}]")
    print(f"bound {verdict.bound_provenance}")
    return 0


def _analyze_slices(args, x: Sequence):
    """CSV text slices; the list metrics make every row before returning."""
    metric, h, rows = args.metric, args.horizon, []
    if metric in ("complexity", "regulator", "prefix-regulator") and args.n_max < 1:
        raise SpecError("n_max must be at least 1")
    if metric == "complexity":
        for n in range(1, args.n_max + 1):
            exact = x.certified_bound is not None and h >= x.certified_bound(n) + n
            rows.append(("complexity", n, A.subword_complexity(x, n, h),
                         "exact" if exact else "lower", h))
    elif metric == "regulator":
        for n in range(1, args.n_max + 1):
            rep = A.certified_regulator(x, n) if args.certified else A.empirical_regulator(x, n, h)
            rows.append(("regulator", n, rep.value, rep.kind, "" if args.certified else h))
    elif metric == "prefix-regulator":
        for n in range(1, args.n_max + 1):
            rows.append(("prefix-regulator", n, A.prefix_regulator(x, n, h),
                         "empirical-lower", h))
    elif metric == "rd":
        rep = A.ap_coefficient(x, args.n_max, h)
        for n in sorted(rep.rd):
            rows.append(("rd", n, rep.rd[n], "empirical-lower", h))
        rows.append(("rho-lower", rep.argmax, rep.max_ratio, "empirical-lower", h))
    elif metric == "balance":
        rep = A.is_balanced(x, args.n_max, h)
        rows.append(("balance", rep.n if rep.n else "", 0 if rep.balanced else rep.spread,
                     "balanced" if rep.balanced else "violation", h))
    elif metric == "powers":
        blocks = A.power_blocks(x, h, args.kind, max_period=args.max_period, limit=args.limit)
        # a slice per array pair, made as written; power_blocks raises before the first row
        name = f"powers-{args.kind}"
        return ("".join(f"{name},{pos},{ulen},occurrence,{h}\n"
                        for pos, ulen in zip(p.tolist(), u.tolist())) for p, u in blocks)
    elif metric == "am":
        rep = A.am_estimate(x, args.shifts, h)
        for s in sorted(rep.per_shift):
            rows.append(("am-shift", s, rep.per_shift[s], "estimate", h))
        rows.append(("am-min", rep.argmin, rep.minimum, "estimate", h))
    elif metric == "frequency":
        if not args.block:
            raise SpecError("the frequency metric needs --block")
        u = x.alphabet.word(args.block)
        rep = A.frequency(x, u, args.i, args.j if args.j is not None else h - 1)
        rows.append(("frequency", args.block, rep.density, "exact-count", h))
        for t, d in A.cesaro_estimate(x, u, h):
            rows.append(("cesaro", t, d, "estimate", h))
    elif metric == "entropy":
        for n in sorted({1, 2, 4, 8, args.n_max} - {0}):
            rows.append(("entropy", n, A.entropy_estimate(x, n, h), "estimate", h))
    elif metric == "quasiperiods":
        rep = A.quasiperiods(x.prefix(args.length))
        for q in rep.quasiperiods:
            rows.append(("quasiperiod", len(q), q.text,
                         "minimal" if q == rep.minimal else "cover", args.length))
    elif metric == "tiling":
        w = x.prefix(args.length)
        if args.pattern:
            ok = A.is_tiling_period(w, args.pattern)
            rows.append(("tiling", args.pattern, 1 if ok else 0, "check", args.length))
        else:
            for slots in A.tiling_periods(w):
                rows.append(("tiling", A.pattern_text(slots, w.alphabet),
                             sum(1 for s in slots if s is not None), "period", args.length))
    elif metric == "screen":
        rep = A.periodicity_screen(x, h, n_max=args.n_max)
        for n in sorted(rep.complexities):
            rows.append(("screen-complexity", n, rep.complexities[n], "lower", h))
        if rep.triggered_at is None:
            rows.append(("screen", "", 0, "aperiodic-looking", h))
        else:
            rows.append(("screen", rep.preperiod if rep.confirmed else "",
                         rep.period if rep.confirmed else 0,
                         "confirmed" if rep.confirmed else "triggered", h))
    return ["".join(f"{m},{p},{_fmt(v)},{k},{hz}\n" for m, p, v, k, hz in rows)]


def cmd_analyze(args) -> int:
    x = build_sequence(SequenceSpec.parse(args.spec), seed=args.seed)
    slices = _analyze_slices(args, x)
    print(CSV_HEADER)
    for text in slices:
        sys.stdout.write(text)
    return 0


def cmd_spec(args) -> int:
    spec = SequenceSpec.parse(args.spec)
    build_sequence(spec, seed=args.seed)
    print(spec.print())
    return 0


# -- entry point ---------------------------------------------------------------------


@functools.cache  # built on the first main() of a process, not at import
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="apseq",
                                description="sequences close to periodic: generate, analyze, decide")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for randomized scheme policies (metadata only)")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="print a prefix of a sequence")
    g.add_argument("--spec", required=True, help=SPEC_HELP)
    g.add_argument("--n", type=int, required=True)
    g.set_defaults(fn=cmd_gen)

    a = sub.add_parser("analyze", help="run a metric, emit CSV rows")
    a.add_argument("--spec", required=True, help=SPEC_HELP)
    a.add_argument("--metric", required=True,
                   choices=["complexity", "regulator", "prefix-regulator", "rd",
                            "balance", "powers", "am", "frequency", "entropy",
                            "quasiperiods", "tiling", "screen"])
    a.add_argument("--horizon", type=int, default=10**4)
    a.add_argument("--n-max", type=int, default=8)
    a.add_argument("--certified", action="store_true")
    a.add_argument("--kind", default="square", choices=["square", "cube", "overlap"])
    a.add_argument("--max-period", type=int, default=None)
    a.add_argument("--limit", type=int, default=None)
    a.add_argument("--shifts", type=int, default=16)
    a.add_argument("--block", default=None)
    a.add_argument("--i", type=int, default=0)
    a.add_argument("--j", type=int, default=None)
    a.add_argument("--length", type=int, default=16)
    a.add_argument("--pattern", default=None)
    a.set_defaults(fn=cmd_analyze)

    t = sub.add_parser("transduce", help="apply a sequential machine file")
    t.add_argument("--machine", required=True)
    t.add_argument("--spec", required=True, help=SPEC_HELP)
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--emit-bound", action="store_true")
    t.set_defaults(fn=cmd_transduce)

    d = sub.add_parser("decide", help="decide acceptance of a deterministic acceptor")
    d.add_argument("--automaton", required=True)
    d.add_argument("--spec", required=True, help=SPEC_HELP)
    d.set_defaults(fn=cmd_decide)

    c = sub.add_parser("compare", help="agreement and mismatch density of two specs")
    c.add_argument("--spec-a", required=True, help=SPEC_HELP)
    c.add_argument("--spec-b", required=True, help=SPEC_HELP)
    c.add_argument("--horizon", type=int, default=10**4)
    c.set_defaults(fn=cmd_compare)

    s = sub.add_parser("spec", help="validate a spec and print its canonical form")
    s.add_argument("--spec", required=True, help=SPEC_HELP)
    s.set_defaults(fn=cmd_spec)
    return p


_EXIT_CODES = [
    ((SpecError, GenerationStuck), 2),
    ((HorizonExhausted, PrecisionExhausted), 3),
    ((MachineParseError, MachineFault, UnsupportedFeature, FileNotFoundError,
      IsADirectoryError, PermissionError), 4),
    ((NoCertifiedBound,), 5),
    ((CostRefusal,), 6),
]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed is not None:
        print(f"# seed={args.seed}", file=sys.stderr)
    try:
        return args.fn(args)
    except tuple(c for cs, _ in _EXIT_CODES for c in cs) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for classes, code in _EXIT_CODES if isinstance(e, classes))


def console() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console()
