"""The three benchmark workloads: seeded inputs, references, set-up and jobs.

Each workload is a closed loop with one client: jobs run one after the
other in one thread, and the next starts when the previous returns.

* ``materialize`` builds fresh sequences and reads them (writes, cold
  caches): generators, transforms and core cache growth do the work.
* ``analyze`` runs analysis kernels over inputs filled during set-up
  (reads, warm caches): analysis does the work.
* ``decide`` runs ``apseq decide`` in-process over automaton files
  (stream-once reads): each decision generates its window cold and scans
  it, so generators and omega share the time and cli parsing is on the
  path.

``inputs(seed)`` is plain data drawn from the seed; the package receives
only objects and files made from it.  ``arrays(inputs)`` builds full
reference sequences and ``expect(inputs, arrays)`` reduces them to what
the checks need (spot values, sha256 digests, expected reports); neither
imports apseq, and ``expectations`` runs both, so the benchmark can call it
in a child process and keep only the small result.  ``setup`` builds the
package objects (timed as set-up) and ``jobs`` returns the job list; a
job's ``call`` holds only package calls (timed) and its ``check`` compares
the output with the expectation.

Work counts per job: ``symbols`` is the number of symbols the job reads
from sequences (its length for a materialisation, the horizon per
analysis call, the window end plus one for a decision).  ``windows``
counts length-n windows examined: horizon - n + 1 for each factor length
n an analysis call scans, the horizon for a kernel without one, and one
length-1 window per symbol for jobs that consume symbol by symbol
(materialisation, decision).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import reference as R

# Sizes.  Generation is 10**6 symbols per family, as in the baseline rows;
# the two families near 3 us/symbol, the derived streams and the analysis
# horizon are smaller so that one pass stays within a few seconds.
N_BASE = 10**6
N_SLOW = 2 * 10**5          # progression_rewrite, scheme_generate
N_MECH = 10**5              # mechanical invphi2 (enclosure refinement)
N_DERIVED = 2 * 10**5       # transforms over a warm thue_morse
H = 2 * 10**5               # analysis horizon
H_SHORT = 10**5             # detect_powers, ap_coefficient
SPOTS = 256                 # seeded spot positions checked in codes()
HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Job:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    symbols: int = 0        # symbols delivered to the job
    windows: int = 0        # length-n windows examined
    groups: int = 0         # factor groups formed (analysis)
    baseline: str | None = None


def digest(inputs: dict) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


def expectations(name: str, inputs: dict) -> dict:
    """The workload's expected outputs, from reference arrays built without
    apseq."""
    wl = WORKLOADS[name]
    return wl.expect(inputs, wl.arrays(inputs))


def _spots(rng: random.Random, n: int) -> list:
    return sorted(rng.randrange(n) for _ in range(SPOTS))


def sha256(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.int64)).hexdigest()


def _summary(ref: np.ndarray, n: int, spots: list) -> dict:
    """What a check needs of a reference prefix: its values at the spots
    and the digest of the whole prefix."""
    return {"n": n, "spots": [(i, int(ref[i])) for i in spots], "sha256": sha256(ref[:n])}


def _codes_ok(codes, want: dict) -> bool:
    return len(codes) >= want["n"] and all(codes[i] == v for i, v in want["spots"])


def _random_images(rng: random.Random, k: int) -> list:
    """A prolongable substitution on k letters whose images have length 2
    or 3, so the fixed point grows geometrically: letter 0 maps to 0
    followed by one or two letters."""
    images = [[0] + [rng.randrange(k) for _ in range(rng.randint(1, 2))]]
    images += [[rng.randrange(k) for _ in range(rng.randint(2, 3))] for _ in range(k - 1)]
    return images


def _random_pattern(rng: random.Random) -> list:
    """Five slots, two holes, never at slot 0; the symbols use both letters."""
    while True:
        holes = rng.sample(range(1, 5), 2)
        slots = [None if i in holes else rng.randrange(2) for i in range(5)]
        if len({s for s in slots if s is not None}) == 2:
            return slots


def _pattern_text(slots: list) -> str:
    return "".join("_" if s is None else str(s) for s in slots)


def _random_machine(rng: random.Random, states: int, lengths: tuple) -> dict:
    """A binary sequential machine: emit[(q, a)] is a list of output codes."""
    qs = [f"q{i}" for i in range(states)]
    emit = {f"{q} {a}": [rng.randrange(2) for _ in range(rng.randint(*lengths))]
            for q in qs for a in (0, 1)}
    step = {f"{q} {a}": rng.choice(qs) for q in qs for a in (0, 1)}
    return {"states": qs, "emit": emit, "step": step}


def _machine_tables(m: dict):
    emit = {(k.split()[0], int(k.split()[1])): v for k, v in m["emit"].items()}
    step = {(k.split()[0], int(k.split()[1])): v for k, v in m["step"].items()}
    return emit, step


# -- materialize ------------------------------------------------------------------


DERIVED = ("cyclic", "uniform_machine", "general_machine", "pushdown", "split")


class Materialize:
    name = "materialize"

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        k = rng.randint(2, 4)
        return {
            "morphic": {"k": k, "images": _random_images(rng, k)},
            "toeplitz": _random_pattern(rng),
            "uniform_machine": _random_machine(rng, rng.randint(2, 4), (1, 1)),
            "general_machine": _random_machine(rng, 2, (1, 2)),
            "spots": _spots(rng, N_BASE),
            "spots_slow": _spots(rng, N_SLOW),
            "spots_mech": _spots(rng, N_MECH),
            "spots_derived": _spots(rng, N_DERIVED),
        }

    def arrays(self, inp: dict) -> dict:
        tm = R.thue_morse(max(N_BASE, 3 * N_DERIVED))
        refs = {
            "thue_morse": tm,
            "fibonacci": R.fibonacci(N_BASE),
            "paperfolding": R.paperfolding(N_BASE),
            "kolakoski": R.kolakoski(N_BASE),
            "keane": R.keane(N_BASE),
            "witness": R.aperiodicity_witness(N_BASE, 5),
            "progression": R.progression_rewrite(N_SLOW, [0, 1], 2, 3),
            "scheme": R.fixed_point([[0, 0, 1, 0], [0, 1, 0, 0]], 0, N_SLOW),
            "morphic": R.fixed_point(inp["morphic"]["images"], 0, N_BASE),
            "toeplitz": R.hole_filling(inp["toeplitz"], N_BASE),
            "mechanical": R.mechanical_invphi2(N_MECH),
        }
        d = np.arange(N_DERIVED)
        refs["cyclic"] = tm[:N_DERIVED] * 3 + d % 3
        for key in ("uniform_machine", "general_machine"):
            emit, step = _machine_tables(inp[key])
            refs[key] = np.array(R.run_transducer(emit, step, "q0", tm, N_DERIVED))
        refs["pushdown"] = np.array(R.balance_machine(tm, N_DERIVED))
        refs["split"] = R.split_blocks(tm, 1, N_DERIVED, [(0, 0, 1), (0, 1), (1,)])
        return refs

    def expect(self, inp: dict, arrays: dict) -> dict:
        sizes = {"progression": (N_SLOW, "spots_slow"), "scheme": (N_SLOW, "spots_slow"),
                 "mechanical": (N_MECH, "spots_mech"),
                 **dict.fromkeys(DERIVED, (N_DERIVED, "spots_derived"))}
        out = {}
        for key, ref in arrays.items():
            n, spots = sizes.get(key, (N_BASE, "spots"))
            out[key] = _summary(ref, n, inp[spots])
        return out

    def setup(self, inp: dict, ctx) -> dict:
        from apseq import cli
        from apseq import generators as G
        from apseq import transforms as T
        from apseq.core import Alphabet

        tm = cli.build_sequence(cli.SequenceSpec.parse("thue_morse"))
        tm.codes(3 * N_DERIVED)
        letters = Alphabet(tuple(str(i) for i in range(inp["morphic"]["k"])))
        phi = G.Morphism.from_rules(letters, letters, {
            str(a): "".join(str(c) for c in im)
            for a, im in enumerate(inp["morphic"]["images"])})
        binary = Alphabet.binary()

        def machine(m):
            emit, step = _machine_tables(m)
            return T.Transducer(
                binary, binary, tuple(m["states"]), "q0",
                {(q, str(a)): binary.word("".join(map(str, w))) for (q, a), w in emit.items()},
                {(q, str(a)): q2 for (q, a), q2 in step.items()})

        return {"tm": tm, "phi": phi,
                "pattern": G.ToeplitzPattern.from_text(_pattern_text(inp["toeplitz"])),
                "uniform": machine(inp["uniform_machine"]),
                "general": machine(inp["general_machine"])}

    def jobs(self, inp: dict, st: dict, refs: dict) -> list:
        from apseq import generators as G
        from apseq import transforms as T

        def fresh(name, make, want, baseline=None):
            n = want["n"]

            def call():
                x = make()
                return x.codes(n), x.prefix_array(n)

            def check(out):
                codes, arr = out
                return _codes_ok(codes, want) and sha256(arr) == want["sha256"]

            return Job(name, call, check, symbols=n, windows=n, baseline=baseline)

        def derived(name, make, want):
            def check(codes):
                return _codes_ok(codes, want) and sha256(codes[:N_DERIVED]) == want["sha256"]

            return Job(name, lambda: make().codes(N_DERIVED), check,
                       symbols=N_DERIVED, windows=N_DERIVED)

        tm = st["tm"]
        kol = G.kolakoski_system()
        return [
            fresh("thue_morse.recurrence", lambda: G.thue_morse("recurrence"),
                  refs["thue_morse"], "thue_morse recurrence"),
            fresh("thue_morse.digit_sum", lambda: G.thue_morse("digit_sum"),
                  refs["thue_morse"], "thue_morse digit_sum"),
            fresh("thue_morse.morphic", lambda: G.thue_morse("morphic"),
                  refs["thue_morse"], "thue_morse morphic"),
            fresh("fibonacci", G.fibonacci, refs["fibonacci"], "fibonacci"),
            fresh("paperfolding", G.paperfolding, refs["paperfolding"], "paperfolding"),
            fresh("kolakoski", G.kolakoski, refs["kolakoski"], "kolakoski"),
            fresh("alternating_morphic", lambda: G.alternating_morphic(kol),
                  refs["kolakoski"], "alternating morphic"),
            fresh("keane", G.keane, refs["keane"], "keane"),
            fresh("aperiodicity_witness", lambda: G.aperiodicity_witness(5),
                  refs["witness"], "witness k=5"),
            fresh("progression_rewrite",
                  lambda: G.progression_rewrite(G.periodic("01"), G.geometric_levels(2, 3)),
                  refs["progression"], "progression rewrite"),
            fresh("scheme", lambda: G.scheme_generate(G.aperiodic_scheme()), refs["scheme"]),
            fresh("morphic", lambda: G.morphic(st["phi"], "0"), refs["morphic"]),
            fresh("toeplitz", lambda: G.toeplitz(st["pattern"]), refs["toeplitz"]),
            fresh("mechanical", lambda: G.mechanical(G.inv_golden_sq(), G.inv_golden_sq()),
                  refs["mechanical"], "mechanical invphi2"),
            derived("transduce.cyclic3",
                    lambda: T.transduce(T.cyclic_transducer(tm.alphabet, 3), tm),
                    refs["cyclic"]),
            derived("transduce.uniform", lambda: T.transduce(st["uniform"], tm),
                    refs["uniform_machine"]),
            derived("product.cyclic", lambda: T.cyclic(tm, 3), refs["cyclic"]),
            derived("morphism_image.decompose",
                    lambda: _decomposed(T, st["general"], tm), refs["general_machine"]),
            derived("pushdown", lambda: T.pushdown_transduce(T.counterexample_machine(), tm),
                    refs["pushdown"]),
            derived("split", lambda: T.split(tm, "1", 1000), refs["split"]),
        ]


def _decomposed(T, machine, x):
    uniform, phi = T.decompose(machine)
    return T.apply_morphism(phi, T.transduce(uniform, x))


# -- analyze ----------------------------------------------------------------------


EVENTUALLY_PERIODIC = ("0010", "011")
N30, N8 = list(range(1, 31)), list(range(1, 9))
SHIFTS = 16


class Analyze:
    name = "analyze"
    regulators = (("thue_morse", N8), ("fibonacci", N8), ("random", tuple(range(16, 21))))

    def inputs(self, seed: int) -> dict:
        return {"random_seed": random.Random(seed).randrange(2**31)}

    def arrays(self, inp: dict) -> dict:
        pre, period = EVENTUALLY_PERIODIC
        ep = np.array([int(c) for c in pre] + [int(period[i % len(period)])
                                              for i in range(H - len(pre))])
        return {"thue_morse": R.thue_morse(H), "fibonacci": R.fibonacci(H),
                "witness": R.aperiodicity_witness(H, 5), "kolakoski": R.kolakoski(H),
                "random": R.random_codes(inp["random_seed"], 2, H),
                "eventually_periodic": ep}

    def expect(self, inp: dict, a: dict) -> dict:
        ep = a["eventually_periodic"]
        ep_comps = {}
        for n in N30:
            ep_comps[n] = R.complexity(ep, n)
            if ep_comps[n] <= n:
                break
        return {
            "regulator": {key: [R.regulator(a[key], n) for n in ns]
                          for key, ns in self.regulators},
            "tm_comps": {n: R.tm_complexity(n) for n in N30},
            "kolakoski64": R.complexity(a["kolakoski"], 64),
            "witness30": R.complexity(a["witness"], 30),
            "am": R.mismatch_densities(a["witness"], SHIFTS, H - SHIFTS),
            "certified": [R.regulator(a["thue_morse"], n)[0] for n in range(1, 5)],
            "ap": [R.regulator(a["fibonacci"][:H_SHORT], n)[0] for n in range(1, 41)],
            "ep_comps": ep_comps,
            "ep_period": R.eventual_period(ep),
        }

    def setup(self, inp: dict, ctx) -> dict:
        from apseq import cli
        from apseq import generators as G
        from apseq.core import Alphabet

        pre, period = EVENTUALLY_PERIODIC
        specs = {"thue_morse": "thue_morse", "fibonacci": "fibonacci",
                 "witness": "aperiodicity_witness k=5", "kolakoski": "kolakoski",
                 "eventually_periodic": f"eventually_periodic pre={pre} period={period}"}
        st = {k: cli.build_sequence(cli.SequenceSpec.parse(s)) for k, s in specs.items()}
        st["random"] = G.random_sequence(Alphabet.binary(), inp["random_seed"])
        for x in st.values():
            x.codes(H)
            x.prefix_array(H)
        return st

    def jobs(self, inp: dict, st: dict, refs: dict) -> list:
        from apseq import analysis as A

        def windows(h, ns):
            return sum(h - n + 1 for n in ns)

        def complexity_job(key, ns, expected):
            x = st[key]
            return Job(f"{key}.subword_complexity[{ns[0]}..{ns[-1]}]",
                       lambda: [A.subword_complexity(x, n, H) for n in ns],
                       lambda out: out == expected,
                       symbols=H * len(ns), windows=windows(H, ns), groups=sum(expected))

        def regulator_job(key, ns):
            x, want = st[key], refs["regulator"][key]

            def check(reps):
                return all(r.value == v and len(r.finitely_occurring) == f
                           for r, (v, _g, f) in zip(reps, want)) and len(reps) == len(ns)

            return Job(f"{key}.empirical_regulator[{ns[0]}..{ns[-1]}]",
                       lambda: [A.empirical_regulator(x, n, H) for n in ns], check,
                       symbols=H * len(ns), windows=windows(H, ns),
                       groups=sum(g for _v, g, _f in want))

        am_want, cert_want, ap_regs = refs["am"], refs["certified"], refs["ap"]
        ap_ratios = [Fraction(r, n) for n, r in enumerate(ap_regs, 1)]
        ap_best = max(ap_ratios)
        ep_comps, (ep_pre, ep_period) = refs["ep_comps"], refs["ep_period"]
        tm_comps = refs["tm_comps"]

        def check_am(rep):
            return (rep.per_shift == am_want and rep.minimum == min(am_want.values())
                    and rep.argmin == min(am_want, key=lambda s: (am_want[s], s)))

        def check_ap(rep):
            return (rep.rd == {n: r - n + 1 for n, r in enumerate(ap_regs, 1)}
                    and rep.max_ratio == ap_best and rep.argmax == ap_ratios.index(ap_best) + 1)

        def check_ep(rep):
            return (rep.complexities == ep_comps and rep.triggered_at == max(ep_comps)
                    and (rep.preperiod, rep.period, rep.confirmed) == (ep_pre, ep_period, True))

        regs = {key: regulator_job(key, list(ns)) for key, ns in self.regulators}
        return [
            complexity_job("thue_morse", N30, [tm_comps[n] for n in N30]),
            regs["thue_morse"],
            complexity_job("fibonacci", N30, [n + 1 for n in N30]),
            regs["fibonacci"],
            regs["random"],
            complexity_job("kolakoski", [64], [refs["kolakoski64"]]),
            complexity_job("witness", [30], [refs["witness30"]]),
            Job("thue_morse.detect_powers.cube",
                lambda: A.detect_powers(st["thue_morse"], H_SHORT, "cube"),
                lambda out: out == [], symbols=H_SHORT, windows=H_SHORT),
            Job("thue_morse.detect_powers.overlap",
                lambda: A.detect_powers(st["thue_morse"], H_SHORT, "overlap"),
                lambda out: out == [], symbols=H_SHORT, windows=H_SHORT),
            Job("witness.am_estimate", lambda: A.am_estimate(st["witness"], SHIFTS, H - SHIFTS),
                check_am, symbols=H, windows=H - SHIFTS),
            Job("fibonacci.is_balanced", lambda: A.is_balanced(st["fibonacci"], 30, H),
                lambda rep: rep.balanced is True, symbols=H, windows=windows(H, N30)),
            Job("thue_morse.certified_regulator[1..4]",
                lambda: [A.certified_regulator(st["thue_morse"], n) for n in range(1, 5)],
                lambda reps: [r.value for r in reps] == cert_want
                and all(r.kind == "certified-exact" for r in reps)),
            Job("fibonacci.ap_coefficient[40]",
                lambda: A.ap_coefficient(st["fibonacci"], 40, H_SHORT),
                check_ap, symbols=H_SHORT * 40, windows=windows(H_SHORT, range(1, 41)),
                groups=sum(n + 1 for n in range(1, 41))),
            Job("thue_morse.periodicity_screen", lambda: A.periodicity_screen(st["thue_morse"], H),
                lambda rep: rep.complexities == tm_comps and rep.triggered_at is None,
                symbols=H * 30, windows=windows(H, N30), groups=sum(tm_comps.values())),
            Job("eventually_periodic.periodicity_screen",
                lambda: A.periodicity_screen(st["eventually_periodic"], H), check_ep,
                symbols=H * len(ep_comps), windows=windows(H, ep_comps),
                groups=sum(ep_comps.values())),
        ]


# -- decide -----------------------------------------------------------------------


def _stock(kind: str, m: int = 0) -> dict:
    """Stock acceptors in the automaton text form's terms: states, start,
    arcs [q, a, q2] over the binary alphabet, and either accept-sets
    ("sets", limit-set acceptance) or accept (recurring-state)."""
    if kind in ("both_letters", "sees_letter_buchi"):
        qs = ["q0", "q1"]
        aut = {"states": qs, "start": "q0", "arcs": [[q, a, f"q{a}"] for q in qs for a in "01"]}
        aut.update({"sets": [qs]} if kind == "both_letters" else {"accept": ["q1"]})
        return aut
    if kind == "parity_of_ones":
        flip = {"even": "odd", "odd": "even"}
        return {"states": ["even", "odd"], "start": "even",
                "arcs": [[q, a, flip[q] if a == "1" else q] for q in flip for a in "01"],
                "sets": [["even", "odd"]]}
    if kind == "sink":
        return {"states": ["live", "sink"], "start": "live",
                "arcs": [[q, a, "sink"] for q in ("live", "sink") for a in "01"], "sets": []}
    if kind == "cycle":
        qs = [f"c{i}" for i in range(m)]
        return {"states": qs, "start": "c0",
                "arcs": [[qs[i], a, qs[(i + 1) % m]] for i in range(m) for a in "01"],
                "sets": [qs]}
    raise ValueError(kind)


def _relabel(aut: dict, rng: random.Random) -> tuple:
    names = rng.sample(range(100, 1000), len(aut["states"]))
    ren = {q: f"s{v}" for q, v in zip(aut["states"], names)}
    out = {"states": [ren[q] for q in aut["states"]], "start": ren[aut["start"]],
           "arcs": [[ren[q], a, ren[q2]] for q, a, q2 in aut["arcs"]]}
    if "sets" in aut:
        out["sets"] = [[ren[q] for q in s] for s in aut["sets"]]
    else:
        out["accept"] = [ren[q] for q in aut["accept"]]
    return out, ren


def _automaton_text(aut: dict) -> str:
    lines = ["states: " + " ".join(aut["states"]), "start: " + aut["start"], "alphabet: 0 1"]
    lines += [f"{q} {a} -> {q2}" for q, a, q2 in sorted(aut["arcs"])]
    if "sets" in aut:
        lines.append("accept-sets: " + " ".join("{" + ",".join(s) + "}" for s in aut["sets"]))
    else:
        lines.append("accept: " + " ".join(aut["accept"]))
    return "\n".join(lines) + "\n"


def _stdout(accept: bool, limit, window: list, m: int) -> str:
    return ("ACCEPT" if accept else "REJECT") + "\n" \
        + "limit {" + ",".join(sorted(limit)) + "}\n" \
        + f"window [{window[0]},{window[1]}]\n" \
        + f"bound uniform image window, m={m}\n"


PAIR_SCHEME = ("kind: gap\nbase: 0 = 01\nbase: 1 = 10\n"
               "expand: 0 = 010\nexpand: 1 = 101\npairs: 01 10\n")


def _random_word(rng: random.Random, lo: int, hi: int) -> str:
    while True:
        w = "".join(rng.choice("01") for _ in range(rng.randint(lo, hi)))
        if "0" in w and "1" in w:
            return w


def _random_dfa(rng: random.Random) -> dict:
    m = rng.randint(2, 4)
    qs = [f"s{i}" for i in range(m)]
    aut = {"states": qs, "start": "s0",
           "arcs": [[q, a, rng.choice(qs)] for q in qs for a in "01"]}
    if rng.random() < 0.5:
        aut["sets"] = [sorted(rng.sample(qs, rng.randint(1, m)))
                       for _ in range(rng.randint(1, 2))]
    else:
        aut["accept"] = sorted(rng.sample(qs, rng.randint(1, m)))
    return aut


class Decide:
    name = "decide"

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as fh:
            goldens = json.load(fh)
        pairs = []
        for g in goldens:
            aut, ren = _relabel(_stock(g["automaton"], g.get("m", 0)), rng)
            pair = {"name": g["name"], "spec": g["spec"], "automaton": aut, "exit": g["exit"]}
            if g["exit"] == 0:
                pair["stdout"] = _stdout(g["accept"], [ren[q] for q in g["limit"]],
                                         g["window"], len(aut["states"]))
                pair["symbols"] = g["window"][1] + 1
            pairs.append(pair)
        for i in range(4):
            aut = _random_dfa(rng)
            pre = _random_word(rng, 1, 4) if i % 2 else ""
            period = _random_word(rng, 2, 5)
            spec = (f"eventually_periodic pre={pre} period={period}" if pre
                    else f"periodic period={period}")
            pairs.append({"name": f"{spec.split()[0]}.dfa{i}", "spec": spec,
                          "automaton": aut, "exit": 0, "pre": pre, "period": period})
        return {"pairs": pairs}

    def arrays(self, inp: dict) -> dict:
        return {}

    def expect(self, inp: dict, arrays: dict) -> dict:
        """Expected stdout for the random DFAs on (eventually) periodic
        words, from the exact cycle oracle and the image window of the
        bound pre + n + period - 1."""
        refs = {}
        for p in inp["pairs"]:
            if "period" not in p:
                continue
            aut = p["automaton"]
            pre = [c for c in p["pre"]]
            delta = {(q, a): q2 for q, a, q2 in aut["arcs"]}
            limit = R.dfa_limit_set(delta, aut["start"], pre, list(p["period"]))
            if "sets" in aut:
                accept = limit in {frozenset(s) for s in aut["sets"]}
            else:
                accept = bool(limit & set(aut["accept"]))
            m = len(aut["states"])
            w = R.image_window(lambda n: len(pre) + n + len(p["period"]) - 1, m)
            refs[p["name"]] = (_stdout(accept, limit, [w, 2 * w - 1], m), 2 * w)
        return refs

    def setup(self, inp: dict, ctx) -> dict:
        paths = {}
        for p in inp["pairs"]:
            path = os.path.join(ctx, p["name"] + ".aut")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_automaton_text(p["automaton"]))
            paths[p["name"]] = path
        scheme = os.path.join(ctx, "pair_alternation.scheme")
        with open(scheme, "w", encoding="utf-8") as fh:
            fh.write(PAIR_SCHEME)
        # specs split on whitespace, so the file goes in relative to the
        # working directory (the checkout root), never as an absolute path
        return {"paths": paths, "scheme": os.path.relpath(scheme)}

    def jobs(self, inp: dict, st: dict, refs: dict) -> list:
        from apseq import cli

        out = []
        for p in inp["pairs"]:
            argv = ["decide", "--automaton", st["paths"][p["name"]],
                    "--spec", p["spec"].replace("{scheme}", st["scheme"])]
            if p["name"] in refs:
                want, symbols = refs[p["name"]]
            else:
                want, symbols = p.get("stdout", ""), p.get("symbols", 0)

            def call(argv=argv):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                return code, buf.getvalue()

            out.append(Job(p["name"], call,
                           lambda res, want=want, code=p["exit"]: res == (code, want),
                           symbols=symbols, windows=symbols,
                           baseline="decide thue_morse m=3" if p["name"] == "thue_morse.cycle3"
                           else None))
        return out


WORKLOADS = {w.name: w for w in (Materialize(), Analyze(), Decide())}
