"""Spans at the package's layer boundaries, recorded from outside it.

``Tracer.install`` replaces public entry points of the apseq modules with
wrappers that record a span per call: name, layer, start, end, parent span
and job id, kept in memory.  ``Tracer.uninstall`` puts every original back;
``Tracer.leftovers`` lists any attribute that is still a wrapper.

The generators and transforms layers do their work lazily, inside the
``extend`` callable a constructor hands to ``Sequence``; the tracer wraps
that callable as the sequence is built and names the span after the
sequence's provenance family when it runs.  Per-symbol readers
(``code_at``, ``__getitem__``) are left unwrapped: a span per symbol would
cost more than the work it measures.  Besides the public analysis
functions, the private ``_factor_groups_slow`` is wrapped, so that
``analysis.large_n_s`` follows the package's own choice of the large-n
factor-grouping path.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import tracemalloc
import weakref

TRANSFORM_OPS = ("transduce", "product", "morphism_image", "pushdown", "split")
FAMILIES = ("thue_morse_recurrence", "thue_morse_digit_sum", "thue_morse_morphic",
            "fibonacci", "paperfolding", "kolakoski", "alternating_morphic", "keane",
            "aperiodicity_witness", "progression_rewrite", "scheme", "morphic", "toeplitz",
            "mechanical", "random", "periodic", "eventually_periodic")
KERNELS = ("subword_complexity", "empirical_regulator", "detect_powers", "am_estimate",
           "is_balanced", "certified_regulator", "ap_coefficient", "periodicity_screen")
REFUSALS = ("NoCertifiedBound", "CostRefusal")

# span fields
NAME, LAYER, START, END, PARENT, JOB, INFO = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = "setup"
        self.active = False
        self._stack = []
        self._saved = []            # (owner, attribute, original raw attribute)
        self._reads = {}            # id(sequence) -> [requested, held]
        self.requested = 0
        self.held = 0

    # -- spans ------------------------------------------------------------------

    def _run(self, name, layer, fn, args, kwargs):
        sp = [name, layer, time.perf_counter(), None,
              self._stack[-1] if self._stack else None, self.job, None]
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            out = fn(*args, **kwargs)
        except BaseException as e:
            sp[INFO] = {"error": type(e).__name__}
            raise
        finally:
            sp[END] = time.perf_counter()
            self._stack.pop()
        return sp, out

    def _wrap(self, name, layer, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sp, out = tracer._run(name, layer, fn, args, kwargs)
            if after is not None:
                after(sp, args, kwargs, out)
            return out

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def _patch(self, owner, attr, name, layer, after=None):
        raw = owner.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapped = self._wrap(name, layer, fn, after)
        setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
        self._saved.append((owner, attr, raw))

    # -- sequence reads ------------------------------------------------------------

    def _record(self, seq):
        rec = self._reads.get(id(seq))
        if rec is None:
            rec = self._reads[id(seq)] = [0, 0]
            weakref.finalize(seq, self._retire, id(seq))
        return rec

    def _retire(self, key):
        rec = self._reads.pop(key, None)
        if rec is not None and rec[0]:
            self.requested += rec[0]
            self.held += rec[1]

    def _requested(self, sp, args, kwargs, out):
        seq, n = args[0], args[1]
        n = n.j + 1 if hasattr(n, "j") else n
        rec = self._record(seq)
        rec[0] = max(rec[0], n)

    def _extend_wrapper(self, seq, extend):
        tracer, ref = self, weakref.ref(seq)

        def traced_extend(cache, target):
            x = ref()
            if not tracer.active or x is None:
                return extend(cache, target)
            prov = x.provenance
            fam = prov.family
            if fam == "thue_morse":
                fam = f"thue_morse_{prov.params.get('definition')}"
            layer = "transforms" if fam in TRANSFORM_OPS else "generators"
            before = len(cache)
            sp, _ = tracer._run(f"{layer}.{fam}", layer, extend, (cache, target), {})
            sp[INFO] = {"symbols": len(cache) - before}
            tracer._record(x)[1] = len(cache)

        return traced_extend

    # -- install / uninstall ----------------------------------------------------------

    def install(self):
        from apseq import analysis, cli, core, omega, transforms

        tracer = self
        seq_cls = core.Sequence
        init = seq_cls.__dict__["__init__"]

        @functools.wraps(init)
        def traced_init(seq, alphabet, extend, **kw):
            init(seq, alphabet, tracer._extend_wrapper(seq, extend), **kw)

        traced_init.__wrapped_by_tracer__ = True
        seq_cls.__init__ = traced_init
        self._saved.append((seq_cls, "__init__", init))
        for attr in ("codes", "prefix_array", "prefix", "segment"):
            self._patch(seq_cls, attr, f"core.{attr}", "core", self._requested)

        for attr, fn in list(vars(analysis).items()):
            if (inspect.isfunction(fn) and fn.__module__ == analysis.__name__
                    and not attr.startswith("_")):
                self._patch(analysis, attr, f"analysis.{attr}", "analysis")
        # the package's own choice of the large-n factor-grouping path
        self._patch(analysis, "_factor_groups_slow", "analysis.large_n", "analysis")
        for attr in ("decide_muller", "decide_buchi_det"):
            self._patch(omega, attr, "omega.decide", "omega", _symbols_read)

        self._patch(cli, "main", "cli.main", "cli")
        self._patch(cli, "build_sequence", "cli.build_sequence", "cli")
        self._patch(cli.SequenceSpec, "parse", "cli.parse", "cli")
        for owner, attr in ((cli, "parse_scheme_file"), (cli, "parse_dfao_file"),
                            (omega, "parse_automaton"), (transforms, "parse_transducer")):
            self._patch(owner, attr, "cli.parse", "cli")
        self.active = True

    def uninstall(self):
        self.active = False
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
        for key in list(self._reads):
            self._retire(key)

    @staticmethod
    def leftovers() -> list:
        """Attributes of the apseq modules that are still tracer wrappers."""
        from apseq import analysis, cli, core, generators, omega, transforms

        out = []
        for owner in (core, core.Sequence, generators, transforms, analysis, omega, cli,
                      cli.SequenceSpec):
            for attr, raw in vars(owner).items():
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                if getattr(fn, "__wrapped_by_tracer__", False):
                    out.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return out

    def dump(self, path: str, header: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sp in self.spans:
                fh.write(json.dumps(sp) + "\n")


def _symbols_read(sp, args, kwargs, verdict):
    sp[INFO] = {"symbols_read": verdict.window.j + 1}


def cache_bytes_per_symbol(make, n: int) -> float:
    """tracemalloc growth across one materialisation of n symbols (the
    list cache plus its int64 mirror), divided by n."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        x = make()
        x.codes(n)
        x.prefix_array(n)
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    del x
    return grown / n


# -- per-layer metrics ------------------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict:
    spans = tracer.spans
    dur = [sp[END] - sp[START] for sp in spans]
    child = [0.0] * len(spans)
    for i, sp in enumerate(spans):
        if sp[PARENT] is not None:
            child[sp[PARENT]] += dur[i]

    def self_time(i):
        return dur[i] - child[i]

    def ancestor(i, layer=None, name=None):
        p = spans[i][PARENT]
        while p is not None:
            if (layer and spans[p][LAYER] == layer) or (name and spans[p][NAME] == name):
                return p
            p = spans[p][PARENT]
        return None

    m = {}
    m["core.prefix_array_s"] = sum((self_time(i) for i, sp in enumerate(spans)
                                    if sp[NAME] == "core.prefix_array"), 0.0)
    m["core.overfill_ratio"] = tracer.held / tracer.requested if tracer.requested else 0.0

    for layer, names in (("generators", FAMILIES), ("transforms", TRANSFORM_OPS)):
        fill, symbols = 0.0, 0
        per = {name: [0.0, 0] for name in names}
        for i, sp in enumerate(spans):
            if sp[LAYER] != layer:
                continue
            t, s = self_time(i), sp[INFO]["symbols"] if sp[INFO] else 0
            fill += t
            symbols += s
            key = sp[NAME].split(".", 1)[1]
            if key in per:
                per[key][0] += t
                per[key][1] += s
        for name, (t, s) in per.items():
            m[f"{layer}.{name}.symbols_per_s"] = s / t if t > 0 else 0.0
        m[f"{layer}.fill_s"] = fill
        if layer == "generators":
            m["generators.symbols"] = symbols

    kernel = {k: 0.0 for k in KERNELS}
    large = set()   # top-level analysis calls that took the large-n path
    for i, sp in enumerate(spans):
        if sp[LAYER] != "analysis":
            continue
        if sp[NAME] == "analysis.large_n":
            top = i
            while (up := ancestor(top, layer="analysis")) is not None:
                top = up
            large.add(top)
        elif ancestor(i, layer="analysis") is None:
            name = sp[NAME].split(".", 1)[1]
            if name in kernel:
                kernel[name] += dur[i]
    for name, t in kernel.items():
        m[f"analysis.{name}_s"] = t
    m["analysis.large_n_s"] = sum((dur[i] for i in large), 0.0)

    decide = [i for i, sp in enumerate(spans) if sp[NAME] == "omega.decide"]
    fills = {i: 0.0 for i in decide}
    for i, sp in enumerate(spans):
        if sp[NAME] == "core.codes" and ancestor(i, name="core.codes") is None:
            d = ancestor(i, name="omega.decide")
            if d is not None:
                fills[d] += dur[i]
    m["omega.decide_s"] = sum((dur[i] for i in decide), 0.0)
    m["omega.decide_self_s"] = sum((dur[i] - fills[i] for i in decide), 0.0)
    m["omega.symbols_read"] = sum(spans[i][INFO].get("symbols_read", 0)
                                  for i in decide if spans[i][INFO])
    m["omega.refusals"] = sum(1 for i in decide
                              if spans[i][INFO] and spans[i][INFO].get("error") in REFUSALS)

    for name in ("main", "build_sequence", "parse"):
        m[f"cli.{name}_s"] = sum((dur[i] for i, sp in enumerate(spans)
                                  if sp[NAME] == f"cli.{name}"), 0.0)
    m["cli.self_s"] = sum((self_time(i) for i, sp in enumerate(spans) if sp[LAYER] == "cli"), 0.0)
    return m
