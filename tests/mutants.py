"""The mutation gate: every listed mutant must make its tests fail.

    python3 tests/mutants.py              # every mutant
    python3 tests/mutants.py NAME ...     # the named ones

Each entry names a file under src/apseq/, one source line of it (without
its indentation), the line that replaces it, and the test files that must
fail once it is in.  For each entry the script copies src/, tests/ and
pyproject.toml into a temporary directory, makes the one change there, and
runs the listed test files with ``pytest -x`` and a fixed hypothesis seed.
A mutant whose tests all pass survives.  The script exits 1 when a mutant
survives, or when a line is not found exactly once, so a source edit that
rewrites a listed line shows up here too.

A change that only costs time (one more level, a longer loop) is not a
mutant, nor is a certified bound made larger: the outputs stay right.
A surviving mutant calls for a test, not for dropping the entry.  The
script uses the standard library only, and pytest does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WALK = ["test_omega.py"]
DESCRIBED = ["test_omega.py", "test_generators.py"]

MUTANTS = [
    # name, file, line, replacement, test files
    # -- the walk of omega._window_states
    ("visit-slice", "omega.py",
     "seen[before[max(w - p - lo, 0):] // k] = True",
     "seen[before[max(w - p - lo + 1, 0):] // k] = True", WALK),
    ("visits-of-a-block-ending-at-w", "omega.py",
     "if end > w:",
     "if end >= w:", WALK),
    ("block-past-2w-kept-whole", "omega.py",
     "if exits[c][s] != n - 1 and (end <= w or w <= p and end <= 2 * w):",
     "if exits[c][s] != n - 1 and (end <= w or w <= p and end <= 2 * w + 1):", WALK),
    ("leaf-slice", "omega.py",
     "codes = codes[:2 * w - p]",
     "codes = codes[:2 * w - p + 1]", WALK),
    ("sink-test", "omega.py",
     "if exits[c][s] != n - 1 and (end <= w or w <= p and end <= 2 * w):",
     "if end <= w or w <= p and end <= 2 * w:", WALK),
    # -- the level summaries: exit lists and visit bitmasks
    ("level-0-bit-after-the-step", "omega.py",
     "mask |= 1 << q",
     "mask |= 1 << step[q][a]", WALK),
    ("visits-not-accumulated-across-an-image", "omega.py",
     "v = [v[i] | vi[e[i]] for i in span]",
     "v = [vi[e[i]] for i in span]", WALK),
    ("exits-advanced-before-visits-read", "omega.py",
     "v = [v[i] | vi[e[i]] for i in span]",
     "v = [v[i] | vi[ex[e[i]]] for i in span]", WALK),
    ("top-level-below-2w", "omega.py",
     "while len(prefix) + lens[-1][d.seed] < 2 * w:",
     "while len(prefix) + lens[-1][d.seed] < w:", WALK),
    # -- the prefix and the head morphisms of a description
    ("split-along-the-wrong-level", "omega.py",
     "for b in sigma_at(level - 1)[c]:",
     "for b in sigma_at(level)[c]:", DESCRIBED),
    ("walk-when-the-prefix-covers-2w", "omega.py",
     "if d is None or len(prefix) >= 2 * w:",
     "if d is None:", DESCRIBED),
    ("prefix-leaf-skipped", "omega.py",
     "entry = leaf(prefix, 0, 0)                  # the row in which psi's part starts",
     "entry = leaf(prefix, 0, 0) if d is None else 0", DESCRIBED),
    ("lens-of-the-next-level", "omega.py",
     "lens.append([sum(lens[-1][b] for b in image) for image in sigma])",
     "lens.append([sum(lens[-1][b] for b in image) for image in sigma_at(len(levels) - 1)])",
     DESCRIBED),
    ("head-block-dropped", "generators.py",
     "desc = Substitutive(mu(words[-1]), 0, mu(first), head=tuple(map(mu, head))) \\",
     "desc = Substitutive(mu(words[-1]), 0, mu(first), head=tuple(map(mu, head[1:]))) \\",
     DESCRIBED),
    # -- certified bounds
    ("image-window-h-not-h-of-h", "transforms.py",
     '"image": Bound(lambda n: h(h(n)), f"uniform image window, m={m}"),',
     '"image": Bound(lambda n: h(n), f"uniform image window, m={m}"),',
     ["test_transforms.py", "test_acceptance.py"]),
    ("doubling-shift-2", "generators.py",
     "_DOUBLING_SHIFT = 3",
     "_DOUBLING_SHIFT = 2", ["test_generators.py", "test_acceptance.py"]),
    ("rewrite-window-below-the-regulator", "generators.py",
     "bound = _level_bound(lv, lambda k, n: 2 * lv(k + 1),",
     "bound = _level_bound(lv, lambda k, n: lv(k),", ["test_generators.py"]),
    ("pair-scheme-window-below-the-regulator", "generators.py",
     "bound = _level_bound(scheme.length, lambda m, n: jlen + 2 * scheme.length(m + 1),",
     "bound = _level_bound(scheme.length, lambda m, n: jlen + scheme.length(m),",
     ["test_generators.py"]),
    ("product-cap-of-the-left-factor", "transforms.py",
     "horizon_cap=min(x.horizon_cap, y.horizon_cap))",
     "horizon_cap=x.horizon_cap)", ["test_transforms.py"]),
    # -- the period and preperiod read from a description
    ("product-over-a-preperiod", "transforms.py",
     "if d is not None and len(d.sigma) == 1 and not d.prefix and x.certified_bound is not None:",
     "if d is not None and len(d.sigma) == 1 and x.certified_bound is not None:",
     ["test_transforms.py"]),
    ("rewrite-over-a-long-preperiod", "generators.py",
     "if d is not None and len(d.sigma) == 1 and lv(0) % len(d.psi[0]) == 0 "
     "and len(d.prefix) <= lv(0):",
     "if d is not None and len(d.sigma) == 1 and lv(0) % len(d.psi[0]) == 0:",
     ["test_generators.py"]),
    # -- split's block names
    ("split-digits-lowest-first", "transforms.py",
     "weight = np.array([base**j for j in range(top - 1, -1, -1)] + [0],",
     "weight = np.array([base**j for j in range(top)] + [0],", ["test_transforms.py"]),
    ("split-names-right-aligned", "transforms.py",
     "pos = np.arange(seg.size) - np.repeat(starts, cut - starts)  # places from the block start",
     "pos = np.arange(seg.size) - np.repeat(cut, cut - starts) + top", ["test_transforms.py"]),
    ("split-places-past-top-weighted", "transforms.py",
     "weight = np.array([base**j for j in range(top - 1, -1, -1)] + [0],",
     "weight = np.array([base**j for j in range(top - 1, -1, -1)] + [1],",
     ["test_transforms.py"]),
    # -- the level filter of analysis.power_blocks
    ("power-filter-without-backward-half", "analysis.py",
     "| _agree(levels[j], s - w + 1, p, s >= w - 1))",
     "| False)", ["test_analysis.py"]),
    ("power-filter-reads-level-j-plus-1", "analysis.py",
     "hit = np.flatnonzero(_agree(levels[j], s, p, s + w <= horizon - p)",
     "hit = np.flatnonzero(_agree(levels[j + 1], s, p, s + w <= horizon - p)",
     ["test_analysis.py"]),
    ("power-filter-without-bounds-guard", "analysis.py",
     "hit = np.flatnonzero(_agree(levels[j], s, p, s + w <= horizon - p)",
     "hit = np.flatnonzero(_agree(levels[j], s, p, True)", ["test_analysis.py"]),
    # -- the packed keys id << b | position of analysis._runs
    ("packed-uint32-bound-inclusive", "analysis.py",
     "keys = ids.astype(np.uint32 if top < 1 << (32 - b) else np.int64, copy=False) << b",
     "keys = ids.astype(np.uint32 if top <= 1 << (32 - b) else np.int64, copy=False) << b",
     ["test_analysis.py"]),
    ("packed-position-bits-one-short", "analysis.py",
     "b = (ids.size - 1).bit_length()",
     "b = (ids.size - 1).bit_length() - 1", ["test_analysis.py"]),
    ("packed-fallback-one-bit-late", "analysis.py",
     "if top >> (63 - b):",
     "if top >> (64 - b):", ["test_analysis.py"]),
]


def _apply(root: str, file: str, line: str, replacement: str):
    """Replace the one line of src/apseq/<file> whose text, without its
    indentation, is ``line``, keeping the indentation."""
    path = os.path.join(root, "src", "apseq", file)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    hits = [i for i, text in enumerate(lines) if text.strip() == line]
    if len(hits) != 1:
        raise SystemExit(f"{file}: {len(hits)} lines read {line!r}; the gate needs exactly one")
    i = hits[0]
    lines[i] = lines[i][:len(lines[i]) - len(lines[i].lstrip())] + replacement
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def _killed(name, file, line, replacement, tests) -> bool:
    with tempfile.TemporaryDirectory() as root:
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(root, part),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), root)
        _apply(root, file, line, replacement)
        env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
        where = subprocess.run([sys.executable, "-c", "import apseq; print(apseq.__file__)"],
                               cwd=root, env=env, capture_output=True, text=True).stdout
        if not where.startswith(root):  # an installed apseq would hide the mutant
            raise SystemExit(f"the mutant copy is not the apseq that tests import: {where}")
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                              "--hypothesis-seed=0", *(os.path.join("tests", t) for t in tests)],
                             cwd=root, env=env, capture_output=True, text=True)
        if run.returncode not in (0, 1):  # not a test verdict: a collection or usage error
            raise SystemExit(f"{name}: pytest exited {run.returncode}\n{run.stdout[-2000:]}")
        return run.returncode == 1


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    if names and len(chosen) != len(set(names)):
        raise SystemExit(f"unknown mutant in {names}")
    survivors = []
    for name, file, line, replacement, tests in chosen:
        start = time.perf_counter()
        killed = _killed(name, file, line, replacement, tests)
        print(f"{'killed ' if killed else 'SURVIVED'} {name} ({file}; "
              f"{' '.join(tests)}; {time.perf_counter() - start:.1f} s)", flush=True)
        if not killed:
            survivors.append(name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
