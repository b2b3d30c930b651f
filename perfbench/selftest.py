"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that a corrupted reference is caught, that inputs depend only on
the seed, that every seed yields the same job list, that the tracer
leaves nothing installed, and that the benchmark refuses to run without
the package source.  Prints one line per check; exits 1 if any fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

import run
import workloads

sys.path.insert(0, run.SRC)

CHEAP = {"materialize": ("keane",),
         "analyze": ("fibonacci.empirical_regulator[1..8]", "fibonacci.is_balanced"),
         "decide": ("thue_morse.both_letters", "periodic.dfa0")}


def _jobs(name: str, seed: int, workdir: str, corrupt=None) -> list:
    wl = workloads.WORKLOADS[name]
    inputs = wl.inputs(seed)
    arrays = wl.arrays(inputs)
    if corrupt is not None:
        corrupt(inputs, arrays)
    return wl.jobs(inputs, wl.setup(inputs, workdir), wl.expect(inputs, arrays))


def _flip(key: str, i: int):
    def corrupt(inputs, arrays):
        arrays[key] = arrays[key].copy()
        arrays[key][i] ^= 1
    return corrupt


def _wrong_stdout(inputs, arrays):
    for pair in inputs["pairs"]:
        if pair["name"] == "thue_morse.both_letters":
            pair["stdout"] = pair["stdout"].replace("ACCEPT", "REJECT")


def check_corrupted_reference(workdir):
    """A corrupted reference drives failed_frac above 0; the intact one does not."""
    cases = {"materialize": _flip("keane", 2), "analyze": _flip("fibonacci", 7),
             "decide": _wrong_stdout}
    for name, corrupt in cases.items():
        for bad in (False, True):
            jobs = [j for j in _jobs(name, 1, workdir, corrupt if bad else None)
                    if j.name in CHEAP[name]]
            tally = run.Tally()
            tally.run_pass(jobs)
            frac = tally.failed / tally.attempted
            if (frac > 0) != bad:
                state = "corrupted" if bad else "intact"
                return f"{name}: failed_frac {frac} with {state} reference"
    return None


def check_seeded_inputs(workdir):
    """The same seed gives the same input digest; another seed another one."""
    for name, wl in workloads.WORKLOADS.items():
        a, b, c = (workloads.digest(wl.inputs(s)) for s in (5, 5, 6))
        if a != b or a == c:
            return f"{name}: digests {a[:12]} {b[:12]} {c[:12]}"
    return None


def check_job_counts(workdir):
    """Different seeds yield the same job names, in the same order."""
    for name in workloads.WORKLOADS:
        names = [[j.name for j in _jobs(name, s, workdir)] for s in (1, 2)]
        if names[0] != names[1]:
            return f"{name}: {names[0]} != {names[1]}"
    return None


def check_tracer_uninstall(workdir):
    """Installing wraps the entry points; uninstalling leaves none behind."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        installed = tracing.Tracer.leftovers()
    finally:
        tracer.uninstall()
    left = tracing.Tracer.leftovers()
    if not installed or left:
        return f"installed {len(installed)} wrappers, {len(left)} left after uninstall"
    return None


def check_refuses_without_source(workdir):
    """A tree holding only BENCHMARK.json and perfbench exits non-zero with
    no result line."""
    tree = os.path.join(workdir, "bare")
    shutil.copytree(run.HERE, os.path.join(tree, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tree)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "decide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, timeout=170)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return f"exit {done.returncode}, stdout {done.stdout[-200:]!r}"
    return None


def main() -> int:
    os.makedirs(os.path.join(run.HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(run.HERE, ".work"))
    failures = 0
    try:
        for check in (check_corrupted_reference, check_seeded_inputs, check_job_counts,
                      check_tracer_uninstall, check_refuses_without_source):
            problem = check(workdir)
            print(f"FAIL  {check.__name__}: {problem}" if problem else f"ok  {check.__name__}")
            failures += problem is not None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
