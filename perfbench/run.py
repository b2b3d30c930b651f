"""The apseq benchmark.

    python3 perfbench/run.py --workload {materialize,analyze,decide}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/`` of the checkout that holds this file, and nothing outside that
checkout is read or written.

Before anything of apseq is loaded, a child process builds the reference
sequences and hands back only what the checks need (spot values, sha256
digests, expected reports), so the measuring process never holds the
references and ``peak_rss_mb`` is the package's own memory plus the
interpreter and numpy.

Untraced (``--trace 0``): set up the workload SETUP_REPEATS times, each in
a fresh child interpreter (the time of ``import apseq.cli`` plus that of
the workload's input construction), and keep the median as ``setup_s``;
every set-up thus starts from the same cold process.  Then set up once
more, untimed, in this process and run whole passes over the job list, back to back, until ``--seconds``
have passed (the pass in progress finishes).  ``run_s`` is the time of one
pass inside package calls, summed over jobs from each job's median across
passes, so a slow phase of the machine during one pass moves it little.  Output
checks run on every pass, outside that time.

Traced (``--trace 1``): an untraced pass, a traced set-up and pass, and a
second untraced pass; prints the per-layer metrics and the tracing
overhead (traced pass time minus the mean of the untraced ones), and
writes every span to ``perfbench/.out/``.  ``--seconds`` is not used.

The last line of stdout is the result object; earlier lines record the
environment, per-job medians, the peak resident memory before the first
pass and the baseline cross-check.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9
SETUP_PROBE = ("import sys, time; t = time.perf_counter(); import apseq.cli; "
               "imp = time.perf_counter() - t; import workloads; "
               "wl = workloads.WORKLOADS[sys.argv[1]]; inp = wl.inputs(int(sys.argv[2])); "
               "t = time.perf_counter(); wl.setup(inp, sys.argv[3]); "
               "print(imp + time.perf_counter() - t)")

# Baseline rows of the roadmap (seconds for a count of symbols, one run on
# a 2-CPU virtual machine, Python 3.11.7, numpy 2.4.6), keyed by Job.baseline.
BASELINE = {
    "thue_morse recurrence": (0.29, 10**6), "thue_morse digit_sum": (0.31, 10**6),
    "thue_morse morphic": (0.13, 10**6), "fibonacci": (0.19, 10**6),
    "witness k=5": (0.10, 10**6), "keane": (0.045, 10**6),
    "paperfolding": (0.33, 10**6), "kolakoski": (0.43, 10**6),
    "alternating morphic": (0.31, 10**6), "progression rewrite": (2.08, 10**6),
    "mechanical invphi2": (1.22, 10**5),
    "decide thue_morse m=3": (3.0, 2 * 4194304),
}
BASELINE_FACTOR = 2.0   # a row reproduces when its rate is within this factor


def unit(name: str) -> str:
    if name.endswith("symbols_per_s") or name.endswith("windows_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes_per_symbol"):
        return "B/symbol"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def environment(workload: str, seed: int, digest: str) -> dict:
    import numpy

    src = hashlib.sha256()
    pkg = os.path.join(SRC, "apseq")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"git_sha": git_sha(), "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "workload": workload, "seed": seed,
            "inputs_sha256": digest}


def git_sha():
    """The commit checked out at ROOT, from its HEAD and the loose or
    packed ref it names; None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def expectations(name: str, inputs: dict) -> dict:
    """The workload's expectations, computed in a forked child so that the
    reference arrays and their temporaries never count in this process's
    peak memory."""
    import workloads

    ctx = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=ctx) as pool:
        return pool.submit(workloads.expectations, name, inputs).result()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_seconds(workload: str, seed: int, workdir: str) -> float:
    """Time of ``import apseq.cli`` plus the workload's set-up, in a fresh
    child interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE)))
    probe = tempfile.mkdtemp(prefix="setup-", dir=workdir)
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE, workload, str(seed), probe],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    shutil.rmtree(probe, ignore_errors=True)
    return float(done.stdout.strip().splitlines()[-1])


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times = {}

    def run_pass(self, jobs, tracer=None) -> float:
        """One pass over the job list; returns the time inside package calls
        and keeps each job's time for the medians."""
        total = 0.0
        for job in jobs:
            if tracer is not None:
                tracer.job = job.name
            self.attempted += 1
            gc.collect()  # every job starts from a collected heap
            t0 = time.perf_counter()
            try:
                out = job.call()
            except Exception:
                total += time.perf_counter() - t0
                self.failed += 1
                print(f"job {job.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            t = time.perf_counter() - t0
            total += t
            self.times.setdefault(job.name, []).append(t)
            try:
                ok = job.check(out)
            except Exception:
                print(f"check of {job.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
                ok = False
            del out
            if not ok:
                self.failed += 1
                print(f"job {job.name}: output disagrees with its reference", file=sys.stderr)
        return total

    def median_pass(self) -> float:
        return sum(statistics.median(t) for t in self.times.values())


def baseline_check(jobs, tally: Tally) -> dict:
    """Rate of every job that has a roadmap baseline row, against that row."""
    rows, off = {}, []
    for job in jobs:
        if job.baseline is None or job.name not in tally.times:
            continue
        base_s, base_symbols = BASELINE[job.baseline]
        t = statistics.median(tally.times[job.name])
        ratio = (job.symbols / t) / (base_symbols / base_s)
        rows[job.baseline] = {"seconds": t, "symbols": job.symbols,
                              "rate_vs_baseline": round(ratio, 3)}
        if job.symbols != base_symbols and job.baseline.startswith("decide"):
            off.append(job.baseline + " (symbols read)")
        elif not 1 / BASELINE_FACTOR <= ratio <= BASELINE_FACTOR:
            off.append(job.baseline)
    return {"rows": rows, "not_reproduced": off}


def timed_run(wl, inputs, refs, workdir, seconds, seed) -> tuple:
    setups = [setup_seconds(wl.name, seed, workdir) for _ in range(SETUP_REPEATS)]
    jobs = wl.jobs(inputs, wl.setup(inputs, workdir), refs)
    rss_before = peak_rss_mb()

    tally, passes = Tally(), []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(tally.run_pass(jobs))
    run_s = tally.median_pass()
    metrics = {
        "run_s": run_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "symbols_per_s": sum(j.symbols for j in jobs) / run_s if run_s else 0.0,
        "windows_per_s": sum(j.windows for j in jobs) / run_s if run_s else 0.0,
    }
    extra = {"passes": passes, "setups": setups, "peak_rss_before_passes_mb": rss_before,
             "job_median_s": {k: statistics.median(v) for k, v in tally.times.items()},
             "baseline": baseline_check(jobs, tally)}
    return metrics, tally, extra


def traced_run(wl, inputs, refs, workdir, out_path, header) -> tuple:
    import tracing
    from apseq import generators as G

    import apseq.cli  # noqa: F401
    st = wl.setup(inputs, workdir)
    plain = wl.jobs(inputs, st, refs)
    tally = Tally()
    untraced = [tally.run_pass(plain)]

    tracer = tracing.Tracer()
    try:
        tracer.install()
        st = wl.setup(inputs, workdir)
        jobs = wl.jobs(inputs, st, refs)
        traced = tally.run_pass(jobs, tracer)
    finally:
        tracer.uninstall()
    left = tracer.leftovers()
    if left:
        raise RuntimeError(f"tracer left wrappers installed: {left}")
    untraced.append(tally.run_pass(plain))

    metrics = tracing.layer_metrics(tracer)
    metrics["analysis.windows"] = sum(j.windows for j in jobs) if wl.name == "analyze" else 0
    metrics["analysis.factor_groups"] = sum(j.groups for j in jobs)
    metrics["core.cache_bytes_per_symbol"] = tracing.cache_bytes_per_symbol(
        lambda: G.thue_morse("recurrence"), 2 * 10**5)
    metrics["trace.overhead_s"] = traced - statistics.mean(untraced)
    metrics["trace.spans"] = len(tracer.spans)
    tracer.dump(out_path, dict(header, untraced_s=untraced, traced_s=traced))
    return metrics, tally, {"untraced_s": untraced, "traced_s": traced,
                            "spans": os.path.relpath(out_path, ROOT)}


def main(argv=None) -> int:
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "apseq", "__init__.py")):
        print(f"error: no package source at {SRC}/apseq; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    digest = workloads.digest(inputs)
    refs = expectations(args.workload, inputs)
    env = environment(args.workload, args.seed, digest)

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, ".work"))
    try:
        if args.trace:
            out_dir = os.path.join(HERE, ".out")
            os.makedirs(out_dir, exist_ok=True)
            out_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
            metrics, tally, extra = traced_run(wl, inputs, refs, workdir, out_path, env)
        else:
            metrics, tally, extra = timed_run(wl, inputs, refs, workdir, args.seconds,
                                              args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"env": env}))
    print(json.dumps(extra))
    print(json.dumps({"failed_frac": tally.failed / tally.attempted,
                      "failed": tally.failed, "attempted": tally.attempted}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
