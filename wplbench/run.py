"""Oracle-checked benchmark for wpl.

    python3 wplbench/run.py --workload {global,finite_n,hard_edge} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout that holds `src/wpl`.  With --trace 0 the
run measures the end-to-end metrics: set-up time in fresh interpreters,
then timed passes over every job of the workload until S seconds have
gone.  With --trace 1 it alternates untraced and traced passes and reports
the per-layer metrics.  Every output is checked against an independent
reference (see refs.py).  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60.0
# mallopt parameters (<malloc.h>) and the values glibc's own adjustment
# ends at on 64-bit: an mmap threshold of 32 MiB, a trim threshold twice that
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 * 1024 * 1024
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def _pin_threads() -> None:
    """Fix the BLAS and wpl worker thread counts before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["WPL_THREADS"] = "1"


def _fix_allocator() -> None:
    """Fix glibc's mmap and trim thresholds at the values its own adjustment
    ends at.

    Left to adjust, the thresholds rise as large blocks are freed, so which
    arrays come from the heap, and how much of it stays resident, hangs on
    the order of allocation sizes, which the seed sets: peak RSS on
    hard_edge moved between 192 and 222 MB from seed to seed.  Fixed from
    the start, the peak is the same on every seed, and the passes run as
    fast as with the default.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return  # not glibc: the allocator keeps its own policy
    libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    libc.mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def _import_program():
    """Put this checkout's src/ and the benchmark first on the path."""
    if not (SRC / "wpl" / "__init__.py").is_file():
        raise SystemExit(f"wplbench: no wpl package under {SRC}; run from a wpl checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import wpl

    if Path(wpl.__file__).resolve().parent != SRC / "wpl":
        raise SystemExit(f"wplbench: imported wpl from {wpl.__file__}, not from {SRC}")


# --------------------------------------------------------------------------
# one pass over the jobs
# --------------------------------------------------------------------------


class Ledger:
    """Operations attempted and failed, per-job times and errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.job_seconds: list[float] = []
        self.errs: dict[str, float] = {}

    def record(self, job, seconds: float, outcome, error: str) -> None:
        self.attempted += 1
        self.job_seconds.append(seconds)
        ok = outcome is not None and outcome.ok
        if not ok:
            self.failed += 1
            if not job.known_fault:
                self.unexpected.append(f"{job.name}: {error or outcome.note}")
        elif outcome.err is not None:
            self.errs[job.name] = outcome.err


def run_pass(jobs, ledger: Ledger) -> float:
    """Clear the program caches, run every job once, check it; pass seconds."""
    from wpl.errors import WplError
    from workloads import clear_program_caches

    clear_program_caches()
    start = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        out, error = None, ""
        try:
            out = job.run()
        except WplError as exc:
            error = f"{type(exc).__name__}: {exc}"
        except Exception:  # a non-WplError escaping wpl is itself a fault
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
        outcome = None if error else job.compare(out, job.ref)
        ledger.record(job, seconds, outcome, error)
    return time.perf_counter() - start


def probe(workload: str, seed: int) -> int:
    """Fresh-interpreter set-up: the workload's first verified result."""
    from workloads import WORKLOADS

    job = WORKLOADS[workload](seed)[0]
    outcome = job.compare(job.run(), job.ref)
    print("verified" if outcome.ok else f"failed: {outcome.note}", flush=True)
    return 0 if outcome.ok else 1


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Time from starting a fresh interpreter to its first verified result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "verified" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe did not verify its result: {line.strip()!r}")
        times.append(elapsed)
    return times


# --------------------------------------------------------------------------
# the two kinds of run
# --------------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _prepared_jobs(workload: str, seed: int) -> list:
    """The workload's jobs with every reference computed, before any timing."""
    from workloads import WORKLOADS

    jobs = WORKLOADS[workload](seed)
    for job in jobs:
        job.ref  # noqa: B018 -- computes and caches the reference
    return jobs


def timed_run(workload: str, seed: int, seconds: float) -> tuple[Ledger, dict, dict]:
    from checks import digits

    setup = setup_seconds(workload, seed)
    jobs = _prepared_jobs(workload, seed)
    ledger = Ledger()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(jobs, ledger))
    digit_values = [digits(e) for e in ledger.errs.values()]
    if not digit_values:
        raise RuntimeError("no deterministic value passed its check")
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_s": _metric(statistics.median(passes), "s"),
        "job_p50_s": _metric(statistics.median(ledger.job_seconds), "s"),
        "digits_min": _metric(min(digit_values), "digits"),
        "digits_p50": _metric(statistics.median(digit_values), "digits"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    per_job = {j.name: statistics.median(ledger.job_seconds[i::len(jobs)]) for i, j in enumerate(jobs)}
    detail = {"passes_s": passes, "setup_probes_s": setup, "job_median_s": per_job,
              "digits": {k: digits(v) for k, v in ledger.errs.items()}}
    return ledger, metrics, detail


PER_LAYER_COUNTS = (
    ("specfun.ln_gamma.points", "points"), ("specfun.pfq.calls", "count"),
    ("specfun.meijer.calls", "count"), ("specfun.bessel_j.calls", "count"),
    ("freeprob.global_density.calls", "count"), ("freeprob.solve_stieltjes.calls", "count"),
    ("finite_kernel.build.calls", "count"), ("finite_kernel.q_matrix.points", "points"),
    ("finite_kernel.p_matrix.points", "points"), ("finite_kernel.kernel_n_contour.calls", "count"),
    ("hiprec.gram_matrix.calls", "count"), ("hiprec.lngamma.points", "points"),
    ("hard_edge.k_hard.calls", "count"), ("hard_edge.k_hard_cd.calls", "count"),
    ("sampler.spectrum.draws", "count"), ("sampler.mc_charpoly.samples", "count"),
    ("cli.main.calls", "count"), ("cli.main.bytes_out", "bytes"),
)
PER_LAYER_SELF = (
    "specfun.ln_gamma", "specfun.pfq", "specfun.meijer", "specfun.bessel_j",
    "freeprob.global_density", "freeprob.solve_stieltjes",
    "finite_kernel.q_matrix", "finite_kernel.p_matrix", "finite_kernel.kernel_n_contour",
    "finite_kernel.quadrature", "hiprec.lngamma", "hard_edge.k_hard", "hard_edge.k_hard_cd",
    "sampler.spectrum", "sampler.mc_charpoly", "cli.main",
)


def traced_run(workload: str, seed: int, seconds: float) -> tuple[Ledger, dict, dict]:
    from spans import INCLUSIVE, LAYERS, Tracer
    from workloads import LRU_CACHES

    jobs = _prepared_jobs(workload, seed)
    ledger = Ledger()
    tracer = Tracer()
    plain, traced, self_s, incl_s = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_pass(jobs, ledger))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_pass(jobs, ledger))
        finally:
            tracer.uninstall()
        self_s.append(tracer.self_times())
        incl_s.append(tracer.inclusive_times())
    hits = sum(fn.cache_info().hits for fn in LRU_CACHES)
    misses = sum(fn.cache_info().misses for fn in LRU_CACHES)

    metrics = {name: _metric(tracer.counts.get(name, 0), unit) for name, unit in PER_LAYER_COUNTS}
    for name in PER_LAYER_SELF:
        metrics[f"{name}.self_s"] = _metric(statistics.median(s.get(name, 0.0) for s in self_s), "s")
    for name in INCLUSIVE:
        metrics[f"{name}.s"] = _metric(statistics.median(s.get(name, 0.0) for s in incl_s), "s")
    metrics["finite_kernel.cache.hits"] = _metric(hits, "count")
    metrics["finite_kernel.cache.misses"] = _metric(misses, "count")
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = _metric(tracer.errors.get(layer, 0), "count")
    metrics["trace.overhead_s"] = _metric(statistics.median(traced) - statistics.median(plain), "s")

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{workload}-seed{seed}.json")
    detail = {"plain_passes_s": plain, "traced_passes_s": traced, "spans": len(tracer.spans)}
    return ledger, metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("global", "finite_n", "hard_edge"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="measuring time; required except for --probe")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds is None and not args.probe:
        ap.error("--seconds is required")

    _pin_threads()
    _fix_allocator()
    _import_program()
    if args.probe:
        return probe(args.workload, args.seed)

    run = traced_run if args.trace else timed_run
    ledger, metrics, detail = run(args.workload, args.seed, args.seconds)

    import numpy
    import scipy

    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS, "mmap_threshold": MMAP_THRESHOLD, "trim_threshold": TRIM_THRESHOLD, "nproc": os.cpu_count(),
        "attempted": ledger.attempted, "failed": ledger.failed, "unexpected": ledger.unexpected,
        "metrics": metrics, "detail": detail,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"operations: {ledger.attempted} attempted, {ledger.failed} failed", flush=True)
    for line in ledger.unexpected:
        print(f"UNEXPECTED FAILURE {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not ledger.unexpected,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
