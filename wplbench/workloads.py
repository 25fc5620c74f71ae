"""The three workloads: their jobs, the inputs drawn from the seed, and checks.

A job is one operation.  `run` calls wpl and returns its output; `reference`
computes what the output is compared against, apart from the timed call;
`compare` turns output and reference into an Outcome.  Every pass runs the
same jobs on the same inputs, so the share of failed operations is the same
in every run whatever the seed and the run length.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stdout
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Any, Callable

import numpy as np

import checks
import refs
from checks import Outcome
from wpl import cli
from wpl import finite_kernel as fk
from wpl import freeprob as fp
from wpl import hard_edge as he
from wpl import sampler as sp
from wpl.freeprob import EnsembleParams
from wpl.hard_edge import HardEdgeParams

# tolerances: deterministic values against an independent reference or an
# equivalent route, and bounds that a correct sampler meets for any seed
TOL_DENSITY = 1e-9
TOL_KERNEL = 1e-8
TOL_GRAM = 1e-8
TOL_TRACE = 1e-6
TOL_HARD_TABLE = 1e-10
TOL_BESSEL = 1e-10
TOL_LIMIT = 1e-12
KS_BOUND = 0.012
MOMENT_TOL = 0.05
Z_BOUND = 5.0


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    compare: Callable[[Any, Any], Outcome]
    reference: Callable[[], Any] = lambda: None
    known_fault: str = ""  # the fault this operation shows until it is mended

    @cached_property
    def ref(self):
        """The reference, computed once."""
        return self.reference()


# the lru-cached functions themselves, kept before any tracing wrapper
# replaces the module attributes
LRU_CACHES = (fk.biorth_system, fk._biorth_quadrature, fk._biorth_gram)


def clear_program_caches() -> None:
    """Empty the finite_kernel lru caches so every pass does the same work."""
    for fn in LRU_CACHES:
        fn.cache_clear()


def run_cli(argv: list[str]) -> str:
    """`wpl <argv>` in-process; its CSV output.  A non-zero exit raises.

    CSV, not --format json: the JSON writer raises TypeError for the
    subcommands whose metadata holds an EnsembleParams (kernel, sample,
    charpoly).
    """
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"wpl {argv[0]} exited {code}")
    return buf.getvalue()


def _cli_column(text: str, column: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    idx = lines[0].split(",").index(column)
    return np.array([float(ln.split(",")[idx]) for ln in lines[1:]])


# --------------------------------------------------------------------------
# global: freeprob and sampler
# --------------------------------------------------------------------------

# the first job is what the set-up probes time; (2, 1) costs ~0.6 s
DENSITY_PAIRS = ((2, 1), (1, 0), (2, 0), (1, 1), (1, 2), (2, 2), (3, 1))
CLI_DENSITY = ((2, 0), (1, 1))  # these go through `wpl density`
# job sizes are matched to about 0.5 s each (on a 2-core x86 box), so that
# job_p50_s sits inside a cluster of like jobs rather than between two kinds
SPECTRA = (
    (EnsembleParams(N=200, r=2, s=0, nu=(0, 0)), 8),
    (EnsembleParams(N=150, r=1, s=1, nu=(0,), mu=(0,)), 16),
    (EnsembleParams(N=100, r=2, s=1, nu=(0, 0), mu=(0,)), 40),
)
CHARPOLY = EnsembleParams(N=3, r=2, s=1, nu=(0, 1), mu=(0,))
CHARPOLY_SAMPLES = 20_000


def _density_job(r: int, s: int, rng: np.random.Generator) -> Job:
    # the top end is fixed: at s = 0 the relative error is largest next to the
    # soft edge, so a seeded top end would make digits_min hang on the seed
    hi = 0.97 * (r + 1) ** (r + 1) / r**r if s == 0 else 1e3
    lo = 1e-3 * 10 ** rng.uniform(0.0, 0.5)
    n = 40 if s == 0 else 8
    xs = np.geomspace(lo, hi, n)

    if (r, s) in CLI_DENSITY:
        argv = ["density", "--r", str(r), "--s", str(s), "--grid", f"{lo!r}:{hi!r}:{n}", "--log"]

        def run():
            return run_cli(argv)

        def compare(text, ref):
            if not np.allclose(_cli_column(text, "x"), xs, rtol=1e-14, atol=0.0):
                return Outcome(False, None, "x column differs from the requested grid")
            return checks.pointwise(_cli_column(text, "rho_solver"), ref, TOL_DENSITY)

        name = f"cli_density_r{r}s{s}"
    else:

        def run():
            return [fp.global_density(r, s, float(x)) for x in xs]

        def compare(out, ref):
            return checks.pointwise(out, ref, TOL_DENSITY)

        name = f"global_density_r{r}s{s}"
    return Job(name, run, compare, reference=lambda: refs.phi_density(r, s, xs))


def _spectrum_job(params: EnsembleParams, draws: int, seed: int, stream: int) -> Job:
    rng = sp.RngStream(seed, stream)
    r, s = params.r, params.s

    def run():
        samples = sp.sample_spectra(params, draws, rng, scaling=sp.Scaling.GLOBAL)
        return np.concatenate([smp.eigenvalues for smp in samples])

    def reference():
        exact = [refs.fuss_catalan(r, p) for p in (1, 2)] if s == 0 else None
        return refs.phi_cdf(r, s), exact

    def compare(eig, ref):
        cdf, exact = ref
        ks = checks.ks_distance(eig, cdf, KS_BOUND)
        if not ks.ok or exact is None:
            return ks
        return checks.moments(eig, exact, MOMENT_TOL)

    return Job(f"spectra_N{params.N}_r{r}s{s}", run, compare, reference)


def _charpoly_job(seed: int, rng: np.random.Generator) -> Job:
    lam = np.sort(rng.uniform(0.3, 2.5, 3))
    stream = sp.RngStream(seed, 99)

    def run():
        return sp.mc_charpoly(CHARPOLY, lam, CHARPOLY_SAMPLES, stream)

    def reference():
        return [float(refs.charpoly_rational(CHARPOLY.N, CHARPOLY.nu, CHARPOLY.mu, float(v))) for v in lam]

    def compare(out, ref):
        mean, err = out
        return checks.z_scores(mean, err, ref, Z_BOUND)

    return Job("mc_charpoly_N3_r2s1", run, compare, reference)


def global_jobs(seed: int) -> list[Job]:
    rng = np.random.default_rng([seed, 1])
    jobs = [_density_job(r, s, rng) for r, s in DENSITY_PAIRS]
    jobs += [_spectrum_job(p, d, seed, k) for k, (p, d) in enumerate(SPECTRA)]
    jobs.append(_charpoly_job(seed, rng))
    return jobs


# --------------------------------------------------------------------------
# finite_n: finite_kernel and _hiprec
# --------------------------------------------------------------------------

KERNEL_SETS = (((1, 0), (0,), ()), ((2, 0), (0, 1), ()), ((1, 1), (0,), (0,)), ((2, 1), (0, 1), (0,)))
# contour spots per grid: a contour value costs 0.04-0.09 s at N = 20 and
# 0.013-0.027 s at N = 10, so these counts put every kernel job at 0.1-0.25 s
# and job_p50_s inside that cluster of eight
KERNEL_SPOTS = {20: 2, 10: 8}
# x_max per (N, r, s): the grids stay where the sum and contour routes agree
# to 1e-9 relative to sqrt(K(x,x) K(y,y)), a tenth of the tolerance.  At
# r = 1 and N = 20 the sum route drifts as x grows: 3e-8 of the Laguerre
# kernel at x = N/2 (s = 0), and 4e-6 of the contour value at x = 1 (s = 1).
KERNEL_XMAX = {
    (10, 1, 0): 10.0, (10, 2, 0): 10.0, (10, 1, 1): 1.0, (10, 2, 1): 1.0,
    (20, 1, 0): 8.0, (20, 2, 0): 20.0, (20, 1, 1): 0.3, (20, 2, 1): 1.0,
}
TRACE_PARAMS = EnsembleParams(N=4, r=2, s=1, nu=(0, 0), mu=(0,))
GRAM_PARAMS = EnsembleParams(N=6, r=2, s=1, nu=(0, 1), mu=(0,))
CLI_KERNEL = ["--N", "8", "--r", "2", "--s", "1", "--nu", "0,1", "--mu", "1"]
FAULT_PARAMS = EnsembleParams(N=40, r=1, s=0, nu=(0,))
FAULT_SUM = "biorthogonal sum loses accuracy at large N (ROADMAP item 4a)"
FAULT_CONTOUR = "kernel_n_contour raises InternalImaginaryResidue for x near N (ROADMAP item 4a)"


def _kernel_job(N: int, rs: tuple[int, int], nu, mu, rng: np.random.Generator) -> Job:
    """BiorthSystem build, a 5x5 kernel_matrix grid and KERNEL_SPOTS[N]
    kernel_n_contour spots.

    The whole grid is checked against kernel_n_contour on all 25 points,
    computed once outside the timed passes; at r = 1, s = 0 also against the
    Laguerre kernel.  The timed spots are checked against the grid.
    """
    r, s = rs
    params = EnsembleParams(N=N, r=r, s=s, nu=nu, mu=mu)
    x_max = KERNEL_XMAX[(N, r, s)]
    # the sum route's error is largest at large x, and oscillates in y: the
    # x range is anchored at both ends and the y grid is fixed, so the worst
    # error, and digits_min with it, does not hang on the seed
    lo = 0.02 * x_max
    xs = np.concatenate([[lo], np.sort(rng.uniform(lo, x_max, 3)), [x_max]])
    ys = np.linspace(lo, x_max, 5)
    others = rng.choice(24, KERNEL_SPOTS[N] - 1, replace=False)
    spots = [(4, 4)] + [(int(k) // 5, int(k) % 5) for k in others]

    def run():
        grid = fk.biorth_system(params).kernel_matrix(xs, ys)
        contour = [fk.kernel_n_contour(params, float(xs[i]), float(ys[j])).value for i, j in spots]
        return grid, np.array(contour)

    def reference():
        contour = np.array([[fk.kernel_n_contour(params, float(x), float(y)).value for y in ys] for x in xs])
        if rs != (1, 0):
            return contour, None
        kxx = np.diag(refs.laguerre_kernel(N, nu[0], xs, xs))
        kyy = np.diag(refs.laguerre_kernel(N, nu[0], ys, ys))
        return contour, (refs.laguerre_kernel(N, nu[0], xs, ys), np.sqrt(np.outer(kxx, kyy)))

    def compare(out, ref):
        grid, contour = out
        contour_grid, laguerre = ref
        routes = checks.agreement(checks.both(
            checks.normwise([grid[i, j] for i, j in spots], contour, TOL_KERNEL),
            checks.normwise(grid, contour_grid, TOL_KERNEL)))
        if laguerre is None:
            return routes
        return checks.both(routes, checks.scaled(grid, *laguerre, TOL_KERNEL))

    return Job(f"kernel_N{N}_r{r}s{s}", run, compare, reference)


def _fault_jobs() -> list[Job]:
    """The three N = 40 operations that fail until ROADMAP item 4 is mended."""
    N = FAULT_PARAMS.N

    def kernel_sum(x):
        return fk.kernel_n(FAULT_PARAMS, x, x).value

    def kernel_contour(x):
        return fk.kernel_n_contour(FAULT_PARAMS, x, x).value

    cases = (("laguerre_sum", kernel_sum, N / 2, FAULT_SUM), ("laguerre_sum", kernel_sum, float(N), FAULT_SUM),
             ("laguerre_contour", kernel_contour, float(N), FAULT_CONTOUR))
    return [
        Job(f"{label}_N{N}_x{x:g}", partial(call, x), lambda v, ref: checks.pointwise([v], [ref], TOL_KERNEL),
            partial(lambda x: refs.laguerre_kernel(N, 0, [x], [x])[0, 0], x), known_fault=fault)
        for label, call, x, fault in cases
    ]


def finite_n_jobs(seed: int) -> list[Job]:
    rng = np.random.default_rng([seed, 2])
    # the first job is what the set-up probes time: a BiorthSystem build plus
    # its quadrature grid, about 0.8 s
    trace = Job("kernel_trace_N4_r2s1", lambda: fk.kernel_trace(TRACE_PARAMS),
                lambda t, ref: checks.pointwise([t], [TRACE_PARAMS.N], TOL_TRACE))
    kernels = [_kernel_job(N, rs, nu, mu, rng) for N in (20, 10) for rs, nu, mu in KERNEL_SETS]

    kx = np.sort(rng.uniform(0.05, 1.0, 2))
    ky = np.sort(rng.uniform(0.05, 1.0, 2))
    argv = ["kernel", *CLI_KERNEL, "--x", ",".join(repr(float(v)) for v in kx),
            "--y", ",".join(repr(float(v)) for v in ky), "--method", "both"]

    def compare_cli_kernel(text, ref):
        k = _cli_column(text, "K")  # rows alternate sum, contour
        return checks.agreement(checks.normwise(k[0::2], k[1::2], TOL_KERNEL))

    cli_kernel = Job("cli_kernel_both_N8_r2s1", lambda: run_cli(argv), compare_cli_kernel)
    gram = Job("biorth_matrix_N6_r2s1", lambda: fk.biorth_matrix(GRAM_PARAMS),
               lambda g, ref: checks.identity(g, TOL_GRAM))
    # the Gram matrix takes most of a pass; with kernel jobs on both sides of
    # it, job_p50_s samples the box's speed twice per pass instead of once
    return [trace, *kernels[:4], cli_kernel, gram, *kernels[4:], *_fault_jobs()]


# --------------------------------------------------------------------------
# hard_edge: hard_edge and specfun's Mellin-Barnes lines
# --------------------------------------------------------------------------

HARD_R2 = HardEdgeParams(r=2, nu=(0, 0))
HARD_R2_NU = HardEdgeParams(r=2, nu=(1, 0))
HARD_R3 = HardEdgeParams(r=3, nu=(0, 0, 0))
# the r = 3 grid is fixed at the corner of the table where k_hard is least
# accurate (x large, y near 2; 4e-13 of sqrt(K(x,x) K(y,y))), so digits_min
# shows that worst case on every seed instead of when the seed draws it
HARD_R3_CORNER = ((8.5, 13.0), (1.1, 2.6))


def _table_ref(table: dict, params: HardEdgeParams, pairs) -> tuple[list, list]:
    """Table values at (x, y) pairs and their scales sqrt(K(x, x) K(y, y))."""
    key = (params.r, params.nu)
    values = [table[(*key, x, y)] for x, y in pairs]
    scales = [math.sqrt(abs(table[(*key, x, x)] * table[(*key, y, y)])) for x, y in pairs]
    return values, scales


def _hard_grid_job(params: HardEdgeParams, xs, ys, table: dict) -> Job:
    n = len(xs)

    def run():
        return [[he.k_hard(params, x, y).value for y in ys] for x in xs]

    def reference():
        return _table_ref(table, params, [(x, y) for x in xs for y in ys])

    return Job(f"k_hard_grid_r{params.r}_{n}x{n}", run,
               lambda v, ref: checks.scaled(np.ravel(v), *ref, TOL_HARD_TABLE), reference)


def _hard_diag_job(params: HardEdgeParams, n: int, rng, table: dict) -> Job:
    xs = np.sort(rng.choice(refs.khard_lattice(table), n, replace=False))

    def reference():
        return [table[(params.r, params.nu, float(x), float(x))] for x in xs]

    return Job(f"k_hard_diag_r{params.r}_{n}", lambda: he.k_hard_diag(params, xs),
               lambda v, ref: checks.pointwise(v, ref, TOL_HARD_TABLE), reference)


def _hard_pair_job(params: HardEdgeParams, k: int, rng, table: dict) -> Job:
    x, y = (float(v) for v in rng.choice(refs.khard_lattice(table), 2, replace=False))
    nu = "".join(map(str, params.nu))
    return Job(f"k_hard_pair_r{params.r}_nu{nu}_{k}", lambda: he.k_hard(params, x, y).value,
               lambda v, ref: checks.scaled([v], *ref, TOL_HARD_TABLE),
               lambda: _table_ref(table, params, [(x, y)]))


def _cd_job(params: HardEdgeParams, k: int, rng) -> Job:
    x, y = rng.uniform(0.5, 13.0, 2)
    while abs(x - y) < 0.5:
        x, y = rng.uniform(0.5, 13.0, 2)
    x, y = float(x), float(y)

    def run():
        return he.k_hard(params, x, y).value, he.k_hard_cd(params, x, y).value

    return Job(f"k_hard_cd_r{params.r}_{k}", run,
               lambda out, ref: checks.agreement(checks.pointwise([out[1]], [out[0]], TOL_KERNEL)))


def _bessel_diag_job(rng) -> Job:
    a = int(rng.integers(0, 3))
    lo, hi, n = float(rng.uniform(0.05, 0.5)), float(rng.uniform(20.0, 40.0)), 40
    argv = ["hardedge", "--r", "1", "--nu", str(a), "--diag", f"{lo!r}:{hi!r}:{n}"]

    def compare(text, ref):
        return checks.normwise(_cli_column(text, "K"), ref, TOL_BESSEL)

    return Job(f"cli_hardedge_diag_r1_a{a}", lambda: run_cli(argv), compare,
               lambda: refs.bessel_diag(a, np.linspace(lo, hi, n)))


def _limit_job(params: HardEdgeParams, rng) -> Job:
    # at lam < 0 the series has real zeros, so the error is scaled by the sum
    # of the terms' moduli: a value near a zero keeps its natural size
    lams = [float(v) for v in rng.uniform(-6.0, 20.0, 4)]
    nu = "".join(map(str, params.nu))

    def reference():
        sums = [refs.hyp0fr_rational(params.nu, lam) for lam in lams]
        return [float(v) for v, _ in sums], [float(a) for _, a in sums]

    return Job(f"charpoly_hard_limit_r{params.r}_nu{nu}",
               lambda: [he.charpoly_hard_limit(params, lam) for lam in lams],
               lambda v, ref: checks.scaled(v, *ref, TOL_LIMIT), reference)


def hard_edge_jobs(seed: int) -> list[Job]:
    rng = np.random.default_rng([seed, 3])
    table = refs.load_khard_table()
    lattice = refs.khard_lattice(table)
    jobs = [
        _hard_grid_job(HARD_R2, *([float(v) for v in rng.choice(lattice, 3, replace=False)] for _ in range(2)), table),
        _hard_diag_job(HARD_R2, 4, rng, table),
        _hard_grid_job(HARD_R3, *HARD_R3_CORNER, table),
        _hard_diag_job(HARD_R3, 3, rng, table),
    ]
    jobs += [_hard_pair_job(p, k, rng, table) for p in (HARD_R2, HARD_R2_NU, HARD_R3) for k in range(2)]
    jobs += [_cd_job(HARD_R2, k, rng) for k in range(3)]
    jobs.append(_bessel_diag_job(rng))
    jobs += [_limit_job(p, rng) for p in (HARD_R2, HardEdgeParams(r=3, nu=(0, 1, 0)))]
    return jobs


WORKLOADS: dict[str, Callable[[int], list[Job]]] = {
    "global": global_jobs,
    "finite_n": finite_n_jobs,
    "hard_edge": hard_edge_jobs,
}
