"""The acceptance suite: one callable per criterion, fixed seeds.

Each check returns a CheckResult with the computed figure, its reference,
the tolerance, and pass/fail.  The CLI `acceptance` subcommand and the
test suite both run exactly these, through run_checks, which times each.
Statistical tolerances can be scaled (tol_scale) to demonstrate failure
semantics; identity tolerances are pinned.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import finite_kernel as fk
from . import freeprob as fp
from . import hard_edge as he
from . import sampler as sp
from .freeprob import EnsembleParams
from .hard_edge import HardEdgeParams


@dataclass
class CheckResult:
    name: str
    value: float
    reference: float
    tolerance: float
    passed: bool
    detail: dict = field(default_factory=dict)
    seconds: float = 0.0  # set by run_checks

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: value={self.value:.6g} "
            f"ref={self.reference:.6g} tol={self.tolerance:.3g} ({self.seconds:.1f}s)"
        )


def _marchenko_pastur(y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    inside = (y > 0) & (y < 4)
    yi = y[inside]
    out[inside] = np.sqrt(yi * (4.0 - yi)) / (2.0 * math.pi * yi)
    return out


def check_mp_recovery(tol_scale: float = 1.0) -> CheckResult:
    xs = np.linspace(0.1, 3.9, 50)
    exact = _marchenko_pastur(xs)
    solver = fp.stieltjes_density(1, 0, xs)
    detail = {
        "global_density": float(np.max(np.abs(fp.global_density(1, 0, xs) - exact))),
        "stieltjes_density": float(np.max(np.abs(solver - exact))),
    }
    err = max(detail.values())
    return CheckResult("01_marchenko_pastur", err, 0.0, 1e-8, err <= 1e-8, detail)


def check_closed_forms(tol_scale: float = 1.0) -> CheckResult:
    """Solver route against the phi-parametric density, two computations."""
    grids = {}
    for r in (2, 3):
        # the s = 0 points x(phi) of the trigonometric parametrisation
        phi = np.linspace(0.12, math.pi / (r + 1) - 0.12, 12)
        xs = np.sin((r + 1) * phi) ** (r + 1) / (np.sin(phi) * np.sin(r * phi) ** r)
        grids[f"parametric_r{r}"] = (r, 0, xs)
    for r, s in ((1, 1), (2, 2), (2, 1), (1, 2)):
        grids[f"rs{r}{s}"] = (r, s, np.geomspace(0.05, 20.0, 12))
    detail = {}
    for name, (r, s, xs) in grids.items():
        solver = fp.stieltjes_density(r, s, xs)
        detail[name] = float(np.max(np.abs(solver - fp.global_density(r, s, xs))))
    worst = max(detail.values())
    return CheckResult("02_closed_form_crosschecks", worst, 0.0, 1e-8, worst <= 1e-8, detail)


def check_fuss_catalan(tol_scale: float = 1.0) -> CheckResult:
    exact_ok = all(fp.fuss_catalan_recurrence_check(r, 6) for r in range(1, 5))
    params = EnsembleParams(N=200, r=2, s=0, nu=(0, 0))
    samples = sp.sample_spectra(params, 200, sp.RngStream(33), scaling=sp.Scaling.GLOBAL)
    eig = np.concatenate([s.eigenvalues for s in samples])
    targets = (1.0, 3.0, 12.0)
    rels = [abs(float(np.mean(eig ** (k + 1))) / t - 1.0) for k, t in enumerate(targets)]
    tol = 0.05 * tol_scale
    worst = max(rels)
    passed = exact_ok and worst <= tol
    return CheckResult(
        "03_fuss_catalan", worst, 0.0, tol, passed,
        {"recurrence_exact": exact_ok, "moment_rel_errors": rels},
    )


def check_arcsine_spectrum(tol_scale: float = 1.0) -> CheckResult:
    params = EnsembleParams(N=200, r=1, s=1, nu=(0,), mu=(0,))
    samples = sp.sample_spectra(params, 100, sp.RngStream(44))
    lam = 1.0 / (1.0 + np.concatenate([s.eigenvalues for s in samples]))
    ecdf = sp.empirical_cdf(lam)
    ks = sp.sup_distance(ecdf, lambda t: (2.0 / math.pi) * np.arcsin(np.sqrt(np.clip(t, 0, 1))))
    tol = 0.03 * tol_scale
    return CheckResult("04_arcsine_spectrum", ks, 0.0, tol, ks <= tol)


def check_charpoly_mc(tol_scale: float = 1.0) -> CheckResult:
    params = EnsembleParams(N=3, r=2, s=1, nu=(0, 1), mu=(0,))
    lam = np.array([0.5, 1.0, 2.0])
    mean, err = sp.mc_charpoly(params, lam, 100_000, sp.RngStream(55))
    exact = np.array([fk.charpoly_exact(params, float(v)) for v in lam])
    zmax = float(np.max(np.abs((mean - exact) / err)))
    # exact functional symmetry (-1)^N lam^N P^{(r,s)}(1/lam) = P^{(s,r)}(lam), mu <-> nu
    swapped = EnsembleParams(N=3, r=1, s=2, nu=(0,), mu=(0, 1))
    lam0 = 0.7
    lhs = (-1.0) ** 3 * lam0**3 * fk.charpoly_exact(params, 1.0 / lam0)
    rhs = fk.charpoly_exact(swapped, lam0)
    sym_err = abs(lhs - rhs) / abs(rhs)
    tol = 3.0 * tol_scale
    passed = zmax <= tol and sym_err <= 1e-12
    return CheckResult(
        "05_charpoly_mc", zmax, 0.0, tol, passed,
        {"means": mean.tolist(), "exact": exact.tolist(), "stderr": err.tolist(), "symmetry_err": sym_err},
    )


_BIORTH_SETS = (
    EnsembleParams(N=6, r=1, s=1, nu=(0,), mu=(0,)),
    EnsembleParams(N=6, r=2, s=1, nu=(0, 1), mu=(0,)),
    EnsembleParams(N=6, r=2, s=2, nu=(0, 0), mu=(1, 0)),
    EnsembleParams(N=6, r=3, s=0, nu=(0, 1, 0), mu=()),
)


def check_biorthogonality(tol_scale: float = 1.0) -> CheckResult:
    detail = {}
    worst = 0.0
    for params in _BIORTH_SETS:
        gram = fk.biorth_matrix(params)
        err = float(np.max(np.abs(gram - np.eye(params.N))))
        detail[f"rs_{params.r}{params.s}"] = err
        worst = max(worst, err)
    return CheckResult("06_biorthogonality", worst, 0.0, 1e-8, worst <= 1e-8, detail)


def check_kernel_identity(tol_scale: float = 1.0) -> CheckResult:
    rng = np.random.default_rng(7)
    worst = 0.0
    for params in (
        EnsembleParams(N=5, r=1, s=1, nu=(0,), mu=(0,)),
        EnsembleParams(N=5, r=2, s=0, nu=(0, 1)),
    ):
        for _ in range(10):
            x, y = rng.uniform(0.3, 3.0, 2)
            a = fk.kernel_n(params, float(x), float(y)).value
            b = fk.kernel_n_contour(params, float(x), float(y)).value
            worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
    return CheckResult("07_kernel_identity", worst, 0.0, 1e-8, worst <= 1e-8)


def check_trace_projection(tol_scale: float = 1.0) -> CheckResult:
    params = EnsembleParams(N=4, r=2, s=1, nu=(0, 0), mu=(0,))
    trace_err = abs(fk.kernel_trace(params) - 4.0)
    k = fk.kernel_n(params, 1.0, 2.0).value
    rep_err = abs(fk.kernel_reproduce(params, 1.0, 2.0) - k)
    worst = max(trace_err, rep_err)
    return CheckResult(
        "08_trace_projection", worst, 0.0, 1e-6, worst <= 1e-6,
        {"trace_err": trace_err, "reproduce_err": rep_err},
    )


def check_bessel_reduction(tol_scale: float = 1.0) -> CheckResult:
    xs = np.linspace(0.1, 10.0, 30)
    worst = 0.0
    for a in (0, 1, 2):
        params = HardEdgeParams(r=1, nu=(a,))
        diff = np.abs(he.k_hard_diag(params, xs) - he.bessel_density(a, xs))
        worst = max(worst, float(np.max(diff)))
    return CheckResult("09_bessel_reduction", worst, 0.0, 1e-6, worst <= 1e-6)


def check_cd_equivalence(tol_scale: float = 1.0) -> CheckResult:
    params = HardEdgeParams(r=2, nu=(0, 0))
    rng = np.random.default_rng(11)
    worst = 0.0
    pairs = 0
    while pairs < 20:
        x, y = rng.uniform(0.5, 20.0, 2)
        if abs(x - y) < 1e-3 * max(x, y):
            continue
        a = he.k_hard(params, float(x), float(y)).value
        b = he.k_hard_cd(params, float(x), float(y)).value
        worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
        pairs += 1
    return CheckResult("10_cd_equivalence", worst, 0.0, 1e-6, worst <= 1e-6)


def check_hard_edge_convergence(tol_scale: float = 1.0) -> CheckResult:
    grid = np.linspace(0.2, 4.0, 6)
    ph = HardEdgeParams(r=2, nu=(0, 0))
    k_lim = he.k_hard_grid(ph, grid, grid)
    scale = float(np.max(np.abs(k_lim)))
    detail = {}
    kept = {}
    ok = True
    for mu in ((0,), (3,)):
        devs = []
        for N in (10, 20, 40):
            params = EnsembleParams(N=N, r=2, s=1, nu=(0, 0), mu=mu)
            sc = float(N) ** 2
            kn = fk.biorth_system(params).kernel_matrix(grid / sc, grid / sc) / sc
            devs.append(float(np.max(np.abs(kn - k_lim))) / scale)
            kept[(mu, N)] = kn
        detail[f"mu{mu[0]}_devs"] = devs
        ok = ok and devs[0] > devs[1] > devs[2] and devs[2] < 0.05
    # extrapolated limits (the convergence is ~1/N) must agree across mu
    ext = {mu: 2.0 * kept[(mu, 40)] - kept[(mu, 20)] for mu in ((0,), (3,))}
    mu_diff = float(np.max(np.abs(ext[(0,)] - ext[(3,)]))) / float(np.max(np.abs(ext[(0,)])))
    detail["extrapolated_mu_diff"] = mu_diff
    ok = ok and mu_diff < 0.01
    worst = max(detail["mu0_devs"][-1], detail["mu3_devs"][-1])
    return CheckResult("11_hard_edge_convergence", worst, 0.0, 0.05, ok, detail)


def check_charpoly_hard_limit(tol_scale: float = 1.0) -> CheckResult:
    params = HardEdgeParams(r=2, nu=(0, 0))
    lam = 1.0
    limit = he.charpoly_hard_limit(params, lam)
    vals = he.charpoly_limit_convergence(2, 1, (0, 0), lambda N: (0,), lam, (20, 40, 80))
    diffs = [abs(v - limit) for v in vals]
    ratios = [diffs[i + 1] / diffs[i] for i in range(2)]
    final_dev = diffs[-1] / abs(limit)
    ok = max(ratios) < 0.6 and final_dev < 0.01
    return CheckResult(
        "12_charpoly_hard_limit", final_dev, 0.0, 0.01, ok,
        {"diffs": diffs, "ratios": ratios},
    )


def check_tail_experiment(tol_scale: float = 1.0) -> CheckResult:
    detail = {}
    worst = 0.0
    for r in (2, 3):
        params = HardEdgeParams(r=r, nu=(0,) * r)
        rep = he.tail_diagonal_report(params, 50.0, 200.0, n_grid=72)
        detail[f"r{r}"] = rep
        worst = max(worst, abs(rep["mean_ratio"] - 1.0))
    tol = 0.05 * tol_scale
    return CheckResult("13_tail_experiment", worst, 0.0, tol, worst <= tol, detail)


def check_cauchy_bridge(tol_scale: float = 1.0) -> CheckResult:
    N, draws = 60, 500
    rng = sp.RngStream(seed=1414)
    vals = []
    for i in range(draws):
        eig = sp.sample_cauchy_triple(N, 0, 0, rng.substream(i)) * N**2
        vals.extend(eig[eig <= 5.0])
    params = HardEdgeParams(r=2, nu=(0, 0))
    xs = np.linspace(1e-4, 5.0, 240)
    dens = he.k_hard_diag(params, xs)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(xs))])
    ecdf = sp.empirical_cdf(np.array(vals))
    ks = sp.sup_distance(ecdf, lambda t: np.interp(t, xs, cum) / cum[-1])
    tol = 0.05 * tol_scale
    return CheckResult("14_cauchy_bridge", ks, 0.0, tol, ks <= tol, {"count": len(vals)})


ALL_CHECKS: dict[str, Callable[[float], CheckResult]] = {
    "01_marchenko_pastur": check_mp_recovery,
    "02_closed_form_crosschecks": check_closed_forms,
    "03_fuss_catalan": check_fuss_catalan,
    "04_arcsine_spectrum": check_arcsine_spectrum,
    "05_charpoly_mc": check_charpoly_mc,
    "06_biorthogonality": check_biorthogonality,
    "07_kernel_identity": check_kernel_identity,
    "08_trace_projection": check_trace_projection,
    "09_bessel_reduction": check_bessel_reduction,
    "10_cd_equivalence": check_cd_equivalence,
    "11_hard_edge_convergence": check_hard_edge_convergence,
    "12_charpoly_hard_limit": check_charpoly_hard_limit,
    "13_tail_experiment": check_tail_experiment,
    "14_cauchy_bridge": check_cauchy_bridge,
}


def run_checks(names=None, tol_scale: float = 1.0, report=print) -> list[CheckResult]:
    selected = list(ALL_CHECKS) if not names else list(names)
    results = []
    for name in selected:
        t0 = time.perf_counter()
        res = ALL_CHECKS[name](tol_scale)
        res.seconds = time.perf_counter() - t0
        results.append(res)
        if report is not None:
            report(res.line())
    return results
