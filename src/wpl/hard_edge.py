"""Hard-edge scaled kernel and its asymptotics.

K_hard^r(x, y) = ∫_0^1 G^{1,0}_{0,r+1}(ux | -ν_0..-ν_r) G^{r,0}_{0,r+1}(uy | ν_1..ν_r, ν_0) du

with ν_0 := 0.  The first factor is a 0F_r series; the second is a
Mellin-Barnes line integral (r >= 2) or another Bessel-type series (r = 1).
At r >= 2 the u-integral is done termwise in the series, leaving one line
contracted with the pairs (x, y) (`_mellin_pairs`); at r = 1, whose line
does not decay, the two Bessel factors are integrated over u.  Alongside
the integral form: the generalized Christoffel-Darboux form (all ν = 0),
the scaled characteristic-polynomial limit, and the tail/bulk comparison
experiments, which report diagnostics rather than gate anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import CoincidentPoints, DomainError, NonConvergent, UnsupportedR
from .specfun import (
    ContourSpec, HypSeriesParams, KernelEval, MeijerSpec, bessel_j, gl_panels, kernel_pairs, meijer_line, pfq,
)


@dataclass(frozen=True)
class HardEdgeParams:
    r: int
    nu: tuple[int, ...]

    def __post_init__(self):
        if self.r < 1:
            raise DomainError("hard edge requires r >= 1")
        if len(self.nu) != self.r or any(v < 0 for v in self.nu):
            raise DomainError("nu must have length r with nonnegative entries")


_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
# rows of _g10_terms formed at once
_TERM_BLOCK = 16


def _g10_terms(params: HardEdgeParams, x: np.ndarray) -> np.ndarray:
    """The terms c_k x^k of G^{1,0}_{0,r+1}(x | -ν_0..-ν_r), rows k = 0, 1, ...

    c_k = (-1)^k / (k! Π_j Γ(1+ν_j+k)).  The terms rise to a peak near
    k = x^{1/(r+1)} and then fall; rows stop at the first row in which
    every point's term is e^{-40} below its largest so far.  The rows are
    formed _TERM_BLOCK at a time, as k ln x - ln k! - Σ_j ln Γ(1+ν_j+k);
    a term beyond the float64 range up to the stop row raises
    NonConvergent.
    """
    log_x = np.log(x).ravel()
    blocks, top, k0 = [], np.full((1, log_x.size), -np.inf), 0
    while True:
        ks = range(k0, k0 + _TERM_BLOCK)
        lg = np.array([(math.lgamma(k + 1), sum(math.lgamma(1.0 + v + k) for v in params.nu)) for k in ks])
        log_t = np.array(ks, dtype=float)[:, None] * log_x - lg[:, :1] - lg[:, 1:]
        tops = np.maximum.accumulate(np.concatenate([top, log_t]), axis=0)[1:]
        done = np.all(log_t < tops - 40.0, axis=1)
        n = int(np.argmax(done)) + 1 if np.any(done) else _TERM_BLOCK
        if np.max(tops[n - 1]) > _LOG_FLOAT_MAX:
            raise NonConvergent(f"0F_r series terms overflow at x = {np.max(x):g}")
        blocks.append(np.where(np.arange(k0, k0 + n) % 2, -1.0, 1.0)[:, None] * np.exp(log_t[:n]))
        if np.any(done):
            return np.concatenate(blocks).reshape((-1,) + np.shape(x))
        top, k0 = tops[-1:], k0 + _TERM_BLOCK


def _g10_series(params: HardEdgeParams, w: np.ndarray, power: int = 0) -> np.ndarray:
    """G^{1,0}_{0,r+1}(w | -ν_0,..,-ν_r) = 0F_r(; 1+ν; -w)/Π Γ(1+ν_j),
    with (x d/dx)^power applied termwise.

    For r = 1 the series is bounded-oscillatory (Bessel) and cancels badly
    at large w, so its values go through bessel_j.
    """
    if power == 0 and params.r == 1:
        wv = np.asarray(w, dtype=float)
        nu1 = float(params.nu[0])
        return wv ** (-0.5 * nu1) * bessel_j(nu1, 2.0 * np.sqrt(wv))
    terms = _g10_terms(params, np.asarray(w, dtype=float))
    return np.arange(len(terms)) ** power @ terms  # coefficient of w^k gets k^power


def _gr0_spec(params: HardEdgeParams) -> MeijerSpec:
    b = tuple(float(v) for v in params.nu) + (0.0,)
    return MeijerSpec(m=params.r, n=0, p=0, q=params.r + 1, a=(), b=b)


def _gr0_deltas(params: HardEdgeParams, w, powers) -> np.ndarray:
    """Δ^j G^{r,0}_{0,r+1}(w | ν_1..ν_r, ν_0) at points w > 0, one row per j in powers.

    At r >= 2 the Mellin-Barnes line of the highest power J (its
    integrand carries s^J) is contracted with the node x (power, point)
    matrix s^{j-J} w^s.  At r = 1 Δ^0 is a Bessel function and Δ^j, j > 0,
    the termwise series.
    """
    wv = np.asarray(w, dtype=float)
    if params.r == 1:
        nu1 = params.nu[0]
        rows = []
        for j in powers:
            if j == 0:
                rows.append(wv ** (0.5 * nu1) * bessel_j(float(nu1), 2.0 * np.sqrt(wv)))
            else:
                # Σ_k (-1)^k w^{nu1+k} / (k! Γ(nu1+k+1)) = w^{nu1} G^{1,0}(w), termwise
                terms = _g10_terms(params, wv)
                rows.append(wv**nu1 * ((nu1 + np.arange(len(terms))) ** j @ terms))
        return np.array(rows)
    spec = _gr0_spec(params)
    contour = ContourSpec.auto(spec)
    log_w = np.log(wv).ravel()
    top = max(powers)
    line = meijer_line(spec, contour, float(np.max(np.abs(log_w))), power=top)
    u = line.u
    pw, lw = np.repeat(powers, log_w.size) - top, np.tile(log_w, len(powers))
    vals = line.contract(lambda sl: u[:, None] ** pw[sl] * np.exp(np.outer(u, lw[sl])), len(pw))[0]
    return vals.reshape((len(powers),) + wv.shape)


# the Gauss-Legendre rule of _u_grid's panels
_U_RULE = np.polynomial.legendre.leggauss(12)
# the widest _u_grid panel, in t = -ln u, past the Bessel oscillation
_U_MAX_WIDTH = 4.0
# pairs a _bessel_pairs block sums at once: a 201 x 201 grid at x <= 8 peaks at 49 MB
# RSS, 401 x 401 at 57 MB, where one block of every pair took 149 and 488 MB
_PAIR_BLOCK = 4096


def _u_grid(x_max: float):
    """Nodes/weights for ∫_0^1 du with u = e^{-t}: resolves the log endpoint
    and the oscillation of the r = 1 Bessel factors at points up to x_max.

    J_ν(2√(x e^{-t})) oscillates only while t < t_osc = ln x_max; there the
    panels keep the width w0 that the oscillation budget sets.  Past t_osc
    the factors vary at the rate √x_max e^{-t/2}, so each panel is
    w0 e^{(t - t_osc)/2} wide at its left edge t, up to _U_MAX_WIDTH.
    """
    t_max = 42.0
    phase = 3.0 * math.sqrt(x_max) + 8.0  # oscillation budget
    w0 = t_max / max(24, int(t_max * 1.2), int(2.0 * phase))
    t_osc = max(0.0, math.log(x_max))
    edges = [0.0]
    while edges[-1] < t_max:
        left = edges[-1]
        width = w0 if left < t_osc else min(_U_MAX_WIDTH, w0 * math.exp(0.5 * (left - t_osc)))
        edges.append(min(left + width, t_max))
    t, wt = gl_panels(_U_RULE, edges)
    u = np.exp(-t)
    return u, wt * u  # du = e^{-t} dt


def _bessel_pairs(params: HardEdgeParams, pts: np.ndarray, ix, iy) -> tuple[np.ndarray, None]:
    """r = 1: K(pts[ix], pts[iy]) by the u-integral of the two Bessel factors
    f(w) = w^{-ν/2} J_ν(2√w) (G^{1,0}, as _g10_series) and g(w) = w^{ν/2}
    J_ν(2√w) (G^{1,0}_{0,2}(w | ν, 0), as _gr0_deltas) at w = ux: one J a
    node and point serves both.  The pairs are summed _PAIR_BLOCK at a time,
    so memory grows like nodes × points, not nodes × pairs.  This route has
    no loss estimate: its second item is None."""
    u, w = _u_grid(float(np.max(pts)))
    uw = np.outer(u, pts)
    nu1 = float(params.nu[0])
    bessel = bessel_j(nu1, 2.0 * np.sqrt(uw))
    f = uw ** (-0.5 * nu1) * bessel * w[:, None]
    g = uw ** (0.5 * nu1) * bessel
    vals = np.empty(len(ix))
    for lo in range(0, len(ix), _PAIR_BLOCK):
        sl = slice(lo, lo + _PAIR_BLOCK)
        vals[sl] = np.einsum("qp,qp->p", f[:, ix[sl]], g[:, iy[sl]])
    return vals, None


def _mellin_pairs(params: HardEdgeParams, pts: np.ndarray, ix, iy) -> tuple[np.ndarray, np.ndarray]:
    """r >= 2: K(pts[ix], pts[iy]) by one Mellin-Barnes line, for pairs that
    include every diagonal pair (p, p).

    With g(w) = (1/2πi)∫ F(s) w^s ds, F(s) = Π_j Γ(ν_j - s)/Γ(1 + s), and
    f(w) = Σ_k c_k w^k, the u-integral ∫_0^1 (ux)^k (uy)^s du = x^k y^s/(k+s+1)
    gives

        K(x, y) = (1/2πi)∫ F(s) y^s H(s, x) ds,  H(s, x) = Σ_k c_k x^k/(k+s+1),

    one line contracted with the node x pair matrix H(s_i, x) y^{s_i}, on
    the line's upper half (H(conj s, x) = conj H(s, x), as for y^s).  The
    poles of H at s = -1-k lie at least as far from the line Re s =
    min ν - 1/2 as the nearest pole of F, so the line is that of G^{r,0}.
    The alternating series loses about (r+1)(1 - cos(π/(r+1))) x^{1/(r+1)}
    nats, and the line about (r+1) cos(π/(r+1)) y^{1/(r+1)} to the decay of
    G^{r,0}.  The rounding error is bounded by eps times the unsigned mass
    Σ_i |w_i F(s_i)| y^c Σ_k |c_k| x^k/(k+c+1), whose log this returns
    alongside the values for kernel_pairs' loss rule.
    """
    spec = _gr0_spec(params)
    contour = ContourSpec.auto(spec)
    log_pts = np.log(pts)
    line = meijer_line(spec, contour, float(np.max(np.abs(log_pts))))
    c = contour.abscissa
    terms = _g10_terms(params, pts)
    k = np.arange(len(terms))
    h = (1.0 / (k[None, :] + 1.0 + line.u[:, None])) @ terms  # H(s_i, x_p)
    y_s = np.exp(np.outer(line.u, log_pts))
    log_scale = (c * log_pts)[iy] + np.log(np.abs(terms).T @ (1.0 / (k + 1.0 + c)))[ix]
    vals = line.contract(lambda sl: h[:, ix[sl]] * y_s[:, iy[sl]], len(ix))[0]
    return vals, line.log_mass[0] + log_scale


def _kernel_pairs(params: HardEdgeParams, x, y) -> np.ndarray:
    """K_hard on broadcast point arrays x, y (specfun.kernel_pairs): r >= 2 contracts one
    Mellin-Barnes line with the 0F_r series (see _mellin_pairs); r = 1, whose line does not
    decay, integrates the two Bessel factors over u."""
    return kernel_pairs("hard-edge series", partial(_bessel_pairs if params.r == 1 else _mellin_pairs, params), x, y)


def k_hard_grid(params: HardEdgeParams, xs, ys) -> np.ndarray:
    """K_hard(x_i, y_j) on a grid, rows x_i (independent of s and of mu; see _kernel_pairs)."""
    return _kernel_pairs(params, *np.ix_(xs, ys))


def k_hard(params: HardEdgeParams, x: float, y: float) -> KernelEval:
    """Hard-edge kernel at one point: a 1 x 1 k_hard_grid."""
    value = float(k_hard_grid(params, [x], [y])[0, 0])
    return KernelEval(x=x, y=y, value=value, method="integral")


def k_hard_diag(params: HardEdgeParams, xs: np.ndarray) -> np.ndarray:
    """K_hard(x, x) on a grid of points."""
    return _kernel_pairs(params, xs, xs)


def bessel_density(a: int, x) -> np.ndarray:
    """Hard-edge density of the classical ensemble:
    J_a(2√x)^2 - J_{a+1}(2√x) J_{a-1}(2√x)."""
    z = 2.0 * np.sqrt(np.asarray(x, dtype=float))
    return bessel_j(float(a), z) ** 2 - bessel_j(float(a + 1), z) * bessel_j(float(a - 1), z)


def k_hard_cd(params: HardEdgeParams, x: float, y: float) -> KernelEval:
    """Generalized Christoffel-Darboux form (all ν_j = 0):

    K = (-1)^{r+1} Σ_{j=0}^r (-1)^j Δ_x^j f(x) Δ_y^{r-j} g(y) / (x - y),

    f = G^{1,0}, g = G^{r,0}, Δ = x d/dx."""
    if any(v != 0 for v in params.nu):
        raise DomainError("Christoffel-Darboux form implemented for all nu = 0 only")
    if not (math.isfinite(x) and math.isfinite(y) and x > 0 and y > 0):
        raise DomainError("k_hard_cd requires finite x, y > 0")
    if abs(x - y) < 1e-8 * max(x, y):
        raise CoincidentPoints("use the integral form near the diagonal")
    r = params.r
    xa = np.array([x])
    g = _gr0_deltas(params, np.array([y]), range(r + 1))[:, 0]
    terms = _g10_terms(params, xa)  # Δ^j f(x) = Σ_k k^j c_k x^k, as _g10_series
    k = np.arange(len(terms))
    total = 0.0
    for j in range(r + 1):
        fj = float(_g10_series(params, xa)[0] if r == 1 and j == 0 else (k**j @ terms)[0])
        total += (-1.0) ** j * fj * float(g[r - j])
    value = (-1.0) ** (r + 1) * total / (x - y)
    return KernelEval(x=x, y=y, value=value, method="christoffel_darboux")


def charpoly_hard_limit(params: HardEdgeParams, lam: float) -> float:
    """Scaled limit of the normalized characteristic polynomial: 0F_r(; ν+1; λ)."""
    return float(pfq(HypSeriesParams.of((), tuple(1.0 + v for v in params.nu)), lam))


def charpoly_limit_convergence(r: int, s: int, nu: tuple[int, ...], mu_of_N, lam: float, Ns) -> list[float]:
    """Normalized finite-N characteristic polynomials approaching the 0F_r limit.

    The eigenvalue-variable orientation: the normalized char poly evaluated
    at -λ/N^{s+1} converges to 0F_r(; ν+1; +λ).  mu_of_N maps N to the mu
    tuple (the limit is independent of it).
    """
    from .finite_kernel import charpoly_exact
    from .freeprob import EnsembleParams

    out = []
    for N in Ns:
        params = EnsembleParams(N=N, r=r, s=s, nu=nu, mu=mu_of_N(N))
        out.append(charpoly_exact(params, -lam / float(N) ** (s + 1), normalized=True))
    return out


def tail_diagonal(params: HardEdgeParams, x: float) -> float:
    """Conjectured large-x diagonal: sin(pi/(r+1)) / (pi x^{r/(r+1)})."""
    if x <= 0:
        raise DomainError("tail_diagonal requires x > 0")
    return math.sin(math.pi / (params.r + 1)) / (math.pi * x ** (params.r / (params.r + 1)))


def tail_diagonal_report(params: HardEdgeParams, x_lo: float, x_hi: float, n_grid: int = 160) -> dict:
    """Windowed-average comparison of K_hard(x,x) against the conjectured tail.

    Windows span one period of the oscillatory phase
    theta(x) = (r+1) x^{1/(r+1)} sin(pi/(r+1)); if the range holds less than
    one full period the whole range is averaged.  Returns the mean ratio,
    oscillation amplitude, and the window actually used.
    """
    r = params.r
    beta = math.sin(math.pi / (r + 1))

    def phase(x):
        return (r + 1) * x ** (1.0 / (r + 1)) * beta

    lo = x_lo
    hi = x_hi if phase(x_hi) - phase(x_lo) <= 2.0 * math.pi else _phase_step(phase, x_lo)
    xs = np.linspace(lo, hi, n_grid)
    ratio = k_hard_diag(params, xs) / np.array([tail_diagonal(params, float(x)) for x in xs])
    return {
        "window": (lo, hi),
        "mean_ratio": float(np.trapezoid(ratio, xs) / (hi - lo)),
        "osc_amplitude": float(0.5 * (ratio.max() - ratio.min())),
        "full_period": phase(x_hi) - phase(x_lo) > 2.0 * math.pi,
    }


def _phase_step(phase, x_lo: float) -> float:
    target = phase(x_lo) + 2.0 * math.pi
    lo, hi = x_lo, 10.0 * x_lo
    while phase(hi) < target:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if phase(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rho2_truncated_tail(r: int, x: float, y: float) -> float:
    """Leading non-oscillatory truncated two-point tail (r = 1 and r = 2)."""
    if x <= 0 or y <= 0 or x == y:
        raise DomainError("need distinct positive x, y")
    if r == 1:
        return -(x + y) / (4.0 * math.pi**2 * math.sqrt(x * y) * (x - y) ** 2)
    if r == 2:
        return -(1.0 + (y / x) ** (1.0 / 3.0) + (x / y) ** (1.0 / 3.0)) / (6.0 * math.pi**2 * (x - y) ** 2)
    raise UnsupportedR("truncated tail implemented for r in {1, 2}")


def _phase_uniform_window(r: int, x0: float, n: int) -> np.ndarray:
    """n points with theta(x) = (r+1) x^{1/(r+1)} sin(pi/(r+1)) advancing
    uniformly over one full period from x0 (closed-form inversion)."""
    beta = math.sin(math.pi / (r + 1))
    theta0 = (r + 1) * x0 ** (1.0 / (r + 1)) * beta
    thetas = theta0 + 2.0 * math.pi * np.arange(n) / n
    return (thetas / ((r + 1) * beta)) ** (r + 1)


def rho2_tail_report(r: int, x: float, y: float, n_phase: int = 9) -> dict:
    """Compare -K(x,y)K(y,x) to the truncated tail with oscillation averaging.

    The product carries the phases theta(x) +- theta(y); both average out
    only when x and y move through full periods independently, so the
    window is a phase-uniform torus grid in (theta(x'), theta(y')).  The
    y-window is placed just beyond the end of the x-window (one full
    period each, disjoint) because the truncated-tail form breaks down
    near coincidence.  Each sample is normalized by the formula at its own
    (x', y'); the envelope drifts over the window.
    """
    if x >= y:
        x, y = y, x
    params = HardEdgeParams(r=r, nu=(0,) * r)
    xs = _phase_uniform_window(r, x, n_phase)
    beta = math.sin(math.pi / (r + 1))
    theta_x0 = (r + 1) * x ** (1.0 / (r + 1)) * beta
    x_end = ((theta_x0 + 2.0 * math.pi) / ((r + 1) * beta)) ** (r + 1)
    y0 = max(y, 1.05 * x_end)
    ys = _phase_uniform_window(r, y0, n_phase)
    gx, gy = (g.ravel() for g in np.meshgrid(xs, ys, indexing="ij"))
    kxy, kyx = np.split(_kernel_pairs(params, np.concatenate([gx, gy]), np.concatenate([gy, gx])), 2)
    ratios = [-a * b / rho2_truncated_tail(r, float(xv), float(yv)) for a, b, xv, yv in zip(kxy, kyx, gx, gy)]
    ratio = float(np.mean(ratios))
    return {
        "windows": ((float(xs[0]), float(xs[-1])), (float(ys[0]), float(ys[-1]))),
        "kept": len(ratios),
        "reference": rho2_truncated_tail(r, x, y),
        "ratio": ratio,
    }


def gauge_h(x: float) -> float:
    """Gauge factor e^{3 x^{1/3} cos(pi/3)} = e^{1.5 x^{1/3}} (cancels in determinants)."""
    if x <= 0:
        raise DomainError("gauge_h requires x > 0")
    return math.exp(1.5 * x ** (1.0 / 3.0))


def bulk_experiment(r: int, c: float, x: float, y: float) -> tuple[float, float]:
    """Gauge-free bulk comparison (exploratory; the r >= 2 case is conjectural).

    Returns (scaled K(X,Y) K(Y,X) product, sine-kernel reference) where
    X = c + pi x c^{r/(r+1)}/sin(pi/(r+1)) and the scale is the prefactor
    of the x-variable change.
    """
    params = HardEdgeParams(r=r, nu=(0,) * r)
    scale = math.pi * c ** (r / (r + 1.0)) / math.sin(math.pi / (r + 1))
    X = c + x * scale
    Y = c + y * scale
    kxy, kyx = _kernel_pairs(params, [X, Y], [Y, X])
    if x == y:
        return (scale * kxy) ** 2, 1.0
    prod = scale**2 * kxy * kyx
    t = math.pi * (x - y)
    return prod, (math.sin(t) / t) ** 2
