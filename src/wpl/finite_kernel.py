"""Exact finite-N machinery for the product ensemble.

Joint eigenvalue PDF constants, the biorthogonal pair (P_n, Q_l), the
correlation kernel K_N in both the biorthogonal-sum and double-contour
forms, correlation functions, and the exact generalized characteristic
polynomial.

Gamma-laden products are assembled in log space with explicit sign
tracking; the biorthogonal contour data is precomputed once per parameter
set and reused across evaluation points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from . import _hiprec
from .errors import DomainError, NonConvergent
from .freeprob import EnsembleParams
from .specfun import (
    _LINE_REACH, ContourSpec, HypSeriesParams, KernelEval, MeijerSpec, MellinLine, end_decay_height, gl_line,
    graded_edges, kernel_pairs, line_tol, ln_gamma, ln_trapezoid, meijer_g, pfq, trapezoid_line,
)

_Q_ABSCISSA = -0.5  # contour Re u for the Q_l representation
# beyond x ~ 8 the shifted lines sit at the answer's own magnitude, while
# the -1/2 line starts to lose digits to cancellation
_X_DEEP = 8.0
# circle nodes per block of kernel_n_contour's line x circle matrices, so their
# memory grows like the line alone: one whole block is 7-12% faster, but takes
# a 1 x 1 call's peak from 3.2 to 16 MiB at N = 40 and from 4.6 to 37 MiB at
# N = 100 (tracemalloc)
_CIRCLE_BLOCK = 64
# the constants of kernel_n_contour's circle rule (_graded_circle): the error
# of its clustered share falls like e^{-_CIRCLE_DECAY}, and its uniform share
# has _CIRCLE_SPREAD + _CIRCLE_GROWTH max(r - 1, 0) R nodes.  Against a uniform
# rule of 120 N nodes, K to 1e-13 of itself needs up to 32 uniform nodes at
# r = 1 (x = 0.01), 96 at (40,2,0) and 192 at (40,3,0), with a decay of 30.
# Reach bucket m refines that rule by _CIRCLE_REACH (m - 1) R nodes: against
# the same uniform rule, in longdouble, on every pair the double contour
# returns, 16 R bring buckets 2 and 3 to 3e-12 of sqrt(K(x,x) K(y,y)) and
# 24 R bucket 4 to 6.4e-12 (Laguerre N = 10 and 40, (10,2,0), (10,3,0),
# (10,1,1), (10,2,1); 8 R left bucket 4 at 3e-10, 12 R at 1.2e-11)
_CIRCLE_DECAY = 36.0
_CIRCLE_SPREAD = 32.0
_CIRCLE_GROWTH = 5.0
_CIRCLE_REACH = 24.0
# settling tolerance of the float64 ln-x trapezoid grid, on the trace
# ∫ K_N(x, x) dx = N.  The float64 Gram entries do not settle: at x = 8,
# where q_matrix leaves the -1/2 line, that line has lost up to 2.3e-9 of
# Q_l to cancellation, and the trapezoid error of a jump falls only like h.
_TRACE_TOL = 1e-9
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


class PdfValue(NamedTuple):
    log_abs: float
    sign: int


@dataclass(frozen=True)
class CorrelationResult:
    points: tuple[float, ...]
    rho_k: float


def c_l(params: EnsembleParams, l: int) -> float:
    """Biorthogonality constant (-1)^l Π_j Γ(ν_j+l+1) Π_p Γ(μ_p+N-l), ν_0 := 0.

    A constant beyond the float64 range (from N ~ 100) raises NonConvergent.
    """
    return (-1.0) ** l * _exp_float64(f"C_{l}", _log_abs_c(params, l), params)


def _exp_float64(what: str, log_abs: float, params: EnsembleParams) -> float:
    """e^log_abs; NonConvergent, naming `what`, where it leaves float64."""
    if log_abs > _LOG_FLOAT_MAX:
        raise NonConvergent(f"{what} = e^{log_abs:.0f} overflows float64 at N = {params.N}")
    return math.exp(log_abs)


def _log_abs_c(params: EnsembleParams, l: int) -> float:
    if not 0 <= l <= params.N - 1:
        raise DomainError(f"l must lie in 0..N-1, got {l}")
    # the gamma product of _log_gammas at u = -(l+1)
    shared = [math.lgamma(nu + l + 1) for nu in params.nu] + [math.lgamma(mu + params.N - l) for mu in params.mu]
    return math.lgamma(l + 1) + sum(shared)


# Each gamma product below is one ln_gamma call on its factors' arguments
# stacked (ln_gamma is elementwise); sum(rows, 0.0) then adds the rows in
# order, as a call a factor did.


def _shared_args(params: EnsembleParams, u) -> list:
    """The arguments ν_j - u, j >= 1, and 1 + μ_p + N + u of the gammas that
    every Q_l row carries whole."""
    return [nu - u for nu in params.nu] + [1.0 + mu + params.N + u for mu in params.mu]


def _log_gammas(params: EnsembleParams, u):
    """ln Γ(-u) Π_j Γ(ν_j - u) Π_p Γ(1 + μ_p + N + u), ν_0 = 0: the gamma
    product of the Q_l lines, in the precision of u."""
    lg = ln_gamma(np.stack([-u] + _shared_args(params, u)))
    return lg[0] + sum(lg[1:], 0.0)


def _log_shared_gammas(params: EnsembleParams, u):
    """ln Π_{j>=1} Γ(ν_j - u) Π_p Γ(1 + μ_p + N + u): the factors of the
    gamma product that every Q_l row carries whole."""
    return sum(ln_gamma(np.stack(_shared_args(params, u))), 0.0)


def _log_circle_g(params: EnsembleParams, t):
    """ln G(t) of the double contour's circle: ln Γ(t - N + 1) less the
    gamma product of _log_gammas at u = -t - 1."""
    u = -t - 1.0
    lg = ln_gamma(np.stack([t - params.N + 1.0, -u] + _shared_args(params, u)))
    return lg[0] - (lg[1] + sum(lg[2:], 0.0))


def _q_log_rows(params: EnsembleParams, u: np.ndarray) -> np.ndarray:
    """ln(|C_l| F_l(u)), rows l = 0..N-1, of the Q_l lines: the gamma product
    with Γ(-u) replaced by Γ(-u)/Γ(-l-u) = (-u-1)(-u-2)...(-u-l), whose logs
    one cumsum gives.  A row may differ from the log-gamma form by a
    multiple of 2πi, which neither e^{row} nor its real part sees."""
    steps = np.log(-u - np.arange(1, params.N)[:, None])
    ratio = np.concatenate([np.zeros((1, len(u)), dtype=steps.dtype), np.cumsum(steps, axis=0)])
    return _log_shared_gammas(params, u) + ratio


def _p_log_prefactor(params: EnsembleParams, n: int) -> float:
    total = 0.0
    for nu in params.nu:
        total += math.lgamma(nu + n + 1) - math.lgamma(nu + 1)
    for mu in params.mu:
        total += math.lgamma(mu + params.N - n) - math.lgamma(mu + params.N)
    return total


def _p_rows(params: EnsembleParams, degrees, x: np.ndarray) -> np.ndarray:
    """P_n(x), one row per degree n of the ascending `degrees`: (-1)^n
    e^{_p_log_prefactor} times the terminating series

        Σ_k Π_i (a_i)_k / (k! Π_j (1 + ν_j)_k) ((-1)^s x)^k,  a = (-n, 1 - μ_p - N),

    summed for every degree at once in specfun.pfq's float operations and
    order, so each row is bit for bit pfq's: n + 1 terms.  A prefactor or
    value beyond the float64 range raises NonConvergent, naming the least
    such degree, as one p_n call a degree would."""
    ns, flat = np.asarray(degrees), x.ravel()
    log_pref = [_p_log_prefactor(params, int(n)) for n in ns]
    pref = np.array([(-1.0) ** int(n) * (math.exp(v) if v <= _LOG_FLOAT_MAX else math.inf)
                     for n, v in zip(ns, log_pref)])
    upper, lower = [1.0 - mu - params.N for mu in params.mu], [1.0 + nu for nu in params.nu]
    z = flat * (-1.0) ** params.s
    term = np.ones((len(ns), len(flat)))
    total = term.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(int(np.max(ns, initial=0))):
            live = int(np.searchsorted(ns, k, side="right"))  # the rows of degree n > k
            num = -ns[live:].astype(float) + k
            for a in upper:
                num = num * (a + k)
            den = float(k + 1)
            for b in lower:
                den *= b + k
            term[live:] = term[live:] * (num / den)[:, None] * z
            total[live:] = total[live:] + term[live:]
        value = pref[:, None] * total
    bad = ~np.isfinite(value)
    over = np.array(log_pref) > _LOG_FLOAT_MAX
    if np.any(bad) or np.any(over):
        row = int(np.argmax(over | np.any(bad, axis=1)))
        _exp_float64(f"the P_{ns[row]} prefactor", log_pref[row], params)  # raises if it is the prefactor
        raise NonConvergent(f"P_{ns[row]} is not finite at x = {flat[bad[row]][0]:g}: "
                            f"its series overflows float64 (N = {params.N})")
    return value.reshape((len(ns),) + x.shape)


def p_n(params: EnsembleParams, n: int, x):
    """Monic biorthogonal polynomial of degree n (terminating series form);
    a prefactor or value beyond the float64 range raises NonConvergent.  At
    n = N with some μ_p = 0 the prefactor's Γ(μ_p + N - n) is at its pole,
    which raises DomainError."""
    if not 0 <= n <= params.N:
        raise DomainError(f"n must lie in 0..N, got {n}")
    if n == params.N and 0 in params.mu:
        raise DomainError(f"P_{n} is undefined at mu = {params.mu}: Gamma(mu_p + N - n) has a pole at mu_p = 0")
    x = np.asarray(x, dtype=float)
    value = _p_rows(params, [n], x)[0]
    return float(value) if x.ndim == 0 else value


class ContourData(NamedTuple):
    """The point-free parts of kernel_n_contour for one parameter set and
    reach bucket."""

    line: MellinLine  # F(u) on the upper half of Re u = -1/2
    tcirc: np.ndarray  # circle nodes t_j, tcirc[m - j] = conj(tcirc[j]) exactly
    log_g: np.ndarray  # ln G(t_j)
    weight: np.ndarray  # trapezoid factors of dt/(2πi) at t_j
    # Σ_i |coeff_i| / |-u_i - 1 - t_j|, the line's share of the unsigned
    # mass at t_j; None where the line's coefficients overflow
    mass: np.ndarray | None


def _graded_circle(radius: float, r: int, bucket: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes e^{iθ_j} of the unit circle and the factors of dt/(2πi) at
    t_j = center + radius e^{iθ_j}: the trapezoid rule in φ, φ_j = 2πj/m,
    under the map θ(φ) that inverts

        φ = a θ + (1 - a) arctan(tan θ / κ),   κ = sqrt(2 · gap / radius),

    gap = 1/4, the distance from the circle to the poles t = 0 and N - 1
    and to the line.  The arctan share puts a Möbius-type cluster of width
    κ at θ = 0 and θ = π: a pole at distance δ along the circle and gap +
    radius δ²/2 off it (the line's Cauchy poles -u - 1; the row of poles
    of G inward) then lies at least κ/2 from the real φ axis, so that
    share's error falls like e^{-m_T κ / 2} with m_T = 2 _CIRCLE_DECAY / κ
    nodes, about 72 sqrt(N); a uniform rule needs m ∝ N.  The uniform
    share a keeps the middle of the circle resolved, where the circle
    terms x^t G(t) grow with r and radius.  Points with |ln x| up to
    bucket _LINE_REACH, where x^t = x^center e^{radius ln x e^{iθ}} varies
    like e^{radius |ln x|}, take the same map at _CIRCLE_REACH (bucket - 1)
    radius more nodes; a wider uniform share in their place needed some
    2.5 times as many.  The nodes are exact conjugate mirrors, node m - j
    of node j, with θ = 0 and π exactly real.
    """
    kappa = min(1.0, math.sqrt(0.5 / radius))  # at N = 1 (radius 1/4) a uniform rule
    clustered = 2.0 * _CIRCLE_DECAY / kappa
    m = 2 * math.ceil(0.5 * (clustered + _CIRCLE_SPREAD + _CIRCLE_GROWTH * max(r - 1, 0) * radius))
    share = 1.0 - clustered / m
    m += 2 * math.ceil(0.5 * _CIRCLE_REACH * (bucket - 1) * radius)

    def dphi(theta):  # dφ/dθ
        return share + (1.0 - share) * kappa / ((kappa * np.cos(theta)) ** 2 + np.sin(theta) ** 2)

    # θ_j on the upper half circle by bisection (φ(θ) increases from 0 to π)
    phi = 2.0 * math.pi * np.arange(1, m // 2) / m
    lo, hi = np.zeros_like(phi), np.full_like(phi, math.pi)
    for _ in range(53):
        mid = 0.5 * (lo + hi)
        below = share * mid + (1.0 - share) * np.arctan2(np.sin(mid), kappa * np.cos(mid)) < phi
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    theta = 0.5 * (lo + hi)
    upper = np.exp(1j * theta)
    turn = np.concatenate([[1.0], upper, [-1.0], np.conj(upper[::-1])])
    step, inner = 1.0 / dphi(np.array([0.0])), 1.0 / dphi(theta)  # dθ/dφ, the same at θ = 0 and π
    return turn, turn * np.concatenate([step, inner, step, inner[::-1]]) * (radius / m)


class BiorthSystem:
    """Precomputed contour data for the Q_l family and kernel sums.

    Q_l(x) = Re Σ_i coeff[l, i] x^{u_i} along a vertical line inside the
    fundamental strip, with the 1/|C_l| normalization folded into the node
    coefficients.  The abscissa moves with the evaluation regime: -1/2 for
    x <= 8 ("mid", the convention used by all cross-checks); beyond, just
    right of the first left pole at -(N + min mu + 1) when s >= 1 ("deep":
    the algebraic tail sits at the answer's own magnitude), and through the
    real saddle at -x^{1/r} when s = 0 (one line per bucket of ln x).  Each
    line is specfun.trapezoid_line, settled at probes spanning its x range.
    Its rows share r + s log-gammas a node; Γ(-u)/Γ(-l-u) is the product
    (-u-1)...(-u-l), whose logs one cumsum gives (`_q_log_rows`).

    The working precision follows the points given to q_matrix: longdouble
    points are evaluated in extended precision (specfun.ln_gamma follows
    the dtype of its argument, and specfun.line_tol scales the tolerance by
    the dtype's epsilon), which the Gram matrix needs; any other points in
    float64.  A parameter set has one accuracy, so `biorth_system` caches
    on the parameters alone.  Each line is built on first use, once per
    (regime, dtype), and so are kernel_n_contour's circle and line, once
    per reach bucket (`contour`): construction computes only ln |C_l| and
    cannot raise.  q_matrix and p_matrix, the sum route, raise
    NonConvergent if a C_l is beyond the float64 range (the Q rows carry
    1/|C_l|, and P_l's prefactor is a factor of C_l).
    """

    def __init__(self, params: EnsembleParams):
        self.params = params
        self.log_abs_C = np.array([_log_abs_c(params, l) for l in range(params.N)])
        self._lines: dict[tuple, MellinLine] = {}
        self._contours: dict[int, ContourData] = {}

    def contour(self, reach: float) -> ContourData:
        """kernel_n_contour's outer line and circle for points p with
        |ln p| <= reach, built on first use, one per reach bucket m =
        max(1, ceil(reach / _LINE_REACH)).

        F is the Q lines' gamma product with l = N, unnormalised, on the
        upper half of Re u = -1/2 up to the end-decay height; G(t) =
        Γ(t - N + 1) over that product at u = -t - 1, on a circle around
        t = 0..N-1 (center (N-1)/2, radius N/2 - 1/4) at least 1/4 from the
        line.  The circle's nodes are graded (`_graded_circle`): densest at
        t = -1/4 and N - 3/4, where it passes the poles t = 0 and N - 1 and
        the line's Cauchy poles, 1/4 away, and refined as m grows.  The
        line's Gauss-Legendre panels are graded too (specfun.graded_edges,
        to line_tol), by the Cauchy poles u = -1 - t_j and F's nearest
        pole, u = min ν: narrow next to the real axis, where both come
        within 1/4 and 1/2 of the line, and 2/m wide above.  Its few nodes
        each carry much of the sum, so its coefficients are formed from a
        longdouble ln F, which keeps the rounding of F at eps (a float64
        ln F of a few hundred carries some 1e-13).  One node of each panel
        is check_mirror's.
        """
        bucket = max(1, math.ceil(reach / _LINE_REACH))
        if bucket in self._contours:
            return self._contours[bucket]
        p, N = self.params, self.params.N
        radius = 0.5 * N - 0.25
        turn, weight = _graded_circle(radius, p.r, bucket)
        tcirc = 0.5 * (N - 1) + radius * turn
        # ln G in longdouble beyond bucket 1, rounded once: there the circle's
        # largest terms x^{-1/4} |G| outgrow K, and the float64 ln G's rounding
        # with them (Laguerre x = y = 2e-12: 1.7e-10 off, 2.8e-11 in longdouble
        # at N = 40).  Bucket 1 keeps a float64 ln G, 0.4-0.5 ms a circle where
        # the longdouble one takes 2-3 ms, about as long as the rest of a build
        t = tcirc if bucket == 1 else tcirc.astype(np.clongdouble)
        log_g = _log_circle_g(p, t).astype(complex)

        def log_f(u):  # Γ(-u)/Γ(-N-u) = (-u-1)...(-u-N), as in _q_log_rows; it overflows only where F does
            u = u.astype(np.clongdouble)  # whatever the dtype of the nodes
            ratio = np.ones(len(u), dtype=np.clongdouble)
            for k in range(1, N + 1):
                ratio *= -u - k
            return _log_shared_gammas(p, u) + np.log(ratio)

        # the poles in τ = (u + 1/2)/i: u = -1 - t_j and u = min ν
        poles = np.append(1j * (tcirc + 0.5), -1j * (min(p.nu) + 0.5))
        edges = graded_edges(end_decay_height(log_f, _Q_ABSCISSA), poles, line_tol(np.float64), bucket)
        line = gl_line(log_f, _Q_ABSCISSA, edges)
        mass = None
        if line.coeff is not None:
            # Σ_i |coeff_i| / |-u_i - 1 - t_j| in blocks of circle nodes, as the circle sums
            pole, coeff = -line.u - 1.0, np.abs(line.coeff[0])
            mass = np.concatenate([coeff @ (1.0 / np.abs(pole[:, None] - tcirc[None, lo : lo + _CIRCLE_BLOCK]))
                                   for lo in range(0, len(tcirc), _CIRCLE_BLOCK)])
        data = self._contours[bucket] = ContourData(line, tcirc, log_g, weight, mass)
        return data

    def _geometry(self, regime):
        """Abscissa and probe points of a regime's line."""
        p = self.params
        if regime == "mid":  # down to the origin cut's floor
            return _Q_ABSCISSA, (1e-28, 1e-17, 1e-6, 1.0, _X_DEEP)
        if regime == "deep":  # s >= 1: half a unit right of the first left pole
            return -(p.N + min(p.mu) + 0.5), (_X_DEEP, 1e6, 1e18)
        # s = 0: through the saddle of the bucket whose ln x is `regime`
        return -max(0.5, math.exp(regime) ** (1.0 / p.r)), tuple(math.exp(regime + d) for d in (-0.125, 0.0, 0.125))

    def _line(self, regime, dtype) -> MellinLine:
        """The line of a regime in a working precision, built on first use:
        rows ln F_l = _q_log_rows - ln |C_l|, with |C_l| in that precision."""
        if (regime, dtype) in self._lines:
            return self._lines[(regime, dtype)]
        p = self.params
        ls = np.arange(p.N)
        # |C_l| is the gamma product at u = -(l+1)
        log_abs_C = self.log_abs_C if dtype == np.float64 else np.real(_log_gammas(p, -(ls + 1).astype(dtype)))

        def log_f(u):
            return _q_log_rows(p, u) - log_abs_C[:, None]

        line = self._lines[(regime, dtype)] = trapezoid_line(log_f, *self._geometry(regime), dtype)
        return line

    def _check_constants(self) -> None:
        over = self.log_abs_C > _LOG_FLOAT_MAX
        if np.any(over):
            c_l(self.params, int(np.argmax(over)))  # raises, naming the first such l

    def _eval_saddle_group(self, x: np.ndarray, out: np.ndarray, cols: np.ndarray) -> None:
        """s = 0 deep tail: lines through the saddle at -x^{1/r}, bucketed in ln x.

        Within a bucket (|Δ ln x| <= 1/8) the saddle offset costs only an
        O(1) magnitude factor, so one line serves the whole group.
        """
        sigma = self.params.r
        expo = sigma * x ** (1.0 / sigma)  # magnitude scale e^{-expo} at the saddle
        dead = expo > -np.log(np.finfo(x.dtype).tiny)  # below the dtype's underflow
        out[:, cols[dead]] = 0.0
        live = ~dead
        keys = np.round(4.0 * np.log(x[live])) / 4.0
        for key in np.unique(keys):
            sel = keys == key
            xs = x[live][sel]
            out[:, cols[live][sel]] = self._line(float(key), x.dtype.type).eval(xs)

    def q_matrix(self, x: np.ndarray) -> np.ndarray:
        """All Q_l (rows l = 0..N-1) on an array of positive points.

        Longdouble points give longdouble values; anything else float64.
        """
        self._check_constants()
        x = np.asarray(x)
        x = x.astype(np.longdouble if x.dtype == np.longdouble else np.float64, copy=False)
        out = np.empty((self.params.N, len(x)), dtype=x.dtype)
        high = x > _X_DEEP
        if not np.all(high):
            out[:, ~high] = self._line("mid", x.dtype.type).eval(x[~high])
        if np.any(high):
            if self.params.s >= 1:
                out[:, high] = self._line("deep", x.dtype.type).eval(x[high])
            else:
                self._eval_saddle_group(x[high], out, np.nonzero(high)[0])
        return out

    def p_matrix(self, x: np.ndarray) -> np.ndarray:
        """All P_n (rows n = 0..N-1) on an array of points."""
        self._check_constants()
        return _p_rows(self.params, np.arange(self.params.N), np.asarray(x, dtype=float))

    def kernel_matrix(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """K_N(x_i, y_j) = Σ_l P_l(x_i) Q_l(y_j)."""
        return self.p_matrix(np.asarray(xs, float)).T @ self.q_matrix(np.asarray(ys, float))


@lru_cache(maxsize=32)
def biorth_system(params: EnsembleParams) -> BiorthSystem:
    return BiorthSystem(params)


def q_l(params: EnsembleParams, l: int, x):
    """Biorthogonal partner function Q_l: the Meijer G of q_l_meijer_spec over |C_l|."""
    if not 0 <= l <= params.N - 1:
        raise DomainError(f"l must lie in 0..N-1, got {l}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr <= 0):
        raise DomainError("q_l requires x > 0")
    vals = biorth_system(params).q_matrix(x_arr)[l]
    return float(vals[0]) if np.ndim(x) == 0 else vals


def q_l_meijer_spec(params: EnsembleParams, l: int) -> MeijerSpec:
    """The G^{r+1,s}_{s+1,r+1} spec underlying Q_l (for cross-checks)."""
    a = tuple(-(mu + params.N) for mu in params.mu) + (-float(l),)
    b = (0.0,) + tuple(float(v) for v in params.nu)
    return MeijerSpec(m=params.r + 1, n=params.s, p=params.s + 1, q=params.r + 1, a=a, b=b)


def kernel_n(params: EnsembleParams, x: float, y: float) -> KernelEval:
    """Correlation kernel by the biorthogonal sum Σ_{l<N} P_l(x) Q_l(y)."""
    if not (math.isfinite(x) and math.isfinite(y) and x > 0 and y > 0):
        raise DomainError("kernel_n requires finite x, y > 0")
    sys = biorth_system(params)
    val = float(sys.kernel_matrix(np.array([x]), np.array([y]))[0, 0])
    return KernelEval(x=x, y=y, value=val, method="biorth_sum")


def _contour_pairs(params: EnsembleParams, pts: np.ndarray, ix, iy) -> tuple[np.ndarray, np.ndarray]:
    """K(pts[ix], pts[iy]) = (1/2π) ∫ F(u) y^u (1/2πi) ∮ G(t) x^t / (-u - 1 - t) dt du
    for pairs that include every (p, p).

    The line and circle are BiorthSystem.contour, built once per parameter
    set and reach bucket (the bucket follows the largest |ln p|); a call forms
    the circle sums C(u_i, x) and y^{u_i} once per distinct point, on the
    upper half line only: the circle is mirror-symmetric and G conjugate on
    it, so C(conj u, x) = conj C(u, x), as MellinLine.contract needs.  One
    contract takes C(u_i, x) y^{u_i} for every pair.  Alongside the values it
    returns the log of each pair's node-wise mass Σ_i |coeff_i| Σ_j |g_j(x)| /
    |-u_i - 1 - t_j|, which is |g(x)| @ ContourData.mass, for kernel_pairs'
    loss rule.  A line whose coefficients overflow raises before any circle sum.
    """
    log_pts = np.log(pts)
    line, tcirc, log_g, weight, mass = biorth_system(params).contour(float(np.max(np.abs(log_pts))))
    if mass is None:  # as contract would raise, after the circle sums
        raise NonConvergent("Mellin-Barnes line coefficients overflow")
    g = np.exp(log_pts[:, None] * tcirc + log_g) * weight  # rows: points

    # circle sums, by blocks of circle nodes
    pole = -line.u - 1.0  # of the Cauchy factor, in t
    circ = np.zeros((len(pole), len(pts)), dtype=complex)
    for lo in range(0, len(tcirc), _CIRCLE_BLOCK):
        cauchy = pole[:, None] - tcirc[None, lo : lo + _CIRCLE_BLOCK]
        np.reciprocal(cauchy, out=cauchy)  # in place: this division is most of a 1 x 1 call
        circ += cauchy @ g[:, lo : lo + _CIRCLE_BLOCK].T

    y_u = line._x_power(log_pts)
    vals = line.contract(lambda sl: circ[:, ix[sl]] * y_u[:, iy[sl]], len(ix))[0]
    with np.errstate(divide="ignore"):  # a circle factor may underflow whole
        log_mass = np.log(np.abs(g) @ mass)  # per point x, without y^{-1/2}
    return vals, (_Q_ABSCISSA * log_pts)[iy] + log_mass[ix]


def kernel_n_contour_grid(params: EnsembleParams, xs, ys) -> np.ndarray:
    """The double-contour kernel K_N(x_i, y_j) on a grid, rows x_i (see _contour_pairs)."""
    return kernel_pairs("double contour", partial(_contour_pairs, params), *np.ix_(xs, ys))


def kernel_n_contour(params: EnsembleParams, x: float, y: float) -> KernelEval:
    """The double-contour kernel at one point: a 1 x 1 kernel_n_contour_grid."""
    value = float(kernel_n_contour_grid(params, [x], [y])[0, 0])
    return KernelEval(x=x, y=y, value=value, method="double_contour")


def rho_k(params: EnsembleParams, points) -> CorrelationResult:
    """k-point correlation det[K_N(x_i, x_j)] by the double contour, for distinct positive points."""
    pts = tuple(float(p) for p in points)
    if len(pts) > params.N:
        raise DomainError("k cannot exceed N")
    if len(set(pts)) != len(pts):
        raise DomainError("points must be distinct")
    kmat = kernel_n_contour_grid(params, pts, pts)
    return CorrelationResult(points=pts, rho_k=float(np.linalg.det(kmat)))


def normalization_constant(params: EnsembleParams) -> float:
    """log of 1/(N! Π_l |C_l|); the sign Π_l sgn C_l = (-1)^{N(N-1)/2} is
    carried by the ordered Vandermonde-times-determinant in pdf_box."""
    total = -math.lgamma(params.N + 1)
    for l in range(params.N):
        total -= _log_abs_c(params, l)
    return total


def charpoly_exact(params: EnsembleParams, lam: float, normalized: bool = False) -> float:
    """Averaged generalized characteristic polynomial (terminating series).

    normalized=True strips the constant-term prefactor (coefficient of
    lambda^0 becomes one), the form whose hard-edge limit is 0Fr.  A prefactor
    or value beyond the float64 range raises NonConvergent.
    """
    upper = (-float(params.N),) + tuple(-float(mu + params.N) for mu in params.mu)
    lower = tuple(1.0 + nu for nu in params.nu)
    series = pfq(HypSeriesParams.of(upper, lower), (-1.0) ** params.s * lam)
    if normalized:
        return float(series)
    log_pref = sum(
        math.lgamma(nu + 1 + params.N) - math.lgamma(nu + 1) for nu in params.nu
    )
    value = float((-1.0) ** params.N * _exp_float64("the charpoly prefactor", log_pref, params) * series)
    if not math.isfinite(value):
        raise NonConvergent(f"the charpoly value overflows float64 at N = {params.N}")
    return value


def _box_matrix(params: EnsembleParams, points: np.ndarray, form: str) -> np.ndarray:
    N, r, s = params.N, params.r, params.s
    mat = np.empty((N, len(points)))
    for j in range(1, N + 1):
        if form == "box":
            a = tuple(
                -(params.mu[i] + N + (j - 1 if i == 0 else 0)) for i in range(s)
            )
            b = tuple(float(v) for v in params.nu)
        else:  # box1: row shift on the first bottom parameter
            a = tuple(-(mu + N) for mu in params.mu)
            b = (float(params.nu[0] + j - 1),) + tuple(float(v) for v in params.nu[1:])
        spec = MeijerSpec(m=r, n=s, p=s, q=r, a=a, b=b)
        contour = ContourSpec.auto(spec)
        mat[j - 1] = np.atleast_1d(meijer_g(spec, contour, points))
    return mat


def pdf_box(params: EnsembleParams, points, form: str = "box") -> PdfValue:
    """Unnormalized joint eigenvalue PDF (log scale with sign).

    form='box' is the determinant with the row shift on the first upper
    parameter (needs s >= 1); form='box1' shifts the first lower parameter
    (needs r >= 1).  The sign is oriented so that
    sign * exp(log_abs + normalization_constant) is the PDF for the box
    form (the Pi C_l product is negative when N = 2, 3 mod 4).
    """
    if form not in ("box", "box1"):
        raise DomainError(f"unknown form {form!r}")
    if form == "box" and params.s < 1:
        raise DomainError("box form requires s >= 1")
    if form == "box1" and params.r < 1:
        raise DomainError("box1 form requires r >= 1")
    pts = np.asarray(points, dtype=float)
    if len(pts) != params.N:
        raise DomainError("need exactly N points")
    if np.any(pts <= 0) or len(set(pts.tolist())) != params.N:
        raise DomainError("points must be distinct and positive")
    vlog = 0.0
    vsign = 1.0
    for j in range(len(pts)):
        for k in range(j + 1, len(pts)):
            d = pts[k] - pts[j]
            vlog += math.log(abs(d))
            vsign *= math.copysign(1.0, d)
    mat = _box_matrix(params, pts, form)
    sign_det, log_det = np.linalg.slogdet(mat)
    if sign_det == 0:
        raise DomainError("singular determinant in pdf_box")
    orient = (-1.0) ** (params.N * (params.N - 1) // 2)  # sign of Pi_l sgn C_l
    return PdfValue(log_abs=vlog + float(log_det), sign=int(round(vsign * sign_det * orient)))


def _support_cut(params: EnsembleParams, sys: BiorthSystem) -> float:
    """Upper cutoff beyond which the remaining x^{N-1} Q_l mass is < ~1e-11."""
    N = params.N
    if params.s == 0:
        sigma = params.r
        x = 50.0
        while sigma * x ** (1.0 / sigma) - (N + 1) * math.log(x) < 45.0:
            x *= 1.6
        return x
    # algebraic tail ~ x^{-(mu_min+2)} after the x^{N-1} weight: probe it
    x = 1e4
    while x < 1e18:
        probe = np.array([x])
        mass = np.max(np.abs(sys.p_matrix(probe)[N - 1, 0] * sys.q_matrix(probe)[:, 0]))
        if mass * x * 2.0 / (min(params.mu) + 1.0) < 1e-11:
            return x
        x *= 10.0
    return x


def _origin_cut(params: EnsembleParams) -> float:
    """Lower cutoff: the stub (0, lo) carries |P_n(0)| * O(lo log^2 lo) mass."""
    log10_p0 = max(
        abs(_p_log_prefactor(params, n)) for n in range(params.N)
    ) / math.log(10.0)
    return max(1e-28, 10.0 ** -(16.0 + log10_p0))


def pq_trapezoid(params: EnsembleParams, lo: float, hi: float, p_matrix, settle, tol: float, dtype=np.float64):
    """Nodes, weights, P and Q on the ln-x trapezoid grid over [lo, hi] on
    which every integral of settle(P, Q) has settled to tol, in `dtype`;
    p_matrix gives the P rows in that dtype."""
    sys, N = biorth_system(params), params.N
    # Q rows first: q_matrix raises at once where a C_l leaves the float64 range
    nodes, weights, qp = ln_trapezoid(lambda x: np.concatenate([sys.q_matrix(x), p_matrix(x)]),
                                      lambda qp: settle(qp[N:], qp[:N]), lo, hi, tol, dtype)
    return nodes, weights, qp[N:], qp[:N]


@lru_cache(maxsize=16)
def _biorth_quadrature(params: EnsembleParams):
    """Nodes, weights, P and Q in float64, on the grid on which the trace
    ∫ Σ_l P_l Q_l dx has settled to _TRACE_TOL."""
    sys = biorth_system(params)
    return pq_trapezoid(params, _origin_cut(params), _support_cut(params, sys), sys.p_matrix,
                        lambda p, q: np.einsum("li,li->i", p, q), _TRACE_TOL)


@lru_cache(maxsize=16)
def _biorth_gram(params: EnsembleParams) -> np.ndarray:
    sys = biorth_system(params)
    return _hiprec.gram_matrix(params, _origin_cut(params), _support_cut(params, sys))


def biorth_matrix(params: EnsembleParams) -> np.ndarray:
    """Gram matrix ∫_0^∞ P_n Q_l dx for 0 <= n, l <= N-1 (identity if exact).

    The polynomial lobes cancel masses of order 1e7 at N = 6, so P_n and
    Q_l are evaluated in longdouble (exact rational P coefficients, the
    BiorthSystem lines in extended precision).  The accuracy is set by that
    precision and by the grid: the trapezoid rule in t = ln x over
    (lo, X_cut), with the step halved until every entry has settled to
    _hiprec.GRAM_TOL, and the cuts placed where the remaining integrand mass
    is below ~1e-11.
    """
    return _biorth_gram(params).copy()


def kernel_trace(params: EnsembleParams) -> float:
    """∫_0^∞ K_N(x, x) dx; equals N for a rank-N projection kernel."""
    _, weights, p_mat, q_mat = _biorth_quadrature(params)
    return float(weights @ np.einsum("li,li->i", p_mat, q_mat))


def kernel_reproduce(params: EnsembleParams, x: float, y: float) -> float:
    """∫_0^∞ K_N(x, t) K_N(t, y) dt (equals K_N(x, y) by the projection property)."""
    _, weights, p_mat, q_mat = _biorth_quadrature(params)
    sys = biorth_system(params)
    left = sys.p_matrix(np.array([x]))[:, 0] @ q_mat  # K(x, t_i)
    right = p_mat.T @ sys.q_matrix(np.array([y]))[:, 0]  # K(t_i, y)
    return float(weights @ (left * right))
