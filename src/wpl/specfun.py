"""Scalar special-function kernel.

Complex log-gamma (one shifted Stirling series, in the precision of its
argument: complex128 or clongdouble), generalized hypergeometric series,
Meijer G-functions by numerical Mellin-Barnes integration, and Bessel J.
Everything downstream is evaluated pointwise through these routines; all
of them accept scalars or numpy arrays and are pure/reentrant.

Convention (normative for the whole package): the Meijer G-function is the
Mellin-Barnes integral

    G^{m,n}_{p,q}(x | a; b)
      = (1/2πi) ∫_C  Π_{j<=m} Γ(b_j - s) Π_{j<=n} Γ(1 - a_j + s)
                    ---------------------------------------------  x^s ds
        Π_{j>m} Γ(1 - b_j + s) Π_{j>n} Γ(a_j - s)

with the contour C separating the poles of the Γ(b_j - s) (at s = b_j + k,
"right" set) from those of the Γ(1 - a_j + s) (at s = a_j - 1 - k, "left"
set).  Many references use the mirrored integrand Γ(b_j + s) x^{-s}; the two
define the same function, but every formula in this package is written in
the x^s convention above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    ContourViolation,
    DivergentSeries,
    DomainError,
    InternalImaginaryResidue,
    LowerParamPole,
    NonConvergent,
    PoleError,
)

# A "ComplexValue" throughout the package is a plain Python complex /
# numpy complex128; no wrapper type is needed.

# float64 accuracy target of a Mellin-Barnes line: its absolute error, its
# settling tolerance and 1e-3 of its mirror check's allowance (see line_tol)
_TOL = 1e-12
# the one Gauss-Legendre rule of the Mellin lines (gl_line): on a width-2
# panel its n = _LINE_ORDER nodes integrate the x^{iτ} oscillation e^{iωτ}
# to the line tolerance for ω up to about n / 1.9, so panels of width 2/m
# serve points with |ln x| <= m _LINE_REACH, reach bucket m (graded_edges)
_LINE_ORDER = 16
_LINE_REACH = _LINE_ORDER / 1.9
_GL_RULE = np.polynomial.legendre.leggauss(_LINE_ORDER)
_PFQ_TOL = 1e-15
_PFQ_MAX_TERMS = 100_000
# parsed in the working dtype, so longdouble gets all of its digits
_PI_DIGITS = "3.14159265358979323846264338327950288420"


def pi_in(dtype):
    """π to the full precision of a numpy float dtype."""
    return np.dtype(dtype).type(_PI_DIGITS)


# B_{2j} / (2j (2j - 1)), j = 1..11: Stirling's series for ln Γ(z) is
# (z - 1/2) ln z - z + ln sqrt(2π) + Σ_j these / z^{2j - 1}
_STIRLING = (
    Fraction(1, 12),
    Fraction(-1, 360),
    Fraction(1, 1260),
    Fraction(-1, 1680),
    Fraction(1, 1188),
    Fraction(-691, 360360),
    Fraction(1, 156),
    Fraction(-3617, 122400),
    Fraction(43867, 244188),
    Fraction(-174611, 125400),
    Fraction(854513, 63756),
)
# per working precision: the cut |z| >= cut at which the series is summed,
# its terms, rounded once from _STIRLING, and ln sqrt(2π).  The first term
# dropped is below 1e-17 (float64) and 1e-26 (longdouble) at the cut;
# against 40-digit mpmath, ln_gamma is within 3.1 and 7.5 eps max(8, |ln Γ|)
# on the lines Re z = 1/2, 3/2, 7/2, -1/2, -21/2, -199/2 to |Im z| = 120
_STIRLING_RULE = {
    np.dtype(t): (t(cut), tuple(t(c.numerator) / t(c.denominator) for c in _STIRLING[:terms]),
                  np.log(2 * pi_in(t)) / 2)
    for t, cut, terms in ((np.float64, 8, 10), (np.longdouble, 17, 11))
}


def _log_sin_pi(z: np.ndarray, pi) -> np.ndarray:
    """log(sin(pi z)), overflow-safe for large |Im z|, continued along each
    horizontal line from Re z = 1/2 (where it is principal), and from
    above on the real axis.  sin(πz) = (i/2) e^{-iπz} (1 - e^{2iπz})
    for Im z >= 0, where |e^{2iπz}| <= 1 keeps the last factor's arg in
    (-π/2, π/2)."""
    y = np.imag(z)
    zz = np.where(y >= 0, z, np.conj(z))
    w = np.exp(2j * pi * zz)  # |w| <= 1
    re = pi * np.abs(y) - np.log(type(pi)(2)) + np.log(np.abs(1.0 - w))
    im = pi / 2 - pi * np.real(zz) + np.angle(1.0 - w)
    out = re + 1j * im
    return np.where(y >= 0, out, np.conj(out))


def _ln_gamma_right(z: np.ndarray) -> np.ndarray:
    """ln Γ on Re z >= 0.5, in the precision of z: Stirling's series at z + n,
    the first multiple n of 4 that takes |z + n| to the dtype's cut, less
    ln z(z + 1)...(z + n - 1).  That product is taken as one log a quad
    (z + k)...(z + k + 3): its four factors have |arg| < π/2, all of the
    sign of Im z, so their args sum to within 2π of 0, and the principal
    log of the quad is one turn off exactly where its sign is not theirs."""
    cut, coeffs, log_root_2pi = _STIRLING_RULE[np.real(z).dtype]
    z = np.array(z)
    shift = np.zeros_like(z)
    near = np.abs(z) < cut
    if np.any(near):
        zk = z[near] + np.arange(0, cut - 0.5, 4)[:, None]  # the quads' first factors
        live = np.abs(zk) < cut  # a prefix of each column, as |z + k| grows with k
        p = zk * (zk + 3)  # the quad (z + k)(z + k + 1)(z + k + 2)(z + k + 3) is p (p + 2)
        log_quad = np.log(np.where(live, p * (p + 2), 1))
        y = np.sign(np.imag(z[near]))
        log_quad.imag += (2 * pi_in(y.dtype) * y) * (log_quad.imag * y < 0)
        shift[near] = -np.sum(log_quad, axis=0)
        z[near] += 4 * np.sum(live, axis=0)
    inv = 1 / z
    inv2 = inv * inv
    ser = coeffs[-1]
    for c in coeffs[-2::-1]:
        ser = ser * inv2 + c
    return shift + (z - 0.5) * np.log(z) - z + log_root_2pi + ser * inv


def ln_gamma(z):
    """Principal-branch complex log-gamma, in the precision of z.

    clongdouble (or longdouble) z gives clongdouble values, anything else,
    Python numbers included, complex128; a scalar gives a scalar.  The
    shifted Stirling series (`_ln_gamma_right`) on Re z >= 0.5; elsewhere the
    reflection Γ(z) Γ(1 - z) = π / sin(πz), whose log sin(πz), continued
    along the horizontal line through z (`_log_sin_pi`), keeps it on the
    principal branch.  Raises PoleError at nonpositive integers.
    """
    z_arr = np.asarray(z)
    z_arr = z_arr.astype(np.result_type(z_arr.dtype, np.complex128))
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)

    on_pole = (z_arr.imag == 0.0) & (z_arr.real <= 0.0) & (z_arr.real == np.floor(z_arr.real))
    if np.any(on_pole):
        raise PoleError(f"log-gamma pole at nonpositive integer {z_arr[on_pole][0]}")
    out = np.empty_like(z_arr)
    right = z_arr.real >= 0.5
    if np.any(right):
        out[right] = _ln_gamma_right(z_arr[right])
    if np.any(~right):
        zr = z_arr[~right]
        pi = pi_in(zr.real.dtype)
        out[~right] = np.log(pi) - _log_sin_pi(zr, pi) - _ln_gamma_right(1.0 - zr)
    return out[0] if scalar else out


def _real_gamma_sign(v: float) -> float:
    if v > 0:
        return 1.0
    return 1.0 if math.sin(math.pi * v) >= 0 else -1.0


def _recip_gamma_real(v: float) -> float:
    """1/Gamma(v) for real v, zero at nonpositive integers."""
    if v <= 0 and v == math.floor(v):
        return 0.0
    # math.lgamma is ln|Gamma| for all non-pole reals.
    return _real_gamma_sign(v) * math.exp(-math.lgamma(v))


# --------------------------------------------------------------------------
# Generalized hypergeometric series
# --------------------------------------------------------------------------


def _nonpos_int(a: float) -> bool:
    return a <= 0 and a == math.floor(a)


@dataclass(frozen=True)
class HypSeriesParams:
    """Parameters of pFq: upper (a_1..a_p), lower (b_1..b_q).

    terminating_at is the polynomial degree when some upper parameter is a
    nonpositive integer -n; use HypSeriesParams.of() to detect it.
    """

    upper: tuple[float, ...]
    lower: tuple[float, ...]
    terminating_at: Optional[int] = None

    @classmethod
    def of(cls, upper, lower) -> "HypSeriesParams":
        upper = tuple(float(a) for a in upper)
        lower = tuple(float(b) for b in lower)
        terms = [int(-a) for a in upper if _nonpos_int(a)]
        n = min(terms) if terms else None
        params = cls(upper, lower, n)
        params.check()
        return params

    def check(self) -> None:
        for b in self.lower:
            if _nonpos_int(b):
                # (b)_k first vanishes at k = 1 - b; the series must stop before.
                if self.terminating_at is None or self.terminating_at > -b:
                    raise LowerParamPole(f"lower parameter {b} hits a factorial pole")


def pfq(params: HypSeriesParams, x):
    """Sum the series pFq(a; b; x) by term-ratio recurrence.

    Terminating series are summed exactly (terminating_at + 1 terms).
    Non-terminating series stop after three consecutive terms below
    _PFQ_TOL * |partial sum|; more than _PFQ_MAX_TERMS raises NonConvergent.
    """
    params.check()
    p_, q_ = len(params.upper), len(params.lower)
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr).astype(float)

    if params.terminating_at is None:
        if p_ > q_ + 1:
            raise DivergentSeries(f"{p_}F{q_} diverges for nonzero argument")
        if p_ == q_ + 1 and np.any(np.abs(x_arr) >= 1.0):
            raise DivergentSeries(f"{p_}F{q_} diverges for |x| >= 1")

    # the same float operations on Python floats for a scalar (numpy's
    # in-place operators cost about twice its binary ones on one element);
    # in place on arrays, with the stop test's |term| and bound in two buffers
    if scalar:
        z, term, total = float(x_arr[0]), 1.0, 1.0
    else:
        z, term, total = x_arr, np.ones_like(x_arr), np.ones_like(x_arr)
        size, scale = np.empty_like(x_arr), np.empty_like(x_arr)
    n_stop = params.terminating_at
    consecutive = 0
    k = 0
    while True:
        if n_stop is not None and k >= n_stop:
            break
        if k >= _PFQ_MAX_TERMS:
            raise NonConvergent(f"pFq did not converge within {_PFQ_MAX_TERMS} terms")
        num = 1.0
        for a in params.upper:
            num *= a + k
        den = float(k + 1)
        for b in params.lower:
            den *= b + k
        if den == 0.0:
            raise LowerParamPole(f"lower parameter pole at term {k + 1}")
        term *= num / den
        term *= z
        total += term
        k += 1
        if n_stop is None:
            if scalar:
                small = abs(term) <= _PFQ_TOL * max(abs(total), 1e-300)
            else:
                np.abs(term, out=size)
                np.maximum(np.abs(total, out=scale), 1e-300, out=scale)
                scale *= _PFQ_TOL
                small = (size <= scale).all()
            if small:
                consecutive += 1
                if consecutive >= 3:
                    break
            else:
                consecutive = 0
    return total


# --------------------------------------------------------------------------
# Meijer G by Mellin-Barnes integration
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MeijerSpec:
    """Orders (m, n, p, q) and parameter rows a (length p), b (length q)."""

    m: int
    n: int
    p: int
    q: int
    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self):
        if not (0 <= self.m <= self.q and 0 <= self.n <= self.p):
            raise ContourViolation(f"invalid orders m={self.m}, n={self.n}, p={self.p}, q={self.q}")
        if len(self.a) != self.p or len(self.b) != self.q:
            raise ContourViolation("parameter row lengths must match (p, q)")
        for ai in self.a[: self.n]:
            for bj in self.b[: self.m]:
                d = ai - bj
                if d >= 1 and d == math.floor(d):
                    raise ContourViolation(f"pole sets overlap: a={ai}, b={bj}")

    @property
    def right_pole_min(self) -> float:
        return min(self.b[: self.m]) if self.m else math.inf

    @property
    def left_pole_max(self) -> float:
        return max(self.a[: self.n]) - 1.0 if self.n else -math.inf

    @property
    def decay_exponent(self) -> float:
        """Vertical-line decay rate is exp(-pi/2 * decay_exponent * |t|)."""
        return 2.0 * (self.m + self.n) - (self.p + self.q)


@dataclass(frozen=True)
class ContourSpec:
    """Vertical Mellin-Barnes contour Re s = abscissa, |Im s| <= half_height.

    half_height is where meijer_line starts; the final height and the
    panels (graded_edges) follow from the absolute error target _TOL.
    """

    abscissa: float
    half_height: float

    def __post_init__(self):
        if self.half_height <= 0:
            raise ContourViolation("half_height must be positive")

    @classmethod
    def auto(cls, spec: MeijerSpec) -> "ContourSpec":
        """Midpoint-of-gap abscissa and a decay-based initial half-height."""
        lo, hi = spec.left_pole_max, spec.right_pole_min
        if lo >= hi:
            raise ContourViolation(f"no admissible vertical line: gap ({lo}, {hi}) empty")
        if math.isfinite(lo) and math.isfinite(hi):
            c = 0.5 * (lo + hi)
        elif math.isfinite(hi):
            c = hi - 0.5
        elif math.isfinite(lo):
            c = lo + 0.5
        else:
            c = 0.0
        kappa = 0.5 * math.pi * spec.decay_exponent
        if kappa > 0:
            height = max(10.0, (math.log(1.0 / _TOL) + 8.0) / kappa)
        else:
            height = 30.0
        return cls(abscissa=c, half_height=height)


def _validate_contour(spec: MeijerSpec, contour: ContourSpec) -> None:
    c = contour.abscissa
    if not (spec.left_pole_max < c < spec.right_pole_min):
        raise ContourViolation(
            f"abscissa {c} does not separate pole sets "
            f"({spec.left_pole_max}, {spec.right_pole_min})"
        )


def _mb_log_integrand(spec: MeijerSpec, s: np.ndarray) -> np.ndarray:
    """log of the gamma-ratio part of the Mellin-Barnes integrand: one
    ln_gamma call on the factors' arguments stacked (ln_gamma is
    elementwise), its rows added with their signs, numerator first."""
    args = [b - s for b in spec.b[: spec.m]] + [1.0 - a + s for a in spec.a[: spec.n]]
    args += [1.0 - b + s for b in spec.b[spec.m :]] + [a - s for a in spec.a[spec.n :]]
    g = np.zeros_like(s)
    for j, lg in enumerate(ln_gamma(np.stack(args))):
        g = g + lg if j < spec.m + spec.n else g - lg
    return g


def gl_panels(rule, edges):
    """Composite Gauss-Legendre nodes and weights over [edges[i], edges[i+1]].

    `rule` is a (nodes, weights) pair on [-1, 1]; the result is in its dtype.
    """
    xg, wg = rule
    edges = np.asarray(edges).astype(xg.dtype)
    mid = (edges[1:] + edges[:-1]) / 2
    half = (edges[1:] - edges[:-1]) / 2
    return (mid[:, None] + half[:, None] * xg).ravel(), (half[:, None] * wg).ravel()


# most nodes a halving trapezoid rule may use; the finite-N grids settle
# within 1000, the Q lines within 4000
_TRAPEZOID_BUDGET = 20_000


def halving_trapezoid(sample, settle, node, jac, t0, steps: int, tol: float, dtype=np.float64, rel: float = 0.0,
                      mirrored: bool = False, first=None):
    """Trapezoid rule at nodes node(t0 + kh) in [t0, t0 + steps], weights h jac(node).

    Geometric in 1/h for integrands analytic in a strip that decay at both
    ends.  h halves from 1 until the real part of every component of
    I_h - I_{h/2} is within max(tol, rel × its unsigned mass); a level
    samples only its midpoints.  sample(nodes) gives the values kept (last
    axis over nodes), and settle(nodes, samples, w) a level's sums
    Σ_k w_k f(x_k) of the integrands f and their unsigned masses
    Σ_k w_k |f(x_k)|, given its weights w.  mirrored (t0 = 0) stands for
    the rule on [-steps, steps] whose lower half is the conjugate mirror of
    the upper: weights doubled off t = 0, so Re I is the whole line's, and
    the nodes counted as the whole line's.  first, if given, holds the
    samples of the h = 1 level.  Returns the final nodes, weights and
    samples.  A grid past the budget raises NonConvergent; so does, at
    once, an integrand that is not finite, if settle passes it through
    `_finite`.
    """
    def weights(t, nodes, h):
        return h * jac(nodes) * (np.where(t > 0, 2, 1) if mirrored else 1)

    def whole(n):  # nodes of the whole line to n nodes of the rule
        return 2 * n - 1 if mirrored else n

    def level(t, h, samples=None):
        nodes = node(t)
        with np.errstate(over="ignore", invalid="ignore"):
            samples = sample(nodes) if samples is None else samples
            sums, mass = settle(nodes, samples, weights(t, nodes, h))
        return nodes, samples, sums, mass

    h = dtype(1)
    nodes, samples, cur, mass = level(t0 + h * np.arange(steps + 1, dtype=dtype), h, first)
    while True:
        if whole(2 * len(nodes) - 1) > _TRAPEZOID_BUDGET:
            raise NonConvergent(f"trapezoid rule unsettled at {whole(len(nodes))} nodes (h = {float(h):g})")
        h = h / 2
        mids, new, part, part_mass = level(t0 + h * np.arange(1, 2 * len(nodes) - 1, 2, dtype=dtype), h)
        prev, cur, mass = cur, cur / 2 + part, mass / 2 + part_mass
        nodes = np.insert(nodes, np.arange(1, len(nodes)), mids)
        samples = np.insert(samples, np.arange(1, samples.shape[-1]), new, axis=-1)
        if np.all(np.abs(np.real(cur - prev)) <= np.maximum(tol, rel * mass)):
            return nodes, weights(t0 + h * np.arange(len(nodes), dtype=dtype), nodes, h), samples


def _finite(nodes: np.ndarray, f: np.ndarray) -> np.ndarray:
    """f, whose last axis runs over the nodes; NonConvergent, naming the
    first node at which f is not finite."""
    bad = ~np.isfinite(f)
    if np.any(bad):
        raise NonConvergent(f"trapezoid integrand is not finite at {nodes[np.nonzero(bad)[-1][0]]}")
    return f


def ln_trapezoid(sample, settle, lo: float, hi: float, tol: float, dtype=np.float64):
    """halving_trapezoid in t = ln x over [lo, hi]: nodes x_k = lo e^{kh} until
    x_k >= hi, weights h x_k, every component of settle(sample(x)) within tol."""
    def sums(x, samples, w):
        f = _finite(x, settle(samples))
        return f @ w, np.abs(f) @ w

    return halving_trapezoid(sample, sums, np.exp, lambda x: x, np.log(dtype(lo)), int(math.ceil(math.log(hi / lo))),
                             tol, dtype)


# Points per block of a line sum, so its nodes x points temporaries do not
# grow with the number of points (8 MiB for a 4096-node clongdouble line).
_CHUNK = 64


def _log_max(dtype) -> float:
    """Largest line exponent for which coeff = e^{log_f} w leaves e^110 of
    headroom below the dtype's overflow for the x^u factors and the node sum."""
    return float(np.log(np.finfo(dtype).max)) - 110.0


def line_tol(dtype) -> float:
    """_TOL, tightened by the extra digits of the working precision dtype."""
    return _TOL * float(np.finfo(dtype).eps / np.finfo(np.float64).eps)


def check_mirror(log_f_conj: np.ndarray, u: np.ndarray, log_f_u: np.ndarray, tol: float) -> None:
    """Raise InternalImaginaryResidue where F(conj u) and conj F(u) disagree.

    A line sum over the upper half stands for the whole line only if the
    integrand is real on the real axis, F(conj u) = conj F(u).  log_f_u
    holds the builder's log F at the upper nodes u, a subset that spans the
    whole height, and log_f_conj its log F at their conjugates; a node's
    disagreement |e^{log F(conj u)} - conj e^{log F(u)}| is allowed
    max(1e3 tol, 1e-12) of |F(u)|.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rel = np.abs(np.exp(np.atleast_2d(log_f_conj) - np.conj(np.atleast_2d(log_f_u))) - 1)
    allowed = max(1e3 * tol, 1e-12)
    if not np.all(rel <= allowed):  # NaN fails too
        worst = np.unravel_index(np.argmax(np.where(np.isnan(rel), np.inf, rel)), rel.shape)
        raise InternalImaginaryResidue(
            f"F(conj u) and conj F(u) differ by {float(rel[worst]):.1e} of |F| at u = {complex(u[worst[-1]])}, "
            f"over the guard {allowed:.1e}")


class MellinLine:
    """Mellin-Barnes line sums (1/2π) Σ_i w_i F_l(u_i) x^{u_i}, one per row l,
    over a vertical line Re u = c whose lower half mirrors the upper.

    The integrands are real on the real axis (F(conj u) = conj F(u), which
    each line builder checks with check_mirror), so the whole line's sum is
    the real part of the sum over its upper half.  u holds the nodes with
    Im u >= 0 (a node below the axis raises ContourViolation), w their
    weights, doubled off the real axis, and log_f the log F_l(u_i), one row
    per sum (a 1-d log_f is one row).  `contract` puts any node x point
    matrix in place of x^{u_i}.  The sums are evaluated in the precision of
    log_f: complex128 or clongdouble.

    `eval` cuts the nodes into blocks of about sqrt(n) and writes x^{u_k} =
    x^{a_k} x^{u_k - a_k}, a_k the first node of u_k's block.  An offset
    u_k - a_k that recurs (as every one does on a trapezoid line c + i kh,
    whose offsets are exact multiples of h) costs one exp a point for the
    whole line, so a 577-node line takes 24 + 25 exps a point.
    """

    def __init__(self, u: np.ndarray, w: np.ndarray, log_f: np.ndarray):
        if np.any(np.imag(u) < 0):
            raise ContourViolation("line nodes must lie on the upper half line, Im u >= 0")
        self.u = u
        self.w = w
        self.log_f = np.atleast_2d(log_f)
        re_f = np.real(self.log_f)
        self.two_pi = 2 * pi_in(re_f.dtype)
        self.c = np.real(u[0])
        # ln Σ_i |coeff[l, i]|: with |x^u| = x^c it bounds the unsigned mass
        mass = re_f + np.log(np.abs(w))
        top = np.max(mass, axis=1)
        self.log_mass = top + np.log(np.sum(np.exp(mass - top[:, None]), axis=1)) - np.log(self.two_pi)
        self.coeff = None
        if float(np.max(re_f)) < _log_max(re_f.dtype):
            with np.errstate(under="ignore"):
                self.coeff = np.exp(self.log_f) * w / self.two_pi

    @cached_property
    def _factors(self):
        """The nodes as anchor + offset, in blocks of ceil(sqrt(n)): the
        anchors, each node's anchor, the distinct offsets and each node's
        offset.  Built on the first eval only, as lines that are only
        contracted never need it."""
        block = math.isqrt(len(self.u) - 1) + 1
        anchors, anchor_of = self.u[::block], np.arange(len(self.u)) // block
        offsets, offset_of = np.unique(self.u - anchors[anchor_of], return_inverse=True)
        return anchors, anchor_of, offsets, offset_of

    def _x_power(self, log_x: np.ndarray) -> np.ndarray:
        """x^{u_i} at the points e^{log_x}, nodes x points, as anchor x offset."""
        anchors, anchor_of, offsets, offset_of = self._factors
        return np.exp(np.outer(anchors, log_x))[anchor_of] * np.exp(np.outer(offsets, log_x))[offset_of]

    def eval(self, x: np.ndarray) -> np.ndarray:
        """The sums at positive points x, rows x len(x)."""
        log_x = np.log(x)
        if self.coeff is not None:
            return self.contract(lambda sl: self._x_power(log_x[sl]), len(x))
        # fold x^u into the exponent so saddle-shifted lines stay in range
        return self._sum_blocks(
            lambda sl: np.array([self.w @ np.exp(lf[:, None] + np.outer(self.u, log_x[sl])) for lf in self.log_f])
            / self.two_pi,
            len(x))

    def contract(self, basis, n: int) -> np.ndarray:
        """Re Σ_i coeff[l, i] M[i, j], rows x n points: the sums with a node x
        point matrix M in place of x^u.

        M must be conjugate at mirrored nodes, as x^u is, for the real part
        to be the whole line's.  basis(sl) gives the columns M[:, sl] of one
        block of points, so M is never formed whole.
        """
        if self.coeff is None:
            raise NonConvergent("Mellin-Barnes line coefficients overflow")
        # np.dot: for clongdouble the dtype's dot loop, which adds in the
        # order of @'s generic matmul loop at half its time; BLAS otherwise
        return self._sum_blocks(lambda sl: np.dot(self.coeff, basis(sl)), n)

    def _sum_blocks(self, sums, n: int) -> np.ndarray:
        """Re sums(sl) in blocks of _CHUNK points; a sum that is not finite
        raises NonConvergent."""
        out = np.empty((len(self.log_f), n), dtype=np.real(self.log_f).dtype)
        for lo in range(0, n, _CHUNK):
            with np.errstate(under="ignore", over="ignore", invalid="ignore"):
                vals = sums(slice(lo, lo + _CHUNK))
            if not np.all(np.isfinite(vals)):
                raise NonConvergent("Mellin-Barnes line sum is not finite")
            out[:, lo : lo + _CHUNK] = vals.real
        return out


# a Q line's rounding floor in units of eps × unsigned mass: where its sum
# stops moving between levels, and where its integrand is cut off
_LINE_ROUNDING = 1e3
# Largest estimated rounding error that check_loss lets a line sum return, relative to
# sqrt(K(x,x) K(y,y)) for a kernel and |G(x)| for meijer_g; measured kernel errors sit
# 20-100x below it, but up to 5x above at s >= 1
_LOSS_BUDGET = 1e-8


def check_loss(log_mass: np.ndarray, scale: np.ndarray, describe) -> None:
    """The one loss rule for a line sum's estimates: raise NonConvergent,
    worded by describe(i, loss) for the worst entry i, where eps × the
    unsigned mass exp(log_mass) exceeds _LOSS_BUDGET of scale."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        loss = np.finfo(float).eps * np.exp(log_mass) / scale
    if not np.all(loss <= _LOSS_BUDGET):  # NaN (no mass, no value) fails too
        worst = int(np.argmax(np.where(np.isnan(loss), np.inf, loss)))
        raise NonConvergent(describe(worst, loss[worst]))


class KernelEval(NamedTuple):
    x: float
    y: float
    value: float
    method: str


def kernel_pairs(what: str, pair_values, x, y) -> np.ndarray:
    """K(x, y) on broadcast point arrays x, y (a grid from np.ix_(xs, ys)) by
    pair_values(pts, ix, iy) = (K(pts[ix], pts[iy]), log of its unsigned mass
    or None), pts the distinct points; check_loss holds the mass to
    sqrt(K(x,x) K(y,y)), from the diagonal pairs appended last."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    if not (np.all(np.isfinite(x) & (x > 0)) and np.all(np.isfinite(y) & (y > 0))):
        raise DomainError("the kernel requires finite x, y > 0")
    pts, inv = np.unique(np.concatenate([x.ravel(), y.ravel()]), return_inverse=True)
    n, d = x.size, np.arange(len(pts))
    ix, iy = np.concatenate([inv[:n], d]), np.concatenate([inv[n:], d])
    vals, log_mass = pair_values(pts, ix, iy)
    if log_mass is not None:
        root = np.sqrt(np.abs(vals[n:]))
        check_loss(log_mass, root[ix] * root[iy], lambda i, loss: (
            f"{what} loses too much at (x, y) = ({pts[ix[i]]:g}, {pts[iy[i]]:g}): "
            f"estimated error {loss:.1e} of sqrt(K(x,x) K(y,y))"))
    return vals[:n].reshape(x.shape)


def end_decay_height(log_f, c: float, dtype=np.float64) -> int:
    """Half-height of the line Re u = c: it grows from 12 by half until each
    row's |F_l| at the ends is within _LINE_ROUNDING eps of its peak
    (larger ends add a share that falls only like h on a trapezoid line)."""
    return len(_decayed_level(log_f, c, dtype)[0]) - 1


def _decayed_level(log_f, c: float, dtype):
    """The nodes c + ik, k = 0..end_decay_height, and the rows log_f there;
    a taller line samples only its new nodes."""
    log_rel = math.log(_LINE_ROUNDING * float(np.finfo(dtype).eps))
    u = c + 1j * np.arange(13, dtype=dtype)
    lf = np.atleast_2d(log_f(u))
    while True:  # |F_l| is even in t
        re_f = np.real(lf)
        if np.all(re_f[:, -1] - np.max(re_f, axis=1) <= log_rel):
            return u, lf
        m = len(u) - 1
        if 2 * (m + m // 2) + 1 > _TRAPEZOID_BUDGET:
            raise NonConvergent(f"line integrand has not decayed at height {m + m // 2}")
        new = c + 1j * np.arange(m + 1, m + m // 2 + 1, dtype=dtype)
        u, lf = np.concatenate([u, new]), np.concatenate([lf, np.atleast_2d(log_f(new))], axis=1)


def trapezoid_line(log_f, c: float, probes, dtype=np.float64) -> MellinLine:
    """The MellinLine on Re u = c of the rows log_f(u), by halving_trapezoid
    on the upper half line up to end_decay_height.  Nodes c + ikh, k >= 0,
    weights 2h (h at k = 0); every row's sum must settle to line_tol(dtype)
    at every probe x_p, which must span the points the line serves.  The
    h = 1 level, sampled by end_decay_height, is check_mirror's, and
    check_mirror runs before any halving.
    """
    rel = _LINE_ROUNDING * float(np.finfo(dtype).eps)
    level, level_f = _decayed_level(log_f, c, dtype)
    check_mirror(log_f(np.conj(level)), level, level_f, line_tol(dtype))
    log_x = np.log(np.asarray(probes, dtype=dtype))
    two_pi = 2 * pi_in(dtype)

    def probe_sums(u, lf, w):  # Σ_k w_k F_l(u_k) x_p^{u_k} / 2π and its mass, rows l x probes p
        # e^{top + c ln x_p} (e^{lf - top} @ (w x_p^{it})): (rows + probes) x nodes exps and one product,
        # with |x_p^{it}| = 1 in the mass; top, each row's peak, keeps e^{lf - top} within range
        top = np.max(np.real(lf), axis=1, keepdims=True)
        scale = np.exp(top + c * log_x) / two_pi
        _finite(u, scale[:, :, None])  # a scale out of range spoils every node: the first is named
        rows = _finite(u, np.exp(lf - top))
        return (scale * np.dot(rows, w[:, None] * np.exp(1j * np.multiply.outer(np.imag(u), log_x))),
                np.abs(scale) * np.dot(np.abs(rows), w)[:, None])

    u, w, lf = halving_trapezoid(lambda u: np.atleast_2d(log_f(u)), probe_sums, lambda t: c + 1j * t,
                                 lambda u: np.ones(len(u), dtype), dtype(0), len(level) - 1, line_tol(dtype), dtype,
                                 rel, True, level_f)
    return MellinLine(u, w, lf)


def graded_edges(height: float, poles, tol: float, bucket: int) -> np.ndarray:
    """Panel edges 0 = e_0 < e_1 < ... = height along a gl_line, each panel
    as wide as its nearest singularity allows, and at most 2 / bucket, the
    width at which _GL_RULE resolves points with |ln x| <= bucket
    _LINE_REACH to line_tol.

    poles holds the integrand's singular points in the line's own
    coordinate τ (u = c + iτ).  Gauss-Legendre of order n = _LINE_ORDER on a
    panel converges like ρ^{-2n}, ρ the largest Bernstein ellipse
    around the panel that holds no pole; ρ = tol^{-1/2n} meets the target
    tol.  A panel [a, a + 2h] keeps the pole z outside that ellipse,
    |z - a| + |z - a - 2h| >= h (ρ + 1/ρ), exactly when
    h <= (2A|z - a| - 4 Re(z - a)) / (A² - 4), A = ρ + 1/ρ.  A few poles
    are taken as Python numbers, as numpy's cost a call would outweigh them.
    """
    rho = tol ** (-0.5 / _LINE_ORDER)
    a = rho + 1.0 / rho
    if len(poles) > 4:
        poles = np.asarray(poles)

        def widest(e):  # 2A|z - e| - 4 Re(z - e), least over the poles
            d = poles - e
            return float(np.min(2.0 * a * np.abs(d) - 4.0 * d.real))
    else:
        def widest(e):
            return min(2.0 * a * abs(z - e) - 4.0 * (z - e).real for z in poles)
    edges = [0.0]
    while edges[-1] < height:
        half = min(1.0 / bucket, widest(edges[-1]) / (a * a - 4.0))
        edges.append(min(edges[-1] + 2.0 * half, height))
    return np.array(edges)


def gl_line(log_f, c: float, edges: np.ndarray) -> MellinLine:
    """The float64 MellinLine on Re u = c, |Im u| <= edges[-1], of the rows
    log_f(u), from _GL_RULE panels between the edges 0 = edges[0] <
    edges[1] < ... in Im u on the upper half, weights doubled for the
    lower; one node a panel is check_mirror's, and log_f takes its
    conjugate in the nodes' own call.  A log_f in longdouble gives
    coefficients w F(u) / 2π formed there and rounded once."""
    t, w = gl_panels(_GL_RULE, edges)
    u = c + 1j * t
    lf = np.atleast_2d(log_f(np.concatenate([u, np.conj(u[::_LINE_ORDER])])))
    lf, lf_conj = lf[:, : len(u)], lf[:, len(u) :]
    check_mirror(lf_conj, u[::_LINE_ORDER], lf[:, ::_LINE_ORDER], _TOL)
    line = MellinLine(u, 2 * w, lf.astype(complex))
    if lf.dtype != line.log_f.dtype and line.coeff is not None:
        line.coeff = (np.exp(lf) * line.w / (2 * pi_in(np.longdouble))).astype(complex)
    return line


# the heights _tail_height tests in its first call: of the 27 lines of a
# hard_edge benchmark pass, 22 stop at the first height and 5 at the second
_TAIL_FIRST = 4


def _tail_height(spec: MeijerSpec, contour: ContourSpec, lx_max: float, power: int) -> float:
    """The first of the heights h_k = h_{k-1} 1.35, k <= 60, from the
    contour's half_height, where the line's tail |F(c + ih)| x^c |c + ih|^power,
    at any |ln x| <= lx_max, is below _TOL/100: the first _TAIL_FIRST in
    one _mb_log_integrand call, the rest in a second only if none of them is."""
    c = contour.abscissa
    target = math.log(_TOL) + math.log(1e-2)
    heights = [contour.half_height]
    for _ in range(60):
        heights.append(heights[-1] * 1.35)
    for part in (heights[:_TAIL_FIRST], heights[_TAIL_FIRST:]):
        tops = [c + 1j * h for h in part]
        for h, top, val in zip(part, tops, np.real(_mb_log_integrand(spec, np.array(tops)))):
            if not float(val) + abs(c) * lx_max + power * math.log(abs(top)) > target:
                return h
    raise NonConvergent("integrand tail exceeds _TOL/100 at truncation height")


def meijer_line(spec: MeijerSpec, contour: ContourSpec, lx_max: float, power: int = 0) -> MellinLine:
    """The Mellin-Barnes line of `spec` along `contour`, for points |ln x| <= lx_max.

    The half-height grows until the integrand's tail is below _TOL/100.
    The panels (graded_edges) are at most 2/m wide, m = max(1, ceil(2
    lx_max / _LINE_REACH)), half the double contour's reach a bucket, and
    narrow next to the real axis for the nearest right and left poles, d
    from the line.  A pole of order k, the most b_j (j < m) at
    right_pole_min or a_j (j < n) at left_pole_max + 1, takes the target
    _TOL 100^{-(k+1)} e^{-d lx_max}: its residue carries x^{pole} = x^c
    e^{±d ln x} (but no tighter than eps _TOL 100^{-(k+1)}).  The
    integrand picks up a factor s^power.
    """
    _validate_contour(spec, contour)
    c = contour.abscissa
    kappa = 0.5 * math.pi * spec.decay_exponent
    if kappa <= 0:
        raise NonConvergent(
            "vertical-line integrand does not decay (2(m+n) <= p+q); "
            "no residue series available for this spec"
        )

    height = _tail_height(spec, contour, lx_max, power)

    # the nearest poles in τ (u = c + iτ), both d from the line on an auto
    # contour, and the highest order k among them.  Against 30-digit mpmath,
    # 2/m-wide panels with m = ceil(lx_max / _LINE_REACH) left |ln x| from 6
    # to 8.4 up to 2e-10 off, and the target _TOL 100^{-k} left the hard-edge
    # K(13, 13) at ν = (1, 0) 2.8e-14 of itself off, where this rule leaves 1.3e-15
    poles, k = [], 1
    if spec.m:  # Γ(b_j - u), j < m
        poles.append(-1j * (spec.right_pole_min - c))
        k = spec.b[: spec.m].count(spec.right_pole_min)
    if spec.n:  # Γ(1 - a_j + u), j < n
        poles.append(-1j * (spec.left_pole_max - c))
        k = max(k, spec.a[: spec.n].count(max(spec.a[: spec.n])))
    d = max(abs(z) for z in poles)
    # beyond e^{d lx_max} = 1/eps the line's rounding, eps e^{d lx_max} of x^c, is the larger
    # error (the exponent is clamped where math.exp would overflow, far past 1/eps)
    growth = min(math.exp(min(d * lx_max, 700.0)), 1.0 / np.finfo(float).eps)

    def log_f(s):
        return _mb_log_integrand(spec, s) + (power * np.log(s) if power else 0)

    bucket = max(1, math.ceil(2.0 * lx_max / _LINE_REACH))
    return gl_line(log_f, c, graded_edges(height, poles, _TOL * 100.0 ** -(k + 1) / growth, bucket))


def _meijer_series(spec: MeijerSpec, x: np.ndarray, power: int) -> np.ndarray:
    """Right-half-plane residue series; valid for m=1, n=0, p<q (entire)."""
    b1 = spec.b[0]
    log_x = np.log(x)
    total = np.zeros_like(x)
    consecutive = 0
    for k in range(100_000):
        coeff = (-1.0) ** k / math.factorial(k) if k < 171 else None
        if coeff is None:
            raise NonConvergent("residue series exceeded factorial range")
        for bj in spec.b[1:]:
            coeff *= _recip_gamma_real(1.0 - bj + b1 + k)
        for aj in spec.a:
            coeff *= _recip_gamma_real(aj - b1 - k)
        if power:
            coeff *= (b1 + k) ** power
        term = coeff * np.exp((b1 + k) * log_x)
        total = total + term
        scale = np.maximum(np.abs(total), 1.0)
        if np.all(np.abs(term) <= _TOL * scale):
            consecutive += 1
            if consecutive >= 3 and k >= 4:
                return total
        else:
            consecutive = 0
    raise NonConvergent("residue series did not converge")


def _meijer_eval(spec: MeijerSpec, contour: ContourSpec, x, power: int):
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr).astype(float)
    if np.any(x_arr <= 0):
        raise ContourViolation("argument x must be positive")
    if spec.decay_exponent > 0:
        log_x = np.log(x_arr)
        line = meijer_line(spec, contour, float(np.max(np.abs(log_x))), power)
        out = line.eval(x_arr)[0]
        # the line's rounding, eps x^c Σ_i |coeff_i|, against |G(x)|
        check_loss(line.c * log_x + line.log_mass[0], np.abs(out), lambda i, loss: (
            f"Meijer G line loses too much at x = {x_arr[i]:g}: estimated error {loss:.1e} of |G(x)|"))
    elif spec.m == 1 and spec.n == 0 and spec.p < spec.q:
        _validate_contour(spec, contour)
        out = _meijer_series(spec, x_arr, power)
    else:
        raise NonConvergent("no convergent evaluation route for this Meijer spec")
    return float(out[0]) if scalar else out


def meijer_g(spec: MeijerSpec, contour: ContourSpec, x):
    """Meijer G at x > 0 along the vertical line of `contour`.

    Specs with 2(m+n) <= p+q have a divergent line integral; the m=1, n=0
    family is then summed as the residue series over the right pole set
    (the same integral, contour closed right).
    """
    return _meijer_eval(spec, contour, x, power=0)


def meijer_g_mellin_power(spec: MeijerSpec, contour: ContourSpec, x, k: int):
    """(x d/dx)^k of the Meijer G: the integrand picks up a factor s^k."""
    if k < 0:
        raise ContourViolation("power k must be nonnegative")
    return _meijer_eval(spec, contour, x, power=k)


# --------------------------------------------------------------------------
# Bessel J and the r=2 leading asymptotics
# --------------------------------------------------------------------------


def _bessel_hankel_asymptotic(nu: float, x: np.ndarray) -> np.ndarray:
    """Large-argument expansion: J_nu = sqrt(2/(pi x)) (P cos w - Q sin w),
    w = x - nu pi/2 - pi/4, truncated at the minimal term."""
    mu = 4.0 * nu * nu
    p = np.ones_like(x)
    q = np.zeros_like(x)
    term = np.ones_like(x)
    prev = np.inf
    for k in range(1, 120):
        term = term * (mu - (2 * k - 1) ** 2) / (k * 8.0) / x
        size = float(np.max(np.abs(term)))
        if size > prev:  # asymptotic series: stop at the minimal term
            break
        prev = size
        upd = term * (-1.0) ** ((k // 2) % 2)
        if k % 2 == 1:
            q = q + upd
        else:
            p = p + upd
        if size < 1e-18:
            break
    w = x - 0.5 * nu * math.pi - 0.25 * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(w) - q * np.sin(w))


def bessel_j(nu: float, x):
    """J_nu(x) for x >= 0 via (x/2)^nu / Gamma(nu+1) * 0F1(; nu+1; -x^2/4).

    Beyond x ~ 18 the series loses digits to cancellation in doubles, so
    the Hankel large-argument expansion takes over there.
    """
    if float(nu) == math.floor(nu) and nu < 0:
        n = int(-nu)
        return (-1.0) ** n * bessel_j(float(n), x)
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr).astype(float)
    if np.any(x_arr < 0):
        raise DomainError("bessel_j requires x >= 0")
    out = np.empty_like(x_arr)
    small = x_arr <= 18.0
    if np.any(small):
        params = HypSeriesParams.of((), (nu + 1.0,))
        series = np.atleast_1d(np.asarray(pfq(params, -(x_arr[small] ** 2) / 4.0)))
        out[small] = (x_arr[small] / 2.0) ** nu / math.gamma(nu + 1.0) * series
    if np.any(~small):
        out[~small] = _bessel_hankel_asymptotic(float(nu), x_arr[~small])
    return float(out[0]) if scalar else out


def asymp_g10_r2(u_x):
    """Leading large-argument form of G^{1,0}_{0,3}(u | 0,0,0):
    (1/(pi sqrt(3) u^{1/3})) e^{3 u^{1/3} cos(pi/3)} cos(3 u^{1/3} sin(pi/3) - pi/3)."""
    u = np.asarray(u_x, dtype=float)
    cub = u ** (1.0 / 3.0)
    out = (
        np.exp(3.0 * cub * math.cos(math.pi / 3.0))
        * np.cos(3.0 * cub * math.sin(math.pi / 3.0) - math.pi / 3.0)
        / (math.pi * math.sqrt(3.0) * cub)
    )
    return float(out) if np.ndim(u_x) == 0 else out


def asymp_g20_r2(u_x):
    """Conjectured leading form of G^{2,0}_{0,3}(u | 0,0,0):
    (2/(sqrt(3) u^{1/3})) e^{-3 u^{1/3} cos(pi/3)} cos(3 u^{1/3} sin(pi/3) - pi/6)."""
    u = np.asarray(u_x, dtype=float)
    cub = u ** (1.0 / 3.0)
    out = (
        2.0
        * np.exp(-3.0 * cub * math.cos(math.pi / 3.0))
        * np.cos(3.0 * cub * math.sin(math.pi / 3.0) - math.pi / 6.0)
        / (math.sqrt(3.0) * cub)
    )
    return float(out) if np.ndim(u_x) == 0 else out
