"""Global (macroscopic) spectral density machinery.

The ensemble is X†X with X a chain of r complex Gaussian factors times the
inverse of s such factors.  With every Wishart factor G†G divided by N, the
Stieltjes transform G(z) = ∫ rho(y)/(y-z) dy of the limiting density solves

    (1 - w)^{s+1} = zeta * w^{r+1},     w := -z G(z),  zeta := -1/z.

For every (r, s) the density on the real axis is the phi-parametrised
root of that equation (`global_density`, vectorised; Raney densities in
Forrester-Liu's terms).  `solve_stieltjes` follows the root off the axis by
homotopy continuation, and `stieltjes_density` recovers the density from
it by Stieltjes inversion: the independent cross-check route.  Both take a
scalar or an array and track all its points together, one stacked
companion-matrix eigvals call per homotopy step, with the same paths and
digits as one point at a time.  Moment identities (Fuss-Catalan and the
r=s transformed moments) are done in exact integer/rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, NonConvergent, NoPhysicalRoot, PoleAtMinusOne


@dataclass(frozen=True)
class EnsembleParams:
    """(N, r, s, nu_1..nu_r, mu_1..mu_s) specifying the product ensemble.

    nu_j = n_j - N are the rectangular offsets of the direct factors; mu_l
    are the induced determinant exponents of the (square) inverse factors.
    """

    N: int
    r: int
    s: int
    nu: tuple[int, ...] = ()
    mu: tuple[int, ...] = ()

    def __post_init__(self):
        if self.N < 1:
            raise DomainError("N must be a positive integer")
        if self.r < 0 or self.s < 0 or self.r + self.s < 1:
            raise DomainError("need r, s >= 0 with r + s >= 1")
        if len(self.nu) != self.r or len(self.mu) != self.s:
            raise DomainError("len(nu) must equal r and len(mu) must equal s")
        if any(v < 0 for v in self.nu) or any(m < 0 for m in self.mu):
            raise DomainError("nu and mu entries must be nonnegative")


@dataclass(frozen=True)
class StieltjesValue:
    """The resolvent at z, with the functional-equation residual.

    z, G and residual are scalars for a scalar z and arrays of its shape
    otherwise.
    """

    z: complex | np.ndarray
    G: complex | np.ndarray
    residual: float | np.ndarray


@dataclass(frozen=True)
class MomentSequence:
    r: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.values and self.values[0] != 1:
            raise DomainError("moment sequence must start at m_0 = 1")

    @classmethod
    def fuss_catalan(cls, r: int, count: int) -> "MomentSequence":
        return cls(r, tuple(fuss_catalan(r, p) for p in range(count)))


def s_transform(r: int, s: int, z: float) -> float:
    """S-transform of the product ensemble: (-z)^s / (1+z)^r."""
    if z == -1.0 and r > 0:
        raise PoleAtMinusOne("S-transform has a pole at z = -1")
    return (-z) ** s / (1.0 + z) ** r


def _roots(r: int, s: int, zeta: np.ndarray) -> np.ndarray:
    """Roots w of (1-w)^{s+1} - zeta*w^{r+1}, one row per zeta, as np.roots
    finds them: eigenvalues of the companion matrices, one eigvals call for
    the stack.

    A vanishing leading coefficient (zeta = (-1)^{s+1} at r = s) drops a
    root; that row goes to np.roots and its missing root is inf.
    """
    deg = max(r, s) + 1
    p = np.zeros((len(zeta), deg + 1), dtype=complex)  # highest degree first
    for k in range(s + 2):
        # (1-w)^{s+1} = sum_k C(s+1,k) (-w)^k
        p[:, deg - k] += math.comb(s + 1, k) * (-1.0) ** k
    p[:, deg - (r + 1)] -= zeta
    lead = p[:, 0] != 0
    comp = np.zeros((int(np.count_nonzero(lead)), deg, deg), dtype=complex)
    comp[:, 1:, :-1] = np.eye(deg - 1)
    comp[:, 0, :] = -p[lead, 1:] / p[lead, :1]
    roots = np.full((len(zeta), deg), np.inf, dtype=complex)
    roots[lead] = np.linalg.eigvals(comp)
    for k in np.flatnonzero(~lead):
        found = np.roots(p[k])
        roots[k, : len(found)] = found
    return roots


_REFINE_GUARD = 200  # midpoints a single solve may insert


def _track_roots(r: int, s: int, paths: np.ndarray, length: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Follow the root of (1-w)^{s+1} = zeta w^{r+1} along each row of paths.

    Row k is a zeta path of length[k] points; w[k] estimates the root at
    the first one, closer to it than to any other root.
    A step takes the root nearest the current one, unless the second
    nearest is within twice that distance: then the midpoint of the step
    goes on the point's stack of targets and is tried first (at most
    _REFINE_GUARD times per point).  Every point steps at once, with one
    eigvals call on the stacked companion matrices.

    Halving drives the midpoints onto the zeta they approach, so a point
    often steps to the zeta of its last step again; it reuses those roots.
    """
    n = len(w)
    w = w.copy()
    at = paths[:, 0].copy()  # the zeta at which w is the tracked root
    nxt = np.ones(n, dtype=int)  # the next path point
    stack = np.empty((n, 8), dtype=complex)  # inserted midpoints, top last
    depth = np.zeros(n, dtype=int)
    inserted = np.zeros(n, dtype=int)
    solved_at = np.full(n, np.nan, dtype=complex)  # the zeta of each point's last step
    known = np.empty((n, max(r, s) + 1), dtype=complex)  # and the roots there
    live = np.flatnonzero(nxt < length)
    while live.size:
        top = depth[live] - 1
        target = np.where(top >= 0, stack[live, top], paths[live, nxt[live]])
        fresh = target != solved_at[live]
        if fresh.any():
            known[live[fresh]] = _roots(r, s, target[fresh])
        solved_at[live] = target
        roots = known[live]
        order = np.argsort(np.abs(roots - w[live, None]), axis=1)
        rows = np.arange(live.size)
        nearest, second = roots[rows, order[:, 0]], roots[rows, order[:, 1]]
        d1, d2 = nearest - w[live], second - w[live]
        # hypot is the scalar abs; numpy's vectorised complex abs can differ by an ulp
        split = (np.hypot(d2.real, d2.imag) < 2.0 * np.hypot(d1.real, d1.imag)) & (inserted[live] < _REFINE_GUARD)

        k = live[split]
        if k.size and depth[k].max() == stack.shape[1]:
            stack = np.concatenate([stack, np.empty_like(stack)], axis=1)
        stack[k, depth[k]] = 0.5 * (at[k] + target[split])
        depth[k] += 1
        inserted[k] += 1

        k, step = live[~split], ~split
        w[k], at[k] = nearest[step], target[step]
        popped = depth[k] > 0
        depth[k[popped]] -= 1
        nxt[k[~popped]] += 1
        live = np.flatnonzero(nxt < length)
    return w


def _newton_polish(r: int, s: int, zeta: complex, w: complex) -> complex:
    for _ in range(4):
        f = (1.0 - w) ** (s + 1) - zeta * w ** (r + 1)
        df = -(s + 1) * (1.0 - w) ** s - zeta * (r + 1) * w**r
        if df == 0:
            break
        w = w - f / df
    return w


_H_STEPS = 40  # the descent in Im z; at 20 steps (8,7) loses its root at x = 1e9
_TAUS = np.geomspace(1e-9, 1.0, 60)  # the ray zeta = tau * zeta_end, z < 0


def solve_stieltjes(r: int, s: int, z) -> StieltjesValue:
    """Physical root of the functional equation at z (Im z > 0 or z < 0 real).

    z may be a scalar or an array; all its points are tracked together.
    The root is selected by homotopy continuation from small zeta = -1/z,
    where it is w0 = 1 - zeta^{1/(s+1)} to leading order (the principal
    power: the branch with G > 0 on z < 0, continued into Im z > 0), and
    checked against the Herglotz sign.  An upper path starts at
    Im z = 100 max(1, |z|), low enough that the s+1 roots near 1 stand
    apart in float64, so its first step needs no refinement.
    """
    za = np.asarray(z, dtype=complex)
    zf = za.ravel()
    if not np.all(np.isfinite(zf)):
        raise DomainError("solve_stieltjes requires finite z")
    if np.any(zf.imag < 0):
        raise DomainError("solve_stieltjes requires Im z >= 0")
    if np.any((zf.imag == 0) & (zf.real >= 0)):
        raise DomainError("on the positive real axis use global_density")

    # Im z > 0: descend z_h = Re z + i*h from high in the upper half plane;
    # the corresponding zeta = -1/z_h keeps Im zeta > 0, clearing all (real)
    # branch points of the root structure.  z real negative: zeta = -1/z > 0,
    # a ray from 0+ to zeta.
    upper = zf.imag > 0
    paths = np.zeros((zf.size, max(_H_STEPS, len(_TAUS))), dtype=complex)
    length = np.where(upper, _H_STEPS, len(_TAUS))
    zu = zf[upper]
    h_hi = 100.0 * np.maximum(1.0, np.hypot(zu.real, zu.imag))
    hs = np.geomspace(h_hi, zu.imag, _H_STEPS, axis=1)
    paths[upper, :_H_STEPS] = -1.0 / (zu.real[:, None] + 1j * hs)
    paths[~upper, : len(_TAUS)] = _TAUS * (-1.0 / zf.real[~upper])[:, None]
    w0 = 1.0 - paths[:, 0] ** (1.0 / (s + 1))
    w_track = _track_roots(r, s, paths, length, w0)

    G = np.empty(zf.size, dtype=complex)
    residual = np.empty(zf.size)
    for k, zk in enumerate(zf.tolist()):
        # the polish stays scalar: it keeps the digits of the one-point route
        w = w_track[k] if upper[k] else complex(w_track[k])
        zeta = -1.0 / zk
        w = _newton_polish(r, s, zeta, w)
        G[k] = -w / zk
        residual[k] = abs((1.0 - w) ** (s + 1) - zeta * w ** (r + 1))
    bad = np.flatnonzero(upper & (G.imag <= -1e-13))
    if bad.size:
        k = bad[0]
        raise NoPhysicalRoot(f"Herglotz violation: Im G = {G[k].imag} at z = {zf[k]}")
    shape = za.shape
    return StieltjesValue(z=za[()], G=G.reshape(shape)[()], residual=residual.reshape(shape)[()])


def _listed(xs: np.ndarray) -> str:
    return ", ".join(repr(float(x)) for x in xs)


def stieltjes_density(r: int, s: int, x):
    """rho(x) by Stieltjes inversion, Richardson-extrapolated in epsilon.

    x may be a scalar (a float is returned) or an array; one
    `solve_stieltjes` call tracks all of its points.  Im G(x + i*eps)/pi at
    eps, eps/2, eps/4; the two-stage extrapolation removes the O(eps) and
    O(eps^2) terms.  eps scales with x because the density varies on scale
    x near the hard edge (x^{-r/(r+1)} behaviour).  This is the cross-check
    route for `global_density`.

    The two first-stage estimates a (eps, eps/2) and b (eps/2, eps/4) agree
    to 5e-10 of rho wherever the homotopy finds the physical root; a wrong
    root (next to a soft edge, say) makes them differ by the size of rho
    itself.  A disagreement above 1e-6 rho plus a rounding floor of 1e-12/x
    (some 5e3 eps |G|, which covers the noise off the support) raises
    NonConvergent.  rho below -1e-9 raises NoPhysicalRoot, and so does
    rho <= 0 at r, s >= 1, where the support is all of (0, inf).  The
    error names every such x.
    """
    xa = np.asarray(x, dtype=float)
    if not np.all(xa > 0):
        raise DomainError("stieltjes_density requires x > 0")
    eps = 1e-6 * xa
    f = solve_stieltjes(r, s, xa + 1j * np.stack([eps, eps / 2, eps / 4])).G.imag / math.pi
    a = 2.0 * f[1] - f[0]
    b = 2.0 * f[2] - f[1]
    rho = (4.0 * b - a) / 3.0
    wrong = np.abs(a - b) > 1e-6 * np.abs(rho) + 1e-12 / xa
    whole_line = r >= 1 and s >= 1  # the support is all of (0, inf)
    unphysical = ~wrong & ((rho <= 0.0) if whole_line else (rho < -1e-9))
    faults = []
    if wrong.any():
        faults.append(f"Richardson estimates disagree (wrong root, or a soft edge) at x = {_listed(xa[wrong])}")
    if unphysical.any():
        what = "density not positive on the support" if whole_line else "negative density"
        faults.append(f"{what} at x = {_listed(xa[unphysical])}")
    if faults:
        raise (NonConvergent if wrong.any() else NoPhysicalRoot)("; ".join(faults))
    rho = np.where(rho < 0, 0.0, rho)
    return float(rho) if rho.ndim == 0 else rho


# On the support zeta = -1/x < 0 and the physical root w forms a triangle
# with 0 and 1 whose angles, phi at 0 and psi at 1, satisfy
# (r+1) phi + (s+1) psi = pi.  The sine rule gives
#     x   = sin^{r+1} psi sin^{s-r}(phi+psi) / sin^{s+1} phi,
#     rho = sin psi sin phi / (pi x sin(phi+psi)).
# The map is inverted in v, with phi = pi/(r+1) sigmoid(v) and
# psi = pi/(s+1) sigmoid(-v), by Newton's method kept inside a bisection
# bracket: log x(v) is strictly decreasing and nearly straight in both tails.
_V_MAX = 700.0  # |v| beyond which x(v) leaves the float64 range at any (r,s)
_V_TOL = 1e-9  # the error in v is the relative error of the smaller angle
_NEWTON_STEPS = 100


def _phi_map(r: int, s: int, v):
    """(log x, d log x / dv, sin phi sin psi / sin(phi+psi)) at v.

    1/(1 + e^{-v}) keeps full relative precision for every v, and each sine
    is taken of the smaller of its angle and pi minus it, so the three sines
    keep full relative precision as phi or psi tends to 0 (x -> inf, x -> 0)
    or to pi (the soft edges at r = 0 and s = 0).
    """
    sig, sig_neg = 1.0 / (1.0 + np.exp(-v)), 1.0 / (1.0 + np.exp(v))
    a, b = math.pi / (r + 1), math.pi / (s + 1)
    phi, psi = a * sig, b * sig_neg
    sin_phi = np.sin(a * np.minimum(sig, r + sig_neg))
    sin_psi = np.sin(b * np.minimum(sig_neg, s + sig))
    sin_sum = np.sin(np.minimum(phi + psi, r * phi + s * psi))
    log_x = (r + 1) * np.log(sin_psi) + (s - r) * np.log(sin_sum) - (s + 1) * np.log(sin_phi)
    cots = (r + 1) ** 2 * np.cos(psi) / sin_psi + (s + 1) ** 2 * np.cos(phi) / sin_phi \
        - (s - r) ** 2 * np.cos(phi + psi) / sin_sum
    slope = -a * b / math.pi * sig * sig_neg * cots
    return log_x, slope, sin_phi * sin_psi / sin_sum


def global_density(r: int, s: int, x):
    """Limiting density rho(x) for any (r, s), from the phi-parametrised root.

    x may be a scalar (a float is returned) or an array; rho is 0 off the
    support, which is (0, (r+1)^{r+1}/r^r) at s = 0, (s^s/(s+1)^{s+1}, inf)
    at r = 0 and (0, inf) otherwise.  Within 2e-13 relative of a 40-digit
    mpmath inversion of the same map for r, s <= 8 on [1e-12, 1e12] (up to
    0.99 of a soft edge, where rho itself is ill-conditioned), the far tail
    where `stieltjes_density` fails included.
    """
    if r < 0 or s < 0 or r + s < 1:
        raise DomainError("global_density requires r, s >= 0 with r + s >= 1")
    xa = np.asarray(x, dtype=float)
    if not np.all(xa > 0):
        raise DomainError("global_density requires x > 0")
    inside = np.ones(xa.shape, dtype=bool)
    if s == 0:
        inside &= xa < (r + 1) ** (r + 1) / r**r
    if r == 0:
        inside &= xa > s**s / (s + 1) ** (s + 1)
    t = np.where(inside, xa, 1.0)  # x = 1 lies in every support
    log_t = np.log(t)
    v, lo, hi = np.zeros_like(t), np.full_like(t, -_V_MAX), np.full_like(t, _V_MAX)
    done = np.zeros(t.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_STEPS):
            log_x, slope, _ = _phi_map(r, s, v)
            above = log_x > log_t  # x(v) > t: the root lies at larger v
            lo, hi = np.where(above, v, lo), np.where(above, hi, v)
            step = (log_x - log_t) / slope
            # a Newton step that leaves the bracket bisects instead.  A point
            # is frozen after a step below _V_TOL, which leaves v within
            # about _V_TOL**2 of the root, or once the bracket is that narrow:
            # next to a soft edge log x(v) is flat and the step is rounding noise
            small = np.abs(step) <= _V_TOL
            newton = small | ((v - step > lo) & (v - step < hi))
            v = np.where(done, v, np.where(newton, v - step, 0.5 * (lo + hi)))
            done |= small | (hi - lo <= _V_TOL)
            if np.all(done):
                break
        else:
            raise NonConvergent(f"phi-map inversion did not converge at (r,s) = ({r},{s})")
        rho = np.where(inside, _phi_map(r, s, v)[2] / (math.pi * t), 0.0)
    return float(rho) if rho.ndim == 0 else rho


def fuss_catalan(r: int, p: int) -> int:
    """Fuss-Catalan number binom(rp+p, p)/(rp+1), exact."""
    if r < 0 or p < 0:
        raise DomainError("fuss_catalan requires r, p >= 0")
    num = math.comb(r * p + p, p)
    den = r * p + 1
    q, rem = divmod(num, den)
    if rem:
        raise DomainError("Fuss-Catalan ratio is not an integer (bad inputs)")
    return q


def fuss_catalan_recurrence_check(r: int, p_max: int) -> bool:
    """m_p = sum over q_1+..+q_{r+1} = p-1 of m_{q_1}...m_{q_{r+1}}, exactly."""
    if p_max < 1:
        raise DomainError("p_max must be >= 1")
    m = [fuss_catalan(r, p) for p in range(p_max + 1)]
    # (r+1)-fold convolution of the sequence with itself
    conv = [1]
    for _ in range(r + 1):
        new = [0] * p_max
        for i, ci in enumerate(conv):
            for j in range(p_max - i):
                new[i + j] += ci * m[j]
        conv = new
    return all(m[p] == conv[p - 1] for p in range(1, p_max + 1))


def _series_inverse(a: list[Fraction], n: int) -> list[Fraction]:
    """First n coefficients of 1/sum a_k t^k (a[0] != 0)."""
    inv = [Fraction(1, 1) / a[0]]
    for k in range(1, n):
        acc = Fraction(0)
        for j in range(1, min(k, len(a) - 1) + 1):
            acc += a[j] * inv[k - j]
        inv.append(-acc / a[0])
    return inv


def moments_rr(r: int, p: int) -> Fraction:
    """p-th moment of the lambda = 1/(1+x) transformed r=s density.

    Equals the coefficient of (1-z)^{p-1} in the expansion about z = 1 of
    (1/z)(1 - 1/(1 + z^{1/(r+1)})), computed in exact rationals.
    """
    if p < 1:
        raise DomainError("p must be >= 1")
    n = p  # need coefficients of t^0..t^{p-1} with t = 1 - z
    alpha = Fraction(1, r + 1)
    # z^{1/(r+1)} = (1-t)^{alpha} = sum binom(alpha,k) (-t)^k
    w = []
    binom = Fraction(1)
    for k in range(n + 1):
        w.append(binom * (-1) ** k)
        binom = binom * (alpha - k) / (k + 1)
    a = [Fraction(2)] + [w[k] for k in range(1, n + 1)]  # 1 + z^{1/(r+1)}
    inv = _series_inverse(a, n + 1)
    one_minus = [Fraction(1) - inv[0]] + [-c for c in inv[1:]]
    # 1/z = 1/(1-t) = sum t^k; multiply series
    coeff = Fraction(0)
    for j in range(p):
        coeff += one_minus[j]  # times t^{p-1-j} coefficient 1 of the geometric series
    return coeff


def tail_small_x(r: int, x: float) -> float:
    """Leading x -> 0+ singular form sin(pi/(r+1)) / (pi x^{r/(r+1)})."""
    if x <= 0:
        raise DomainError("tail_small_x requires x > 0")
    return math.sin(math.pi / (r + 1)) / (math.pi * x ** (r / (r + 1)))
