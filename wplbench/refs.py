"""Independent references for the benchmark checks.

Nothing here calls wpl.  Each reference is a separate computation of a
quantity wpl evaluates:

- the global density and its CDF from the phi-parametrisation of the
  physical root of (1-w)^{s+1} = zeta w^{r+1};
- the finite-N kernel at r=1, s=0 from scipy's Laguerre polynomials;
- the hard-edge density K(x, x) at r=1 from scipy's Bessel J;
- Fuss-Catalan numbers, the averaged characteristic polynomial and the
  0F_r hard-edge limit in exact rationals;
- a table of k_hard values at r >= 2 computed by mpmath at 30 digits
  (rebuilt by ``python3 wplbench/build_khard_table.py``).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy import special

KHARD_TABLE = Path(__file__).resolve().parent / "khard_table.json"


# --------------------------------------------------------------------------
# global density: the phi-parametrisation
# --------------------------------------------------------------------------
#
# On the support the physical root w forms a triangle with 0 and 1 whose
# angles phi (at 0) and psi (at 1) satisfy (r+1) phi + (s+1) psi = pi.
# With v real, phi = pi/(r+1) sigmoid(v) and psi = pi/(s+1) sigmoid(-v)
# keep both angles at full relative precision; x(v) decreases strictly.


def _angles(r: int, s: int, v: np.ndarray):
    # sigmoid(v) and sigmoid(-v), each from exp(-|v|) so the small one keeps
    # its relative precision
    e = np.exp(-np.abs(v))
    big, small = 1.0 / (1.0 + e), e / (1.0 + e)
    sig = np.where(v < 0, small, big)
    sig_neg = np.where(v < 0, big, small)
    phi = math.pi / (r + 1) * sig
    psi = math.pi / (s + 1) * sig_neg
    # phi + psi and r phi + s psi sum to pi; take the sine of the smaller
    a = phi + psi
    b = r * phi + s * psi
    sin_sum = np.sin(np.minimum(a, b))
    return phi, psi, sin_sum


def _log_x(r: int, s: int, v: np.ndarray) -> np.ndarray:
    """log x(v) = (r+1) log sin(psi) + (s-r) log sin(phi+psi) - (s+1) log sin(phi)."""
    phi, psi, sin_sum = _angles(r, s, v)
    return (r + 1) * np.log(np.sin(psi)) + (s - r) * np.log(sin_sum) - (s + 1) * np.log(np.sin(phi))


def _rho_at(r: int, s: int, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, rho) at v: rho = |w| sin(phi) / (pi x), |w| = sin(psi) / sin(phi + psi)."""
    phi, psi, sin_sum = _angles(r, s, v)
    x = np.exp(_log_x(r, s, v))
    return x, np.sin(psi) / sin_sum * np.sin(phi) / (math.pi * x)


def _v_of_x(r: int, s: int, x: np.ndarray) -> np.ndarray:
    """Invert log x(v) by bisection (x(v) is strictly decreasing)."""
    target = np.log(x)
    lo = np.full_like(target, -700.0)
    hi = np.full_like(target, 700.0)
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        above = _log_x(r, s, mid) > target
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def phi_density(r: int, s: int, x) -> np.ndarray:
    """Global density rho(x) of the (r, s) product ensemble, 0 off the support."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    if s == 0:
        inside = x < (r + 1) ** (r + 1) / r**r
    else:
        inside = np.ones_like(x, dtype=bool)
    if np.any(inside):
        _, rho = _rho_at(r, s, _v_of_x(r, s, x[inside]))
        out[inside] = rho
    return out


def phi_cdf(r: int, s: int):
    """CDF of the global density as a callable, tabulated in v.

    In v the integrand rho |dx/dv| decays exponentially at both ends, so the
    trapezoid rule on a uniform grid is accurate far beyond the needs of a
    Kolmogorov-Smirnov check.
    """
    v = np.linspace(-60.0, 60.0, 24001)
    x, rho = _rho_at(r, s, v)
    dlogx = np.gradient(np.log(x), v)
    g = rho * x * -dlogx
    # upper tail mass: integrate from v = -60 (largest x) upwards
    upper = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(v))])
    total = upper[-1]
    cdf = 1.0 - upper / total  # F(x(v)) = 1 - mass above x(v)
    xs = x[::-1]
    fs = cdf[::-1]

    def F(t):
        return np.interp(np.asarray(t, dtype=float), xs, fs, left=0.0, right=1.0)

    return F


# --------------------------------------------------------------------------
# finite N at r = 1, s = 0: the Laguerre kernel
# --------------------------------------------------------------------------


def laguerre_kernel(N: int, a: int, xs, ys) -> np.ndarray:
    """K_N(x, y) = sum_{k<N} k!/(k+a)! L_k^a(x) L_k^a(y) y^a e^{-y}."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    k = np.arange(N)
    norm = np.exp(special.gammaln(k + 1.0) - special.gammaln(k + a + 1.0))
    lx = special.eval_genlaguerre(k[:, None], a, xs[None, :])
    ly = special.eval_genlaguerre(k[:, None], a, ys[None, :])
    return (lx * norm[:, None]).T @ ly * (ys**a * np.exp(-ys))[None, :]


# --------------------------------------------------------------------------
# hard edge at r = 1: the Bessel kernel on the diagonal
# --------------------------------------------------------------------------


def bessel_diag(a: int, x) -> np.ndarray:
    """K(x, x) = J_a(2 sqrt x)^2 - J_{a+1}(2 sqrt x) J_{a-1}(2 sqrt x)."""
    z = 2.0 * np.sqrt(np.asarray(x, dtype=float))
    return special.jv(a, z) ** 2 - special.jv(a + 1, z) * special.jv(a - 1, z)


# --------------------------------------------------------------------------
# exact rationals
# --------------------------------------------------------------------------


def fuss_catalan(r: int, p: int) -> Fraction:
    """p-th moment of the s=0 global density: binom((r+1)p, p)/(rp+1)."""
    return Fraction(math.comb((r + 1) * p, p), r * p + 1)


def _poch(a: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


def charpoly_rational(N: int, nu: tuple[int, ...], mu: tuple[int, ...], lam: float) -> Fraction:
    """<det(lam B^H B - A^H A)> as an exact rational at the binary value of lam.

    (-1)^N prod_j (nu_j+N)!/nu_j! * sum_k (-N)_k prod_p (-(mu_p+N))_k
    / (k! prod_j (1+nu_j)_k) ((-1)^s lam)^k, a terminating series.
    """
    lam_q = Fraction(lam) * (-1) ** len(mu)
    total = Fraction(0)
    for k in range(N + 1):
        num = _poch(Fraction(-N), k)
        for m in mu:
            num *= _poch(Fraction(-(m + N)), k)
        den = Fraction(math.factorial(k))
        for v in nu:
            den *= _poch(Fraction(1 + v), k)
        total += num / den * lam_q**k
    pref = Fraction((-1) ** N)
    for v in nu:
        pref *= Fraction(math.factorial(v + N), math.factorial(v))
    return pref * total


def hyp0fr_rational(nu: tuple[int, ...], lam: float, terms: int = 80) -> tuple[Fraction, Fraction]:
    """Partial sum of 0F_r(; nu+1; lam) and the sum of its terms' moduli,
    in exact rationals.

    The terms fall faster than 1/k!^(r+1); for |lam| <= 40 and r >= 1 the
    truncation error after 80 terms is far below double precision.
    """
    lam_q = Fraction(lam)
    term = Fraction(1)
    total = Fraction(1)
    modulus = Fraction(1)
    for k in range(1, terms):
        den = Fraction(k)
        for v in nu:
            den *= v + k
        term = term * lam_q / den
        total += term
        modulus += abs(term)
    return total, modulus


# --------------------------------------------------------------------------
# the mpmath table for k_hard at r >= 2
# --------------------------------------------------------------------------


def load_khard_table() -> dict[tuple, float]:
    """{(r, nu, x, y): value} from the committed mpmath table."""
    doc = json.loads(KHARD_TABLE.read_text(encoding="utf-8"))
    return {
        (row["r"], tuple(row["nu"]), row["x"], row["y"]): float(row["value"])
        for row in doc["rows"]
    }


def khard_lattice(table: dict[tuple, float]) -> np.ndarray:
    """The x (and y) values the table covers."""
    return np.array(sorted({key[2] for key in table}))
