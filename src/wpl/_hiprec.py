"""Extended-precision arithmetic for the biorthogonality Gram matrix.

The delta identity ∫ P_n Q_l = δ_{n,l} cancels polynomial lobe masses that
reach ~1e7 at N = 6, so verifying it to 1e-8 absolute needs integrand
values beyond double precision.  This module holds what numpy's extended
(x86 80-bit) precision needs on top of the double-precision code: exact
rational P-coefficients.  The log-gamma is specfun.ln_gamma, which works
in the precision of its argument, and Q_l comes from
finite_kernel.BiorthSystem, which works in the precision of the points it
is given: gram_matrix hands it longdouble nodes, and its trapezoid lines
take their nodes c + ikh in that precision at no cost.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

import numpy as np

from .freeprob import EnsembleParams
from .specfun import ln_gamma

LD = np.longdouble
CLD = np.clongdouble
# settling tolerance of every Gram entry on the ln-x trapezoid grid
GRAM_TOL = 1e-10


def _frac_to_ld(f: Fraction) -> np.longdouble:
    # string round-trip keeps all 18-19 digits for big integers
    return LD(str(f.numerator)) / LD(str(f.denominator))


def lngamma(z) -> np.ndarray:
    """specfun.ln_gamma in extended precision, whatever the dtype of z.

    No wpl code calls it; wplbench's tracer counts calls by this name."""
    return ln_gamma(np.asarray(z, dtype=CLD))


def _p_coefficients(params: EnsembleParams, n: int) -> list[Fraction]:
    """Exact rational coefficients of the monic P_n."""
    pref = Fraction((-1) ** n)
    for v in params.nu:
        pref *= Fraction(math.factorial(v + n), math.factorial(v))
    for m in params.mu:
        pref *= Fraction(math.factorial(m + params.N - n - 1), math.factorial(m + params.N - 1))
    upper = [Fraction(-n)] + [Fraction(1 - m - params.N) for m in params.mu]
    lower = [Fraction(1 + v) for v in params.nu]
    coeffs = []
    term = Fraction(1)
    for k in range(n + 1):
        coeffs.append(pref * term * Fraction((-1) ** (params.s * k)))
        num = Fraction(1)
        for a in upper:
            num *= a + k
        den = Fraction(k + 1)
        for b in lower:
            den *= b + k
        term = term * num / den
    return coeffs


def _ld_coefficients(params: EnsembleParams) -> list[list[np.longdouble]]:
    """The coefficients of P_0..P_{N-1}, lowest first, rounded to longdouble."""
    return [[_frac_to_ld(c) for c in _p_coefficients(params, n)] for n in range(params.N)]


def _p_matrix(coeffs: list[list[np.longdouble]], x: np.ndarray) -> np.ndarray:
    """The rows P_n(x) by Horner's rule on their coefficients (_ld_coefficients)."""
    out = np.empty((len(coeffs), len(x)), dtype=LD)
    for n, row in enumerate(coeffs):
        acc = np.full_like(x, row[-1])
        for c in reversed(row[:-1]):
            acc = acc * x + c
        out[n] = acc
    return out


def gram_quadrature(params: EnsembleParams, lo: float, hi: float):
    """Nodes, weights, P and Q in extended precision, on the ln-x trapezoid
    grid over [lo, hi] on which every Gram entry has settled to GRAM_TOL;
    the P coefficients are rounded once, for every level."""
    from .finite_kernel import pq_trapezoid

    return pq_trapezoid(params, lo, hi, partial(_p_matrix, _ld_coefficients(params)),
                        lambda p, q: p[:, None, :] * q[None, :, :], GRAM_TOL, LD)


def gram_matrix(params: EnsembleParams, lo: float, hi: float) -> np.ndarray:
    """∫_0^∞ P_n Q_l dx over the given support window, in extended precision."""
    _, weights, p_mat, q_mat = gram_quadrature(params, lo, hi)
    return ((p_mat * weights) @ q_mat.T).astype(float)
