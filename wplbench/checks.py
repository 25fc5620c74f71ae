"""Comparisons of a wpl output against its reference.

Each check returns an Outcome.  `err` is the relative error of a
deterministic value against an independent reference or a route that must
agree with it; statistical checks leave it None, so that they never enter
the digits metrics.  Any NaN or inf in an output fails its check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Outcome:
    ok: bool
    err: float | None = None
    note: str = ""


def digits(err: float) -> float:
    """-log10 of a relative error, capped at double precision."""
    return -math.log10(max(err, EPS))


def both(a: Outcome, b: Outcome) -> Outcome:
    """Two checks on one output: both must pass; the larger error counts."""
    errs = [e for e in (a.err, b.err) if e is not None]
    return Outcome(a.ok and b.ok, max(errs) if errs else None, f"{a.note}; {b.note}")


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def pointwise(values, ref, tol: float) -> Outcome:
    """max_i |v_i - ref_i| / |ref_i| <= tol (for quantities bounded away from 0)."""
    v, r = np.asarray(values, dtype=float), np.asarray(ref, dtype=float)
    if v.shape != r.shape or not _finite(v, r):
        return Outcome(False, None, "shape or non-finite")
    err = float(np.max(np.abs(v - r) / np.abs(r)))
    return Outcome(err <= tol, err, f"pointwise rel {err:.3g} (tol {tol:g})")


def normwise(values, ref, tol: float) -> Outcome:
    """max |v - ref| / max |ref| <= tol (for kernels, which change sign)."""
    v, r = np.asarray(values, dtype=float), np.asarray(ref, dtype=float)
    if v.shape != r.shape or not _finite(v, r):
        return Outcome(False, None, "shape or non-finite")
    err = float(np.max(np.abs(v - r)) / np.max(np.abs(r)))
    return Outcome(err <= tol, err, f"normwise rel {err:.3g} (tol {tol:g})")


def scaled(values, ref, scale, tol: float) -> Outcome:
    """max_i |v_i - ref_i| / scale_i <= tol.

    For a kernel entry K(x, y) the scale sqrt(K(x, x) K(y, y)) is its natural
    size, which an entry near a zero crossing would otherwise misstate.
    """
    v, r, sc = (np.asarray(a, dtype=float) for a in (values, ref, scale))
    if v.shape != r.shape or not _finite(v, r):
        return Outcome(False, None, "shape or non-finite")
    err = float(np.max(np.abs(v - r) / sc))
    return Outcome(err <= tol, err, f"scaled rel {err:.3g} (tol {tol:g})")


def agreement(outcome: Outcome) -> Outcome:
    """Two wpl routes that must agree: checked, but not an error against an
    independent reference, so it stays out of the digits metrics."""
    return Outcome(outcome.ok, None, "routes: " + outcome.note)


def identity(gram, tol: float) -> Outcome:
    """A Gram matrix of a biorthogonal pair: max |G - I| <= tol."""
    g = np.asarray(gram, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or not _finite(g):
        return Outcome(False, None, "shape or non-finite")
    err = float(np.max(np.abs(g - np.eye(g.shape[0]))))
    return Outcome(err <= tol, err, f"max |G - I| {err:.3g} (tol {tol:g})")


def ks_distance(sample, cdf, bound: float) -> Outcome:
    """Kolmogorov-Smirnov distance of a pooled sample from a CDF, <= bound."""
    x = np.sort(np.asarray(sample, dtype=float))
    if x.size == 0 or not _finite(x):
        return Outcome(False, None, "empty or non-finite sample")
    f = cdf(x)
    n = x.size
    d = float(np.max(np.maximum(np.arange(1, n + 1) / n - f, f - np.arange(n) / n)))
    return Outcome(d <= bound, None, f"KS {d:.4f} (bound {bound:g})")


def moments(sample, exact, tol: float) -> Outcome:
    """Sample moments m_p = mean(x^p), p = 1.., within tol relative of `exact`."""
    x = np.asarray(sample, dtype=float)
    if x.size == 0 or not _finite(x):
        return Outcome(False, None, "empty or non-finite sample")
    rel = [abs(float(np.mean(x ** (p + 1))) / float(m) - 1.0) for p, m in enumerate(exact)]
    worst = max(rel)
    return Outcome(worst <= tol, None, f"moment rel {worst:.4f} (tol {tol:g})")


def z_scores(mean, stderr, exact, bound: float) -> Outcome:
    """Monte Carlo means within `bound` standard errors of the exact values."""
    m, e, x = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (mean, stderr, exact))
    if not _finite(m, e, x) or np.any(e <= 0):
        return Outcome(False, None, "non-finite mean or stderr")
    z = float(np.max(np.abs(m - x) / e))
    return Outcome(z <= bound, None, f"max |z| {z:.2f} (bound {bound:g})")
