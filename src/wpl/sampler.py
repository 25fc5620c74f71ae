"""Monte Carlo engine for the product ensemble.

Draws X = G_r...G_1 (Gt_s...Gt_1)^{-1} as chains of triangular factors
whose first factor on one side (Gt_1, or G_1 at s = 0) is a real
bidiagonal, takes the eigenvalues of X†X as squared singular values,
estimates densities and moments, and provides the determinant oracle for
the generalized characteristic polynomial.

Randomness is counter-based (Philox) and keyed by (seed, stream_id): the
same key reproduces bit-identical draws on any platform, and distinct
stream ids are independent.  Monte Carlo loops are chunked with a fixed
chunk size, one stream per chunk, so results do not depend on the worker
count.  The environment variable WPL_THREADS caps the worker count a
caller asks for (`effective_workers`).
"""

from __future__ import annotations

import enum
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import AlreadyScaled, ConfigError, DomainError, EmptySample, NumericalSingularity
from .freeprob import EnsembleParams
from .specfun import gl_panels

_CHUNK = 1024
_RESAMPLE_CAP = 10


class Scaling(enum.Enum):
    RAW = "raw"
    GLOBAL = "global"
    HARD_EDGE = "hard_edge"


@dataclass(frozen=True)
class RngStream:
    """Keyed Philox stream: identical (seed, stream_id) replay bit-identically."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = (self.seed & 0xFFFFFFFFFFFFFFFF) | ((self.stream_id & 0xFFFFFFFFFFFFFFFF) << 64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, k: int) -> "RngStream":
        mixed = (self.stream_id * 0x9E3779B97F4A7C15 + k + 1) & 0xFFFFFFFFFFFFFFFF
        return RngStream(self.seed, mixed)


@dataclass(frozen=True)
class SpectrumSample:
    params: EnsembleParams
    eigenvalues: np.ndarray  # sorted ascending, nonnegative
    scaling: Scaling


def sample_ginibre(rows: int, cols: int, rng: RngStream) -> np.ndarray:
    """rows x cols matrix of i.i.d. standard complex Gaussians (E|z|^2 = 1)."""
    if rows < 1 or cols < 1:
        raise DomainError("matrix dimensions must be positive")
    return _ginibre(rng.generator(), rows, cols)


def _ginibre(gen: np.random.Generator, *shape: int) -> np.ndarray:
    re = gen.standard_normal(shape)
    im = gen.standard_normal(shape)
    return (re + 1j * im) / math.sqrt(2.0)


def _psd_sqrt(mats: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mats)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def _triangular_factor(gen: np.random.Generator, batch: int, n: int, N: int) -> np.ndarray:
    """batch of N x N upper-triangular R factors of n x N Ginibre draws.

    Bartlett: |R_ii|^2 ~ Gamma(n - i) for i = 0..N-1, entries above the
    diagonal CN(0, 1).  The N x N induced square with density
    ∝ (det M†M)^{n-N} e^{-Tr M†M} has the same R law.  Only the strict
    upper triangle is drawn, as `_ginibre` draws N(N-1)/2 complex normals
    (all real parts, then all imaginary parts), then the N gammas of the
    diagonal.
    """
    # flat indices of the strict upper triangle in row order: the entries
    # of row i - 1 sit i(i + 1)/2 past their rank
    i = np.arange(1, N)
    upper = np.arange(N * (N - 1) // 2) + np.repeat(i * (i + 1) // 2, N - i)
    R = np.zeros((batch, N * N), dtype=complex)
    # numpy divides a complex by a real c as a product with 1/c, so these
    # are `_ginibre`'s entries bit for bit, without its complex temporaries
    scale = 1.0 / math.sqrt(2.0)
    R.real[:, upper] = gen.standard_normal((batch, upper.size)) * scale
    R.imag[:, upper] = gen.standard_normal((batch, upper.size)) * scale
    R[:, :: N + 1] = np.sqrt(gen.standard_gamma(n - np.arange(N), size=(batch, N)))
    return R.reshape(batch, N, N)


def _bidiagonal_factor(gen: np.random.Generator, batch: int, n: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """batch of N x N real upper-bidiagonal factors D of n x N Ginibre draws.

    Dumitriu-Edelman: Householder bidiagonalisation G = U D V† leaves
    D_ii ~ sqrt Gamma(n - i) (the Bartlett diagonal) and
    D_{i,i+1} ~ sqrt Gamma(N - 1 - i), all independent, and since G is
    bi-unitarily invariant, U and V may be taken Haar and independent of
    D.  Returns the diagonal (N gammas) and the superdiagonal (N - 1
    gammas after them).
    """
    d = np.sqrt(gen.standard_gamma(n - np.arange(N), size=(batch, N)))
    e = np.sqrt(gen.standard_gamma(N - 1 - np.arange(N - 1), size=(batch, N - 1)))
    return d, e


def _times_bidiagonal(R: np.ndarray, d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """R D for D with diagonal d and superdiagonal e: column j is d_j R_j + e_{j-1} R_{j-1}."""
    RD = R * d[:, None, :]
    RD[:, :, 1:] += R[:, :, :-1] * e[:, None, :]
    return RD


def _chains(
    gen: np.random.Generator, params: EnsembleParams, batch: int
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """R_A, R_B and the bidiagonal D = (d, e) of a batch of draws.

    One draw of A = G_r...G_1 is Q_A R_r...R_1, since G_{k+1} Q_k is again
    Ginibre by unitary invariance, and likewise B = Q_B R'_s...R'_1.  The
    first factor of B (of A at s = 0) is drawn as U D V† instead: the next
    factor times U is again Ginibre, and V† either meets A's first factor,
    which absorbs it, or stands at an end of X, where it leaves the
    singular values alone.  So X = A B^{-1} has the singular values of
    R_A (R_B D)^{-1} (of R_A D at s = 0), and (A†A, B†B) is
    (R_A†R_A, D†R_B†R_B D) (at s = 0, (D†R_A†R_A D, I)) up to one common
    unitary conjugation.  R_A and R_B are the triangular products past D,
    the identity where that is empty.
    """
    N = params.N
    eye = np.broadcast_to(np.eye(N), (batch, N, N))
    lead = 1 if params.s else 0
    chains = []
    for k, exponents in enumerate((params.nu, params.mu)):
        if k == lead:
            D = _bidiagonal_factor(gen, batch, N + exponents[0], N)
            exponents = exponents[1:]
        R = eye
        for e in exponents:
            F = _triangular_factor(gen, batch, N + e, N)
            R = F if R is eye else F @ R
        chains.append(R)
    return chains[0], chains[1], D


def sample_product_spectrum(params: EnsembleParams, rng: RngStream) -> SpectrumSample:
    """Eigenvalues of X†X for one draw of the factor chain (raw scaling).

    They are the squared singular values of T = R_A D^{-1} R_B^{-1} (of
    T = R_A D at s = 0), never the eigenvalues of T†T, whose condition
    number is the square of T's.  T† comes from one banded solve with D^T
    and, at s >= 2, one triangular solve, then the SVD.
    """
    import scipy.linalg  # here, not at module level: it is most of wpl's import time

    R_A, R_B, (d, e) = _chains(rng.generator(), params, 1)
    if params.s == 0:
        T = _times_bidiagonal(R_A, d, e)[0]
    else:
        # D^T in banded form: d on the diagonal, e below it
        T = scipy.linalg.solve_banded((1, 0), np.stack([d[0], np.append(e[0], 0.0)]), R_A[0].conj().T)
        if params.s > 1:
            T = scipy.linalg.solve_triangular(R_B[0], T, trans="C")
    eig = np.sort(np.linalg.svd(T, compute_uv=False) ** 2)
    return SpectrumSample(params=params, eigenvalues=eig, scaling=Scaling.RAW)


def rescale(sample: SpectrumSample, target: Scaling) -> SpectrumSample:
    """Move a raw sample to global (x N^{s-r}) or hard-edge (x N^{s+1}) units."""
    if sample.scaling is not Scaling.RAW:
        raise AlreadyScaled(f"sample already in {sample.scaling.value} scaling")
    p = sample.params
    if target is Scaling.RAW:
        return sample
    if target is Scaling.GLOBAL:
        factor = float(p.N) ** (p.s - p.r)
    elif target is Scaling.HARD_EDGE:
        factor = float(p.N) ** (p.s + 1)
    else:
        raise DomainError(f"unknown scaling {target}")
    return replace(sample, eigenvalues=sample.eigenvalues * factor, scaling=target)


def effective_workers(requested: int) -> int:
    """Worker count after the WPL_THREADS cap."""
    cap = os.environ.get("WPL_THREADS")
    if cap is None:
        return max(1, requested)
    try:
        cap_n = int(cap)
    except ValueError as exc:
        raise ConfigError(f"WPL_THREADS must be an integer, got {cap!r}") from exc
    return max(1, min(requested, cap_n))


def _map(fn, items, workers: int) -> list:
    """[fn(item) for item in items], in order, on effective_workers(workers) threads."""
    n_workers = effective_workers(workers)
    if n_workers == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, items))


def sample_spectra(
    params: EnsembleParams,
    draws: int,
    rng: RngStream,
    scaling: Scaling = Scaling.RAW,
    workers: int = 1,
) -> list[SpectrumSample]:
    """Independent spectra, one substream per draw (worker-count invariant)."""

    def one(i: int) -> SpectrumSample:
        s = sample_product_spectrum(params, rng.substream(i))
        return rescale(s, scaling) if scaling is not Scaling.RAW else s

    return _map(one, range(draws), workers)


# --------------------------------------------------------------------------
# Characteristic polynomial Monte Carlo oracle
# --------------------------------------------------------------------------


def _charpoly_chunk(params: EnsembleParams, lam: np.ndarray, rng: RngStream, size: int) -> np.ndarray:
    R_A, R_B, (d, e) = _chains(rng.generator(), params, size)
    if params.s:
        R_B = _times_bidiagonal(R_B, d, e)
    else:
        R_A = _times_bidiagonal(R_A, d, e)
    AhA = np.conj(np.swapaxes(R_A, -1, -2)) @ R_A
    BhB = np.conj(np.swapaxes(R_B, -1, -2)) @ R_B
    out = np.empty((len(lam), size))
    for i, lv in enumerate(lam):
        out[i] = np.linalg.det(lv * BhB - AhA).real
    return out


def mc_charpoly(
    params: EnsembleParams,
    lam,
    samples: int,
    rng: RngStream,
    workers: int = 1,
):
    """Monte Carlo mean and standard error of det(lam B†B - A†A).

    A†A and B†B come from the factor chains: R_A†R_A and D†R_B†R_B D, or
    D†R_A†R_A D and the identity at s = 0.  They are the true pair up to
    one common unitary conjugation, which leaves the determinant alone.
    `lam` may be a scalar or a vector (shared draws, per-lambda statistics).
    """
    if samples < 100:
        raise DomainError("mc_charpoly requires at least 100 samples")
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    scalar = np.ndim(lam) == 0
    chunks = [(i, min(_CHUNK, samples - i * _CHUNK)) for i in range((samples + _CHUNK - 1) // _CHUNK)]

    def one(arg):
        idx, size = arg
        return _charpoly_chunk(params, lam_arr, rng.substream(idx), size)

    vals = np.concatenate(_map(one, chunks, workers), axis=1)
    mean = vals.mean(axis=1)
    stderr = vals.std(axis=1, ddof=1) / math.sqrt(vals.shape[1])
    if scalar:
        return float(mean[0]), float(stderr[0])
    return mean, stderr


# --------------------------------------------------------------------------
# Cauchy two-matrix bridge
# --------------------------------------------------------------------------


def sample_cauchy_triple(N: int, a: int, b: int, rng: RngStream) -> np.ndarray:
    """Eigenvalues (raw, sorted) distributed as those of S3 S2 (S1+S2)^{-1}.

    S1 = G1†G1 (G1 N x N), S2 = G2†G2 (G2 (N+a+b) x N), S3 = G3†G3
    (G3 (N+a) x N).  Realized as the Hermitian matrix M S3 M† with
    M = S2^{1/2} (S1+S2)^{-1/2}, which has the same eigenvalue law.
    """
    if N < 1 or a < 0 or b < 0:
        raise DomainError("need N >= 1 and a, b >= 0")
    gen = rng.generator()
    for attempt in range(_RESAMPLE_CAP):
        g1 = _ginibre(gen, N, N)
        g2 = _ginibre(gen, N + a + b, N)
        g3 = _ginibre(gen, N + a, N)
        s1 = np.conj(g1.T) @ g1
        s2 = np.conj(g2.T) @ g2
        s3 = np.conj(g3.T) @ g3
        t = s1 + s2
        w, v = np.linalg.eigh(t)
        if w[0] <= 0:
            continue
        t_isqrt = (v / np.sqrt(w)) @ np.conj(v.T)
        m = _psd_sqrt(s2[None])[0] @ t_isqrt
        amat = m @ s3 @ np.conj(m.T)
        return np.sort(np.clip(np.linalg.eigvalsh(amat), 0.0, None))
    raise NumericalSingularity("S1 + S2 numerically singular repeatedly")


# --------------------------------------------------------------------------
# Matrix F-distribution reference construction (r = s = 1 with offsets)
# --------------------------------------------------------------------------


def sample_matrix_f(N: int, M: int, rng: RngStream) -> np.ndarray:
    """Eigenvalues of C†C, C = A^{-1}B with A (M x M) and B (M x N) Ginibre, as C's squared singular values."""
    if M < N:
        raise DomainError("need M >= N")
    gen = rng.generator()
    for attempt in range(_RESAMPLE_CAP):
        A = _ginibre(gen, M, M)
        B = _ginibre(gen, M, N)
        try:
            C = np.linalg.solve(A, B)
        except np.linalg.LinAlgError:
            continue
        return np.sort(np.linalg.svd(C, compute_uv=False) ** 2)
    raise NumericalSingularity("A numerically singular repeatedly")


# --------------------------------------------------------------------------
# Empirical CDF machinery
# --------------------------------------------------------------------------


class EmpiricalCdf:
    """Right-continuous step function of a sorted sample."""

    def __init__(self, values: np.ndarray):
        if len(values) == 0:
            raise EmptySample("empirical CDF of an empty sample")
        self.values = np.sort(np.asarray(values, dtype=float))
        self.n = len(self.values)

    def __call__(self, x) -> np.ndarray:
        idx = np.searchsorted(self.values, np.asarray(x, dtype=float), side="right")
        return idx / self.n


def empirical_cdf(values) -> EmpiricalCdf:
    return EmpiricalCdf(np.asarray(values, dtype=float))


def sup_distance(ecdf: EmpiricalCdf, analytic_cdf) -> float:
    """Kolmogorov-Smirnov sup |F_n - F| against a CDF callable."""
    f = np.asarray(analytic_cdf(ecdf.values), dtype=float)
    steps_hi = np.arange(1, ecdf.n + 1) / ecdf.n
    steps_lo = np.arange(0, ecdf.n) / ecdf.n
    return float(np.max(np.maximum(np.abs(steps_hi - f), np.abs(f - steps_lo))))


# CdfFromDensity's uniform panels over [lo, hi] and their Gauss-Legendre order and rule
_CDF_PANELS, _CDF_ORDER = 512, 12
_CDF_RULE = np.polynomial.legendre.leggauss(_CDF_ORDER)


class CdfFromDensity:
    """CDF of a density callback via panelwise Gauss-Legendre accumulation."""

    def __init__(self, density, lo: float, hi: float):
        self.lo, self.hi = float(lo), float(hi)
        edges = np.linspace(self.lo, self.hi, _CDF_PANELS + 1)
        # the first panel is split geometrically down to 1e-12 of its width:
        # the global densities have an integrable x^{-r/(r+1)} singularity at
        # lo = 0, where one uniform panel lost 2% of the mass at r = 2 and
        # linear interpolation across it was off by 0.07
        grade = self.lo + (edges[1] - self.lo) * np.geomspace(1e-12, 1.0, 40)
        edges = np.concatenate([[self.lo], grade, edges[2:]])
        nodes, weights = gl_panels(_CDF_RULE, edges)
        vals = np.asarray(density(nodes), dtype=float)
        panel = (vals * weights).reshape(-1, _CDF_ORDER).sum(axis=1)
        self.edges = edges
        self.cum = np.concatenate([[0.0], np.cumsum(panel)])
        self.total = self.cum[-1]

    def __call__(self, x):
        x = np.clip(np.asarray(x, dtype=float), self.lo, self.hi)
        return np.interp(x, self.edges, self.cum) / max(self.total, 1e-300)
