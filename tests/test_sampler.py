"""Monte Carlo engine tests."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

from wpl import finite_kernel as fk
from wpl import freeprob as fp
from wpl import sampler as sp
from wpl.errors import AlreadyScaled, DomainError, EmptySample
from wpl.freeprob import EnsembleParams
from wpl.sampler import RngStream, Scaling


def test_ginibre_moments_and_independence():
    g = RngStream(12).generator()
    m = sp._ginibre(g, 1000, 1000)
    assert np.mean(np.abs(m) ** 2) == pytest.approx(1.0, abs=0.004)
    assert np.mean(m.real * m.imag) == pytest.approx(0.0, abs=0.004)


def test_ginibre_determinism_and_stream_independence():
    a = sp.sample_ginibre(5, 3, RngStream(7, 2))
    b = sp.sample_ginibre(5, 3, RngStream(7, 2))
    c = sp.sample_ginibre(5, 3, RngStream(7, 3))
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)


def _same_state(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def test_triangular_factor_draws_only_what_it_keeps():
    # one factor takes N(N-1) normals (the real, then the imaginary parts of
    # the strict upper triangle) and then the N gammas of the diagonal
    n, N = 9, 6
    gen, twin = RngStream(51).generator(), RngStream(51).generator()
    R = sp._triangular_factor(gen, 1, n, N)[0]
    normals = twin.standard_normal(N * (N - 1))
    gammas = twin.standard_gamma(n - np.arange(N))
    assert _same_state(gen.bit_generator.state, twin.bit_generator.state)
    re, im = np.split(normals, 2)
    assert np.array_equal(R[np.triu_indices(N, 1)], (re + 1j * im) / math.sqrt(2.0))
    assert np.array_equal(np.diag(R), np.sqrt(gammas))
    assert np.all(R[np.tril_indices(N, -1)] == 0)


def test_triangular_factor_upper_entries_are_circular():
    # E|z|^2 = 1 and E z^2 = 0 over the strict upper triangles of one batch;
    # |z|^2 ~ Exp(1), Re z^2 and Im z^2 each have variance 1
    N, draws = 8, 4000
    R = sp._triangular_factor(RngStream(52).generator(), draws, N + 2, N)
    i, j = np.tril_indices(N, -1)
    assert np.all(R[:, i, j] == 0)
    z = R[:, j, i].ravel()
    sigma = 1.0 / math.sqrt(z.size)
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 4.0 * sigma
    assert abs(np.mean(z**2).real) < 4.0 * sigma
    assert abs(np.mean(z**2).imag) < 4.0 * sigma


def test_induced_square_matches_plain_at_n_equals_N():
    # the triangular factor of an N x N draw (exponent 0) has the singular
    # values of a plain N x N Ginibre matrix
    N, draws = 8, 1500
    gen = RngStream(21).generator()
    tri = sp._triangular_factor(gen, draws, N, N)
    plain = sp._ginibre(RngStream(22).generator(), draws, N, N)
    s_tri = np.linalg.svd(tri, compute_uv=False)[:, 0]
    s_pln = np.linalg.svd(plain, compute_uv=False)[:, 0]
    assert scipy.stats.ks_2samp(s_tri, s_pln).pvalue > 0.01


def test_induced_square_trace_mean():
    # E Tr R†R = E Tr H†H = n N; an off-by-one in the Gamma shapes moves it by N
    n, N, draws = 6, 4, 60_000
    gen = RngStream(31).generator()
    m = sp._triangular_factor(gen, draws, n, N)
    traces = np.einsum("bij,bij->b", m, np.conj(m)).real
    mean = traces.mean()
    sigma = traces.std(ddof=1) / math.sqrt(draws)
    assert abs(mean - n * N) < 3.0 * sigma


def test_induced_square_scalar_is_gamma():
    # N=1: |R|^2 ~ Gamma(n, 1)
    n, draws = 5, 100_000
    gen = RngStream(41).generator()
    m = sp._triangular_factor(gen, draws, n, 1)
    vals = np.abs(m[:, 0, 0]) ** 2
    ecdf = sp.empirical_cdf(vals)
    ks = sp.sup_distance(ecdf, lambda t: scipy.special.gammainc(n, np.asarray(t)))
    assert ks < 0.02


def _bidiagonal(d, e):
    """Dense batch of the upper-bidiagonal matrices with diagonals d and superdiagonals e."""
    N = d.shape[-1]
    D = np.zeros(d.shape + (N,))
    i = np.arange(N)
    D[:, i, i] = d
    D[:, i[:-1], i[1:]] = e
    return D


def test_bidiagonal_factor_draws_only_what_it_keeps():
    # one factor takes the N gammas of the diagonal, then the N - 1 gammas
    # of the superdiagonal, and nothing else
    n, N = 9, 6
    gen, twin = RngStream(53).generator(), RngStream(53).generator()
    d, e = sp._bidiagonal_factor(gen, 1, n, N)
    diag = twin.standard_gamma(n - np.arange(N))
    sup = twin.standard_gamma(N - 1 - np.arange(N - 1))
    assert _same_state(gen.bit_generator.state, twin.bit_generator.state)
    assert np.array_equal(d[0], np.sqrt(diag))
    assert np.array_equal(e[0], np.sqrt(sup))


def test_times_bidiagonal_is_the_product():
    R = sp._triangular_factor(RngStream(54).generator(), 3, 7, 5)
    d, e = sp._bidiagonal_factor(RngStream(55).generator(), 3, 7, 5)
    assert np.allclose(sp._times_bidiagonal(R, d, e), R @ _bidiagonal(d, e), rtol=1e-14, atol=0.0)


def test_bidiagonal_factor_trace_mean():
    # E Tr D^T D = sum of the Gamma shapes = n N, as for the triangular factor
    n, N, draws = 6, 4, 60_000
    d, e = sp._bidiagonal_factor(RngStream(33).generator(), draws, n, N)
    traces = (d**2).sum(axis=1) + (e**2).sum(axis=1)
    sigma = traces.std(ddof=1) / math.sqrt(draws)
    assert abs(traces.mean() - n * N) < 3.0 * sigma


def test_bidiagonal_factor_matches_triangular_singular_values():
    # D and R are each an n x N Ginibre draw up to unitaries, so their
    # singular values share one law
    n, N, draws = 10, 8, 1500
    D = _bidiagonal(*sp._bidiagonal_factor(RngStream(23).generator(), draws, n, N))
    R = sp._triangular_factor(RngStream(24).generator(), draws, n, N)
    s_bid = np.linalg.svd(D, compute_uv=False)[:, 0]
    s_tri = np.linalg.svd(R, compute_uv=False)[:, 0]
    assert scipy.stats.ks_2samp(s_bid, s_tri).pvalue > 0.01


@pytest.mark.parametrize("nu, mu", (((1, 0), ()), ((2,), (4,)), ((0, 1), (5,)), ((1,), (4, 6)), ((), (4,))))
def test_product_trace_mean_exact(nu, mu):
    # E Tr X†X = N prod_j (N + nu_j) / prod_k mu_k: E A†A = prod_j (N + nu_j) I,
    # and each inverse factor gives E (G†G)^{-1} = I / mu (complex inverse
    # Wishart); mu >= 4 keeps enough moments finite for the sample's own
    # standard error, which is about 1% of the mean at 5000 draws
    N, draws = 3, 5000
    params = EnsembleParams(N=N, r=len(nu), s=len(mu), nu=nu, mu=mu)
    rng = RngStream(91)
    traces = np.array(
        [sp.sample_product_spectrum(params, rng.substream(i)).eigenvalues.sum() for i in range(draws)]
    )
    exact = N * math.prod(N + v for v in nu) / math.prod(mu)
    z = (traces.mean() - exact) / (traces.std(ddof=1) / math.sqrt(draws))
    assert abs(z) <= 4.0


def test_product_spectrum_psd_and_sorted():
    params = EnsembleParams(N=20, r=2, s=1, nu=(0, 1), mu=(0,))
    smp = sp.sample_product_spectrum(params, RngStream(5))
    eig = smp.eigenvalues
    assert np.all(np.diff(eig) >= 0)
    assert eig[0] >= -1e-10 * eig[-1]
    assert smp.scaling is Scaling.RAW


def test_product_spectrum_determinism():
    params = EnsembleParams(N=10, r=1, s=1, nu=(0,), mu=(1,))
    a = sp.sample_product_spectrum(params, RngStream(9, 1))
    b = sp.sample_product_spectrum(params, RngStream(9, 1))
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("r, s", ((10, 0), (4, 2), (1, 1), (2, 1)))
def test_product_spectrum_extremes_match_mpmath(r, s, seed):
    # rebuild the draw's factors from the same stream (the first factor of
    # B's chain, or of A's at s = 0, is the bidiagonal), multiply them and
    # invert the inverse chain at 40 digits, and compare the smallest and
    # largest eigenvalue (their ratio is 1e-22 at r = 10); (1,1) and (2,1)
    # take the banded solve alone, (4,2) a triangular solve after it
    mpmath = pytest.importorskip("mpmath")
    params = EnsembleParams(N=30, r=r, s=s, nu=(0,) * r, mu=(0,) * s)
    eig = sp.sample_product_spectrum(params, RngStream(seed)).eigenvalues
    gen = RngStream(seed).generator()
    N, lead = params.N, 1 if s else 0
    with mpmath.workdps(40):
        chains = []
        for k, exponents in enumerate((params.nu, params.mu)):
            R = mpmath.eye(N)
            for j, e in enumerate(exponents):
                if k == lead and j == 0:
                    F = _bidiagonal(*sp._bidiagonal_factor(gen, 1, N + e, N))[0]
                else:
                    F = sp._triangular_factor(gen, 1, N + e, N)[0]
                R = mpmath.matrix(F.tolist()) * R
            chains.append(R)
        T = chains[0] * mpmath.inverse(chains[1]) if s else chains[0]
        sv = sorted(mpmath.svd_c(T, compute_uv=False))
        ref = np.array([float(sv[0] ** 2), float(sv[-1] ** 2)])
    assert np.allclose(eig[[0, -1]], ref, rtol=1e-8, atol=0.0)


def test_spectra_worker_invariance():
    params = EnsembleParams(N=12, r=2, s=1, nu=(0, 1), mu=(0,))
    one = sp.sample_spectra(params, 6, RngStream(78), workers=1)
    two = sp.sample_spectra(params, 6, RngStream(78), workers=2)
    assert all(np.array_equal(a.eigenvalues, b.eigenvalues) for a, b in zip(one, two))


def test_mp_spectrum_ks():
    params = EnsembleParams(N=200, r=1, s=0, nu=(0,))
    samples = sp.sample_spectra(params, 40, RngStream(3), scaling=Scaling.GLOBAL)
    eig = np.concatenate([s.eigenvalues for s in samples])

    def mp(y):
        y = np.asarray(y)
        out = np.zeros_like(y)
        m = (y > 0) & (y < 4)
        out[m] = np.sqrt(y[m] * (4 - y[m])) / (2 * np.pi * y[m])
        return out

    cdf = sp.CdfFromDensity(mp, 0.0, 4.0)
    assert sp.sup_distance(sp.empirical_cdf(eig), cdf) < 0.03


def test_global_density_cdf_ks():
    # CdfFromDensity hands global_density an array of panel nodes
    params = EnsembleParams(N=200, r=2, s=0, nu=(0, 0))
    samples = sp.sample_spectra(params, 8, RngStream(5), scaling=Scaling.GLOBAL)
    eig = np.concatenate([s.eigenvalues for s in samples])
    cdf = sp.CdfFromDensity(lambda x: fp.global_density(2, 0, x), 0.0, 27.0 / 4.0)
    assert cdf.total == pytest.approx(1.0, abs=1e-3)
    assert sp.sup_distance(sp.empirical_cdf(eig), cdf) <= 0.03


def test_scalar_product_moments():
    # N=1, r=2, s=0: eigenvalue |g2|^2 |g1|^2, mean 1, second moment 4
    params = EnsembleParams(N=1, r=2, s=0, nu=(0, 0))
    vals = np.array(
        [sp.sample_product_spectrum(params, RngStream(1).substream(i)).eigenvalues[0] for i in range(40_000)]
    )
    m1, m2 = vals.mean(), (vals**2).mean()
    s1 = vals.std(ddof=1) / math.sqrt(len(vals))
    s2 = (vals**2).std(ddof=1) / math.sqrt(len(vals))
    assert abs(m1 - 1.0) < 3 * s1
    assert abs(m2 - 4.0) < 3 * s2


def test_rescale_exponents():
    params = EnsembleParams(N=100, r=1, s=0, nu=(0,))
    smp = sp.SpectrumSample(params, np.array([400.0]), Scaling.RAW)
    assert sp.rescale(smp, Scaling.GLOBAL).eigenvalues[0] == pytest.approx(4.0)
    params11 = EnsembleParams(N=100, r=1, s=1, nu=(0,), mu=(0,))
    smp11 = sp.SpectrumSample(params11, np.array([2.0]), Scaling.RAW)
    assert sp.rescale(smp11, Scaling.GLOBAL).eigenvalues[0] == pytest.approx(2.0)
    params20 = EnsembleParams(N=50, r=2, s=0, nu=(0, 0))
    smp20 = sp.SpectrumSample(params20, np.array([2500.0]), Scaling.RAW)
    assert sp.rescale(smp20, Scaling.GLOBAL).eigenvalues[0] == pytest.approx(1.0)
    with pytest.raises(AlreadyScaled):
        sp.rescale(sp.rescale(smp20, Scaling.GLOBAL), Scaling.HARD_EDGE)


def test_mc_charpoly_scalar_cases():
    # N=1, r=1, s=0: <det(lam - |g|^2)> = lam - 1
    p10 = EnsembleParams(N=1, r=1, s=0, nu=(0,))
    mean, err = sp.mc_charpoly(p10, 2.0, 40_000, RngStream(11))
    assert abs(mean - 1.0) < 3 * err
    # N=1, r=1, s=1: exact lam - 1 as well
    p11 = EnsembleParams(N=1, r=1, s=1, nu=(0,), mu=(0,))
    mean, err = sp.mc_charpoly(p11, 2.0, 40_000, RngStream(12))
    assert abs(mean - 1.0) < 3 * err
    with pytest.raises(DomainError):
        sp.mc_charpoly(p11, 2.0, 50, RngStream(1))


@pytest.mark.parametrize("nu, mu", (((0, 1), ()), ((1,), (0,)), ((0,), (1, 0)), ((), (2,))))
def test_mc_charpoly_matches_exact(nu, mu):
    # the bidiagonal starts A's chain at s = 0 and B's otherwise, so these
    # cases put it on each side of the pencil det(lam B†B - A†A)
    params = EnsembleParams(N=3, r=len(nu), s=len(mu), nu=nu, mu=mu)
    lam = np.array([0.5, 1.0, 2.0])
    mean, err = sp.mc_charpoly(params, lam, 40_000, RngStream(57))
    exact = np.array([fk.charpoly_exact(params, float(v)) for v in lam])
    assert np.all(np.abs(mean - exact) <= 4.0 * err)


def test_mc_charpoly_worker_invariance():
    p = EnsembleParams(N=2, r=1, s=1, nu=(0,), mu=(0,))
    m1, e1 = sp.mc_charpoly(p, 1.5, 5000, RngStream(77), workers=1)
    m2, e2 = sp.mc_charpoly(p, 1.5, 5000, RngStream(77), workers=4)
    assert m1 == m2 and e1 == e2


def test_cauchy_triple_scalar_oracle():
    # N=1, a=b=0: mean of s3 s2/(s1+s2) against 2D quadrature of the density
    vals = np.array([sp.sample_cauchy_triple(1, 0, 0, RngStream(2).substream(i))[0] for i in range(30_000)])
    oracle, _ = scipy.integrate.dblquad(
        lambda s2, s1: s2 / (s1 + s2) * math.exp(-s1 - s2), 0, 30, 0, 30
    )
    # E[s3] = 1 multiplies the quadrature value
    mean = vals.mean()
    sig = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(mean - oracle) < 3 * sig


def test_cauchy_triple_seed_exchangeability():
    # permuting the G1 seed leaves the law unchanged: largest eigenvalues
    a = [sp.sample_cauchy_triple(6, 0, 0, RngStream(100).substream(i))[-1] for i in range(1500)]
    b = [sp.sample_cauchy_triple(6, 0, 0, RngStream(200).substream(i))[-1] for i in range(1500)]
    assert scipy.stats.ks_2samp(a, b).pvalue > 0.01


def test_square_factor_reordering_invariance():
    # the spectrum's law is symmetric in the exponents nu
    a, b = [], []
    for i in range(2500):
        for nu, seed, out in (((0, 2), 300, a), ((2, 0), 301, b)):
            params = EnsembleParams(N=20, r=2, s=0, nu=nu)
            out.append(sp.sample_product_spectrum(params, RngStream(seed).substream(i)).eigenvalues[-1])
    assert scipy.stats.ks_2samp(a, b).pvalue > 0.01


def test_matrix_f_jacobi_limit():
    # (XG4): lambda = 1/(1+y) empirical law approaches arcsine, alpha-independent
    arcsine = lambda t: (2 / np.pi) * np.arcsin(np.sqrt(np.clip(t, 0, 1)))
    for alpha, seed in ((0, 61), (2, 62)):
        N, M = 100, 100 + alpha
        eig = np.concatenate([sp.sample_matrix_f(N, M, RngStream(seed).substream(i)) for i in range(40)])
        lam = 1.0 / (1.0 + eig)
        assert sp.sup_distance(sp.empirical_cdf(lam), arcsine) < 0.03


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_matrix_f_smallest_eigenvalue_matches_mpmath(seed):
    # redraw A and B from the same stream, in the sampler's order, and take
    # the SVD of A^{-1} B at 40 digits; eigvalsh(C†C) was 1.3e-10 off at seed 2
    mpmath = pytest.importorskip("mpmath")
    eig = sp.sample_matrix_f(30, 30, RngStream(seed))
    gen = RngStream(seed).generator()
    A, B = sp._ginibre(gen, 30, 30), sp._ginibre(gen, 30, 30)
    with mpmath.workdps(40):
        C = mpmath.inverse(mpmath.matrix(A.tolist())) * mpmath.matrix(B.tolist())
        ref = float(min(mpmath.svd_c(C, compute_uv=False)) ** 2)
    assert eig[0] == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_empirical_cdf_and_sup_distance():
    e = sp.empirical_cdf([1.0, 2.0, 3.0])
    assert e(2.5) == pytest.approx(2.0 / 3.0)
    with pytest.raises(EmptySample):
        sp.empirical_cdf([])
    g = RngStream(8).generator()
    u = g.uniform(0, 1, 100_000)
    assert sp.sup_distance(sp.empirical_cdf(u), lambda t: np.clip(t, 0, 1)) < 0.01


def test_sup_distance_detects_wrong_density():
    # MP-distributed data against the arcsine CDF is far off
    params = EnsembleParams(N=100, r=1, s=0, nu=(0,))
    samples = sp.sample_spectra(params, 20, RngStream(71), scaling=Scaling.GLOBAL)
    lam = 1.0 / (1.0 + np.concatenate([s.eigenvalues for s in samples]))
    arcsine = lambda t: (2 / np.pi) * np.arcsin(np.sqrt(np.clip(t, 0, 1)))
    assert sp.sup_distance(sp.empirical_cdf(lam), arcsine) > 0.2
