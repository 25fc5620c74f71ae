"""Finite-N biorthogonal machinery tests."""

import math
import re
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from numpy.polynomial import laguerre

from wpl import _hiprec
from wpl import finite_kernel as fk
from wpl import sampler as sp
from wpl import specfun as sf
from wpl.acceptance import _BIORTH_SETS
from wpl.errors import CoincidentPoints, DomainError, NonConvergent
from wpl.freeprob import EnsembleParams
from wpl.sampler import RngStream
from wpl.specfun import pi_in

P11 = EnsembleParams(N=4, r=1, s=1, nu=(0,), mu=(0,))
LAGUERRE = EnsembleParams(N=4, r=1, s=0, nu=(0,))


# --- constants -------------------------------------------------------------


def test_c_l_substitutions():
    p = EnsembleParams(N=2, r=1, s=1, nu=(0,), mu=(0,))
    assert fk.c_l(p, 0) == pytest.approx(1.0)
    assert fk.c_l(p, 1) == pytest.approx(-1.0)
    p2 = EnsembleParams(N=3, r=2, s=1, nu=(0, 1), mu=(2,))
    assert fk.c_l(p2, 1) == pytest.approx(-12.0)
    with pytest.raises(DomainError):
        fk.c_l(p, 2)


def test_c_l_sign_alternates():
    p = EnsembleParams(N=6, r=2, s=2, nu=(0, 1), mu=(0, 2))
    for l in range(6):
        assert math.copysign(1.0, fk.c_l(p, l)) == (-1.0) ** l


# --- P_n -------------------------------------------------------------------


def test_p_n_trivial():
    assert fk.p_n(P11, 0, 5.0) == pytest.approx(1.0)
    # r=1, s=0: monic Laguerre, P_1 = x - 1
    assert fk.p_n(LAGUERRE, 1, 3.0) == pytest.approx(2.0)


def test_p_n_is_monic_laguerre():
    for n in range(4):
        monic = (-1.0) ** n * math.factorial(n)
        for x in (0.5, 2.0):
            ref = monic * laguerre.Laguerre.basis(n)(x)
            assert fk.p_n(LAGUERRE, n, x) == pytest.approx(ref, rel=1e-12)


def test_p_n_overflow_raises():
    # P_59(1e6) ~ 1e354 and P_59(1e7) overflows to NaN: no inf or NaN escapes
    with pytest.raises(NonConvergent, match=r"P_59 is not finite at x = 1e\+06"):
        fk.p_n(EnsembleParams(N=60, r=1, s=0, nu=(0,)), 59, [1e6, 1e7])


def _p_row_by_pfq_loop(params, n, x):
    """P_n(x) as one pfq call a degree summed it: (-1)^n e^{log prefactor}
    times the terminating series, term by term-ratio recurrence."""
    upper = (-float(n),) + tuple(1.0 - mu - params.N for mu in params.mu)
    lower = tuple(1.0 + nu for nu in params.nu)
    z = x * (-1.0) ** params.s
    term = np.ones_like(z)
    total = term.copy()
    for k in range(n):
        num = 1.0
        for a in upper:
            num *= a + k
        den = float(k + 1)
        for b in lower:
            den *= b + k
        term = term * (num / den) * z
        total = total + term
    return (-1.0) ** n * math.exp(fk._p_log_prefactor(params, n)) * total


@pytest.mark.parametrize("params", [EnsembleParams(N=10, r=1, s=0, nu=(0,)),
                                    EnsembleParams(N=20, r=2, s=1, nu=(0, 1), mu=(0,)),
                                    EnsembleParams(N=40, r=1, s=0, nu=(0,)),
                                    EnsembleParams(N=6, r=2, s=2, nu=(0, 1), mu=(0, 1))])
def test_p_rows_are_bit_for_bit_the_per_degree_series(params):
    # all degrees in one loop, in the float operations and order of one
    # series a degree: the same bits, from p_matrix and from p_n
    x = np.geomspace(1e-3, 60.0, 37)
    ref = np.array([_p_row_by_pfq_loop(params, n, x) for n in range(params.N)])
    assert np.array_equal(fk.biorth_system(params).p_matrix(x), ref)
    for n in (0, 1, params.N - 1):
        assert np.array_equal(fk.p_n(params, n, x), ref[n])
        assert fk.p_n(params, n, 2.5) == _p_row_by_pfq_loop(params, n, np.array(2.5))
    if 0 not in params.mu:
        assert np.array_equal(fk.p_n(params, params.N, x), _p_row_by_pfq_loop(params, params.N, x))
    else:  # P_N's prefactor Γ(μ_p + N - n) has its pole: a WplError, not math's ValueError
        with pytest.raises(DomainError, match=rf"P_{params.N} .*mu = \({params.mu[0]}"):
            fk.p_n(params, params.N, x)


def test_p_matrix_overflow_names_the_least_degree():
    # P_45(1e7) is the first row to leave float64, as a p_n call a degree found it
    with pytest.raises(NonConvergent, match=r"P_45 is not finite at x = 1e\+07"):
        fk.biorth_system(EnsembleParams(N=60, r=1, s=0, nu=(0,))).p_matrix(np.array([3.0, 1e6, 1e7]))


def test_p_n_monic_by_finite_differences():
    # n-th forward difference at unit steps / n! extracts the leading coefficient
    p = EnsembleParams(N=4, r=2, s=1, nu=(0, 1), mu=(0,))
    for n in (1, 2, 3):
        vals = np.array([fk.p_n(p, n, float(k)) for k in range(n + 1)])
        lead = sum((-1.0) ** (n - k) * math.comb(n, k) * vals[k] for k in range(n + 1)) / math.factorial(n)
        assert lead == pytest.approx(1.0, rel=1e-12)


def test_p_2_gram_schmidt_oracle():
    # monic quadratic orthogonal to the Q-span, built from quadrature moments
    params = EnsembleParams(N=4, r=1, s=1, nu=(0,), mu=(0,))
    nodes, w, _, q_mat = fk._biorth_quadrature(params)
    mom = lambda k, l: float((nodes**k * w) @ q_mat[l])
    # solve for x^2 + c1 x + c0 with zero Q_0, Q_1 pairings
    A = np.array([[mom(0, 0), mom(1, 0)], [mom(0, 1), mom(1, 1)]])
    b = -np.array([mom(2, 0), mom(2, 1)])
    c0, c1 = np.linalg.solve(A, b)
    for x in (0.3, 1.5):
        oracle = x**2 + c1 * x + c0
        assert fk.p_n(params, 2, x) == pytest.approx(oracle, rel=1e-9)


# --- Q_l -------------------------------------------------------------------


def test_q_0_is_laguerre_weight():
    xs = np.array([0.3, 1.0, 2.5])
    assert np.allclose(fk.q_l(LAGUERRE, 0, xs), np.exp(-xs), rtol=1e-12)


def test_q_l_matches_classical_laguerre():
    for l in range(4):
        for x in (0.7, 1.7):
            ref = (-1.0) ** l / math.factorial(l) * laguerre.Laguerre.basis(l)(x) * math.exp(-x)
            assert fk.q_l(LAGUERRE, l, x) == pytest.approx(ref, rel=1e-11)


def test_q_l_moment_conditions():
    # ∫ x^k Q_l dx = delta_{l,k} for k <= l (N=4, (1,1))
    nodes, w, _, q_mat = fk._biorth_quadrature(P11)
    for l in range(4):
        for k in range(l + 1):
            val = float((nodes**k * w) @ q_mat[l])
            assert val == pytest.approx(1.0 if k == l else 0.0, abs=1e-8)


def mellin_moments(params):
    """Exact ∫_0^∞ x^k Q_l dx, k, l < N: the Mellin integrand at u = -(k+1),
    Γ(k+1) Π Γ(ν_j+k+1) Π Γ(μ_p+N-k) / (Γ(k+1-l) |C_l|); 0 for k < l, 1 for k = l."""
    N = params.N
    out = np.zeros((N, N), dtype=object)
    for k in range(N):
        for l in range(k + 1):
            num = math.factorial(k)
            den = math.factorial(k - l) * math.factorial(l)
            for v in params.nu:
                num *= math.factorial(v + k)
                den *= math.factorial(v + l)
            for m in params.mu:
                num *= math.factorial(m + N - k - 1)
                den *= math.factorial(m + N - l - 1)
            out[k, l] = Fraction(num, den)
    return out


def moment_error(nodes, weights, q_mat, exact):
    N = len(q_mat)
    num = np.array([[(nodes**k * weights) @ q_mat[l] for l in range(N)] for k in range(N)])
    ref = np.array([[_hiprec._frac_to_ld(v) for v in row] for row in exact])
    return float(np.max(np.abs(num - ref) / np.maximum(np.abs(ref), 1.0)))


@pytest.mark.parametrize("params", _BIORTH_SETS, ids=lambda p: f"r{p.r}s{p.s}")
def test_q_mellin_moments_float64(params):
    nodes, w, _, q_mat = fk._biorth_quadrature(params)
    assert len(nodes) <= 1000
    assert moment_error(nodes, w, q_mat, mellin_moments(params)) < 1e-8


def test_q_mellin_moments_longdouble():
    # (2,2): the algebraic tail is the double-precision engine's weak spot
    params = _BIORTH_SETS[2]
    lo, hi = fk._origin_cut(params), fk._support_cut(params, fk.biorth_system(params))
    nodes, w, _, q_mat = _hiprec.gram_quadrature(params, lo, hi)  # the grid of biorth_matrix
    assert q_mat.dtype == np.longdouble and len(nodes) <= 1000
    assert moment_error(nodes, w, q_mat, mellin_moments(params)) < 1e-11


@pytest.mark.parametrize("N", [6, 40, 100])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_q_rows_product_matches_log_gamma_rows(N, dtype):
    # ln Γ(-u)/Γ(-l-u) as a sum of ln(-u-k): the same real parts, and the
    # same imaginary parts mod 2π, on the mid and deep lines
    params = EnsembleParams(N=N, r=2, s=1, nu=(0, 1), mu=(0,))
    lg = fk.ln_gamma
    ls = np.arange(N)[:, None]
    for c in (-0.5, -(N + 0.5)):
        u = c + 1j * np.arange(-60.0, 60.25, 0.25).astype(dtype)
        rows = fk._q_log_rows(params, u)
        ref = fk._log_gammas(params, u) - lg(-ls - u)
        tol = 1e3 * np.finfo(dtype).eps * (1.0 + np.abs(lg(-u)) + np.abs(lg(-ls - u)))
        assert np.all(np.abs(rows.real - ref.real) <= tol)
        two_pi = 2 * pi_in(dtype)
        turns = (rows.imag - ref.imag) / two_pi
        assert np.all(np.abs(turns - np.round(turns)) * two_pi <= tol)


def _log_shared_by_factor(params, u):
    out = 0.0
    for nu in params.nu:
        out = out + sf.ln_gamma(nu - u)
    for mu in params.mu:
        out = out + sf.ln_gamma(1.0 + mu + params.N + u)
    return out


def _log_gammas_by_factor(params, u):
    return sf.ln_gamma(-u) + _log_shared_by_factor(params, u)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_gamma_products_are_their_factors_in_one_call(monkeypatch, dtype):
    # each gamma product is one ln_gamma call, bit for bit the sum of its
    # factors' own calls in order: on the mid and deep lines, at the
    # real points -(l+1) of |C_l| and on the double contour's circle
    calls = []
    ln_gamma = fk.ln_gamma

    def counting(z):
        calls.append(np.shape(z))
        return ln_gamma(z)

    for params in (EnsembleParams(N=10, r=2, s=1, nu=(0, 1), mu=(0,)), EnsembleParams(N=6, r=1, s=0, nu=(2,))):
        N = params.N
        t = (N - 1) / 2 + (N / 2 - 0.25) * np.exp(2j * np.pi * np.arange(40) / 40).astype(np.result_type(dtype, 1j))
        cases = [(fk._log_circle_g, t, lambda p, t: ln_gamma(t - p.N + 1.0) - _log_gammas_by_factor(p, -t - 1.0)),
                 (fk._log_gammas, -np.arange(1, N + 1).astype(dtype), _log_gammas_by_factor)]
        for c in (-0.5, -(N + 0.5)):
            u = c + 1j * np.arange(-60.0, 60.25, 0.25).astype(dtype)
            cases += [(fk._log_gammas, u, _log_gammas_by_factor), (fk._log_shared_gammas, u, _log_shared_by_factor)]
        for product, u, by_factor in cases:
            ref = by_factor(params, u)
            monkeypatch.setattr(fk, "ln_gamma", counting)
            calls.clear()
            got = product(params, u)
            monkeypatch.undo()
            assert got.dtype == ref.dtype and np.array_equal(got, ref) and len(calls) == 1, product


@lru_cache(maxsize=None)
def mpmath_q(params, l, x):
    """Q_l(x) as a 25-digit string: mpmath's G of q_l_meijer_spec over |C_l|."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        spec = fk.q_l_meijer_spec(params, l)
        abs_c = math.prod(math.factorial(k) for k in (l, *(v + l for v in params.nu),
                                                         *(m + params.N - l - 1 for m in params.mu)))
        g = mpmath.meijerg([spec.a[: spec.n], spec.a[spec.n:]], [spec.b[: spec.m], spec.b[spec.m:]], x)
        return mpmath.nstr(g / abs_c, 25)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_q_l_matches_mpmath_on_every_line(dtype):
    # the mid line (x <= 8), the deep line (s >= 1) and saddle lines (s = 0)
    # against mpmath to 1e3 eps x the line's unsigned mass
    xs = (0.01, 0.5, 3.0, 20.0, 60.0)
    for params in (_BIORTH_SETS[1], EnsembleParams(N=6, r=2, s=0, nu=(0, 1))):
        system = fk.BiorthSystem(params)
        q = system.q_matrix(np.array(xs, dtype=dtype))
        for j, x in enumerate(xs):
            if x <= fk._X_DEEP:
                line = system._line("mid", dtype)
            else:
                line = system._line("deep" if params.s else float(np.round(4.0 * np.log(x)) / 4.0), dtype)
            mass = np.exp(line.log_mass + line.c * np.log(dtype(x)))
            for l in range(params.N):
                ref = dtype(mpmath_q(params, l, x))
                assert abs(q[l, j] - ref) <= 1e3 * np.finfo(dtype).eps * mass[l], (params, l, x)


def residue_cluster_oracle(params, l, x, k_max=40, m_nodes=64, radius=0.3):
    """Q_l by summing residues of the Mellin-Barnes integrand over the right
    pole clusters u = 0, 1, 2, ... (valid for x < 1... r > s ensures entire).

    Small-circle trapezoid rule extracts residues of any multiplicity."""
    from wpl.specfun import ln_gamma

    total = 0.0
    for k in range(k_max):
        theta = 2.0 * math.pi * np.arange(m_nodes) / m_nodes
        u = k + radius * np.exp(1j * theta)
        log_f = ln_gamma(-u)
        for v in params.nu:
            log_f = log_f + ln_gamma(v - u)
        for m in params.mu:
            log_f = log_f + ln_gamma(1.0 + m + params.N + u)
        log_f = log_f - ln_gamma(-l - u)
        vals = np.exp(log_f + u * math.log(x))
        total += (radius / m_nodes) * float(np.sum(vals * np.exp(1j * theta)).real)
    return (-1.0) ** l * -total / math.exp(fk._log_abs_c(params, l)) * (-1.0) ** l


def test_q_l_residue_summation_oracle():
    # independent evaluation: minus the sum of right-pole residues
    params = EnsembleParams(N=5, r=2, s=1, nu=(0, 1), mu=(0,))
    for l in (0, 2):
        mine = fk.q_l(params, l, 1.0)
        oracle = residue_cluster_oracle(params, l, 1.0)
        assert mine == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("params", [EnsembleParams(N=10, r=2, s=1, nu=(0, 1), mu=(0,)),
                                    EnsembleParams(N=6, r=2, s=0, nu=(0, 1))], ids=["r2s1", "r2s0"])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_q_l_below_1e6_matches_mpmath(params, dtype):
    # the -1/2 line below x = 1e-6, against mpmath's G of q_l_meijer_spec
    # over |C_l| (the line carries no sign of C_l); the line's unsigned mass
    # grows like x^{-1/2}, and so does the bound
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    xs = (1e-12, 1e-9, 1e-7, 5e-7)
    q = fk.biorth_system(params).q_matrix(np.array(xs, dtype=dtype))
    scale = 5e-10 if dtype == np.float64 else 5e-13
    for l in range(params.N):
        spec = fk.q_l_meijer_spec(params, l)
        abs_c = math.prod(math.factorial(k) for k in (l, *(v + l for v in params.nu),
                                                         *(m + params.N - l - 1 for m in params.mu)))
        for j, x in enumerate(xs):
            g = mpmath.meijerg([spec.a[: spec.n], spec.a[spec.n:]], [spec.b[: spec.m], spec.b[spec.m:]], x)
            ref = dtype(mpmath.nstr(g / abs_c, 25))
            assert abs(q[l, j] - ref) <= scale * math.sqrt(1e-12 / x) * abs(ref), (l, x)


# --- kernel ----------------------------------------------------------------


def test_kernel_matches_laguerre_christoffel_darboux():
    # K_3(x,y) = e^{-y} sum_{l<3} L_l(x) L_l(y)
    p3 = EnsembleParams(N=3, r=1, s=0, nu=(0,))
    for (x, y) in ((0.5, 1.5), (2.0, 0.3)):
        ref = math.exp(-y) * sum(
            laguerre.Laguerre.basis(l)(x) * laguerre.Laguerre.basis(l)(y) for l in range(3)
        )
        assert fk.kernel_n(p3, x, y).value == pytest.approx(ref, rel=1e-10)


def test_kernel_biorth_vs_contour():
    p = EnsembleParams(N=3, r=1, s=1, nu=(0,), mu=(0,))
    a = fk.kernel_n(p, 0.5, 1.5)
    b = fk.kernel_n_contour(p, 0.5, 1.5)
    assert a.method == "biorth_sum" and b.method == "double_contour"
    assert b.value == pytest.approx(a.value, rel=1e-8)
    p2 = EnsembleParams(N=5, r=2, s=0, nu=(0, 1))
    a = fk.kernel_n(p2, 1.0, 1.0)
    b = fk.kernel_n_contour(p2, 1.0, 1.0)
    assert b.value == pytest.approx(a.value, rel=1e-8)


@pytest.mark.parametrize("bad", (math.nan, math.inf, -1.0, 0.0))
def test_kernel_rejects_nonfinite_or_nonpositive_points(bad):
    # the sum used to return NaN for NaN and a value for x < 0, and the
    # contour route raised NonConvergent for NaN
    for kernel in (fk.kernel_n, fk.kernel_n_contour):
        with pytest.raises(DomainError):
            kernel(LAGUERRE, bad, 1.0)
        with pytest.raises(DomainError):
            kernel(LAGUERRE, 1.0, bad)


def test_kernel_contour_overflow_raises():
    # at N = 120 the outer line's gamma factors overflow double precision;
    # the value used to come back as NaN
    with pytest.raises(NonConvergent, match="coefficients overflow"):
        fk.kernel_n_contour(EnsembleParams(N=120, r=1, s=1, nu=(0,), mu=(0,)), 1.0, 1.0)


def test_kernel_contour_matches_laguerre_at_N100():
    # C_99 = (99!)^2 leaves the float64 range, so the sum route raises on the
    # same system; the contour route never reads C_l
    p = EnsembleParams(N=100, r=1, s=0, nu=(0,))
    value = fk.kernel_n_contour(p, 5.0, 5.0).value
    ref = sum(scipy.special.eval_laguerre(l, 5.0) ** 2 for l in range(100)) * math.exp(-5.0)
    assert abs(value - ref) <= 1e-12 * ref
    with pytest.raises(NonConvergent, match="C_99 = e\\^718 overflows float64"):
        fk.kernel_n(p, 5.0, 5.0)


def test_contour_line_log_f_is_longdouble(monkeypatch):
    # the outer line's few nodes each carry much of the sum, so its
    # coefficients come from a longdouble ln F whatever the dtype of the
    # nodes: its ln F is the longdouble log-gamma form to 16 eps_ld x the
    # size of its log-gammas, where a float64 ln Γ in it is 500-2000 off
    built = []
    gl_line = fk.gl_line
    monkeypatch.setattr(fk, "gl_line", lambda log_f, *args: built.append(log_f) or gl_line(log_f, *args))
    u = -0.5 + 1j * np.linspace(0.0, 60.0, 121)
    ul = u.astype(np.clongdouble)
    two_pi = 2 * pi_in(np.longdouble)
    for p in (EnsembleParams(N=100, r=1, s=0, nu=(0,)), EnsembleParams(N=20, r=2, s=1, nu=(0, 1), mu=(0,))):
        fk.BiorthSystem(p).contour(1.0)
        log_f = built.pop()(u)
        assert log_f.dtype == np.clongdouble
        diff = log_f - (fk._log_gammas(p, ul) - fk.ln_gamma(-p.N - ul))
        turn = np.remainder(diff.imag + two_pi / 2, two_pi) - two_pi / 2
        size = 8 + np.abs(fk.ln_gamma(-ul)) + np.abs(fk.ln_gamma(-p.N - ul))
        assert np.all(np.hypot(diff.real, turn) <= 16 * np.finfo(np.longdouble).eps * size)


@pytest.mark.parametrize("N, x", [(60, 18.0), (80, 10.0)])
def test_kernel_contour_matches_laguerre_beyond_benchmark_n(N, x):
    # with test_kernel_contour_matches_laguerre_at_N100, the points the
    # README's envelope gives for N = 60, 80 and 100
    value = fk.kernel_n_contour(EnsembleParams(N=N, r=1, s=0, nu=(0,)), x, x).value
    ref = sum(scipy.special.eval_laguerre(l, x) ** 2 for l in range(N)) * math.exp(-x)
    assert abs(value - ref) <= 1e-12 * ref


def test_contour_circle_rule_at_its_hardest_geometry():
    # the circle passes the poles t = 0 and N - 1 and the line Re t = -1/2 of
    # the Cauchy poles 1/4 away; the weights carry dt/(2πi), so the rule must
    # give the residue 1/(p - k) of 1/((t - k)(p - t)) for k inside, p outside
    sizes = {}
    for N in (1, 2, 5, 20, 40, 80):
        contour = fk.biorth_system(EnsembleParams(N=N, r=1, s=0, nu=(0,))).contour(0.0)
        t, w = contour.tcirc, contour.weight
        for nodes in (t, w):  # node m - j mirrors node j; θ = 0 and π are real
            assert np.array_equal(nodes[1:][::-1], np.conj(nodes[1:]))
            assert nodes[0].imag == 0.0 and nodes[len(nodes) // 2].imag == 0.0
        for k in {0, N - 1}:
            for p in (-0.5 + 1j * np.array([0.0, 0.5, 5.0, -0.5, -5.0])):
                assert abs(np.sum(w / ((t - k) * (p - t))) - 1 / (p - k)) <= 1e-13 / abs(p - k)
        sizes[N] = len(t)
    # the uniform rule took max(256, 80 N) nodes; the graded one grows like sqrt(N)
    assert max(sizes[N] for N in sizes if N <= 40) <= 500
    assert sizes[80] <= 1.5 * sizes[40]


def test_overflowing_prefactors_raise():
    # e^{log prefactor} past float64 raised a bare OverflowError
    p = EnsembleParams(N=150, r=3, s=0, nu=(0, 0, 0))
    with pytest.raises(NonConvergent, match="the P_149 prefactor = e\\^1800 overflows float64"):
        fk.p_n(p, 149, 1.0)
    with pytest.raises(NonConvergent, match="the charpoly prefactor = e\\^1815 overflows float64"):
        fk.charpoly_exact(p, 1.0)
    with pytest.raises(NonConvergent, match="the charpoly prefactor = e\\^1415 overflows float64 at N = 300"):
        fk.charpoly_exact(EnsembleParams(N=300, r=1, s=0, nu=(0,)), 1.0)
    # a prefactor in range can still overflow times the series: this printed -inf
    with pytest.raises(NonConvergent, match="the charpoly value overflows float64 at N = 98"):
        fk.charpoly_exact(EnsembleParams(N=98, r=2, s=0, nu=(0, 0)), 1.0)
    # the normalized form carries no prefactor
    assert math.isfinite(fk.charpoly_exact(p, 1.0, normalized=True))


def test_kernel_contour_data_holds_no_point_state():
    # the line and circle are built once per system and shared by every call
    p = EnsembleParams(N=10, r=2, s=1, nu=(0, 1), mu=(0,))
    a, b = (0.7, 2.0), (5.0, 0.3)
    first_a, first_b = fk.kernel_n_contour(p, *a).value, fk.kernel_n_contour(p, *b).value
    assert fk.kernel_n_contour(p, *a).value == first_a
    for point, first in ((a, first_a), (b, first_b)):  # each against a fresh system
        fk.biorth_system.cache_clear()
        assert fk.kernel_n_contour(p, *point).value == first
    tcirc = fk.biorth_system(p).contour(0.0).tcirc
    assert np.array_equal(tcirc[1:][::-1], np.conj(tcirc[1:]))  # t_{m-j} = conj(t_j)
    assert tcirc[0].imag == 0.0
    u = fk.biorth_system(p).contour(0.0).line.u
    assert np.all(u.imag > 0)  # the upper half line: the lower half is its mirror


def test_kernel_contour_memory_bounded():
    # the line x circle matrices are formed in blocks of circle nodes; whole,
    # they took 338 MiB at N = 40 (3456 x 3200 nodes).  The call peaks at
    # 2.1 MiB on the graded line of reach bucket 1 (544 nodes); on the
    # uniform order-48 line it replaced (1440 nodes) 3.3 MiB, and 3.9 MiB with
    # the node-wise mass sums
    p = EnsembleParams(N=40, r=1, s=0, nu=(0,))
    tracemalloc.start()
    try:
        value = fk.kernel_n_contour(p, 10.0, 10.0).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    laguerre_sum = sum(laguerre.Laguerre.basis(l)(10.0) ** 2 for l in range(40)) * math.exp(-10.0)
    assert value == pytest.approx(laguerre_sum, rel=1e-8)


# the benchmark's eight finite_n kernel sets, N in {20, 10}
FINITE_N_SETS = [EnsembleParams(N=N, r=r, s=s, nu=nu, mu=mu) for N in (20, 10)
                 for (r, s), nu, mu in (((1, 0), (0,), ()), ((2, 0), (0, 1), ()), ((1, 1), (0,), (0,)),
                                        ((2, 1), (0, 1), (0,)))]


@pytest.mark.parametrize("params", FINITE_N_SETS, ids=lambda p: f"N{p.N}r{p.r}s{p.s}")
def test_kernel_contour_mass_is_the_node_wise_sum(params):
    # ContourData.mass puts the line's share of the unsigned mass on the
    # circle once, so a call forms |g(x)| @ mass in place of Σ_i |coeff_i|
    # Σ_j |g_j(x)| / |-u_i - 1 - t_j|: the same double sum, reordered
    pts = np.geomspace(1e-3, 20.0, 9)
    for reach in (0.0, 20.0):
        line, tcirc, log_g, weight, mass = fk.biorth_system(params).contour(reach)
        g = np.abs(np.exp(np.log(pts)[:, None] * tcirc + log_g) * weight)
        node_wise = np.abs(line.coeff[0]) @ (1.0 / np.abs(-line.u[:, None] - 1.0 - tcirc) @ g.T)
        np.testing.assert_allclose(g @ mass, node_wise, rtol=1e-13, atol=0.0)


def test_kernel_contour_line_follows_point_oscillation():
    # y^u oscillates like e^{iτ ln y} along the line, and x^t like
    # e^{i R ln x sin θ} around the circle; both rules grow with the reach
    # bucket.  The first bucket's line held for every call was 1.1e-6 of
    # sqrt(K(x,x) K(y,y)) off at y = 1e-6 and 4.8 at y = 1e-9; the first
    # bucket's circle gave the diagonal 2.5e-8 (N = 10) and 1.0e-7 (N = 40)
    # off at 2e-12, and the order-48 line with that circle 2.4e-7 and
    # 1.8e-7; none of these raised
    for N, x, y, bucket in ((20, 10.0, 1e-6, 2), (20, 10.0, 1e-9, 3), (10, 1e-10, 1e-10, 3),
                            (10, 2e-12, 2e-12, 4), (40, 1e-10, 1e-10, 3), (40, 2e-12, 2e-12, 4)):
        p = EnsembleParams(N=N, r=1, s=0, nu=(0,))
        fk.biorth_system.cache_clear()
        ls = np.arange(N)
        value = fk.kernel_n_contour(p, x, y).value
        lx, ly = scipy.special.eval_laguerre(ls, x), scipy.special.eval_laguerre(ls, y)
        scale = math.sqrt((lx @ lx) * math.exp(-x) * (ly @ ly) * math.exp(-y))
        assert abs(value - (lx @ ly) * math.exp(-y)) <= 1e-10 * scale, (N, x, y)
        assert set(fk.biorth_system(p)._contours) == {bucket}


@pytest.mark.parametrize("params, x, y", [
    (EnsembleParams(N=100, r=1, s=0, nu=(0,)), 5.0, 3e-4), (EnsembleParams(N=100, r=1, s=0, nu=(0,)), 1.0, 2.3e-4),
    (EnsembleParams(N=20, r=2, s=1, nu=(0, 1), mu=(0,)), 1.0, 3e-4), (EnsembleParams(N=20, r=2, s=0, nu=(0, 1)), 5.0, 2.3e-4),
], ids=["laguerre100-x5", "laguerre100-x1", "r2s1N20", "r2s0N20"])
def test_kernel_contour_low_order_line_at_its_reach(params, x, y):
    # |ln y| just inside _LINE_REACH, the first bucket's, at large N and at
    # r = 2, where F's own phase, which turns like ln τ a gamma factor, adds
    # to y^{iτ}'s
    fk.biorth_system.cache_clear()
    value = fk.kernel_n_contour(params, x, y).value
    assert set(fk.biorth_system(params)._contours) == {1}
    if params.r == 1:
        ls = np.arange(params.N)
        lx, ly = scipy.special.eval_laguerre(ls, x), scipy.special.eval_laguerre(ls, y)
        ref, diag = (lx @ ly) * math.exp(-y), (lx @ lx) * math.exp(-x) * (ly @ ly) * math.exp(-y)
    else:  # exact rational P x longdouble Q
        pts = np.array([x, y], dtype=np.longdouble)
        k = (_hiprec._p_matrix(_hiprec._ld_coefficients(params), pts).T @ fk.biorth_system(params).q_matrix(pts)).astype(float)
        ref, diag = k[0, 1], k[0, 0] * k[1, 1]
    assert abs(value - ref) <= 1e-10 * math.sqrt(diag)


@pytest.mark.parametrize("params, x, y, bucket", [
    (EnsembleParams(N=10, r=2, s=0, nu=(0, 1)), 1e-10, 1e-10, 3),
    (EnsembleParams(N=20, r=3, s=0, nu=(0, 1, 0)), 5.0, 1e-10, 3),
    (EnsembleParams(N=10, r=1, s=1, nu=(0,), mu=(0,)), 2e-12, 2e-12, 4),
    (EnsembleParams(N=10, r=2, s=1, nu=(0, 1), mu=(0,)), 1.0, 1e-10, 3),
], ids=["r2s0N10", "r3s0N20", "r1s1N10", "r2s1N10"])
def test_kernel_contour_far_reach_matches_longdouble_sum(params, x, y, bucket):
    # the far-reach buckets at r >= 2 and s >= 1, against exact rational P x
    # longdouble Q: the order-48 line with the first bucket's circle was
    # 4.6e-10, 9.2e-10, 2.4e-8 and 4.9e-10 of sqrt(K(x,x) K(y,y)) off here,
    # and raised nothing
    fk.biorth_system.cache_clear()
    value = fk.kernel_n_contour(params, x, y).value
    assert set(fk.biorth_system(params)._contours) == {bucket}
    pts = np.array([x, y], dtype=np.longdouble)
    k = (_hiprec._p_matrix(_hiprec._ld_coefficients(params), pts).T @ fk.biorth_system(params).q_matrix(pts)).astype(float)
    assert abs(value - k[0, 1]) <= 1e-10 * math.sqrt(abs(k[0, 0] * k[1, 1]))


def test_kernel_contour_line_is_graded():
    # panels as wide as the nearest pole allows: narrow next to the real
    # axis, where the Cauchy poles come within 1/4 of the line, and 2/m wide
    # above in reach bucket m.  The uniform order-48 line that served every
    # reach past bucket 1 had 1440 upper nodes here; buckets 1-3 have 528,
    # 992 and 1456
    p = EnsembleParams(N=20, r=1, s=0, nu=(0,))
    for reach, bucket, most_nodes in ((math.log(1e3), 1, 700), (12.0, 2, 1000), (20.0, 3, 1500)):
        line = fk.biorth_system(p).contour(reach).line
        assert len(line.u) < most_nodes
        assert np.all(line.u.imag > 0)  # Gauss-Legendre nodes: none on the axis, the lower half mirrored
        # each panel's weights sum to twice its width, the lower half's share
        # doubled, and the panels tile the upper half line from 0
        t = line.u.imag.reshape(-1, sf._LINE_ORDER)
        edges = np.concatenate([[0.0], np.cumsum(line.w.reshape(t.shape).sum(axis=1) / 2)])
        assert np.all((edges[:-1, None] < t) & (t < edges[1:, None]))
        assert np.all(np.diff(edges) <= 2.0 / bucket + 1e-12) and edges[1] < 1.0
    assert set(fk.biorth_system(p)._contours) >= {1, 2, 3}


@pytest.mark.parametrize("params, reach", [
    (EnsembleParams(N=10, r=1, s=0, nu=(0,)), 1.0), (EnsembleParams(N=20, r=2, s=1, nu=(0, 1), mu=(0,)), 12.0),
    (EnsembleParams(N=30, r=3, s=0, nu=(0, 1, 0)), 20.0),
], ids=["N10r1s0", "N20r2s1", "N30r3s0"])
def test_kernel_contour_line_panels_by_line_tol(monkeypatch, params, reach):
    # the outer line's panels, bit for bit, by the rule written out: each one
    # keeps every pole outside the Bernstein ellipse ρ = line_tol^{-1/32} and
    # is at most 2/m wide; its nodes are their order-16 Gauss-Legendre nodes
    built = []
    graded_edges = fk.graded_edges
    monkeypatch.setattr(fk, "graded_edges", lambda *args: built.append((args, graded_edges(*args))) or built[-1][1])
    line = fk.BiorthSystem(params).contour(reach).line
    (height, poles, tol, bucket), edges = built.pop()
    assert tol == sf.line_tol(np.float64) and bucket == math.ceil(reach / sf._LINE_REACH)
    rho = sf.line_tol(np.float64) ** (-0.5 / 16)
    a = rho + 1.0 / rho
    ref = [0.0]
    while ref[-1] < height:
        d = poles - ref[-1]
        half = min(1.0 / bucket, float(np.min(2.0 * a * np.abs(d) - 4.0 * d.real)) / (a * a - 4.0))
        ref.append(min(ref[-1] + 2.0 * half, height))
    assert np.array_equal(edges, ref)
    t, w = sf.gl_panels(np.polynomial.legendre.leggauss(16), ref)
    assert np.array_equal(line.u, -0.5 + 1j * t) and np.array_equal(line.w, 2 * w)


P11_N10 = EnsembleParams(N=10, r=1, s=1, nu=(0,), mu=(0,))
P22_N10 = EnsembleParams(N=10, r=2, s=2, nu=(0, 0), mu=(0, 0))


@pytest.mark.parametrize("params, x", [(P11_N10, 10.0), (P11_N10, 12.0), (P22_N10, 3.0), (P22_N10, 5.0),
                                       (EnsembleParams(N=40, r=1, s=0, nu=(0,)), 30.0)],
                         ids=["r1s1-x10", "r1s1-x12", "r2s2-x3", "r2s2-x5", "laguerre40-x30"])
def test_kernel_contour_loss_raises(params, x):
    # eps x the node-wise unsigned mass exceeds 1e-8 of K(x, x): these came
    # back 2e-5 (r1s1, x = 10) and 1.7e-5 (r2s2, x = 5) off without an error
    with pytest.raises(NonConvergent, match="estimated error"):
        fk.kernel_n_contour(params, x, x)


def test_contour_pairs_return_the_estimate_that_kernel_pairs_raises_on():
    # the benchmark's Laguerre N = 40 fault at x = y = 40: the route returns
    # values and their log masses, and only the public call, through
    # specfun.kernel_pairs, raises
    params, one = EnsembleParams(N=40, r=1, s=0, nu=(0,)), np.array([0, 0])
    vals, log_mass = fk._contour_pairs(params, np.array([40.0]), one, one)
    loss = np.finfo(float).eps * np.exp(log_mass) / np.abs(vals)
    assert np.all(np.isfinite(vals)) and np.all(loss > sf._LOSS_BUDGET)
    with pytest.raises(NonConvergent, match=re.escape(
            f"double contour loses too much at (x, y) = (40, 40): estimated error {loss[0]:.1e} "
            "of sqrt(K(x,x) K(y,y))")):
        fk.kernel_n_contour_grid(params, [40.0], [40.0])


def test_kernel_contour_matches_longdouble_sum():
    # exact rational P x longdouble Q; at x = 10 this sum equals 40-digit
    # mpmath to the last digit.  The hand-set line height left 4.3e-8 here
    x = np.array([5.0], dtype=np.longdouble)
    ref = float((_hiprec._p_matrix(_hiprec._ld_coefficients(P11_N10), x) * fk.biorth_system(P11_N10).q_matrix(x)).sum())
    assert fk.kernel_n_contour(P11_N10, 5.0, 5.0).value == pytest.approx(ref, rel=1e-8)


def test_kernel_contour_loss_rule_not_too_pessimistic():
    # the loss estimate is 1.1e-9 of K here, the error about 1e-11
    value = fk.kernel_n_contour(EnsembleParams(N=20, r=1, s=0, nu=(0,)), 20.0, 20.0).value
    ref = sum(scipy.special.eval_laguerre(l, 20.0) ** 2 for l in range(20)) * math.exp(-20.0)
    assert abs(value - ref) <= 1e-10 * ref


@pytest.mark.parametrize("params", [EnsembleParams(N=5, r=1, s=1, nu=(0,), mu=(0,)),
                                    EnsembleParams(N=5, r=2, s=0, nu=(0, 1))], ids=["r1s1", "r2s0"])
def test_kernel_contour_grid_matches_points(params):
    # check 07's sets: one grid call against 1 x 1 calls and the sum route
    xs, ys = np.random.default_rng(7).uniform(0.3, 3.0, (2, 5))
    grid = fk.kernel_n_contour_grid(params, xs, ys)
    points = np.array([[fk.kernel_n_contour(params, x, y).value for y in ys] for x in xs])
    diag = [np.array([fk.kernel_n_contour(params, v, v).value for v in pts]) for pts in (xs, ys)]
    assert np.all(np.abs(grid - points) <= 1e-12 * np.sqrt(np.abs(np.outer(*diag))))
    np.testing.assert_allclose(grid, fk.biorth_system(params).kernel_matrix(xs, ys), rtol=1e-8)


@pytest.mark.parametrize("params, x", [(P11_N10, 10.0), (P11_N10, 12.0), (P22_N10, 3.0), (P22_N10, 5.0),
                                       (EnsembleParams(N=40, r=1, s=0, nu=(0,)), 30.0)],
                         ids=["r1s1-x10", "r1s1-x12", "r2s2-x3", "r2s2-x5", "laguerre40-x30"])
def test_kernel_contour_grid_raises_at_its_worst_pair(params, x):
    # the loss comes from the circle sums at x, so the worst pair is (x, .);
    # the 1 x 1 call at that pair gives the same estimate
    with pytest.raises(NonConvergent, match=rf"at \(x, y\) = \({x:g}, ") as grid_error:
        fk.kernel_n_contour_grid(params, [0.5, x], [x, 1.0])
    pair = re.search(r"= \((\S+), (\S+)\)", str(grid_error.value)).groups()
    with pytest.raises(NonConvergent) as point_error:
        fk.kernel_n_contour(params, *map(float, pair))
    assert str(point_error.value) == str(grid_error.value)
    assert np.all(np.isfinite(fk.kernel_n_contour_grid(params, [0.5], [1.0])))


def assert_contour_grid_memory(y_min, bucket, bound_mib):
    """A 200 x 200 Laguerre N = 40 grid whose smallest y is y_min: it takes
    the line and circle of the given reach bucket, peaks below bound_mib and
    is within 1e-8."""
    p = EnsembleParams(N=40, r=1, s=0, nu=(0,))
    xs, ys = np.linspace(0.5, 20.0, 200), np.linspace(0.25, 19.75, 200)
    ys[0] = y_min
    fk.biorth_system.cache_clear()
    tracemalloc.start()
    try:
        grid = fk.kernel_n_contour_grid(p, xs, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(fk.biorth_system(p)._contours) == {bucket}
    assert peak < bound_mib * 2**20
    lx, ly = (np.array([scipy.special.eval_laguerre(l, v) for l in range(40)]) for v in (xs, ys))
    scale = np.sqrt(np.outer((lx * lx).sum(axis=0) * np.exp(-xs), (ly * ly).sum(axis=0) * np.exp(-ys)))
    assert np.all(np.abs(grid - (lx.T @ ly) * np.exp(-ys)) <= 1e-8 * scale)


def test_kernel_contour_grid_memory_bounded():
    # circle sums and y^u are held per distinct point, on the upper half line:
    # 400 points peak at 15.8 MiB on the graded line of reach bucket 1 (544
    # nodes; 42.8 on the uniform order-48 line with the node-wise mass sums,
    # 66.8 on the whole line); the bound leaves 8 MiB
    assert_contour_grid_memory(0.25, 1, 24)


def test_kernel_contour_grid_memory_bounded_in_a_far_reach_bucket():
    # one point with |ln y| beyond the first bucket's reach puts the grid in
    # bucket 2 (992 line nodes, 960 circle nodes): 400 points peak at 27.5 MiB
    # there, where the uniform order-48 line that served it before took
    # 38.4 MiB; the bound leaves 6.5 MiB
    assert_contour_grid_memory(1e-4, 2, 34)


def test_rho_k_matches_laguerre_at_N40():
    # the sum route's kernel_matrix gave 0.264937 here, 1.7e-3 off, and raised nothing
    p = EnsembleParams(N=40, r=1, s=0, nu=(0,))
    pts = np.array([10.0, 20.0])
    lag = np.array([scipy.special.eval_laguerre(l, pts) for l in range(40)])
    ref = np.linalg.det((lag.T @ lag) * np.exp(-pts))
    assert fk.rho_k(p, pts).rho_k == pytest.approx(ref, rel=1e-11)


def test_kernel_asymmetry_and_det_symmetry():
    p = EnsembleParams(N=3, r=1, s=1, nu=(0,), mu=(0,))
    kxy = fk.kernel_n(p, 0.5, 1.5).value
    kyx = fk.kernel_n(p, 1.5, 0.5).value
    assert abs(kxy - kyx) > 1e-6  # not symmetric pointwise
    d1 = fk.rho_k(p, (0.5, 1.5)).rho_k
    d2 = fk.rho_k(p, (1.5, 0.5)).rho_k
    assert d1 == pytest.approx(d2, rel=1e-10)  # determinants are


def test_trace_equals_N():
    p = EnsembleParams(N=4, r=2, s=1, nu=(0, 0), mu=(0,))
    assert fk.kernel_trace(p) == pytest.approx(4.0, abs=1e-6)


def test_trace_non_finite_raises():
    # above the support cut P_19 overflows to inf while Q underflows to 0:
    # the grid raises at its first level instead of halving to its budget
    p = EnsembleParams(N=20, r=2, s=1, nu=(0, 1), mu=(0,))
    with pytest.raises(NonConvergent, match="not finite"):
        fk.kernel_trace(p)


def test_reproducing_property():
    p = EnsembleParams(N=3, r=1, s=1, nu=(0,), mu=(0,))
    k = fk.kernel_n(p, 1.0, 2.0).value
    assert fk.kernel_reproduce(p, 1.0, 2.0) == pytest.approx(k, abs=1e-6)


def test_rho_k_values():
    # N=1 Laguerre: rho_1(x) = e^{-x}
    p1 = EnsembleParams(N=1, r=1, s=0, nu=(0,))
    assert fk.rho_k(p1, (0.7,)).rho_k == pytest.approx(math.exp(-0.7), rel=1e-10)
    # repulsion: rho_2(x, x+h) -> 0
    p = EnsembleParams(N=3, r=1, s=1, nu=(0,), mu=(0,))
    rho1 = fk.rho_k(p, (1.0,)).rho_k
    rho2 = fk.rho_k(p, (1.0, 1.0 + 1e-4)).rho_k
    assert rho2 >= -1e-10
    assert rho2 < 1e-6 * rho1**2
    with pytest.raises(DomainError):
        fk.rho_k(p, (1.0, 1.0))


def test_biorthogonality_small():
    gram = fk.biorth_matrix(P11)
    assert np.max(np.abs(gram - np.eye(4))) < 1e-9


# --- normalization and joint PDF -------------------------------------------


def test_normalization_n1_quadrature():
    # N=1, (1,1): exp(norm) * Box must integrate to 1
    p = EnsembleParams(N=1, r=1, s=1, nu=(0,), mu=(0,))
    norm = fk.normalization_constant(p)

    def pdf(x):
        v = fk.pdf_box(p, [x])
        return v.sign * math.exp(v.log_abs + norm)

    val, _ = scipy.integrate.quad(pdf, 1e-12, np.inf, limit=300)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_normalization_n1_laguerre_is_expx():
    p = EnsembleParams(N=1, r=1, s=0, nu=(0,))
    norm = fk.normalization_constant(p)
    assert norm == pytest.approx(0.0, abs=1e-13)
    v = fk.pdf_box(p, [1.3], form="box1")
    assert v.sign * math.exp(v.log_abs) == pytest.approx(math.exp(-1.3), rel=1e-9)


def test_normalization_n2_quadrature():
    # N=2, (1,1): 2D quadrature over lambda = 1/(1+x) variables
    p = EnsembleParams(N=2, r=1, s=1, nu=(0,), mu=(0,))
    norm = fk.normalization_constant(p)

    def pdf_lam(l1, l2):
        if abs(l1 - l2) < 1e-12:
            return 0.0
        x1, x2 = 1.0 / l1 - 1.0, 1.0 / l2 - 1.0
        v = fk.pdf_box(p, [x1, x2])
        return v.sign * math.exp(v.log_abs + norm) / (l1 * l2) ** 2

    val, err = scipy.integrate.dblquad(pdf_lam, 1e-9, 1 - 1e-9, 1e-9, 1 - 1e-9, epsabs=1e-7)
    assert val == pytest.approx(1.0, abs=1e-5)


def test_pdf_box_n1_matches_scalar_ratio_mc():
    # N=1 Box is the density of t/y with t ~ Gamma(nu+1), y ~ Gamma(mu+N)
    p = EnsembleParams(N=1, r=1, s=1, nu=(1,), mu=(0,))
    norm = fk.normalization_constant(p)
    gen = RngStream(17).generator()
    t = gen.gamma(2.0, size=100_000)
    y = gen.gamma(1.0, size=100_000)
    ratio = t / y
    xs = np.geomspace(1e-4, 1e4, 600)
    dens = [fk.pdf_box(p, [float(x)]) for x in xs]
    pdf = np.array([v.sign * math.exp(v.log_abs + norm) for v in dens])
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(xs))])
    cdf = lambda v: np.interp(v, xs, cum / cum[-1])
    ks = sp.sup_distance(sp.empirical_cdf(ratio), cdf)
    assert ks < 0.02


def test_pdf_box_marginal_matches_rho1():
    # N=2: integrating the normalized joint PDF over x2 gives rho_1(x1)/N
    p = EnsembleParams(N=2, r=1, s=1, nu=(0,), mu=(0,))
    norm = fk.normalization_constant(p)

    def marginal(x1):
        def f(lam):
            x2 = 1.0 / lam - 1.0
            if abs(x2 - x1) < 1e-10:
                return 0.0
            v = fk.pdf_box(p, [x1, x2])
            return v.sign * math.exp(v.log_abs + norm) / lam**2

        val, _ = scipy.integrate.quad(f, 1e-9, 1 - 1e-9, limit=300, points=[1.0 / (1.0 + x1)])
        return val

    for x1 in (0.4, 1.5):
        rho1 = fk.kernel_n(p, x1, x1).value
        assert marginal(x1) == pytest.approx(rho1 / 2.0, abs=1e-5)


def test_box_vs_box1_constant_ratio():
    # both determinant forms represent the same unnormalized PDF up to a
    # (possibly negative) x-independent constant
    p = EnsembleParams(N=2, r=1, s=1, nu=(0,), mu=(0,))
    pts_sets = ([0.4, 1.3], [0.9, 2.6], [0.2, 5.0])
    log_ratios, sign_ratios = [], []
    for pts in pts_sets:
        a = fk.pdf_box(p, pts, form="box")
        b = fk.pdf_box(p, pts, form="box1")
        sign_ratios.append(a.sign * b.sign)
        log_ratios.append(a.log_abs - b.log_abs)
    assert len(set(sign_ratios)) == 1
    assert log_ratios[0] == pytest.approx(log_ratios[1], abs=1e-9)
    assert log_ratios[0] == pytest.approx(log_ratios[2], abs=1e-9)


def test_box_inversion_map():
    # PDF invariance under x -> 1/x with mu <-> nu (densities transform with 1/x^2)
    pa = EnsembleParams(N=2, r=1, s=1, nu=(1,), mu=(0,))
    pb = EnsembleParams(N=2, r=1, s=1, nu=(0,), mu=(1,))
    pts = [0.7, 1.9]
    inv = [1.0 / v for v in pts]
    a = fk.pdf_box(pa, pts)
    na = fk.normalization_constant(pa)
    b = fk.pdf_box(pb, inv)
    nb = fk.normalization_constant(pb)
    lhs = a.log_abs + na
    rhs = b.log_abs + nb - 2.0 * sum(math.log(v) for v in pts)
    assert lhs == pytest.approx(rhs, abs=1e-9)


# --- characteristic polynomial ----------------------------------------------


def test_charpoly_trivial_and_s0_reduction():
    p111 = EnsembleParams(N=1, r=1, s=1, nu=(0,), mu=(0,))
    assert fk.charpoly_exact(p111, 2.0) == pytest.approx(1.0)
    # s = 0: charpoly equals P_N pointwise
    p = EnsembleParams(N=3, r=2, s=0, nu=(0, 1))
    for x in (0.3, 1.0, 4.0):
        assert fk.charpoly_exact(p, x) == pytest.approx(fk.p_n(p, 3, x), rel=1e-12)


def test_charpoly_functional_symmetry():
    pa = EnsembleParams(N=3, r=2, s=1, nu=(0, 1), mu=(0,))
    pb = EnsembleParams(N=3, r=1, s=2, nu=(0,), mu=(0, 1))
    lam = 0.7
    lhs = (-1.0) ** 3 * lam**3 * fk.charpoly_exact(pa, 1.0 / lam)
    rhs = fk.charpoly_exact(pb, lam)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_charpoly_mc_bridge_small():
    p = EnsembleParams(N=2, r=1, s=1, nu=(0,), mu=(1,))
    mean, err = sp.mc_charpoly(p, 1.3, 40_000, RngStream(23))
    assert abs(mean - fk.charpoly_exact(p, 1.3)) < 3 * err
