"""Special-function kernel tests against independent oracles."""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
import scipy.special

from wpl import specfun as sf
from wpl.errors import (
    ContourViolation,
    DivergentSeries,
    InternalImaginaryResidue,
    LowerParamPole,
    NonConvergent,
    PoleError,
    WplError,
)


# --- oracles -------------------------------------------------------------


def bessel_series(nu: int, x: float, terms: int = 120) -> float:
    """J_nu(x) summed directly to machine precision."""
    total = 0.0
    for k in range(terms):
        total += (-1.0) ** k * (x / 2.0) ** (nu + 2 * k) / (
            math.factorial(k) * math.gamma(nu + k + 1.0)
        )
    return total


def residue_series_0f2(x: float, terms: int = 60) -> float:
    """0F2(; 1, 1; -x) by direct summation (the G^{1,0}_{0,3} residue series)."""
    total = 0.0
    term = 1.0
    for k in range(terms):
        total += term
        term *= -x / float(k + 1) ** 3
    return total


def pochhammer_sum(upper, lower, x: Fraction, n_terms: int) -> Fraction:
    """Brute-force rational partial sum of pFq."""
    total = Fraction(0)
    for k in range(n_terms):
        num = Fraction(1)
        for a in upper:
            for i in range(k):
                num *= Fraction(a) + i
        den = Fraction(math.factorial(k))
        for b in lower:
            for i in range(k):
                den *= Fraction(b) + i
        total += num / den * x**k
    return total


# --- ln_gamma ------------------------------------------------------------


def test_ln_gamma_known_values():
    assert sf.ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert sf.ln_gamma(5.0).real == pytest.approx(math.log(24.0), rel=1e-14)
    assert sf.ln_gamma(0.5).real == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)


def test_ln_gamma_recurrence_random_grid():
    rng = np.random.default_rng(0)
    z = rng.uniform(-30, 30, 3000) + 1j * rng.uniform(-40, 40, 3000)
    z = z[np.abs(z.imag) > 1e-6]
    lhs = sf.ln_gamma(z + 1)
    rhs = sf.ln_gamma(z) + np.log(z)
    rel = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))
    assert np.max(rel) < 1e-13


def test_ln_gamma_matches_scipy_off_axis():
    rng = np.random.default_rng(1)
    z = rng.uniform(-50, 50, 500) + 1j * rng.uniform(0.05, 80, 500)
    mine = sf.ln_gamma(z)
    ref = scipy.special.loggamma(z)
    assert np.max(np.abs(mine - ref) / np.maximum(1.0, np.abs(ref))) < 1e-13


def test_ln_gamma_large_modulus():
    for z in (1e4, 1e4 + 1e3j, -9500.5 + 300j):
        mine = sf.ln_gamma(z)
        ref = scipy.special.loggamma(z)
        assert abs(mine - ref) / abs(ref) < 1e-13


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_ln_gamma_conjugate_symmetry(dtype):
    # ln Γ(conj z) = conj ln Γ(z) mod 2πi, which every half line rests on;
    # the grid crosses the reflection region Re z < 1/2 up to |Im z| = 1e3
    re = np.linspace(-60.3, 60.3, 41)
    im = np.array([1e-3, 0.5, 3.0, 30.0, 300.0, 1e3])
    z = (re[:, None] + 1j * im).ravel().astype(np.result_type(dtype, 1j))
    upper, lower = sf.ln_gamma(z), sf.ln_gamma(np.conj(z))
    diff = lower - np.conj(upper)
    two_pi = 2 * sf.pi_in(dtype)
    turn = np.remainder(diff.imag + two_pi / 2, two_pi) - two_pi / 2
    allowed = 4 * np.finfo(dtype).eps * np.maximum(1.0, np.abs(upper))
    assert np.all(np.abs(diff.real) <= allowed) and np.all(np.abs(turn) <= allowed)


@lru_cache(maxsize=None)
def mpmath_ln_gamma_grid():
    """ln Γ at c + iτ, τ = 0.25, 0.75, ..., 119.75, by 40-digit mpmath: the
    abscissas c, the τ and the real and imaginary parts as strings."""
    mpmath = pytest.importorskip("mpmath")
    cs, taus = (0.5, -0.5, 1.5, 3.5, -10.5, -99.5), 0.25 + 0.5 * np.arange(240)
    with mpmath.workdps(40):
        vals = [mpmath.loggamma(mpmath.mpc(c, t)) for c in cs for t in taus]
        return cs, taus, [mpmath.nstr(v.real, 30) for v in vals], [mpmath.nstr(v.imag, 30) for v in vals]


@pytest.mark.parametrize("dtype, gate", [(np.float64, 4), (np.longdouble, 16)])
def test_ln_gamma_matches_mpmath(dtype, gate):
    # the shift, the cut and the reflection up to |Im z| = 120, within gate
    # eps max(8, |ln Γ|), the imaginary part mod 2π
    cs, taus, re, im = mpmath_ln_gamma_grid()
    z = (np.array(cs, dtype=dtype)[:, None] + 1j * taus.astype(dtype)).ravel()
    got = sf.ln_gamma(z)
    re, im = np.array([dtype(v) for v in re]), np.array([dtype(v) for v in im])
    two_pi = 2 * sf.pi_in(dtype)
    turn = np.remainder(got.imag - im + two_pi / 2, two_pi) - two_pi / 2
    err = np.hypot(got.real - re, turn) / (np.finfo(dtype).eps * np.maximum(8, np.hypot(re, im)))
    assert got.dtype == np.result_type(dtype, 1j) and np.max(err) <= gate, z[np.argmax(err)]


@pytest.mark.parametrize("dtype, gate", [(np.float64, 4), (np.longdouble, 16)])
def test_ln_gamma_is_principal(dtype, gate):
    # Im ln Γ itself, not mod 2π, against mpmath's principal log-gamma: the
    # shift's logs and the reflection's log sin(πz) add up to the right turn
    cs, taus, re, im = mpmath_ln_gamma_grid()
    z = (np.array(cs, dtype=dtype)[:, None] + 1j * taus.astype(dtype)).ravel()
    got = sf.ln_gamma(z)
    re, im = np.array([dtype(v) for v in re]), np.array([dtype(v) for v in im])
    err = np.abs(got.imag - im) / (np.finfo(dtype).eps * np.maximum(8, np.hypot(re, im)))
    assert np.max(err) <= gate, z[np.argmax(err)]


def test_ln_gamma_follows_the_dtype_of_its_argument():
    z = np.array([0.5 + 3j, -2.5 + 1j, 20.0])
    assert sf.ln_gamma(z.astype(np.clongdouble)).dtype == np.clongdouble
    assert sf.ln_gamma(z.real.astype(np.longdouble)).dtype == np.clongdouble
    assert sf.ln_gamma(z).dtype == np.complex128
    for scalar in (3, 2.5, 1.5 + 2j, np.clongdouble(1.5 + 2j)):
        out = sf.ln_gamma(scalar)
        assert np.ndim(out) == 0 and out.dtype == np.result_type(scalar, 1j)
    for dtype in (np.float64, np.longdouble):
        for pole in (0, -3):
            with pytest.raises(PoleError):
                sf.ln_gamma(dtype(pole))


def test_ln_gamma_pole():
    with pytest.raises(PoleError):
        sf.ln_gamma(0.0)
    with pytest.raises(PoleError):
        sf.ln_gamma(-3.0)


@pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
def test_ln_gamma_on_stacked_rows_is_row_by_row(dtype):
    # one call on a 2-d stack gives each row's own call bit for bit, which
    # every gamma product's single call rests on: points on both sides of
    # Re z = 1/2 and of both series cuts, |z| = 8 and 17
    grid = (np.array([-12.3, -0.5, 0.49, 0.5, 0.51, 3.0, 7.99, 8.01, 16.99, 17.01, 40.0, -40.5])
            + 1j * np.array([0.0, 1e-3, 0.7, 5.0, 16.9, -9.0])[:, None])
    ring = np.array([r * f * np.exp(1j * a)
                     for r in (8.0, 17.0) for f in (1 - 1e-9, 1 + 1e-9) for a in (0.3, 1.2, 2.5)])
    rows = np.vstack([grid, ring, np.conj(ring)]).astype(dtype)
    stacked = sf.ln_gamma(rows)
    assert stacked.dtype == dtype
    for row, got in zip(rows, stacked):
        assert np.array_equal(sf.ln_gamma(row), got)


def _count_ln_gamma(monkeypatch, *modules):
    """Route the modules' ln_gamma through a counter; returns its list of calls."""
    calls, ln_gamma = [], sf.ln_gamma

    def counting(z):
        calls.append(np.shape(z))
        return ln_gamma(z)

    for module in modules:
        monkeypatch.setattr(module, "ln_gamma", counting)
    return calls


# --- pfq -----------------------------------------------------------------


def test_pfq_exponential():
    p = sf.HypSeriesParams.of((), ())
    assert sf.pfq(p, 1.0) == pytest.approx(math.e, rel=1e-14)


def test_pfq_terminating_1f1():
    p = sf.HypSeriesParams.of((-2.0,), (1.0,))
    assert p.terminating_at == 2
    assert sf.pfq(p, 1.0) == pytest.approx(-0.5, abs=1e-15)


def test_pfq_0f1_is_bessel():
    p = sf.HypSeriesParams.of((), (1.0,))
    assert sf.pfq(p, -1.0) == pytest.approx(bessel_series(0, 2.0), rel=1e-13)


def test_pfq_terminating_matches_rational_brute_force():
    upper, lower = (-4.0, 2.5), (1.0, 3.0)
    p = sf.HypSeriesParams.of(upper, lower)
    mine = sf.pfq(p, 0.7)
    oracle = pochhammer_sum((Fraction(-4), Fraction(5, 2)), (Fraction(1), Fraction(3)), Fraction(7, 10), 5)
    assert mine == pytest.approx(float(oracle), rel=1e-13)


def test_pfq_divergent_guards():
    with pytest.raises(DivergentSeries):
        sf.pfq(sf.HypSeriesParams.of((1.0, 2.0, 3.0), (1.5,)), 0.5)
    with pytest.raises(DivergentSeries):
        sf.pfq(sf.HypSeriesParams.of((1.0, 2.0), (3.0,)), 1.0)
    # terminating at the same orders is fine
    assert np.isfinite(sf.pfq(sf.HypSeriesParams.of((-3.0, 2.0), (3.0,)), 1.0))


def test_pfq_lower_param_pole():
    with pytest.raises(LowerParamPole):
        sf.HypSeriesParams.of((0.5,), (-2.0,))
    # pole beyond the termination order is harmless
    p = sf.HypSeriesParams.of((-2.0,), (-3.0,))
    assert np.isfinite(sf.pfq(p, 1.0))


def test_pfq_vectorized():
    p = sf.HypSeriesParams.of((), ())
    xs = np.array([0.0, 1.0, 2.0])
    assert np.allclose(sf.pfq(p, xs), np.exp(xs), rtol=1e-13)


def _pfq_allocating_loop(params, x):
    """pfq's series loop written with a new array for every operation: the
    float operations and order that pfq keeps, in place on arrays and on
    Python floats for a scalar."""
    params.check()
    p_, q_ = len(params.upper), len(params.lower)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float)).astype(float)
    if params.terminating_at is None:
        if p_ > q_ + 1:
            raise DivergentSeries("diverges")
        if p_ == q_ + 1 and np.any(np.abs(x_arr) >= 1.0):
            raise DivergentSeries("diverges")
    term = np.ones_like(x_arr)
    total = term.copy()
    n_stop, consecutive, k = params.terminating_at, 0, 0
    while n_stop is None or k < n_stop:
        if k >= sf._PFQ_MAX_TERMS:
            raise NonConvergent("no convergence")
        num = 1.0
        for a in params.upper:
            num *= a + k
        den = float(k + 1)
        for b in params.lower:
            den *= b + k
        term = term * (num / den) * x_arr
        total = total + term
        k += 1
        if n_stop is None:
            if np.all(np.abs(term) <= sf._PFQ_TOL * np.maximum(np.abs(total), 1e-300)):
                consecutive += 1
                if consecutive >= 3:
                    break
            else:
                consecutive = 0
    return float(total[0]) if np.ndim(x) == 0 else total


@pytest.mark.parametrize("upper, lower, x", [
    ((), (1.0,), -np.geomspace(1e-6, 81.0, 40)),  # 0F1, bessel_j's series
    ((), (3.0,), -np.linspace(0.0, 60.0, 25).reshape(5, 5)),
    ((), (), np.array([-30.0, -1.0, 0.0, 2.5, 40.0])),
    ((0.5,), (1.5, 2.0), 7.25),
    ((1.0,), (), np.array([-0.99, 0.3, 0.9])),
    ((-4.0, 2.5), (1.0, 3.0), np.array([0.7, -3.0, 1e3])),  # terminating
    ((-7.0, -19.0), (1.0, 2.0), -np.geomspace(1e-3, 60.0, 9)),
    ((-2.0,), (-3.0,), 1.0),
    ((), (2.0,), -300.0),  # scalars take Python floats
    ((), (), 800.0),  # overflows to inf, as the arrays do
    ((-5.0,), (0.5,), np.array(-2.75)),
    ((1.0,), (1.5,), -0.5),
])
def test_pfq_in_place_loop_is_bit_for_bit_the_allocating_loop(upper, lower, x):
    params = sf.HypSeriesParams.of(upper, lower)
    with np.errstate(over="ignore"):
        got, ref = sf.pfq(params, x), _pfq_allocating_loop(params, x)
    assert type(got) is type(ref) and np.shape(got) == np.shape(ref) and np.array_equal(got, ref)


@pytest.mark.parametrize("params, x, error", [
    (sf.HypSeriesParams((0.5,), (-2.0,)), 1.0, LowerParamPole),
    (sf.HypSeriesParams.of((1.0, 2.0, 3.0), (1.5,)), 0.5, DivergentSeries),
    (sf.HypSeriesParams.of((1.0, 2.0), (3.0,)), np.array([0.5, -1.0]), DivergentSeries),
    (sf.HypSeriesParams.of((1.0,), ()), np.array([0.5, 0.99999]), NonConvergent),
    (sf.HypSeriesParams.of((1.0,), ()), 0.99999, NonConvergent),
])
def test_pfq_in_place_loop_raises_as_the_allocating_loop(params, x, error):
    with pytest.raises(error):
        _pfq_allocating_loop(params, x)
    with pytest.raises(error):
        sf.pfq(params, x)


# --- meijer_g ------------------------------------------------------------


def _spec_contour(m, n, p, q, a, b):
    spec = sf.MeijerSpec(m, n, p, q, tuple(a), tuple(b))
    return spec, sf.ContourSpec.auto(spec)


def test_meijer_exponential_identity():
    spec, ct = _spec_contour(1, 0, 0, 1, (), (0.0,))
    for x in (0.2, 1.0, 3.0):
        assert sf.meijer_g(spec, ct, x) == pytest.approx(math.exp(-x), rel=1e-11)


def test_meijer_g10_02_is_bessel_j0():
    spec, ct = _spec_contour(1, 0, 0, 2, (), (0.0, 0.0))
    assert sf.meijer_g(spec, ct, 1.0) == pytest.approx(bessel_series(0, 2.0), rel=1e-12)


def test_meijer_g10_03_residue_series_oracle():
    spec, ct = _spec_contour(1, 0, 0, 3, (), (0.0, 0.0, 0.0))
    for x in (1.0, 5.0):
        assert sf.meijer_g(spec, ct, x) == pytest.approx(residue_series_0f2(x), rel=1e-12)


def test_meijer_reduction_identity_vs_pfq():
    # G^{1,0}_{0,r+1}(x | -nu_0..-nu_r) * prod Gamma(1+nu_j) = 0F_r(; 1+nu; -x)
    for nus in ((0,), (1,), (0, 0), (0, 2), (1, 0, 2)):
        r = len(nus)
        b = (0.0,) + tuple(-float(v) for v in nus)
        spec, ct = _spec_contour(1, 0, 0, r + 1, (), b)
        pref = 1.0
        for v in nus:
            pref *= math.gamma(1.0 + v)
        series = sf.pfq(sf.HypSeriesParams.of((), tuple(1.0 + v for v in nus)), -1.3)
        assert sf.meijer_g(spec, ct, 1.3) * pref == pytest.approx(series, rel=1e-12)


def test_meijer_contour_independence():
    # two valid contours with different abscissa/height agree
    spec = sf.MeijerSpec(2, 0, 0, 3, (), (0.0, 0.0, 0.0))
    c1 = sf.ContourSpec(abscissa=-0.5, half_height=25.0)
    c2 = sf.ContourSpec(abscissa=-1.25, half_height=40.0)
    for x in (0.5, 2.0, 10.0):
        a = sf.meijer_g(spec, c1, x)
        b = sf.meijer_g(spec, c2, x)
        assert a == pytest.approx(b, rel=1e-10)
    # a Q-type spec used downstream: G^{2,1}_{2,2}
    spec_q = sf.MeijerSpec(2, 1, 2, 2, (-5.0, -2.0), (0.0, 1.0))
    c1 = sf.ContourSpec.auto(spec_q)
    c2 = sf.ContourSpec(abscissa=-0.8, half_height=30.0)
    for x in (0.5, 3.0):
        assert sf.meijer_g(spec_q, c1, x) == pytest.approx(sf.meijer_g(spec_q, c2, x), rel=1e-10)


def test_meijer_trapezoid_rule_agrees():
    # the trapezoid rule on a uniform grid of Re s = -1/2, |Im s| <= 28,
    # 40 points per unit, against meijer_g's Gauss-Legendre panels
    spec = sf.MeijerSpec(2, 0, 0, 3, (), (0.0, 1.0, 0.0))
    gl = sf.ContourSpec.auto(spec)
    t = np.linspace(-28.0, 28.0, 2241)
    w = np.full(t.shape, t[1] - t[0])
    w[[0, -1]] *= 0.5
    s = -0.5 + 1j * t
    for x in (0.7, 3.0):
        tz = (w @ np.exp(sf._mb_log_integrand(spec, s) + s * math.log(x))).real / (2.0 * math.pi)
        assert tz == pytest.approx(sf.meijer_g(spec, gl, x), rel=1e-9)


def _exp_log_f(phase=0.0, above=0.0):
    """ln Γ(-s), of G^{1,0}_{0,1}(x | 0) = e^{-x}, in the precision of s;
    a phase where |Im s| > above breaks F(conj s) = conj F(s) there."""
    return lambda s: sf.ln_gamma(-s) + 1j * phase * (np.abs(np.imag(s)) > above)


def _exp_line(phase=0.0, above=0.0):
    """e^{-x} as a Gauss-Legendre MellinLine on Re s = -1/2, on width-1 panels."""
    return sf.gl_line(_exp_log_f(phase, above), -0.5, np.arange(0.0, 31.0))


def _exp_gl_mirror(dtype=np.float64, phase=0.0, above=0.0):
    """check_mirror of the Gauss-Legendre e^{-x} line in the dtype: in float64
    the line's own, as gl_line builds (float64 lines only); in longdouble the
    same check, one node a panel, on clongdouble nodes and log-gammas."""
    if dtype == np.float64:
        return _exp_line(phase, above)
    u = _exp_line().u[:: sf._LINE_ORDER].astype(np.clongdouble)
    log_f = _exp_log_f(phase, above)
    return sf.check_mirror(log_f(np.conj(u)), u, log_f(u), sf.line_tol(dtype))


def _exp_trapezoid_line(dtype=np.float64, phase=0.0, above=0.0):
    """e^{-x} as a trapezoid MellinLine on Re s = -1/2."""
    return sf.trapezoid_line(_exp_log_f(phase, above), -0.5, (0.5, 1.0, 2.0), dtype)


def test_mellin_line_guard():
    x = np.array([0.5, 1.0, 2.0])
    line = _exp_line()
    assert line.eval(x)[0] == pytest.approx(np.exp(-x), rel=1e-11)
    # a phase that breaks F(conj s) = conj F(s) raises where the line is built
    for dtype in (np.float64, np.longdouble):
        with pytest.raises(InternalImaginaryResidue):
            _exp_gl_mirror(dtype, 1e-3)
        with pytest.raises(InternalImaginaryResidue):
            _exp_trapezoid_line(dtype, 1e-3)
    # an overflowing integrand gives no number rather than inf or NaN
    with pytest.raises(NonConvergent):
        sf.MellinLine(line.u, line.w, line.log_f + 800.0).eval(x)


def test_mellin_line_guard_follows_dtype():
    # a 1e-11 phase moves F(conj s) by 2e-11 of |F|: under the float64
    # allowance (1e3 × 1e-12), over the longdouble one (1e-12)
    x = np.array([0.5, 1.0, 2.0])
    for line in (_exp_line(1e-11), _exp_trapezoid_line(np.float64, 1e-11)):
        assert line.eval(x)[0] == pytest.approx(np.exp(-x), rel=1e-10)
    for build in (_exp_gl_mirror, _exp_trapezoid_line):
        with pytest.raises(InternalImaginaryResidue):
            build(np.longdouble, 1e-11)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("build", [_exp_gl_mirror, _exp_trapezoid_line], ids=["gauss_legendre", "trapezoid"])
def test_mellin_line_guard_spans_the_line(build, dtype):
    # a phase confined to |Im s| > 10, where |F| is below 4e-7 of its peak:
    # the Im part of the whole line's sum, which the guard read before the
    # half lines, is 3e-14 here, under its floor in either dtype
    with pytest.raises(InternalImaginaryResidue):
        build(dtype, 1e-6, above=10.0)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_mellin_line_chunks_match_one_block(monkeypatch, dtype):
    from wpl import finite_kernel as fk
    from wpl.freeprob import EnsembleParams

    line = fk.BiorthSystem(EnsembleParams(N=3, r=1, s=1, nu=(0,), mu=(0,)))._line("mid", dtype)
    x = np.geomspace(1e-5, 8.0, 3 * sf._CHUNK + 5).astype(dtype)
    chunked = line.eval(x)
    monkeypatch.setattr(sf, "_CHUNK", len(x))
    whole = line.eval(x)
    assert chunked.dtype == whole.dtype == dtype
    # the sums only differ where BLAS rounds a block of columns differently
    scale = np.exp(np.max(line.log_mass) + np.max(line.c * np.log(x)))
    assert np.max(np.abs(chunked - whole)) <= 64 * np.finfo(dtype).eps * scale


def _whole_line(line):
    """The nodes and coefficients of the whole line whose upper half `line`
    holds: its lower half the conjugate mirror, each doubled weight shared
    between a node and its mirror."""
    above = line.u.imag > 0
    share = np.where(above, line.coeff / 2, line.coeff)
    u = np.concatenate([np.conj(line.u[above][::-1]), line.u])
    coeff = np.concatenate([np.conj(share[:, above][:, ::-1]), share], axis=1)
    return u, coeff


def assert_eval_matches_direct_exp(line, x):
    """eval (the upper half line, x^u as anchor x offset) against the whole
    line with one exp per node and point."""
    u, coeff = _whole_line(line)
    direct = np.real(coeff @ np.exp(np.outer(u, np.log(x))))
    mass = np.exp(line.log_mass[:, None] + line.c * np.log(x))
    assert np.all(np.abs(line.eval(x) - direct) <= sf._LINE_ROUNDING * np.finfo(x.dtype).eps * mass)


@pytest.mark.parametrize("dtype, regime, h, height", [
    (np.float64, "mid", 1 / 32, 12), (np.float64, "deep", 1 / 32, 18), (np.float64, "saddle", 1 / 2, 27),
    (np.longdouble, "mid", 1 / 32, 18), (np.longdouble, "deep", 1 / 32, 18), (np.longdouble, "saddle", 1 / 2, 40),
], ids=["mid-float64", "deep-float64", "saddle-float64", "mid-longdouble", "deep-longdouble", "saddle-longdouble"])
def test_mellin_line_eval_matches_direct_exp(dtype, regime, h, height):
    from wpl import finite_kernel as fk
    from wpl.freeprob import EnsembleParams

    if regime == "saddle":
        line = fk.BiorthSystem(EnsembleParams(N=10, r=2, s=0, nu=(0, 1)))._line(4.0, dtype)
    else:
        line = fk.BiorthSystem(EnsembleParams(N=6, r=2, s=1, nu=(0, 1), mu=(0,)))._line(regime, dtype)
    assert np.all(np.diff(line.u.imag) == h)  # a trapezoid line, settled at the step of the whole line
    assert line.u.imag[0] == 0 and line.u.imag[-1] == height
    assert_eval_matches_direct_exp(line, np.geomspace(1e-28, 1e18, 93).astype(dtype))


def test_meijer_line_eval_matches_direct_exp():
    # Gauss-Legendre panels repeat no offset: x^u costs one exp per node
    spec = sf.MeijerSpec(2, 0, 0, 3, (), (0.0, 1.0, 0.0))
    x = np.geomspace(1e-28, 1e18, 93)
    assert_eval_matches_direct_exp(sf.meijer_line(spec, sf.ContourSpec.auto(spec), float(np.max(np.abs(np.log(x))))), x)


def test_contour_line_eval_matches_direct_exp():
    from wpl import finite_kernel as fk
    from wpl.freeprob import EnsembleParams

    system = fk.BiorthSystem(EnsembleParams(N=10, r=2, s=1, nu=(0, 1), mu=(0,)))
    for reach in (0.0, 64.5):  # the low- and the high-order line
        assert_eval_matches_direct_exp(system.contour(reach).line, np.geomspace(1e-28, 1e18, 93))


def assert_contract_matches_whole_line(line, basis, vals):
    """vals, a contract of `line` with the node x point matrix basis(u),
    against the whole line's complex sum with that matrix formed afresh on
    both halves: a basis not conjugate at mirrored nodes moves the real
    part or leaves an imaginary one."""
    u, coeff = _whole_line(line)
    m = basis(u)
    mass = np.abs(coeff) @ np.abs(m)
    assert np.all(np.abs(coeff @ m - vals) <= sf._LINE_ROUNDING * np.finfo(float).eps * mass)


def _all_pairs(pts):
    return np.divmod(np.arange(len(pts) ** 2), len(pts))


def test_contour_pairs_match_whole_line():
    # the circle sums C(u, x) y^u, at the lower nodes too
    from wpl import finite_kernel as fk
    from wpl.freeprob import EnsembleParams

    params = EnsembleParams(N=10, r=2, s=1, nu=(0, 1), mu=(0,))
    pts = np.geomspace(0.1, 10.0, 5)
    line, tcirc, log_g, weight, _ = fk.biorth_system(params).contour(float(np.max(np.abs(np.log(pts)))))
    ix, iy = _all_pairs(pts)
    g = np.exp(np.log(pts)[:, None] * tcirc + log_g) * weight

    def basis(u):
        return ((1 / (-u[:, None] - 1 - tcirc)) @ g.T)[:, ix] * np.exp(np.outer(u, np.log(pts[iy])))

    assert_contract_matches_whole_line(line, basis, fk._contour_pairs(params, pts, ix, iy)[0])


def test_hard_edge_contracts_match_whole_line():
    # H(s, x) y^s of _mellin_pairs and s^{j-J} w^s of _gr0_deltas, at the lower nodes too
    from wpl import hard_edge as he

    params = he.HardEdgeParams(r=2, nu=(0, 1))
    spec = he._gr0_spec(params)
    pts = np.geomspace(0.1, 20.0, 5)
    lx_max = float(np.max(np.abs(np.log(pts))))
    ix, iy = _all_pairs(pts)
    terms = he._g10_terms(params, pts)
    k = np.arange(len(terms))

    def pair_basis(s):
        return ((1 / (k + 1 + s[:, None])) @ terms)[:, ix] * np.exp(np.outer(s, np.log(pts[iy])))

    line = sf.meijer_line(spec, sf.ContourSpec.auto(spec), lx_max)
    assert_contract_matches_whole_line(line, pair_basis, he._mellin_pairs(params, pts, ix, iy)[0])
    powers = (0, 1, 2)
    pw, lw = np.repeat(powers, len(pts)) - 2, np.tile(np.log(pts), len(powers))
    line = sf.meijer_line(spec, sf.ContourSpec.auto(spec), lx_max, power=2)
    assert_contract_matches_whole_line(line, lambda s: s[:, None] ** pw * np.exp(np.outer(s, lw)),
                                       he._gr0_deltas(params, pts, powers).ravel())


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_contract_is_bit_for_bit_coeff_matmul(dtype):
    # np.dot: BLAS for a complex128 line, the dtype's dot loop for a
    # clongdouble one; both add as `coeff @ basis` does, block by block
    from wpl import finite_kernel as fk
    from wpl.freeprob import EnsembleParams

    line = fk.BiorthSystem(EnsembleParams(N=10, r=2, s=1, nu=(0, 1), mu=(0,)))._line("mid", dtype)
    assert line.coeff.dtype == (np.complex128 if dtype == np.float64 else np.clongdouble)
    log_x = np.log(np.geomspace(1e-6, 8.0, 100).astype(dtype))

    def basis(sl):
        return line._x_power(log_x[sl])

    ref = np.concatenate([np.real(line.coeff @ basis(slice(lo, lo + sf._CHUNK)))
                          for lo in range(0, len(log_x), sf._CHUNK)], axis=1)
    assert np.array_equal(line.contract(basis, len(log_x)), ref)


def test_mellin_line_rejects_unmirrored_nodes():
    # a line holds the upper half only: its lower half is the mirror
    line = _exp_line()
    assert np.all(line.u.imag > 0)
    with pytest.raises(ContourViolation):
        sf.MellinLine(np.append(line.u, -0.5 - 1e-9j), np.append(line.w, line.w[0]),
                      np.append(line.log_f, line.log_f[:, :1], axis=1))


def test_meijer_vs_mpmath_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    # a Q-shaped spec G^{2,1}_{2,2} with generic (non-integer-spaced)
    # parameters, where mpmath's hypergeometric route is itself reliable
    spec = sf.MeijerSpec(2, 1, 2, 2, (-5.5, -2.0), (0.0, 0.6))
    ct = sf.ContourSpec.auto(spec)
    for x in (0.4, 1.0, 7.0):
        ref = float(mpmath.meijerg([[-5.5], [-2.0]], [[0.0, 0.6], []], x))
        assert sf.meijer_g(spec, ct, x) == pytest.approx(ref, rel=1e-11)


# G^{m,n}_{p,q}(a; b): spec rows, and at x = 1e-8, 1e-4, 1e-2, 1, 30 the
# absolute error bound, max(1e-13, twice the error of the order-36+ width-2
# lines that the graded panels replaced)
MEIJER_ORACLE = [
    ((3, 0), (), (0, 0, 0, 0), (6.9e-12, 1.8e-13, 1e-13, 1e-13, 1e-13)),
    ((4, 0), (), (0, 1, 0, 2, 0), (8.0e-12, 2.6e-13, 1e-13, 1e-13, 1e-13)),
    ((2, 0), (), (0, 0, 0), (4.1e-12, 1.3e-13, 1e-13, 1e-13, 1e-13)),
    ((2, 1), (-0.5,), (0, 0.5, 0), (5.5e-11, 1.6e-13, 1e-13, 1e-13, 1e-13)),
    ((2, 0), (), (0, 0), (1.1e-11, 2.7e-13, 1e-13, 1e-13, 1e-13)),
    ((5, 0), (), (0, 0, 0, 0, 0, 0), (2.1e-11, 2.9e-13, 1e-13, 1e-13, 1e-13)),
]


@pytest.mark.parametrize("orders, a, b, bounds", MEIJER_ORACLE,
                         ids=["G30_04", "G40_05", "G20_03", "G21_13", "G20_02", "G50_06"])
def test_meijer_vs_mpmath_across_specs(orders, a, b, bounds):
    # multiple poles next to the line (k = 2..5), poles on both sides, and
    # |ln x| up to 18.4, reach bucket 5
    mpmath = pytest.importorskip("mpmath")
    (m, n), a, b = orders, tuple(map(float, a)), tuple(map(float, b))
    spec = sf.MeijerSpec(m, n, len(a), len(b), a, b)
    ct = sf.ContourSpec.auto(spec)
    for x, bound in zip((1e-8, 1e-4, 1e-2, 1.0, 30.0), bounds):
        with mpmath.workdps(30):
            ref = float(mpmath.meijerg([a[:n], a[n:]], [b[:m], b[m:]], x))
        assert abs(sf.meijer_g(spec, ct, x) - ref) <= bound, x


def _mb_log_integrand_by_factor(spec, s):
    """The Mellin-Barnes log integrand one ln_gamma call a factor, added in
    the order _mb_log_integrand keeps."""
    g = np.zeros_like(s)
    for j in range(spec.m):
        g = g + sf.ln_gamma(spec.b[j] - s)
    for j in range(spec.n):
        g = g + sf.ln_gamma(1.0 - spec.a[j] + s)
    for j in range(spec.m, spec.q):
        g = g - sf.ln_gamma(1.0 - spec.b[j] + s)
    for j in range(spec.n, spec.p):
        g = g - sf.ln_gamma(spec.a[j] - s)
    return g


def _oracle_specs():
    """The MEIJER_ORACLE specs, and two with p > n: G^{2,1}_{2,2}, and
    G^{3,1}_{2,4}, whose four numerator and two denominator factors show
    the order of the sum."""
    specs = [sf.MeijerSpec(m, n, len(a), len(b), tuple(map(float, a)), tuple(map(float, b)))
             for (m, n), a, b, _ in MEIJER_ORACLE]
    return specs + [sf.MeijerSpec(2, 1, 2, 2, (-5.5, -2.0), (0.0, 0.6)),
                    sf.MeijerSpec(3, 1, 2, 4, (-0.5, 1.3), (0.0, 0.5, 0.25, 0.7))]


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_mb_log_integrand_is_its_factors_in_one_call(monkeypatch, dtype):
    t = np.linspace(-40.0, 40.0, 161).astype(dtype)
    for spec in _oracle_specs():
        s = dtype(sf.ContourSpec.auto(spec).abscissa) + 1j * t
        ref = _mb_log_integrand_by_factor(spec, s)
        calls = _count_ln_gamma(monkeypatch, sf)
        got = sf._mb_log_integrand(spec, s)
        monkeypatch.undo()
        assert got.dtype == ref.dtype and np.array_equal(got, ref) and len(calls) == 1, spec


def _tail_height_by_growth(spec, contour, lx_max, power):
    """meijer_line's half-height as one tail evaluation a height found it."""
    c = contour.abscissa

    def tail_log_mag(height):
        s_top = c + 1j * height
        val = float(np.real(sf._mb_log_integrand(spec, np.array([s_top]))[0]))
        return val + abs(c) * lx_max + power * math.log(abs(s_top))

    height = contour.half_height
    target = math.log(sf._TOL) + math.log(1e-2)
    tail = tail_log_mag(height)
    grow = 0
    while tail > target and grow < 60:
        height *= 1.35
        grow += 1
        tail = tail_log_mag(height)
    if tail > target:
        raise NonConvergent("integrand tail exceeds _TOL/100 at truncation height")
    return height


def test_meijer_line_height_is_the_growth_loops(monkeypatch):
    # the same height as the loop, within the first four heights and past
    # them (a low start), and the same raise; a build takes at most three
    # ln_gamma calls: one or two for the height, one for the nodes
    past_four = 0
    for spec in _oracle_specs():
        auto = sf.ContourSpec.auto(spec)
        for contour in (auto, sf.ContourSpec(auto.abscissa, 0.5)):
            for lx_max, power in ((0.0, 0), (9.0, 0), (9.0, 2), (60.0, 1)):
                height = sf._tail_height(spec, contour, lx_max, power)
                assert height == _tail_height_by_growth(spec, contour, lx_max, power)
                past_four += height > contour.half_height * 1.35 ** 3.5
                calls = _count_ln_gamma(monkeypatch, sf)
                sf.meijer_line(spec, contour, lx_max, power)
                monkeypatch.undo()
                assert len(calls) <= 3
        low = sf.ContourSpec(auto.abscissa, 1e-9)
        for tail_height in (sf._tail_height, _tail_height_by_growth):
            with pytest.raises(NonConvergent):
                tail_height(spec, low, 1.0, 0)
    assert past_four >= 10


@pytest.mark.parametrize("orders, a, b, x", [
    ((2, 0), (), (0.0, 0.0, 0.0), 1e-30),  # 67.31 for 67.35 before it raised
    ((2, 0), (), (0.0, 0.0, 0.0), 1e-100),  # 8e33 for 228.5
    ((2, 1), (-0.5,), (0.0, 0.5, 0.0), 1e-12),
])
def test_meijer_g_raises_where_the_line_rounding_outgrows_it(orders, a, b, x):
    # eps x^c Σ|coeff| beyond _LOSS_BUDGET of |G(x)|: no number rather than a wrong one
    (m, n) = orders
    spec = sf.MeijerSpec(m, n, len(a), len(b), a, b)
    with pytest.raises(NonConvergent, match="loses too much"):
        sf.meijer_g(spec, sf.ContourSpec.auto(spec), x)
    with pytest.raises(NonConvergent, match="loses too much"):
        sf.meijer_g(spec, sf.ContourSpec.auto(spec), np.array([1.0, x]))


def test_check_loss_fails_nan_and_inf_and_names_the_worst():
    # eps e^{log_mass} against _LOSS_BUDGET of scale; a NaN or inf loss is the worst entry
    def describe(i, loss):
        return f"entry {i}: {loss:.1e}"

    sf.check_loss(np.array([0.0, 10.0]), np.array([1.0, 1e-3]), describe)
    for log_mass, scale, message in [
        ([0.0, 20.0, 30.0, 0.0], [1.0, 1.0, 1.0, 1.0], "entry 2: 2.4e-03"),
        ([0.0, np.nan, 30.0, 0.0], [1.0, 1.0, 1.0, 1.0], "entry 1: nan"),
        ([0.0, 0.0, 30.0, 0.0], [1.0, 1.0, 1.0, np.nan], "entry 3: nan"),
        ([0.0, 30.0, 0.0, 0.0], [1.0, 1.0, 0.0, 1.0], "entry 2: inf"),
        ([0.0, 30.0, 800.0, 0.0], [1.0, 1.0, 1.0, 1.0], "entry 2: inf"),
        ([0.0, -np.inf, 0.0, 0.0], [1.0, 0.0, 1.0, 1.0], "entry 1: nan"),  # no mass, no value
    ]:
        with pytest.raises(NonConvergent, match=f"^{message}$"):
            sf.check_loss(np.array(log_mass), np.array(scale), describe)


@pytest.mark.parametrize("x", [1e-30, 1e30])
def test_meijer_g_far_out_raises_a_wpl_error(x):
    # the Q_l line at (20,1,1), abscissa -10.5: e^{d |ln x|} passes float range
    from wpl import finite_kernel as fk
    from wpl.freeprob import EnsembleParams

    params = EnsembleParams(N=20, r=1, s=1, nu=(0,), mu=(0,))
    for l in (0, 3, 19):
        spec = fk.q_l_meijer_spec(params, l)
        contour = sf.ContourSpec.auto(spec)
        with pytest.raises(WplError):
            sf.meijer_g(spec, contour, x)
        with pytest.raises(WplError):
            sf.meijer_g_mellin_power(spec, contour, x, 1)


def test_meijer_line_panels():
    # panels at most 2/m wide in reach bucket m, the first narrowing as the
    # order k of the pole next to the line grows: G^{k,0}_{0,k}(x | 0..0)
    lx_max = 9.0
    bucket = math.ceil(2 * lx_max / sf._LINE_REACH)
    first = []
    for k in (1, 2, 3):
        spec = sf.MeijerSpec(k, 0, 0, k, (), (0.0,) * k)
        line = sf.meijer_line(spec, sf.ContourSpec.auto(spec), lx_max)
        widths = line.w.reshape(-1, sf._LINE_ORDER).sum(axis=1) / 2
        assert np.all(widths <= 2.0 / bucket + 1e-12) and widths[-2] == pytest.approx(2.0 / bucket)
        first.append(widths[0])
    assert first[0] > first[1] > first[2]


def test_meijer_pole_separation_validation():
    with pytest.raises(ContourViolation):
        sf.MeijerSpec(1, 1, 1, 1, (2.0,), (0.0,))  # a - b = 2: overlapping lattices
    spec = sf.MeijerSpec(1, 0, 0, 1, (), (0.0,))
    with pytest.raises(ContourViolation):
        sf.meijer_g(spec, sf.ContourSpec(abscissa=0.5, half_height=10.0), 1.0)


def test_meijer_nonconvergent_spec():
    # m=1, n=0 but p = q: neither quadrature nor entire residue series
    spec = sf.MeijerSpec(1, 0, 1, 1, (3.5,), (0.0,))
    with pytest.raises(NonConvergent):
        sf.meijer_g(spec, sf.ContourSpec.auto(spec), 2.0)


def test_mellin_power_identity_and_derivative():
    spec, ct = _spec_contour(1, 0, 0, 1, (), (0.0,))
    assert sf.meijer_g_mellin_power(spec, ct, 1.0, 0) == pytest.approx(math.exp(-1.0), rel=1e-11)
    # x d/dx e^{-x} = -x e^{-x}
    assert sf.meijer_g_mellin_power(spec, ct, 1.0, 1) == pytest.approx(-math.exp(-1.0), rel=1e-11)


def test_mellin_power_k2_series_oracle():
    spec, ct = _spec_contour(1, 0, 0, 3, (), (0.0, 0.0, 0.0))
    x = 3.0
    oracle = sum(k * k * (-x) ** k / math.factorial(k) ** 3 for k in range(1, 70))
    assert sf.meijer_g_mellin_power(spec, ct, x, 2) == pytest.approx(oracle, rel=1e-11)


def test_mellin_power_k1_finite_difference():
    spec, ct = _spec_contour(2, 0, 0, 3, (), (0.0, 0.0, 0.0))
    for x in (0.7, 4.0):
        h = 1e-5 * x
        fd = x * (sf.meijer_g(spec, ct, x + h) - sf.meijer_g(spec, ct, x - h)) / (2 * h)
        assert sf.meijer_g_mellin_power(spec, ct, x, 1) == pytest.approx(fd, rel=1e-6)


# --- ln-x trapezoid rule -------------------------------------------------


def _identity(v):
    return v


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.longdouble, 1e-15)])
@pytest.mark.parametrize("a", [0.5, 2.0])
def test_ln_trapezoid_gamma_integral(dtype, tol, a):
    # ∫_0^∞ x^a e^{-x} dx = Γ(a + 1); the cuts leave < 1e-30 of the mass out
    nodes, weights, vals = sf.ln_trapezoid(lambda x: x**a * np.exp(-x), _identity, 1e-30, 80.0, tol, dtype)
    assert nodes.dtype == weights.dtype == vals.dtype == dtype
    exact = np.sqrt(sf.pi_in(dtype)) / 2 if a == 0.5 else dtype(2)
    assert abs(weights @ vals - exact) < tol


def test_ln_trapezoid_samples_only_new_midpoints():
    calls = []

    def sample(x):
        calls.append(x.copy())
        return np.exp(-x)

    nodes, _, vals = sf.ln_trapezoid(sample, _identity, 1e-12, 40.0, 1e-10)
    assert len(calls) >= 3
    assert np.array_equal(vals, np.exp(-nodes))
    grid = calls[0]
    assert np.allclose(np.diff(np.log(grid)), 1.0)  # h = 1 to start
    for mids in calls[1:]:
        # one new node strictly between each pair of old ones, none repeated
        assert len(mids) == len(grid) - 1
        assert np.all((grid[:-1] < mids) & (mids < grid[1:]))
        grid = np.insert(grid, np.arange(1, len(grid)), mids)
    assert np.array_equal(grid, nodes)


def test_ln_trapezoid_jump_raises_at_budget():
    # a jump makes the trapezoid error fall only like h: the halving must
    # stop at the node budget rather than loop
    calls = []

    def sample(x):
        calls.append(len(x))
        return np.where(x < 1.7, np.exp(-x), 0.0)

    with pytest.raises(NonConvergent):
        sf.ln_trapezoid(sample, _identity, 1e-3, 50.0, 1e-10)
    assert sum(calls) <= sf._TRAPEZOID_BUDGET


def test_trapezoid_non_finite_sample_raises_at_once():
    # an integrand that is inf at one node can never settle: the rule names
    # the node rather than halving to the budget
    calls = []

    def sample(x):
        calls.append(len(x))
        return np.where(np.isclose(x, math.e ** 2 * 1e-3), np.inf, np.exp(-x))

    with pytest.raises(NonConvergent, match="not finite at 0.00738"):
        sf.ln_trapezoid(sample, _identity, 1e-3, 50.0, 1e-10)
    assert len(calls) == 1


# --- trapezoid Mellin-Barnes lines -----------------------------------------


def test_trapezoid_line_settles_on_exp():
    # G^{1,0}_{0,1}(x | 0) = e^{-x} on Re s = -1/2, settled at its probes
    spec = sf.MeijerSpec(1, 0, 0, 1, (), (0.0,))
    probes = (1e-3, 1.0, 8.0)
    line = sf.trapezoid_line(lambda s: sf._mb_log_integrand(spec, s), -0.5, probes)
    assert np.allclose(np.diff(line.u.imag), line.w[0])  # one step h; weight h on the axis, 2h above it
    x = np.concatenate([probes, np.geomspace(1e-3, 8.0, 23)[1:-1]])
    assert np.max(np.abs(line.eval(x)[0] - np.exp(-x))) <= 1e-12


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_trapezoid_line_settles_as_with_folded_probe_sums(dtype):
    # the probe sums as e^{top + c ln x} (e^{ln F - top} @ (w x^{it})) stop
    # the halving at the same h as one exp per row, probe and node, reduced
    # as f @ w and |f| @ w
    from wpl import finite_kernel as fk
    from wpl.freeprob import EnsembleParams

    for params, regime in ((EnsembleParams(N=6, r=2, s=1, nu=(0, 1), mu=(0,)), "mid"),
                           (EnsembleParams(N=6, r=2, s=1, nu=(0, 1), mu=(0,)), "deep"),
                           (EnsembleParams(N=10, r=2, s=0, nu=(0, 1)), 4.0),
                           (EnsembleParams(N=10, r=2, s=0, nu=(0, 1)), 10.0)):
        system = fk.BiorthSystem(params)
        log_c = np.real(fk._log_gammas(params, -np.arange(1, params.N + 1).astype(dtype)))
        c, probes = system._geometry(regime)
        log_x = np.log(np.asarray(probes, dtype=dtype))

        def log_f(u):
            return fk._q_log_rows(params, u) - log_c[:, None]

        def folded(u, lf, w):
            f = np.exp(lf[:, None, :] + np.multiply.outer(log_x, u)).reshape(-1, len(u)) / (2 * sf.pi_in(dtype))
            return f @ w, np.abs(f) @ w

        m = sf.end_decay_height(log_f, c, dtype)
        u, _, _ = sf.halving_trapezoid(log_f, folded, lambda t: c + 1j * t, lambda u: np.ones(len(u), dtype),
                                       -dtype(m), 2 * m, sf.line_tol(dtype), dtype,
                                       sf._LINE_ROUNDING * float(np.finfo(dtype).eps))
        assert np.array_equal(system._line(regime, dtype).u, u[len(u) // 2:])  # the upper half of u


def test_trapezoid_line_probe_sums_memory_bounded():
    # the probe sums are (rows + probes) x nodes and one product: a rows x
    # probes x nodes integrand took the N = 40 mid line (1921 nodes, 40
    # rows, 5 probes) to 7.6 MiB; it peaks at 4.3 MiB
    import tracemalloc

    from wpl import finite_kernel as fk
    from wpl.freeprob import EnsembleParams

    system = fk.BiorthSystem(EnsembleParams(N=40, r=1, s=0, nu=(0,)))
    tracemalloc.start()
    try:
        system._line("mid", np.float64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_trapezoid_line_non_finite_integrand_raises_at_once():
    # NaN at the first midpoint: the first halving (27 midpoints) names its
    # node; halving on towards the node budget would sample 54, 108, ...
    spec = sf.MeijerSpec(1, 0, 0, 1, (), (0.0,))
    levels = []

    def log_f(s):
        levels.append(len(s))
        return np.where(s.imag == 0.5, np.nan, sf._mb_log_integrand(spec, s))

    with pytest.raises(NonConvergent, match=r"not finite at \(-0.5\+0.5j\)"):
        sf.trapezoid_line(log_f, -0.5, (1e-3, 1.0, 8.0))
    assert max(levels) < 100


def test_trapezoid_line_near_pole_raises():
    # a right pole 1e-3 from the contour: the rule converges like
    # e^{-2π 1e-3 / h}, so the halving must stop at the node budget
    spec = sf.MeijerSpec(1, 0, 0, 1, (), (-0.499,))
    with pytest.raises(NonConvergent, match="unsettled"):
        sf.trapezoid_line(lambda s: sf._mb_log_integrand(spec, s), -0.5, (0.5, 1.0, 2.0))


# --- bessel_j ------------------------------------------------------------


def test_bessel_trivial_values():
    assert sf.bessel_j(0.0, 0.0) == pytest.approx(1.0)
    assert sf.bessel_j(1.0, 0.0) == pytest.approx(0.0)
    assert sf.bessel_j(0.0, 2.0) == pytest.approx(bessel_series(0, 2.0), rel=1e-13)


def test_bessel_negative_integer_reflection():
    assert sf.bessel_j(-1.0, 2.3) == pytest.approx(-sf.bessel_j(1.0, 2.3), rel=1e-14)
    assert sf.bessel_j(-2.0, 1.1) == pytest.approx(sf.bessel_j(2.0, 1.1), rel=1e-14)


def test_bessel_vs_scipy():
    xs = np.linspace(0.0, 25.0, 40)
    for nu in (0, 1, 2, 3):
        assert np.allclose(sf.bessel_j(float(nu), xs), scipy.special.jv(nu, xs), atol=1e-10)


# --- leading asymptotics (r = 2) ------------------------------------------


def test_asymp_g10_paper_substitution():
    # at u = 1000: (1/(pi sqrt(3) 10)) e^{30 cos(pi/3)} cos(30 sin(pi/3) - pi/3)
    expected = (
        math.exp(30.0 * math.cos(math.pi / 3.0))
        * math.cos(30.0 * math.sin(math.pi / 3.0) - math.pi / 3.0)
        / (math.pi * math.sqrt(3.0) * 10.0)
    )
    assert sf.asymp_g10_r2(1000.0) == pytest.approx(expected, rel=1e-14)


def test_asymp_ratio_against_exact():
    spec, ct = _spec_contour(1, 0, 0, 3, (), (0.0, 0.0, 0.0))
    exact = sf.meijer_g(spec, ct, 500.0)
    assert abs(exact / sf.asymp_g10_r2(500.0) - 1.0) < 0.1


def test_asymp_g20_envelope():
    # conjectural: sign and envelope within 15% at u = 500
    spec, ct = _spec_contour(2, 0, 0, 3, (), (0.0, 0.0, 0.0))
    exact = sf.meijer_g(spec, ct, 500.0)
    approx = sf.asymp_g20_r2(500.0)
    assert math.copysign(1.0, exact) == math.copysign(1.0, approx)
    assert abs(exact / approx - 1.0) < 0.15
