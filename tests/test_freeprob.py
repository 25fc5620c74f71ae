"""Global-density machinery tests."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate

from wpl import freeprob as fp
from wpl.errors import DomainError, NonConvergent, NoPhysicalRoot, PoleAtMinusOne
from wpl.freeprob import EnsembleParams


def mp_density(y: float) -> float:
    if not 0.0 < y < 4.0:
        return 0.0
    return math.sqrt(y * (4.0 - y)) / (2.0 * math.pi * y)


# --- types ----------------------------------------------------------------


def test_ensemble_params_validation():
    EnsembleParams(N=3, r=2, s=1, nu=(0, 1), mu=(0,))
    with pytest.raises(DomainError):
        EnsembleParams(N=0, r=1, s=0, nu=(0,))
    with pytest.raises(DomainError):
        EnsembleParams(N=2, r=1, s=0, nu=(0, 1))
    with pytest.raises(DomainError):
        EnsembleParams(N=2, r=0, s=0)
    with pytest.raises(DomainError):
        EnsembleParams(N=2, r=1, s=1, nu=(-1,), mu=(0,))


# --- S-transform ----------------------------------------------------------


def test_s_transform_factors():
    z = 0.37
    assert fp.s_transform(1, 0, z) == pytest.approx(1.0 / (1.0 + z), rel=1e-15)
    assert fp.s_transform(0, 1, z) == pytest.approx(-z, rel=1e-15)
    assert fp.s_transform(2, 1, 1.0) == pytest.approx(-0.25, rel=1e-15)
    with pytest.raises(PoleAtMinusOne):
        fp.s_transform(2, 1, -1.0)


# --- Stieltjes solver -----------------------------------------------------


def test_solver_matches_mp_closed_form():
    # G(z) = (-1 + sqrt(1 - 4/z))/2 for (r,s) = (1,0)
    sv = fp.solve_stieltjes(1, 0, complex(-1.0, 0.0))
    assert sv.G.real == pytest.approx((-1.0 + math.sqrt(5.0)) / 2.0, rel=1e-12)
    assert sv.residual < 1e-12
    for z in (2.0 + 0.7j, 0.5 + 0.1j, -3.0 + 0.0j):
        sv = fp.solve_stieltjes(1, 0, complex(z))
        ref = (-1.0 + np.sqrt(1.0 - 4.0 / complex(z))) / 2.0
        assert abs(sv.G - ref) < 1e-11
        assert sv.residual < 1e-12


def test_solver_rr_closed_form():
    # z G(-z) = 1 - 1/(1 + z^{1/(r+1)}) for r = s
    for r in (1, 2):
        for z in (0.5, 1.7):
            sv = fp.solve_stieltjes(r, r, complex(-z, 0.0))
            lhs = z * sv.G.real  # z G(-z) with the solver at -z
            rhs = 1.0 - 1.0 / (1.0 + z ** (1.0 / (r + 1)))
            assert lhs == pytest.approx(rhs, rel=1e-11)


def test_solver_large_z_expansion():
    sv = fp.solve_stieltjes(2, 0, complex(-1e7, 0.0))
    assert sv.G.real == pytest.approx(1e-7, rel=1e-5)


def test_herglotz_property_random_grid():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.05, 8.0, 1000) + 1j * rng.uniform(0.01, 5.0, 1000)
    # one array solve per (r, s): the batch tracks each point as a scalar solve would
    for (r, s), zs in (((1, 0), pts), ((2, 1), pts[::50]), ((1, 1), pts[::50]), ((1, 2), pts[::50])):
        sv = fp.solve_stieltjes(r, s, zs)
        assert np.all(sv.G.imag > 0)
        assert np.all(sv.residual < 1e-12)


def test_gg_symmetry_under_rs_swap():
    # G_{r,s}(z) = -1/z - G_{s,r}(1/z)/z^2; 1/z lands in the lower half
    # plane, so use the Schwarz reflection G(w) = conj(G(conj w))
    for (r, s) in ((2, 1), (1, 2), (3, 0)):
        for z in (1.3 + 0.9j, 0.4 + 0.2j):
            lhs = fp.solve_stieltjes(r, s, z).G
            g_inv = np.conj(fp.solve_stieltjes(s, r, np.conj(1.0 / z)).G)
            mapped = -1.0 / z - g_inv / z**2
            assert abs(lhs - mapped) < 1e-10


# --- densities ------------------------------------------------------------


def rr_density(r: int, x: float) -> float:
    # explicit r = s density, an oracle independent of the phi-map inversion
    theta = math.pi / (r + 1)
    v = x ** (1.0 / (r + 1))
    return v * math.sin(theta) / (math.pi * x * (1.0 + 2.0 * v * math.cos(theta) + v * v))


def mp_phi_density(r: int, s: int, x: float) -> float:
    # 40-digit bisection of the phi map in t = phi (r+1)/pi, psi = pi (1-t)/(s+1)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        target = mpmath.log(x)

        def angles(t):
            return mpmath.pi * t / (r + 1), mpmath.pi * (1 - t) / (s + 1)

        def log_x(t):
            phi, psi = angles(t)
            return ((r + 1) * mpmath.log(mpmath.sin(psi)) + (s - r) * mpmath.log(mpmath.sin(phi + psi))
                    - (s + 1) * mpmath.log(mpmath.sin(phi)))

        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(110):
            mid = (lo + hi) / 2
            if log_x(mid) > target:
                lo = mid
            else:
                hi = mid
        phi, psi = angles((lo + hi) / 2)
        return float(mpmath.sin(psi) * mpmath.sin(phi) / (mpmath.pi * x * mpmath.sin(phi + psi)))


def test_global_density_mp_values():
    assert fp.global_density(1, 0, 2.0) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-10)
    xs = np.linspace(0.1, 3.9, 25)
    for x in xs:
        assert fp.global_density(1, 0, float(x)) == pytest.approx(mp_density(float(x)), abs=1e-8)
        assert fp.stieltjes_density(1, 0, float(x)) == pytest.approx(mp_density(float(x)), abs=1e-8)


def test_global_density_outside_support_is_zero():
    assert fp.global_density(1, 0, 4.5) == pytest.approx(0.0, abs=1e-8)
    assert fp.stieltjes_density(1, 0, 4.5) == pytest.approx(0.0, abs=1e-8)
    # s = 0: support (0, (r+1)^{r+1}/r^r); r = 0: support (s^s/(s+1)^{s+1}, inf)
    assert np.all(fp.global_density(2, 0, np.array([27.0 / 4.0, 7.0, 1e6])) == 0.0)
    assert np.all(fp.global_density(0, 1, np.array([1e-6, 0.1, 0.25])) == 0.0)
    assert np.all(fp.global_density(0, 2, np.array([0.01, 4.0 / 27.0])) == 0.0)
    assert fp.global_density(2, 0, 27.0 / 4.0 * (1.0 - 1e-9)) > 0.0
    assert fp.global_density(0, 1, 0.25 * (1.0 + 1e-9)) > 0.0


def test_global_density_scalar_array_and_domain():
    assert isinstance(fp.global_density(2, 1, 1.5), float)
    xs = np.geomspace(1e-3, 1e3, 12).reshape(3, 4)
    out = fp.global_density(2, 1, xs)
    assert out.shape == (3, 4)
    scalars = [fp.global_density(2, 1, float(x)) for x in xs.ravel()]
    np.testing.assert_allclose(out.ravel(), scalars, rtol=1e-14, atol=0.0)
    for bad in (0.0, -1.0, np.array([1.0, 0.0]), math.nan):
        with pytest.raises(DomainError):
            fp.global_density(1, 1, bad)
    with pytest.raises(DomainError):
        fp.global_density(0, 0, 1.0)
    with pytest.raises(DomainError):
        fp.stieltjes_density(1, 1, 0.0)


def test_density_rr_closed_values():
    assert fp.global_density(1, 1, 1.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)
    assert fp.stieltjes_density(1, 1, 1.0) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-9)
    for r in (1, 2, 3):
        for x in np.geomspace(1e-9, 1e9, 37):
            assert fp.global_density(r, r, float(x)) == pytest.approx(rr_density(r, float(x)), rel=1e-13)


def test_global_density_far_tail_mpmath():
    # far tail at r > s >= 2, where the solver route raises or is wrong
    for r, s in ((3, 2), (4, 3), (5, 4), (4, 2), (5, 3)):
        xs = np.geomspace(1e3, 2e6, 40)
        rho = np.array([fp.global_density(r, s, float(x)) for x in xs])
        ref = np.array([mp_phi_density(r, s, x) for x in xs])
        assert np.max(np.abs(rho / ref - 1.0)) < 1e-12, (r, s)


def test_global_density_wide_range_mpmath():
    for r, s in ((1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1)):
        hi = 0.99 * (r + 1) ** (r + 1) / r**r if s == 0 else 1e9
        xs = np.geomspace(1e-9, hi, 25)
        rho = fp.global_density(r, s, xs)
        ref = np.array([mp_phi_density(r, s, x) for x in xs])
        assert np.max(np.abs(rho / ref - 1.0)) < 1e-12, (r, s)


def test_global_density_r0_matches_solver():
    for s in (1, 2):
        edge = s**s / (s + 1) ** (s + 1)
        for x in np.geomspace(1.05 * edge, 1e3, 15):
            assert abs(fp.global_density(0, s, float(x)) - fp.stieltjes_density(0, s, float(x))) < 1e-9
        assert fp.stieltjes_density(0, s, 0.5 * edge) == 0.0


# points of a 40-point log scan of [1e3, 2e6] where the homotopy, started
# at w0 = 1 from Im z = 1e7 |z|, landed on a wrong root: the Richardson
# result came back off by 1.3-4x (1.81e-7 against 6.78e-8 at (3,2),
# x = 8.85e4), and later raised.  Started on the physical root, it is right
@pytest.mark.parametrize("r,s,x", [
    (3, 2, 88462.92182376178), (3, 2, 1354398.319194773), (4, 3, 346141.63665927533),
    (5, 4, 27473.279908146378), (4, 2, 2000000.0),
])
def test_stieltjes_density_raises_beyond_envelope(r, s, x):
    ref = fp.global_density(r, s, x)
    assert abs(fp.stieltjes_density(r, s, x) - ref) <= 1e-9 * ref


def test_stieltjes_density_far_tail_sweep():
    # the far tail at s >= 3, where the start at w0 = 1 returned 41 of these
    # 108 values wrong without raising and raised at 24
    xs = np.geomspace(1e7, 1e9, 9)
    for r, s in itertools.product(range(6), (3, 5)):
        ref = fp.global_density(r, s, xs)
        assert np.all(np.abs(fp.stieltjes_density(r, s, xs) - ref) <= 1e-9 * ref), (r, s)


def test_stieltjes_density_descent_headroom():
    # the largest pairs of the far-tail scans, from deep below the hard edge
    # to far in the tail: with half as many descent steps (8,7) raises
    # NonConvergent at x = 1e9.  Off the support (x = 5.6e-3 at (0,8)) the
    # reference is 0 and the route returns rounding noise, 2e-23
    xs = np.geomspace(1e-9, 1e9, 9)
    for r, s in ((8, 7), (7, 8), (8, 0), (0, 8)):
        ref = fp.global_density(r, s, xs)
        tol = np.where(ref > 0, 1e-9 * ref, 1e-12 / xs)
        assert np.all(np.abs(fp.stieltjes_density(r, s, xs) - ref) <= tol), (r, s)


def test_stieltjes_density_raises_on_zero_inside_support(monkeypatch):
    # at r, s >= 1 every x > 0 is in the support: a root with Im G = 0 there
    # is not the physical one, and rho = 0 must not come back
    solve = fp.solve_stieltjes

    def real_root(r, s, z):
        sv = solve(r, s, z)
        return fp.StieltjesValue(z=sv.z, G=sv.G.real + 0j, residual=sv.residual)

    monkeypatch.setattr(fp, "solve_stieltjes", real_root)
    with pytest.raises(NoPhysicalRoot, match="at x = 0.5, 2.0$"):
        fp.stieltjes_density(1, 1, np.array([0.5, 2.0]))
    assert fp.stieltjes_density(1, 0, 5.0) == 0.0  # off the (1,0) support 0 is right


STIELTJES_PAIRS = ((1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 1), (4, 2))


@pytest.mark.parametrize("r,s", STIELTJES_PAIRS)
def test_stieltjes_envelope_rule_quiet_inside(r, s):
    # on [1e-9, 1e3], off the support included, up to 1% from a soft edge,
    # the Richardson agreement rule never fires and the value is right
    xs = list(np.geomspace(1e-9, 1e3, 6))
    edges = ([(r + 1) ** (r + 1) / r**r] if s == 0 else []) + ([s**s / (s + 1) ** (s + 1)] if r == 0 else [])
    xs += [e * f for e in edges for f in (0.9, 0.99, 1.01, 1.1)]
    for x in xs:
        if any(0.99 * e < x < 1.01 * e for e in edges):
            continue
        rho = fp.stieltjes_density(r, s, float(x))
        ref = float(fp.global_density(r, s, float(x)))
        assert abs(rho - ref) <= 1e-9 * max(ref, 1.0), (r, s, x)


# grids for the batched route: log-spaced over [1e-9, 1e3], off the support
# included, plus points on both sides of each soft edge
BATCH_PAIRS = ((2, 0), (1, 0), (1, 1), (2, 2), (1, 2), (0, 1))


def _batch_grid(r, s):
    xs = list(np.geomspace(1e-9, 1e3, 13))
    if s == 0:
        xs += [(r + 1) ** (r + 1) / r**r * f for f in (0.9, 0.99, 1.01, 1.1)]
    if r == 0:
        xs += [s**s / (s + 1) ** (s + 1) * f for f in (0.5, 0.9, 1.1, 2.0)]
    return np.array(xs)


@pytest.mark.parametrize("r,s", BATCH_PAIRS)
def test_stieltjes_density_array_equals_scalar_calls(r, s, monkeypatch):
    xs = _batch_grid(r, s)
    steps = []
    roots = fp._roots
    monkeypatch.setattr(fp, "_roots", lambda *args: steps.append(len(args[2])) or roots(*args))
    rho = fp.stieltjes_density(r, s, xs)
    # every path starts on its root and takes its steps without refinement
    assert sum(steps) == 3 * len(xs) * (fp._H_STEPS - 1)
    monkeypatch.undo()
    assert rho.shape == xs.shape
    assert np.array_equal(rho, [fp.stieltjes_density(r, s, float(x)) for x in xs])
    assert np.any(rho == 0.0) == (r == 0 or s == 0)  # off the support


def test_solve_stieltjes_scalar_and_array_shapes():
    for z in (1.5 + 0.2j, -2.0):
        sv = fp.solve_stieltjes(2, 1, z)
        assert np.ndim(sv.z) == np.ndim(sv.G) == np.ndim(sv.residual) == 0
    upper = np.geomspace(1e-3, 1e3, 6).reshape(2, 3) * (1.0 + 0.5j)
    negative = -np.geomspace(1e-3, 1e3, 6).reshape(3, 2) + 0j
    mixed = np.array([upper[0, 0], negative[0, 0], upper[1, 2]])
    for r, s in ((2, 1), (1, 1), (0, 2)):
        for zs in (upper, negative, mixed):
            sv = fp.solve_stieltjes(r, s, zs)
            assert sv.z.shape == sv.G.shape == sv.residual.shape == zs.shape
            scalars = [fp.solve_stieltjes(r, s, complex(z)) for z in zs.ravel()]
            assert np.array_equal(sv.G.ravel(), [v.G for v in scalars])
            assert np.array_equal(sv.residual.ravel(), [v.residual for v in scalars])
            assert np.all(sv.residual < 1e-12)
    xs = np.geomspace(0.1, 10.0, 4).reshape(2, 2)
    rho = fp.stieltjes_density(2, 1, xs)
    assert rho.shape == (2, 2) and isinstance(fp.stieltjes_density(2, 1, 0.1), float)
    assert np.array_equal(rho.ravel(), [fp.stieltjes_density(2, 1, float(x)) for x in xs.ravel()])
    with pytest.raises(DomainError):
        fp.solve_stieltjes(1, 0, np.array([-1.0, 2.0 + 0j]))
    with pytest.raises(DomainError):
        fp.solve_stieltjes(1, 0, np.array([1.0 + 1j, 1.0 - 1j]))
    with pytest.raises(DomainError):
        fp.solve_stieltjes(1, 0, np.array([1.0 + 1j, complex(math.nan, 1.0)]))


def test_solve_stieltjes_vanishing_leading_coefficient():
    # at r = s odd and z = -1 the ray ends at zeta = 1, where the polynomial
    # loses its top degree; z G(-z) = 1 - 1/(1 + z^{1/(r+1)}) = 1/2
    for r in (1, 3):
        sv = fp.solve_stieltjes(r, r, np.array([-1.0, -0.5]))
        assert sv.G[0] == pytest.approx(0.5, rel=1e-13)
        assert sv.G[1] * 0.5 == pytest.approx(1.0 - 1.0 / (1.0 + 0.5 ** (1.0 / (r + 1))), rel=1e-12)


def test_stieltjes_density_array_raises_beyond_envelope():
    # one point on the (1,0) soft edge among good ones fails the whole call,
    # and the error names it
    xs = np.array([0.5, 3.0, 4.0, 1.0])
    with pytest.raises(NonConvergent, match="at x = 4.0$"):
        fp.stieltjes_density(1, 0, xs)
    with pytest.raises(DomainError):
        fp.stieltjes_density(1, 1, np.array([1.0, 0.0]))


def test_rr_transformed_is_arcsine():
    # lambda = 1/(1+x) maps the r=s=1 density to 1/(pi sqrt(lam(1-lam)))
    for lam in (0.2, 0.5, 0.8):
        x = 1.0 / lam - 1.0
        lhs = fp.global_density(1, 1, x) / lam**2  # rho_x dx = rho_lam dlam
        rhs = 1.0 / (math.pi * math.sqrt(lam * (1.0 - lam)))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_parametric_point_r1():
    # phi = pi/4 at r = 1, s = 0: x = 2, rho = 1/(2 pi)
    assert fp.global_density(1, 0, 2.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-13)
    for x in (0.01, 0.5, 3.0, 3.99):
        assert fp.global_density(1, 0, x) == pytest.approx(mp_density(x), rel=1e-13)


def test_parametric_edge_r2():
    # x -> 27/4-: rho -> 0 like sqrt(27/4 - x), so rho / sqrt(27/4 - x) settles
    gaps = np.array([1e-2, 1e-4, 1e-6, 1e-8])
    rho = fp.global_density(2, 0, 27.0 / 4.0 - gaps)
    assert np.all(np.diff(rho) < 0)
    ratio = rho / np.sqrt(gaps)
    assert abs(ratio[-1] / ratio[-2] - 1.0) < 1e-3
    with pytest.raises(DomainError):
        fp.global_density(2, 0, -0.1)


def test_parametric_vs_solver_r2():
    # phi = pi/6 at r = 2, s = 0: x = 8/3, rho = sqrt(3)/(8 pi)
    rho = math.sqrt(3.0) / (8.0 * math.pi)
    assert fp.global_density(2, 0, 8.0 / 3.0) == pytest.approx(rho, rel=1e-13)
    assert fp.stieltjes_density(2, 0, 8.0 / 3.0) == pytest.approx(rho, abs=1e-8)


def test_density_normalization_quadrature():
    # s = 0: compact support; r = s: exact transformed integral
    val, _ = scipy.integrate.quad(lambda x: fp.global_density(2, 0, x), 1e-9, 27.0 / 4.0, limit=200)
    assert val == pytest.approx(1.0, abs=1e-6)
    val, _ = scipy.integrate.quad(
        lambda lam: fp.global_density(2, 2, 1.0 / lam - 1.0) / lam**2, 1e-12, 1.0, limit=200
    )
    assert val == pytest.approx(1.0, abs=1e-8)


def test_first_moment_diverges_for_s_ge_1():
    # integral of x rho over (0, X) grows without bound
    partial = []
    for X in (1e2, 1e4, 1e6):
        val, _ = scipy.integrate.quad(
            lambda x: x * fp.global_density(1, 1, x), 0.0, X, limit=300
        )
        partial.append(val)
    assert partial[1] > 2.0 * partial[0]
    assert partial[2] > 2.0 * partial[1]


# --- moments --------------------------------------------------------------


def test_fuss_catalan_values():
    assert fp.fuss_catalan(1, 3) == 5
    assert fp.fuss_catalan(2, 2) == 3
    assert fp.fuss_catalan(2, 3) == 12
    assert fp.fuss_catalan(0, 4) == 1


def test_fuss_catalan_recurrence_brute_force():
    # m_p = sum over compositions q_1+...+q_{r+1} = p-1 of prod m_{q_i}
    for r in (1, 2, 3):
        m = [fp.fuss_catalan(r, p) for p in range(6)]
        for p in range(1, 5):
            acc = 0
            for combo in itertools.product(range(p), repeat=r + 1):
                if sum(combo) == p - 1:
                    prod = 1
                    for q in combo:
                        prod *= m[q]
                    acc += prod
            assert acc == m[p]
    assert fp.fuss_catalan_recurrence_check(1, 6)
    assert fp.fuss_catalan_recurrence_check(2, 5)
    assert fp.fuss_catalan_recurrence_check(3, 4)


def test_moment_sequence_type():
    seq = fp.MomentSequence.fuss_catalan(2, 5)
    assert seq.values[0] == 1
    assert seq.values[2] == 3


def test_moments_rr_arcsine():
    assert fp.moments_rr(1, 1) == Fraction(1, 2)
    assert fp.moments_rr(1, 2) == Fraction(3, 8)
    assert fp.moments_rr(1, 3) == Fraction(5, 16)  # (2p choose p)/4^p


def test_moments_rr_quadrature_oracle():
    # p-th moment of the transformed r=2 density by direct quadrature
    target = float(fp.moments_rr(2, 2))

    def integrand(lam):
        x = 1.0 / lam - 1.0
        return lam**2 * fp.global_density(2, 2, x) / lam**2

    val, _ = scipy.integrate.quad(integrand, 1e-12, 1.0, limit=400)
    assert val == pytest.approx(target, abs=1e-8)


# --- tails ----------------------------------------------------------------


def test_tail_small_x_forms():
    assert fp.tail_small_x(1, 0.01) == pytest.approx(1.0 / (math.pi * 0.1), rel=1e-13)
    # ratio approaches 1 from the measured subleading side
    r_at_1em6 = fp.global_density(2, 0, 1e-6) / fp.tail_small_x(2, 1e-6)
    r_at_1em9 = fp.global_density(2, 0, 1e-9) / fp.tail_small_x(2, 1e-9)
    assert abs(r_at_1em6 - 1.0) < 0.05
    assert abs(r_at_1em9 - 1.0) < 0.005
    assert abs(r_at_1em9 - 1.0) < abs(r_at_1em6 - 1.0)
    # r = s = 2 closed form at 1e-6
    assert fp.global_density(2, 2, 1e-6) / fp.tail_small_x(2, 1e-6) == pytest.approx(1.0, abs=0.02)
