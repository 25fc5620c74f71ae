"""Hard-edge kernel, tails, and experiment tests."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from wpl import hard_edge as he
from wpl import specfun as sf
from wpl.errors import CoincidentPoints, DomainError, NonConvergent, UnsupportedR
from wpl.hard_edge import HardEdgeParams
from wpl.specfun import bessel_j

R1 = HardEdgeParams(r=1, nu=(0,))
R2 = HardEdgeParams(r=2, nu=(0, 0))


def bessel_kernel(x: float, y: float, nu: int = 0) -> float:
    """Classical hard-edge Bessel kernel (Lommel integral closed form)."""
    a, b = 2.0 * math.sqrt(x), 2.0 * math.sqrt(y)
    if x == y:
        return float(he.bessel_density(nu, x))
    num = a * bessel_j(nu + 1.0, a) * bessel_j(float(nu), b) - b * bessel_j(float(nu), a) * bessel_j(nu + 1.0, b)
    return num / (2.0 * (x - y))


def test_params_validation():
    with pytest.raises(DomainError):
        HardEdgeParams(r=0, nu=())
    with pytest.raises(DomainError):
        HardEdgeParams(r=2, nu=(0,))
    # NaN and inf used to escape as a ValueError from the line's order
    for params in (R1, R2):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                he.k_hard(params, bad, 1.0)
            with pytest.raises(DomainError):
                he.k_hard_diag(params, [1.0, bad])


def test_diagonal_bessel_values():
    k = he.k_hard(R1, 1.0, 1.0)
    assert k.method == "integral"
    assert k.value == pytest.approx(0.3827, abs=2e-4)
    assert k.value == pytest.approx(float(he.bessel_density(0, 1.0)), rel=1e-12)


def test_diagonal_limit_at_zero():
    # K(x,x) -> J_0(0)^2 = 1 as x -> 0+
    assert he.k_hard(R1, 1e-8, 1e-8).value == pytest.approx(1.0, abs=1e-6)


def test_bessel_reduction_all_a():
    xs = np.linspace(0.1, 10.0, 15)
    for a in (0, 1, 2):
        params = HardEdgeParams(r=1, nu=(a,))
        diag = he.k_hard_diag(params, xs)
        assert np.max(np.abs(diag - he.bessel_density(a, xs))) < 1e-6


def scipy_bessel_kernel(a: int, x, y) -> np.ndarray:
    """r = 1 kernel from scipy's J: J_a² - J_{a+1}J_{a-1} at 2√x on the
    diagonal, the gauged Bessel kernel (y/x)^{a/2} K_Bessel(x, y) off it."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    sx, sy = 2.0 * np.sqrt(x), 2.0 * np.sqrt(y)
    jx, jy = scipy.special.jv(a, sx), scipy.special.jv(a, sy)
    diag = jx**2 - scipy.special.jv(a + 1, sx) * scipy.special.jv(a - 1, sx)
    same = x == y
    dx = np.where(same, 1.0, x - y)
    off = (sx * scipy.special.jv(a + 1, sx) * jy - sy * jx * scipy.special.jv(a + 1, sy)) / (2.0 * dx)
    return np.where(same, diag, (y / x) ** (a / 2.0) * off)


@pytest.mark.parametrize("a", [0, 1, 2])
def test_r1_kernel_matches_scipy_bessel(a):
    # an oracle that shares no code with wpl's bessel_j, normwise over
    # x in [0.05, 40], through k_hard_diag and through a k_hard_grid
    params = HardEdgeParams(r=1, nu=(a,))
    xs = np.linspace(0.05, 40.0, 41)
    ref = scipy_bessel_kernel(a, xs, xs)
    assert np.max(np.abs(he.k_hard_diag(params, xs) - ref)) <= 1e-12 * np.max(np.abs(ref))
    pts = np.geomspace(0.05, 40.0, 12)
    ref = scipy_bessel_kernel(a, pts[:, None], pts[None, :])
    assert np.max(np.abs(he.k_hard_grid(params, pts, pts) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_u_grid_widens_past_the_bessel_oscillation():
    # panels keep the uniform rule's width w0 while J_ν(2√(x e^{-t}))
    # oscillates (t < ln x_max) and widen beyond, to at most a third of
    # the uniform rule's nodes
    x_max, xg = 40.0, he._U_RULE[0]
    n_uniform = max(24, int(42.0 * 1.2), int(2.0 * (3.0 * math.sqrt(x_max) + 8.0)))
    w0 = 42.0 / n_uniform
    u, w = he._u_grid(x_max)
    t = -np.log(u).reshape(-1, len(xg))  # one row a panel
    widths = 2.0 * (t[:, -1] - t[:, 0]) / (xg[-1] - xg[0])
    left = t.mean(axis=1) - widths / 2.0
    osc = left < math.log(x_max)
    assert u.size <= n_uniform * len(xg) / 3
    assert np.allclose(widths[osc], w0, rtol=1e-9, atol=0.0)
    assert np.all(widths[~osc][:-1] > w0) and np.all(widths <= he._U_MAX_WIDTH * (1.0 + 1e-12))
    assert np.sum(w) == pytest.approx(1.0, abs=1e-15)


def test_off_diagonal_matches_bessel_kernel_gauge():
    # r=1, nu=(a): K(x,y) = (y/x)^{a/2} * Bessel kernel
    for a in (0, 1):
        params = HardEdgeParams(r=1, nu=(a,))
        for (x, y) in ((0.5, 2.0), (3.0, 1.2)):
            gauge = (y / x) ** (a / 2.0)
            assert he.k_hard(params, x, y).value == pytest.approx(
                gauge * bessel_kernel(x, y, a), rel=1e-10
            )


def test_cd_matches_integral_r2():
    rng = np.random.default_rng(2)
    for _ in range(6):
        x, y = rng.uniform(0.5, 20.0, 2)
        if abs(x - y) < 1e-3:
            continue
        a = he.k_hard(R2, float(x), float(y)).value
        b = he.k_hard_cd(R2, float(x), float(y)).value
        assert b == pytest.approx(a, rel=1e-8)


def test_cd_r1_reduces_to_bessel():
    assert he.k_hard_cd(R1, 1.0, 4.0).value == pytest.approx(bessel_kernel(1.0, 4.0), rel=1e-8)


def _cd_by_power(params: HardEdgeParams, x: float, y: float) -> float:
    """k_hard_cd's sum with one _g10_series call a power of Δ_x."""
    r, xa = params.r, np.array([x])
    g = he._gr0_deltas(params, np.array([y]), range(r + 1))[:, 0]
    total = 0.0
    for j in range(r + 1):
        total += (-1.0) ** j * float(he._g10_series(params, xa, power=j)[0]) * float(g[r - j])
    return (-1.0) ** (r + 1) * total / (x - y)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_cd_forms_the_g10_terms_once(r):
    # the terms of G^{1,0} formed once and weighted by k^j: bit for bit
    # one series a power
    params = HardEdgeParams(r=r, nu=(0,) * r)
    for x, y in ((1.0, 4.0), (0.7, 12.5), (9.0, 2.0), (30.0, 0.3)):
        assert he.k_hard_cd(params, x, y).value == _cd_by_power(params, x, y)


def test_cd_near_diagonal_continuity():
    # CD at small offset approaches the integral diagonal value
    diag = he.k_hard(R2, 2.0, 2.0).value
    near = he.k_hard_cd(R2, 2.0, 2.0 + 1e-5).value
    assert near == pytest.approx(diag, rel=1e-4)
    with pytest.raises(CoincidentPoints):
        he.k_hard_cd(R2, 2.0, 2.0 + 1e-12)
    with pytest.raises(DomainError):
        he.k_hard_cd(HardEdgeParams(r=2, nu=(0, 1)), 1.0, 2.0)


@pytest.mark.parametrize("bad", (math.nan, math.inf, 0.0))
def test_cd_rejects_nonfinite_points(bad):
    # NaN and inf used to make the series' stop test never hold, so the
    # call never returned
    for params in (R1, R2):
        with pytest.raises(DomainError):
            he.k_hard_cd(params, bad, 1.0)
        with pytest.raises(DomainError):
            he.k_hard_cd(params, 1.0, bad)


def test_positivity_and_repulsion():
    xs = np.linspace(0.2, 8.0, 12)
    diag = he.k_hard_diag(R2, xs)
    assert np.all(diag > 0)
    # 2x2 determinants nonnegative
    for (x, y) in ((0.5, 0.9), (2.0, 3.5)):
        det = (
            he.k_hard(R2, x, x).value * he.k_hard(R2, y, y).value
            - he.k_hard(R2, x, y).value * he.k_hard(R2, y, x).value
        )
        assert det >= -1e-10


def test_charpoly_hard_limit_values():
    # 0F1(; 1; 1) = I_0(2)
    i0_2 = sum((1.0 / math.factorial(k)) ** 2 for k in range(40))
    assert he.charpoly_hard_limit(R1, 1.0) == pytest.approx(i0_2, rel=1e-13)
    assert he.charpoly_hard_limit(R2, 0.0) == pytest.approx(1.0)


def test_charpoly_limit_consistency_with_meijer_reduction():
    # 0F_r from the series equals the G^{1,0} reduction with flipped argument
    from wpl.specfun import ContourSpec, MeijerSpec, meijer_g

    rng = np.random.default_rng(4)
    for nus in ((0,), (1, 0)):
        r = len(nus)
        params = HardEdgeParams(r=r, nu=nus)
        spec = MeijerSpec(1, 0, 0, r + 1, (), (0.0,) + tuple(-float(v) for v in nus))
        ct = ContourSpec.auto(spec)
        pref = 1.0
        for v in nus:
            pref *= math.gamma(1.0 + v)
        for lam in rng.uniform(0.1, 3.0, 5):
            lhs = he.charpoly_hard_limit(params, -float(lam))
            rhs = pref * meijer_g(spec, ct, float(lam))
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_charpoly_finite_N_convergence():
    lam = 1.0
    limit = he.charpoly_hard_limit(R2, lam)
    vals = he.charpoly_limit_convergence(2, 1, (0, 0), lambda N: (0,), lam, (20, 40, 80))
    diffs = [abs(v - limit) for v in vals]
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[1] / diffs[0] < 0.6 and diffs[2] / diffs[1] < 0.6
    assert diffs[2] / limit < 0.01


def test_tail_diagonal_r1_exact_asymptotics():
    # Bessel density large-x mean is 1/(pi sqrt(x))
    rep = he.tail_diagonal_report(R1, 50.0, 200.0, n_grid=80)
    assert abs(rep["mean_ratio"] - 1.0) < 0.02


def test_tail_formula_values():
    assert he.tail_diagonal(R1, 4.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-13)


def test_rho2_truncated_tail_forms():
    assert he.rho2_truncated_tail(1, 100.0, 121.0) == pytest.approx(
        -(221.0) / (4.0 * math.pi**2 * 110.0 * 441.0), rel=1e-12
    )
    # r=2 symmetry under x <-> y
    assert he.rho2_truncated_tail(2, 100.0, 150.0) == pytest.approx(
        he.rho2_truncated_tail(2, 150.0, 100.0), rel=1e-14
    )
    with pytest.raises(UnsupportedR):
        he.rho2_truncated_tail(3, 1.0, 2.0)


def test_rho2_tail_r1_windowed():
    rep = he.rho2_tail_report(1, 100.0, 121.0)
    assert abs(rep["ratio"] - 1.0) < 0.1


def test_gauge_h():
    assert he.gauge_h(8.0) == pytest.approx(math.e**3, rel=1e-13)
    # gauge cancels in kernel products
    x, y = 1.7, 3.1
    prod = he.k_hard(R2, x, y).value * he.k_hard(R2, y, x).value
    gauged = (he.gauge_h(x) / he.gauge_h(y) * he.k_hard(R2, x, y).value) * (
        he.gauge_h(y) / he.gauge_h(x) * he.k_hard(R2, y, x).value
    )
    assert gauged == pytest.approx(prod, rel=1e-12)


def test_cd_numerator_asymptotic_envelope():
    # the Christoffel-Darboux numerator at large nearby x, y against the
    # closed (1/pi) e^{...} sin(...) leading form, within a 20% envelope
    x, y = 220.0, 260.0
    total = 0.0
    xa, ya = np.array([x]), np.array([y])
    for j in range(3):
        fj = float(he._g10_series(R2, xa, power=j)[0])
        gj = float(he._gr0_deltas(R2, ya, (2 - j,))[0, 0])
        total += (-1.0) ** j * fj * gj
    total = -total  # (-1)^{r+1} for r = 2
    pref = math.exp(1.5 * x ** (1 / 3)) * math.exp(-1.5 * y ** (1 / 3)) / math.pi
    phase = 3.0 * math.sin(math.pi / 3.0) * (x ** (1 / 3) - y ** (1 / 3))
    ref = pref * math.sin(phase)
    assert abs(total - ref) < 0.2 * abs(pref)


def test_bulk_experiment_r1_and_r2():
    # r=1: near-quantitative agreement at the oscillation sweet spots;
    # the wiggle envelope stays below 0.04 on the half-integer grid
    for ydx, tol in ((0.25, 0.02), (1.0, 0.02), (1.5, 0.02), (0.75, 0.05), (2.0, 0.05)):
        prod, ref = he.bulk_experiment(1, 95.0, 0.0, ydx)
        assert abs(prod - ref) < tol
    # r=2: the product reaches (near) zero at y ~ 1.3 instead of 1.0
    vals = {y: he.bulk_experiment(2, 95.0, 0.0, y)[0] for y in (1.0, 1.1, 1.2, 1.3, 1.4)}
    assert min(vals, key=vals.get) == pytest.approx(1.3)
    assert vals[1.3] < 0.1 * vals[1.0]


def test_bulk_x_equals_y():
    prod, ref = he.bulk_experiment(2, 95.0, 0.7, 0.7)
    assert ref == 1.0
    assert prod > 0


# --- the Mellin-space route (r >= 2) ---------------------------------------


def _khard_table():
    """The committed 30-digit mpmath table: {(r, nu, x, y): value} and its lattice."""
    path = Path(__file__).resolve().parent.parent / "wplbench" / "khard_table.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    table = {(row["r"], tuple(row["nu"]), row["x"], row["y"]): float(row["value"]) for row in doc["rows"]}
    return table, doc["lattice"]


def test_grid_matches_mpmath_table():
    table, lattice = _khard_table()
    families = sorted({(r, nu) for r, nu, _, _ in table})
    assert len(table) == 108 and len(families) == 3
    for r, nu in families:
        grid = he.k_hard_grid(HardEdgeParams(r=r, nu=nu), lattice, lattice)
        for i, x in enumerate(lattice):
            for j, y in enumerate(lattice):
                scale = math.sqrt(table[(r, nu, x, x)] * table[(r, nu, y, y)])
                assert abs(grid[i, j] - table[(r, nu, x, y)]) <= 1e-12 * scale, (r, nu, x, y)


def test_diag_is_grid_diagonal():
    xs = np.geomspace(1e-4, 40.0, 25)
    for params in (R2, HardEdgeParams(r=3, nu=(0, 1, 0))):
        diag = he.k_hard_diag(params, xs)
        assert np.max(np.abs(diag / np.diag(he.k_hard_grid(params, xs, xs)) - 1.0)) < 1e-13


def test_k_hard_matches_cd_at_check10_pairs():
    # the 20 pairs of acceptance check 10
    rng = np.random.default_rng(11)
    pairs = 0
    while pairs < 20:
        x, y = rng.uniform(0.5, 20.0, 2)
        if abs(x - y) < 1e-3 * max(x, y):
            continue
        a = he.k_hard(R2, float(x), float(y)).value
        b = he.k_hard_cd(R2, float(x), float(y)).value
        assert abs(a - b) <= 1e-10 * abs(b), (x, y)
        pairs += 1


# mpmath at 20 digits: 0F_r by hyper, G^{r,0} by meijerg, the u-integral by
# quad over 40 equal panels of [0, 1]
MPMATH_FAR = (
    (2, 200.0, 200.0, 0.0079200958898113078979),
    (2, 150.0, 230.0, 0.0010309727115733556279),
    (3, 1000.0, 1000.0, 0.0012145902722610799924),
)


@pytest.mark.parametrize("r,x,y,ref", MPMATH_FAR)
def test_far_points_inside_loss_budget(r, x, y, ref):
    params = HardEdgeParams(r=r, nu=(0,) * r)
    assert he.k_hard(params, x, y).value == pytest.approx(ref, rel=1e-9)


def test_r2_at_1000_raises_or_matches_mpmath():
    try:
        value = he.k_hard(R2, 1000.0, 1000.0).value
    except NonConvergent:
        return
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 20

    def integrand(u):
        return mp.hyper([], [1, 1], -u * 1000) * mp.meijerg([[], []], [[0, 0], [0]], u * 1000)

    assert value == pytest.approx(float(mp.quad(integrand, mp.linspace(0, 1, 41))), rel=1e-8)


def test_loss_budget_raises_in_grid():
    # one pair past the budget fails the whole call, never a value
    with pytest.raises(NonConvergent, match="estimated error"):
        he.k_hard_grid(R2, [1.0, 500.0], [2.0])
    assert he.k_hard_grid(R2, [1.0, 200.0], [2.0]).shape == (2, 1)


def _g10_terms_by_row(params, x):
    """_g10_terms one row a step: term k as k ln x - ln k! - Σ_j ln Γ(1+ν_j+k),
    until every point's term is e^{-40} below its largest so far."""
    log_x = np.log(x)
    rows, top, k = [], np.full_like(log_x, -np.inf), 0
    while True:
        log_t = k * log_x - math.lgamma(k + 1) - sum(math.lgamma(1.0 + v + k) for v in params.nu)
        top = np.maximum(top, log_t)
        if np.max(top) > he._LOG_FLOAT_MAX:
            raise NonConvergent(f"0F_r series terms overflow at x = {np.max(x):g}")
        rows.append((-1.0) ** k * np.exp(log_t))
        if np.all(log_t < top - 40.0):
            return np.array(rows)
        k += 1


# the largest x at which the rows of _g10_terms_by_row stay in float64
G10_LAST_X = ((R1, 128702.69764324563), (R2, 13867933.708888961),
              (HardEdgeParams(r=3, nu=(0, 1, 0)), 1103716232.113045))


def test_g10_terms_are_the_row_by_row_terms():
    # blocks of rows give the row loop's terms bit for bit, stop at its row,
    # and overflow at the same x
    for params, last in G10_LAST_X:
        over = np.nextafter(last, np.inf)
        for x in (np.array([1e-3]), np.geomspace(1e-4, 300.0, 13), np.geomspace(0.1, 5e3, 12).reshape(3, 4),
                  np.array([0.5, last])):
            ref = _g10_terms_by_row(params, x)
            got = he._g10_terms(params, x)
            assert got.shape == ref.shape and np.array_equal(got, ref), (params, x)
        for x in (np.array([over]), np.array([0.5, over])):
            with pytest.raises(NonConvergent):
                _g10_terms_by_row(params, x)
            with pytest.raises(NonConvergent, match="overflow"):
                he._g10_terms(params, x)


def test_bessel_pairs_take_one_bessel_a_node(monkeypatch):
    # f = w^{-ν/2} J and g = w^{ν/2} J from one J, bit for bit the two
    # factors evaluated apart (_g10_series and _gr0_deltas) and summed over
    # every pair at once; 4900 pairs span two _PAIR_BLOCKs.  No estimate.
    pts = np.geomspace(0.3, 40.0, 70)
    assert len(pts) ** 2 > he._PAIR_BLOCK
    ix, iy = np.divmod(np.arange(len(pts) ** 2), len(pts))
    for params in (R1, HardEdgeParams(r=1, nu=(2,))):
        u, w = he._u_grid(float(np.max(pts)))
        uw = np.outer(u, pts)
        f = he._g10_series(params, uw) * w[:, None]
        g = he._gr0_deltas(params, uw, (0,))[0]
        calls = []
        monkeypatch.setattr(he, "bessel_j", lambda nu, x: calls.append(nu) or bessel_j(nu, x))
        got, log_mass = he._bessel_pairs(params, pts, ix, iy)
        monkeypatch.undo()
        assert np.array_equal(got, np.einsum("qp,qp->p", f[:, ix], g[:, iy])) and len(calls) == 1
        assert log_mass is None


def test_mellin_pairs_return_the_estimate_that_kernel_pairs_raises_on():
    # r = 2 at (x, y) = (2000, 5): the route returns values and their log
    # masses, and only the public call, through specfun.kernel_pairs, raises
    pts, ix, iy = np.array([5.0, 2000.0]), np.array([1, 0, 1]), np.array([0, 0, 1])
    vals, log_mass = he._mellin_pairs(R2, pts, ix, iy)
    root = np.sqrt(np.abs(vals[1:]))
    loss = np.finfo(float).eps * np.exp(log_mass) / (root[ix] * root[iy])
    assert np.all(np.isfinite(vals)) and loss[0] > sf._LOSS_BUDGET
    with pytest.raises(NonConvergent, match=re.escape(
            f"hard-edge series loses too much at (x, y) = (2000, 5): estimated error {loss[0]:.1e} "
            "of sqrt(K(x,x) K(y,y))")):
        he.k_hard(R2, 2000.0, 5.0)
