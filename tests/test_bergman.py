import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betainc, betaln

from bergbal import bergman, model
from bergbal.model import (
    _volume_integral, default_window, grid_function, hamiltonian_moment,
    integrate, make_fs_potential, make_perturbed_potential, scalar_curvature,
    translate_potential,
)
from bergbal.bergman import (
    DegenerateFitError, GramDiagonal, WindowError, bergman_derivative,
    bergman_kernel, beta, beta_weighted, c_of_m, c_weighted, expansion_fit,
    fs_tails, gram_derivative, kernel_at, section_norms, weighted_bergman,
    _kernel, _norms_and_rows, _rows, _LOG_TINY,
)

BUMP = {"type": "gaussian-bump", "amplitude": 0.1, "width": 1.0, "center": 0.0}


@pytest.fixture(scope="module")
def fs():
    return make_fs_potential(window=20.0, grid_size=512)


@pytest.fixture(scope="module")
def bump():
    return make_perturbed_potential(BUMP, window=20.0, grid_size=512)


def test_gram_beta_oracle(fs):
    """Fubini-Study Gram diagonal against the exact Beta integrals."""
    for m in range(1, 21):
        G = section_norms(m, fs).entries
        j = np.arange(m + 1)
        exact = np.exp(betaln(j + 1, m - j + 1))
        assert np.max(np.abs(G / exact - 1.0)) < 1e-12


def test_gram_symmetry(fs, bump):
    # even potential: G_j = G_{m-j}
    for P in (fs, bump):
        G = section_norms(9, P).entries
        assert np.max(np.abs(G / G[::-1] - 1.0)) < 1e-13


@pytest.mark.parametrize("n", [65, 264, 1056])
def test_u_rule_against_mpmath(n):
    # nodes t and dt-weights 4 / (n P_{n-1}(x))^2 against Newton's method
    # at 40 digits, from the rule's own nodes, on the lower half (the rule
    # is symmetric) at both ends and a stride of the interior: measured
    # 6.8e-16, 1.2e-15 and 1.2e-15 for t and 1.8e-15, 2.9e-15 and 6.9e-15
    # relative for the weights, where the dense Golub-Welsch rule it
    # replaced reads 1.8e-13, 7.3e-13 and 3.7e-11, and 9.1e-14, 5.5e-13
    # and 3.0e-11
    import mpmath
    t, w = bergman._u_rule(n)
    assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.diff(t) > 0)
    half = n // 2
    idx = sorted(set(range(12)) | set(range(12, half, 29)) | {half - 1})
    t_err = w_err = 0.0
    with mpmath.workdps(40):
        for i in idx:
            x = 2 / (1 + mpmath.exp(-mpmath.mpf(float(t[i])))) - 1
            for newton in (True, True, False):
                p0, p1 = mpmath.mpf(1), x
                for k in range(1, n):
                    p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
                if newton:
                    x -= p1 * (x * x - 1) / (n * (x * p1 - p0))
            u = (1 + x) / 2
            t_err = max(t_err, abs(float(mpmath.log(u / (1 - u)) - t[i])))
            w_err = max(w_err, abs(float(w[i] / (4 / (n * p0) ** 2) - 1)))
    assert t_err <= 1e-14
    assert w_err <= 1e-13


def test_u_rule_beta_oracle():
    # on the round metric the u-rule's integrand is a polynomial of degree
    # m in u, so the kernel commands' rule gives the Beta function
    # B(j + 1, m - j + 1) = 1 / ((m + 1) C(m, j)) at every level (measured
    # <= 1.6e-14; scipy's betaln is itself off by up to 3.2e-13 from m = 170)
    fs = make_fs_potential(window=default_window(200), grid_size=512)
    for m in range(1, 201):
        G = section_norms(m, fs).entries
        exact = np.array([1 / ((m + 1) * math.comb(m, j))
                          for j in range(m + 1)])
        assert np.max(np.abs(G / exact - 1.0)) <= 1e-13, m


def test_fs_tails_sum():
    # genuinely nonzero, but at the default window the largest tail is the
    # j = 0 strip of size e^{-T}, about 1.4e-8 against its Gram entry
    left, right = fs_tails(6, 20.0)
    j = np.arange(7)
    full = np.exp(betaln(j + 1, 6 - j + 1))
    assert np.all(left > 0) and np.all(right > 0)
    assert np.max((left + right) / full) < 1e-7


@pytest.mark.parametrize("m", [1, 8, 40, 200])
@pytest.mark.parametrize("window", [10.0, 25.3, 40.0])
def test_fs_tails_match_the_incomplete_beta(m, window):
    # the Bernstein sum in log space against scipy's regularized incomplete
    # Beta function, B(j+1, m-j+1) I_x(j+1, m-j+1) at x = expit(-T):
    # measured <= 3.5e-13 relative, the error of e^z at |z| up to 140
    left, right = fs_tails(m, window)
    j = np.arange(m + 1)
    x = model.expit(-window)
    base = np.exp(betaln(j + 1, m - j + 1))
    for ours, ref in ((left, base * betainc(j + 1, m - j + 1, x)),
                      (right, base * betainc(m - j + 1, j + 1, x))):
        normal = ref > 1e-300
        assert np.max(np.abs(ours[normal] / ref[normal] - 1.0)) <= 1e-12
        assert np.all(ours[~normal] <= 1e-300)


def test_fs_kernel_constant(fs):
    rep = bergman_kernel(7, fs)
    assert rep.expected_constant == pytest.approx(8.0 / 7.0, abs=1e-15)
    assert np.max(np.abs(kernel_at(rep).values - rep.expected_constant)) \
        < 1e-12


def test_trace_identity(bump):
    # integral of B_m against the volume is N_m/m for any metric
    rep = bergman_kernel(10, bump)
    assert abs(integrate(bump, kernel_at(rep, bump.quad.nodes)) - 1.1) < 1e-12


def test_c_of_m():
    assert c_of_m(4) == pytest.approx(1.25, abs=1e-15)
    with pytest.raises(ValueError):
        c_of_m(0.0)
    with pytest.raises(ValueError):
        c_of_m(-3.0)


def test_level_guards(fs):
    with pytest.raises(ValueError):
        section_norms(0, fs)
    with pytest.raises(ValueError):
        section_norms(201, fs)


def test_window_guard():
    P = make_perturbed_potential(BUMP, window=16.0, grid_size=256)
    v = np.tanh(P.quad.nodes)
    psi = grid_function(P, v - integrate(P, v))
    for call in (lambda: section_norms(40, P),
                 lambda: gram_derivative(40, P, psi),
                 lambda: bergman_derivative(40, P, psi)):
        with pytest.raises(WindowError, match="too small for level"):
            call()


def test_gram_diagonal_validation():
    with pytest.raises(ValueError):
        GramDiagonal(3, np.ones(3))
    with pytest.raises(ValueError):
        GramDiagonal(2, np.array([1.0, -1.0, 1.0]))


def test_kernel_equivariance():
    """B_m of the pulled-back potential is the shifted kernel.

    The Gram itself is gauge-covariant (translation re-gauges phi), so the
    invariant statement lives at the kernel level.
    """
    P = make_perturbed_potential(BUMP, window=24.0, grid_size=512)
    s = 0.6
    Ps = translate_potential(P, s)
    from scipy.interpolate import make_interp_spline
    B0 = kernel_at(bergman_kernel(8, P), P.quad.nodes)
    Bs = kernel_at(bergman_kernel(8, Ps), P.quad.nodes)
    s0 = make_interp_spline(B0.nodes, B0.values, k=5)
    ss = make_interp_spline(Bs.nodes, Bs.values, k=5)
    tt = np.linspace(-7.0, 7.0, 301)
    assert np.max(np.abs(ss(tt) - s0(tt - s))) < 1e-8


def test_kernel_d2_matches_spline(bump):
    # d2 is the one kernel derivative attached; the quintic spline through
    # the values must reproduce it in the core
    for m in (8, 40):
        kern = kernel_at(bergman_kernel(m, bump), bump.quad.nodes)
        spline_d2 = grid_function(bump, kern.values).derivative(2)
        core = np.abs(kern.nodes) <= 10.0
        gap = np.max(np.abs(kern.d2 - spline_d2)[core])
        assert gap <= 1e-6 * np.max(np.abs(kern.d2))


def test_beta_vanishes_on_fs(fs):
    for m in (5, 10, 17):
        b = beta(m, fs)
        assert np.max(np.abs(b.values)) < 1e-8 * m


def test_beta_approaches_curvature(bump):
    # sup|beta - (sigma - 2)| shrinks as the level grows
    gap = scalar_curvature(bump, bump.quad.knots).values - 2.0
    sups = [np.max(np.abs(beta(m, bump).values - gap)) for m in (10, 20, 40)]
    assert sups[0] > sups[1] > sups[2]


def test_weighted_closed_form(fs):
    # m = 2: sum_j e^{jt - jy}/G_j = 3 (1 + e^{t-y})^2, so the weighted kernel
    # is (3/2) (1 + e^{t-y})^2 / (1 + e^t)^2
    y = 0.3
    rep = weighted_bergman(2, fs, y)
    t = fs.quad.nodes
    closed = 1.5 * (1.0 + np.exp(t - y)) ** 2 / (1.0 + np.exp(t)) ** 2
    assert np.max(np.abs(kernel_at(rep, t).values - closed)) < 1e-12
    assert abs(rep.expected_constant - 1.5 * np.exp(-y)) < 1e-13
    assert rep.weight == y


def test_weighted_constant_closed_form(fs):
    for y in (0.1, 0.3):
        assert abs(c_weighted(2, fs, y) - 1.5 * np.exp(-y)) < 1e-13
    assert c_weighted(5, fs, 0.0) == c_of_m(5)


def test_weighted_trace_consistency(fs, bump):
    # mean against the pulled-back volume (density Phi''(t - y), tail masses
    # Phi'(-T - y) and 1 - Phi'(T - y)) equals the shifted-kernel integral
    for P, m, y in ((fs, 2, 0.3), (bump, 6, 0.2)):
        rep = weighted_bergman(m, P, y)
        masses = (float(P.Phi_d(-P.window - y, 1)),
                  float(1.0 - P.Phi_d(P.window - y, 1)))
        mean = _volume_integral(P.quad, kernel_at(rep, P.quad.nodes).values,
                                P.density(P.quad.nodes - y), masses)
        assert abs(mean - rep.expected_constant) < 1e-10


def test_weighted_reduces_at_zero(bump):
    w = weighted_bergman(5, bump, 0.0)
    b = bergman_kernel(5, bump)
    assert np.array_equal(kernel_at(w).values, kernel_at(b).values)
    assert w.expected_constant == b.expected_constant


def test_weight_range_guard(fs):
    for y in (8.0, np.nan):
        with pytest.raises(ValueError, match="floating range"):
            weighted_bergman(100, fs, y)
        with pytest.raises(ValueError, match="floating range"):
            c_weighted(100, fs, y)
    with pytest.raises(ValueError, match="floating range"):
        beta_weighted(8, fs, np.nan)


def _c_weighted_shifted_rows(m, P, y):
    """c_weighted from rows formed at the shifted nodes t + y, the second
    row pass that the identity K_y(u + y) = K_0(u) e^{m (Phi(u) - Phi(u +
    y))} replaces."""
    weights = section_norms(m, P).entries * np.exp(np.arange(m + 1) * y)
    t = P.quad.nodes + y
    return integrate(P, _kernel(m, _rows(m, t, P.Phi(t)), weights))


@pytest.mark.parametrize("m", [2, 8, 40, 200])
@pytest.mark.parametrize("y", [-0.01, 1e-3, 0.3])
def test_c_weighted_matches_shifted_rows(m, y):
    T = default_window(m)
    for P in (make_fs_potential(window=T, grid_size=512),
              make_perturbed_potential(BUMP, window=T, grid_size=512)):
        ref = _c_weighted_shifted_rows(m, P, y)
        assert abs(c_weighted(m, P, y) / ref - 1.0) <= 1e-13


def test_weighted_kernel_forms_rows_once(bump, monkeypatch):
    calls = []
    rows = bergman._rows

    def counted(m, t, Phi):
        calls.append(t)
        return rows(m, t, Phi)

    monkeypatch.setattr(bergman, "_rows", counted)
    weighted_bergman(40, bump, 1e-3)
    assert len(calls) == 1


def _parent_kernel_d2(m, P, y, t):
    """K, d2 and K0 of weighted_bergman at the points t in the form that
    the one matrix-vector product per kernel replaces: the rows divided in
    place by G e^{jy} and summed over axis 0, K0 = (1/m) sum_j e^{jy} times
    the divided rows.  Also the sum of the absolute d2 terms, which scales
    its rounding."""
    G = section_norms(m, P).entries
    j = np.arange(m + 1)
    E = np.exp(j[:, None] * t[None, :] - m * P.Phi(t)[None, :])
    E /= (G * np.exp(j * y))[:, None]
    a = (j[:, None] - m * P.Phi_d(t, 1)[None, :]) ** 2 \
        - m * P.density(t)[None, :]
    return (E.sum(axis=0) / m, (a * E).sum(axis=0) / m,
            np.exp(j * y) @ E / m, (np.abs(a) * E).sum(axis=0) / m)


@pytest.mark.parametrize("m", [8, 40, 200])
@pytest.mark.parametrize("y", [0.0, 1e-3])
def test_weighted_kernel_matches_parent_form(m, y):
    # on the round metric and the test bump; measured <= 1.2e-15 relative
    # for K and the constant, <= 9e-15 absolute for d2
    T = default_window(m)
    for P in (make_fs_potential(window=T, grid_size=512),
              make_perturbed_potential(BUMP, window=T, grid_size=512)):
        rep = weighted_bergman(m, P, y)
        kern = kernel_at(rep, P.quad.nodes)
        K, d2, _, d2_scale = _parent_kernel_d2(m, P, y, P.quad.nodes)
        assert np.max(np.abs(kern.values / K - 1.0)) <= 1e-13
        assert np.max(np.abs(kern.d2 - d2)) <= 1e-13 * np.max(d2_scale)
        if y:
            # the constant is integrated on the Gram diagonal's u-rule
            t, w = bergman._u_rule(rep.gram_nodes)
            K0 = _parent_kernel_d2(m, P, y, t)[2]
            shift = np.exp(m * (P.Phi(t) - P.Phi(t + y)))
            expected = (w * P.density(t)) @ (K0 * shift)
            assert abs(rep.expected_constant / expected - 1.0) <= 1e-13


def test_kernel_leaves_rows_unchanged(bump):
    m = 40
    G, E = _norms_and_rows(m, bump)
    rows = E.copy()
    s = np.linspace(0.5, 2.0, m + 1)
    B = _kernel(m, E, G.entries, s)
    assert np.array_equal(E, rows)
    assert np.allclose(B, (rows * (s / G.entries)[:, None]).sum(axis=0) / m,
                       rtol=1e-14, atol=0.0)


def test_expansion_fit_skips_d2(bump, monkeypatch):
    # the fit reads kernel values alone, bergman_kernel's bit for bit, and
    # forms no d2
    levels = [8, 16, 32]
    ref = np.stack([kernel_at(bergman_kernel(m, bump)).values
                    for m in levels])
    q = 1.0 / np.asarray(levels, dtype=float)
    coef = np.linalg.lstsq(np.stack([q, q * q], axis=1), ref - 1.0,
                           rcond=None)[0]

    def no_d2(*args):
        raise AssertionError("expansion_fit formed d2")

    monkeypatch.setattr(bergman, "_kernel_d2", no_d2)
    fit = expansion_fit(bump, levels)
    assert np.array_equal(fit.a1.values, coef[0])
    assert np.array_equal(fit.a2.values, coef[1])


def _rows_exponents(monkeypatch):
    """The list of (z, low, result) of every bergman._exp_floor call."""
    calls = []
    exp_floor = bergman._exp_floor

    def recorded(z, low):
        z0 = z.copy()
        calls.append((z0, low, exp_floor(z, low)))
        return z

    monkeypatch.setattr(bergman, "_exp_floor", recorded)
    return calls


@pytest.mark.parametrize("m", [8, 30, 40, 200])
def test_rows_exponent_bound_is_exact(m, monkeypatch):
    # the bound min(0, m t) - m Phi is each column's least exponent; from
    # m = 31 on the default window it falls below ln(DBL_MIN) and the
    # underflowing entries are +0.0
    P = make_perturbed_potential(BUMP, window=default_window(m),
                                 grid_size=512)
    calls = _rows_exponents(monkeypatch)
    E = _rows(m, P.quad.nodes, P.node_values("Phi"))
    (z, low, out), = calls
    assert out is E
    assert np.array_equal(low, z.min(axis=0))
    ref = np.exp(z)
    normal = ref >= np.finfo(float).tiny
    assert np.array_equal(E[normal], ref[normal])
    assert np.all(E[~normal] == 0.0) and not np.any(np.signbit(E))
    assert (low.min() < _LOG_TINY) == (m > 30)
    if m <= 30:
        assert np.array_equal(E, ref)


def test_exp_floor_keeps_nan():
    z = np.array([[0.0, -800.0, np.nan, -np.inf, -708.0]])
    low = np.full(z.shape[1], -np.inf)
    out = bergman._exp_floor(z.copy(), low)
    assert np.array_equal(out, [[1.0, 0.0, np.nan, 0.0, np.exp(-708.0)]],
                          equal_nan=True)
    # a NaN bound takes the masked path too
    z = np.array([[np.nan, -800.0]])
    out = bergman._exp_floor(z.copy(), np.array([np.nan, 0.0]))
    assert np.isnan(out[0, 0]) and out[0, 1] == 0.0


def test_torus_weight(fs):
    # the coefficient w weighs level m by y = w / m^2
    rep = weighted_bergman(4, fs, 0.2)
    kern = kernel_at(rep)
    lap = -kern.d2 / fs.density(fs.quad.knots)
    expected = 8.0 * (kern.values - rep.expected_constant) \
        + (4.0 / 3.0) * lap
    assert np.array_equal(beta_weighted(4, fs, 3.2).values, expected)
    for w in (np.inf, np.nan):
        with pytest.raises(ValueError):
            beta_weighted(4, fs, w)


def test_weighted_constant_parity(fs, bump):
    # on an even potential, e^{m y/2} C(y) is even in y
    for m, y in ((2, 0.3), (4, 0.2), (8, 0.05)):
        lhs = np.exp(m * y / 2) * c_weighted(m, fs, y)
        rhs = np.exp(-m * y / 2) * c_weighted(m, fs, -y)
        assert abs(lhs - rhs) < 1e-12
    lhs = np.exp(0.45) * c_weighted(6, bump, 0.15)
    rhs = np.exp(-0.45) * c_weighted(6, bump, -0.15)
    assert abs(lhs - rhs) < 1e-12


def test_beta_weighted_parity(fs):
    m, w = 4, 3.2
    y = w / m ** 2
    bp = beta_weighted(m, fs, w).values
    bm = beta_weighted(m, fs, -w).values
    assert np.max(np.abs(np.exp(m * y / 2) * bp
                         - np.exp(-m * y / 2) * bm[::-1])) < 1e-10


def test_beta_weighted_reduces_at_zero(bump):
    bw = beta_weighted(7, bump, 0.0)
    b = beta(7, bump)
    assert np.array_equal(bw.values, b.values)


@pytest.mark.parametrize("w", [0.0, 2.0])
def test_default_points_are_the_knots(bump, w):
    # the kernel, beta and the fit are read at the points asked for, the
    # knots by default: one formula, and the same weights
    rep = bergman.beta_report(40, bump, w)
    knots = bump.quad.knots
    kern = kernel_at(rep)
    assert np.array_equal(kern.nodes, knots)
    assert np.array_equal(kern.values, kernel_at(rep, knots).values)
    assert np.array_equal(kern.d2, kernel_at(rep, knots).d2)
    assert np.array_equal(bergman.beta_at(rep, knots).values,
                          beta_weighted(40, bump, w).values)
    fit = expansion_fit(bump, [10, 20, 40])
    at = expansion_fit(bump, [10, 20, 40], knots)
    assert np.array_equal(fit.a1.nodes, knots)
    assert np.array_equal(at.a1.values, fit.a1.values)
    assert np.array_equal(at.a2.values, fit.a2.values)
    assert fit.sup_a1_error == at.sup_a1_error
    nodes = bump.quad.nodes
    assert np.array_equal(scalar_curvature(bump, nodes).values,
                          scalar_curvature(bump).values)


def test_expansion_fit_fs(fs):
    # B_m = 1 + 1/m exactly, so a1 = 1 and a2 = 0
    fit = expansion_fit(fs, [5, 10, 20, 40])
    assert np.max(np.abs(fit.a1.values - 1.0)) < 1e-10
    assert np.max(np.abs(fit.a2.values)) < 1e-9
    assert fit.metadata["constant_pinned"] is True
    assert fit.metadata["levels"] == [5, 10, 20, 40]


def test_expansion_fit_bump(bump):
    fit = expansion_fit(bump, [10, 20, 40])
    r = fit.first_order_error
    assert r[0] > r[1] > r[2]
    # the two-term fit beats the bare first-order model at every level
    assert np.all(fit.residual_sup < r)
    assert np.isfinite(fit.sup_a1_error)


def test_expansion_fit_guards(bump):
    with pytest.raises(DegenerateFitError):
        expansion_fit(bump, [5, 5, 10])
    with pytest.raises(ValueError):
        expansion_fit(bump, [5, 10])
    with pytest.raises(ValueError):
        expansion_fit(bump, [10, 5, 20])
    with pytest.raises(ValueError):
        expansion_fit(bump, [5, 10, 500])


def _gauge_probe(P):
    """A perturbation direction mean-zero against both the volume and the
    additive-gauge functional, so finite differences of the stored
    potential see no spurious constant shift."""
    t = P.quad.nodes
    g1 = lambda u: np.exp(-0.5 * (u - 0.3) ** 2)
    g2 = lambda u: np.exp(-0.5 * (u + 0.9) ** 2)
    v1, v2 = integrate(P, g1(t)), integrate(P, g2(t))
    f1, f2 = P._fs_mean(g1(t)), P._fs_mean(g2(t))
    lam = -(v1 - f1) / (v2 - f2)
    c = v1 + lam * v2
    return lambda u: g1(u) + lam * g2(u) - c


def test_gram_derivative_zero(bump):
    z = grid_function(bump, np.zeros_like(bump.quad.nodes))
    assert np.all(gram_derivative(3, bump, z) == 0.0)
    assert np.all(bergman_derivative(3, bump, z).values == 0.0)


def test_gram_derivative_moment(fs):
    # closed form at m = 2: the moment direction gives [1/3, 0, -1/3]; the
    # residual error is the e^{-T} tail where the moment is not yet constant
    dG = gram_derivative(2, fs, hamiltonian_moment(fs))
    assert np.max(np.abs(dG - np.array([1.0 / 3.0, 0.0, -1.0 / 3.0]))) < 1e-8
    assert np.max(np.abs(dG + dG[::-1])) < 1e-14


def test_gram_derivative_mean_zero_guard(bump):
    one = grid_function(bump, np.ones_like(bump.quad.nodes))
    with pytest.raises(ValueError, match="mean-zero"):
        gram_derivative(4, bump, one)


def test_gram_derivative_finite_difference(bump):
    psi_fn = _gauge_probe(bump)
    psi = grid_function(bump, psi_fn(bump.quad.nodes))
    m, eps = 5, 1e-5
    dG = gram_derivative(m, bump, psi)
    kn = bump.quad.knots
    pk = bump.phi(kn)
    Gp = section_norms(m, model._from_knot_values(pk + eps * psi_fn(kn), bump.quad)).entries
    Gm = section_norms(m, model._from_knot_values(pk - eps * psi_fn(kn), bump.quad)).entries
    fd = (Gp - Gm) / (2 * eps)
    assert np.max(np.abs(fd - dG)) / np.max(np.abs(dG)) < 1e-7


def test_bergman_derivative_finite_difference(bump):
    psi_fn = _gauge_probe(bump)
    psi = grid_function(bump, psi_fn(bump.quad.nodes))
    m, eps = 5, 1e-5
    dB = bergman_derivative(m, bump, psi)
    kn = bump.quad.knots
    pk = bump.phi(kn)
    Bp, Bm = (kernel_at(bergman_kernel(m, model._from_knot_values(
        pk + sign * eps * psi_fn(kn), bump.quad)), bump.quad.nodes).values
        for sign in (1.0, -1.0))
    assert np.max(np.abs((Bp - Bm) / (2 * eps) - dB.values)) < 1e-7


def test_derivative_identity_in_gram_kernel(bump):
    """Directions that freeze the Gram contract the kernel pointwise:
    dB = -m psi B for psi in the kernel of the Gram derivative."""
    m = 2
    t = bump.quad.nodes
    centers = np.linspace(-3.0, 3.0, 8)
    modes = []
    for c in centers:
        v = np.exp(-0.5 * (t - c) ** 2)
        modes.append(v - integrate(bump, v))
    M = np.stack([gram_derivative(m, bump, grid_function(bump, v)) for v in modes])
    # rows of Vt beyond rank(M.T) span the null space of the mode -> dG map
    _, _, Vt = np.linalg.svd(M.T, full_matrices=True)
    coef = Vt[m + 1]
    psi_v = coef @ np.stack(modes)
    psi = grid_function(bump, psi_v)
    dG = gram_derivative(m, bump, psi)
    assert np.max(np.abs(dG)) < 1e-12
    dB = bergman_derivative(m, bump, psi).values
    B = kernel_at(bergman_kernel(m, bump), t).values
    bound = 1e-6 * m * np.max(np.abs(psi_v))
    assert np.max(np.abs(dB + m * psi_v * B)) < bound


@settings(max_examples=8, deadline=None)
@given(a=st.floats(0.0, 0.1), w=st.floats(0.8, 1.5), c=st.floats(-0.5, 0.5),
       m=st.integers(1, 8))
def test_trace_identity_property(a, w, c, m):
    # a/w^2 stays below the Fubini-Study density floor, so positivity holds
    P = make_perturbed_potential(
        {"type": "gaussian-bump", "amplitude": a, "width": w, "center": c},
        window=20.0, grid_size=256)
    rep = bergman_kernel(m, P)
    assert abs(integrate(P, kernel_at(rep, P.quad.nodes)) - c_of_m(m)) < 1e-9


@settings(max_examples=8, deadline=None)
@given(y=st.floats(-0.3, 0.3), m=st.integers(2, 6))
def test_weighted_parity_property(y, m):
    P = make_fs_potential(window=20.0, grid_size=256)
    lhs = np.exp(m * y / 2) * c_weighted(m, P, y)
    rhs = np.exp(-m * y / 2) * c_weighted(m, P, -y)
    assert abs(lhs - rhs) < 1e-10
