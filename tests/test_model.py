import json

import mpmath
import numpy as np
import pytest
import sympy
from scipy.interpolate import make_interp_spline
from scipy.special import expit as scipy_expit

from bergbal import bergman, model
from bergbal.cli import main
from bergbal.model import (
    GridFunction, PositivityError, default_window, grid_function,
    hamiltonian_moment, integrate, laplacian_apply, lichnerowicz_apply,
    make_fs_potential, make_perturbed_potential, scalar_curvature,
    translate_potential,
)
from bergbal.solvers import newton_balance

BUMP = {"type": "gaussian-bump", "amplitude": 0.1, "width": 1.0, "center": 0.0}
OFF = {"type": "gaussian-bump", "amplitude": 0.1, "width": 1.0, "center": 0.5}


@pytest.fixture(scope="module")
def fs():
    return make_fs_potential(window=20.0, grid_size=512)


@pytest.fixture(scope="module")
def bump():
    return make_perturbed_potential(BUMP, window=20.0, grid_size=512)


def test_expit_matches_scipy():
    # within two ulps relative of scipy's on [-40, 40] (measured 4.4e-16),
    # and no overflow (a RuntimeWarning fails the suite) from e^{-|t|} where
    # 1/(1 + e^{-t}) would overflow
    t = np.linspace(-40.0, 40.0, 20001)
    ref = scipy_expit(t)
    assert np.max(np.abs(model.expit(t) - ref) / ref) \
        <= 2.0 * np.finfo(float).eps
    far = np.array([-np.inf, -1e4, -800.0, 800.0, 1e4, np.inf])
    assert np.array_equal(model.expit(far), scipy_expit(far))


def test_fs_pieces_match_three_expits():
    # one e^{-|t|} gives x, y and w bit for bit as expit(t) and expit(-t),
    # signed zeros included
    special = np.array([0.0, 1e-300, 36.7, 800.0, np.inf])
    t = np.concatenate([np.random.default_rng(11).standard_normal(10 ** 5),
                        special, -special])
    x = model.expit(t)
    ref = (x, x * model.expit(-t), model.expit(-t) - x)
    for got, want in zip(model._fs_pieces(t), ref):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_fs_value_at_origin(fs):
    assert abs(fs.Phi(0.0) - np.log(2.0)) < 1e-14


def test_total_volume(fs, bump):
    one = np.ones_like(fs.quad.nodes)
    assert abs(integrate(fs, one) - 1.0) < 1e-12
    assert abs(integrate(bump, np.ones_like(bump.quad.nodes)) - 1.0) < 1e-12


def test_window_and_grid_guards():
    with pytest.raises(ValueError):
        make_fs_potential(window=5.0, grid_size=32)
    with pytest.raises(ValueError):
        make_fs_potential(window=20.0, grid_size=16)


def test_quadrature_bounds():
    for order, message in ((1, "order 1 below the minimum 2"),
                           (65, "order 65 above the maximum 64")):
        with pytest.raises(ValueError, match=message):
            make_fs_potential(window=20.0, grid_size=512, order=order)
    with pytest.raises(ValueError, match="window 9.50 below the minimum 10"):
        make_fs_potential(window=9.5, grid_size=512)
    assert make_fs_potential(window=10.0, grid_size=64, order=2).quad.n_nodes \
        == 63 * 2 + 2


def test_fubini_study_descriptor():
    # the descriptor builds what make_fs_potential builds
    P = make_perturbed_potential({"type": "fubini-study"}, 20.0, 512)
    fs = make_fs_potential(20.0, 512)
    assert np.array_equal(P.phi(P.quad.nodes), fs.phi(fs.quad.nodes))


def test_zero_bump_is_fs():
    P = make_perturbed_potential({"type": "gaussian-bump", "amplitude": 0.0,
                                  "width": 1.0, "center": 0.0},
                                 window=20.0, grid_size=512)
    F = make_fs_potential(window=20.0, grid_size=512)
    t = P.quad.nodes
    assert np.max(np.abs(P.phi(t))) < 1e-15
    assert np.max(np.abs(P.Phi(t) - F.Phi(t))) < 1e-14


def test_positivity_rejected_with_location():
    with pytest.raises(PositivityError) as err:
        make_perturbed_potential({"type": "gaussian-bump", "amplitude": 50.0,
                                  "width": 0.1, "center": 0.0},
                                 window=20.0, grid_size=512)
    assert "Phi''" in str(err.value)


def test_tabulated_round_trip(bump):
    # tabulated samples at the knots give back the spline through them, and
    # that spline is within its interpolation error of the closed-form bump
    # (measured 2.1e-11)
    kn = bump.quad.knots
    spline = model.SplinePotential(bump.quad, bump.phi(kn))
    P = make_perturbed_potential({"type": "tabulated", "t": kn,
                                  "phi": bump.phi(kn)},
                                 window=20.0, grid_size=512)
    t = bump.quad.nodes
    assert np.max(np.abs(P.phi(t) - spline.phi(t))) < 1e-12
    assert np.max(np.abs(P.phi(t) - bump.phi(t))) < 1e-10


def test_tabulated_rejects_nonsmooth():
    kn = np.linspace(-20, 20, 512)
    vals = 0.05 * np.abs(np.sin(3 * kn)) * np.exp(-kn ** 2)
    with pytest.raises(ValueError):
        make_perturbed_potential({"type": "tabulated", "t": kn, "phi": vals},
                                 window=20.0, grid_size=512)


BOX = {"type": "gaussian-bump", "amplitude": 0.07, "width": 1.3,
       "center": 0.45}


@pytest.mark.parametrize("desc", [BUMP, BOX], ids=["criterion-3", "box"])
def test_bump_closed_form_matches_sympy(desc):
    # Phi^(k), k = 0..5, and sigma of the closed-form bump against sympy's
    # derivatives of a e^{-(t-c)^2/(2 s^2)} + log(1 + e^t), evaluated at 30
    # digits, on |t| <= 10: within 1e-12 of each function's sup there
    # (measured <= 1.8e-15).  Phi itself is compared before the gauge, a
    # constant
    P = make_perturbed_potential(desc, window=20.0, grid_size=512)
    ts = sympy.Symbol("t")
    a, s, c = desc["amplitude"], desc["width"], desc["center"]
    Phi = (sympy.Float(a) * sympy.exp(-(ts - sympy.Float(c)) ** 2
                                       / (2 * sympy.Float(s) ** 2))
           + sympy.log(1 + sympy.exp(ts)))
    dens = sympy.diff(Phi, ts, 2)
    exact = [sympy.diff(Phi, ts, k) for k in range(6)]
    exact.append(-sympy.diff(sympy.log(dens), ts, 2) / dens)
    t = np.linspace(-10.0, 10.0, 81)
    ours = [P.Phi(t) + P._gauge] + [P.Phi_d(t, k) for k in range(1, 6)]
    ours.append(scalar_curvature(P, t).values)
    for k, (expr, values) in enumerate(zip(exact, ours)):
        f = sympy.lambdify(ts, expr, "mpmath")
        with mpmath.workdps(30):
            ref = np.array([float(f(mpmath.mpf(u))) for u in t])
        assert np.max(np.abs(values - ref)) <= 1e-12 * np.max(np.abs(ref)), k


def test_tabulated_sigma_error_is_fourth_order():
    # a tabulated bump is a quintic spline on the knots, and its sigma, from
    # the spline's fourth derivative, is O(h^2) off the closed form's: on
    # criterion 3's bump and |t| <= 10, 0.308, 0.074, 0.036 and 0.0088 at
    # grid 256, 512, 768 and 1536, falling 4.1 times per halving of h
    window = default_window(80)
    samples = np.linspace(-window, window, 3001)
    t = np.linspace(-10.0, 10.0, 2001)
    err = {}
    for grid in (256, 512, 768, 1536):
        tab = make_perturbed_potential(
            {"type": "tabulated", "t": samples,
             "phi": 0.1 * np.exp(-0.5 * samples ** 2)}, window, grid)
        exact = make_perturbed_potential(BUMP, window, grid)
        err[grid] = np.max(np.abs(scalar_curvature(tab, t).values
                                  - scalar_curvature(exact, t).values))
    assert err[256] / err[512] >= 3.5
    assert err[768] / err[1536] >= 3.5


def test_node_values_cached_read_only(bump):
    # each key is its pointwise evaluation at the nodes, made once and shared
    # read-only by every caller
    t = bump.quad.nodes
    expected = {"Phi": bump.Phi(t), "Phi1": bump.Phi_d(t, 1),
                "dens": bump.density(t), "phi2": bump.phi_d(t, 2),
                "phi3": bump.phi_d(t, 3), "phi4": bump.phi_d(t, 4)}
    for key, values in expected.items():
        cached = bump.node_values(key)
        assert cached is bump.node_values(key)
        np.testing.assert_array_equal(cached, values)
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0.0
    with pytest.raises(KeyError):
        bump.node_values("Phi2")


def test_phi_mean_zero(bump):
    # normalization gauge: phi integrates to zero against the fs volume
    fsP = make_fs_potential(window=20.0, grid_size=512)
    t = fsP.quad.nodes
    assert abs(integrate(fsP, bump.phi(t))) < 1e-10


def test_scalar_curvature_fs_exact(fs):
    # phi = 0, so the perturbation terms of _curvature_pieces vanish and
    # sigma is 2.0 bit for bit, at the nodes and at any point
    assert np.all(scalar_curvature(fs).values == 2.0)
    t = np.linspace(-40.0, 40.0, 1001)
    assert np.all(scalar_curvature(fs, t).values == 2.0)


def test_scalar_curvature_gauss_bonnet(bump):
    sig = scalar_curvature(bump)
    assert np.max(np.abs(sig.values - 2.0)) > 1e-3  # genuinely non-constant
    assert abs(integrate(bump, sig.values) - 2.0) < 1e-9


def test_integrate_curvature_fs(fs):
    assert abs(integrate(fs, scalar_curvature(fs)) - 2.0) < 1e-9
    assert integrate(fs, np.zeros_like(fs.quad.nodes)) == 0.0


def test_integrate_node_mismatch(fs):
    with pytest.raises(ValueError):
        integrate(fs, np.ones(7))


def test_grid_function_guards(fs):
    with pytest.raises(ValueError):
        GridFunction(np.ones(5), np.zeros(7))
    with pytest.raises(ValueError):
        grid_function(fs, np.full_like(fs.quad.nodes, np.nan))


@pytest.mark.parametrize("call", [
    lambda P: P.phi_d(0.0, 0), lambda P: P.phi_d(0.0, 6),
    lambda P: P.Phi_d(0.0, 0), lambda P: P.Phi_d(0.0, 6),
    lambda P: hamiltonian_moment(P).derivative(0),
    lambda P: hamiltonian_moment(P).derivative(5)], ids=[
    "phi_d-0", "phi_d-6", "Phi_d-0", "Phi_d-6", "derivative-0", "derivative-5"])
def test_derivative_order_out_of_range(bump, call):
    # phi_d and Phi_d take k = 1..5, GridFunction.derivative k = 1..4 (the
    # moment map carries d1..d4 attached); an index k - 1 outside them must
    # not read another derivative
    with pytest.raises(ValueError, match="k out of range"):
        call(bump)


def test_laplacian_moment_eigenfunction(fs):
    f = hamiltonian_moment(fs)
    lap = laplacian_apply(fs, f)
    assert np.max(np.abs(lap.values - 2.0 * f.values)) < 1e-8


def test_laplacian_constant_harmonic(fs):
    one = grid_function(fs, np.ones_like(fs.quad.nodes))
    assert np.max(np.abs(laplacian_apply(fs, one).values)) == 0.0


def test_laplacian_divergence_and_positivity(fs):
    t = fs.quad.nodes
    f = grid_function(fs, np.exp(-0.5 * t ** 2) * np.sin(1.3 * t))
    lap = laplacian_apply(fs, f)
    assert abs(integrate(fs, lap.values)) < 1e-10
    assert integrate(fs, f.values * lap.values) >= -1e-12


def test_moment_mean_zero_and_range(fs):
    f = hamiltonian_moment(fs)
    assert abs(integrate(fs, f.values)) < 1e-12
    # fs moment is expit(t) - 1/2: odd, range (-1/2, 1/2)
    assert np.max(np.abs(f.values)) <= 0.5
    assert np.max(np.abs(f.values + f.values[::-1])) < 1e-12


def test_lichnerowicz_kernel_on_fs(fs):
    f = hamiltonian_moment(fs)
    L = lichnerowicz_apply(fs, f)
    assert np.max(np.abs(L.values)) < 1e-6


def test_lichnerowicz_constant(fs):
    one = grid_function(fs, np.ones_like(fs.quad.nodes))
    assert np.max(np.abs(lichnerowicz_apply(fs, one).values)) == 0.0


def _legendre_mode(P, k):
    # polynomial in x = e^t/(1+e^t), smooth on the whole sphere; gaussians in
    # t are singular at the poles and leak through the fourth-order terms
    ts = sympy.Symbol("t")
    p = sympy.legendre(k, 2 / (1 + sympy.exp(-ts)) - 1)
    fns = [sympy.lambdify(ts, sympy.diff(p, ts, i), "numpy") for i in range(5)]
    t = P.quad.nodes
    return grid_function(P, fns[0](t), name="P%d" % k, d1=fns[1](t),
                         d2=fns[2](t), d3=fns[3](t), d4=fns[4](t))


def test_lichnerowicz_symmetry_fs(fs):
    # formally self-adjoint only where sigma is constant, hence tested on fs
    f, g, h = (_legendre_mode(fs, k) for k in (1, 2, 3))
    for a, b in ((f, g), (f, h), (g, h)):
        s1 = integrate(fs, a.values * lichnerowicz_apply(fs, b).values)
        s2 = integrate(fs, b.values * lichnerowicz_apply(fs, a).values)
        assert abs(s1 - s2) < 1e-8


def test_lichnerowicz_finite_difference_order():
    # eps pair chosen so the eps^2 term dominates the h^2 comparison floor
    W, grid = 12.0, 1024
    P = make_perturbed_potential(BUMP, window=W, grid_size=grid)
    t = P.quad.nodes
    f = lambda u: np.exp(-0.5 * (u - 0.4) ** 2)
    L = lichnerowicz_apply(P, grid_function(P, f(t))).values
    core = np.abs(t) <= 3.0
    errs = []
    for eps in (5e-2, 5e-3):
        sig = []
        for sgn in (+1, -1):
            Pe = model._from_knot_values(P.phi(P.quad.knots) + sgn * eps * f(P.quad.knots),
                                         P.quad)
            sig.append(scalar_curvature(Pe).values)
        fd = (sig[0] - sig[1]) / (2 * eps)
        errs.append(np.max(np.abs((L - fd)[core])))
    order = np.log10(errs[0] / errs[1])
    assert order >= 1.8


def test_translate_density(bump):
    # spline resample of the stored knots, so h^6 accuracy, not exact
    s = 0.7
    Ps = translate_potential(bump, s)
    t = np.linspace(-8, 8, 301)
    assert np.max(np.abs(Ps.density(t) - bump.density(t - s))) < 1e-7


def test_translate_shares_quadrature(bump):
    assert translate_potential(bump, 0.7).quad is bump.quad


def test_quadrature_read_only(bump):
    # potentials built from one another share their quadrature's arrays
    for name in ("knots", "nodes", "inner_weights"):
        with pytest.raises(ValueError):
            getattr(bump.quad, name)[0] = 0.0


def test_default_window():
    assert default_window(1) == pytest.approx(20.0)
    assert default_window(8) == pytest.approx(20.0 + np.log(8))


def test_derivative_fallback_matches_attached(fs):
    t = fs.quad.nodes
    vals = np.exp(-0.5 * t ** 2)
    f_plain = GridFunction(vals, t)
    d2 = f_plain.derivative(2)
    assert np.max(np.abs(d2 - (t ** 2 - 1) * vals)) < 1e-7


def _recorded_potentials(monkeypatch, cls=model.RadialPotential):
    """The list of (potential, constructor arguments) of every potential of
    class cls built."""
    built = []
    init = cls.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((self, args))

    monkeypatch.setattr(cls, "__init__", recorded)
    return built


def _tabulated_bump():
    knots = np.linspace(-20.0, 20.0, 512)
    return make_perturbed_potential(
        {"type": "tabulated", "t": knots,
         "phi": 0.1 * np.exp(-0.5 * knots ** 2)}, window=20.0, grid_size=512)


@pytest.mark.parametrize("build", [
    _tabulated_bump,
    lambda: model._from_knot_values(np.zeros(512),
                                    model.Quadrature(20.0, 512, 8)),
    lambda: translate_potential(
        make_perturbed_potential(BUMP, window=20.0, grid_size=512), 0.7),
    lambda: newton_balance(
        8, make_perturbed_potential(OFF, window=20.0, grid_size=512)
    ).potential],
    ids=["bump", "fs", "translate", "newton"])
def test_derivative_splines_are_the_eager_ones(build, monkeypatch):
    # each phi^(k) of a spline potential is bit for bit the derivative of
    # the spline through its knot values before the gauge shift: the bump
    # as tabulated input, Fubini-Study as its zero knot values, a translate
    # and a solve's spline
    built = _recorded_potentials(monkeypatch, model.SplinePotential)
    build()
    assert built
    for P, (quad, vals, *_) in built:
        spline = make_interp_spline(quad.knots, vals, k=5)
        t = P.quad.nodes
        for k in range(1, 6):
            assert np.array_equal(P.phi_d(t, k), spline.derivative(k)(t)), k


@pytest.mark.parametrize("command, seeds", [
    ("newton", 1), ("balance", 1), ("tbalance", 1), ("family", 1),
    ("probe", 3)])
def test_solve_commands_build_only_their_inputs(command, seeds, tmp_path,
                                                monkeypatch):
    # a solve's answer is its diagonal x: a CLI solve run builds one
    # potential per input, in closed form here, and none for its levels,
    # and it never integrates a potential's Gram diagonal (section_norms)
    def refused(*args):
        raise AssertionError("a solve reads no potential's Gram diagonal")

    monkeypatch.setattr(bergman, "_norms_and_rows", refused)
    built = _recorded_potentials(monkeypatch)
    splines = _recorded_potentials(monkeypatch, model.SplinePotential)
    doc = {"command": command, "levels": [8] if command == "probe" else [4, 8]}
    if command == "probe":
        doc["seeds"] = [BUMP, OFF, {"type": "fubini-study"}]
    else:
        doc["potential"] = BUMP
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 0
    assert len(built) == seeds and not splines


@pytest.mark.parametrize("potential", [{"type": "fubini-study"}, BUMP])
@pytest.mark.parametrize("command, fields", [
    ("beta", {"levels": [8, 40]}),
    ("beta", {"levels": [8, 40], "weight": 2.0}),
    ("expand", {"levels": [5, 10, 20]})])
def test_closed_form_kernel_commands_form_no_t_node_rows(
        potential, command, fields, tmp_path, monkeypatch):
    # a closed-form potential's Gram diagonal is integrated on the u-rule,
    # and its kernels are read at the knots: no rows on the t-nodes
    def refused(*args):
        raise AssertionError("rows formed on the potential's t-nodes")

    monkeypatch.setattr(bergman, "_norms_and_rows", refused)
    monkeypatch.setattr(bergman, "_gram", refused)
    doc = dict(fields, command=command, potential=potential)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["outputs"]["gram_nodes"] == {
        str(m): 4 * m + 256 for m in fields["levels"]}
