import dataclasses

import numpy as np
import pytest
from scipy.special import expit, gammaln, logsumexp

from bergbal.model import (
    Quadrature, _volume_integral, default_window, integrate, make_fs_potential,
    make_perturbed_potential, translate_potential,
)
from bergbal.solvers import (
    BalanceResult, SolverOptions, _DSpace, _family_verdicts, _seed,
    balanced_family, newton_balance, t_balance, tk_iterate, uniqueness_probe,
)
from bergbal import bergman, model, runner, solvers
from bergbal.config import parse_config
from bergbal.bergman import (
    WindowError, _exp_floor, _kernel, _rows, c_of_m, _LOG_TINY,
)

BUMP = {"type": "gaussian-bump", "amplitude": 0.1, "width": 1.0, "center": 0.0}
OFF = {"type": "gaussian-bump", "amplitude": 0.1, "width": 1.0, "center": 0.5}
# a bump from the bench box
BOX = {"type": "gaussian-bump", "amplitude": 0.07, "width": 1.3, "center": 0.45}
FS = {"type": "fubini-study"}
GRID = np.linspace(-18.0, 18.0, 2001)


@pytest.fixture(scope="module")
def fs():
    return make_fs_potential(window=20.0, grid_size=512)


@pytest.fixture(scope="module")
def bump():
    return make_perturbed_potential(BUMP, window=20.0, grid_size=512)


@pytest.fixture(scope="module")
def off():
    return make_perturbed_potential(OFF, window=20.0, grid_size=512)


@pytest.fixture(scope="module")
def newton8(bump):
    return newton_balance(8, bump)


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverOptions(max_iterations=0)
    assert [f.name for f in dataclasses.fields(SolverOptions)] == \
        ["tolerance", "max_iterations"]


def test_result_validation(bump):
    x = np.zeros(3)
    with pytest.raises(ValueError):
        BalanceResult(2, x, bump.quad, None, [], True, 0, 0.0, "x")
    with pytest.raises(ValueError):
        BalanceResult(2, x, bump.quad, None, [np.nan], True, 0, 0.0, "x")
    res = BalanceResult(2, x, bump.quad, None, [1.0, 0.5], True, 1, 0.0, "x")
    assert res.final_residual == 0.5


def test_tk_accepts_balanced_seed(fs):
    # the reference metric is already a fixed point: zero iterations
    res = tk_iterate(6, fs)
    assert res.converged and res.iterations == 0
    assert res.final_residual < 1e-12
    assert res.mode == "fixed-point"


def test_tk_bump(bump):
    res = tk_iterate(8, bump)
    assert res.converged
    assert res.iterations <= 500
    assert res.final_residual <= 1e-8
    assert abs(res.diagnostics["moment_center"]) <= 1e-14


@pytest.mark.parametrize("m", [2, 5, 8, 12])
def test_fixed_point_rate_is_lambda2(bump, off, m):
    # near the round metric the plain map contracts at the round Jacobian's
    # slow eigenvalue lambda_2 = 1 - 12/((m+2)(m+3)) (see round_floors):
    # the median of the last 8 ratios of the residuals
    lam2 = 1.0 - 12.0 / ((m + 2) * (m + 3))
    for seed in (bump, off):
        res = tk_iterate(m, seed, SolverOptions(tolerance=1e-11))
        assert res.converged
        r = res.residual_history
        rate = np.median(r[1:][-8:] / r[:-1][-8:])
        assert abs(rate / lam2 - 1.0) <= 1e-4


def test_newton_quadratic(newton8):
    assert newton8.converged
    assert newton8.iterations <= 10
    orders = newton8.diagnostics["orders"]
    assert len(orders) >= 2 and max(orders) >= 1.8
    assert np.all(np.diff(newton8.residual_history) < 0)
    assert newton8.mode == "newton-exact"


def test_tk_matches_newton(bump, newton8):
    tk = tk_iterate(8, bump, SolverOptions(tolerance=1e-10))
    gap = np.max(np.abs(tk.potential.phi(GRID) - newton8.potential.phi(GRID)))
    assert gap < 1e-6


def test_newton_converges_at_level_40(bump):
    res = newton_balance(40, bump)
    assert res.converged and res.mode == "newton-exact"
    assert np.all(np.isfinite(res.residual_history))


def test_outputs_share_the_seed_quadrature(bump, newton8):
    assert newton8.potential.quad is bump.quad
    for solve in (tk_iterate, t_balance):
        assert solve(8, bump).potential.quad is bump.quad


def test_node_table_reads_the_cached_density(monkeypatch):
    # one density pass at the nodes, the input's, which its construction
    # caches: the seed reads the input on the u-rule, and the table reads
    # each level's Phi_x exactly at the knots (BalanceResult.read), no spline
    seen = []
    density = model.RadialPotential.density

    def spy(self, t):
        if np.array_equal(t, self.quad.nodes):
            seen.append(self)
        return density(self, t)

    solves = []

    def newton(m, P, opts):
        solves.append((P, newton_balance(m, P, opts)))
        return solves[-1][1]

    monkeypatch.setattr(model.RadialPotential, "density", spy)
    monkeypatch.setattr(runner, "newton_balance", newton)
    report = runner.run_experiment(parse_config(
        {"command": "newton", "potential": BUMP, "levels": [4, 8]}))
    assert report["error"] is None
    P = solves[0][0]
    assert [id(p) for p in seen] == [id(P)]
    monkeypatch.undo()
    [table] = [tb for tb in report["tables"] if tb["name"] == "potential"]
    assert table["columns"]["t"] == P.quad.knots.tolist()
    assert len(table["columns"]["t"]) == P.quad.grid_size
    for seed, res in solves:
        assert seed is P and res.quad is P.quad
        cols = table["columns"]
        phi, dens = res.read(P.quad.knots)
        assert np.array_equal(cols["phi_m%d" % res.level], phi)
        assert np.array_equal(cols["density_m%d" % res.level], dens)


def test_t_balance_frozen_weight_is_newton(bump, newton8):
    # on the even bump the moment pairing vanishes at y = 0, so the weight
    # stays at 0 and the solve is newton_balance's, bit for bit
    res = t_balance(8, bump)
    assert np.array_equal(res.residual_history, newton8.residual_history)
    assert np.array_equal(res.potential.phi(GRID), newton8.potential.phi(GRID))
    assert res.torus_weight == 0.0
    assert res.mode == "t-balance"


def _softmax_columns(monkeypatch):
    """The list that records the column count of every softmax call."""
    calls = []
    softmax = _DSpace.softmax

    def counted(self, x, t=None):
        calls.append(self.t.size if t is None else t.size)
        return softmax(self, x, t)

    monkeypatch.setattr(_DSpace, "softmax", counted)
    return calls


def test_t_balance_reuses_inner_evaluation(off, monkeypatch):
    # the moment pairing reads the deviation of the inner solve's last
    # evaluation, so t_balance makes no exponential pass beyond Newton's;
    # the moment center reads x alone, so no solve makes a 2-column softmax,
    # sigma reads the last evaluation, and nothing is emitted: one softmax
    # per evaluation, the seed's and one per Newton step
    calls = _softmax_columns(monkeypatch)
    newton_balance(8, off)
    direct = list(calls)
    calls.clear()
    t_balance(8, off)
    assert calls == direct and len(calls) == 5
    assert 2 not in calls


@pytest.mark.parametrize("m, opts", [
    (8, SolverOptions(max_iterations=1)), (8, SolverOptions(max_iterations=2)),
    (40, SolverOptions(tolerance=1e-3))], ids=["cap1", "cap2", "loose"])
def test_t_balance_is_one_newton_solve(off, monkeypatch, m, opts):
    # stopped by the cap, or converged at a loose tolerance with a moment
    # pairing left above rounding (3.5e-10 at m = 40): one solve at y = 0,
    # Newton's own history, and the pairing M(0) of its last iterate x,
    # against a quadrature of the same x on a wide t-window (measured
    # <= 3.4e-17)
    calls = []
    gauss_newton = solvers._gauss_newton

    def counted(ds, x0, opts):
        calls.append((ds.m, gauss_newton(ds, x0, opts)))
        return calls[-1][1]

    monkeypatch.setattr(solvers, "_gauss_newton", counted)
    res = t_balance(m, off, opts)
    [(level, (ev, hist))] = calls
    assert level == m and hist == list(res.residual_history)
    assert res.torus_weight == 0.0
    direct = newton_balance(m, off, opts)
    assert np.array_equal(res.residual_history, direct.residual_history)
    pairing = res.diagnostics["moment_pairing"]
    assert abs(pairing) > 1e-10
    ref = _window_quadrature(m, ev.x, lambda mu, dev: dev * (mu / m - 0.5))
    assert abs(pairing - ref) <= 1e-15


def _window_quadrature(m, x, f):
    """int f(mu, dev) dmu_x for the softmax mean mu and the kernel deviation
    dev of x, by the composite rule on the window [-60, 60] with the tail
    masses at its edges: the t-window form that the u-rule replaces, here on
    a window whose tails are below rounding."""
    quad = Quadrature(60.0, 1024, 8)
    ds = _DSpace(m)
    p = ds.softmax(x, quad.nodes)[0]
    mu, _, k2 = ds._moments(p)
    dens = k2 / m
    ex = np.exp(x)
    G = ex * (p[:, 1:-1] @ (quad.inner_weights * dens[1:-1]))
    dev = ((ex / G) @ p) / m - c_of_m(m)
    return _volume_integral(quad, f(mu, dev), dens,
                            (mu[0] / m, 1.0 - mu[-1] / m))


def _recorded_evaluations(monkeypatch):
    """The list of (_DSpace, _Evaluation) of every evaluate call."""
    evaluations = []
    evaluate = _DSpace.evaluate

    def recorded(self, x):
        evaluations.append((self, evaluate(self, x)))
        return evaluations[-1][1]

    monkeypatch.setattr(_DSpace, "evaluate", recorded)
    return evaluations


@pytest.mark.parametrize("solve", [tk_iterate, newton_balance])
@pytest.mark.parametrize("cap", [1, 3])
def test_cap_returns_evaluated_iterate(bump, monkeypatch, solve, cap):
    # at the cap the last step is evaluated too: every step counts, the
    # final residual is the last evaluated iterate's own sup, and the
    # returned diagonal is that iterate's
    evaluations = _recorded_evaluations(monkeypatch)
    res = solve(8, bump, SolverOptions(max_iterations=cap, tolerance=1e-14))
    assert not res.converged
    assert res.iterations == cap == len(res.residual_history) - 1
    ds, ev = evaluations[-1]
    assert res.final_residual == ev.sup
    assert res.x is ev.x


def test_t_balance_off_center(off):
    # the moment pairing of the centered inner solution already vanishes,
    # so the weight is accepted at exactly zero
    res = t_balance(8, off)
    assert res.torus_weight == 0.0
    assert res.final_residual <= 1e-8
    assert abs(res.diagnostics["moment_pairing"]) <= 1e-12
    direct = newton_balance(8, off)
    gap = np.max(np.abs(res.potential.phi(GRID) - direct.potential.phi(GRID)))
    assert gap < 1e-7


def test_t_balance_even(bump):
    res = t_balance(8, bump)
    assert abs(res.torus_weight) <= 1e-8
    assert res.final_residual <= 1e-8


def test_family(bump):
    fam = balanced_family([5, 10, 20], bump)
    assert fam.levels == [5, 10, 20]
    assert fam.failure_index is None
    assert fam.verdicts["all_converged"]
    # every balanced metric here is the round one, so the distance curve
    # sits at the float floor
    assert np.all(fam.d_sup < 1e-10)
    assert fam.d_sup.size == fam.sigma_sup.size == 3
    assert all(r.quad is bump.quad for r in fam.results)
    direct = newton_balance(10, bump)
    gap = np.max(np.abs(fam.results[1].read(GRID)[0]
                        - direct.read(GRID)[0]))
    assert gap < 1e-7


@pytest.fixture(scope="module")
def fs_family():
    fs40 = make_fs_potential(window=default_window(40), grid_size=512)
    return balanced_family([5, 10, 20, 40], fs40)


def test_family_fs_at_floor(fs_family):
    # seeded with the exact answer, both curves sit at their floors
    assert all(fs_family.verdicts.values())
    assert fs_family.d_floor.size == fs_family.sigma_floor.size == 4
    assert np.all(fs_family.d_sup <= fs_family.d_floor)
    assert np.all(fs_family.sigma_sup <= fs_family.sigma_floor)
    # the floors are the float floor, not a blanket pass
    assert np.all(fs_family.d_floor < 1e-10)
    assert np.all(fs_family.sigma_floor < 1e-6)


def test_family_reads_on_the_solve_nodes(fs_family):
    # d_m and both floors are read on each level's u-rule, where its
    # residual and sigma are read, and on no node of the seed
    rows = []
    for m, res in zip(fs_family.levels, fs_family.results):
        ds = _DSpace(m)
        rows.append((np.max(np.abs(res.read(ds.t)[0])),)
                    + ds.round_floors(res.final_residual))
    d, d_floor, s_floor = np.array(rows).T
    assert np.array_equal(fs_family.d_sup, d)
    assert np.array_equal(fs_family.d_floor, d_floor)
    assert np.array_equal(fs_family.sigma_floor, s_floor)


def test_family_rising_curve_fails(fs_family):
    d_floor, s_floor = fs_family.d_floor, fs_family.sigma_floor
    rise = np.array([2.0, 4.0, 8.0, 16.0])
    v = _family_verdicts(rise * d_floor.max(), rise * s_floor.max(),
                         d_floor, s_floor, True)
    assert not v["d_non_increasing"]
    assert not v["d_last_below_first"]
    assert not v["sigma_decreasing"]
    # the same curves held at their floors count as converged
    v = _family_verdicts(d_floor, s_floor, d_floor, s_floor, True)
    assert all(v.values())


def test_family_from_level_one(bump):
    # at m = 1 both diagonal entries are gauge directions; the floor must
    # still be defined there
    fam = balanced_family([1, 2, 3], bump)
    assert all(fam.verdicts.values())
    assert np.all(fam.d_sup <= fam.d_floor)


def test_family_guards(bump):
    with pytest.raises(ValueError):
        balanced_family([10, 5], bump)
    small = make_perturbed_potential(BUMP, window=16.0, grid_size=256)
    with pytest.raises(WindowError):
        balanced_family([40], small)


@pytest.mark.parametrize("desc", [BUMP, FS], ids=["bump", "fs"])
def test_family_levels_start_balanced(desc):
    # each level after the first is seeded from the previous level's Phi_x,
    # read exactly on its own u-rule: Phi_x is round, so the seed is
    # balanced to rounding and the level takes 0 steps (measured residuals
    # 8.9e-16 to 1.6e-14; seeded from the previous level's spline they read
    # 1.4e-13 to 4.4e-12).  The verdicts pass, as they did then
    P = make_perturbed_potential(desc, window=default_window(40),
                                 grid_size=512)
    fam = balanced_family([5, 10, 20, 40], P)
    assert all(fam.verdicts.values())
    for res in fam.results[1:]:
        assert res.iterations == 0 and res.final_residual <= 1e-13


@pytest.mark.parametrize("solve", [
    tk_iterate, newton_balance, t_balance, balanced_family,
    uniqueness_probe], ids=["tk", "newton", "tbalance", "family", "probe"])
def test_solve_entry_guards(bump, solve):
    # every solve checks its level and its seed's window on entry
    small = make_perturbed_potential(BUMP, window=16.0, grid_size=256)
    for m, seed, error in ((0, bump, ValueError), (201, bump, ValueError),
                           (40, small, WindowError)):
        with pytest.raises(error) as exc:
            if solve is balanced_family:
                solve([m], seed)
            elif solve is uniqueness_probe:
                solve(m, [seed])
            else:
                solve(m, seed)
        assert (error is WindowError) == isinstance(exc.value, WindowError)


def test_uniqueness(bump, off):
    third = make_perturbed_potential(
        {"type": "gaussian-bump", "amplitude": 0.08, "width": 1.3, "center": -0.2},
        window=20.0, grid_size=512)
    rep = uniqueness_probe(8, [bump, off, third])
    assert rep.passed
    assert rep.excluded == []
    assert rep.max_distance <= 1e-6
    assert np.allclose(rep.distances, rep.distances.T)


def test_uniqueness_on_the_solve_nodes(bump, off):
    # the distances are sups over the level's u-rule, whatever the seeds'
    # windows: here 20 and 22
    wide = make_perturbed_potential(BUMP, window=22.0, grid_size=512)
    rep = uniqueness_probe(8, [wide, bump, off])
    assert rep.passed
    phi = [res.read(_DSpace(8).t)[0] for res in rep.results]
    assert rep.max_distance == max(np.max(np.abs(a - b))
                                   for a in phi for b in phi)


def test_uniqueness_without_converged_seeds(bump, off):
    rep = uniqueness_probe(8, [bump, off], SolverOptions(max_iterations=1))
    assert rep.excluded == [0, 1]
    assert rep.max_distance == 0.0 and not rep.passed
    assert not np.any(rep.distances)


def test_uniqueness_guard():
    with pytest.raises(ValueError):
        uniqueness_probe(8, [])


@pytest.fixture(scope="module")
def fs25():
    # wide enough that a translate by 2 settles at the window
    return make_fs_potential(window=25.0, grid_size=512)


@pytest.mark.parametrize("solve", [newton_balance, tk_iterate, t_balance])
@pytest.mark.parametrize("m", [1, 8, 40])
@pytest.mark.parametrize("s", [0.5, -1.0, 2.0])
def test_translated_seed_returns_centered(fs25, solve, m, s):
    # a torus translate of the round metric is balanced already; the solve
    # returns it moved to moment center 0, which is the round metric itself
    res = solve(m, translate_potential(fs25, s))
    assert res.converged
    assert np.max(np.abs(res.read(fs25.quad.nodes)[0])) <= 1e-9
    assert abs(res.diagnostics["moment_center"]) <= 1e-14


def test_uniqueness_across_the_torus():
    # [box bump, Fubini-Study] at m = 1, where both seeds meet the tolerance
    # unsolved, and [Fubini-Study, its translate by 0.5] at m = 8
    seeds = [make_perturbed_potential(d, window=default_window(1),
                                      grid_size=512) for d in (BOX, FS)]
    assert uniqueness_probe(1, seeds).passed
    fs = make_fs_potential(window=default_window(8), grid_size=512)
    assert uniqueness_probe(8, [fs, translate_potential(fs, 0.5)]).passed


def test_newton_far_seed():
    # a seed far from the round metric still converges in a few steps
    far = make_perturbed_potential(
        {"type": "gaussian-bump", "amplitude": 0.5, "width": 2.0, "center": 0.0},
        window=20.0, grid_size=512)
    res = newton_balance(8, far)
    assert res.converged
    assert res.iterations <= 10


def _seeded(desc, m):
    """_DSpace at level m on desc's default window, and its seed diagonal."""
    P = make_perturbed_potential(desc, window=default_window(m), grid_size=512)
    return _seed(m, P)


def test_family_seed_reads_the_lower_level_once(bump, newton8, monkeypatch):
    # a level seeded from a lower level's result reads it once, one softmax
    # at the lower level's nodes and its own, and gets the same x0 as from
    # two reads, of phi and of the density
    ds = _DSpace(16)
    phi, dens = newton8.read(ds.t)
    G = bergman._rows(16, ds.t, model.fs_derivative(ds.t, 0) + phi) \
        @ (ds.w * dens)
    calls = _softmax_columns(monkeypatch)
    x0 = _seed(16, newton8)[1]
    assert calls == [_DSpace(8).t.size + ds.t.size]
    assert np.array_equal(x0, np.log(17 * G))


def test_moment_map_pushes_volume_to_lebesgue(fs, bump, off):
    # Phi' pushes dmu = Phi'' dt forward to Lebesgue measure on [0, 1]
    # (Duistermaat-Heckman for the circle action), so int Phi'^k dmu =
    # 1/(k + 1) for every potential; measured at most 3.3e-16
    P = make_perturbed_potential(OFF, window=default_window(40), grid_size=512)
    solved = newton_balance(40, P).potential
    for P in (fs, bump, off, translate_potential(fs, 0.5), solved):
        for k in range(4):
            moment = integrate(P, P.node_values("Phi1") ** k)
            assert abs(moment - 1.0 / (k + 1)) <= 1e-14


@pytest.mark.parametrize("m", [8, 40, 200])
def test_moment_map_oracle_in_d_space(m):
    # the same on the diagonal's side, Phi_x' = mu/m, on the u-rule: the
    # reason f_moment is Phi_x' - 1/2
    ds, x = _seeded(OFF, m)
    ev = ds.evaluate(x)
    for k in range(4):
        moment = ds._integral((ev.mu / m) ** k, ev)
        assert abs(moment - 1.0 / (k + 1)) <= 1e-14


@pytest.mark.parametrize("m", [8, 40, 200])
def test_moment_center_closed_form(m):
    # (x_m - x_0)/m against two quadratures of int t dmu_x; x + 0.7 j
    # translates Phi_x by 0.7.  On the u-rule, by parts against the round
    # metric (whose center is 0): -int (Phi_x' - expit(t)) dt, an integrand
    # smooth in u (t dmu_x itself is log-singular in u at both ends);
    # measured <= 8.9e-16.  On window 60, t dmu_x itself, with tail masses
    # below rounding
    ds, x = _seeded(OFF, m)
    x = x + 0.7 * ds.j
    center = ds.moment_center(x)
    assert abs(center - 0.7) < 0.01
    mu = ds.j @ ds.softmax(x)[0]
    assert abs(center + ds.w @ (mu / m - expit(ds.t))) <= 1e-13
    t = Quadrature(60.0, 1024, 8).nodes
    assert abs(center - _window_quadrature(m, x, lambda mu, dev: t)) <= 1e-12


@pytest.mark.parametrize("m", [8, 40, 200])
def test_moment_center_round_diagonal(m):
    ds = _DSpace(m)
    x = gammaln(ds.j + 1) + gammaln(m - ds.j + 1) - gammaln(m + 1)
    assert abs(ds.moment_center(x)) <= 1e-13


@pytest.mark.parametrize("m", [8, 40, 200])
def test_gram_rows_from_softmax(m):
    # rows p_j e^{x_j} give the Gram diagonal of the rows e^{jt - m Phi_x}
    ds, x = _seeded(BUMP, m)
    ev = ds.evaluate(x)
    _, a, s = ds.softmax(x)
    ref = _rows(m, ds.t, (a + np.log(s)) / m) @ (ds.w * ev.dens)
    assert np.max(np.abs(ev.G / ref - 1.0)) <= 1e-13


@pytest.mark.parametrize("m, steps", [(8, 4), (40, 5), (120, 4), (200, 4)])
def test_newton_step_counts(m, steps):
    # at m = 120 and 200 the full first step raises the residual and the
    # half step is taken
    P = make_perturbed_potential(BUMP, window=default_window(m), grid_size=512)
    res = newton_balance(m, P)
    assert res.converged
    assert res.iterations == steps


@pytest.mark.parametrize("m, amplitude, width, center", [
    (200, 0.11, 1.0, 1.0), (200, 0.11, 1.0, -1.0), (200, 0.115, 0.97, -0.84),
    (200, 0.109, 0.91, 0.57), (200, 0.12, 1.0, 0.0), (120, 0.119, 0.96, -0.98),
    (120, 0.38, 1.29, -0.26),
    (200, 0.5370385130747523, 1.9257650551753716, -1.105152552575083)])
def test_newton_strong_bumps(m, amplitude, width, center):
    # a full Newton step from these seeds overshoots into a rising residual;
    # the backtracking line search converges.  The last falls slowly at
    # first, 2.5e-1, 1.7e-1, 1.1e-1, 5.6e-2 in three damped steps, none of
    # which halves the residual, and converges in 8 steps to 1.6e-11
    desc = {"type": "gaussian-bump", "amplitude": amplitude, "width": width,
            "center": center}
    P = make_perturbed_potential(desc, window=default_window(m), grid_size=512)
    res = newton_balance(m, P, SolverOptions(tolerance=1e-9))
    assert res.converged and res.final_residual <= 1e-9
    assert np.all(np.diff(res.residual_history) < 0)


@pytest.mark.parametrize("m", [8, 40, 200])
def test_softmax_S_is_scipy_logsumexp(m):
    # S = m Phi_x = a + log s at the seed's knots (BalanceResult.potential)
    # and at the nodes of the u-rule, on the seed diagonal and on the round
    # one, against scipy's log-sum-exp: within a few ulp of |S| (of 1 where
    # S is near 0; measured <= 3.3)
    ds, x0 = _seeded(OFF, m)
    x1 = gammaln(ds.j + 1) + gammaln(m - ds.j + 1) - gammaln(m + 1)
    knots = Quadrature(default_window(m), 512, 8).knots
    for x in (x0, x1):
        for t in (knots, ds.t):
            _, a, s = ds.softmax(x, None if t is ds.t else t)
            S = a + np.log(s)
            ref = logsumexp(np.multiply.outer(ds.j, t) - x[:, None], axis=0)
            ulp = np.finfo(float).eps * np.maximum(np.abs(ref), 1.0)
            assert np.all(np.abs(S - ref) <= 4.0 * ulp)


def _overshoot_trial(monkeypatch):
    """The _DSpace at m = 200 of the strong bump (0.11, 1.0, 1.0) and its
    first trial iterate after the seed, moment-centered: a full Newton step
    that raises the residual, and an x that is not convex."""
    desc = {"type": "gaussian-bump", "amplitude": 0.11, "width": 1.0,
            "center": 1.0}
    P = make_perturbed_potential(desc, window=default_window(200),
                                 grid_size=512)
    trials = []
    centered = solvers._centered

    def recorded(ds, x):
        trials.append(x)
        return centered(ds, x)

    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_centered", recorded)
        res = newton_balance(200, P, SolverOptions(max_iterations=1))
    ds = _DSpace(200)
    x = trials[1] - ds.j * ds.moment_center(trials[1])
    assert ds.evaluate(x).sup > res.residual_history[0]
    return ds, x


def _assert_gram_derivative(ds, x):
    """A_il = (dG_i / dx_l) / G_i against central differences of the Gram
    diagonal, to 1e-8 of max|A|."""
    m = ds.m
    ev = ds.evaluate(x)
    h = 1e-5
    fd = np.empty((m + 1, m + 1))
    for l in range(m + 1):
        e = h * (ds.j == l)
        fd[:, l] = ds.evaluate(x + e).G - ds.evaluate(x - e).G
    fd /= 2.0 * h * ev.G[:, None]
    A = ds.jacobian(ev)
    assert np.max(np.abs(A - fd)) <= 1e-8 * np.max(np.abs(A))


@pytest.mark.parametrize("m", [8, 40, 120, 200, "overshoot"])
def test_jacobian_is_gram_derivative(m, monkeypatch):
    # on the test bump's seed and on the round diagonal, and on a far trial
    # iterate where the u-rule is inexact; measured <= 3.6e-9, 3.0e-9 and
    # 2.8e-9 of max|A|
    if m == "overshoot":
        _assert_gram_derivative(*_overshoot_trial(monkeypatch))
        return
    ds, x = _seeded(BUMP, m)
    _assert_gram_derivative(ds, x)
    _assert_gram_derivative(
        ds, gammaln(ds.j + 1) + gammaln(m - ds.j + 1) - gammaln(m + 1))


@pytest.mark.parametrize("desc", [BUMP, OFF], ids=["bump", "off"])
@pytest.mark.parametrize("m", [8, 40, 120, 200])
def test_hessian_is_symmetric(desc, m):
    # H = diag(e^{-x} G)(I - A) is the Hessian of the balancing energy
    # (ROADMAP item 14), so it is symmetric off the round point too: to
    # 1e-12 of max|H| on the seeds (measured <= 2.9e-14)
    ds, x = _seeded(desc, m)
    ev = ds.evaluate(x)
    H = (np.exp(-x) * ev.G)[:, None] * (np.eye(m + 1) - ds.jacobian(ev))
    assert np.max(np.abs(H - H.T)) <= 1e-12 * np.max(np.abs(H))


@pytest.mark.parametrize("desc", [BUMP, OFF, "round"],
                         ids=["bump", "off", "round"])
@pytest.mark.parametrize("m", [8, 40, 120, 200])
def test_jacobian_left_null_vectors(desc, m):
    # H 1 = H j = 0 and H symmetric make w = e^{-x} G and j w left null
    # vectors of J = A - I, the fact _newton_step rests on: to 1e-12 of
    # max|J| on the seeds and on the closed-form round diagonal (measured
    # <= 5.3e-14)
    ds, x = _round(FS, m)[:2] if desc == "round" else _seeded(desc, m)
    ev = ds.evaluate(x)
    J = ds.jacobian(ev) - np.eye(m + 1)
    w = np.exp(-x) * ev.G
    gap = max(np.max(np.abs(w @ J)), np.max(np.abs((ds.j * w) @ J)))
    assert gap <= 1e-12 * np.max(np.abs(J))


def _lstsq_step(ds, ev):
    """Newton's step by least squares on J = A - I with the gauge rows
    1^T dx = 0 and j^T dx = 0 appended: the reference _newton_step
    replaced."""
    m = ds.m
    J = ds.jacobian(ev) - np.eye(m + 1)
    Jaug = np.vstack([J, np.ones(m + 1), ds.j])
    rhs = np.concatenate([ev.x - np.log((m + 1) * ev.G), [0.0, 0.0]])
    return np.linalg.lstsq(Jaug, rhs, rcond=None)[0]


@pytest.mark.parametrize("desc", [BOX, OFF, BUMP], ids=["box", "off", "bump"])
@pytest.mark.parametrize("m", [8, 40, 120, 200])
def test_newton_step_matches_lstsq(desc, m):
    # the square solve's step from the seed equals the least-squares one up
    # to span{1, j}: to 1e-8 relative once that span is projected out
    # (measured <= 1.4e-10)
    ds, x = _seeded(desc, m)
    ev = ds.evaluate(x)
    Q = np.linalg.qr(np.stack([np.ones(m + 1), ds.j], axis=1))[0]
    ref = _lstsq_step(ds, ev)
    gap = solvers._newton_step(ds, ev) - ref
    for v in (gap, ref):
        v -= Q @ (Q.T @ v)
    assert np.linalg.norm(gap) <= 1e-8 * np.linalg.norm(ref)


def test_newton_makes_no_lstsq_call(off, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("Newton's step is one square solve, no lstsq")

    monkeypatch.setattr(np.linalg, "lstsq", refused)
    res = newton_balance(40, off)
    assert res.converged and res.iterations > 0


def test_singular_newton_system_declines(off, monkeypatch):
    # A = I makes J = A - I zero, so the square system is singular: the
    # solve declines its first step, converged = False with the seed's sup
    monkeypatch.setattr(_DSpace, "jacobian",
                        lambda self, ev: np.eye(self.m + 1))
    res = newton_balance(8, off)
    assert not res.converged and res.iterations == 0
    assert res.residual_history.shape == (1,)
    assert np.isfinite(res.final_residual) and res.final_residual > 1e-8


def _parent_evaluation(ds, x):
    """G and dev of ds.evaluate(x) in the form that the row scale replaces:
    the softmax exponentiated by np.exp alone, the rows E = p e^x formed,
    divided in place by G and summed over axis 0."""
    p = np.multiply.outer(ds.j, ds.t)
    p -= x[:, None]
    a = p.max(axis=0)
    p -= a
    np.exp(p, out=p)
    p /= p.sum(axis=0)
    k2 = ds._moments(p)[2]
    E = p * np.exp(x)[:, None]
    G = E @ (ds.w * k2 / ds.m)
    E /= G[:, None]
    return G, E.sum(axis=0) / ds.m - c_of_m(ds.m)


@pytest.mark.parametrize("m", [8, 40, 120, 200])
def test_evaluate_matches_parent_form(m):
    # on the test bump's seed and on the round diagonal; measured <= 8.9e-16
    # for both, dev against the kernel's size C_m
    ds, x0 = _seeded(BUMP, m)
    x1 = gammaln(ds.j + 1) + gammaln(m - ds.j + 1) - gammaln(m + 1)
    for x in (x0, x1):
        ev = ds.evaluate(x)
        G, dev = _parent_evaluation(ds, x)
        assert np.max(np.abs(ev.G / G - 1.0)) <= 1e-13
        assert np.max(np.abs(ev.dev - dev)) <= 1e-13 * c_of_m(m)


def _reference_softmax(ds, x):
    """ds.softmax(x) with its column bound formed from the nodes t."""
    p = ds.jt - x[:, None]
    a = p.max(axis=0)
    p -= a
    _exp_floor(p, np.minimum(0.0, ds.m * ds.t) - x.max() - a)
    s = p.sum(axis=0)
    p /= s
    return p, a, s


def _reference_evaluate(ds, x):
    """ds.evaluate(x) in the form that the held node terms replace:
    _reference_softmax, _moments, c_of_m at each use, and the two ends read
    by fancy indexing."""
    m = ds.m
    p = _reference_softmax(ds, x)[0]
    mu, d2, k2 = ds._moments(p)
    dens = k2 / m
    ex = np.exp(x)
    G = ex * (p @ (ds.w * dens))
    dev = _kernel(m, p, G, ex) - c_of_m(m)
    ends = ex[[0, -1]] / G[[0, -1]] / m - c_of_m(m)
    sup = max(np.abs(dev).max(), np.abs(ends).max())
    return solvers._Evaluation(x, p, mu, d2, k2, dens, G, dev, float(sup))


@pytest.mark.parametrize("m", [1, 2, 5, 8, 12, 40, 120, 200, "overshoot"])
def test_evaluate_matches_reference(m, monkeypatch):
    # every field bit for bit, on the seeds and on a far trial iterate
    if m == "overshoot":
        cases = [_overshoot_trial(monkeypatch)]
    else:
        cases = [_seeded(desc, m) for desc in (BUMP, OFF)]
    for ds, x in cases:
        ev, ref = ds.evaluate(x), _reference_evaluate(ds, x)
        for field, a, b in zip(ev._fields, ev, ref):
            assert np.array_equal(a, b), field
        for a, b in zip(ds.softmax(x)[1:], _reference_softmax(ds, x)[1:]):
            assert np.array_equal(a, b)


def _unfloored_jacobian(ds, ev):
    """ds.jacobian(ev) from p as it is, with no entry set to zero."""
    M = np.subtract(2.0 * ev.k2, ev.d2)
    M *= ev.p
    M *= ds.w / ds.m
    A = ev.p @ M.T
    A *= (np.exp(ev.x) / ev.G)[:, None]
    return A


@pytest.mark.parametrize("m", [8, 40, 120, 200, "overshoot"])
def test_jacobian_floor_leaves_a_unchanged(m, monkeypatch):
    # the entries of p below sqrt(DBL_MIN) that jacobian drops are below
    # the rounding of every entry of A: bit for bit on the seeds and on a
    # far trial iterate, and at m >= 120 there are such entries to drop
    if m == "overshoot":
        cases = [_overshoot_trial(monkeypatch)]
    else:
        cases = [_seeded(desc, m) for desc in (BOX, OFF, BUMP)]
    for ds, x in cases:
        ev = ds.evaluate(x)
        assert np.array_equal(ds.jacobian(ev), _unfloored_jacobian(ds, ev))
        if ds.m >= 120:
            assert np.any((ev.p > 0.0) & (ev.p < solvers._SQRT_TINY))


def _softmax_exponents(ds, x, monkeypatch):
    """(z, low, result) of the _exp_floor call in ds.softmax(x)."""
    calls = []
    exp_floor = solvers._exp_floor

    def recorded(z, low):
        # copies: z is exponentiated in place and softmax then divides it
        z0 = z.copy()
        calls.append((z0, low, exp_floor(z, low).copy()))
        return z

    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_exp_floor", recorded)
        ds.softmax(x)
    (z, low, out), = calls
    return z, low, out


def _assert_exp_floor(z, low, out):
    """low bounds z; out is np.exp where that is normal and +0.0 elsewhere."""
    assert np.all(low <= z)
    ref = np.exp(z)
    normal = ref >= np.finfo(float).tiny
    assert np.array_equal(out[normal], ref[normal])
    assert np.all(out[~normal] == 0.0) and not np.any(np.signbit(out))
    return ref


@pytest.mark.parametrize("m", [120, 200, "overshoot"])
def test_softmax_exponentials_below_normal_are_zero(m, monkeypatch):
    if m == "overshoot":
        ds, x = _overshoot_trial(monkeypatch)
        assert np.any(np.diff(x, 2) < 0.0)
    else:
        ds, x = _seeded(BUMP, m)
    z, low, out = _softmax_exponents(ds, x, monkeypatch)
    _assert_exp_floor(z, low, out)
    assert low.min() < _LOG_TINY and np.any(out == 0.0)


@pytest.mark.parametrize("m", [2, 8, 30, 40, 70])
def test_softmax_exponentials_plain_at_low_levels(m, monkeypatch):
    # on the u-rule the bound stays above ln(DBL_MIN) up to m = 70 on these
    # seeds, so the softmax exponentials are np.exp's bit for bit
    for desc in (BUMP, OFF):
        ds, x = _seeded(desc, m)
        z, low, out = _softmax_exponents(ds, x, monkeypatch)
        assert low.min() >= _LOG_TINY
        assert np.array_equal(out, _assert_exp_floor(z, low, out))


# BOX on the window of the top bench level
@pytest.fixture(scope="module")
def box():
    return make_perturbed_potential(BOX, window=default_window(200),
                                    grid_size=512)


@pytest.mark.parametrize("m", list(range(1, 41)) + list(range(80, 201, 20)))
def test_round_diagonal_on_solve_nodes(m):
    # the Beta oracle and the round balance on the u-rule, m + 64 nodes;
    # measured <= 2.8e-13 and 3.8e-14
    ds = _DSpace(m)
    assert ds.t.size == m + solvers.EXTRA_NODES
    x = gammaln(ds.j + 1) + gammaln(m - ds.j + 1) - gammaln(m + 1)
    ev = ds.evaluate(x)
    beta = np.exp(gammaln(ds.j + 1) + gammaln(m - ds.j + 1) - gammaln(m + 2))
    assert np.max(np.abs(ev.G / beta - 1.0)) <= 1e-12
    assert ev.sup <= 1e-13


def test_sup_reads_the_ends(off, monkeypatch):
    # at t = -oo and +oo the softmax is e_0 and e_m, so the kernel
    # deviation tends to e^{x_0}/(m G_0) - C_m and e^{x_m}/(m G_m) - C_m, as
    # the kernel at t = -60 and 60 reads to rounding.  On every iterate of a
    # fixed-point solve the sup is the larger of these two and the sup over
    # the nodes, and on most of them the ends are the larger
    m = 8
    evaluations = _recorded_evaluations(monkeypatch)
    tk_iterate(m, off)
    at_ends = 0
    for ds, ev in evaluations:
        r = np.exp(ev.x) / ev.G
        ends = np.abs(r[[0, -1]] / m - c_of_m(m))
        far = np.abs(r @ ds.softmax(ev.x, np.array([-60.0, 60.0]))[0] / m
                     - c_of_m(m))
        assert np.all(np.abs(far - ends) <= 1e-15)
        inner = np.max(np.abs(ev.dev))
        assert ev.sup == max(inner, ends.max())
        at_ends += ends.max() > inner
    assert at_ends > len(evaluations) // 2


@pytest.mark.parametrize("solve, m, tolerance", [
    (newton_balance, 8, 1e-9), (newton_balance, 40, 1e-9),
    (newton_balance, 120, 1e-9), (newton_balance, 200, 1e-9),
    (tk_iterate, 8, 1e-8)])
def test_solve_nodes_agree_with_full_quadrature(box, monkeypatch, solve, m,
                                                tolerance):
    # against the same solve on a dense u-rule of 4m + 160 nodes, seed
    # included: the same steps, and phi within 1e-13
    opts = SolverOptions(tolerance=tolerance)
    res = solve(m, box, opts)
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "EXTRA_NODES", 3 * m + 160)
        full = solve(m, box, opts)
    assert res.diagnostics["solve_nodes"] == m + 64
    assert full.diagnostics["solve_nodes"] == 4 * m + 160
    assert res.converged and full.converged
    assert res.iterations == full.iterations
    nodes = box.quad.nodes
    gap = np.max(np.abs(res.read(nodes)[0] - full.read(nodes)[0]))
    assert gap <= 1e-13


def test_newton_on_a_coarse_seed():
    # the solve, seed included, reads its own nodes, not the input's
    # quadrature: on grid 64 and order 2 at m = 200, where section_norms on
    # that quadrature misses the Beta oracle by 41 %, Newton on a bench bump
    # converges in 4 steps to 1.6e-12, with sup|phi| 9.7e-13
    desc = {"type": "gaussian-bump", "amplitude": 0.067, "width": 1.37,
            "center": -0.57}
    P = make_perturbed_potential(desc, window=default_window(200),
                                 grid_size=64, order=2)
    res = newton_balance(200, P)
    assert res.converged and res.iterations <= 4
    assert np.max(np.abs(res.read(P.quad.nodes)[0])) <= 1e-10


ROUND_LEVELS = list(range(2, 13)) + [20, 40, 80, 120, 160, 200]


def _round(desc, m):
    """_DSpace at level m, the round diagonal x_j = -log C(m, j), and the
    nodes of desc on its default window."""
    P = make_perturbed_potential(desc, window=default_window(m), grid_size=512)
    ds = _DSpace(m)
    lf = model.log_factorials(m)
    return ds, lf + lf[::-1] - lf[-1], P.quad.nodes


def _chebyshev(m):
    """The discrete Chebyshev vectors q_0..q_m as rows, orthonormal for the
    uniform weight on {0..m}: the Stieltjes recurrence q_{l+1} ~ (j - a_l)
    q_l - b_l q_{l-1}, with one reorthogonalization against every earlier
    vector."""
    j = np.arange(m + 1.0)
    Q = np.zeros((m + 1, m + 1))
    Q[0] = 1.0 / np.sqrt(m + 1.0)
    for l in range(m):
        v = j * Q[l]
        v -= (v @ Q[l]) * Q[l]
        if l:
            v -= (v @ Q[l - 1]) * Q[l - 1]
        v -= (Q[:l + 1] @ v) @ Q[:l + 1]
        Q[l + 1] = v / np.linalg.norm(v)
    return Q


@pytest.mark.parametrize("m", ROUND_LEVELS)
def test_jacobian_round_eigenpairs(m):
    # the whole spectrum at the round diagonal: for l = 0..m the eigenvalue
    # lambda_l = (1 + l(l+1)/m) m!(m+1)!/((m-l)!(m+l+1)!), with eigenvector
    # the discrete Chebyshev vector q_l.  l = 0 and 1 are the scale and
    # torus directions (lambda = 1), and l = 2 is the slow mode round_floors
    # takes, lambda_2 = 1 - 12/((m+2)(m+3)) with q_2 ~ (j - m/2)^2 -
    # m(m+2)/12.  Measured <= 3.7e-14
    ds, x, _ = _round(FS, m)
    A = ds.jacobian(ds.evaluate(x))
    l = np.arange(m + 1.0)
    berezin = np.cumprod(np.concatenate(
        ([1.0], (m - l[:-1]) / (m + l[:-1] + 2.0))))
    lam = (1.0 + l * (l + 1.0) / m) * berezin
    Q = _chebyshev(m)
    assert np.max(np.linalg.norm(Q @ A.T - lam[:, None] * Q, axis=1)) <= 1e-12
    eig = np.sort(np.linalg.eigvals(A).real)
    assert np.max(np.abs(eig - np.sort(lam))) <= 1e-12


def _eig_round_floors(ds, residual, t):
    """round_floors with the slow eigenpair from a dense eig of the Jacobian,
    the third-largest eigenvalue, and max_t |v . p(t)| read on the seed's
    nodes t: the form the closed forms replace.  d_round and its rounding
    are read on the u-rule, as round_floors reads them."""
    m, j = ds.m, ds.j
    lf = model.log_factorials(m)
    x = lf + lf[::-1] - lf[-1]
    d_round = float(np.max(np.abs(ds.read(x, ds.t)[0])))
    ev = ds.evaluate(x)
    if m == 1:
        dphi = dx = 0.0
    else:
        lam, V = np.linalg.eig(ds.jacobian(ev))
        slow = np.argsort(-lam.real)[2]
        dphi = residual / ((m + 1) * (1.0 - lam[slow].real))
        v = V[:, slow].real
        p = ds.softmax(x, t)[0]
        dx = dphi * m * np.max(np.abs(v)) / np.max(np.abs(v @ p))
    p, d2, k2 = ev.p, ev.d2, ev.k2
    d, k3, k4 = ds._cumulants(ev)
    jj = j[:, None]
    dk3 = d2 * d - 3.0 * jj * k2
    dk4 = d2 * d2 - 4.0 * jj * k3 - 6.0 * k2 * d2
    N = k4 * k2 - k3 * k3
    g = -m * ((dk4 * k2 + k4 * d2 - 2.0 * k3 * dk3) / k2 ** 3
              - 3.0 * N * d2 / k2 ** 4)
    z = ds.jt - x[:, None]
    eps = 0.5 * np.finfo(float).eps * (
        np.abs(ds.jt) + np.abs(z) + (z.max(axis=0) - z) + m + 2.0)
    rounding = np.sum(np.abs(g) * p * eps, axis=0)
    slope = np.sum(p * np.abs(g - np.sum(p * g, axis=0)), axis=0)
    sigma_floor = solvers._sigma_err(m, k2, k3, k4) \
        + float(np.max(dx * slope + rounding))
    phi_rounding = np.finfo(float).eps * np.max(np.logaddexp(0.0, ds.t))
    return d_round + 2.0 * (dphi + phi_rounding), sigma_floor


@pytest.mark.parametrize("desc", [FS, BOX], ids=["fs", "box"])
@pytest.mark.parametrize("m", [1] + ROUND_LEVELS)
def test_round_floors_match_eig_form(desc, m):
    # at a residual of 1e-9 the d floor is nearly all the residual's
    # allowance, so it reads the error of max_t |v . p(t)| on the seed's
    # nodes; measured <= 6.2e-9 relative for both floors
    ds, _, t = _round(desc, m)
    new, ref = ds.round_floors(1e-9), _eig_round_floors(ds, 1e-9, t)
    assert np.allclose(new, ref, rtol=1e-7, atol=0.0)


@pytest.mark.parametrize("m", [1, 40])
def test_round_floors_one_evaluation(monkeypatch, m):
    # no Jacobian or eigen-decomposition: one exact reading of phi on the
    # u-rule, whose one softmax also gives its gauge, and one evaluation
    # there, which sigma reads
    ds = _DSpace(m)
    calls = _softmax_columns(monkeypatch)
    evaluations = _recorded_evaluations(monkeypatch)

    def refused(*args):
        raise AssertionError("round_floors needs no Jacobian or eig")

    monkeypatch.setattr(_DSpace, "jacobian", refused)
    monkeypatch.setattr(np.linalg, "eig", refused)
    ds.round_floors(1e-9)
    assert len(evaluations) == 1
    n = m + solvers.EXTRA_NODES
    assert calls == [n, n]


@pytest.mark.parametrize("m", [1, 8, 40, 200])
def test_node_phi_is_read_on_the_nodes(box, monkeypatch, m):
    # one softmax of n columns, and read's phi on the nodes bit for bit:
    # the softmax works column by column
    ds = _DSpace(m)
    x = newton_balance(m, box).x
    calls = _softmax_columns(monkeypatch)
    phi = ds.node_phi(x)
    assert calls == [ds.t.size]
    assert np.array_equal(phi, ds.read(x, ds.t)[0])


@pytest.mark.parametrize("desc", [BUMP, OFF, BOX], ids=["bump", "off", "box"])
@pytest.mark.parametrize("m", [8, 40, 120, 200])
def test_sigma_reads_the_solve_nodes(monkeypatch, desc, m):
    # sigma_core_err of an iterate one Newton step from the seed, read on
    # the u-rule's m + 64 nodes (|t| <= 8.2 to 10.8), against the sup of
    # the same cumulant formula over the seed's nodes |t| <= 10: within 2 %
    # relative (measured <= 1.03 %, bump at m = 40)
    finals = []
    result = solvers._result

    def recorded(ds, ev, *args, **kwargs):
        finals.append((ds, ev))
        return result(ds, ev, *args, **kwargs)

    monkeypatch.setattr(solvers, "_result", recorded)
    P = make_perturbed_potential(desc, window=default_window(m), grid_size=512)
    res = newton_balance(m, P, SolverOptions(max_iterations=1))
    [(ds, ev)] = finals
    assert not res.converged
    p = ds.softmax(ev.x, P.quad.nodes[np.abs(P.quad.nodes) <= 10.0])[0]
    mu = ds.j @ p
    d = np.subtract.outer(ds.j, mu)
    k2, k3, k4 = (np.einsum("jt,jt->t", p, d ** k) for k in (2, 3, 4))
    ref = solvers._sigma_err(m, k2, k3, k4 - 3.0 * k2 * k2)
    assert abs(res.diagnostics["sigma_core_err"] - ref) <= 0.02 * ref


def test_solves_use_one_node_set(off, monkeypatch):
    # every softmax of a solve is on the u-rule: sigma makes no pass on a
    # node set of its own, and nothing is emitted
    on_rule = []
    softmax = _DSpace.softmax

    def recorded(self, x, t=None):
        on_rule.append(t is None)
        return softmax(self, x, t)

    monkeypatch.setattr(_DSpace, "softmax", recorded)
    for solve in (newton_balance, t_balance, tk_iterate):
        solve(8, off)
    assert on_rule and all(on_rule)


@pytest.mark.parametrize("m", [8, 40])
def test_declined_solve_returns_last_iterate(off, monkeypatch, m):
    # the tolerance lies below the rounding floor, so the solve ends
    # unconverged at the floor, where the last step declined after its 7
    # trials (14 evaluations and 6 steps at m = 8, 28 and 10 at m = 40).
    # Its final residual and diagonal are those of the last iterate it took
    evaluations = _recorded_evaluations(monkeypatch)
    res = newton_balance(m, off, SolverOptions(tolerance=1e-16))
    assert not res.converged
    assert res.iterations < 500
    ds, ev = evaluations[-8]
    assert res.final_residual == ev.sup
    assert all(trial.sup >= ev.sup * (1.0 - 1e-4)
               for _, trial in evaluations[-7:])
    assert res.x is ev.x


@pytest.mark.parametrize("m", [1, 8, 40, 200])
def test_read_round_diagonal(m):
    # the exact reader on the round diagonal x_j = -log C(m, j), whose Phi_x
    # is log(1 + e^t), at every node of the default window, its edge
    # included: phi = 0 to 4 eps log(1 + e^T) and the density Phi_fs'' to
    # 1e-11 relative (measured <= 1.32 eps log(1 + e^T) and 9e-13).  The
    # spline once emitted from the knots missed this density by up to 128 %
    # at the edge at m = 200
    ds, x, t = _round(FS, m)
    phi, dens = ds.read(x, t)
    bound = 4.0 * np.finfo(float).eps * np.logaddexp(0.0, default_window(m))
    assert np.max(np.abs(phi)) <= bound
    assert np.max(np.abs(dens / model.fs_derivative(t, 2) - 1.0)) <= 1e-11


def test_potential_is_the_knot_spline(bump, newton8):
    # the spline of a solve, built on first use and once, is the quintic
    # through the ungauged knot values S/m - log(1 + e^t) of Phi_x, S =
    # a + log s, on the seed's quadrature: bit for bit, and within 1e-13 of
    # the exact phi at the nodes
    P = newton8.potential
    assert P is newton8.potential and P.quad is bump.quad
    knots = bump.quad.knots
    _, a, s = _DSpace(8).softmax(newton8.x, knots)
    ref = model._from_knot_values(
        (a + np.log(s)) / 8 - model.fs_derivative(knots, 0), bump.quad)
    for t in (bump.quad.nodes, GRID):
        assert np.array_equal(P.phi(t), ref.phi(t))
    assert np.array_equal(P.node_values("dens"), ref.node_values("dens"))
    phi = newton8.read(bump.quad.nodes)[0]
    assert np.max(np.abs(P.phi(bump.quad.nodes) - phi)) <= 1e-13


def _legendre_mode(P, l):
    """P_l(2 Phi' - 1) on the Fubini-Study potential P at its nodes, with
    its derivatives in t attached: v = 2 Phi' - 1 = tanh(t/2), and d/dt =
    ((1 - v^2)/2) d/dv maps polynomials in v to polynomials."""
    v = np.tanh(0.5 * P.quad.nodes)
    D = np.polynomial.Polynomial([0.5, 0.0, -0.5])
    f = [np.polynomial.Legendre.basis(l).convert(
        kind=np.polynomial.Polynomial)]
    for _ in range(4):
        f.append(D * f[-1].deriv())
    return model.grid_function(P, f[0](v), name="P%d" % l,
                               **{"d%d" % k: f[k](v) for k in range(1, 5)})


@pytest.mark.parametrize("l", [2, 3, 4])
def test_lichnerowicz_tie(fs, l):
    # the two engines meet at the round metric (the linear form of Fine's
    # theorem: on the time scale m^2 the balancing flow tends to the Calabi
    # flow).  On Fubini-Study P_l(2 Phi' - 1) is an eigenfunction of the
    # Lichnerowicz operator, L psi = -L(L - 2) psi with L = l(l + 1), on the
    # core |t| <= 5 (measured <= 4.7e-12 relative).  The round Jacobian's
    # eigenvalue lambda_l on the discrete Chebyshev vector q_l is the closed
    # form of test_jacobian_round_eigenpairs, and m^2 (1 - lambda_l) tends to
    # L(L - 2)/2 with an O(1/m) gap: it halves, to within 10 %, at each
    # doubling of m from 50 to 200 (measured 1.84 to 1.96)
    L = l * (l + 1.0)
    psi = _legendre_mode(fs, l)
    core = np.abs(fs.quad.nodes) <= 5.0
    gap = model.lichnerowicz_apply(fs, psi).values + L * (L - 2.0) * psi.values
    assert np.max(np.abs(gap[core])) <= 1e-10 * L * (L - 2.0)
    gaps = []
    for m in (50, 100, 200):
        ds, x, _ = _round(FS, m)
        q = _chebyshev(m)[l]
        lam = q @ ds.jacobian(ds.evaluate(x)) @ q
        closed = (1.0 + L / m) * np.prod((m - np.arange(l))
                                         / (m + np.arange(l) + 2.0))
        assert abs(lam - closed) <= 1e-12
        gaps.append(abs(m * m * (1.0 - lam) - 0.5 * L * (L - 2.0)))
    for a, b in zip(gaps, gaps[1:]):
        assert 1.8 <= a / b <= 2.0
