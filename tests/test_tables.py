"""The tables of samples in t: one row per knot of the input's quadrature.

Known answers on Fubini-Study, and on a bump from the benchmark's box each
knot column against the quintic spline through the same quantity on the
quadrature nodes.  The `outputs` sups are read from the knot columns.
"""
import numpy as np
import pytest
from scipy.interpolate import make_interp_spline

from bergbal.bergman import beta_at, beta_report, beta_weighted, expansion_fit
from bergbal.config import parse_config
from bergbal.model import SplinePotential, scalar_curvature
from bergbal.runner import _build_potential, run_experiment
from bergbal.solvers import newton_balance, tk_iterate

FS = {"type": "fubini-study"}
BOX = {"type": "gaussian-bump", "amplitude": 0.07, "width": 1.3, "center": 0.45}
LEVELS = [8, 40, 200]
EXPAND_LEVELS = [25, 50, 100, 200]


def _run(doc):
    """The potential, the report and the one table of samples in t."""
    cfg = parse_config(doc)
    report = run_experiment(cfg)
    assert report["error"] is None
    P = _build_potential(cfg.potential, cfg)
    [table] = [tb for tb in report["tables"]
               if tb["name"] in ("potential", "beta", "expansion")]
    cols = {k: np.asarray(v) for k, v in table["columns"].items()}
    assert np.array_equal(cols["t"], P.quad.knots)
    return P, report, cols


def _spline_gap(P, node_values, column):
    """sup over the knots of |column - the quintic through node_values at
    the nodes|."""
    spline = make_interp_spline(P.quad.nodes, node_values, k=5)
    return float(np.max(np.abs(column - spline(P.quad.knots))))


def test_fs_beta_vanishes_at_the_knots():
    # the round metric is balanced: beta is quadrature rounding at every
    # knot, as the benchmark's check asks of sup_abs_beta, the sup of the
    # same column
    _, report, cols = _run({"command": "beta", "potential": FS,
                            "levels": LEVELS})
    for m in LEVELS:
        sup = np.max(np.abs(cols["beta_m%d" % m]))
        assert sup <= 1e-8 * m
        assert report["outputs"]["sup_abs_beta"][str(m)] == sup


def test_fs_half_sigma_is_one_at_the_knots():
    _, _, cols = _run({"command": "expand", "potential": FS,
                       "levels": [5, 10, 20]})
    assert np.all(cols["half_sigma"] == 1.0)


def test_fs_newton_phi_vanishes_at_the_knots():
    # measured <= 3.6e-15
    _, _, cols = _run({"command": "newton", "potential": FS,
                       "levels": LEVELS})
    for m in LEVELS:
        assert np.max(np.abs(cols["phi_m%d" % m])) <= 1e-10


def test_box_beta_knots_match_the_node_spline():
    # measured 2.2e-9, 8.7e-9 and 4.3e-8 at m = 8, 40 and 200
    P, _, cols = _run({"command": "beta", "potential": BOX, "levels": LEVELS})
    for m in LEVELS:
        assert np.array_equal(cols["beta_m%d" % m],
                              beta_weighted(m, P, 0.0).values)
        nodes = beta_at(beta_report(m, P, 0.0), P.quad.nodes).values
        assert _spline_gap(P, nodes, cols["beta_m%d" % m]) <= 1e-7


def test_box_expansion_knots_match_the_node_spline():
    # a1 and a2: measured 5.7e-11 and 1.4e-9.  half_sigma differs from the
    # node spline by up to 0.020 near t = 6.4: the spline of phi carries its
    # own sigma error there, and the two point sets sample it differently
    # (ROADMAP item 10 measures 0.073 against the exact sigma at grid 512),
    # so that bound only catches a wrong formula
    P, _, cols = _run({"command": "expand", "potential": BOX,
                       "levels": EXPAND_LEVELS})
    fit = expansion_fit(P, EXPAND_LEVELS, P.quad.nodes)
    assert _spline_gap(P, fit.a1.values, cols["a1"]) <= 1e-9
    assert _spline_gap(P, fit.a2.values, cols["a2"]) <= 1e-7
    assert _spline_gap(P, 0.5 * scalar_curvature(P).values,
                       cols["half_sigma"]) <= 0.1
    assert np.array_equal(cols["half_sigma"],
                          0.5 * scalar_curvature(P, P.quad.knots).values)


@pytest.mark.parametrize("command, solve, levels", [
    ("newton", newton_balance, [8, 40]), ("balance", tk_iterate, [5, 8])])
def test_box_solve_knots_match_the_nodes(command, solve, levels):
    # phi and the density are exact at any point: at the knots they agree
    # with the spline through their node values to rounding (measured
    # <= 5.6e-15 and 5.2e-16), and the knot column of phi fixes the
    # potential: its spline is the solve's output spline at the nodes
    # (measured <= 2.4e-17)
    doc = {"command": command, "potential": BOX, "levels": levels}
    P, _, cols = _run(doc)
    for m in levels:
        res = solve(m, P, parse_config(doc).solver)
        phi, dens = res.read(P.quad.nodes)
        assert _spline_gap(P, phi, cols["phi_m%d" % m]) <= 1e-13
        assert _spline_gap(P, dens, cols["density_m%d" % m]) <= 1e-13
        rebuilt = SplinePotential(P.quad, cols["phi_m%d" % m])
        gap = rebuilt.phi(P.quad.nodes) - res.potential.phi(P.quad.nodes)
        assert np.max(np.abs(gap)) <= 1e-13
