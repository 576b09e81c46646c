"""Experiment dispatch: one entry point per CLI command.

Every run produces the same report structure: config echo, versions,
conventions, command outputs, plot-ready tables (written as CSVs, which
report.json indexes), pass/fail verdicts, and timing.  A run's samples of
a function of t share one table, `potential`, `beta` or `expansion`, with
one row per knot of the input's quadrature and the knot t as its first
column: a solve's phi and density read its Phi_x exactly there
(solvers.BalanceResult.read), and beta and the expansion read the kernels
of their Gram diagonals there (bergman.kernel_at).  Each output is read
once: a sup in `outputs` is the sup of the column the table holds, and
`gram_nodes` gives the size of each level's Gram rule.  Reports are
deterministic up to the timing block, at a fixed BLAS thread count.
"""
import time

import numpy as np

from .model import QUADRATURE, default_window, make_perturbed_potential
from .bergman import beta_at, beta_report, expansion_fit
from .solvers import tk_iterate, newton_balance, t_balance, balanced_family, \
    uniqueness_probe
from .circle import CircleSample, make_partition, integer_consistency_report, \
    _mean_value_gap
from .report import build_report


def _build_potential(desc, cfg):
    q = dict(QUADRATURE, **cfg.quadrature)
    window = float(default_window(max(cfg.levels)) if q["window"] is None
                   else q["window"])
    return make_perturbed_potential(desc, window, int(q["grid"]),
                                    int(q["order"]))


def _record_quadrature(report, P):
    report["outputs"]["quadrature"] = {
        "window": P.window, "grid_size": P.quad.grid_size,
        "order": P.quad.order, "n_nodes": P.quad.n_nodes}
    return P


def _history_table(name, history):
    return {"name": name,
            "columns": {"iteration": list(range(len(history))),
                        "residual": [float(r) for r in history]}}


def _add_knot_columns(report, name, P, columns):
    """Add the arrays of columns, sampled at the knots of P's quadrature, to
    the table name; the first call creates it with the knots as its column
    t."""
    table = next((tb for tb in report["tables"] if tb["name"] == name), None)
    if table is None:
        table = {"name": name, "columns": {"t": P.quad.knots.tolist()}}
        report["tables"].append(table)
    table["columns"].update((k, v.tolist()) for k, v in columns.items())


def _solve_command(cfg, report):
    P = _record_quadrature(report, _build_potential(cfg.potential, cfg))
    # built per call from the module's names, which a tracer may wrap
    solve = {"balance": tk_iterate, "newton": newton_balance,
             "tbalance": t_balance}[cfg.command]
    per_level = {}
    for m in cfg.levels:
        res = solve(m, P, cfg.solver)
        entry = {"converged": res.converged,
                 "iterations": res.iterations,
                 "final_residual": res.final_residual,
                 "mode": res.mode,
                 "diagnostics": res.diagnostics}
        if res.torus_weight is not None:
            entry["torus_weight"] = res.torus_weight
        per_level[str(m)] = entry
        report["timing"]["m%d" % m] = res.wall_time
        report["verdicts"]["m%d_converged" % m] = res.converged
        report["tables"].append(
            _history_table("history_m%d" % m, res.residual_history))
        phi, dens = res.read(P.quad.knots)
        _add_knot_columns(report, "potential", P,
                          {"phi_m%d" % m: phi, "density_m%d" % m: dens})
    report["outputs"]["levels"] = per_level


def _family_command(cfg, report):
    P = _record_quadrature(report, _build_potential(cfg.potential, cfg))
    fr = balanced_family(cfg.levels, P, cfg.solver)
    report["outputs"]["failure_index"] = fr.failure_index
    report["verdicts"].update({("family_" + k): v for k, v in fr.verdicts.items()})
    # the curves, their floors and the Newton steps of each solved level:
    # after the first, the warm start may need none
    n = len(fr.d_sup)
    report["tables"].append({
        "name": "family",
        "columns": {"m": fr.levels[:n],
                    "iterations": [r.iterations for r in fr.results[:n]],
                    "residual": [r.final_residual for r in fr.results[:n]],
                    "d_m": fr.d_sup.tolist(),
                    "d_floor": fr.d_floor.tolist(),
                    "sigma_err": fr.sigma_sup.tolist(),
                    "sigma_floor": fr.sigma_floor.tolist()}})
    for m, res in zip(fr.levels, fr.results):
        report["timing"]["m%d" % m] = res.wall_time
        report["tables"].append(
            _history_table("history_m%d" % m, res.residual_history))


def _expand_command(cfg, report):
    P = _record_quadrature(report, _build_potential(cfg.potential, cfg))
    fit = expansion_fit(P, cfg.levels)
    report["outputs"].update(
        a1={"sup_error": fit.sup_a1_error}, residual_sup=fit.residual_sup,
        first_order_error=fit.first_order_error,
        gram_nodes=dict(zip(map(str, cfg.levels), fit.metadata["gram_nodes"])))
    _add_knot_columns(report, "expansion", P, {
        "a1": fit.a1.values, "a2": fit.a2.values,
        "half_sigma": 0.5 * fit.sigma.values})
    finite = all(np.all(np.isfinite(np.asarray(v))) for v in
                 (fit.a1.values, fit.a2.values, fit.residual_sup,
                  fit.first_order_error))
    report["verdicts"]["outputs_finite"] = bool(finite)


def _beta_command(cfg, report):
    P = _record_quadrature(report, _build_potential(cfg.potential, cfg))
    sup, nodes = {}, {}
    for m in cfg.levels:
        kernel = beta_report(m, P, cfg.weight or 0.0)
        b = beta_at(kernel).values
        sup[str(m)] = float(np.max(np.abs(b)))
        nodes[str(m)] = kernel.gram_nodes
        _add_knot_columns(report, "beta", P, {"beta_m%d" % m: b})
    report["outputs"].update(sup_abs_beta=sup, gram_nodes=nodes)
    report["verdicts"]["outputs_finite"] = bool(
        all(np.isfinite(v) for v in sup.values()))


def _fourier_command(cfg, report):
    S = CircleSample(cfg.sample.get("cos", [0.0]), cfg.sample.get("sin", []))
    parts = [make_partition(p) for p in cfg.profiles]
    rep = integer_consistency_report(S, parts, range(-cfg.m_max, cfg.m_max + 1))
    gap = _mean_value_gap(S, parts[0])
    report["outputs"]["max_integer_discrepancy"] = rep.max_discrepancy
    report["outputs"]["shift_discrepancy"] = rep.shift_discrepancy
    report["outputs"]["spread_at_half"] = rep.spread_at_half
    report["outputs"]["mean_value_gap"] = gap
    report["outputs"]["values_at_half"] = rep.values_at_half
    cols = {"m": rep.m_values}
    for i in range(len(parts)):
        cols["discrepancy_p%d" % (i + 1)] = rep.discrepancies[i].tolist()
    report["tables"].append({"name": "fourier", "columns": cols})
    report["verdicts"]["integers_agree"] = rep.integers_agree
    report["verdicts"]["shift_invisible"] = rep.shift_invisible
    report["verdicts"]["partitions_differ_off_integers"] = \
        bool(rep.spread_at_half > 1e-3)
    report["verdicts"]["mean_value_entire"] = bool(gap <= 1e-8)


def _probe_command(cfg, report):
    [m] = cfg.levels
    seeds = [_build_potential(d, cfg) for d in cfg.seeds]
    _record_quadrature(report, seeds[0])
    rep = uniqueness_probe(m, seeds, cfg.solver)
    report["outputs"]["max_distance"] = rep.max_distance
    report["outputs"]["distances"] = rep.distances
    report["outputs"]["excluded_seeds"] = rep.excluded
    report["outputs"]["seeds"] = [
        {"iterations": res.iterations, "final_residual": res.final_residual}
        for res in rep.results]
    for i, res in enumerate(rep.results):
        report["verdicts"]["seed%d_converged" % i] = res.converged
        report["timing"]["seed%d" % i] = res.wall_time
    report["verdicts"]["unique_within_tolerance"] = rep.passed


_DISPATCH = {
    "balance": _solve_command,
    "newton": _solve_command,
    "tbalance": _solve_command,
    "family": _family_command,
    "expand": _expand_command,
    "beta": _beta_command,
    "fourier": _fourier_command,
    "probe": _probe_command,
}


def run_experiment(cfg):
    """Execute one validated config; downstream errors are captured in the
    report rather than raised."""
    report = build_report(cfg.echo())
    report["warnings"].extend(cfg.warnings)
    t0 = time.perf_counter()
    try:
        _DISPATCH[cfg.command](cfg, report)
    except Exception as e:
        report["error"] = {"type": type(e).__name__, "message": str(e)}
    report["timing"]["seconds"] = time.perf_counter() - t0
    return report
