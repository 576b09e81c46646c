"""Experiment dispatch: one entry point per CLI command.

Every run produces the same report structure: config echo, versions,
conventions, command outputs, plot-ready tables, pass/fail verdicts, and
timing.  Reports are deterministic up to the timing block.
"""
import time

import numpy as np

from .model import (default_window, make_fs_potential, make_perturbed_potential,
                    scalar_curvature)
from .bergman import beta_weighted, expansion_fit, TorusWeight
from .solvers import tk_iterate, newton_balance, t_balance, balanced_family, \
    uniqueness_probe
from .circle import CircleSample, make_partition, integer_consistency_report, \
    _mean_value_gap
from .report import build_report
from .config import QUADRATURE


def _build_potential(desc, cfg):
    q = dict(QUADRATURE, **cfg.quadrature)
    window = float(default_window(max(cfg.levels)) if q["window"] is None
                   else q["window"])
    grid, order = int(q["grid"]), int(q["order"])
    if desc.get("type") == "fubini-study":
        return make_fs_potential(window, grid, order)
    return make_perturbed_potential(desc, window, grid, order)


def _record_quadrature(report, P):
    report["outputs"]["quadrature"] = {
        "window": P.window, "grid_size": P.grid_size,
        "order": P.quad.order, "n_nodes": P.quad.n_nodes}
    return P


def _history_table(name, history):
    return {"name": name,
            "columns": {"iteration": list(range(len(history))),
                        "residual": [float(r) for r in history]}}


def _potential_table(name, P):
    t = P.quad.nodes
    return {"name": name,
            "columns": {"t": t.tolist(),
                        "phi": P.phi(t).tolist(),
                        "density": P.density(t).tolist()}}


def _solve_command(cfg, report):
    P = _record_quadrature(report, _build_potential(cfg.potential, cfg))
    per_level = {}
    for m in cfg.levels:
        if cfg.command == "balance":
            res = tk_iterate(m, P, cfg.solver)
        elif cfg.command == "newton":
            res = newton_balance(m, P, cfg.solver)
        else:
            res = t_balance(m, P, cfg.solver, freeze_weight=cfg.freeze_weight)
        entry = {"converged": res.converged,
                 "iterations": res.iterations,
                 "final_residual": res.final_residual,
                 "mode": res.mode}
        if res.torus_weight is not None:
            entry["torus_weight"] = res.torus_weight
        per_level[str(m)] = entry
        report["timing"]["m%d" % m] = res.wall_time
        report["verdicts"]["m%d_converged" % m] = res.converged
        report["tables"].append(
            _history_table("history_m%d" % m, res.residual_history))
        report["tables"].append(
            _potential_table("potential_m%d" % m, res.potential))
    report["outputs"]["levels"] = per_level


def _family_command(cfg, report):
    P = _record_quadrature(report, _build_potential(cfg.potential, cfg))
    fr = balanced_family(cfg.levels, P, cfg.solver)
    report["outputs"]["levels_solved"] = fr.levels
    report["outputs"]["d_sup"] = fr.d_sup
    report["outputs"]["sigma_sup"] = fr.sigma_sup
    report["outputs"]["d_floor"] = fr.d_floor
    report["outputs"]["sigma_floor"] = fr.sigma_floor
    report["outputs"]["failure_index"] = fr.failure_index
    # Newton steps per level: after the first, the warm start may need none
    steps = [r.iterations for r in fr.results]
    report["outputs"]["iterations"] = steps
    report["verdicts"].update({("family_" + k): v for k, v in fr.verdicts.items()})
    n = len(fr.d_sup)
    report["tables"].append({
        "name": "family",
        "columns": {"m": fr.levels[:n],
                    "iterations": steps[:n],
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
    sig = scalar_curvature(P)
    report["outputs"]["a1"] = {"sup_error": fit.sup_a1_error}
    report["outputs"]["first_order_error"] = fit.first_order_error
    report["outputs"]["residual_sup"] = fit.residual_sup
    t = P.quad.nodes
    report["tables"].append({
        "name": "expansion",
        "columns": {"t": t.tolist(),
                    "a1": fit.a1.values.tolist(),
                    "a2": fit.a2.values.tolist(),
                    "half_sigma": (0.5 * sig.values).tolist()}})
    finite = all(np.all(np.isfinite(np.asarray(v))) for v in
                 (fit.a1.values, fit.a2.values, fit.residual_sup,
                  fit.first_order_error))
    report["verdicts"]["outputs_finite"] = bool(finite)


def _beta_command(cfg, report):
    P = _record_quadrature(report, _build_potential(cfg.potential, cfg))
    sup = {}
    for m in cfg.levels:
        b = beta_weighted(m, P, TorusWeight(cfg.weight or 0.0))
        sup[str(m)] = float(np.max(np.abs(b.values)))
        report["tables"].append({
            "name": "beta_m%d" % m,
            "columns": {"t": b.nodes.tolist(), "beta": b.values.tolist()}})
    report["outputs"]["sup_abs_beta"] = sup
    report["verdicts"]["outputs_finite"] = bool(
        all(np.isfinite(v) for v in sup.values()))


def _fourier_command(cfg, report):
    S = CircleSample(cfg.sample.get("cos", [0.0]), cfg.sample.get("sin", []))
    parts = [make_partition(p) for p in cfg.profiles]
    rep = integer_consistency_report(S, parts, range(-cfg.m_max, cfg.m_max + 1))
    gap = _mean_value_gap(S, parts[0], 0.3 + 0.2j)
    report["outputs"]["max_integer_discrepancy"] = rep.max_discrepancy
    report["outputs"]["shift_discrepancy"] = rep.shift_discrepancy
    report["outputs"]["spread_at_half"] = rep.spread_at_half
    report["outputs"]["mean_value_gap"] = gap
    report["outputs"]["values_at_half"] = [
        {"re": v.real, "im": v.imag} for v in rep.values_at_half]
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
    m = max(cfg.levels)
    seeds = [_build_potential(d, cfg) for d in cfg.seeds]
    _record_quadrature(report, seeds[0])
    rep = uniqueness_probe(m, seeds, cfg.solver)
    report["outputs"]["max_distance"] = rep.max_distance
    report["outputs"]["distances"] = rep.distances
    report["outputs"]["excluded_seeds"] = rep.excluded
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
