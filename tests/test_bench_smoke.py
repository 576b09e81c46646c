"""The benchmark's own correctness checks on its tiny configs.

Every workload's `tiny` configs (seed 1, first pass) run through the CLI,
and `bench/workloads.check` must find nothing wrong with any of them: a
change that the benchmark would count as a failed command fails here first.
"""
import importlib.util
import json
import os

import pytest
import yaml

from bergbal.cli import main

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                     "workloads.py")
_SPEC = importlib.util.spec_from_file_location("bench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

CONFIGS = [(workload, name, cfg) for workload in workloads.WORKLOADS
           for name, cfg in workloads.configs(workload, 1, "tiny")]


@pytest.mark.parametrize("workload, name, cfg", CONFIGS,
                         ids=["%s-%s" % c[:2] for c in CONFIGS])
def test_tiny_config_passes_bench_check(tmp_path, capsys, workload, name,
                                        cfg):
    path = tmp_path / (name + ".yaml")
    path.write_text(yaml.safe_dump(cfg))
    out_dir = tmp_path / name
    code = main([cfg["command"], "--config", str(path), "--out",
                 str(out_dir)])
    report_path = out_dir / "report.json"
    report = None
    if report_path.exists():
        report = json.loads(report_path.read_text())
    assert workloads.check(cfg, code, report) == [], capsys.readouterr().err


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(
        "bench_" + name, os.path.join(os.path.dirname(_PATH), name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_names_resolve_to_public_functions():
    # the benchmark's layer metrics name the functions they trace: each one
    # must be a public module-level function of bergbal, or it reads 0
    import importlib
    import inspect
    tracing = _bench_module("tracing")
    names = [n for fns in tracing.SELF_TIME.values() for n in fns]
    names += [fn for fn, _ in tracing.PER_LEVEL.values()]
    names += list(tracing.CALLS.values())
    for name in names:
        module, func = name.split(".")
        obj = getattr(importlib.import_module("bergbal." + module), func, None)
        assert inspect.isfunction(obj) and not func.startswith("_"), name


def test_direct_calls_run():
    # the benchmark's direct calls (section_norms, bergman_kernel,
    # expansion_fit with no points, newton_balance) keep their signatures
    direct = _bench_module("direct_calls").measure(1)
    assert direct and all(v > 0.0 for v in direct.values())
