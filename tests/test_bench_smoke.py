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


def _kernels_pass(base, index):
    """Pass `index` of the tiny kernels configs through the CLI, as a pass
    of bench/run.py runs them: each config's YAML and output directory under
    base, written over the last pass's, its report.json removed first."""
    codes = []
    for name, cfg in workloads.configs("kernels", 1, "tiny", index):
        path = base / (name + ".yaml")
        path.write_text(yaml.safe_dump(cfg))
        out_dir = base / name
        if (out_dir / "report.json").exists():
            (out_dir / "report.json").unlink()
        code = main([cfg["command"], "--config", str(path), "--out",
                     str(out_dir)])
        report = json.loads((out_dir / "report.json").read_text())
        assert workloads.check(cfg, code, report) == [], name
        codes.append(code)
    return codes


def test_kernels_passes_written_over_each_other(tmp_path):
    # a second pass written over the first leaves the files a fresh
    # directory gets, byte for byte apart from report.json's timing
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    shared.mkdir()
    fresh.mkdir()
    _kernels_pass(shared, 1)
    assert _kernels_pass(shared, 2) == _kernels_pass(fresh, 2)
    for name, _ in workloads.configs("kernels", 1, "tiny", 2):
        files = sorted(os.listdir(fresh / name))
        assert sorted(os.listdir(shared / name)) == files
        for f in files:
            a, b = (d / name / f for d in (shared, fresh))
            if f == "report.json":
                a, b = (json.loads(p.read_text()) for p in (a, b))
                a.pop("timing"), b.pop("timing")
                assert a == b, name
            else:
                assert a.read_bytes() == b.read_bytes(), (name, f)
