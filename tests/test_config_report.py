import dataclasses
import json
import math
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from bergbal import config
from bergbal.config import (COMMAND_KEYS, COMMANDS, MAX_ARRAY_BYTES,
                            MAX_ORDER, ConfigError, ExperimentConfig,
                            parse_config)
from bergbal.circle import MAX_FREQUENCY
from bergbal.bergman import section_norms
from bergbal.cli import main
from bergbal.model import min_window
from bergbal.runner import _DISPATCH, _build_potential, run_experiment
from bergbal.solvers import SolverOptions
from bergbal.report import (
    ReportWriteError, _plain, build_report, load_report, load_schema,
    validate_report, write_report,
)

FS = {"type": "fubini-study"}
BUMP = {"type": "gaussian-bump", "amplitude": 0.1, "width": 1.0, "center": 0.0}

MINIMAL = {
    "balance": {"command": "balance", "potential": FS, "levels": [4]},
    "tbalance": {"command": "tbalance", "potential": BUMP, "levels": [8]},
    "newton": {"command": "newton", "potential": BUMP, "levels": [8]},
    "family": {"command": "family", "potential": BUMP, "levels": [5, 10]},
    "expand": {"command": "expand", "potential": BUMP, "levels": [10, 20, 40]},
    "beta": {"command": "beta", "potential": BUMP, "levels": [10, 20]},
    "fourier": {"command": "fourier",
                "sample": {"cos": [1.0, 1.0], "sin": [0.0, 0.3]},
                "profiles": [0.15, 0.3], "m_max": 10},
    "probe": {"command": "probe", "seeds": [BUMP, FS], "levels": [8]},
}


def test_minimal_configs_parse():
    for command in COMMANDS:
        cfg = parse_config(MINIMAL[command])
        assert cfg.command == command
        assert cfg.warnings == []


ECHO_TEXT = """
command: newton
potential: {type: fubini-study}
levels: [6]
solver: {tolerance: 1.0e-10, max_iterations: 40}
"""
# YAML reads 1e-10 (no decimal point) as a string
TYPED_TEXT = """command: newton
potential: {type: fubini-study}
levels: [4]
solver: {tolerance: 1e-10}
"""
LIST_TEXT = "- just\n- a list\n"
MALFORMED_TEXT = "command: [unclosed"


def test_yaml_text_and_echo():
    cfg = parse_config(ECHO_TEXT)
    assert cfg.solver.tolerance == 1e-10
    assert cfg.solver.max_iterations == 40
    echo = cfg.echo()
    assert "mode" not in echo
    assert echo["solver"] == {"tolerance": 1e-10, "max_iterations": 40}
    assert "m_max" not in echo        # fourier-only field


DEFAULT_SOLVER = {"tolerance": 1e-08, "max_iterations": 500}

# every optional field set; weight, seeds, sample, profiles and m_max belong
# to other commands and are left out of a tbalance echo, as output always is
FULL = {"command": "tbalance", "potential": BUMP, "levels": [8, 12],
        "solver": {"tolerance": 1e-9, "max_iterations": 40},
        "quadrature": {"window": 24, "grid": 768, "order": 6},
        "output": {"directory": "runs/full", "tables": False},
        "weight": 2, "seeds": [FS, BUMP],
        "sample": {"cos": [1.0]}, "profiles": [0.1, 0.2], "m_max": 5}

GOLDEN_ECHO = {
    "balance": {"command": "balance", "potential": FS, "levels": [4],
                "solver": DEFAULT_SOLVER},
    "tbalance": {"command": "tbalance", "potential": BUMP, "levels": [8],
                 "solver": DEFAULT_SOLVER},
    "newton": {"command": "newton", "potential": BUMP, "levels": [8],
               "solver": DEFAULT_SOLVER},
    "family": {"command": "family", "potential": BUMP, "levels": [5, 10],
               "solver": DEFAULT_SOLVER},
    "expand": {"command": "expand", "potential": BUMP, "levels": [10, 20, 40]},
    "beta": {"command": "beta", "potential": BUMP, "levels": [10, 20]},
    "fourier": {"command": "fourier",
                "sample": {"cos": [1.0, 1.0], "sin": [0.0, 0.3]},
                "profiles": [0.15, 0.3], "m_max": 10},
    "probe": {"command": "probe", "levels": [8], "solver": DEFAULT_SOLVER,
              "seeds": [BUMP, FS]},
    "full": {"command": "tbalance", "potential": BUMP, "levels": [8, 12],
             "solver": {"tolerance": 1e-09, "max_iterations": 40},
             "quadrature": {"window": 24, "grid": 768, "order": 6}},
}


def test_golden_echo():
    # json text pins key order and int/float types, i.e. the report bytes
    docs = dict(MINIMAL, full=FULL)
    for name, expected in GOLDEN_ECHO.items():
        assert json.dumps(parse_config(docs[name]).echo()) == \
            json.dumps(expected), name
    no_m_max = {k: v for k, v in MINIMAL["fourier"].items() if k != "m_max"}
    assert parse_config(no_m_max).echo()["m_max"] == 20


def test_malformed_yaml():
    with pytest.raises(ConfigError, match="not well-formed"):
        parse_config(MALFORMED_TEXT)


def test_top_level_must_be_mapping():
    with pytest.raises(ConfigError, match="top level"):
        parse_config(LIST_TEXT)


def _typed(obj):
    """obj with every scalar paired with its type, so that == tells 1 from
    1.0 and True from 1."""
    if isinstance(obj, dict):
        return {_typed(k): _typed(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_typed(v) for v in obj]
    return type(obj), obj


def test_libyaml_loader_reads_as_the_python_one():
    # parse_config loads with libyaml's safe loader where PyYAML has it:
    # every text here and the dump of every MINIMAL and FULL config load to
    # the same objects under both loaders, and both refuse the malformed one
    fast = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    texts = [ECHO_TEXT, TYPED_TEXT, LIST_TEXT] + [
        yaml.safe_dump(doc) for doc in [*MINIMAL.values(), FULL]]
    for text in texts:
        assert _typed(yaml.load(text, Loader=fast)) == \
            _typed(yaml.load(text, Loader=yaml.SafeLoader)), text
    for loader in (fast, yaml.SafeLoader):
        with pytest.raises(yaml.YAMLError):
            yaml.load(MALFORMED_TEXT, Loader=loader)


def test_unknown_command():
    with pytest.raises(ConfigError, match="command: expected one of"):
        parse_config({"command": "solve"})


def test_unknown_key_warning_vs_strict():
    doc = dict(MINIMAL["balance"], typo=True)
    cfg = parse_config(doc)
    assert any("unknown key" in w for w in cfg.warnings)
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(doc, strict=True)
    # YAML keys need not be strings; unknown ones sort by their text
    cfg = parse_config({**MINIMAL["balance"], "foo": 1, 1: "a"})
    assert cfg.warnings == ["unknown key 1", "unknown key 'foo'"]


def test_errors_are_collected_with_paths():
    doc = {
        "command": "tbalance",
        "potential": {"type": "gaussian-bump", "width": -1.0},
        "levels": [4, "eight", 500],
        "solver": {"tolerance": -1.0},
    }
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    text = "\n".join(exc.value.errors)
    assert "potential.amplitude" in text
    assert "potential.width: must be positive" in text
    assert "levels[1]" in text
    assert "levels[2]" in text
    assert "solver: tolerance must be positive" in text
    assert len(exc.value.errors) >= 5


def test_solver_fields_are_typed():
    # YAML reads 1e-10 (no decimal point) as a string
    doc = dict(MINIMAL["newton"], solver={"tolerance": "1e-10",
                                          "max_iterations": "7"})
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert exc.value.errors == ["solver.tolerance: expected a number",
                                "solver.max_iterations: expected an integer"]
    with pytest.raises(ConfigError, match="solver.tolerance: expected a number"):
        parse_config(TYPED_TEXT)
    # no silent truncation to 2, no boolean read as 1.0
    for key, value, expected in (("max_iterations", 2.5, "an integer"),
                                 ("max_iterations", True, "an integer"),
                                 ("tolerance", False, "a number")):
        with pytest.raises(ConfigError) as exc:
            parse_config(dict(MINIMAL["newton"], solver={key: value}))
        assert exc.value.errors == ["solver.%s: expected %s" % (key, expected)]
    with pytest.raises(ConfigError, match="weight: expected a number"):
        parse_config(dict(MINIMAL["beta"], weight=True))
    with pytest.raises(ConfigError, match="quadrature.grid: expected an integer"):
        parse_config(dict(MINIMAL["balance"], quadrature={"grid": True}))
    # integers are numbers, stored as the declared float
    cfg = parse_config(dict(MINIMAL["newton"], solver={"tolerance": 1}))
    assert type(cfg.solver.tolerance) is float
    assert json.dumps(cfg.echo()["solver"]["tolerance"]) == "1.0"


TABULATED = {"type": "tabulated", "t": [-1.0, 0.0, 1.0], "phi": [0.0, 0.1, 0.0]}


@pytest.mark.parametrize("command, fields, error", [
    ("fourier", {"m_max": True}, "m_max: expected an integer"),
    ("fourier", {"profiles": [True, 0.2]}, "profiles[0]: expected a number"),
    ("fourier", {"sample": {"cos": [1.0, False]}},
     "sample.cos[1]: expected a number"),
    ("fourier", {"sample": {"cos": [1.0], "sin": ["a"]}},
     "sample.sin[0]: expected a number"),
    ("newton", {"potential": dict(BUMP, amplitude=True)},
     "potential.amplitude: expected a number"),
    ("newton", {"potential": dict(BUMP, width=True)},
     "potential.width: expected a number"),
    ("newton", {"potential": dict(BUMP, center=True)},
     "potential.center: expected a number"),
    ("newton", {"potential": dict(TABULATED, t=[-1.0, True, 1.0])},
     "potential.t[1]: expected a number"),
    ("newton", {"potential": dict(TABULATED, phi=["0", 0.1, 0.0])},
     "potential.phi[0]: expected a number"),
    ("newton", {"quadrature": {"window": float("inf")}},
     "quadrature.window: expected a finite number"),
    ("newton", {"quadrature": {"window": float("nan")}},
     "quadrature.window: expected a finite number"),
    ("newton", {"quadrature": {"grid": 100.7}},
     "quadrature.grid: expected an integer"),
    ("newton", {"quadrature": {"order": 2.5}},
     "quadrature.order: expected an integer"),
])
def test_number_fields_are_checked(command, fields, error):
    # no boolean or string is read as a number, no float truncated to an
    # integer, and no infinity or NaN reaches the build
    with pytest.raises(ConfigError) as exc:
        parse_config(dict(MINIMAL[command], **fields))
    assert exc.value.errors == [error]


def test_new_solver_field_needs_no_config_edit(monkeypatch):
    @dataclasses.dataclass(frozen=True)
    class Accelerated(SolverOptions):
        acceleration: str = "none"

    monkeypatch.setattr(config, "SolverOptions", Accelerated)
    cfg = parse_config(dict(MINIMAL["balance"],
                            solver={"acceleration": "anderson",
                                    "max_iterations": 40}))
    assert cfg.solver == Accelerated(acceleration="anderson",
                                     max_iterations=40)
    assert cfg.echo()["solver"] == {"tolerance": 1e-8, "max_iterations": 40,
                                    "acceleration": "anderson"}
    with pytest.raises(ConfigError, match="solver.accel: unknown option"):
        parse_config(dict(MINIMAL["balance"], solver={"accel": "anderson"}))


def test_mode_is_unknown_key():
    # mode is not a config key: exact Newton is the only Newton mode
    doc = dict(MINIMAL["newton"], mode="exact")
    cfg = parse_config(doc)
    assert cfg.warnings == ["unknown key 'mode'"]
    with pytest.raises(ConfigError, match="unknown key 'mode'"):
        parse_config(doc, strict=True)


@pytest.mark.parametrize("key, value", [("damping", 0.5),
                                        ("recentering", "none")])
def test_removed_solver_knob_is_unknown_option(key, value):
    # Newton measures its step and every solve moment-centers, so neither
    # is a solver option; unknown solver options are errors, strict or not
    doc = dict(MINIMAL["newton"], solver={key: value})
    for strict in (False, True):
        with pytest.raises(ConfigError) as exc:
            parse_config(doc, strict=strict)
        assert exc.value.errors == ["solver.%s: unknown option" % key]


def test_potential_validation():
    with pytest.raises(ConfigError, match="unexpected keys for fubini-study"):
        parse_config({"command": "balance", "levels": [4],
                      "potential": {"type": "fubini-study", "width": 1}})
    with pytest.raises(ConfigError,
                       match="unexpected keys for fubini-study: 1, width"):
        parse_config({"command": "balance", "levels": [4],
                      "potential": {"type": "fubini-study", "width": 1, 1: 2}})
    with pytest.raises(ConfigError, match="unknown potential type"):
        parse_config({"command": "balance", "levels": [4],
                      "potential": {"type": "round"}})
    with pytest.raises(ConfigError, match="potential.type: required"):
        parse_config({"command": "balance", "levels": [4], "potential": {}})
    with pytest.raises(ConfigError, match="tabulated"):
        parse_config({"command": "balance", "levels": [4],
                      "potential": {"type": "tabulated", "t": [0.0, 1.0]}})


def test_level_requirements():
    with pytest.raises(ConfigError, match="at least 3 levels"):
        parse_config({"command": "expand", "potential": FS, "levels": [5, 10]})
    with pytest.raises(ConfigError, match="strictly increasing"):
        parse_config({"command": "family", "potential": FS, "levels": [10, 5]})
    with pytest.raises(ConfigError, match="levels: required"):
        parse_config({"command": "balance", "potential": FS})


def test_fourier_validation():
    with pytest.raises(ConfigError, match="sample: required"):
        parse_config({"command": "fourier", "profiles": [0.1, 0.2]})
    with pytest.raises(ConfigError, match="profiles: expected a list"):
        parse_config({"command": "fourier", "profiles": [0.1],
                      "sample": {"cos": [1.0]}})
    with pytest.raises(ConfigError, match="m_max"):
        parse_config({"command": "fourier", "profiles": [0.1, 0.2],
                      "sample": {"cos": [1.0]}, "m_max": -3})


def test_probe_validation():
    with pytest.raises(ConfigError, match="at least two potential"):
        parse_config({"command": "probe", "seeds": [BUMP], "levels": [8]})
    with pytest.raises(ConfigError, match="seeds\\[1\\]"):
        parse_config({"command": "probe", "levels": [8],
                      "seeds": [BUMP, {"type": "blob"}]})
    # the probe solves every seed at one level
    with pytest.raises(ConfigError) as exc:
        parse_config(dict(MINIMAL["probe"], levels=[4, 8]))
    assert exc.value.errors == ["levels: probe runs at one level, got 2"]


def test_quadrature_and_output_validation():
    with pytest.raises(ConfigError, match="quadrature.shape: unknown"):
        parse_config(dict(MINIMAL["balance"], quadrature={"shape": 1}))
    with pytest.raises(ConfigError, match="output.tables: expected true"):
        parse_config(dict(MINIMAL["balance"], output={"tables": "yes"}))
    cfg = parse_config(dict(MINIMAL["balance"],
                            quadrature={"window": 24, "grid": 768},
                            output={"directory": "/tmp/x", "tables": False}))
    assert cfg.quadrature == {"window": 24, "grid": 768}
    assert cfg.output["tables"] is False


def _grid_error(grid, order=8, levels=(200,)):
    """The quadrature errors parse_config finds for a beta document."""
    doc = {"command": "beta", "potential": FS, "levels": list(levels),
           "quadrature": {"grid": grid, "order": order}}
    try:
        parse_config(doc)
    except ConfigError as e:
        return [m for m in e.errors if m.startswith("quadrature.")]
    return []


def test_quadrature_upper_bounds():
    # the largest grid whose (200 + 1) x n_nodes float64 array fits,
    # n_nodes = (grid - 1) * order + 2
    n_nodes = MAX_ARRAY_BYTES // (8 * 201)
    grid = (n_nodes - 2) // 8 + 1
    assert _grid_error(grid) == []
    assert _grid_error(grid + 1)[0].startswith("quadrature.grid: %d at order "
                                               "8 and level 200" % (grid + 1))
    # the bound follows the largest level
    assert _grid_error(grid + 1, levels=[10, 100]) == []
    assert _grid_error(10 ** 9, levels=[4])[0].startswith("quadrature.grid")
    assert _grid_error(512, order=MAX_ORDER) == []
    assert _grid_error(512, order=MAX_ORDER + 1) == \
        ["quadrature.order: 65 above the maximum 64"]
    # without a valid level the bound is taken at level 0
    assert _grid_error(10 ** 9, levels=[0])[0].startswith(
        "quadrature.grid: 1000000000 at order 8 and level 0")


# tabulated samples on [-30, 30] that the run at level 8 (window 22.08)
# could not resample: each breaks one rule of model.tabulated_errors
_T = np.linspace(-30.0, 30.0, 241)
_SMOOTH = 0.05 * np.exp(-_T ** 2 / 8.0)


def _tabulated(t, phi):
    return {"type": "tabulated", "t": np.asarray(t).tolist(),
            "phi": np.asarray(phi).tolist()}


# documents that used to pass parse_config and then fail in the run: each is
# a config error naming its key, and the CLI writes nothing for it
RUN_TIME_BASES = {
    "newton": {"command": "newton", "potential": FS, "levels": [8, 200]},
    "fourier": MINIMAL["fourier"],
}
RUN_TIME_FAILURES = [
    ({"command": "newton", "quadrature": {"window": 5}}, "quadrature.window: "
     "5.00 too small for level 200: need at least 20.30 (default is 25.30)"),
    ({"command": "newton", "quadrature": {"window": 12}}, "quadrature.window: "
     "12.00 too small for level 200: need at least 20.30 (default is 25.30)"),
    ({"command": "newton", "quadrature": {"grid": 10}},
     "quadrature.grid: 10 below the minimum 64"),
    ({"command": "newton", "quadrature": {"order": 1}},
     "quadrature.order: 1 below the minimum 2"),
    ({"command": "newton", "potential": dict(TABULATED, amplitude=3,
                                             width="x")},
     "potential: unexpected keys for tabulated: amplitude, width"),
    ({"command": "newton", "levels": [8, 8]}, "levels: level 8 repeated"),
    ({"command": "fourier", "profiles": [0.5, 0.3]}, "profiles[0]: profile "
     "margin 0.5 outside [0.02, 0.45]: the remaining overlap is too small to "
     "smooth"),
    ({"command": "fourier", "sample": {"cos": []}},
     "sample: need at least the constant coefficient"),
    ({"command": "newton", "levels": [8],
      "potential": _tabulated(_T[::-1], _SMOOTH)},
     "potential: tabulated t array must be strictly increasing"),
    ({"command": "newton", "levels": [8],
      "potential": _tabulated([-30.0, 30.0], [0.0, 0.0])},
     "potential: tabulated input needs matching 1-d arrays, length >= 8"),
    ({"command": "newton", "levels": [8],
      "potential": _tabulated(_T / 3.0, _SMOOTH)},
     "potential: tabulated range [-10.00, 10.00] does not cover the window"),
    ({"command": "newton", "levels": [8],
      "potential": _tabulated(_T, 0.01 * (-1.0) ** np.arange(_T.size))},
     "potential: tabulated input is not smooth (half-grid interpolation "
     "error 2.0e+00 relative)"),
    ({"command": "fourier", "m_max": 400}, "m_max: 400 plus the sample's "
     "degree 2 exceeds 270, the highest frequency the quadrature resolves"),
    ({"command": "fourier", "profiles": [0.15, 0.15]},
     "profiles: profile 0.15 repeated"),
    # m_max 0 still reads xi = 1/2 and the holomorphy check's circle
    ({"command": "fourier", "sample": {"cos": [1.0] * 271}, "m_max": 0},
     "m_max: the mean-value circle's |Re xi| <= 0.8 plus the sample's "
     "degree 270 exceeds 270, the highest frequency the quadrature resolves"),
]


@pytest.mark.parametrize("fields, error", RUN_TIME_FAILURES)
def test_run_time_failures_are_config_errors(fields, error, tmp_path, capsys):
    doc = dict(RUN_TIME_BASES[fields["command"]], **fields)
    for strict in (False, True):
        with pytest.raises(ConfigError) as exc:
            parse_config(doc, strict=strict)
        assert exc.value.errors == [error]
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc))
    out_dir = tmp_path / "out"
    assert main([doc["command"], "--config", str(path),
                 "--out", str(out_dir)]) == 2
    assert error in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("degree, top", [(3, 267), (20, 250)])
def test_m_max_bound(degree, top):
    # the integers |m| <= m_max of a degree-d sample reach the frequency
    # m_max + d, which the extension's quadrature resolves up to
    # MAX_FREQUENCY; checked by parse_config alone, with or without profiles
    assert top + degree == MAX_FREQUENCY
    sample = {"cos": [1.0, 0.5], "sin": [0.0] * (degree - 1) + [0.25]}
    for profiles in ([0.15, 0.3], [0.45, 0.02]):
        doc = dict(MINIMAL["fourier"], sample=sample, profiles=profiles)
        assert parse_config(dict(doc, m_max=top)).m_max == top
        with pytest.raises(ConfigError) as exc:
            parse_config(dict(doc, m_max=top + 1))
        assert exc.value.errors == [
            "m_max: %d plus the sample's degree %d exceeds 270, the highest "
            "frequency the quadrature resolves" % (top + 1, degree)]
    # the default m_max 20 is checked too
    doc = dict(MINIMAL["fourier"], sample={"cos": [1.0] * 252})
    del doc["m_max"]
    assert parse_config(dict(doc, sample={"cos": [1.0] * 251})).m_max == 20
    with pytest.raises(ConfigError, match="m_max: 20 plus the sample's "
                       "degree 251 exceeds 270"):
        parse_config(doc)


# runs each (command, config path, output directory) of its arguments
# through cli.main in one process and prints, per run, its exit code and the
# scipy modules loaded so far
_SCIPY_PROBE = """
import json, sys
from bergbal.cli import main
runs = []
for command, path, out in zip(*[iter(sys.argv[1:])] * 3):
    code = main([command, "--config", path, "--out", out])
    runs.append([code, sorted(m for m in sys.modules
                              if m.split(".")[0] == "scipy")])
print(json.dumps(runs))
"""


def test_closed_form_runs_load_no_scipy(tmp_path):
    # every command on closed-form input, in a fresh process, imports and
    # runs without scipy, and its report names none; a tabulated run loads
    # scipy.interpolate for its spline, and its report names scipy
    runs = [(command, MINIMAL[command]) for command in COMMANDS]
    runs.append(("newton", dict(MINIMAL["newton"],
                                potential=_tabulated(_T, _SMOOTH))))
    args = []
    for i, (command, doc) in enumerate(runs):
        path = tmp_path / ("run%d.yaml" % i)
        path.write_text(json.dumps(doc))
        args += [command, str(path), str(tmp_path / ("run%d" % i))]
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path
                                             else ""))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *args],
                          env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    loaded = json.loads(proc.stdout.splitlines()[-1])
    for i, ((command, _), (code, modules)) in enumerate(zip(runs, loaded)):
        assert code == 0, command
        versions = load_report(
            str(tmp_path / ("run%d" % i) / "report.json"))["versions"]
        if i < len(COMMANDS):
            assert modules == [] and "scipy" not in versions, command
        else:
            assert "scipy.interpolate" in modules and "scipy" in versions


def test_tabulated_window_is_the_runs():
    # samples on [-21, 21] cover an explicit window of 20, not the default
    # 22.08 of level 8; a seed is checked like a potential
    doc = {"command": "probe", "levels": [8],
           "seeds": [FS, _tabulated(_T * 0.7, _SMOOTH)]}
    parse_config(dict(doc, quadrature={"window": 20.0}))
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert exc.value.errors == ["seeds[1]: tabulated range [-21.00, 21.00] "
                                "does not cover the window"]


def test_discretization_bounds():
    def errors(levels, **quadrature):
        doc = {"command": "beta", "potential": FS, "levels": levels,
               "quadrature": quadrature}
        try:
            parse_config(doc)
        except ConfigError as e:
            return [m for m in e.errors if m.startswith("quadrature.")]
        return []

    # the window a level needs follows the top level; without a valid
    # level only the level-free minimum applies
    top = float(min_window(40))
    assert errors([8, 40], window=top) == []
    assert errors([8, 40], window=top - 1e-9)[0].startswith(
        "quadrature.window: %.2f too small for level 40" % top)
    assert errors([0], window=9.5) == ["quadrature.window: 9.50 below the "
                                       "minimum 10"]
    assert errors([0], window=10) == []
    assert errors([8], grid=64, order=2) == []
    assert errors([8], grid=63, order=MAX_ORDER + 1) == [
        "quadrature.grid: 63 below the minimum 64",
        "quadrature.order: 65 above the maximum 64"]
    # a repeated level is an error for every command; family also keeps
    # its order rule
    with pytest.raises(ConfigError) as exc:
        parse_config({"command": "family", "potential": FS,
                      "levels": [5, 10, 5]})
    assert exc.value.errors == ["levels: level 5 repeated",
                                "levels: must be strictly increasing for "
                                "'family'"]


def test_weight_range():
    # |y| m = |w| / m must stay within bergman.MAX_EXPONENT at the least level
    doc = {"command": "beta", "potential": FS, "levels": [40, 8]}
    assert parse_config(dict(doc, weight=-700 * 8)).weight == -5600.0
    for w in (700 * 8 + 1, 1000000):
        with pytest.raises(ConfigError) as exc:
            parse_config(dict(doc, weight=w))
        assert exc.value.errors == ["weight: %g out of floating range at "
                                    "level 8: |w| / m above 700" % w]


@settings(max_examples=40, deadline=None)
@given(window=st.floats(5.0, 30.0), grid=st.integers(32, 160),
       order=st.integers(1, 10),
       levels=st.lists(st.integers(1, 12), min_size=1, max_size=4))
@example(window=float(min_window(12)), grid=64, order=2, levels=[3, 12])
def test_accepted_discretization_carries_its_levels(window, grid, order,
                                                     levels):
    # whatever parse_config accepts, the potential builds and carries the
    # top level: no discretization bound is left for the run to find
    doc = {"command": "newton", "potential": FS, "levels": levels,
           "quadrature": {"window": window, "grid": grid, "order": order}}
    try:
        cfg = parse_config(doc)
    except ConfigError:
        return
    section_norms(max(levels), _build_potential(cfg.potential, cfg))


@pytest.mark.parametrize("quadrature", [{"grid": 768}, {"grid": 10 ** 9},
                                        {"shape": 1}, "not a mapping"])
def test_fourier_quadrature_is_an_unread_key(quadrature):
    # fourier builds no quadrature: the section warns like an unknown key
    # and is neither checked nor echoed
    doc = dict(MINIMAL["fourier"], quadrature=quadrature)
    cfg = parse_config(doc)
    assert cfg.warnings == ["unknown key 'quadrature'"]
    assert cfg.quadrature == {} and "quadrature" not in cfg.echo()
    with pytest.raises(ConfigError) as err:
        parse_config(doc, strict=True)
    assert err.value.errors == ["unknown key 'quadrature'"]


# a value for each top-level key that its checks reject
INVALID = {"potential": {"type": "blob"}, "levels": [0],
           "solver": {"tolerance": -1.0}, "quadrature": {"grid": 10 ** 9},
           "weight": "heavy", "freeze_weight": "none",
           "seeds": [{"type": "blob"}], "sample": {"cos": [True]},
           "profiles": [0.1], "m_max": -3}
# tbalance solves for its torus weight: the removed key that pinned it is
# unknown too
UNREAD = [(command, f.name) for command in COMMANDS
          for f in dataclasses.fields(ExperimentConfig)
          if f.name not in COMMAND_KEYS[command] + ("command", "output",
                                                     "warnings")] + \
    [("tbalance", "freeze_weight")]


@pytest.mark.parametrize("command, key", UNREAD)
def test_unread_key_is_unknown(command, key):
    # a key the command does not read warns, is an error under strict, and
    # is neither checked (its invalid value raises nothing) nor echoed
    doc = dict(MINIMAL[command], **{key: INVALID[key]})
    cfg = parse_config(doc)
    assert cfg.warnings == ["unknown key %r" % key]
    assert key not in cfg.echo()
    with pytest.raises(ConfigError) as err:
        parse_config(doc, strict=True)
    assert err.value.errors == ["unknown key %r" % key]


class _Recording:
    """A config that records the names of the fields read from it."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.cfg, name)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_keys_are_the_fields_the_runner_reads(command):
    cfg = _Recording(parse_config(MINIMAL[command]))
    _DISPATCH[command](cfg, build_report(cfg.cfg.echo()))
    assert cfg.read - {"command"} == set(COMMAND_KEYS[command])


def test_weight_fields():
    with pytest.raises(ConfigError, match="weight: expected a number"):
        parse_config(dict(MINIMAL["beta"], weight="heavy"))


def test_plain_conversion():
    out = _plain({"a": np.float64(1.5), "b": np.arange(3), "c": 1 + 2j,
                  "d": np.bool_(True), "e": [np.int32(7)]})
    assert out == {"a": 1.5, "b": [0, 1, 2], "c": {"re": 1.0, "im": 2.0},
                   "d": True, "e": [7]}
    assert type(out["a"]) is float and type(out["e"][0]) is int
    assert type(out["d"]) is bool
    assert json.dumps(out)


def test_plain_fast_paths():
    # lists of JSON scalars and numeric arrays skip the per-element calls
    scalars = (1.5, 2, "s", True, None)
    out = _plain(scalars)
    assert out == list(scalars) and type(out) is list
    grid = np.arange(6, dtype=float).reshape(2, 3)
    assert _plain(grid) == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
    assert type(_plain(grid)[1][2]) is float
    assert _plain(np.array([True, False])) == [True, False]
    assert type(_plain(np.array([3], dtype=np.uint8))[0]) is int
    assert _plain(np.array([1 + 2j])) == [{"re": 1.0, "im": 2.0}]
    assert _plain([1.0, np.float64(2.5)]) == [1.0, 2.5]
    assert type(_plain([np.float64(2.5)])[0]) is float


def test_build_and_validate():
    rep = build_report({"command": "balance"})
    assert rep["report_version"] == 3
    assert rep["config"] == {"command": "balance"}
    assert "numpy" in rep["versions"]
    validate_report(rep)


def test_report_version_in_one_place():
    # build_report, the schema's const and its $id name the same version
    schema = load_schema()
    version = build_report({"command": "balance"})["report_version"]
    assert schema["properties"]["report_version"] == {"const": version}
    assert schema["$id"].endswith("-v%d" % version)


def test_schema_rejections():
    schema = load_schema()
    rep = build_report({"command": "balance"})
    missing = dict(rep)
    del missing["conventions"]
    entry = {"name": "t", "file": "t.csv", "columns": ["a"], "rows": 2}
    validate_report(dict(rep, tables=[entry]))
    no_rows = dict(entry)
    del no_rows["rows"]
    for bad in (dict(rep, verdicts={"ok": "yes"}),
                dict(rep, error={"type": "X"}),   # message missing
                missing,
                dict(rep, tables=[dict(entry, name="bad name!")]),
                dict(rep, tables=[no_rows]),
                dict(rep, tables=[dict(entry, columns={"a": [1.0, 2.0]})])):
        with pytest.raises(jsonschema.ValidationError) as direct:
            jsonschema.validate(bad, schema)
        # the cached validator reports the same error
        with pytest.raises(jsonschema.ValidationError) as cached:
            validate_report(bad)
        assert cached.value.message == direct.value.message
        assert list(cached.value.path) == list(direct.value.path)


def test_write_and_load_round_trip(tmp_path):
    rep = build_report({"command": "balance"})
    rep["outputs"] = {"levels": {"4": {"converged": True,
                                       "final_residual": 1.25e-13}}}
    rep["verdicts"] = {"m4_converged": True}
    rep["tables"] = [{"name": "history_m4",
                      "columns": {"iteration": [0, 1],
                                  "residual": [0.25, 1.0 / 3.0]}}]
    paths = write_report(rep, str(tmp_path))
    assert [p.split("/")[-1] for p in paths] == ["report.json", "history_m4.csv"]
    loaded = load_report(paths[0])
    assert loaded["outputs"]["levels"]["4"]["final_residual"] == 1.25e-13
    assert loaded["tables"] == [{"name": "history_m4", "file": "history_m4.csv",
                                 "columns": ["iteration", "residual"],
                                 "rows": 2}]
    with open(paths[1]) as fh:
        csv = fh.read().splitlines()
    assert csv[0] == "iteration,residual"
    assert csv[2] == "1,0.33333333333333331"
    assert float(csv[2].split(",")[1]) == 1.0 / 3.0


def test_write_rejects_invalid(tmp_path):
    rep = build_report({"command": "balance"})
    rep["verdicts"] = {"ok": "yes"}
    with pytest.raises(jsonschema.ValidationError):
        write_report(rep, str(tmp_path))


def test_write_error(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    rep = build_report({"command": "balance"})
    with pytest.raises(ReportWriteError, match="cannot write"):
        write_report(rep, str(blocker))


def test_failed_csv_leaves_no_report(tmp_path):
    # the CSVs are written first, so a report.json on disk indexes CSVs
    # that exist
    rep = build_report({"command": "balance"})
    rep["tables"] = [{"name": "history_m4", "columns": {"residual": [0.5]}}]
    (tmp_path / "history_m4.csv").mkdir()
    with pytest.raises(ReportWriteError, match="history_m4.csv"):
        write_report(rep, str(tmp_path))
    assert not (tmp_path / "report.json").exists()


def _reference_cell(v):
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _reference_write(rep, out_dir):
    """The writer the byte format is pinned to: json.dump of the report with
    each table's columns replaced by its index entry, and a row loop."""
    rep = _plain(rep)
    os.makedirs(out_dir)
    index = []
    for table in rep["tables"]:
        names = list(table["columns"])
        rows = len(table["columns"][names[0]]) if names else 0
        index.append({"name": table["name"], "file": table["name"] + ".csv",
                      "columns": names, "rows": rows})
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(dict(rep, tables=index), fh, indent=1, sort_keys=True)
        fh.write("\n")
    for table in rep["tables"]:
        cols = table["columns"]
        names = list(cols)
        rows = len(cols[names[0]]) if names else 0
        with open(os.path.join(out_dir, table["name"] + ".csv"), "w") as fh:
            fh.write(",".join(names) + "\n")
            for r in range(rows):
                fh.write(",".join(_reference_cell(cols[n][r]) for n in names)
                         + "\n")


def _outcome(write, rep, out_dir):
    """The exception type write raises, or the bytes of each file written."""
    try:
        write(rep, str(out_dir))
    except Exception as e:
        return type(e)
    return {name: (out_dir / name).read_bytes()
            for name in sorted(os.listdir(out_dir))}


def _assert_reference_bytes(rep, tmp_path):
    new = _outcome(write_report, rep, tmp_path / "new")
    assert new == _outcome(_reference_write, rep, tmp_path / "reference")
    return new


@pytest.mark.parametrize("command", ["newton", "tbalance"])
def test_solve_diagnostics_reported(command, tmp_path):
    # each level entry carries the solver's diagnostics, as written
    rep = run_experiment(parse_config(MINIMAL[command]))
    path = write_report(rep, str(tmp_path))[0]
    [entry] = load_report(path)["outputs"]["levels"].values()
    diag = entry["diagnostics"]
    keys = {"moment_center", "sigma_core_err", "orders", "solve_nodes"}
    if command == "tbalance":
        keys.add("moment_pairing")
    assert set(diag) == keys
    assert type(diag["orders"]) is list
    assert all(math.isfinite(v) for v in diag["orders"])
    assert all(math.isfinite(diag[k]) for k in keys - {"orders"})
    # the level's solve quadrature: no finer than the potential's
    assert type(diag["solve_nodes"]) is int
    assert 0 < diag["solve_nodes"] <= rep["outputs"]["quadrature"]["n_nodes"]


@pytest.mark.parametrize("command", COMMANDS)
def test_writer_bytes_on_minimal_runs(command, tmp_path):
    rep = run_experiment(parse_config(MINIMAL[command]))
    files = _assert_reference_bytes(rep, tmp_path)
    assert len(files) == 1 + len(rep["tables"])


# the header of each MINIMAL run's one CSV of samples in t
NODE_HEADERS = {
    "balance": "t,phi_m4,density_m4",
    "newton": "t,phi_m8,density_m8",
    "tbalance": "t,phi_m8,density_m8",
    "expand": "t,a1,a2,half_sigma",
    "beta": "t,beta_m10,beta_m20",
}


@pytest.mark.parametrize("command", COMMANDS)
def test_nodes_written_once_per_run(command, tmp_path):
    # a run's samples in t share one CSV: the knot column t heads it, with
    # one row per knot of the input's quadrature, and no other CSV repeats it
    cfg = parse_config(MINIMAL[command])
    rep = run_experiment(cfg)
    paths = write_report(rep, str(tmp_path))
    assert len(paths) == len(set(paths))
    with_t = []
    for path in sorted(tmp_path.glob("*.csv")):
        lines = path.read_text().splitlines()
        if "t" in lines[0].split(","):
            with_t.append((lines[0], len(lines) - 1))
            t = [float(line.split(",")[0]) for line in lines[1:]]
    if command in NODE_HEADERS:
        grid = rep["outputs"]["quadrature"]["grid_size"]
        assert with_t == [(NODE_HEADERS[command], grid)]
        assert t == _build_potential(cfg.potential, cfg).quad.knots.tolist()
    else:
        assert with_t == []


def _edge_report():
    nan, inf = float("nan"), float("inf")
    rep = build_report({"command": "balance"})
    rep["outputs"] = {
        "specials": [nan, inf, -inf, -0.0, 5e-324, 1e308, 0.1],
        "nan": nan, "inf": inf, "neg_inf": -inf, "neg_zero": -0.0,
        "none": None, "empty_dict": {}, "empty_list": [],
        "ints": [0, -3, 10 ** 20, True, False],
        "numpy": np.array([nan, 1.5, -inf]),
        "mixed": [1, "a, b", None, [2.5, [], {}], {"z": [], "a": [nan]}],
        "nested": {"b": {"c": [[1, 2.0], [True]]}, "a": []},
    }
    rep["warnings"] = ["Größe ≠ ∞, naïve"]
    rep["tables"] = [
        {"name": "specials",
         "columns": {"f": [nan, inf, -inf, -0.0, 5e-324],
                     "i": [0, -1, 2, 10 ** 20, 7],
                     "b": [True, False, True, True, False],
                     "np": np.array([nan, -0.0, 5e-324, inf, 1.0 / 3.0])}},
        {"name": "mixed",
         "columns": {"int_float": [1, 2.5, -0.0], "int_bool": [1, True, 0],
                     "str_none": ["a", None, "b, c"]}},
        {"name": "empty_column", "columns": {"e": []}},
        {"name": "no_columns", "columns": {}},
    ]
    return rep


def test_writer_bytes_on_edge_values(tmp_path):
    rep = _edge_report()
    files = _assert_reference_bytes(rep, tmp_path)
    assert set(files) == {"report.json", "specials.csv", "mixed.csv",
                          "empty_column.csv", "no_columns.csv"}
    loaded = json.loads(files["report.json"])
    assert math.isnan(loaded["outputs"]["nan"])
    assert loaded["warnings"] == rep["warnings"]
    assert files["specials.csv"].splitlines()[1] == b"nan,0,1,nan"
    assert files["no_columns.csv"] == b"\n"


@pytest.mark.parametrize("columns", [
    {"short_last": [1.0, 2.0], "b": [1.0]},
    {"long_last": [1.0], "b": [1.0, 2.0]},
    {"empty_first": [], "b": [1, 2]},
    {"mixed_short": [1, 2.0], "b": [True]},
])
def test_writer_ragged_tables(columns, tmp_path):
    # columns of unequal length fail before any file or directory is made,
    # the CSV of a sound table before the ragged one included
    rep = build_report({"command": "balance"})
    rep["tables"] = [{"name": "sound", "columns": {"a": [1.0]}},
                     {"name": "ragged", "columns": columns}]
    out_dir = tmp_path / "out"
    with pytest.raises(ReportWriteError, match="table 'ragged' has columns "
                                               "of unequal lengths"):
        write_report(rep, str(out_dir))
    assert not (out_dir / "report.json").exists()
    assert not out_dir.exists()
