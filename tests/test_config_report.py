import dataclasses
import json
import math
import os

import jsonschema
import numpy as np
import pytest

from bergbal import config
from bergbal.config import (COMMANDS, MAX_ARRAY_BYTES, MAX_ORDER,
                            ConfigError, parse_config)
from bergbal.runner import run_experiment
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


def test_yaml_text_and_echo():
    cfg = parse_config("""
command: newton
potential: {type: fubini-study}
levels: [6]
solver: {tolerance: 1.0e-10, max_iterations: 40}
""")
    assert cfg.solver.tolerance == 1e-10
    assert cfg.solver.max_iterations == 40
    echo = cfg.echo()
    assert "mode" not in echo
    assert echo["solver"] == {"tolerance": 1e-10, "max_iterations": 40}
    assert "m_max" not in echo        # fourier-only field


DEFAULT_SOLVER = {"tolerance": 1e-08, "max_iterations": 500}

# every optional field set; seeds, sample, profiles and m_max belong to
# other commands and are left out of a tbalance echo, as output always is
FULL = {"command": "tbalance", "potential": BUMP, "levels": [8, 12],
        "solver": {"tolerance": 1e-9, "max_iterations": 40},
        "quadrature": {"window": 24, "grid": 768, "order": 6},
        "output": {"directory": "runs/full", "tables": False},
        "weight": 2, "freeze_weight": 0, "seeds": [FS, BUMP],
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
    "expand": {"command": "expand", "potential": BUMP, "levels": [10, 20, 40],
               "solver": DEFAULT_SOLVER},
    "beta": {"command": "beta", "potential": BUMP, "levels": [10, 20],
             "solver": DEFAULT_SOLVER},
    "fourier": {"command": "fourier", "solver": DEFAULT_SOLVER,
                "sample": {"cos": [1.0, 1.0], "sin": [0.0, 0.3]},
                "profiles": [0.15, 0.3], "m_max": 10},
    "probe": {"command": "probe", "levels": [8], "solver": DEFAULT_SOLVER,
              "seeds": [BUMP, FS]},
    "full": {"command": "tbalance", "potential": BUMP, "levels": [8, 12],
             "solver": {"tolerance": 1e-09, "max_iterations": 40},
             "quadrature": {"window": 24, "grid": 768, "order": 6},
             "weight": 2.0, "freeze_weight": 0.0},
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
        parse_config("command: [unclosed")


def test_top_level_must_be_mapping():
    with pytest.raises(ConfigError, match="top level"):
        parse_config("- just\n- a list\n")


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
        "command": "newton",
        "potential": {"type": "gaussian-bump", "width": -1.0},
        "levels": [4, "eight", 500],
        "solver": {"tolerance": -1.0},
        "freeze_weight": "zero",
    }
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    text = "\n".join(exc.value.errors)
    assert "potential.amplitude" in text
    assert "potential.width: must be positive" in text
    assert "levels[1]" in text
    assert "levels[2]" in text
    assert "solver: tolerance must be positive" in text
    assert "freeze_weight: expected a number" in text
    assert len(exc.value.errors) >= 6


def test_solver_fields_are_typed():
    # YAML reads 1e-10 (no decimal point) as a string
    doc = dict(MINIMAL["newton"], solver={"tolerance": "1e-10",
                                          "max_iterations": "7"})
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert exc.value.errors == ["solver.tolerance: expected a number",
                                "solver.max_iterations: expected an integer"]
    text = "command: newton\npotential: {type: fubini-study}\nlevels: [4]\n"
    with pytest.raises(ConfigError, match="solver.tolerance: expected a number"):
        parse_config(text + "solver: {tolerance: 1e-10}\n")
    # no silent truncation to 2, no boolean read as 1.0
    for key, value, expected in (("max_iterations", 2.5, "an integer"),
                                 ("max_iterations", True, "an integer"),
                                 ("tolerance", False, "a number")):
        with pytest.raises(ConfigError) as exc:
            parse_config(dict(MINIMAL["newton"], solver={key: value}))
        assert exc.value.errors == ["solver.%s: expected %s" % (key, expected)]
    for key in ("weight", "freeze_weight"):
        with pytest.raises(ConfigError, match="%s: expected a number" % key):
            parse_config(dict(MINIMAL["tbalance"], **{key: True}))
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
    # a command without levels is bounded as level 0
    with pytest.raises(ConfigError, match="quadrature.grid: 1000000000 at "
                                          "order 8 and level 0"):
        parse_config(dict(MINIMAL["fourier"], quadrature={"grid": 10 ** 9}))


def test_weight_fields():
    cfg = parse_config(dict(MINIMAL["tbalance"], freeze_weight=0))
    assert cfg.freeze_weight == 0.0
    with pytest.raises(ConfigError, match="freeze_weight"):
        parse_config(dict(MINIMAL["tbalance"], freeze_weight="none"))
    with pytest.raises(ConfigError, match="weight: expected a number"):
        parse_config(dict(MINIMAL["balance"], weight="heavy"))


def test_plain_conversion():
    out = _plain({"a": np.float64(1.5), "b": np.arange(3), "c": 1 + 2j,
                  "d": np.bool_(True), "e": [np.int32(7)]})
    assert out == {"a": 1.5, "b": [0, 1, 2], "c": {"re": 1.0, "im": 2.0},
                   "d": True, "e": [7]}
    assert type(out["a"]) is float and type(out["e"][0]) is int
    assert type(out["d"]) is bool
    assert json.dumps(out)


def test_build_and_validate():
    rep = build_report({"command": "balance"})
    assert rep["report_version"] == 1
    assert rep["config"] == {"command": "balance"}
    assert "numpy" in rep["versions"]
    validate_report(rep)


def test_schema_rejections():
    schema = load_schema()
    rep = build_report({"command": "balance"})
    missing = dict(rep)
    del missing["conventions"]
    for bad in (dict(rep, verdicts={"ok": "yes"}),
                dict(rep, error={"type": "X"}),   # message missing
                missing,
                dict(rep, tables=[{"name": "bad name!", "columns": {}}])):
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
    assert loaded["tables"][0]["columns"]["residual"][1] == 1.0 / 3.0
    with open(paths[1]) as fh:
        csv = fh.read().splitlines()
    assert csv[0] == "iteration,residual"
    assert csv[2].startswith("1,0.33333333333333331")


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


def _reference_cell(v):
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _reference_write(rep, out_dir):
    """The writer the byte format is pinned to: json.dump and a row loop."""
    rep = _plain(rep)
    os.makedirs(out_dir)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(rep, fh, indent=1, sort_keys=True)
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


@pytest.mark.parametrize("command", COMMANDS)
def test_writer_bytes_on_minimal_runs(command, tmp_path):
    rep = run_experiment(parse_config(MINIMAL[command]))
    files = _assert_reference_bytes(rep, tmp_path)
    assert len(files) == 1 + len(rep["tables"])


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
         "columns": {"int_float": [1, 2.5, -0.0], "int_bool": [1, True, 0]}},
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
    rep = build_report({"command": "balance"})
    rep["tables"] = [{"name": "ragged", "columns": columns}]
    _assert_reference_bytes(rep, tmp_path)
