import json
import os
import re

import pytest

from bergbal.cli import main
from bergbal.config import parse_config
from bergbal.report import load_report

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

FS_BALANCE = """
command: balance
potential: {type: fubini-study}
levels: [4]
"""


def _write(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_pass_run(tmp_path, capsys):
    cfg = _write(tmp_path, FS_BALANCE)
    out_dir = tmp_path / "out"
    code = main(["balance", "--config", cfg, "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict m4_converged: PASS" in out
    assert "report written to" in out
    names = sorted(os.listdir(out_dir))
    assert names == ["history_m4.csv", "potential_m4.csv", "report.json"]
    rep = load_report(str(out_dir / "report.json"))
    assert rep["outputs"]["levels"]["4"]["converged"] is True
    assert rep["error"] is None


def test_family_fubini_study(tmp_path, capsys):
    cfg = _write(tmp_path, """
command: family
potential: {type: fubini-study}
levels: [5, 10, 20]
""")
    out_dir = tmp_path / "out"
    code = main(["family", "--config", cfg, "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0
    for name in ("all_converged", "d_non_increasing", "d_last_below_first",
                 "sigma_decreasing"):
        assert "verdict family_%s: PASS" % name in out
    outputs = load_report(str(out_dir / "report.json"))["outputs"]
    assert len(outputs["d_floor"]) == len(outputs["sigma_floor"]) == 3
    assert all(d <= f for d, f in zip(outputs["d_sup"], outputs["d_floor"]))
    assert all(s <= f for s, f in zip(outputs["sigma_sup"],
                                      outputs["sigma_floor"]))


def test_family_newton_steps(tmp_path, capsys):
    cfg = _write(tmp_path, """
command: family
potential: {type: gaussian-bump, amplitude: 0.1, width: 1.0}
levels: [5, 10, 20]
""")
    out_dir = tmp_path / "out"
    assert main(["family", "--config", cfg, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    steps = load_report(str(out_dir / "report.json"))["outputs"]["iterations"]
    # the warm start from the previous level is already balanced
    assert steps[0] > 0 and steps[1:] == [0, 0]
    rows = (out_dir / "family.csv").read_text().splitlines()
    assert rows[0].split(",")[:2] == ["m", "iterations"]
    assert [r.split(",")[1] for r in rows[1:]] == [str(s) for s in steps]


def test_verdict_failure_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, """
command: balance
potential: {type: gaussian-bump, amplitude: 0.1, width: 1.0}
levels: [2]
solver: {max_iterations: 3}
""")
    code = main(["balance", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "verdict m2_converged: FAIL" in capsys.readouterr().out


def test_config_error_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, """
command: balance
potential: {type: gaussian-bump, width: -1}
levels: [0]
""")
    code = main(["balance", "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "potential.amplitude" in err
    assert "levels[0]" in err
    assert not (tmp_path / "out").exists()


def test_command_mismatch(tmp_path, capsys):
    cfg = _write(tmp_path, FS_BALANCE)
    code = main(["newton", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "names command 'balance'" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = main(["balance", "--config", str(tmp_path / "nope.yaml")])
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err


def test_usage_error(capsys):
    assert main(["meditate", "--config", "x"]) == 2


def test_internal_error_exit_code(tmp_path, capsys):
    # validates fine, but the density goes negative at construction
    cfg = _write(tmp_path, """
command: balance
potential: {type: gaussian-bump, amplitude: 50.0, width: 0.1}
levels: [4]
""")
    out_dir = tmp_path / "out"
    code = main(["balance", "--config", cfg, "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 3
    assert "PositivityError" in err
    rep = load_report(str(out_dir / "report.json"))
    assert rep["error"]["type"] == "PositivityError"


def test_unknown_key_warning_and_strict(tmp_path, capsys):
    cfg = _write(tmp_path, FS_BALANCE + "typo: true\n")
    code = main(["balance", "--config", cfg, "--out", str(tmp_path / "a")])
    assert code == 0
    assert "warning: unknown key 'typo'" in capsys.readouterr().out
    code = main(["balance", "--config", cfg, "--out", str(tmp_path / "b"),
                 "--strict"])
    assert code == 2


def test_out_directory_precedence(tmp_path, monkeypatch):
    cfg_dir = tmp_path / "from-config"
    cfg = _write(tmp_path, FS_BALANCE + "output: {directory: %s}\n" % cfg_dir)
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("BERGBAL_OUT", str(env_dir))

    flag_dir = tmp_path / "from-flag"
    assert main(["balance", "--config", cfg, "--out", str(flag_dir)]) == 0
    assert (flag_dir / "report.json").exists()

    assert main(["balance", "--config", cfg]) == 0
    assert (cfg_dir / "report.json").exists()

    bare = _write(tmp_path, FS_BALANCE, name="bare.yaml")
    assert main(["balance", "--config", bare]) == 0
    assert (env_dir / "report.json").exists()

    monkeypatch.delenv("BERGBAL_OUT")
    monkeypatch.chdir(tmp_path)
    assert main(["balance", "--config", bare]) == 0
    assert (tmp_path / "bergbal-out" / "report.json").exists()


def test_tables_flag(tmp_path):
    cfg = _write(tmp_path, FS_BALANCE + "output: {tables: false}\n")
    out_dir = tmp_path / "out"
    assert main(["balance", "--config", cfg, "--out", str(out_dir)]) == 0
    assert os.listdir(out_dir) == ["report.json"]


def test_determinism_except_timing(tmp_path):
    cfg = _write(tmp_path, """
command: newton
potential: {type: gaussian-bump, amplitude: 0.1, width: 1.0}
levels: [6]
""")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["newton", "--config", cfg, "--out", str(a)]) == 0
    assert main(["newton", "--config", cfg, "--out", str(b)]) == 0
    ra = load_report(str(a / "report.json"))
    rb = load_report(str(b / "report.json"))
    del ra["timing"], rb["timing"]
    assert ra == rb
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_readme_example_config(tmp_path, capsys):
    # the README's example config parses strictly and runs: a key removed
    # from the program but left in the docs fails here
    with open(README) as f:
        blocks = re.findall(r"```yaml\n(.*?)```", f.read(), re.S)
    assert len(blocks) == 1
    cfg = parse_config(blocks[0], strict=True)
    assert cfg.warnings == []
    path = _write(tmp_path, blocks[0])
    out_dir = tmp_path / "out"
    code = main([cfg.command, "--config", path, "--out", str(out_dir),
                 "--strict"])
    assert code == 0
    assert "verdict m4_converged: PASS" in capsys.readouterr().out
