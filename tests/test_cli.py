"""Command line front end: subcommands, config parsing and exit codes."""

import json

import pytest

from homoglab import cli
from homoglab.errors import ConfigError


def test_parse_number():
    assert cli._parse_number("0.25") == 0.25
    assert cli._parse_number("1/16") == pytest.approx(0.0625)


def test_parse_krect():
    assert cli._parse_krect("0.25,0.25,0.75,0.75") == (0.25, 0.25, 0.75, 0.75)
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        cli._parse_krect("0.25,0.75")


def test_threads_guard(monkeypatch):
    monkeypatch.setenv("HOMOGLAB_THREADS", "not-a-number")
    with pytest.raises(SystemExit):
        cli._configure_threads()


def test_mesh_command(capsys):
    rc = cli.main(["mesh", "--kind", "template", "--href", "1/8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "nodes" in out and "FLUID" in out


def test_mesh_command_perforated(tmp_path, capsys):
    # the perforated dump is the tiled mesh with the hole triangles tagged
    out_file = tmp_path / "mesh.txt"
    rc = cli.main(["mesh", "--kind", "perforated", "--eps", "1/4", "--href", "1/8",
                   "--out", str(out_file)])
    assert rc == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "1345 nodes 2560 triangles 640 edges"
    tags = [line.split()[3] for line in lines[1 + 1345:1 + 1345 + 2560]]
    assert tags.count("FLUID") == 2048 and tags.count("HOLE") == 512
    edges = [line.split()[2] for line in lines[1 + 1345 + 2560:]]
    assert len(edges) == 640
    assert sum(e.startswith("HOLE_BDRY(") for e in edges) == 512
    assert edges.count("OUTER") == 128


def test_config_file_rejects_cell_refine_zero(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("cell_refine = 0\n")
    with pytest.raises(ConfigError):
        cli._load_study_config(config, None)


def test_config_file_rejects_lab_samples(tmp_path):
    # the lemma constants come from eigensolves; there is nothing to sample
    config = tmp_path / "old.cfg"
    config.write_text("lab_samples = 10\n")
    with pytest.raises(ConfigError, match="unknown key"):
        cli._load_study_config(config, None)


def test_mesh_command_to_file(tmp_path, capsys):
    out_file = tmp_path / "mesh.txt"
    rc = cli.main(["mesh", "--kind", "domain", "--href", "1/8",
                   "--out", str(out_file)])
    assert rc == 0
    assert out_file.exists()
    assert "OUTER" in out_file.read_text()


def test_cell_command(tmp_path, capsys):
    out_file = tmp_path / "cell.json"
    rc = cli.main(["cell", "--href", "1/8", "--out", str(out_file)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "C*" in out
    payload = json.loads(out_file.read_text())
    assert payload["cell_area"] == pytest.approx(0.80491, abs=1e-4)
    assert payload["c_star"] == pytest.approx(
        payload["hole_perimeter"] / payload["cell_area"], abs=1e-12)


def test_spectrum_command(capsys):
    rc = cli.main(["spectrum", "--eps", "1/4", "--k", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lambda_1" in out and "lambda_2" in out


def test_geometry_error_exit_code(capsys):
    rc = cli.main(["cell", "--radius", "0.45", "--href", "1/8"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_study_and_check_commands(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "# tiny sweep for the CLI round trip\n"
        "eps_list = 1/4, 1/8\n"
        "k = 2\n"
        "modes = eigenvalues\n"
        "h_domain = 1/64\n"
        "cell_refine = 2\n"
    )
    out_dir = tmp_path / "out"
    rc = cli.main(["study", "--config", str(config), "--out", str(out_dir),
                   "--csv", "--svg"])
    assert rc == 0
    out = capsys.readouterr().out
    assert (out_dir / "report.json").exists()
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "rates.svg").exists()
    assert "rate abs_err_j1" in out

    rc = cli.main(["check", "--config", str(config), "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all checks passed" in out


def test_bad_config_file(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("nonsense = 12\n")
    rc = cli.main(["study", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
