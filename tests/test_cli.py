"""Command line front end: subcommands, config parsing and exit codes."""

import hashlib
import json
import os

import numpy as np
import pytest

from homoglab import cli, geometry, harness
from homoglab.errors import ConfigError


def test_parse_number():
    assert cli._parse_number("0.25") == 0.25
    assert cli._parse_number("1/16") == pytest.approx(0.0625)


def test_parse_number_zero_denominator(capsys):
    with pytest.raises(ValueError):
        cli._parse_number("1/0")
    # argparse turns the ValueError into a usage error (exit status 2)
    for argv in (["spectrum", "--eps", "1/0"], ["mesh", "--href", "1/0"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "invalid" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["cell", "--href", "0"],
                                  ["cell", "--href", "-0.1"],
                                  ["mesh", "--kind", "domain", "--href", "0"]])
def test_nonpositive_href_is_an_error(argv, capsys):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "must be > 0" in err


@pytest.mark.parametrize("eps", ["0", "nan", "-1/4"])
def test_nonpositive_eps_is_an_error(eps, tmp_path, capsys):
    assert cli.main(["spectrum", f"--eps={eps}"]) == 1
    assert "error: eps must be finite and > 0" in capsys.readouterr().err
    config = tmp_path / "sweep.cfg"
    config.write_text(f"eps_list = 1/4, {eps}\n")
    assert cli.main(["study", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert "error: eps must be finite and > 0" in capsys.readouterr().err


def test_parse_krect():
    assert cli._parse_krect("0.25,0.25,0.75,0.75") == (0.25, 0.25, 0.75, 0.75)
    assert cli._parse_krect("1/4, 1/4, 3/4, 0.75") == (0.25, 0.25, 0.75, 0.75)
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        cli._parse_krect("0.25,0.75")
    with pytest.raises(ValueError):
        cli._parse_krect("1/0,1/4,3/4,3/4")


def test_krect_takes_fractions_like_eps(tmp_path, capsys):
    """`--krect` and the config key `k_rect` read 1/4 as `--eps` and
    `eps_list` do."""
    args = cli._build_parser().parse_args(["spectrum", "--krect", "1/4,1/4,3/4,3/4"])
    assert args.krect == (0.25, 0.25, 0.75, 0.75)
    config = tmp_path / "sweep.cfg"
    config.write_text("k_rect = 1/4, 1/4, 3/4, 3/4\n")
    assert cli._load_study_config(config).k_rect == (0.25, 0.25, 0.75, 0.75)
    dumps = []
    for rect in ("1/4,1/4,3/4,3/4", "0.25,0.25,0.75,0.75"):
        assert cli.main(["mesh", "--kind", "domain", "--krect", rect, "--href", "1/8"]) == 0
        dumps.append(capsys.readouterr().out)
    assert dumps[0] == dumps[1]
    with pytest.raises(SystemExit) as exc:
        cli.main(["mesh", "--kind", "domain", "--krect", "1/0,1/4,3/4,3/4"])
    assert exc.value.code == 2


def test_threads_guard(monkeypatch):
    monkeypatch.setenv("HOMOGLAB_THREADS", "not-a-number")
    with pytest.raises(SystemExit):
        cli._configure_threads()


@pytest.mark.parametrize("value", ["0", "-2"])
def test_threads_below_one_rejected(value, monkeypatch, capsys):
    """OpenBLAS reads 0 or a negative count as "every core", which breaks the
    byte reproducibility of the report body."""
    monkeypatch.setenv("HOMOGLAB_THREADS", value)
    with pytest.raises(SystemExit) as exc:
        cli._configure_threads()
    assert exc.value.code == 1
    assert "error: HOMOGLAB_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("var, value", [("OMP_NUM_THREADS", "0"),
                                        ("OPENBLAS_NUM_THREADS", "0"),
                                        ("OPENBLAS_NUM_THREADS", "x"),
                                        ("VECLIB_MAXIMUM_THREADS", "0")])
def test_preset_blas_threads_checked(var, value, monkeypatch, capsys):
    """A thread variable already in the environment is kept, so it must be
    a valid count too: OpenBLAS reads 0 as "every core"."""
    monkeypatch.setenv(var, value)
    with pytest.raises(SystemExit) as exc:
        cli._configure_threads()
    assert exc.value.code == 1
    assert f"error: {var} must be an integer >= 1, got {value!r}" in capsys.readouterr().err


def test_unset_thread_variables_take_homoglab_threads(monkeypatch):
    pinned = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    for var in pinned:
        monkeypatch.setenv(var, "1")  # so that the value set below is undone
        monkeypatch.delenv(var)
    monkeypatch.setenv("HOMOGLAB_THREADS", "2")
    cli._configure_threads()
    assert {var: os.environ[var] for var in pinned} == dict.fromkeys(pinned, "2")


_K_RECT = (0.25, 0.25, 0.75, 0.75)


@pytest.mark.parametrize("argv, build, sha256", [
    (["--kind", "template", "--href", "1/8"],
     lambda: geometry.build_cell_mesh(0.25, 32, 1.0 / 8.0),
     "6ff619e2186bc23d18044d5b6f4431463856b9c537107a70328da286ae7e6cb6"),
    (["--kind", "perforated", "--eps", "1/4", "--href", "1/8"],
     lambda: geometry.build_perforated_mesh(geometry.DomainConfig(
         eps=0.25, hole_radius=0.25, hole_poly=32, k_rect=_K_RECT, h_ref=1.0 / 8.0)),
     "93acba40cd18a2d4431a19a7e7ad41f1049957dd5ac1a296daf50c78638ea2c3")],
    ids=["template", "perforated"])
def test_mesh_dump_bytes(argv, build, sha256, capsys):
    # pinned to the dumps with plain float node coordinates; they differ
    # from the earlier numpy-scalar dumps only by the np.float64(...) wrappers
    assert cli.main(["mesh", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha256
    # independent of the pins: every node line reads back bitwise
    mesh = build()
    lines = out.splitlines()[1:1 + mesh.n_nodes]
    assert not any("np." in line for line in lines)
    nodes = np.array([[float(v) for v in line.split()] for line in lines])
    assert nodes.shape == mesh.nodes.shape
    assert nodes.tobytes() == mesh.nodes.tobytes()


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
        cli._load_study_config(config)


def test_config_file_rejects_lab_samples(tmp_path):
    # the lemma constants come from eigensolves; there is nothing to sample
    config = tmp_path / "old.cfg"
    config.write_text("lab_samples = 10\n")
    with pytest.raises(ConfigError, match="unknown key"):
        cli._load_study_config(config)


def test_mesh_command_to_file(tmp_path, capsys):
    out_file = tmp_path / "mesh.txt"
    rc = cli.main(["mesh", "--kind", "domain", "--href", "1/8",
                   "--out", str(out_file)])
    assert rc == 0
    assert out_file.exists()
    lines = out_file.read_text().splitlines()
    assert "OUTER" in lines[-1]
    # a domain mesh has no cells: its triangle lines end with the region
    assert lines[0] == "25 nodes 32 triangles 16 edges"
    tri_lines = lines[1 + 25:1 + 25 + 32]
    assert {len(line.split()) for line in tri_lines} == {4}
    assert all(line.endswith(" FLUID") for line in tri_lines)


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


def test_spectrum_command_reports_sectors(tmp_path, capsys):
    out_file = tmp_path / "spectrum.json"
    assert cli.main(["spectrum", "--eps", "1/4", "--k", "2", "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "reduced dim = 1201" in out
    assert "sector dims = 2 x 300 + 301 + 300" in out
    # one 21-solve Lanczos pass in each of the three sectors
    assert "operator solves = 63\n" in out
    payload = json.loads(out_file.read_text())
    assert payload["sectors"] == [
        {"dim": 300, "weight": 2}, {"dim": 301, "weight": 1}, {"dim": 300, "weight": 1}]
    assert payload["solves"] == 63
    assert payload["peak_rss_mb"] > 0.0
    assert f"peak RSS = {payload['peak_rss_mb']:.1f} MB\n" in out
    # a 30-gon hole is no quarter-turn symmetry: one sector of every DoF
    assert cli.main(["spectrum", "--eps", "1/4", "--npoly", "30", "--k", "2",
                     "--out", str(out_file)]) == 0
    assert "sector dims = 1201\n" in capsys.readouterr().out
    assert json.loads(out_file.read_text())["sectors"] == [{"dim": 1201, "weight": 1}]


def test_spectrum_without_peak_rss(monkeypatch, tmp_path, capsys):
    # where `resource` is missing there is no peak to print: the line is
    # left out and the JSON carries null; the missing directories of --out
    # are made
    monkeypatch.setattr(harness, "peak_rss_mb", lambda: None)
    out_file = tmp_path / "missing" / "dir" / "spectrum.json"
    assert cli.main(["spectrum", "--eps", "1/4", "--k", "2", "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "lambda_2 = " in out and "peak RSS" not in out
    assert json.loads(out_file.read_text())["peak_rss_mb"] is None


def test_geometry_error_exit_code(capsys):
    rc = cli.main(["cell", "--radius", "0.45", "--href", "1/8"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["nan", "inf", "-0.1"])
@pytest.mark.parametrize("command", [["cell"], ["mesh", "--kind", "template"]])
def test_bad_hole_radius_is_an_error(command, radius, capsys):
    assert cli.main(command + ["--radius", radius, "--href", "1/8"]) == 1
    captured = capsys.readouterr()
    assert "error: hole radius must be finite and >= 0" in captured.err
    assert captured.out == ""


def test_spectrum_rejects_k_before_meshing(monkeypatch, capsys):
    def no_mesh(cfg):
        raise AssertionError("mesh built for an invalid k")

    monkeypatch.setattr(geometry, "build_perforated_mesh", no_mesh)
    assert cli.main(["spectrum", "--eps", "1/4", "--k", "0"]) == 1
    assert "error: k must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["file/x.json", "dir"])
def test_spectrum_bad_out_fails_before_meshing(where, monkeypatch, tmp_path, capsys):
    # --out under a regular file, or naming a directory: refused at once
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()

    def no_mesh(cfg):
        raise AssertionError("mesh built for an unwritable --out")

    monkeypatch.setattr(geometry, "build_perforated_mesh", no_mesh)
    assert cli.main(["spectrum", "--eps", "1/4", "--out", str(tmp_path / where)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and where.split("/")[0] in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["study", "check"])
def test_study_out_on_a_file_fails_before_the_sweep(command, monkeypatch, tmp_path, capsys):
    out = tmp_path / "report"
    out.write_text("")

    def no_sweep(cfg):
        raise AssertionError("sweep run for an unwritable --out")

    monkeypatch.setattr(harness, "run_study", no_sweep)
    assert cli.main([command, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "report" in captured.err
    assert captured.out == ""
    assert out.read_text() == ""


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
    for line in ("nonsense = 12", "k = 2.5", "hole_poly = 3.0",
                 "eps_list = 1/4, x", "k_rect = 0.25, 0.25, 0.75"):
        config.write_text("# sweep\n" + line + "\n")
        rc = cli.main(["study", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "bad.cfg:2: " in err, line
