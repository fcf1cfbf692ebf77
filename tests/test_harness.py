"""Rate fitting, sweep orchestration and report emission."""

import csv
import json

import numpy as np
import pytest

from homoglab.errors import ConfigError
from homoglab.harness import (CSV_COLUMNS, StudyConfig, body_bytes, emit,
                              fit_rate, run_study)


def test_fit_rate_exact_cases():
    fit = fit_rate([(1 / 4, 1 / 2), (1 / 16, 1 / 4)])
    assert fit["slope"] == pytest.approx(0.5, abs=1e-12)
    assert fit["points"] == 2

    fit = fit_rate([(1 / 2, 1 / 2), (1 / 4, 1 / 4), (1 / 8, 1 / 8)])
    assert fit["slope"] == pytest.approx(1.0, abs=1e-12)
    assert fit["r2"] == pytest.approx(1.0, abs=1e-12)

    fit = fit_rate([(1 / 2, 3.0), (1 / 4, 3.0), (1 / 8, 3.0)])
    assert fit["slope"] == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_order_independent():
    pts = [(1 / 2, 0.9), (1 / 8, 0.2), (1 / 4, 0.5)]
    f1 = fit_rate(pts)
    f2 = fit_rate(list(reversed(pts)))
    assert f1["slope"] == pytest.approx(f2["slope"], abs=1e-13)
    assert f1["intercept"] == pytest.approx(f2["intercept"], abs=1e-13)


def test_fit_rate_guards():
    with pytest.warns(UserWarning):
        fit = fit_rate([(1 / 2, 1.0), (1 / 4, 0.5), (1 / 8, 0.0)])
    assert fit["points"] == 2
    with pytest.raises(ConfigError):
        with pytest.warns(UserWarning):
            fit_rate([(1 / 2, 0.0), (1 / 4, -1.0)])
    with pytest.raises(ConfigError):
        fit_rate([(1 / 2, 1.0)])


def test_study_config_validation():
    with pytest.raises(ConfigError):
        StudyConfig(eps_list=(0.25,))
    with pytest.raises(ConfigError):
        StudyConfig(k=0)
    with pytest.raises(ConfigError):
        StudyConfig(modes=("EIGENVALUES", "BOGUS"))
    # a bad eps fails at construction, before any cell problem is solved
    with pytest.raises(ConfigError):
        StudyConfig(eps_list=(1 / 4, 0.3))
    # eps values are sorted descending regardless of the input order
    cfg = StudyConfig(eps_list=(1 / 16, 1 / 4, 1 / 8))
    assert cfg.eps_list == (1 / 4, 1 / 8, 1 / 16)
    dom = cfg.domain_config(1 / 8)
    assert dom.eps == 1 / 8 and dom.h_ref == cfg.h_ref


@pytest.mark.parametrize("bad", [{"cell_refine": 0}, {"h_domain": 0.0},
                                 {"h_domain": -0.1}])
def test_study_config_rejects_bad_mesh_sizes(bad):
    # each used to get past construction and fail inside run_study: a
    # ZeroDivisionError, or a ConstraintError after the cell solve
    with pytest.raises(ConfigError):
        StudyConfig(**bad)
    assert StudyConfig(h_domain=None).h_domain is None


@pytest.mark.parametrize("h", [0.6, 0.3, 0.2])
def test_study_config_rejects_coarse_macro_mesh(h):
    # each used to solve the cell problem first and then fail on the macro
    # mesh: ConstraintError (no free node) at 0.6, SolverError (k = 3 modes
    # of one free node) at 0.3 and 0.2
    with pytest.raises(ConfigError):
        StudyConfig(eps_list=(1 / 4, 1 / 8), k=2, h_domain=h)


def test_study_config_macro_mesh_bound():
    # the homogenized solve takes k + 1 modes, so it needs more than k + 1
    # interior nodes: a 3 x 3 grid has 4
    for h in (None, 0.5 / 32, 0.5 / 3):
        StudyConfig(eps_list=(1 / 4, 1 / 8), k=2, h_domain=h)
    with pytest.raises(ConfigError):
        StudyConfig(eps_list=(1 / 4, 1 / 8), k=3, h_domain=0.5 / 3)
    assert StudyConfig().h_macro == 0.5 / 64


@pytest.fixture(scope="module")
def small_report():
    cfg = StudyConfig(eps_list=(1 / 4, 1 / 8), k=2, h_domain=0.5 / 32,
                      cell_refine=2)
    return run_study(cfg)


def test_small_study_structure(small_report):
    body = small_report["body"]
    assert body["complete"]
    assert len(body["rows"]) == 2 * 2  # |eps_list| * k
    # rows sorted by (descending eps, mode)
    keys = [(-r["eps"], r["j"]) for r in body["rows"]]
    assert keys == sorted(keys)
    assert body["cell"]["c_star"] > 0.0
    assert body["cell"]["c_star_full_boundary"] > body["cell"]["c_star"]
    a = np.array(body["cell"]["a_hom"])
    assert a.shape == (2, 2)
    assert len(body["homogenized"]["lambda"]) == 2
    # lambda_hom^2 and lambda_hom^3 form one cluster that k = 2 cuts, so
    # mode 2 is not aligned on its own
    assert all(r["heps_err"] is None and r["l2_err"] is None
               for r in body["rows"] if r["j"] == 2)
    assert "abs_err_j1" in body["rates"]
    assert "visik_alpha_j1" in body["rates"]
    # per-eps lab rows (4 checks) plus the two sweep-level rows
    assert len(body["lab"]) == 4 * 2 + 2
    assert "gap_lambda12_min" in body["flags"]
    # the whole body survives canonical serialization
    assert isinstance(body_bytes(small_report), bytes)


def test_emit_formats(small_report, tmp_path):
    written = emit(small_report, tmp_path, formats=("json", "csv", "svg"))
    names = {p.name for p in written}
    assert names == {"report.json", "report.csv", "rates.svg"}

    loaded = json.loads((tmp_path / "report.json").read_text())
    assert loaded["body"]["rows"] == small_report["body"]["rows"]

    with (tmp_path / "report.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 2 * 2 + 1  # |eps_list| * k + header

    svg = (tmp_path / "rates.svg").read_text()
    assert svg.startswith("<svg")
    assert "abs_err" in svg


def test_study_flags_monotonicity(small_report):
    flags = small_report["body"]["flags"]
    assert flags["abs_err_j1_strictly_decreasing"] is True
    assert flags["gap_lambda12_min"] > 1e-8
