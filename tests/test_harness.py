"""Rate fitting, sweep orchestration and report emission."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from homoglab import corrector, fem, geometry, harness, lab, spectral
from homoglab.errors import ConfigError, GeometryError
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


def test_fit_rate_takes_a_generator():
    # the points are read once: a generator used to be counted after the
    # filter had consumed it, warning of -3 dropped values
    pts = [(e, e**0.5) for e in (1 / 4, 1 / 8, 1 / 16)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_rate(p for p in pts)
    assert fit == fit_rate(pts)
    assert fit["slope"] == pytest.approx(0.5, abs=1e-12) and fit["points"] == 3


def test_study_config_validation():
    with pytest.raises(ConfigError):
        StudyConfig(eps_list=(0.25,))
    with pytest.raises(ConfigError):
        StudyConfig(k=0)
    # k and hole_poly must be integers (numpy's too, but not bool): a float k
    # used to crash inside ARPACK, True a TypeError later, a float hole_poly
    # the mesher
    for bad in ({"k": 2.5}, {"k": True}, {"k": np.float64(2.0)},
                {"hole_poly": 32.0}, {"hole_poly": True},
                {"cell_refine": True}, {"cell_refine": 2.5}):
        with pytest.raises(ConfigError, match="integer"):
            StudyConfig(**bad)
    # a mesh size that is not positive (or NaN) used to pass construction
    # and fail in the mesher
    for h in (-0.1, 0.0, float("nan")):
        with pytest.raises(ConfigError, match="h_ref"):
            StudyConfig(h_ref=h, eps_list=(1 / 4, 1 / 8), k=2)
    assert StudyConfig(k=np.int64(2), hole_poly=np.int32(24),
                       cell_refine=np.int64(2)).k == 2
    with pytest.raises(ConfigError):
        StudyConfig(modes=("EIGENVALUES", "BOGUS"))
    # a bad eps fails at construction, before any cell problem is solved
    with pytest.raises(ConfigError):
        StudyConfig(eps_list=(1 / 4, 0.3))
    for eps in (0.0, float("nan")):
        with pytest.raises(ConfigError, match="eps"):
            StudyConfig(eps_list=(1 / 4, eps))
    # so does a repeated one, which would leave one eps for the rate fits
    with pytest.raises(ConfigError, match="repeats"):
        StudyConfig(eps_list=(1 / 4, 1 / 4))
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


def test_eigenspace_skips_a_cut_first_cluster():
    # the thin A puts lambda_hom^1 and lambda_hom^2 in one cluster, which
    # k = 1 cuts: no gap is reported, as CORRECTOR aligns no cut cluster
    report = run_study(StudyConfig(k_rect=(0.02, 0.45, 0.98, 0.5), k=1,
                                   eps_list=(1 / 4, 1 / 8), modes=("EIGENSPACE",)))
    rows = report["body"]["rows"]
    assert [r["j"] for r in rows] == [1, 1]
    assert all(r["gap"] is None for r in rows)
    assert "gap_j1" not in report["body"]["rates"]


def test_header_reports_peak_memory(small_report):
    # the process's peak RSS goes in the header, outside the body bytes
    header = small_report["header"]
    assert header["peak_rss_mb"] > 0.0
    assert b"peak_rss_mb" not in body_bytes(small_report)


def test_header_reports_peak_memory_per_eps(small_report):
    # ru_maxrss at the end of each eps, in sweep order like the rows; a peak
    # so far never falls, and the study's own reading comes last
    per_eps = small_report["header"]["eps_peak_rss_mb"]
    assert [e["eps"] for e in per_eps] == [1 / 4, 1 / 8]
    peaks = [e["peak_rss_mb"] for e in per_eps]
    assert 0.0 < peaks[0] <= peaks[1] <= small_report["header"]["peak_rss_mb"]


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


@pytest.mark.parametrize("modes,per_eps", [(StudyConfig.modes, 1),
                                           (("EIGENVALUES", "EIGENSPACE"), 0)],
                         ids=["default_modes", "eigenspace_only"])
def test_one_corrector_batch_per_eps(monkeypatch, modes, per_eps):
    # every macro mode's corrector comes from one call per eps, and only the
    # CORRECTOR and VISIK modes read correctors
    calls = []
    build = corrector.build_corrector

    def counting(u_hom, a_mesh, sol, eps, bundle, cutoff):
        calls.append((eps, u_hom.shape))
        return build(u_hom, a_mesh, sol, eps, bundle, cutoff)

    monkeypatch.setattr(corrector, "build_corrector", counting)
    cfg = StudyConfig(eps_list=(1 / 4, 1 / 8), k=2, h_domain=0.5 / 32,
                      cell_refine=2, modes=modes)
    run_study(cfg)
    n_nodes = (32 + 1) ** 2   # nodal fields on the 32 x 32 macro grid
    assert calls == [(eps, (n_nodes, 2)) for eps in cfg.eps_list] * per_eps


def test_each_eps_bundle_is_freed_before_the_next(monkeypatch):
    # eps n's bundle (mesh, matrices, LUs) is collected before eps n + 1's
    # is built, in every mode
    build = spectral.build_perforated_bundle
    refs = []

    def tracking(cfg):
        assert [ref() for ref in refs] == [None] * len(refs), f"at eps={cfg.eps}"
        bundle = build(cfg)
        refs.extend((weakref.ref(bundle), weakref.ref(bundle.mesh)))
        return bundle

    monkeypatch.setattr(spectral, "build_perforated_bundle", tracking)
    cfg = StudyConfig(eps_list=(1 / 4, 1 / 6, 1 / 8), k=2, h_domain=0.5 / 32,
                      cell_refine=2)
    run_study(cfg)
    assert len(refs) == 2 * len(cfg.eps_list)


def test_eigenspace_temporaries_die_before_the_lab(monkeypatch):
    # the full-mesh mass, the extended fields and the interpolated macro
    # modes are freed before the lab's first pencil is factorized
    gap, trace = corrector.eigenspace_gap, lab.check_trace
    refs = []

    def tracking_gap(span_a, span_b, M_mass):
        refs[:] = [weakref.ref(x) for x in (span_a, span_b, M_mass)]
        return gap(span_a, span_b, M_mass)

    def checking_trace(bundle):
        assert len(refs) == 3 and [ref() for ref in refs] == [None] * 3
        return trace(bundle)

    monkeypatch.setattr(corrector, "eigenspace_gap", tracking_gap)
    monkeypatch.setattr(lab, "check_trace", checking_trace)
    run_study(StudyConfig(eps_list=(1 / 4, 1 / 8), k=2, h_domain=0.5 / 32,
                          cell_refine=2, modes=("EIGENSPACE", "LAB")))


def test_bundle_lus_are_dropped_before_the_checks_that_factorize(monkeypatch, lus):
    """Norm equivalence runs in each sector's visit in the eigensolve, with
    that sector's LU alive and no other, and makes none; VISIK runs after
    the solve on the K_eps U^1 summed in those visits, with no LU alive,
    and makes none.  No LU is alive when the hole extension, the trace,
    volsup or periodic-oscillation check starts."""
    started = []

    def watch(mod, name, at, borrows):
        # the bundle is argument `at`; a call that `borrows` finds alive
        # only the LU of the sector it is given and makes no LU
        real = getattr(mod, name)

        def wrapped(*args, **kw):
            sectors = args[at].sectors
            mine = kw.get("sectors", ())
            assert [s._lu is not None for s in sectors] == [s in mine for s in sectors], name
            before = len(lus)
            out = real(*args, **kw)
            assert not borrows or len(lus) == before, name
            started.append(name)
            return out
        monkeypatch.setattr(mod, name, wrapped)

    watch(corrector, "visik_check", 0, True)
    watch(lab, "check_norm_equivalence", 0, True)
    watch(harness, "_eigenspace_gap", 0, False)
    watch(lab, "check_trace", 0, False)
    watch(lab, "check_volsup", 0, False)
    watch(lab, "check_periodic_osc", 1, False)
    # k = 4: lambda_k lies above 1 / mu, so VISIK solves no further modes
    run_study(StudyConfig(eps_list=(1 / 4, 1 / 8), h_domain=0.5 / 32,
                          cell_refine=2))
    assert started == (["check_norm_equivalence"] * 3
                       + ["visik_check", "_eigenspace_gap", "check_trace",
                          "check_volsup", "check_periodic_osc"]) * 2


def _sectors(*dims):
    # one eps's E, A and B sector LUs, in the order they are made
    return [(dims[0], "c"), (dims[1], "f"), (dims[2], "f")]


# the cell problem and the two macro solves come first
_MACRO = [(1086, "f"), (3969, "f"), (3969, "f")]


@pytest.mark.parametrize("kw,made", [
    ({}, _MACRO + _sectors(300, 301, 300) + _sectors(300, 301, 300) + [(916, "f")]
     + _sectors(1232, 1233, 1232) + _sectors(1232, 1233, 1232) + [(3728, "f")]
     + _sectors(4992, 4993, 4992) + _sectors(4992, 4993, 4992) + [(15040, "f")]),
    (dict(eps_list=(1 / 16, 1 / 32), modes=("EIGENVALUES", "VISIK")),
     _MACRO + _sectors(4992, 4993, 4992) + _sectors(20096, 20097, 20096))],
    ids=["default", "certify"])
def test_study_makes_each_lu_with_no_other_alive(lus, kw, made):
    """VISIK (its K_eps U^1) and LAB (norm equivalence) read each eps's
    sector LUs in the eigensolve's visits, so each is made once: 24 LUs in
    the default study (per eps, after the sectors, the trace pencil in the
    three sectors, E first, and the volsup pencil; the hole extension makes
    none) and 9 when only VISIK runs.  Every LU is made with no other
    alive."""
    run_study(StudyConfig(**kw))
    assert [(n, kind) for n, kind, *_ in lus] == made
    assert [alive for *_, alive, _ in lus] == [0] * len(made)


def test_study_makes_no_full_size_matrix_under_an_lu(monkeypatch, lus):
    """While any LU is alive in a study, no matrix of the current perforated
    bundle's full reduced size is summed (`fem._accumulate`, which every
    fold and assembly goes through): the sectors fold their matrices from
    the cell, and R, and A and M where a check reads them, are made
    between LUs."""
    dims, under, between = [], [], []
    build, accumulate = spectral.build_perforated_bundle, fem._accumulate

    def building(cfg):
        bundle = build(cfg)
        dims.append(bundle.red.dim)
        return bundle

    def recording(n, i, j, vals):
        if dims:
            alive = any(ref() is not None for *_, ref in lus)
            (under if alive else between).append(n == dims[-1])
        return accumulate(n, i, j, vals)

    monkeypatch.setattr(spectral, "build_perforated_bundle", building)
    monkeypatch.setattr(fem, "_accumulate", recording)
    run_study(StudyConfig(eps_list=(1 / 4, 1 / 8), h_domain=0.5 / 32, cell_refine=2))
    assert len(dims) == 2
    assert under and not any(under)
    assert any(between)


_THREAD_VARS = ("HOMOGLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def test_study_pins_blas_threads_for_library_callers(study_report):
    """Called from Python with no thread variable set, OpenBLAS starts with a
    thread per core.  run_study pins numpy's and scipy's to one for the
    sweep and gives the caller's count back: the body is, byte for byte,
    the one-thread body of the same configuration."""
    script = (
        "import ctypes, hashlib\n"
        "from numpy._core import _multiarray_umath as m\n"
        "from homoglab.harness import StudyConfig, body_bytes, run_study\n"
        "count = ctypes.CDLL(m.__file__).scipy_openblas_get_num_threads64_\n"
        "before = count()\n"
        "report = run_study(StudyConfig())\n"
        "print(hashlib.sha256(body_bytes(report)).hexdigest(), before, count(),\n"
        "      *report['header']['blas_pinned'])\n")
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    digest, before, after, *pinned = out
    assert pinned == ["numpy", "scipy"]
    assert before == after
    assert digest == hashlib.sha256(body_bytes(study_report)).hexdigest()


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                 "OMP_NUM_THREADS"])
def test_blas_threads_chosen_by_the_caller_are_kept(monkeypatch, var):
    """A thread variable that OpenBLAS reads, set by the caller or by the
    CLI from HOMOGLAB_THREADS, leaves the counts alone; with none set,
    numpy's and scipy's are pinned for the sweep."""
    for name in _THREAD_VARS + ("GOTO_NUM_THREADS",):
        monkeypatch.delenv(name, raising=False)
    with harness._one_blas_thread() as pinned:
        assert pinned == ["numpy", "scipy"]
    monkeypatch.setenv(var, "2")
    with harness._one_blas_thread() as pinned:
        assert pinned == []


def test_visik_doubling_in_a_study_certifies(lus):
    """With k = 2, lambda_2 lies below 1 / mu, so VISIK solves further modes
    in the bundle's sectors after the eigensolve, their LUs made again, one
    at a time, and certifies on the K_eps U^1 summed in the visits."""
    report = run_study(StudyConfig(eps_list=(1 / 4, 1 / 8), k=2, h_domain=0.5 / 32,
                                   cell_refine=2, modes=("EIGENVALUES", "VISIK")))
    rows = [r for r in report["body"]["rows"] if r["j"] == 1]
    assert [r["visik_certificate"] for r in rows] == [True, True]
    # the cell problem, the two macro solves, then per eps the eigensolve's
    # three sector LUs and at least one more pass over the sectors
    assert len(lus) >= 3 + 2 * 6 and (len(lus) - 3) % 3 == 0
    assert [alive for *_, alive, _ in lus] == [0] * len(lus)


def test_eigenvalue_and_corrector_study_keeps_no_lu(monkeypatch, lus):
    # neither mode solves with the bundle again: each sector's LU dies with
    # its Lanczos run, and none is left on the bundles
    solve, bundles = spectral.solve_perforated_evp, []

    def keeping(cfg, k, **kw):
        spec, bundle = solve(cfg, k, **kw)
        bundles.append(bundle)
        return spec, bundle

    monkeypatch.setattr(spectral, "solve_perforated_evp", keeping)
    run_study(StudyConfig(eps_list=(1 / 4, 1 / 8), k=2, h_domain=0.5 / 32,
                          cell_refine=2, modes=("EIGENVALUES", "CORRECTOR")))
    # the three macro LUs, then one LU per sector of each bundle
    assert len(bundles) == 2
    assert [n for n, *_ in lus[3:]] == [s.dim for b in bundles for s in b.sectors]
    assert all(ref() is None for *_, ref in lus)


def test_numpy_scalar_config_reports_like_plain_numbers(tmp_path):
    """A config of numpy scalars is stored as Python numbers: the report
    body is the one plain numbers give, and it serializes."""
    plain = StudyConfig(eps_list=(1 / 4, 1 / 8), k=2, cell_refine=2,
                        modes=("EIGENVALUES",))
    scalars = StudyConfig(eps_list=(np.float32(1 / 4), np.float64(1 / 8)),
                          k=np.int64(2), cell_refine=np.int64(2),
                          hole_poly=np.int32(32), seed=np.int64(20240901),
                          hole_radius=np.float32(0.25), h_ref=np.float32(1 / 8),
                          modes=("EIGENVALUES",))
    for name in ("k", "cell_refine", "hole_poly", "seed"):
        assert type(getattr(scalars, name)) is int, name
    for name in ("hole_radius", "h_ref"):
        assert type(getattr(scalars, name)) is float, name
    assert all(type(e) is float for e in scalars.eps_list)
    report = run_study(scalars)
    assert body_bytes(report) == body_bytes(run_study(plain))
    emit(report, tmp_path, formats=("json", "csv"))


def _no_mesh(monkeypatch):
    def no_mesh(*args, **kwargs):
        raise AssertionError("mesh built for a config that must be refused")

    for name in ("build_cell_mesh", "build_domain_mesh", "build_perforated_mesh",
                 "tile_template"):
        monkeypatch.setattr(geometry, name, no_mesh)


@pytest.mark.parametrize("bad, error, match", [
    ({"hole_poly": 64}, GeometryError, "too coarse for a 64-gon hole"),
    ({"eps_list": (1 / 2, 1 / 4)}, ConfigError, "K covers every cell"),
])
def test_study_refused_before_any_mesh(bad, error, match, monkeypatch):
    """A polygon finer than the coarse template's rings, and a LAB sweep at
    an eps where K covers every cell, are refused at construction."""
    _no_mesh(monkeypatch)
    with pytest.raises(error, match=match):
        StudyConfig(**bad)


@pytest.mark.parametrize("make, bad, match", [
    (StudyConfig, {"k_rect": (0.25, 0.25, 0.75)}, "k_rect needs 4 values"),
    (StudyConfig, {"k_rect": 0.5}, "k_rect must be a sequence"),
    (StudyConfig, {"eps_list": 0.25}, "eps_list must be a sequence"),
    (StudyConfig, {"eps_list": (1 / 4, "1/8")}, "eps_list must be a real number"),
    (StudyConfig, {"hole_radius": "x"}, "hole_radius must be a real number"),
    (StudyConfig, {"h_ref": None}, "h_ref must be a real number"),
    (StudyConfig, {"h_domain": True}, "h_domain must be a real number"),
    (StudyConfig, {"modes": None}, "modes must be a sequence of names"),
    (StudyConfig, {"modes": 5}, "modes must be a sequence of names"),
    (StudyConfig, {"modes": "LAB"}, "modes must be a sequence of names"),
    (geometry.DomainConfig, {"eps": 1 / 4, "hole_radius": 0.25,
                             "k_rect": (0.25, 0.25, 0.75)}, "k_rect needs 4 values"),
    (geometry.DomainConfig, {"eps": 1 / 4, "hole_radius": 0.25, "k_rect": 0.5},
     "k_rect must be a sequence"),
    (geometry.DomainConfig, {"eps": "a", "hole_radius": 0.25}, "eps must be a real number"),
    (geometry.DomainConfig, {"eps": 1 / 4, "hole_radius": "x"},
     "hole_radius must be a real number"),
], ids=["study_k_rect_short", "study_k_rect_number", "study_eps_list_number",
        "study_eps_list_string", "study_hole_radius", "study_h_ref", "study_h_domain",
        "study_modes_none", "study_modes_number", "study_modes_string",
        "domain_k_rect_short", "domain_k_rect_number", "domain_eps", "domain_hole_radius"])
def test_malformed_config_refused_before_any_mesh(make, bad, match, monkeypatch):
    """A field of the wrong shape or type is a ConfigError at construction,
    not a raw ValueError or TypeError from unpacking or converting it."""
    _no_mesh(monkeypatch)
    with pytest.raises(ConfigError, match=match):
        make(**bad)


def test_lab_rule_only_with_lab():
    """K may cover every cell at some eps when the lab does not run."""
    cfg = StudyConfig(eps_list=(1 / 2, 1 / 4), modes=("EIGENVALUES", "CORRECTOR"))
    assert cfg.eps_list == (0.5, 0.25)


def test_no_hole_lab_values():
    """Without holes there is no Robin mass: the trace and volsup pencils
    have A = 0, so their constants are 0 (ARPACK is not asked), the
    oscillation of chi = 0 is 0 and the norm-equivalence constant is 1."""
    report = run_study(StudyConfig(hole_radius=0.0, eps_list=(1 / 4, 1 / 8),
                                   modes=("EIGENVALUES", "LAB")))
    want = {"trace": 0.0, "volsup": 0.0, "periodic_osc": 0.0, "norm_equivalence": 1.0}
    got = {}
    for row in report["body"]["lab"]:
        if row["check"] in want:
            got.setdefault(row["check"], []).append((row["eps"], row["worst_ratio"]))
            assert row["passed"], row
    assert got == {name: [(1 / 4, v), (1 / 8, v)] for name, v in want.items()}
