"""The package's exported names, and the binding sites the benchmark's
tracer wraps."""

import importlib.util
import sys
from pathlib import Path

import pytest

import homoglab
from homoglab import DomainConfig, StudyConfig, cell, eigensolve, harness

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_TRACING = _PERFBENCH / "tracing.py"


def _load(path: Path):
    """A perfbench module, loaded from its file without running perfbench;
    it is registered while it runs, as its dataclasses look it up."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_all_names_resolve_once():
    """Every name in `__all__` is defined and listed once, so a deleted
    function cannot linger there and break `from homoglab import *`."""
    names = homoglab.__all__
    assert sorted(set(names)) == sorted(names)
    assert [n for n in names if not hasattr(homoglab, n)] == []


def test_benchmark_tracer_installs_and_restores():
    """perfbench's tracer wraps every traced function at each of its
    binding sites and puts the originals back.  `install` refuses to run
    when a required `from .x import f` site is gone (say `cell.solve_source`),
    so a refactor that drops one fails here, not in the benchmark run."""
    tracing = _load(_TRACING)
    solve_source, solve_cell_problem = cell.solve_source, harness.solve_cell_problem
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sites = set(tracer.site_names())
        assert set(tracing.REQUIRED_SITES) <= sites
        assert set(tracing.FUNCTIONS) <= sites   # each at its own module
        assert cell.solve_source is not solve_source
    finally:
        assert tracer.restore() == []
    assert cell.solve_source is solve_source is eigensolve.solve_source
    assert harness.solve_cell_problem is solve_cell_problem


# small analogues of the benchmark's workloads: the same calls on coarser inputs
_SMALL_INPUTS = {
    "study_default": lambda: StudyConfig(eps_list=(1 / 4, 1 / 8), h_domain=0.5 / 32,
                                         cell_refine=2),
    "deep_eigen": lambda: DomainConfig(eps=1 / 8, hole_radius=0.25),
    "study_certify": lambda: StudyConfig(eps_list=(1 / 4, 1 / 8), h_domain=0.5 / 32,
                                         cell_refine=2, modes=("EIGENVALUES", "VISIK")),
}


@pytest.mark.parametrize("name", sorted(_SMALL_INPUTS))
def test_benchmark_workloads_call_every_must_run_function(name):
    """Each benchmark workload's call, on a small analogue of its inputs and
    under perfbench's tracer, records a call of every function its
    `must_run` lists, and its probes read the results; so a restructure
    that bypasses a traced function fails here, not in a traced benchmark
    run.  The summary takes the result as the benchmark's check does."""
    tracing, workloads = _load(_TRACING), _load(_PERFBENCH / "workloads.py")
    work = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = work.call(_SMALL_INPUTS[name]())
    finally:
        assert tracer.restore() == []
    assert [q for q in work.must_run if tracer.stats[q][0] == 0] == []
    metrics = tracer.metrics(work.reported_modes(result))
    assert metrics["eigensolve.lu_fill"] > 1.0
    assert work.summarize(result)
