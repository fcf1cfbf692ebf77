"""The package's exported names, and the binding sites the benchmark's
tracer wraps."""

import importlib.util
from pathlib import Path

import homoglab
from homoglab import cell, eigensolve, harness

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
