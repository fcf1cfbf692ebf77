"""Finite-element laboratory for spectral homogenization of a Neumann-Robin
eigenproblem on periodically perforated planar domains."""

from .cell import CellSolution, compute_ahom, eval_chi, fhom, solve_cell_problem
from .corrector import (AlignmentResult, VisikResult, align_eigenspaces,
                        build_corrector, eigenspace_gap, visik_check)
from .eigensolve import Spectrum, solve_gevp, solve_source
from .errors import (AlignmentError, AssemblyError, ConfigError,
                     ConstraintError, GeometryError, HomoglabError,
                     MeshInternalError, SolverError)
from .geometry import (DomainConfig, Mesh, build_cell_mesh, build_domain_mesh,
                       build_perforated_mesh, locate_point, tile_template)
from .harness import StudyConfig, emit, fit_rate, run_study
from .spectral import (DiscreteOperatorBundle, apply_Keps, extend_Teps,
                       solve_dirichlet_laplacian, solve_homogenized_evp,
                       solve_perforated_evp)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError", "AlignmentResult", "AssemblyError", "CellSolution",
    "ConfigError", "ConstraintError", "DiscreteOperatorBundle",
    "DomainConfig", "GeometryError", "HomoglabError", "Mesh",
    "MeshInternalError", "SolverError",
    "Spectrum", "StudyConfig", "VisikResult", "align_eigenspaces",
    "apply_Keps", "build_cell_mesh", "build_corrector", "build_domain_mesh",
    "build_perforated_mesh", "compute_ahom", "eigenspace_gap", "emit",
    "eval_chi", "extend_Teps", "fhom", "fit_rate", "locate_point",
    "run_study", "solve_cell_problem",
    "solve_dirichlet_laplacian", "solve_gevp", "solve_homogenized_evp",
    "solve_perforated_evp", "solve_source", "tile_template",
    "visik_check", "__version__",
]
