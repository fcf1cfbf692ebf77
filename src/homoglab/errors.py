"""Exception hierarchy shared by all homoglab modules."""

from collections.abc import Sequence
from numbers import Integral, Real


class HomoglabError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(HomoglabError):
    """Invalid user-supplied configuration (eps not 1/n, bad rectangle, ...)."""


def config_int(name: str, value, least: int) -> int:
    """`value` as an int; ConfigError unless an integer (not a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def config_float(name: str, value) -> float:
    """`value` as a float; ConfigError unless a real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return float(value)


def config_floats(name: str, values, count: int | None = None) -> tuple:
    """`values` as a tuple of floats, `count` of them when given;
    ConfigError unless a sequence of real numbers."""
    try:
        values = tuple(values)
    except TypeError:
        raise ConfigError(f"{name} must be a sequence of real numbers, "
                          f"got {values!r}") from None
    if count is not None and len(values) != count:
        raise ConfigError(f"{name} needs {count} values, got {len(values)}")
    return tuple(config_float(name, v) for v in values)


def config_names(name: str, values, allowed) -> tuple:
    """`values` as a tuple; ConfigError unless a non-string sequence of `allowed`."""
    if (isinstance(values, str) or not isinstance(values, Sequence)
            or not all(isinstance(v, str) for v in values)):
        raise ConfigError(f"{name} must be a sequence of names, got {values!r}")
    unknown = sorted(set(values) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {name} {unknown}")
    return tuple(values)


class GeometryError(HomoglabError):
    """Geometric precondition violated (hole touches the cell boundary, ...)."""


class MeshInternalError(HomoglabError):
    """Mesh generation produced an inconsistent triangulation."""


class AssemblyError(HomoglabError):
    """Finite-element assembly failed (degenerate triangle)."""


class ConstraintError(HomoglabError):
    """Conflicting or degenerate constraint specification."""


class SolverError(HomoglabError):
    """Linear or eigenvalue solver failed or did not converge."""


class AlignmentError(HomoglabError):
    """Eigenspace alignment failed (rank-deficient cross Gram matrix)."""
