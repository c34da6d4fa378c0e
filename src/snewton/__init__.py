"""Refinement and classification of singular zeros of polynomial systems.

The package revolves around one idea: at a zero whose Jacobian is rank
deficient but whose one-round deflation is already regular, Newton's method
can be repaired by splitting the correction into a projection along the
regular directions and a small solve along the kernel directions.  See
``twostep`` for the iteration, ``dualspace`` for the multiplicity structure
and classification tests, ``lvz`` for the deflation baseline, and ``bench``
for the benchmark catalog and experiment runners.
"""

from .polycore import (
    Poly,
    PolyParseError,
    PolySystem,
    compose_affine,
    dir_hessian,
    parse_poly,
    parse_system,
)
from .numla import SingularMatrixError, SvdSplit, split_svd
from .dualspace import (
    DualSpaceReport,
    Functional,
    deflation_one_necessary,
    is_deflation_one,
    multiplicity_structure,
)
from .twostep import RefineTrace, StepConfig, StepResult, auto_tolerance, refine, two_step
from .lvz import AugmentedSystem, DeflatedSystem, GNTrace
from .lvz import deflate_once, deflate_to_regular, gauss_newton
from . import bench

__version__ = "0.1.0"

__all__ = [
    "Poly",
    "PolySystem",
    "PolyParseError",
    "parse_poly",
    "parse_system",
    "dir_hessian",
    "compose_affine",
    "SvdSplit",
    "SingularMatrixError",
    "split_svd",
    "Functional",
    "DualSpaceReport",
    "multiplicity_structure",
    "deflation_one_necessary",
    "is_deflation_one",
    "StepConfig",
    "StepResult",
    "RefineTrace",
    "auto_tolerance",
    "two_step",
    "refine",
    "AugmentedSystem",
    "DeflatedSystem",
    "GNTrace",
    "deflate_once",
    "deflate_to_regular",
    "gauss_newton",
    "bench",
]
