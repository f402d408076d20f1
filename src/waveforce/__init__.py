"""Identification of space-dependent wave-equation forces from boundary flux data.

The package solves the 1-D wave equation u_tt = c^2 u_xx + F(x, t) with an
explicit finite-difference scheme, and recovers unknown space profiles in a
separable source F = f(x) h(x, t) [+ g(x) theta(x, t)] from flux series
measured at the string ends. The discrete inverse problem is a severely
ill-conditioned dense linear system; Tikhonov regularization of orders
0/1/2 with L-curve weight selection stabilizes it against data noise.
"""

__version__ = "0.1.0"

from .errors import (
    CFLViolation,
    DegenerateCurve,
    DimensionMismatch,
    IncompatibleData,
    InvalidDimension,
    SingularSystem,
    UnderdeterminedSystem,
    UnknownExample,
    UnresolvedForce,
    WaveforceError,
    ZeroMatrix,
)
from .model import (
    LEFT,
    RIGHT,
    BoundaryData,
    FluxSeries,
    ForceVector,
    GridSpec,
    InitialData,
    KnownForce,
    Source,
    WaveField,
    WaveProblem,
    sample_grid,
)
from .fdm import flux, solve_direct
from .noise import NoiseSpec, add_noise, noise_sigma
from .inverse import InverseSystem, assemble_dual, assemble_single
from .tikhonov import (
    RegConfig,
    accuracy_error,
    condition_number,
    difference_operator,
    tikhonov_solve,
)
from .lcurve import (
    DEFAULT_LAMBDA_GRID,
    EXTENDED_LAMBDA_GRID,
    LCurvePoint,
    corner,
    sweep,
)
from .benchmarks import (
    ALL_EXAMPLES,
    REFERENCE_CONDITION_NUMBERS,
    REFERENCE_FLUX_TIMES,
    REFERENCE_LEFT_FLUX,
    REFERENCE_REGULARIZATION,
    ExampleSpec,
    direct_problem,
    exact_field,
    exact_force,
    example_spec,
    inverse_problem,
    measured_flux,
)

__all__ = [name for name in dir() if not name.startswith("_")]
