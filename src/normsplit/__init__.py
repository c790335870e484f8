"""Generalized solutions for the sum of two maximally monotone operators.

Computes the infimal displacement vector of the Douglas-Rachford splitting
operator of a pair (A, B) and solves the resulting perturbed ("normal")
problem, with resolvent calculus, shift perturbations, and Attouch-Thera
duality available as first-class operations.
"""

from .errors import (
    DimensionMismatchError,
    InconsistentSystemError,
    NonFiniteIterateError,
    PreconditionError,
    ProblemFormatError,
    SingularSystemError,
)
from .operators import (
    AffineMonotone,
    AffineSubspace,
    Ball,
    Box,
    ConstantValued,
    EpigraphExp,
    FlipBoth,
    Halfspace,
    InnerShift,
    Inverse,
    NormalCone,
    OperatorSpec,
    OuterShift,
    ProjectableSet,
    Zero,
    compile_resolvent,
    membership,
    project,
    resolvent,
)
from .splitting import (
    IterationTrace,
    OrbitEnd,
    OperatorPair,
    SolveOptions,
    SolveReport,
    dr_apply,
    estimate_v,
    solve_normal,
    solve_perturbed,
)
from .duality import PrimalDualPair, dual_pair, psi, psi_inv
from .scenarios import (
    OracleResult,
    Scenario,
    alternating_projections,
    build_registry,
    get_scenario,
    scenario_affine,
    scenario_constants,
    scenario_least_squares,
    scenario_rotators,
    scenario_two_sets,
)
from . import vecspace

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
