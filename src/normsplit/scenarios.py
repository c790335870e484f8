"""Prebuilt problem instances with independent oracles for their answers.

Every scenario packages an operator pair together with an oracle that
computes the expected infimal displacement vector (and a normal solution
where one exists) WITHOUT touching the splitting machinery: alternating
projections for set pairs, closed rotator formulas, the normal equations
for least squares, and a least-norm quadratic program for general
monotone affine pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .operators import (
    AffineMonotone,
    AffineSubspace,
    Ball,
    Box,
    ConstantValued,
    EpigraphExp,
    Halfspace,
    NormalCone,
    ProjectableSet,
    project,
)
from .splitting import OperatorPair, SolveOptions
from .vecspace import as_matrix, as_vector, least_norm, nullspace

AP_MAX_ROUNDS = 1_000_000
AP_TOL = 1e-12


@dataclass(frozen=True)
class OracleResult:
    """Independently computed answer: gap vector, solution, attainment flag."""

    v: np.ndarray
    normal_solution: Optional[np.ndarray]
    attained: bool


@dataclass(frozen=True, eq=False)
class Scenario:
    name: str
    pair: OperatorPair
    oracle: Callable[[], OracleResult]
    tolerance: float
    expected_v: Optional[np.ndarray] = None
    expected_v_note: str = ""
    solution_note: str = ""
    solve_opts: SolveOptions = field(default_factory=SolveOptions)


def alternating_projections(u_set: ProjectableSet, v_set: ProjectableSet,
                            max_rounds: int = AP_MAX_ROUNDS) -> OracleResult:
    """Classical alternating projections between two closed convex sets, from 0.

    The difference of the two limiting sides estimates the gap vector
    (minimal-norm element of cl(V - U)); the V-side limit is a fixed point
    of P_V P_U when one exists. Budget exhaustion with the iterates still
    moving is reported as non-attainment evidence, not proof.
    """
    u = project(u_set, np.zeros(u_set.dim))
    v = project(v_set, u)
    attained = False
    for _ in range(max_rounds):
        u_next = project(u_set, v)
        v_next = project(v_set, u_next)
        move = max(
            float(np.linalg.norm(u_next - u)), float(np.linalg.norm(v_next - v))
        )
        u, v = u_next, v_next
        if move <= AP_TOL:
            attained = True
            break
    return OracleResult(
        v=v - u,
        normal_solution=v if attained else None,
        attained=attained,
    )


def rotator_matrix() -> np.ndarray:
    """Quarter-turn rotation (x, y) -> (-y, x)."""
    return np.array([[0.0, -1.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# scenario builders
# ---------------------------------------------------------------------------

def scenario_two_sets(u_set: ProjectableSet, v_set: ProjectableSet,
                      name: str = "two-sets", tolerance: float = 1e-6,
                      ap_rounds: int = AP_MAX_ROUNDS, **extra) -> Scenario:
    """Feasibility pair (N_U, N_V); oracle is alternating projections."""
    return Scenario(
        name=name,
        pair=OperatorPair(NormalCone(u_set), NormalCone(v_set)),
        oracle=lambda: alternating_projections(u_set, v_set, max_rounds=ap_rounds),
        tolerance=tolerance,
        **extra,
    )


def scenario_rotators(astar, bstar, name: str = "rotators", **extra) -> Scenario:
    """Pair A = L + astar, B = -L - bstar with L the quarter-turn rotator.

    Both splitting operators are pure translations, so the closed forms are
    exact: v(A,B) = (Id - L)(astar - bstar) / 2 and, swapping the order,
    v(B,A) = (Id + L)(astar - bstar) / 2. The two vectors are orthogonal
    with equal norms, and every point solves the normal problem.
    """
    astar = as_vector(astar, dim=2)
    bstar = as_vector(bstar, dim=2)
    rot = rotator_matrix()
    v_ab = 0.5 * (np.eye(2) - rot) @ (astar - bstar)

    def oracle() -> OracleResult:
        return OracleResult(v=v_ab.copy(), normal_solution=np.zeros(2), attained=True)

    return Scenario(
        name=name,
        pair=OperatorPair(AffineMonotone(rot, astar), AffineMonotone(-rot, -bstar)),
        oracle=oracle,
        tolerance=1e-7,
        expected_v=v_ab,
        expected_v_note="closed form (Id - L)(astar - bstar) / 2",
        solution_note="every point solves the normal problem",
        **extra,
    )


def scenario_constants(astar, bstar, name: str = "constants", **extra) -> Scenario:
    """Constant-valued pair; v is astar + bstar in either order."""
    astar = as_vector(astar)
    bstar = as_vector(bstar, dim=astar.size)
    total = astar + bstar

    def oracle() -> OracleResult:
        # ran(Id - T) is the single point astar + bstar
        return OracleResult(v=total.copy(), normal_solution=np.zeros(astar.size), attained=True)

    return Scenario(
        name=name,
        pair=OperatorPair(ConstantValued(astar), ConstantValued(bstar)),
        oracle=oracle,
        tolerance=1e-9,
        expected_v=total,
        expected_v_note="sum of the two constant values",
        solution_note="every point solves the normal problem",
        **extra,
    )


def scenario_least_squares(m, b, name: str = "least-squares", **extra) -> Scenario:
    """Linear system m x = b posed as the pair (constant -b, linear m).

    Normal solutions are exactly the least squares solutions; the oracle
    solves the normal equations m^T m x = m^T b, so m x = P_ran(m) b and
    the gap is v = m x - b.
    """
    m = as_matrix(m, square=True)
    b = as_vector(b, dim=m.shape[0])

    def oracle() -> OracleResult:
        x = least_norm(m.T @ m, m.T @ b)
        return OracleResult(v=m @ x - b, normal_solution=x, attained=True)

    return Scenario(
        name=name,
        pair=OperatorPair(ConstantValued(-b), AffineMonotone(m, np.zeros(m.shape[0]))),
        oracle=oracle,
        tolerance=1e-7,
        solution_note="any least squares solution; z need only satisfy the normal equations",
        **extra,
    )


def affine_least_norm_witness(l_mat, astar, m_mat, bstar) -> tuple[np.ndarray, np.ndarray]:
    """Least-norm w with (Id + L) w - (L + M) x = astar + bstar solvable in x.

    Eliminates x: the constraint holds for some x iff the component of
    (Id + L) w - (astar + bstar) orthogonal to ran(L + M) vanishes, which is
    a small underdetermined linear system in w. Returns (w, x) with x a
    minimum-norm choice recovered from the constraint. `least_norm` tests
    both solves' residuals, and gives w = 0 when L + M is nonsingular.
    """
    l_mat = as_matrix(l_mat, square=True)
    m_mat = as_matrix(m_mat, square=True)
    dim = l_mat.shape[0]
    astar = as_vector(astar, dim=dim)
    bstar = as_vector(bstar, dim=dim)
    sum_lm = l_mat + m_mat
    id_l = np.eye(dim) + l_mat
    rhs = astar + bstar
    perp = nullspace(sum_lm.T)
    w = least_norm(perp.T @ id_l, perp.T @ rhs)
    x = least_norm(sum_lm, id_l @ w - rhs)
    return w, x


def scenario_affine(l_mat, astar, m_mat, bstar, name: str = "affine", **extra) -> Scenario:
    """General monotone affine pair; oracle is the least-norm witness program."""
    pair = OperatorPair(AffineMonotone(l_mat, astar), AffineMonotone(m_mat, bstar))

    def oracle() -> OracleResult:
        w, x = affine_least_norm_witness(l_mat, astar, m_mat, bstar)
        return OracleResult(v=w, normal_solution=x, attained=True)

    return Scenario(name=name, pair=pair, oracle=oracle, tolerance=1e-5, **extra)


# ---------------------------------------------------------------------------
# named registry
# ---------------------------------------------------------------------------

def build_registry() -> dict[str, Callable[[], Scenario]]:
    """Named scenario factories, addressable from the command line."""
    return {
        "overlapping-balls": lambda: scenario_two_sets(
            Ball([0.0, 0.0], 2.0),
            Ball([3.0, 0.0], 2.0),
            name="overlapping-balls",
            expected_v=np.zeros(2),
            expected_v_note="sets intersect, so the original problem is recovered",
        ),
        "disjoint-balls": lambda: scenario_two_sets(
            Ball([0.0, 0.0], 1.0),
            Ball([3.0, 0.0], 1.0),
            name="disjoint-balls",
            expected_v=np.array([1.0, 0.0]),
            expected_v_note="unit gap between the balls, pointing U to V",
        ),
        "two-lines": lambda: scenario_two_sets(
            AffineSubspace([0.0, 0.0], [[1.0, 0.0]]),
            AffineSubspace([0.0, 1.0], [[1.0, 0.0]]),
            name="two-lines",
            tolerance=1e-9,
            expected_v=np.array([0.0, 1.0]),
            expected_v_note="vertical gap between parallel horizontal lines",
            solution_note="any point of the upper line",
        ),
        "box-halfspace": lambda: scenario_two_sets(
            Box([-1.0, -1.0], [1.0, 1.0]),
            Halfspace([-1.0, 0.0], -3.0),
            name="box-halfspace",
            expected_v=np.array([2.0, 0.0]),
            expected_v_note="gap from the box face x1 = 1 to the halfspace x1 >= 3",
        ),
        "epigraph": lambda: scenario_two_sets(
            AffineSubspace([0.0, 0.0], [[1.0, 0.0]]),
            EpigraphExp(1.0),
            name="epigraph",
            tolerance=5e-2,
            ap_rounds=20_000,
            solution_note="gap vector exists but is never attained",
            solve_opts=SolveOptions(max_iter=100_000),
        ),
        "rotators-default": lambda: scenario_rotators(
            [1.0, 0.0], [0.0, 0.0], name="rotators-default"
        ),
        "constants-default": lambda: scenario_constants(
            [1.0, 2.0], [3.0, 4.0], name="constants-default"
        ),
        "least-squares-default": lambda: scenario_least_squares(
            [[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0], name="least-squares-default"
        ),
        "affine-default": lambda: scenario_affine(
            [[1.0, 0.0], [1.0, 1.0]],
            [1.0, 0.0],
            [[0.0, -1.0], [1.0, 0.0]],
            [0.0, 1.0],
            name="affine-default",
        ),
    }


def get_scenario(name: str) -> Scenario:
    registry = build_registry()
    if name not in registry:
        known = ", ".join(sorted(registry))
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}")
    return registry[name]()
