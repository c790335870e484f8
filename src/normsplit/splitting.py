"""Douglas-Rachford splitting, infimal displacement estimation, normal solves.

For a pair (A, B) of maximally monotone operators the splitting operator is

    T = J_A (2 J_B - Id) + Id - J_B,

firmly nonexpansive, equivalently (Id + R_A R_B) / 2. Its displacement map
Id - T has convex closed range; the unique minimal-norm element v of that
closure is the infimal displacement vector. Along any orbit x_{n+1} = T x_n
both estimators

    v_diff(n)   = x_n - x_{n+1}        (norm non-increasing in n)
    v_cesaro(n) = -x_n / n

converge to v. The w-perturbed problem "find x with w in A(x - w) + Bx" is
governed by the argument-shifted map x -> T(x + w): from one of its fixed
points x the solution is read off the shadow z = J_B(x + w), with dual
certificate k = x - z satisfying k + w in Bz and -k in A(z - w). The normal
problem is the w-perturbed problem at w = v, solved here in two phases:
estimate v along the plain orbit, then iterate the v-shifted map.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import NonFiniteIterateError, PreconditionError
from .operators import (
    Inverse,
    OperatorSpec,
    compile_resolvent,
    membership,
    resolvent,
)
from .vecspace import as_vector

CONVERGED = "converged"
NO_FIXED_POINT = "no_fixed_point_detected"
MAX_ITER = "max_iter"

# tail fraction that must be straight-line drift to count as divergence evidence
_DRIFT_RATIO = 0.9
# trace rows allocated up front; the arrays double when full
_FIRST_ROWS = 256


@dataclass(frozen=True, eq=False)
class OperatorPair:
    """Ordered operator pair; order matters for duality and for v."""

    A: OperatorSpec
    B: OperatorSpec

    def __post_init__(self):
        if self.A.dim != self.B.dim:
            raise ValueError(
                f"operators live in different dimensions: {self.A.dim} vs {self.B.dim}"
            )

    @property
    def dim(self) -> int:
        return self.A.dim

    def swapped(self) -> "OperatorPair":
        return OperatorPair(self.B, self.A)

    @cached_property
    def _complement(self) -> "OperatorPair":
        # (A^-1, B), built once so that complement_is_dr reuses its compiled form
        return OperatorPair(Inverse(self.A), self.B)


@dataclass(frozen=True)
class SolveOptions:
    """Iteration budgets and tolerances; defaults are generous for desk scale."""

    max_iter: int = 200_000
    tol_v: float = 1e-8
    tol_fix: float = 1e-9
    window: int = 50
    r_max: float = 1e8


class OrbitEnd:
    """Where an orbit stopped: its row count and both v estimators there.

    v_diff is the last displacement x_{N-1} - x_N and v_cesaro the last
    Cesaro estimate -x_{N-1} / (N - 1), or -x_1 when N = 1. A solve run
    without a trace keeps only this of each phase; len() is N.
    """

    def __init__(self, rows: int, v_diff: np.ndarray, v_cesaro: np.ndarray):
        self.rows = rows
        self.v_diff = v_diff
        self.v_cesaro = v_cesaro

    def __len__(self) -> int:
        return self.rows


class IterationTrace(OrbitEnd):
    """Per-step orbit record, stored column-wise; its last row is its OrbitEnd.

    Row n describes the governing iterate x_n: the shadow J_B(x_n + w), the
    displacement x_n - T(x_n + w), and both v estimators. Along an orbit the
    v_diff estimator coincides with the displacement, so the two fields read
    the same column. The Cesaro column holds -x_n / n; row 0, where that is
    undefined, seeds it with -x_1.
    """

    def __init__(self, xs, shadows, displacements, v_cesaros):
        super().__init__(xs.shape[0], displacements[-1], v_cesaros[-1])
        self.xs = xs
        self.shadows = shadows
        self.displacements = displacements
        self.v_cesaros = v_cesaros

    @property
    def v_diffs(self) -> np.ndarray:
        return self.displacements

    def displacement_norms(self) -> np.ndarray:
        return np.linalg.norm(self.displacements, axis=1)

    def to_csv(self, path) -> None:
        dim = self.xs.shape[1]
        d_norms = self.displacement_norms()
        c_norms = np.linalg.norm(self.v_cesaros, axis=1)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["n"]
                + [f"x_{j}" for j in range(dim)]
                + [f"shadow_{j}" for j in range(dim)]
                + ["displacement_norm", "v_diff_norm", "v_cesaro_norm"]
            )
            for i in range(len(self)):
                writer.writerow(
                    [i]
                    + [repr(float(v)) for v in self.xs[i]]
                    + [repr(float(v)) for v in self.shadows[i]]
                    + [
                        repr(float(d_norms[i])),
                        repr(float(d_norms[i])),
                        repr(float(c_norms[i])),
                    ]
                )


@dataclass(eq=False)
class SolveReport:
    """Outcome of a perturbed or normal solve, with membership certificates."""

    v_estimate: np.ndarray
    v_residual: float
    status: str
    normal_solution: Optional[np.ndarray]
    governing_point: Optional[np.ndarray]
    dual_solution: Optional[np.ndarray]
    certificates: dict
    iterations_used: int
    trace: Optional[IterationTrace] = field(default=None, repr=False)
    v_trace: Optional[IterationTrace] = field(default=None, repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SolveReport):
            return NotImplemented

        def same(a, b):
            if a is None or b is None:
                return (a is None) == (b is None)
            return np.array_equal(a, b)

        return (
            same(self.v_estimate, other.v_estimate)
            and self.v_residual == other.v_residual
            and self.status == other.status
            and same(self.normal_solution, other.normal_solution)
            and same(self.governing_point, other.governing_point)
            and same(self.dual_solution, other.dual_solution)
            and self.certificates == other.certificates
            and self.iterations_used == other.iterations_used
        )


# ---------------------------------------------------------------------------
# the splitting operator
# ---------------------------------------------------------------------------

def dr_apply(pair: OperatorPair, x: np.ndarray) -> np.ndarray:
    """One application of T = J_A R_B + Id - J_B; firmly nonexpansive."""
    x = as_vector(x, dim=pair.dim)
    jb = compile_resolvent(pair.B).apply(x)
    return compile_resolvent(pair.A).apply(2.0 * jb - x) + x - jb


def dr_map_shifted(pair: OperatorPair, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The splitting operator of the w-perturbation: x -> T(x + w).

    Pointwise equal to dr_apply on the pair (<w>A, B<w>).
    """
    return dr_apply(pair, as_vector(x, dim=pair.dim) + as_vector(w, dim=pair.dim))


def complement_is_dr(pair: OperatorPair, x: np.ndarray) -> np.ndarray:
    """Id - T realized as the splitting operator of (A^-1, B)."""
    return dr_apply(pair._complement, x)


# ---------------------------------------------------------------------------
# the iteration loop shared by both solve phases
# ---------------------------------------------------------------------------

def _grown(rows: np.ndarray, capacity: int) -> np.ndarray:
    out = np.empty((capacity, rows.shape[1]))
    out[: rows.shape[0]] = rows
    return out


def _check_finite(x_next: np.ndarray, n: int) -> None:
    if not np.all(np.isfinite(x_next)):
        raise NonFiniteIterateError(n)


# the loop reports a non-finite iterate itself, as NonFiniteIterateError
@np.errstate(over="ignore", invalid="ignore")
def _orbit(pair: OperatorPair, x0, w: Optional[np.ndarray], max_iter: int,
           tol: float, window: int = 0, r_max: float = math.inf,
           record: bool = False):
    """Iterate x -> T(x + w), or plain T when w is None.

    With w None (phase 1) the loop stops once the displacement x_n - x_{n+1}
    moved at most `tol` over the trailing `window` steps. Otherwise (phase 2)
    it stops at the first certified fixed point, |x - T(x + w)| <= tol with
    both membership certificates, or when |T(x + w)| exceeds r_max; an orbit
    that spends the budget N = max_iter is declared drifting when
    |x_{N-1} - x_{N-1-k}| is at least _DRIFT_RATIO times the path length
    |x_{N-1-k} - x_{N-k}| + ... + |x_{N-2} - x_{N-1}|, k = min(1000, N // 4),
    while |x_{N-1} - x_N| > tol; N < 100 steps are too few for that verdict.
    A non-finite iterate raises NonFiniteIterateError. The checks that catch
    it reuse the norms the stop rules take anyway; only phase 1's first
    `window` steps, which have no window norm yet, take one extra dot
    product each.

    Only what the stop rules read is kept: phase 1 a ring of the last
    `window` displacements, phase 2 the iterate x_{N-1-k} and a running sum
    of displacement norms. With `record` every row also goes into an
    IterationTrace.

    Returns (end, status, certificates, solution). end is an OrbitEnd, the
    IterationTrace itself when recording; status is CONVERGED or
    NO_FIXED_POINT (blow-up or drift) when phase 2 stops so, else MAX_ITER;
    certificates are the last ones checked, and solution is the certified
    (x, z, k) or None.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    estimating = w is None
    if estimating and window < 1:
        raise ValueError("window must be at least 1")
    dim = pair.dim
    apply_a = compile_resolvent(pair.A).apply
    apply_b = compile_resolvent(pair.B).apply
    x_next = np.zeros(dim) if x0 is None else as_vector(x0, dim=dim).copy()
    sqrt, inf = math.sqrt, math.inf
    # displacement n - window sits at n % window; n never reaches max_iter
    ring = [None] * min(window, max_iter)
    # the drift verdict reads x_{N-1-k} and the norms of rows N-1-k .. N-2
    last = max_iter - 1
    drift_from = last - min(1000, max_iter // 4) if max_iter >= 100 else max_iter
    path = 0.0
    if record:
        capacity = min(max_iter, _FIRST_ROWS)
        xs, shadows, disps = (np.empty((capacity, dim)) for _ in range(3))
    status, certificates, solution = MAX_ITER, {}, None
    for n in range(max_iter):
        x = x_next
        y = x if estimating else x + w
        jb = apply_b(y)
        x_next = apply_a(jb + jb - y) + y - jb  # jb + jb is 2 jb exactly
        disp = x - x_next
        if record:
            if n == capacity:
                capacity = min(2 * capacity, max_iter)
                xs, shadows, disps = (_grown(a, capacity) for a in (xs, shadows, disps))
            xs[n] = x
            shadows[n] = jb
            disps[n] = disp
        if estimating:
            slot = n % window
            if n >= window:
                d = disp - ring[slot]
                size = sqrt(d.dot(d))
                if size <= tol:
                    break
            else:
                size = disp.dot(disp)
            ring[slot] = disp
            if not size < inf:
                _check_finite(x_next, n)
        else:
            size = sqrt(disp.dot(disp))
            if size <= tol:
                k = x - jb
                certificates = {
                    "b_side": membership(pair.B, jb, k + w),
                    "a_side": membership(pair.A, jb - w, -k),
                }
                if all(certificates.values()):
                    status, solution = CONVERGED, (x, jb, k)
                    break
            if not sqrt(x_next.dot(x_next)) <= r_max:
                _check_finite(x_next, n)
                status = NO_FIXED_POINT
                break
            if n >= drift_from:
                if n == drift_from:
                    x_from = x
                if n < last:
                    path += size
    else:  # the budget is spent: phase 2 takes the drift verdict
        if path > 0.0 and size > tol:
            net = x - x_from
            if sqrt(net.dot(net)) / path >= _DRIFT_RATIO:
                status = NO_FIXED_POINT

    rows = n + 1
    if not record:
        cesaro = x / -(rows - 1) if rows > 1 else -x_next
        return OrbitEnd(rows, disp, cesaro), status, certificates, solution
    xs, shadows, disps = xs[:rows], shadows[:rows], disps[:rows]
    # Cesaro estimates -x_n / n; row 0 seeds them with -x_1
    cesaros = np.empty_like(xs)
    np.negative(xs[1] if rows > 1 else x_next, out=cesaros[0])
    np.divide(xs[1:], -np.arange(1, rows)[:, None], out=cesaros[1:])
    return IterationTrace(xs, shadows, disps, cesaros), status, certificates, solution


# ---------------------------------------------------------------------------
# infimal displacement vector
# ---------------------------------------------------------------------------

def estimate_v(pair: OperatorPair, x0=None, max_iter: int = 200_000,
               tol_v: float = 1e-8, window: int = 50, record: bool = False,
               ) -> tuple[np.ndarray, OrbitEnd]:
    """Estimate v along the orbit x_{n+1} = T x_n.

    The difference estimator x_n - x_{n+1} is primary: its norm is
    non-increasing and it converges to v in norm. Iteration stops once the
    estimator has moved less than tol_v over the trailing window, else at
    max_iter. The returned OrbitEnd has the row count and the Cesaro
    estimator -x_n / n as a cross-check; with `record` it is the full
    IterationTrace. Without it, memory is O(window * dim) whatever max_iter
    is. Raises NonFiniteIterateError if the orbit overflows.
    """
    end = _orbit(pair, x0, None, max_iter, tol_v, window=window, record=record)[0]
    return end.v_diff.copy(), end


def norm_symmetry_check(pair: OperatorPair, x0=None,
                        opts: SolveOptions | None = None) -> tuple[float, float]:
    """Norms of the v estimates for (A, B) and (B, A); the exact v's have equal norms."""
    opts = opts or SolveOptions()
    v_ab, _ = estimate_v(pair, x0, opts.max_iter, opts.tol_v, opts.window)
    v_ba, _ = estimate_v(pair.swapped(), x0, opts.max_iter, opts.tol_v, opts.window)
    return float(np.linalg.norm(v_ab)), float(np.linalg.norm(v_ba))


def range_witness(pair: OperatorPair, z: np.ndarray) -> np.ndarray:
    """A vector w = z - J_A z guaranteed to lie in ran(Id - T), given 0 in Bz.

    The w-perturbed problem for such w is solvable; callers can feed the
    result straight into solve_perturbed.
    """
    z = as_vector(z, dim=pair.dim)
    if not membership(pair.B, z, np.zeros(pair.dim)):
        raise PreconditionError("range_witness needs 0 in B(z); membership check failed")
    return z - resolvent(pair.A, z)


# ---------------------------------------------------------------------------
# perturbed and normal solves
# ---------------------------------------------------------------------------

def solve_perturbed(pair: OperatorPair, w: np.ndarray, x0=None,
                    opts: SolveOptions | None = None,
                    record: bool = False) -> SolveReport:
    """Iterate x -> T(x + w) and extract a solution of w in A(. - w) + B(.).

    On convergence the report carries the governing fixed point x, the
    solution z = J_B(x + w), the dual vector k = x - z, and the two
    membership certificates (k + w in Bz, -k in A(z - w)). Lack of a fixed
    point is reported as evidence only: iterate blow-up past r_max, or a
    straight-line drifting tail with residual still above tol_fix at the
    iteration budget. The v_estimate field echoes the perturbation solved
    for; solve_normal overwrites it with the phase-1 estimate. The report's
    trace is the IterationTrace with `record`, else None.
    """
    opts = opts or SolveOptions()
    w = as_vector(w, dim=pair.dim)
    end, status, certificates, solution = _orbit(
        pair, x0, w, opts.max_iter, opts.tol_fix, r_max=opts.r_max, record=record
    )
    governing, z, k = solution or (None, None, None)
    return SolveReport(
        v_estimate=w.copy(),
        v_residual=0.0,
        status=status,
        normal_solution=z,
        governing_point=governing,
        dual_solution=k,
        certificates=certificates,
        iterations_used=len(end),
        trace=end if record else None,
    )


def solve_normal(pair: OperatorPair, x0=None,
                 opts: SolveOptions | None = None,
                 record: bool = False) -> SolveReport:
    """Two-phase normal solve: estimate v, then solve the v-perturbed problem.

    opts.max_iter budgets each phase separately; iterations_used totals both.
    With `record` the report carries both phases' IterationTraces (trace and
    v_trace); without, neither is kept.
    """
    opts = opts or SolveOptions()
    v, v_end = estimate_v(pair, x0, opts.max_iter, opts.tol_v, opts.window, record=record)
    report = solve_perturbed(pair, v, x0, opts, record=record)
    report.v_estimate = v
    report.v_residual = float(np.linalg.norm(v - v_end.v_cesaro))
    report.iterations_used += len(v_end)
    report.v_trace = v_end if record else None
    return report
