"""Dense real linear algebra kernel: input coercion, lengths, least-norm solutions, nullspaces.

Everything is plain float64 numpy, but for math.isfinite on each entry where
as_vector checks a short vector: SVD-based orthonormal bases for nullspaces,
least squares for least-norm solutions; problems are desk scale, dim <= ~100.
The solver's one square solve, the affine resolvent, is a plain numpy solve
in `operators.AffineMonotone`. Only `lu_factor_checked` uses scipy, imported
when first called, so that importing the package does not load scipy.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import (
    DimensionMismatchError,
    InconsistentSystemError,
    SingularSystemError,
)

# absolute-plus-relative tolerance for linear solves and consistency checks
TOL_LIN = 1e-10
# a pivot below this fraction of the matrix scale counts as singular
PIVOT_REL = 1e-12

Vector = np.ndarray
Matrix = np.ndarray


def as_vector(x, dim: int | None = None) -> Vector:
    """Coerce to a finite 1-D float64 array, optionally checking its dimension."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a vector, got array of shape {v.shape}")
    if v.size == 0:
        raise DimensionMismatchError("vectors must have positive dimension")
    # math.isfinite per entry beats np.isfinite below ~40 entries, loses from ~64 on
    if not (all(map(math.isfinite, v.tolist())) if v.size <= 32 else np.isfinite(v).all()):
        raise ValueError("vector entries must be finite")
    if dim is not None and v.size != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.size}")
    return v


def as_matrix(m, square: bool = False) -> Matrix:
    """Coerce to a finite 2-D float64 array."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got array of shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if square and a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got {a.shape}")
    return a


def as_rows(x, dim: int) -> Matrix:
    """Coerce to a finite (k, dim) float64 block of k >= 1 points, one per row."""
    a = as_matrix(x)
    if a.shape[0] == 0:
        raise DimensionMismatchError("a block of points needs at least one row")
    if a.shape[1] != dim:
        raise DimensionMismatchError(f"expected {dim} columns, got {a.shape[1]}")
    return a


def lu_factor_checked(m: Matrix):
    """Partial-pivot LU of a square matrix; raises if any pivot is negligible.

    The solver does not call it: its callers are the tests and the
    benchmark's `vecspace.lu_factor_checked_us` span. scipy.linalg is
    imported here, on the first call, rather than with the package.
    """
    from scipy.linalg import LinAlgWarning, lu_factor

    a = as_matrix(m, square=True)
    scale = np.max(np.abs(a)) if a.size else 0.0
    if scale == 0.0:
        raise SingularSystemError("zero matrix is singular")
    with warnings.catch_warnings():
        # the pivot check below turns exact singularity into our own error
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(a)
    pivots = np.abs(np.diag(lu))
    if np.min(pivots) < PIVOT_REL * scale:
        raise SingularSystemError(
            f"matrix numerically singular: pivot {np.min(pivots):.3e} "
            f"below {PIVOT_REL:.0e} * scale {scale:.3e}"
        )
    return lu, piv


@np.errstate(over="ignore", invalid="ignore")
def length(a: np.ndarray):
    """Euclidean length of a vector, or the array of lengths of a block's rows.

    A length is the square root of the plain squared sum, bit for bit as
    `np.linalg.norm`. Where that sum overflows float64, and only there, the
    entries are first divided by the largest of them, as `Ball.project`
    does. A non-finite entry gives a non-finite length. Raises no
    RuntimeWarning.
    """
    if a.ndim == 1:
        size = math.sqrt(a.dot(a))
        if size == math.inf:
            top = float(np.abs(a).max())
            unit = a / top
            size = top * math.sqrt(unit.dot(unit))
        return size
    sizes = np.linalg.norm(a, axis=1)
    huge = sizes == math.inf
    if huge.any():
        top = np.abs(a[huge]).max(axis=1)
        sizes[huge] = top * np.linalg.norm(a[huge] / top[:, None], axis=1)
    return sizes


def least_norm(c: Matrix, d: Vector) -> Vector:
    """Minimum-norm solution of the consistent underdetermined system c y = d.

    Raises InconsistentSystemError when the residual after the solve shows
    the system has no solution.
    """
    a = as_matrix(c)
    if a.shape[0] == 0:
        return np.zeros(a.shape[1])
    rhs = as_vector(d, dim=a.shape[0])
    y = np.linalg.lstsq(a, rhs, rcond=None)[0]
    residual = np.linalg.norm(a @ y - rhs)
    if residual > TOL_LIN * (1.0 + np.linalg.norm(rhs)):
        raise InconsistentSystemError(
            f"constraint system inconsistent: residual {residual:.3e}"
        )
    return y


def nullspace(m: Matrix) -> Matrix:
    """Columns form an orthonormal basis of the nullspace of m."""
    a = as_matrix(m)
    _, s, vt = np.linalg.svd(a)
    rank = _rank_from_singular_values(s, a.shape)
    return vt[rank:].T


def _rank_from_singular_values(s: np.ndarray, shape) -> int:
    if s.size == 0:
        return 0
    cutoff = np.max(s) * max(shape) * np.finfo(float).eps
    return int(np.sum(s > cutoff))
