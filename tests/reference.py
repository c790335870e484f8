"""Reference formulas: recursive resolvents and the drift verdict on a trace.

Compiled resolvents (normsplit.compile_resolvent) are checked against this
tree walk, which evaluates every wrapper on its own:

    Inverse(A)        J(x) = x - J_A(x)
    FlipBoth(A)       J(x) = -J_A(-x)
    InnerShift(A, w)  J(x) = J_A(x - w) + w
    OuterShift(A, w)  J(x) = J_A(x + w)

Affine leaves are solved with numpy's dense solver rather than through the
operator's cached factorization, so the reference shares no arithmetic with
the compiled form beyond the leaf projections.

`drifting_tail` reads the drift verdict off a recorded trace, the way the
solve loop takes it from the few rows it keeps, and `trace_csv` writes a
trace cell by cell, the bytes that IterationTrace.to_csv must reproduce.
"""

import csv

import numpy as np

from normsplit import (
    AffineMonotone,
    ConstantValued,
    FlipBoth,
    InnerShift,
    Inverse,
    NormalCone,
    OuterShift,
    Zero,
    project,
)
from normsplit.splitting import _DRIFT_RATIO


def reference_resolvent(op, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if isinstance(op, NormalCone):
        return project(op.region, x)
    if isinstance(op, AffineMonotone):
        return np.linalg.solve(np.eye(op.dim) + op.matrix, x - op.offset)
    if isinstance(op, ConstantValued):
        return x - op.value
    if isinstance(op, Zero):
        return x.copy()
    if isinstance(op, Inverse):
        return x - reference_resolvent(op.inner, x)
    if isinstance(op, FlipBoth):
        return -reference_resolvent(op.inner, -x)
    if isinstance(op, InnerShift):
        return reference_resolvent(op.inner, x - op.shift) + op.shift
    if isinstance(op, OuterShift):
        return reference_resolvent(op.inner, x + op.shift)
    raise TypeError(f"unknown operator variant {type(op).__name__}")


def drifting_tail(trace, tol_fix: float) -> bool:
    """Divergence evidence: the trailing orbit moved in a near-straight line
    while the fixed-point residual stayed above tolerance."""
    n = len(trace)
    if n < 100:
        return False
    if np.linalg.norm(trace.displacements[n - 1]) <= tol_fix:
        return False
    k = min(1000, n // 4)
    path = float(np.sum(np.linalg.norm(trace.displacements[n - 1 - k:n - 1], axis=1)))
    if path <= 0.0:
        return False
    net = float(np.linalg.norm(trace.xs[n - 1] - trace.xs[n - 1 - k]))
    return net / path >= _DRIFT_RATIO


def trace_csv(trace, path) -> None:
    """The trace CSV with every float cell written as repr(float(cell))."""
    dim = trace.xs.shape[1]
    d_norms = trace.displacement_norms()
    c_norms = np.linalg.norm(trace.v_cesaros, axis=1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["n"]
            + [f"x_{j}" for j in range(dim)]
            + [f"shadow_{j}" for j in range(dim)]
            + ["displacement_norm", "v_diff_norm", "v_cesaro_norm"]
        )
        for i in range(len(trace)):
            writer.writerow(
                [i]
                + [repr(float(v)) for v in trace.xs[i]]
                + [repr(float(v)) for v in trace.shadows[i]]
                + [repr(float(d_norms[i])), repr(float(d_norms[i])),
                   repr(float(c_norms[i]))]
            )
