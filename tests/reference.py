"""Reference formulas: recursive resolvents, the shift calculus, the drift
verdict on a trace, and the operator encoder.

Compiled resolvents (normsplit.compile_resolvent) are checked against this
tree walk, which evaluates every wrapper on its own:

    Inverse(A)        J(x) = x - J_A(x)
    FlipBoth(A)       J(x) = -J_A(-x)
    InnerShift(A, w)  J(x) = J_A(x - w) + w
    OuterShift(A, w)  J(x) = J_A(x + w)

Affine leaves are solved with numpy's dense solver on the operator's matrix
and offset, so the reference shares no arithmetic with the compiled form
beyond the leaf projections.

`SHIFT_CALCULUS` states the paper's six shift-calculus identities as pairs
of operators with equal resolvents.

`drifting_tail` reads the drift verdict off a recorded trace, the way the
solve loop takes it from the few rows it keeps, and `trace_csv` writes a
trace cell by cell, the bytes that IterationTrace.to_csv must reproduce.

`operator_to_jsonable` writes an operator or set as the tagged record that
normsplit.problemio decodes, from the decoder's own tables.
"""

import csv
from dataclasses import fields

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
from normsplit.problemio import _OPERATORS, _SETS
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


# Writing <w>A = InnerShift(A, w) (x -> A(x - w)), A<w> = OuterShift(A, w)
# (x -> A(x) - w), A^v = FlipBoth(A) (x -> -A(-x)) and A^-v for the flip of
# the inverse, identity i maps (A, w) to its (left, right) sides:
#
#   1: (<w>A)^-1 = (A^-1)<-w>      2: (A<w>)^-1 = <-w>(A^-1)
#   3: (<w>A)^v  = <-w>(A^v)       4: (A<w>)^v  = (A^v)<-w>
#   5: (<w>A)^-v = (A^-v)<w>       6: (A<w>)^-v = <w>(A^-v)
#
# The dual (A^-v, B^-1) of the w-perturbed pair (<w>A, B<w>) is thus
# ((A^-v)<w>, <-w>(B^-1)): the right sides of identity 5 at A and 2 at B.
SHIFT_CALCULUS = {
    1: lambda op, w: (Inverse(InnerShift(op, w)), OuterShift(Inverse(op), -w)),
    2: lambda op, w: (Inverse(OuterShift(op, w)), InnerShift(Inverse(op), -w)),
    3: lambda op, w: (FlipBoth(InnerShift(op, w)), InnerShift(FlipBoth(op), -w)),
    4: lambda op, w: (FlipBoth(OuterShift(op, w)), OuterShift(FlipBoth(op), -w)),
    5: lambda op, w: (FlipBoth(Inverse(InnerShift(op, w))),
                      OuterShift(FlipBoth(Inverse(op)), w)),
    6: lambda op, w: (FlipBoth(Inverse(OuterShift(op, w))),
                      InnerShift(FlipBoth(Inverse(op)), w)),
}


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


_TAGS = {cls: (tag, tuple(key for key, _ in spec))
         for table in (_SETS, _OPERATORS) for tag, (cls, spec) in table.items()}


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if type(value) in _TAGS:
        return operator_to_jsonable(value)
    return value


def operator_to_jsonable(op) -> dict:
    """The tagged record of an operator or set, fields in constructor order."""
    try:
        tag, keys = _TAGS[type(op)]
    except KeyError:
        raise TypeError(f"unknown variant {type(op).__name__}") from None
    values = (getattr(op, f.name) for f in fields(op) if f.init)
    return {"type": tag, **{key: _jsonable(v) for key, v in zip(keys, values)}}
