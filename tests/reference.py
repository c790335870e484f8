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
trace cell by cell, the bytes that IterationTrace.to_csv must reproduce,
with its Cesaro column derived from the iterates here.

`same_report` compares two SolveReports field by field.

`reference_orbit` is the solve loop of an affine pair taken one step at a
time: it steps by x -> M_T x + t_w, and every stop rule and the finiteness
check run after each step. splitting._orbit fast-forwards unrecorded
affine orbits in blocks and 50-row jumps before its own per-step loop
takes over, and must return the same rows, status, certificates and
overflow row; where no jump lands, also the same solution and phase-1 end
point x_last, bit for bit, and `orbit_fingerprint` reduces a run of either
loop to bytes for that comparison.

`operator_to_jsonable` writes an operator or set as the tagged record that
normsplit.problemio decodes, from the decoder's own tables.
"""

import csv
import math
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
    compile_resolvent,
    project,
)
from normsplit.errors import NonFiniteIterateError
from normsplit.problemio import _OPERATORS, _SETS
from normsplit.splitting import (
    _DRIFT_RATIO,
    _FIRST_ROWS,
    _WINDOW,
    CONVERGED,
    MAX_ITER,
    NO_FIXED_POINT,
    IterationTrace,
    OrbitEnd,
    _fused_step,
    _grown,
    certify,
)
from normsplit.vecspace import as_vector


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


@np.errstate(over="ignore", invalid="ignore")
def reference_orbit(pair, x0, w, max_iter: int, tol: float, record: bool = False):
    """splitting._orbit one step at a time, for a pair whose step fuses;
    same arguments and return value."""
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    step = _fused_step(pair, w)
    assert step is not None, "reference_orbit steps fused pairs only"
    m_t, t_w = step
    estimating = w is None
    dim = pair.dim
    apply_b = compile_resolvent(pair.B).apply
    x_next = np.zeros(dim) if x0 is None else as_vector(x0, dim=dim).copy()
    sqrt, inf = math.sqrt, math.inf
    ring = [None] * min(_WINDOW, max_iter)
    last = max_iter - 1
    drift_from = last - min(1000, max_iter // 4) if max_iter >= 100 else max_iter
    path = 0.0
    if record:
        capacity = min(max_iter, _FIRST_ROWS)
        xs, shadows, disps = (np.empty((capacity, dim)) for _ in range(3))
    status, certificates, solution, x_last = MAX_ITER, {}, None, None
    for n in range(max_iter):
        x = x_next
        x_next = m_t.dot(x) + t_w
        jb = apply_b(x if estimating else x + w) if record else None
        disp = x - x_next
        if record:
            if n == capacity:
                capacity = min(2 * capacity, max_iter)
                xs, shadows, disps = (_grown(a, capacity) for a in (xs, shadows, disps))
            xs[n] = x
            shadows[n] = jb
            disps[n] = disp
        if estimating:
            slot = n % _WINDOW
            d = disp - ring[slot] if n >= _WINDOW else disp
            size = sqrt(d.dot(d))
            if size <= tol:
                x_last = x_next
                break
            ring[slot] = disp
        else:
            size = sqrt(disp.dot(disp))
            if size <= tol:
                if jb is None:
                    jb = apply_b(x + w)
                k = x - jb
                certificates = certify(pair, jb, k, w)
                if all(certificates.values()):
                    status, solution = CONVERGED, (x, jb, k)
                    break
            if n >= drift_from:
                if n == drift_from:
                    x_from = x
                if n < last:
                    path += size
        if not size < inf and not np.isfinite(x_next).all():
            raise NonFiniteIterateError(n)
    else:
        if path > 0.0 and size > tol:
            net = x - x_from
            if sqrt(net.dot(net)) / path >= _DRIFT_RATIO:
                status = NO_FIXED_POINT

    rows = n + 1
    if not record:
        return OrbitEnd(rows, disp, x_last), status, certificates, solution
    trace = IterationTrace(xs[:rows], shadows[:rows], disps[:rows], x_last)
    return trace, status, certificates, solution


def orbit_fingerprint(result) -> tuple:
    """Every array and flag an orbit returns, as bytes: equal fingerprints
    are equal results, bit for bit."""
    end, status, certificates, solution = result
    arrays = [end.v_diff, *(solution or ())]
    if end.x_last is not None:
        arrays.append(end.x_last)
    if isinstance(end, IterationTrace):
        arrays += [end.xs, end.shadows, end.displacements]
    return (type(end).__name__, len(end), status, certificates, solution is None,
            end.x_last is None, [(a.shape, a.tobytes()) for a in arrays])


def trace_csv(trace, path) -> None:
    """The trace CSV with every float cell written as repr(float(cell))."""
    rows, dim = trace.xs.shape
    d_norms = np.linalg.norm(trace.displacements, axis=1)
    # the Cesaro means -x_n / n; row 0 reads -x_1, which a one-row trace
    # recovers as x_0 minus its displacement
    x_1 = trace.xs[1] if rows > 1 else trace.xs[0] - trace.displacements[0]
    cesaros = np.array([-x_1] + [-trace.xs[n] / n for n in range(1, rows)])
    c_norms = np.linalg.norm(cesaros, axis=1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["n"]
            + [f"x_{j}" for j in range(dim)]
            + [f"shadow_{j}" for j in range(dim)]
            + ["displacement_norm", "v_diff_norm", "v_cesaro_norm"]
        )
        for i in range(rows):
            writer.writerow(
                [i]
                + [repr(float(v)) for v in trace.xs[i]]
                + [repr(float(v)) for v in trace.shadows[i]]
                + [repr(float(d_norms[i])), repr(float(d_norms[i])),
                   repr(float(c_norms[i]))]
            )


_REPORT_ARRAYS = ("v_estimate", "normal_solution", "governing_point", "dual_solution")


def same_report(a, b) -> bool:
    """Equal reports: the same status, certificates and iteration count, and
    every array bit for bit, None only where the other is None. Traces are
    not compared."""
    for name in _REPORT_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        if (x is None or y is None) and x is not y:
            return False
        if x is not None and not np.array_equal(x, y):
            return False
    return ((a.status, a.certificates, a.iterations_used)
            == (b.status, b.certificates, b.iterations_used))


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
