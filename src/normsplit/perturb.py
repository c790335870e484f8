"""Shift calculus for monotone operators.

Writing <w>A = InnerShift(A, w) for the inner perturbation x -> A(x - w) and
A<w> = OuterShift(A, w) for the outer perturbation x -> A(x) - w, the calculus below enumerates how shifts commute
with inversion and with the flip conjugation A -> -A(-Id). All identities are
verifiable pointwise at the resolvent level, where both sides are total and
single valued.
"""

from __future__ import annotations

import numpy as np

from .operators import (
    FlipBoth,
    InnerShift,
    Inverse,
    OperatorSpec,
    OuterShift,
)
from .vecspace import as_vector


def calculus_identity_pair(index: int, op: OperatorSpec,
                           w: np.ndarray) -> tuple[OperatorSpec, OperatorSpec]:
    """Left and right sides of the indexed shift-calculus identity.

    1: (<w>A)^-1   = (A^-1)<-w>
    2: (A<w>)^-1   = <-w>(A^-1)
    3: (<w>A)^v    = <-w>(A^v)          (^v is the flip x -> -A(-x))
    4: (A<w>)^v    = (A^v)<-w>
    5: (<w>A)^-v   = (A^-v)<w>          (^-v composes flip and inverse)
    6: (A<w>)^-v   = <w>(A^-v)

    Callers verify the pair by checking resolvent equality pointwise.
    """
    w = as_vector(w, dim=op.dim)
    if index == 1:
        return Inverse(InnerShift(op, w)), OuterShift(Inverse(op), -w)
    if index == 2:
        return Inverse(OuterShift(op, w)), InnerShift(Inverse(op), -w)
    if index == 3:
        return FlipBoth(InnerShift(op, w)), InnerShift(FlipBoth(op), -w)
    if index == 4:
        return FlipBoth(OuterShift(op, w)), OuterShift(FlipBoth(op), -w)
    if index == 5:
        return FlipBoth(Inverse(InnerShift(op, w))), OuterShift(FlipBoth(Inverse(op)), w)
    if index == 6:
        return FlipBoth(Inverse(OuterShift(op, w))), InnerShift(FlipBoth(Inverse(op)), w)
    raise ValueError(f"identity index must be in 1..6, got {index}")


def dual_of_perturbed(pair_ops: tuple[OperatorSpec, OperatorSpec],
                      w: np.ndarray) -> tuple[OperatorSpec, OperatorSpec]:
    """Dual pair of the w-perturbation (<w>A, B<w>), namely ((A^-v)<w>, <-w>(B^-1)).

    Re-dualizing recovers the perturbed pair itself: see identities 5 and 2.
    """
    a, b = pair_ops
    w = as_vector(w, dim=a.dim)
    return (
        OuterShift(FlipBoth(Inverse(a)), w),
        InnerShift(Inverse(b), -w),
    )
