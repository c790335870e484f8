"""Attouch-Thera duality: dual pairs and the fixed-point/solution bijection.

The dual pair of (A, B) is (A^-v, B^-1) with A^-v = flip of the inverse; it
shares its splitting operator with the primal pair. Solution pairs (z, k) of
the w-perturbed problem correspond one-to-one to fixed points of the
value-shifted map x -> T(x) + w through

    psi:     (z, k) -> z + k + w
    psi_inv: x      -> (J_B x, x - J_B x - w).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .operators import FlipBoth, Inverse
from .splitting import OperatorPair, _step_and_shadow, certify
from .vecspace import as_vector, length


@dataclass(frozen=True, eq=False)
class PrimalDualPair:
    """Primal solution z and dual solution k of a w-perturbed problem.

    Contract: k + w in B(z) and -k in A(z - w); splitting.certify re-checks it.
    """

    z: np.ndarray
    k: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        z = as_vector(self.z)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "k", as_vector(self.k, dim=z.size))
        object.__setattr__(self, "w", as_vector(self.w, dim=z.size))


def dual_pair(pair: OperatorPair) -> OperatorPair:
    """The dual pair (A^-v, B^-1); dualizing twice restores the original."""
    return OperatorPair(FlipBoth(Inverse(pair.A)), Inverse(pair.B))


def psi(zk: PrimalDualPair) -> np.ndarray:
    """Map a solution pair to the fixed point z + k + w of x -> T(x) + w."""
    return zk.z + zk.k + zk.w


def psi_inv(pair: OperatorPair, x: np.ndarray, w: np.ndarray,
            tol_fix: float = 1e-9) -> PrimalDualPair:
    """Recover the solution pair from a fixed point of x -> T(x) + w.

    Requires |x - T(x) - w| <= tol_fix * (1 + |x|), the relative scale of the
    membership certificates, and the recovered pair to pass both of them.
    """
    x = as_vector(x, dim=pair.dim)
    w = as_vector(w, dim=pair.dim)
    tx, z = _step_and_shadow(pair, x)
    residual = length(x - tx - w)
    if residual > tol_fix * (1.0 + length(x)):
        raise PreconditionError(
            f"not a fixed point of the value-shifted map: residual {residual:.3e}"
        )
    zk = PrimalDualPair(z=z, k=x - z - w, w=w)
    certs = certify(pair, zk.z, zk.k, zk.w)
    if not all(certs.values()):
        raise PreconditionError(f"certificates failed for recovered pair: {certs}")
    return zk
