"""Maximally monotone operators represented and evaluated through resolvents.

An operator is a small immutable AST: primitive leaves (normal cones of
projectable convex sets, monotone affine maps, constant-valued maps, the zero
operator) composed by wrappers (inverse, flip-both conjugation x -> -A(-x),
inner and outer shifts). Set-valued operators are never evaluated pointwise;
the only handle is the resolvent (Id + A)^-1, which is total, single valued
and firmly nonexpansive for every node. Per wrapper it satisfies

    Inverse(A)        J(x) = x - J_A(x)
    FlipBoth(A)       J(x) = -J_A(-x)
    InnerShift(A, w)  J(x) = J_A(x - w) + w      (A composed with x -> x - w)
    OuterShift(A, w)  J(x) = J_A(x + w)          (x -> A(x) - w)

and compile_resolvent folds a whole wrapper stack, once per operator object,
into one closed form, ResolventForm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .errors import DimensionMismatchError, SingularSystemError
from .vecspace import as_matrix, as_vector, length

# membership certificates sit downstream of iterative solves; looser than TOL_LIN
TOL_CERT = 1e-7
# slack when checking the symmetric part of an affine map for monotonicity
PSD_SLACK = 1e-10
ORTHONORMAL_TOL = 1e-12
_EPS = math.ulp(1.0)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# projectable convex sets
# ---------------------------------------------------------------------------

class ProjectableSet:
    """A closed convex set, with all the rules of its variant as methods.

    Each variant has `project(x)`, its nearest point to one x, and
    `project_rows(xs)`, that map on every row of a (k, n) block; the default
    below loops `project`, and the solve loop keeps `project`, which costs
    less for a single point. `image(sigma, a)` is the set sigma (S - a) for
    sigma = +1 or -1, of the same variant, so that
    P_S(sigma x + a) = sigma P_{sigma (S - a)}(x) + a; it is None where a flip
    or a shift takes the set out of its variant. `affine_map()` is (Q, q)
    with P(y) = Q y + q as a dense matrix and vector, None where P is not
    affine.
    """

    image = None
    affine_map = None

    def project_rows(self, xs: np.ndarray) -> np.ndarray:
        return np.array([self.project(x) for x in xs])


@dataclass(frozen=True, eq=False)
class Box(ProjectableSet):
    """Coordinate box {x : lo <= x <= hi}."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = as_vector(self.lo)
        hi = as_vector(self.hi, dim=lo.size)
        if (lo > hi).any():
            raise ValueError("box needs lo <= hi coordinatewise")
        object.__setattr__(self, "lo", _frozen(lo))
        object.__setattr__(self, "hi", _frozen(hi))

    @property
    def dim(self) -> int:
        return self.lo.size

    def project(self, x: np.ndarray) -> np.ndarray:
        # np.clip's result, without the Python-level wrapper around it
        return np.minimum(np.maximum(x, self.lo), self.hi)

    project_rows = project  # it broadcasts over rows

    def image(self, sigma: int, a: np.ndarray) -> Box:
        if sigma > 0:
            return Box(self.lo - a, self.hi - a)
        return Box(a - self.hi, a - self.lo)


@dataclass(frozen=True, eq=False)
class Ball(ProjectableSet):
    """Closed Euclidean ball of positive radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _frozen(as_vector(self.center)))
        object.__setattr__(self, "radius", float(self.radius))
        if not 0 < self.radius < math.inf:
            raise ValueError("ball radius must be positive and finite")

    @property
    def dim(self) -> int:
        return self.center.size

    def project(self, x: np.ndarray) -> np.ndarray:
        d = x - self.center
        dist = math.sqrt(d.dot(d))
        if dist <= self.radius:
            return x.copy()
        if dist == math.inf:  # |d|^2 overflowed: d / max |d_i| points the same way
            d /= np.abs(d).max()
            dist = math.sqrt(d.dot(d))
        d *= self.radius / dist
        d += self.center
        return d

    def project_rows(self, xs: np.ndarray) -> np.ndarray:
        d = xs - self.center
        dist = np.sqrt(np.einsum("ij,ij->i", d, d))
        outside = dist > self.radius
        huge = dist == math.inf  # as in project, rescale the rows whose |d|^2 overflowed
        if huge.any():
            d[huge] /= np.abs(d[huge]).max(axis=1, keepdims=True)
            dist[huge] = np.sqrt(np.einsum("ij,ij->i", d[huge], d[huge]))
        scale = np.divide(self.radius, dist, out=np.ones_like(dist), where=outside)
        return np.where(outside[:, None], self.center + scale[:, None] * d, xs)

    def image(self, sigma: int, a: np.ndarray) -> Ball:
        return Ball(sigma * (self.center - a), self.radius)


@dataclass(frozen=True, eq=False)
class AffineSubspace(ProjectableSet):
    """Affine subspace through `anchor` spanned by orthonormal basis rows.

    An empty basis, such as [], has no direction rows: the set is the point anchor.
    """

    anchor: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        anchor = as_vector(self.anchor)
        basis = np.asarray(self.basis, dtype=float)
        basis = as_matrix(np.zeros((0, anchor.size)) if basis.size == 0 else basis)
        if basis.shape[1] != anchor.size:
            raise DimensionMismatchError("basis rows must match anchor dimension")
        if basis.shape[0] > 0:
            gram = basis @ basis.T
            if np.max(np.abs(gram - np.eye(basis.shape[0]))) > ORTHONORMAL_TOL:
                raise ValueError("basis rows must be orthonormal")
        object.__setattr__(self, "anchor", _frozen(anchor))
        object.__setattr__(self, "basis", _frozen(basis))
        object.__setattr__(self, "_basis_t", self.basis.T)

    @property
    def dim(self) -> int:
        return self.anchor.size

    def project(self, x: np.ndarray) -> np.ndarray:
        if self.basis.shape[0] == 0:
            return self.anchor.copy()
        return self.anchor + self._basis_t.dot(self.basis.dot(x - self.anchor))

    def project_rows(self, xs: np.ndarray) -> np.ndarray:
        if self.basis.shape[0] == 0:
            return np.tile(self.anchor, (xs.shape[0], 1))
        return self.anchor + (xs - self.anchor).dot(self._basis_t).dot(self.basis)

    def image(self, sigma: int, a: np.ndarray) -> AffineSubspace:
        return AffineSubspace(sigma * (self.anchor - a), self.basis)

    def affine_map(self) -> tuple[np.ndarray, np.ndarray]:
        q = self._basis_t.dot(self.basis)
        return q, self.anchor - q.dot(self.anchor)


@dataclass(frozen=True, eq=False)
class Halfspace(ProjectableSet):
    """Halfspace {x : <normal, x> <= offset} with 0 < |normal|^2 < inf."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        normal = as_vector(self.normal)
        # |normal|^2 divides every projection step: an overflow to inf would
        # leave each point where it is, and an underflow to 0 would divide by 0
        with np.errstate(over="ignore", under="ignore"):
            normal_sq = float(normal.dot(normal))
        if not 0.0 < normal_sq < math.inf:
            raise ValueError("halfspace normal must be nonzero, with finite |normal|^2")
        object.__setattr__(self, "normal", _frozen(normal))
        object.__setattr__(self, "offset", float(self.offset))
        if not math.isfinite(self.offset):
            raise ValueError("halfspace offset must be finite")
        object.__setattr__(self, "_normal_sq", normal_sq)

    @property
    def dim(self) -> int:
        return self.normal.size

    def project(self, x: np.ndarray) -> np.ndarray:
        excess = float(self.normal.dot(x)) - self.offset
        if excess <= 0:
            return x.copy()
        return x - (excess / self._normal_sq) * self.normal

    def project_rows(self, xs: np.ndarray) -> np.ndarray:
        # rows inside subtract 0 * normal, which leaves them exactly as they are
        excess = np.maximum(xs.dot(self.normal) - self.offset, 0.0)
        return xs - (excess / self._normal_sq)[:, None] * self.normal

    def image(self, sigma: int, a: np.ndarray) -> Halfspace:
        return Halfspace(sigma * self.normal, self.offset - float(self.normal.dot(a)))


def _exp(t: float) -> float:
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


@dataclass(frozen=True, eq=False)
class EpigraphExp(ProjectableSet):
    """Planar set {(x, y) : beta + exp(x) <= y} for beta >= 0.

    Closed and convex, but the gap to a horizontal line is never attained:
    the boundary curve flattens toward height beta without reaching it.
    It has no image rule and keeps the row loop of ProjectableSet.
    """

    beta: float

    def __post_init__(self):
        object.__setattr__(self, "beta", float(self.beta))
        if not 0 <= self.beta < math.inf:
            raise ValueError("beta must be nonnegative and finite")

    @property
    def dim(self) -> int:
        return 2

    def project(self, x: np.ndarray) -> np.ndarray:
        """Project onto {(t, y) : beta + exp(t) <= y}.

        For an outside point (p, q) the nearest point sits on the boundary curve
        y = beta + exp(t) where t solves the stationarity condition

            g(t) = t - p + exp(t) * (beta + exp(t) - q) = 0.

        Solved by safeguarded Newton inside a sign-change bracket (bisection
        fallback keeps the bracket valid), to residual 1e-12, or until the
        Newton step rounds to no change of t, or the bracket to one ulp of t:
        once g's terms exceed about 4096, one ulp of them is above 1e-12.
        """
        beta = self.beta
        p, q = float(x[0]), float(x[1])
        if beta + _exp(p) <= q:
            return x.copy()

        def g(t: float) -> float:
            et = _exp(t)
            return t - p + et * (beta + et - q)

        # g(p) > 0 for outside points; expand downward until the sign flips.
        # Newton falls about half a unit a step while exp(2t) dominates g, so
        # started near a large p it crawls (83 exp calls at p = 100) and can
        # spend all 200 steps short of the root (wrong answers from p near 200
        # on). For p > 0 start at cap instead when cap < p: e^cap is
        # 2 (q - beta)+ + 2 sqrt(p) + 1, so beta + e^cap - q >= e^cap / 2 and
        # e^cap (beta + e^cap - q) > 2p, which makes g(cap) > cap + p > 0; the
        # g(cap) test guards that against rounding.
        hi = p
        if p > 0.0:
            cap = math.log(2.0 * max(q - beta, 0.0) + 2.0 * math.sqrt(p) + 1.0)
            if cap < p and g(cap) > 0:
                hi = cap
        lo = hi - 1.0
        step = 1.0
        while g(lo) > 0:
            step *= 2.0
            lo -= step

        t = 0.5 * (lo + hi)
        for _ in range(200):
            et = _exp(t)  # g(t) inline, so that the slope reuses exp(t)
            gt = t - p + et * (beta + et - q)
            if abs(gt) <= 1e-12:
                break
            if gt > 0:
                hi = t
            else:
                lo = t
            slope = 1.0 + et * (beta + 2.0 * et - q)
            if math.isfinite(gt) and math.isfinite(slope) and slope > 0:
                t_new = t - gt / slope
                if t_new == t:  # the Newton step is below half an ulp of t
                    break
            else:
                t_new = 0.5 * (lo + hi)
            if not lo < t_new < hi:
                t_new = 0.5 * (lo + hi)
            t = t_new
            if hi - lo <= max(1e-16, _EPS * abs(t)):  # within an ulp of t from |t| = 0.45 on
                break
        return np.array([t, beta + _exp(t)])


def project(region: ProjectableSet, x: np.ndarray) -> np.ndarray:
    """Nearest point of the set; unique since every region is closed convex."""
    if not isinstance(region, ProjectableSet):
        raise TypeError(f"unknown set variant {type(region).__name__}")
    return region.project(as_vector(x, dim=region.dim))


# ---------------------------------------------------------------------------
# operator AST
# ---------------------------------------------------------------------------

class OperatorSpec:
    """A maximally monotone operator, with the resolvent rule of its variant.

    A leaf has `leaf_form()`, its resolvent as a ResolventForm. A Wrapper has
    `fold(form)`, which maps the form of its inner operator to its own.
    """


@dataclass(frozen=True, eq=False)
class NormalCone(OperatorSpec):
    """Normal cone operator of a closed convex set; resolvent is the projection."""

    region: ProjectableSet

    @property
    def dim(self) -> int:
        return self.region.dim

    def leaf_form(self) -> ResolventForm:
        return ResolventForm(0.0, np.zeros(self.dim), self.region)


@dataclass(frozen=True, eq=False)
class AffineMonotone(OperatorSpec):
    """x -> matrix @ x + offset with positive semidefinite symmetric part."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix, square=True)
        a = as_vector(self.offset, dim=m.shape[0])
        # halves first, so that no finite entry overflows on the way
        sym = 0.5 * m + 0.5 * m.T
        lo_eig = float(np.linalg.eigvalsh(sym)[0])
        if not lo_eig >= -PSD_SLACK:  # refuses a NaN eigenvalue too
            raise ValueError(
                f"affine map is not monotone: symmetric part has eigenvalue {lo_eig:.3e}"
            )
        object.__setattr__(self, "matrix", _frozen(m))
        object.__setattr__(self, "offset", _frozen(a))
        # <(Id + matrix) x, x> >= |x|^2 for a monotone matrix, so every singular
        # value of Id + matrix is at least 1 and one dense solve is as accurate
        # as a checked factorization; it gives (Id + matrix)^-1 and its product
        # with the offset at once
        n = m.shape[0]
        eye = np.eye(n)
        lhs, rhs = eye + m, np.column_stack((eye, a))
        try:
            sol = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"Id + matrix is singular: {exc}") from None
        if not np.isfinite(sol).all():
            raise SingularSystemError(
                "(Id + matrix)^-1 or its product with the offset overflows float64"
            )
        # an elimination that overflows on the way can still end finite and
        # wrong, so the solution must pass a normwise backward-error test
        with np.errstate(over="ignore", invalid="ignore"):
            resid = np.abs(lhs.dot(sol) - rhs).max()
            bound = n * (np.abs(lhs).max() * np.abs(sol).max()) + np.abs(rhs).max()
        if not resid <= 1e-10 * bound:
            raise SingularSystemError(
                f"Id + matrix has no accurate float64 solve: backward error {resid:.3e}"
            )
        object.__setattr__(self, "_inv", _frozen(sol[:, :n]))
        object.__setattr__(self, "_inv_offset", _frozen(sol[:, n]))

    @property
    def dim(self) -> int:
        return self.offset.size

    def leaf_form(self) -> ResolventForm:
        # J(x) = (Id + L)^-1 (x - offset); nonexpansive since L is monotone
        return ResolventForm(self._inv, -self._inv_offset)


@dataclass(frozen=True, eq=False)
class ConstantValued(OperatorSpec):
    """Operator whose graph is X x {value}: every point maps to the same output."""

    value: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "value", _frozen(as_vector(self.value)))

    @property
    def dim(self) -> int:
        return self.value.size

    def leaf_form(self) -> ResolventForm:
        return ResolventForm(1.0, -self.value)


@dataclass(frozen=True, eq=False)
class Zero(OperatorSpec):
    """The zero operator; its resolvent is the identity."""

    dim: int

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValueError("dimension must be positive")
        object.__setattr__(self, "dim", int(self.dim))

    def leaf_form(self) -> ResolventForm:
        return ResolventForm(1.0, np.zeros(self.dim))


@dataclass(frozen=True, eq=False)
class Wrapper(OperatorSpec):
    """An operator built from one inner operator, in the inner's dimension."""

    inner: OperatorSpec

    def __post_init__(self):
        # stored, not read through the stack, so that no rule recurses per level
        object.__setattr__(self, "dim", self.inner.dim)


class Inverse(Wrapper):
    """Set-valued inverse; resolvent via J_A + J_{A^-1} = Id."""

    def fold(self, f: ResolventForm) -> ResolventForm:
        return ResolventForm(_identity_minus(f.m), -f.c, f.region, f.sigma, f.a)


class FlipBoth(Wrapper):
    """Conjugation x -> -A(-x); preserves maximal monotonicity."""

    def fold(self, f: ResolventForm) -> ResolventForm:
        return ResolventForm(f.m, -f.c, f.region, -f.sigma, f.a)


@dataclass(frozen=True, eq=False)
class Shift(Wrapper):
    """A wrapper with a shift vector of the inner operator's dimension."""

    shift: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "shift", _frozen(as_vector(self.shift, dim=self.dim)))


class InnerShift(Shift):
    """Argument shift x -> A(x - shift)."""

    def fold(self, f: ResolventForm) -> ResolventForm:
        w = self.shift
        return ResolventForm(f.m, f.c + (w - _times(f.m, w)), f.region, f.sigma, f.a - f.sigma * w)


class OuterShift(Shift):
    """Value shift x -> A(x) - shift."""

    def fold(self, f: ResolventForm) -> ResolventForm:
        w = self.shift
        return ResolventForm(f.m, f.c + _times(f.m, w), f.region, f.sigma, f.a + f.sigma * w)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

# J(x) = P(x) + c or x - P(x) + c, from (P, c), keyed by (m != 0, c != 0)
_BARE_EVALUATORS = {
    (False, False): lambda proj, c: proj,
    (False, True): lambda proj, c: lambda x: proj(x) + c,
    (True, False): lambda proj, c: lambda x: x - proj(x),
    (True, True): lambda proj, c: lambda x: x - proj(x) + c,
}


@dataclass(frozen=True, eq=False)
class ResolventForm:
    """Resolvent J(x) = m x + sigma (1 - 2m) P(sigma x + a) + c of a wrapper stack.

    P projects onto `region`; region None means there is no projection term
    (affine, constant and zero leaves), and then sigma and a are unused.
    Over a normal-cone leaf m is 0.0 or 1.0 and sigma is +1 or -1: J_{N_S} is
    P_S, Moreau's identity makes J_{(N_S)^-1} = Id - P_S, and a flip turns
    the sign of sigma and of the projection term together, so that sign is
    sigma (1 - 2m). compile_resolvent keeps such a form in normal form,
    sigma = 1 and a = 0, by moving flips and shifts into the set (its
    `image`), so that a stack of any depth costs P_S'(x) + c or
    x - P_S'(x) + c, and the bare leaf costs the projection alone. Only the
    epigraph keeps sigma and a. Otherwise m is 1.0 over a constant or zero
    leaf, 0.0 over their inverses, and a matrix over an affine leaf: a float
    m needs no matrix-vector product. The
    form is closed under all four wrappers; each holds its rule as `fold`.
    `apply` evaluates J at one point; it is built on first use, so the
    forms a compile folds through build none. `apply_rows` evaluates J at
    each row of a (k, n) block in one pass.
    """

    m: Union[float, np.ndarray]
    c: np.ndarray
    region: Optional[ProjectableSet] = None
    sigma: int = 1
    a: Union[float, np.ndarray] = 0.0

    def __reduce__(self):
        # the fields only: a cached `apply` is a closure, built again on use
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    apply = cached_property(lambda self: self._evaluator())

    @property
    def projects_bare(self) -> bool:
        """True when the projection term is P(x): sigma = 1 and a = 0."""
        return self.sigma > 0 and not (self.a.any() if isinstance(self.a, np.ndarray) else self.a)

    def _evaluator(self):
        m, c = self.m, self.c
        if self.region is None:
            if not isinstance(m, float):
                return lambda x: m.dot(x) + c
            if m == 0.0:
                return lambda x: c.copy()
            return lambda x: x + c

        proj = self.region.project
        if self.projects_bare:
            return _BARE_EVALUATORS[bool(m), bool(c.any())](proj, c)

        # the epigraph keeps sigma and a, and so does a set whose image overflows
        sigma, a = self.sigma, self.a
        beta = sigma * (1.0 - 2.0 * m)
        return lambda x: m * x + beta * proj(sigma * x + a) + c

    def apply_rows(self, xs: np.ndarray) -> np.ndarray:
        """J on every row of a finite (k, n) float64 block, as `apply` on each row."""
        m = self.m
        out = m * xs if isinstance(m, float) else xs.dot(m.T)
        if self.region is not None:
            y = xs if self.projects_bare else self.sigma * xs + self.a
            out = out + self.sigma * (1.0 - 2.0 * m) * self.region.project_rows(y)
        return out + self.c


def _times(m, w: np.ndarray) -> np.ndarray:
    return m * w if isinstance(m, float) else m @ w


def _identity_minus(m):
    return 1.0 - m if isinstance(m, float) else np.eye(m.shape[0]) - m


def dense_affine(form: ResolventForm) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(M, c) with J(x) = M x + c as a dense matrix and vector, or None.

    J is affine when the form has no projection term, or when its projector
    is affine, P(y) = Q y + q: then with beta = sigma (1 - 2m),
    m x + beta P(sigma x + a) + c is (m + (1 - 2m) Q) x + beta (Q a + q) + c.
    """
    dim = form.c.size
    if form.region is None:
        m = form.m
        return (m * np.eye(dim) if isinstance(m, float) else m), form.c
    if form.region.affine_map is None:
        return None
    q_mat, q = form.region.affine_map()
    m = _times(form.m, np.eye(dim)) + (1.0 - 2.0 * form.m) * q_mat
    beta = form.sigma * (1.0 - 2.0 * form.m)
    return m, beta * (q_mat.dot(form.a + np.zeros(dim)) + q) + form.c


def _normal_form(form: ResolventForm) -> ResolventForm:
    """form with sigma = 1 and a = 0 when its set has an image rule, else form.

    With beta = sigma (1 - 2m), m x + beta P_S(sigma x + a) + c is
    m x + (1 - 2m) P_S'(x) + (c + beta a) with S' = sigma (S - a). A form
    whose new set or c would overflow float64 keeps sigma and a.
    """
    if form.region is None or form.region.image is None or form.projects_bare:
        return form
    a = form.a + np.zeros(form.c.size)
    with np.errstate(over="ignore", invalid="ignore"):
        c = form.c + form.sigma * (1.0 - 2.0 * form.m) * a
        try:
            region = form.region.image(form.sigma, a)
        except ValueError:
            return form
    if not np.isfinite(c).all():
        return form
    return ResolventForm(form.m, c, region)


def compile_resolvent(op: OperatorSpec) -> ResolventForm:
    """Fold op's wrapper stack into one closed-form resolvent.

    The walk goes down the stack to a leaf, whose `leaf_form` starts it, or
    to an operator compiled before, whose cached form is taken; each wrapper
    on the way back up applies its `fold`. The folded form is put in normal
    form (_normal_form) once, so that its projection term over any set but
    the epigraph is a bare P(x). The form is cached on the (immutable)
    operator object, and on a leaf reached by the walk, so each is
    compiled once; `form.apply(x)` evaluates J_op at a float64 vector x of
    the operator's dimension and returns a new array, and
    `form.apply_rows(xs)` does so for every row of a (k, dim) block.
    """
    stack = []  # the wrappers above the first compiled operator or leaf
    while (form := getattr(op, "_form", None)) is None and isinstance(op, Wrapper):
        stack.append(op)
        op = op.inner
    if form is None:
        if not hasattr(op, "leaf_form"):
            raise TypeError(f"unknown operator variant {type(op).__name__}")
        form = op.leaf_form()
        object.__setattr__(op, "_form", form)
    if stack:
        for wrapper in reversed(stack):
            form = wrapper.fold(form)
        form = _normal_form(form)
        object.__setattr__(stack[0], "_form", form)
    return form


def resolvent(op: OperatorSpec, x: np.ndarray) -> np.ndarray:
    """Evaluate J_op(x) = (Id + op)^-1 x; firmly nonexpansive in x."""
    x = as_vector(x, dim=op.dim)
    return compile_resolvent(op).apply(x)


def membership(op: OperatorSpec, x: np.ndarray, xstar: np.ndarray) -> bool:
    """Certify xstar in op(x) through the resolvent: J_op(x + xstar) == x."""
    x = as_vector(x, dim=op.dim)
    xstar = as_vector(xstar, dim=op.dim)
    d = compile_resolvent(op).apply(x + xstar) - x
    return bool(length(d) <= TOL_CERT * (1.0 + length(x)))
