"""Douglas-Rachford splitting, infimal displacement estimation, normal solves.

For a pair (A, B) of maximally monotone operators the splitting operator is

    T = J_A (2 J_B - Id) + Id - J_B,

firmly nonexpansive, equivalently (Id + R_A R_B) / 2. Its displacement map
Id - T has convex closed range; the unique minimal-norm element v of that
closure is the infimal displacement vector. Along any orbit x_{n+1} = T x_n
the displacement x_n - x_{n+1} converges to v, its norm non-increasing in n.
The w-perturbed problem "find x with w in A(x - w) + Bx" is governed by
the argument-shifted map x -> T(x + w): from one of its fixed
points x the solution is read off the shadow z = J_B(x + w), with dual
certificate k = x - z satisfying k + w in Bz and -k in A(z - w). The normal
problem is the w-perturbed problem at w = v, solved here in two phases:
estimate v along the plain orbit, then iterate the v-shifted map.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import NonFiniteIterateError, PreconditionError
from .operators import OperatorSpec, compile_resolvent, dense_affine, membership
from .vecspace import as_rows, as_vector, length

CONVERGED = "converged"
NO_FIXED_POINT = "no_fixed_point_detected"
MAX_ITER = "max_iter"

# tail fraction that must be straight-line drift to count as divergence evidence
_DRIFT_RATIO = 0.9
# phase 1 stops at the first |d_n - d_{n-_WINDOW}| <= tol_v, with d_m = 0 for m < 0
_WINDOW = 50
# trace rows allocated up front; the arrays double when full
_FIRST_ROWS = 256
# above this dimension a dense dim x dim step costs more than two resolvents
_FUSED_MAX_DIM = 200
# a landing's statistic, and a one-product block row's, must exceed this times a
# bound on the iterates its product spans (|x_n| + _WINDOW |d_n| for a landing);
# jumped and stepped iterates differ by at most 1e-13 times it on the fused registry and
# zoo pairs (tests/test_block_orbit.py::TestLandings::test_a_jump_matches_window_fused_steps)
_LANDING_FLOOR = 1e-12
# to_csv formats this many rows at a time, so its peak stays near the file size
_CSV_ROWS = 1024


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

    @cached_property
    def affine_step(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """(M_T, t) with T x = M_T x + t when both resolvents are affine, else None.

        From J_A x = M_A x + c_A and J_B x = M_B x + c_B,
        M_T = M_A (2 M_B - I) + I - M_B and t = 2 M_A c_B + c_A - c_B; built
        once per pair, at the cost of one dim x dim matrix product. Pairs
        above _FUSED_MAX_DIM get None, and so does a pair whose M_T or t
        overflows, so that its orbit overflows step by step as the two
        resolvents do.
        """
        if self.dim > _FUSED_MAX_DIM:
            return None
        parts_a = dense_affine(compile_resolvent(self.A))
        parts_b = dense_affine(compile_resolvent(self.B))
        if parts_a is None or parts_b is None:
            return None
        (m_a, c_a), (m_b, c_b) = parts_a, parts_b
        eye = np.eye(self.dim)
        with np.errstate(over="ignore", invalid="ignore"):
            m_t = m_a.dot(2.0 * m_b - eye) + (eye - m_b)
            t = 2.0 * m_a.dot(c_b) + c_a - c_b
        if not (np.isfinite(m_t).all() and np.isfinite(t).all()):
            return None
        return m_t, t

    @cached_property
    def _window_jump(self) -> tuple[np.ndarray, np.ndarray]:
        """(M_T^_WINDOW, I + M_T + ... + M_T^(_WINDOW - 1)) of a pair with an affine_step.

        Along x -> M_T x + t_w, x_{n+_WINDOW} is the first times x_n plus the
        second times t_w. Built on first use by repeated squaring, at the cost
        of 12 dim x dim matrix products; a jump that overflows gives a
        non-finite landing, which _leap refuses.
        """
        m_t = self.affine_step[0]
        power, total = m_t, np.eye(self.dim)  # M_T^k and I + ... + M_T^(k-1), k = 1
        with np.errstate(over="ignore", invalid="ignore"):
            for bit in bin(_WINDOW)[3:]:
                power, total = power @ power, total + power @ total  # k -> 2k
                if bit == "1":
                    power, total = power @ m_t, total + power  # k -> k + 1
        return power, total


@dataclass(frozen=True)
class SolveOptions:
    """Iteration budgets and tolerances; defaults are generous for desk scale."""

    max_iter: int = 200_000
    tol_v: float = 1e-8
    tol_fix: float = 1e-9


def _write_in_place(path, text: str, newline: Optional[str]) -> None:
    """Write text over path's old bytes in one write, then cut a regular file to length.

    open(path, "w") truncates to zero first, which can cost more than the write.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline=newline) as fh:
        fh.write(text)
        if os.path.isfile(path):  # /dev/null, pipes and ttys refuse a truncate
            fh.truncate()


class OrbitEnd:
    """Where an orbit stopped: its row count N and the estimate of v there.

    v_diff is the last displacement x_{N-1} - x_N. x_last is the iterate
    x_N when phase 1's stop rule fired, else None (a spent budget, or
    phase 2). x_N + v_diff is x_{N-1} up to one rounding, so x_N is a fixed
    point of x -> T(x + v_diff) up to that rounding: solve_normal starts
    phase 2 there. A solve
    run without a trace keeps only this of each phase; len() is N.
    """

    def __init__(self, rows: int, v_diff: np.ndarray, x_last: Optional[np.ndarray] = None):
        self.rows = rows
        self.v_diff = v_diff
        self.x_last = x_last

    def __len__(self) -> int:
        return self.rows


class IterationTrace(OrbitEnd):
    """Per-step orbit record, stored column-wise; its last row is its OrbitEnd.

    Row n describes the governing iterate x_n: the shadow J_B(x_n + w) and
    the displacement x_n - T(x_n + w), which along an orbit is the v_diff
    estimate.
    """

    def __init__(self, xs, shadows, displacements, x_last=None):
        super().__init__(xs.shape[0], displacements[-1], x_last)
        self.xs = xs
        self.shadows = shadows
        self.displacements = displacements

    def to_csv(self, path) -> None:
        """Rows n, x_n, shadow, the displacement norm twice, and |-x_n / n|.

        The last, v_cesaro_norm, reads |-x_1| in row 0, with x_1 = x_0 minus
        its displacement in a one-row trace. Rows go _CSV_ROWS at a time.
        """
        xs, disps = self.xs, self.displacements
        rows, dim = xs.shape
        text = io.StringIO(newline="")
        writer = csv.writer(text)
        writer.writerow(
            ["n"]
            + [f"x_{j}" for j in range(dim)]
            + [f"shadow_{j}" for j in range(dim)]
            + ["displacement_norm", "v_diff_norm", "v_cesaro_norm"]
        )
        for start in range(0, rows, _CSV_ROWS):
            stop = min(start + _CSV_ROWS, rows)
            d_norms = length(disps[start:stop])
            with np.errstate(divide="ignore", invalid="ignore"):  # row 0 divides by 0
                cesaros = xs[start:stop] / -np.arange(start, stop)[:, None]
            if start == 0:
                cesaros[0] = -(xs[1] if rows > 1 else xs[0] - disps[0])
            c_norms = length(cesaros)
            # csv writes a Python float as its repr, the shortest exact form
            cells = np.column_stack(
                (xs[start:stop], self.shadows[start:stop], d_norms, d_norms, c_norms)).tolist()
            writer.writerows([n] + row for n, row in enumerate(cells, start))
        _write_in_place(path, text.getvalue(), newline="")


@dataclass(eq=False)
class SolveReport:
    """Outcome of a perturbed or normal solve, with membership certificates."""

    v_estimate: np.ndarray
    status: str
    normal_solution: Optional[np.ndarray]
    governing_point: Optional[np.ndarray]
    dual_solution: Optional[np.ndarray]
    certificates: dict
    iterations_used: int
    trace: Optional[IterationTrace] = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# the splitting operator
# ---------------------------------------------------------------------------

def dr_apply(pair: OperatorPair, x: np.ndarray) -> np.ndarray:
    """One application of T = J_A R_B + Id - J_B; firmly nonexpansive.

    x is one point, or a finite (k, dim) block of k points, for which T of
    each row comes back in one pass. The difference u = jb - x goes first,
    J_A(jb + u) - u, so that no intermediate overflows where 2 jb - x would
    while T x is still finite; u is taken once, which is bit-identical to
    J_A(jb + (jb - x)) + (x - jb), since fl(x - jb) = -fl(jb - x).
    """
    return _step_and_shadow(pair, x)[0]


def _step_and_shadow(pair: OperatorPair, x) -> tuple[np.ndarray, np.ndarray]:
    # dr_apply's T x, with the shadow J_B x it passes through
    form_a, form_b = compile_resolvent(pair.A), compile_resolvent(pair.B)
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        x, apply_a, apply_b = as_rows(x, pair.dim), form_a.apply_rows, form_b.apply_rows
    else:
        x, apply_a, apply_b = as_vector(x, dim=pair.dim), form_a.apply, form_b.apply
    jb = apply_b(x)
    u = jb - x
    return apply_a(jb + u) - u, jb


# ---------------------------------------------------------------------------
# the iteration loop shared by both solve phases
# ---------------------------------------------------------------------------

def certify(pair: OperatorPair, z: np.ndarray, k: np.ndarray, w: np.ndarray) -> dict:
    """Membership certificates of (z, k) for the w-perturbed problem.

    "b_side" certifies k + w in B(z) and "a_side" -k in A(z - w).
    """
    return {
        "b_side": membership(pair.B, z, k + w),
        "a_side": membership(pair.A, z - w, -k),
    }


def _grown(rows: np.ndarray, capacity: int) -> np.ndarray:
    out = np.empty((capacity, rows.shape[1]))
    out[: rows.shape[0]] = rows
    return out


def _fused_step(pair: OperatorPair, w: Optional[np.ndarray]):
    # (M_T, M_T w + t): x -> T(x + w) as one matrix-vector product, or None
    step = pair.affine_step
    if step is None or w is None:
        return step
    m_t, t = step
    t_w = m_t.dot(w) + t
    return (m_t, t_w) if np.isfinite(t_w).all() else None


def _leap(pair: OperatorPair, t_w, shift, x: np.ndarray, n: int, last_landing: int,
          estimating: bool, bound: float):
    """Jump from row n to row L = n + _WINDOW while no row in [n, L) can stop.

    x_L = M_T^_WINDOW x_n + shift, shift = (I + ... + M_T^(_WINDOW - 1)) t_w, is
    one product (OperatorPair._window_jump), and row L's statistic one more,
    for x_{L+1}. Along a fused orbit d_{m+1} = M_T d_m and |M_T y| <= |y|, since T is
    nonexpansive, so phase 2's statistic |d_m| never increases, nor from row
    _WINDOW on does phase 1's |d_m - d_{m-_WINDOW}|, here d_L - d_n. So when
    row L's squared statistic is above `bound`, the block screen's 2 tol^2,
    every row before it is above tol. It must also be finite, which x_L and
    x_{L+1} then are, and above (_LANDING_FLOOR r)^2, r = |x_n| + _WINDOW |d_n|:
    no skipped iterate is longer than r, so r bounds the rounding by which
    jumped iterates differ from stepped ones, and an r that overflows (or
    passes about 1e166) refuses the landing. Landings stop at last_landing.

    Returns (n, x_n, start): the row and iterate of the last landing taken,
    and the iterate it jumped from, or None when no landing was taken.
    """
    power = pair._window_jump[0]
    dot, inf = pair.affine_step[0].dot, math.inf
    d = x - (dot(x) + t_w)
    start = None
    while n + _WINDOW <= last_landing:
        x_land = power.dot(x) + shift
        d_land = x_land - (dot(x_land) + t_w)
        e = d_land - d if estimating else d_land
        floor = _LANDING_FLOOR * (length(x) + _WINDOW * length(d))
        if not max(bound, floor * floor) < e.dot(e) < inf:
            break
        start, x, d = x, x_land, d_land
        n += _WINDOW
    return n, x, start


def _fast_forward(pair: OperatorPair, t_w, x0: np.ndarray, estimating: bool, max_iter: int,
                  tol: float, drift_from: int):
    """Step x -> M_T x + t_w in blocks and jumps, up to the first row a stop rule might act on.

    The rows go into one (_WINDOW + 1, dim) buffer, each by
    `m_t.dot(x, out=row); row += t_w`. A block ends at the next multiple of
    _WINDOW, or after one row at a probe: row _WINDOW in phase 1 (the first
    with a real window partner) and row 0 in phase 2, computed alike before
    the buffer is allocated, for a warm start that hands off there. Rows are
    taken in order while their squared stop-rule norm is finite and above
    2 tol^2, signed as tol, so that rounding cannot hide a stop and a
    negative tol screens out no row. Taken rows update phase 1's window ring,
    or phase 2's drift iterate x_from and path sum, as the per-step loop
    would. The first other row, or row max_iter - 1, ends the fast-forward,
    so the per-step loop runs that row and every stop rule.

    At row 2 _WINDOW in phase 1 and row _WINDOW in phase 2 the orbit first
    jumps _WINDOW rows at a time (_leap), by landings no later than row
    max_iter - 2 and, in phase 2, than drift_from, since the drift rows are
    summed one by one. After a landing phase 1 steps the last jump's rows
    again to refill its window ring. Jumped iterates agree with stepped ones
    to rounding, not bit for bit; blocks resume at the first landing refused.

    Once a landing is taken, a block that follows a whole one is one product,
    x_{n+i} = M_T^_WINDOW x_{n+i-_WINDOW} + S t_w, through the window array.
    Its squared statistics up to the handoff row must also be above the
    rounding floor (_LANDING_FLOOR r)^2, r = |x_s| + 2 _WINDOW |d_s| at its
    first source row s, a bound on every iterate the product spans; else it
    and every later block are stepped. Phase 2 keeps a tail so computed only
    if it reaches row max_iter - 1 and its drift verdict stands with the net
    move and each path row off by e = 2 blocks _LANDING_FLOOR r_max (r_max the
    largest r); else its blocks run again, stepped, from the last landing.

    Returns (n, x_n, ring, path, x_from) for the per-step loop to resume at
    row n; ring is a list of the last _WINDOW displacements in phase 1, else
    None.
    """
    bound = math.copysign(2.0 * tol * tol, tol)
    dot, n = pair.affine_step[0].dot, 0
    if not estimating and max_iter > 1:  # drift_from >= 1, so row 0 adds to no drift sum
        x1 = dot(x0, out=np.empty_like(x0))
        x1 += t_w
        d = x0 - x1
        if not bound < d.dot(d) < math.inf:
            return 0, x0, None, 0.0, None
        x0, n = x1, 1
    dim = x0.size
    block = np.empty((_WINDOW + 1, dim))
    block[0] = x0
    steps = list(zip(rows := list(block), rows[1:]))  # one view per row, in two steps
    # per row: d_n = x_n - x_{n+1} (less d_{n-_WINDOW} in phase 1; first a
    # one-product block's rows), its squared norm, and whether it is taken
    window = np.empty((_WINDOW, dim))
    squares = np.empty(_WINDOW)
    taken, finite = np.empty(_WINDOW, dtype=bool), np.empty(_WINDOW, dtype=bool)
    ring = np.zeros((min(_WINDOW, max_iter), dim)) if estimating else None
    probe = _WINDOW if estimating else None  # phase 2's ran above
    leap_from = 2 * _WINDOW if estimating else _WINDOW
    last_landing = max_iter - 2 if estimating else min(drift_from, max_iter - 2)
    path, x_from = 0.0, None
    # the last landing (n, x_n); whether block[1:] holds x_{n-_WINDOW+1} .. x_n
    # after one; the blocks computed by one product, and their largest r
    landing, whole, blocks, r_max = None, False, 0, 0.0
    for propagate in (True, False):  # a second pass steps phase 2's tail again
        while n < max_iter - 1:
            if n == leap_from and n + _WINDOW <= last_landing:
                power, shift = pair._window_jump[0], pair._window_jump[1].dot(t_w)
                n, x, start = _leap(pair, t_w, shift, block[0], n, last_landing, estimating, bound)
                if start is not None:
                    landing, whole = (n, x), estimating
                if start is not None and estimating:  # refill the ring from the last jump's rows
                    block[0] = start
                    for x, x_next in steps:
                        dot(x, out=x_next)
                        x_next += t_w
                    np.subtract(block[:_WINDOW], block[1:], out=ring)  # n is a multiple of _WINDOW
                    x = block[_WINDOW]
                block[0] = x
            end = min(n + 1 if n == probe else (n // _WINDOW + 1) * _WINDOW, max_iter - 1)
            count = end - n
            propagated = propagate and whole
            if propagated:  # one product for the block, from the _WINDOW rows before it
                r = length(block[1]) + 2 * _WINDOW * length(block[1] - block[2])
                np.dot(block[1:count + 1], power.T, out=window[:count])
                np.add(window[:count], shift, out=block[1:count + 1])
            else:
                for x, x_next in steps[:count]:
                    dot(x, out=x_next)
                    x_next += t_w
            d = np.subtract(block[:count], block[1:count + 1], out=window[:count])
            slot = n % _WINDOW
            if estimating:
                d -= ring[slot:slot + count]
            # each row's d.dot(d), by the same BLAS dot
            sq = np.vecdot(d, d, out=squares[:count])
            ok = np.less(bound, sq, out=taken[:count])
            ok &= np.isfinite(sq, out=finite[:count])
            kept = count if ok.all() else int(ok.argmin())
            if propagated:  # a row up to the handoff at the rounding floor steps the block again
                if not (sq[:kept + 1] > (_LANDING_FLOOR * r) ** 2).all():
                    propagate = False  # and every later one
                    continue
                blocks, r_max = blocks + 1, max(r_max, r)
            if estimating:
                np.subtract(block[:kept], block[1:kept + 1], out=ring[slot:slot + kept])
            elif n + kept > drift_from:
                if n <= drift_from:
                    x_from = block[drift_from - n].copy()
                for size in np.sqrt(sq[max(drift_from - n, 0):kept]).tolist():
                    path += size
            n += kept
            whole = landing is not None and kept == _WINDOW
            block[0] = block[kept]
            if kept < count:
                break
        if estimating or not blocks or x_from is None:
            break
        if n == max_iter - 1:  # the per-step loop's drift verdict, if rounding cannot move it
            net, e = length(block[0] - x_from), 2.0 * blocks * _LANDING_FLOOR * r_max
            slack = (max_iter - 1 - drift_from) * e
            if net + e < _DRIFT_RATIO * (path - slack) or net - e >= _DRIFT_RATIO * (path + slack):
                break
        (n, x), path, x_from, blocks = landing, 0.0, None, 0
        block[0] = x
    return n, block[0].copy(), (list(ring) if estimating else None), path, x_from


# the loop reports a non-finite iterate itself, as NonFiniteIterateError
@np.errstate(over="ignore", invalid="ignore")
def _orbit(pair: OperatorPair, x0, w: Optional[np.ndarray], max_iter: int,
           tol: float, record: bool = False):
    """Iterate x -> T(x + w), or plain T when w is None.

    With w None (phase 1) the loop stops at the first row n with
    |d_n - d_{n-_WINDOW}| <= `tol`, d_n = x_n - x_{n+1} and d_m = 0 for m < 0;
    estimate_v says why a stop before row _WINDOW is certified. Otherwise (phase 2)
    it stops at the first certified fixed point, |x - T(x + w)| <= tol with
    both membership certificates (certify). No radius bounds the orbit: the
    orbit of a firmly nonexpansive T grows at most linearly, wherever its
    fixed points lie. An orbit that spends the budget N = max_iter is
    declared drifting when
    |x_{N-1} - x_{N-1-k}| is at least _DRIFT_RATIO times the path length
    |x_{N-1-k} - x_{N-k}| + ... + |x_{N-2} - x_{N-1}|, k = min(1000, N // 4),
    while |x_{N-1} - x_N| > tol; N < 100 steps are too few for that verdict.
    A non-finite iterate x_{n+1} raises NonFiniteIterateError(n), unless a
    stop rule fires at row n or before. The check that catches it runs only
    when the row's stop-rule norm is not finite. A certificate check that
    reads a non-finite x + w, shadow, k + w or z - w raises PreconditionError.

    Only what the stop rules read is kept: phase 1 a ring of the last
    _WINDOW displacements, phase 2 the iterate x_{N-1-k} and a running sum
    of displacement norms. With `record` every row also goes into an
    IterationTrace.

    One per-step loop runs the stop rules, after every step. A step
    evaluates J_B and J_A, as dr_apply does, unless the pair has an
    affine_step: then T(x + w) = M_T x + t_w with t_w = M_T w + t folded once
    per call, one matrix-vector product, and the shadow J_B(x + w) is
    evaluated only for a recorded row or a certificate check. An unrecorded
    such orbit first fast-forwards (_fast_forward) through the rows that can
    neither stop nor overflow, in blocks and in jumps of _WINDOW rows (after a
    landing, a block is one product), and the per-step loop takes over at the
    first row that might, recomputing it. So the rows, status, certificates
    and any overflow row are those of the per-step loop alone; so are the
    vectors, bit for bit, unless a jump lands, after which they agree to
    rounding; phase 2 steps again a drift tail whose verdict that could move.

    Returns (end, status, certificates, solution). end is an OrbitEnd, the
    IterationTrace itself when recording; its x_last is x_N when phase 1's
    stop rule fired, else None; status is CONVERGED or
    NO_FIXED_POINT (drift) when phase 2 stops so, else MAX_ITER;
    certificates are the last ones checked, and solution is the certified
    (x, z, k) or None.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    estimating = w is None
    dim = pair.dim
    apply_a = compile_resolvent(pair.A).apply
    apply_b = compile_resolvent(pair.B).apply
    x_next = np.zeros(dim) if x0 is None else as_vector(x0, dim=dim).copy()
    sqrt, inf = math.sqrt, math.inf
    # the drift verdict reads x_{N-1-k} and the norms of rows N-1-k .. N-2
    last = max_iter - 1
    drift_from = last - min(1000, max_iter // 4) if max_iter >= 100 else max_iter
    if record:
        capacity = min(max_iter, _FIRST_ROWS)
        xs, shadows, disps = (np.empty((capacity, dim)) for _ in range(3))
    status, certificates, solution, x_last = MAX_ITER, {}, None, None
    # displacement n - _WINDOW sits at n % _WINDOW; n never reaches max_iter
    ring = [None] * min(_WINDOW, max_iter)
    start, path, x_from = 0, 0.0, None
    step = _fused_step(pair, w)
    if step is not None:
        m_t, t_w = step
        dot = m_t.dot
        if not record:
            start, x_next, ring, path, x_from = _fast_forward(
                pair, t_w, x_next, estimating, max_iter, tol, drift_from)
    for n in range(start, max_iter):
        x = x_next
        if step is None:
            y = x if estimating else x + w
            jb = apply_b(y)
            u = jb - y
            x_next = apply_a(jb + u) - u
        else:
            x_next = dot(x) + t_w
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
                try:
                    certificates = certify(pair, jb, k, w)
                except ValueError:  # as_vector refuses a non-finite x + w, shadow, k + w or z - w
                    raise PreconditionError(f"the certificate check at x_{n} overflowed float64") from None
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
    # the budget is spent: phase 2 takes the drift verdict (phase 1 has no path,
    # and a converged phase 2 ends with size <= tol)
    if path > 0.0 and size > tol:
        net = x - x_from
        if sqrt(net.dot(net)) / path >= _DRIFT_RATIO:
            status = NO_FIXED_POINT

    rows = n + 1
    if not record:
        return OrbitEnd(rows, disp, x_last), status, certificates, solution
    trace = IterationTrace(xs[:rows], shadows[:rows], disps[:rows], x_last)
    return trace, status, certificates, solution


# ---------------------------------------------------------------------------
# infimal displacement vector
# ---------------------------------------------------------------------------

def estimate_v(pair: OperatorPair, x0=None, max_iter: int = SolveOptions.max_iter,
               tol_v: float = SolveOptions.tol_v, record: bool = False,
               ) -> tuple[np.ndarray, OrbitEnd]:
    """Estimate v as the displacement d_n = x_n - x_{n+1} along x_{n+1} = T x_n.

    Iteration stops at the first row n with |d_n - d_{n-50}| <= tol_v,
    d_m = 0 for m < 0 (_WINDOW = 50), else at max_iter. Before row 50 that
    is |d_n| <= tol_v, which certifies the estimate: v is the least-norm
    element of cl ran(Id - T), so |d_n - v| <= |d_n|. Only |v| <= tol_v lets
    it fire (tol_v = inf stops after one row). The returned OrbitEnd
    has the row count, and x_last = x_N when a stop rule fired (None when
    the budget ran out); with `record` it is the full IterationTrace. Without
    it, memory is O(_WINDOW * dim) whatever max_iter is. Raises
    NonFiniteIterateError if the orbit overflows.
    """
    end = _orbit(pair, x0, None, max_iter, tol_v, record=record)[0]
    return end.v_diff.copy(), end


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
    point is reported as evidence only: a straight-line drifting tail with
    residual still above tol_fix at the iteration budget. v_estimate is a copy
    of the w solved for: in solve_normal, the phase-1 estimate. The report's
    trace is the IterationTrace with `record`, else None.
    """
    opts = opts or SolveOptions()
    w = as_vector(w, dim=pair.dim)
    end, status, certificates, solution = _orbit(
        pair, x0, w, opts.max_iter, opts.tol_fix, record=record
    )
    governing, z, k = solution or (None, None, None)
    return SolveReport(
        v_estimate=w.copy(),
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

    When phase 1 stops on its own rule, phase 2 starts at phase 1's last
    iterate x_N, which the v-shifted map already fixes up to one rounding, so
    it certifies at its first row unless that rounding exceeds opts.tol_fix.
    When phase 1 spends its budget, phase 2 starts cold at x0: there the
    estimate may approach a v that is never attained, and only the cold
    orbit's drift verdict can say so, since the estimate's own problem always
    has the fixed point x_N.
    opts.max_iter budgets each phase separately; iterations_used totals both.
    With `record` the report's trace is phase 2's IterationTrace, else None.
    Phase 1's row count and x_N, and with `record` its full trace, come from
    estimate_v(pair, x0, opts.max_iter, opts.tol_v), which phase 1 runs.
    """
    opts = opts or SolveOptions()
    v, v_end = estimate_v(pair, x0, opts.max_iter, opts.tol_v)
    start = x0 if v_end.x_last is None else v_end.x_last
    report = solve_perturbed(pair, v, start, opts, record=record)
    report.iterations_used += len(v_end)
    return report
