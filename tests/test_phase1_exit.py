"""Phase 1's certified exit, on families whose v is known in closed form.

v is the least-norm element of cl ran(Id - T), so every displacement d has
<d - v, v> >= 0, hence |d - v|^2 <= |d|^2 - |v|^2 <= |d|^2: a row with
|d_n| <= tol_v certifies d_n as v to within tol_v. Phase 1 takes that exit
before row _WINDOW, where the window partner d_{n - _WINDOW} of its stop
statistic |d_n - d_{n - _WINDOW}| is the zero vector. When |v| > tol_v no
row can exit so, and phase 1 runs exactly as the window test alone.

After either stop rule, phase 2 of a normal solve starts at phase 1's last
iterate x_N. Phase 1 returns w = d_{N-1} = x_{N-1} - x_N, so
x_N + w = x_{N-1} up to one rounding and T(x_N + w) = x_N: the v-shifted
map already fixes x_N. After a spent budget phase 2 starts cold at x0.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from normsplit import (
    AffineMonotone,
    AffineSubspace,
    Ball,
    Box,
    NormalCone,
    OperatorPair,
    SolveOptions,
    dr_apply,
    estimate_v,
    solve_normal,
    solve_perturbed,
)
from normsplit.scenarios import build_registry, get_scenario
from normsplit.splitting import _WINDOW, CONVERGED

from reference import same_report
from zoo import operator_pairs, rng

# every family's data is at most about 20 in size, so its computed
# displacements are within this of exact ones
ROUNDING = 1e-10
MAX_ITER = 2000

coords = st.floats(-5.0, 5.0)
tols = st.floats(1e-9, 1e-2)
# overlapping, touching within rounding, and apart by a little or a lot
gaps = st.one_of(st.floats(-2.0, -0.1), st.floats(1e-9, 1e-3), st.floats(0.1, 2.0))


def window_only(pair, x0, max_iter: int, tol: float):
    """Phase 1 one step at a time with the window test as its only stop rule:
    the iterates and displacements of its rows."""
    step = pair.affine_step
    x_next = np.asarray(x0, dtype=float).copy()
    xs, disps = [], []
    for n in range(max_iter):
        x = x_next
        x_next = step[0].dot(x) + step[1] if step is not None else dr_apply(pair, x)
        disp = x - x_next
        xs.append(x)
        disps.append(disp)
        if n >= _WINDOW:
            d = disp - disps[n - _WINDOW]
            if math.sqrt(d.dot(d)) <= tol:
                break
    return np.array(xs), np.array(disps)


def check_warm_start(pair, x0, opts: SolveOptions) -> bool:
    """solve_normal against its phase 2 run by hand: from x_N after a stop
    rule, which certifies within two rows, else from x0. Returns whether a
    stop rule fired."""
    report = solve_normal(pair, x0, opts)
    v_hat, end = estimate_v(pair, x0, opts.max_iter, opts.tol_v)
    settled = end.x_last is not None
    expected = solve_perturbed(pair, v_hat, end.x_last if settled else x0, opts)
    if settled:
        assert expected.status == CONVERGED and all(expected.certificates.values())
        assert expected.iterations_used <= 2
    expected.iterations_used += len(end)
    assert same_report(report, expected)
    return settled


def check_exit(pair, v_oracle, x0, tol_v: float):
    # a budget of 3 rows leaves phase 1 unsettled unless it exits at row 0, 1 or 2
    for budget in (MAX_ITER, 3):
        check_warm_start(pair, x0, SolveOptions(max_iter=budget, tol_v=tol_v))
    v_hat, trace = estimate_v(pair, x0, MAX_ITER, tol_v, record=True)
    if len(trace) <= _WINDOW:
        assert np.linalg.norm(v_hat - v_oracle) <= tol_v + ROUNDING
    if np.linalg.norm(v_oracle) > tol_v + ROUNDING:
        assert len(trace) >= _WINDOW + 1
        xs, disps = window_only(pair, x0, MAX_ITER, tol_v)
        assert trace.xs.tobytes() == xs.tobytes()
        assert trace.displacements.tobytes() == disps.tobytes()
        assert v_hat.tobytes() == disps[-1].tobytes()


def points(data, dim: int, elements=coords) -> np.ndarray:
    return np.array(data.draw(st.lists(elements, min_size=dim, max_size=dim)))


@settings(max_examples=60)
@given(data=st.data())
def test_balls(data):
    # U = Ball(c1, r1), V = Ball(c2, r2): v is the gap from U to V, or 0 if they meet
    c1, r1, r2 = points(data, 2), data.draw(st.floats(0.5, 3.0)), data.draw(st.floats(0.5, 3.0))
    angle = data.draw(st.floats(0.0, 2 * math.pi))
    c2 = c1 + (r1 + r2 + data.draw(gaps)) * np.array([math.cos(angle), math.sin(angle)])
    dist = float(np.linalg.norm(c2 - c1))
    v_oracle = max(dist - r1 - r2, 0.0) * (c2 - c1) / dist
    pair = OperatorPair(NormalCone(Ball(c1, r1)), NormalCone(Ball(c2, r2)))
    check_exit(pair, v_oracle, points(data, 2), data.draw(tols))


@settings(max_examples=60)
@given(data=st.data(), dim=st.integers(2, 3), shared=st.booleans())
def test_boxes(data, dim, shared):
    # boxes around p and q, sharing p when `shared`: V - U is the box
    # [lo2 - hi1, hi2 - lo1], and v is the nearest point of it to 0
    p = points(data, dim)
    q = p if shared else p + points(data, dim, st.floats(-3.0, 3.0))
    widths = st.floats(0.0, 2.0)
    lo1, hi1 = p - points(data, dim, widths), p + points(data, dim, widths)
    lo2, hi2 = q - points(data, dim, widths), q + points(data, dim, widths)
    v_oracle = np.clip(0.0, lo2 - hi1, hi2 - lo1)
    pair = OperatorPair(NormalCone(Box(lo1, hi1)), NormalCone(Box(lo2, hi2)))
    check_exit(pair, v_oracle, points(data, dim), data.draw(tols))


@settings(max_examples=60)
@given(data=st.data(), dim=st.integers(2, 4))
def test_feasible_affine_maps(data, dim):
    # A x = M x + a and B x = N x + b with M + N positive definite: A + B
    # has a zero, so v = 0
    entries = st.floats(-1.0, 1.0)

    def monotone(shift: float) -> np.ndarray:
        g = points(data, dim * dim, entries).reshape(dim, dim)
        s = points(data, dim * dim, entries).reshape(dim, dim)
        return g @ g.T + (s - s.T) + shift * np.eye(dim)

    pair = OperatorPair(AffineMonotone(monotone(0.1), points(data, dim)),
                        AffineMonotone(monotone(0.0), points(data, dim)))
    assert pair.affine_step is not None
    check_exit(pair, np.zeros(dim), points(data, dim), data.draw(tols))


@settings(max_examples=60)
@given(data=st.data())
def test_parallel_lines(data):
    # lines through p and q along e: v is the part of q - p normal to e,
    # which the `offset` draw keeps small or sets to 0 in some examples
    p = points(data, 2)
    angle = data.draw(st.floats(0.0, math.pi))
    e = np.array([math.cos(angle), math.sin(angle)])
    normal = np.array([-e[1], e[0]])
    offset = data.draw(st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3), coords))
    q = p + data.draw(coords) * e + offset * normal
    v_oracle = (q - p) - (q - p).dot(e) * e
    pair = OperatorPair(NormalCone(AffineSubspace(p, [e])), NormalCone(AffineSubspace(q, [e])))
    assert pair.affine_step is not None
    check_exit(pair, v_oracle, points(data, 2), data.draw(tols))


def test_an_infinite_tolerance_stops_after_one_row():
    pair = get_scenario("overlapping-balls").pair
    x0 = np.array([5.0, -1.0])
    v_hat, end = estimate_v(pair, x0, max_iter=30, tol_v=math.inf)
    assert len(end) == 1
    np.testing.assert_array_equal(v_hat, x0 - dr_apply(pair, x0))


def test_registry_and_zoo_pairs_start_phase_2_where_phase_1_stopped():
    # the epigraph's phase 1 spends its budget, and so do some zoo pairs'
    cases = [(sc.pair, None, SolveOptions(max_iter=4000) if name == "epigraph" else sc.solve_opts)
             for name, sc in ((name, get_scenario(name)) for name in sorted(build_registry()))]
    gen = rng(47)
    for dim in (2, 3, 5):
        cases += [(pair, gen.normal(scale=3.0, size=dim), SolveOptions(max_iter=2000))
                  for _, pair in operator_pairs(dim)]
    settled = [check_warm_start(*case) for case in cases]
    assert any(settled) and not all(settled)
