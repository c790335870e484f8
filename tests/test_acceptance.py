"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Displacements follow the sign convention of README.md: v is the
least-norm element of cl ran(Id - T), the displacement x - Tx.
"""

import time

import numpy as np
import pytest

from normsplit import (
    Inverse,
    calculus_identity_pair,
    complement_is_dr,
    dr_apply,
    dual_pair,
    estimate_v,
    psi,
    psi_inv,
    reflected_resolvent,
    resolvent,
    solve_normal,
)
from normsplit.scenarios import (
    affine_least_norm_witness,
    build_registry,
    get_scenario,
    rotator_matrix,
    scenario_affine,
)

SEED = 24601

CONVERGING_SCENARIOS = [
    "overlapping-balls",
    "disjoint-balls",
    "two-lines",
    "box-halfspace",
    "rotators-default",
    "constants-default",
    "least-squares-default",
    "affine-default",
]


def _line(n: int, verdict: str, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {verdict} - {detail}")


@pytest.fixture(scope="module")
def epigraph_report():
    sc = get_scenario("epigraph")
    return solve_normal(sc.pair, opts=sc.solve_opts)


def test_criterion_1_consistency_recovery():
    pair = get_scenario("overlapping-balls").pair
    start = time.perf_counter()
    report = solve_normal(pair)
    elapsed = time.perf_counter() - start
    assert np.linalg.norm(report.v_estimate) <= 1e-6
    assert report.status == "converged"
    assert report.certificates == {"b_side": True, "a_side": True}
    assert report.iterations_used <= 5000
    assert elapsed < 1.0
    _line(1, "PASS", f"|v|={np.linalg.norm(report.v_estimate):.2e}, "
                     f"{report.iterations_used} iterations, {elapsed:.3f}s")


def test_criterion_2_inconsistent_feasibility():
    sc = get_scenario("disjoint-balls")
    start = time.perf_counter()
    report = solve_normal(sc.pair)
    v_ba, _ = estimate_v(sc.pair.swapped())
    elapsed = time.perf_counter() - start
    oracle = sc.oracle()
    np.testing.assert_allclose(oracle.v, [1.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(report.v_estimate, [1.0, 0.0], atol=1e-6)
    np.testing.assert_allclose(report.normal_solution, [2.0, 0.0], atol=1e-6)
    np.testing.assert_allclose(v_ba, [-1.0, 0.0], atol=1e-6)
    assert elapsed < 1.0
    _line(2, "PASS", f"v={report.v_estimate.round(9).tolist()}, "
                     f"z={report.normal_solution.round(9).tolist()}, {elapsed:.3f}s")


def test_criterion_3_parallel_lines():
    pair = get_scenario("two-lines").pair
    v, trace = estimate_v(pair, max_iter=1)
    assert len(trace) == 1
    np.testing.assert_array_equal(v, [0.0, 1.0])
    report = solve_normal(pair)
    assert report.status == "converged"
    assert abs(report.normal_solution[1] - 1.0) <= 1e-9
    _line(3, "PASS", "v_diff exactly (0,1) after 1 iteration; z_2 = 1")


def test_criterion_4_rotator_example():
    sc = get_scenario("rotators-default")
    v_ab, _ = estimate_v(sc.pair)
    v_ba, _ = estimate_v(sc.pair.swapped())
    np.testing.assert_allclose(v_ab, [0.5, -0.5], atol=1e-7)
    assert abs(float(np.dot(v_ab, v_ba))) <= 1e-8
    assert abs(np.linalg.norm(v_ab) - np.linalg.norm(v_ba)) <= 1e-8
    # independent witness for the swapped order: the pair (B, A) in affine
    # form is (-L - b*, L + a*); its least-norm program pins the sign
    rot = rotator_matrix()
    w_ba, _ = affine_least_norm_witness(-rot, [0.0, 0.0], rot, [1.0, 0.0])
    np.testing.assert_allclose(v_ba, w_ba, atol=1e-10)
    print(
        "criterion 4 analysis: v is the least-norm element of "
        "cl ran(Id - T), the displacement x - Tx (not Tx - x); see the "
        "sign-convention note in README.md."
    )
    np.testing.assert_allclose(v_ba, [0.5, 0.5], atol=1e-7)
    _line(4, "PASS", f"v(A,B)={v_ab.round(9).tolist()}, "
                     f"v(B,A)={v_ba.round(9).tolist()}")


def test_criterion_5_constant_operators():
    pair = get_scenario("constants-default").pair
    v_ab, _ = estimate_v(pair)
    v_ba, _ = estimate_v(pair.swapped())
    np.testing.assert_allclose(v_ab, [4.0, 6.0], atol=1e-9)
    np.testing.assert_allclose(v_ba, [4.0, 6.0], atol=1e-9)
    _line(5, "PASS", "v(A,B) = v(B,A) = (4,6) to 1e-9")


def test_criterion_6_classical_least_squares():
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.array([1.0, 1.0])
    sc = get_scenario("least-squares-default")
    report = solve_normal(sc.pair)
    np.testing.assert_allclose(report.v_estimate, [0.0, -1.0], atol=1e-7)
    z = report.normal_solution
    assert abs(z[0] - 1.0) <= 1e-6
    residual = np.linalg.norm(m.T @ m @ z - m.T @ b)
    assert residual <= 1e-6
    _line(6, "PASS", f"v=(0,-1) to 1e-7; z_1 off by {abs(z[0]-1.0):.2e}; "
                     f"normal-equations residual {residual:.2e}")


def test_criterion_7_affine_qp_oracle_agreement():
    gen = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        dim = int(gen.integers(2, 11))
        g1 = gen.normal(size=(dim, dim)) / np.sqrt(dim)
        g2 = gen.normal(size=(dim, dim)) / np.sqrt(dim)
        s1 = gen.normal(size=(dim, dim)) / np.sqrt(dim)
        s2 = gen.normal(size=(dim, dim)) / np.sqrt(dim)
        l_mat = g1 @ g1.T + (s1 - s1.T)
        m_mat = g2 @ g2.T + (s2 - s2.T)
        astar, bstar = gen.normal(size=dim), gen.normal(size=dim)
        sc = scenario_affine(l_mat, astar, m_mat, bstar)
        v_est, _ = estimate_v(sc.pair)
        w_oracle, _ = affine_least_norm_witness(l_mat, astar, m_mat, bstar)
        worst = max(worst, float(np.linalg.norm(v_est - w_oracle)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-5
    assert elapsed < 10.0
    _line(7, "PASS", f"20 random pairs, worst |v - oracle| = {worst:.2e}, "
                     f"{elapsed:.2f}s")


def test_criterion_8_nonexistence_detection(epigraph_report):
    report = epigraph_report
    assert report.status == "no_fixed_point_detected"
    assert report.normal_solution is None
    v_norm = float(np.linalg.norm(report.v_estimate))
    assert abs(v_norm - 1.0) <= 5e-2
    oracle = get_scenario("epigraph").oracle()
    assert not oracle.attained
    assert np.linalg.norm(report.v_estimate - oracle.v) <= 5e-2
    _line(8, "PASS", f"status={report.status}; |v|={v_norm:.4f}; "
                     f"orientation matches alternating-projection oracle "
                     f"(v ~ {oracle.v.round(4).tolist()})")


class TestCriterion9PropertySuites:
    """Fixed-seed property suites over every scenario family; zero failures."""

    @staticmethod
    def _points(dim: int, count: int = 100):
        gen = np.random.default_rng(SEED + dim)
        return gen.uniform(-8.0, 8.0, size=(count, dim))

    @staticmethod
    def _pairs():
        return [(name, get_scenario(name).pair) for name in build_registry()]

    def test_firm_nonexpansiveness_of_resolvents_and_t(self):
        for name, pair in self._pairs():
            xs = self._points(pair.dim)
            ys = np.random.default_rng(SEED + 91).uniform(-8.0, 8.0, xs.shape)
            for op in (pair.A, pair.B):
                for x, y in zip(xs, ys):
                    jx, jy = resolvent(op, x), resolvent(op, y)
                    lhs = np.sum((jx - jy) ** 2) + np.sum(((x - jx) - (y - jy)) ** 2)
                    assert lhs <= np.sum((x - y) ** 2) + 1e-9, name
            for x, y in zip(xs, ys):
                tx, ty = dr_apply(pair, x), dr_apply(pair, y)
                lhs = np.sum((tx - ty) ** 2) + np.sum(((x - tx) - (y - ty)) ** 2)
                assert lhs <= np.sum((x - y) ** 2) + 1e-9, name
        _line(9, "PASS", "firm nonexpansiveness of J_A, J_B, T (slack 1e-9)")

    def test_inverse_resolvent_identity(self):
        for name, pair in self._pairs():
            for op in (pair.A, pair.B):
                for x in self._points(pair.dim):
                    gap = resolvent(op, x) + resolvent(Inverse(op), x) - x
                    assert np.linalg.norm(gap) <= 1e-10, name
        _line(9, "PASS", "J + J_inverse = Id within 1e-10")

    def test_half_averaged_form(self):
        for name, pair in self._pairs():
            for x in self._points(pair.dim):
                rarb = reflected_resolvent(pair.A, reflected_resolvent(pair.B, x))
                gap = dr_apply(pair, x) - 0.5 * (x + rarb)
                assert np.linalg.norm(gap) <= 1e-11, name
        _line(9, "PASS", "T = (Id + R_A R_B)/2 within 1e-11")

    def test_complement_identity(self):
        for name, pair in self._pairs():
            for x in self._points(pair.dim):
                gap = dr_apply(pair, x) + complement_is_dr(pair, x) - x
                assert np.linalg.norm(gap) <= 1e-10, name
        _line(9, "PASS", "Id - T(A,B) = T(A^-1,B) within 1e-10")

    def test_eckstein_self_duality(self):
        for name, pair in self._pairs():
            dual = dual_pair(pair)
            for x in self._points(pair.dim):
                gap = dr_apply(pair, x) - dr_apply(dual, x)
                assert np.linalg.norm(gap) <= 1e-10, name
        _line(9, "PASS", "T equals the dual pair's T within 1e-10")

    def test_perturbation_calculus_identities(self):
        gen = np.random.default_rng(SEED + 5)
        for name, pair in self._pairs():
            xs = self._points(pair.dim, count=100)
            for op in (pair.A, pair.B):
                for index in range(1, 7):
                    w = gen.uniform(-3.0, 3.0, size=pair.dim)
                    lhs, rhs = calculus_identity_pair(index, op, w)
                    for x in xs:
                        gap = resolvent(lhs, x) - resolvent(rhs, x)
                        assert np.linalg.norm(gap) <= 1e-9, (name, index)
        _line(9, "PASS", "all six shift-calculus identities within 1e-9")

    def test_psi_roundtrips(self):
        for name in CONVERGING_SCENARIOS:
            sc = get_scenario(name)
            report = solve_normal(sc.pair, opts=sc.solve_opts)
            assert report.status == "converged", name
            w = report.v_estimate
            fixed = report.governing_point + w
            zk = psi_inv(sc.pair, fixed, w, tol_fix=1e-7)
            assert np.linalg.norm(psi(zk) - fixed) <= 1e-9, name
            again = psi_inv(sc.pair, psi(zk), w, tol_fix=1e-7)
            assert np.linalg.norm(again.z - zk.z) <= 1e-9, name
            assert np.linalg.norm(again.k - zk.k) <= 1e-9, name
        _line(9, "PASS", "psi_w roundtrips within 1e-9 on converging scenarios")

    def test_displacement_norm_monotonicity(self):
        gen = np.random.default_rng(SEED + 6)
        for name, pair in self._pairs():
            x0 = gen.uniform(-8.0, 8.0, size=pair.dim)
            _, trace = estimate_v(pair, x0=x0, max_iter=250, tol_v=-1.0, record=True)
            norms = trace.displacement_norms()
            assert np.all(np.diff(norms) <= 1e-12), name
        _line(9, "PASS", "displacement norms non-increasing (slack 1e-12)")

    def test_minimality_of_v(self, epigraph_report):
        for name, pair in self._pairs():
            if name == "epigraph":
                v = epigraph_report.v_estimate
            else:
                v, _ = estimate_v(pair)
            v_norm = np.linalg.norm(v)
            for x in self._points(pair.dim):
                assert v_norm <= np.linalg.norm(x - dr_apply(pair, x)) + 1e-8, name
        _line(9, "PASS", "minimality |v| <= |x - Tx| + tol_v on sampled points")
