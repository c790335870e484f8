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
    OperatorPair,
    dr_apply,
    dual_pair,
    estimate_v,
    psi,
    psi_inv,
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

from reference import SHIFT_CALCULUS
from zoo import operator_pairs, operator_zoo, rng, sample_points

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
    v_ba, _ = estimate_v(OperatorPair(sc.pair.B, sc.pair.A))
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
    v_ba, _ = estimate_v(OperatorPair(sc.pair.B, sc.pair.A))
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
    v_ba, _ = estimate_v(OperatorPair(pair.B, pair.A))
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


# criterion-9 identities run on the registry and on the zoo of dims 2, 3
REGISTRY_AND_ZOO = pytest.mark.parametrize("inputs", ["registry", "zoo"])


class TestCriterion9PropertySuites:
    """Fixed-seed property suites over every scenario family; zero failures."""

    @staticmethod
    def _points(dim: int):
        gen = np.random.default_rng(SEED + dim)
        return gen.uniform(-8.0, 8.0, size=(100, dim))

    @staticmethod
    def _pairs():
        return [(name, get_scenario(name).pair) for name in build_registry()]

    def _cases(self, inputs: str, zoo_seed: int, zoo_count: int):
        """(name, pair, points): each registry pair with _points, or each zoo
        pair with zoo_count normal points, drawn in turn from one stream."""
        if inputs == "registry":
            return [(name, pair, self._points(pair.dim)) for name, pair in self._pairs()]
        gen = rng(zoo_seed)
        return [(name, pair, sample_points(gen, dim, zoo_count))
                for dim in (2, 3) for name, pair in operator_pairs(dim)]

    @REGISTRY_AND_ZOO
    def test_firm_nonexpansiveness_of_resolvents_and_t(self, inputs):
        def check(apply, xs, ys, name):
            for x, y in zip(xs, ys):
                fx, fy = apply(x), apply(y)
                lhs = np.sum((fx - fy) ** 2) + np.sum(((x - fx) - (y - fy)) ** 2)
                assert lhs <= np.sum((x - y) ** 2) + 1e-9, name

        if inputs == "registry":
            for name, pair in self._pairs():
                xs = self._points(pair.dim)
                ys = np.random.default_rng(SEED + 91).uniform(-8.0, 8.0, xs.shape)
                for op in (pair.A, pair.B):
                    check(lambda x: resolvent(op, x), xs, ys, name)
                check(lambda x: dr_apply(pair, x), xs, ys, name)
        else:
            gen = rng(101)
            for dim in (2, 3):
                for name, op in operator_zoo(dim):
                    xs, ys = sample_points(gen, dim, 100), sample_points(gen, dim, 100)
                    check(lambda x: resolvent(op, x), xs, ys, name)
            gen = rng(4)
            for name, pair in (*operator_pairs(2), *operator_pairs(3)):
                xs, ys = sample_points(gen, pair.dim, 100), sample_points(gen, pair.dim, 100)
                check(lambda x: dr_apply(pair, x), xs, ys, name)
        _line(9, "PASS", f"firm nonexpansiveness of J_A, J_B, T (slack 1e-9, {inputs})")

    @REGISTRY_AND_ZOO
    def test_inverse_resolvent_identity(self, inputs):
        if inputs == "registry":
            cases = [(name, op, self._points(pair.dim))
                     for name, pair in self._pairs() for op in (pair.A, pair.B)]
        else:
            gen = rng(102)
            cases = [(name, op, sample_points(gen, dim, 20))
                     for dim in (2, 3) for name, op in operator_zoo(dim)]
        for name, op, xs in cases:
            for x in xs:
                gap = resolvent(op, x) + resolvent(Inverse(op), x) - x
                assert np.linalg.norm(gap) <= 1e-10, name
        _line(9, "PASS", f"J + J_inverse = Id within 1e-10 ({inputs})")

    @REGISTRY_AND_ZOO
    def test_half_averaged_form(self, inputs):
        for name, pair, xs in self._cases(inputs, 3, 20):
            for x in xs:
                rb = 2 * resolvent(pair.B, x) - x
                rarb = 2 * resolvent(pair.A, rb) - rb
                gap = dr_apply(pair, x) - 0.5 * (x + rarb)
                assert np.linalg.norm(gap) <= 1e-11, name
        _line(9, "PASS", f"T = (Id + R_A R_B)/2 within 1e-11 ({inputs})")

    @REGISTRY_AND_ZOO
    def test_complement_identity(self, inputs):
        for name, pair, xs in self._cases(inputs, 10, 15):
            complement = OperatorPair(Inverse(pair.A), pair.B)
            for x in xs:
                gap = dr_apply(pair, x) + dr_apply(complement, x) - x
                assert np.linalg.norm(gap) <= 1e-10, name
        _line(9, "PASS", f"Id - T(A,B) = T(A^-1,B) within 1e-10 ({inputs})")

    @REGISTRY_AND_ZOO
    def test_eckstein_self_duality(self, inputs):
        for name, pair, xs in self._cases(inputs, 11, 15):
            dual = dual_pair(pair)
            for x in xs:
                gap = dr_apply(pair, x) - dr_apply(dual, x)
                assert np.linalg.norm(gap) <= 1e-10, name
        _line(9, "PASS", f"T equals the dual pair's T within 1e-10 ({inputs})")

    @pytest.mark.parametrize("inputs", ["registry"] + [f"zoo-{k}" for k in range(1, 7)])
    def test_perturbation_calculus_identities(self, inputs):
        # (name, op, identity index, w, points); the registry case runs all six
        # identities on one stream, and zoo-k runs identity k on its own stream,
        # which draws w and then the points for each operator in turn
        if inputs == "registry":
            gen = np.random.default_rng(SEED + 5)
            cases = [(name, op, index, gen.uniform(-3.0, 3.0, size=pair.dim),
                      self._points(pair.dim))
                     for name, pair in self._pairs() for op in (pair.A, pair.B)
                     for index in range(1, 7)]
        else:
            index = int(inputs.removeprefix("zoo-"))
            gen = rng(100 + index)
            cases = [(name, op, index, gen.normal(size=dim), sample_points(gen, dim, 50))
                     for dim in (2, 3) for name, op in operator_zoo(dim)]
        for name, op, index, w, xs in cases:
            lhs, rhs = SHIFT_CALCULUS[index](op, w)
            for x in xs:
                gap = resolvent(lhs, x) - resolvent(rhs, x)
                assert np.linalg.norm(gap) <= 1e-9, (name, index)
        _line(9, "PASS", f"shift-calculus identities within 1e-9 ({inputs})")

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

    @pytest.mark.parametrize("inputs", ["random-starts", "start-3-2"])
    def test_displacement_norm_monotonicity(self, inputs):
        # (pair, x0, max_iter, tol_v); the random starts spend their budget
        if inputs == "random-starts":
            gen = np.random.default_rng(SEED + 6)
            orbits = [(name, pair, gen.uniform(-8.0, 8.0, size=pair.dim), 250, -1.0)
                      for name, pair in self._pairs()]
        else:
            orbits = [(name, get_scenario(name).pair, [3.0, -2.0], 400, 0.0)
                      for name in ("disjoint-balls", "overlapping-balls", "rotators-default")]
        for name, pair, x0, max_iter, tol_v in orbits:
            _, trace = estimate_v(pair, x0=x0, max_iter=max_iter, tol_v=tol_v, record=True)
            norms = np.linalg.norm(trace.displacements, axis=1)
            assert np.all(np.diff(norms) <= 1e-12), name
        _line(9, "PASS", f"displacement norms non-increasing (slack 1e-12, {inputs})")

    @pytest.mark.parametrize("inputs", ["registry", "planar-normal"])
    def test_minimality_of_v(self, inputs, epigraph_report):
        if inputs == "registry":
            cases = [(name, pair, self._points(pair.dim)) for name, pair in self._pairs()]
        else:
            gen = rng(12)
            cases = [(name, get_scenario(name).pair, sample_points(gen, 2, 40))
                     for name in ("disjoint-balls", "constants-default", "two-lines")]
        for name, pair, xs in cases:
            v = epigraph_report.v_estimate if name == "epigraph" else estimate_v(pair)[0]
            for x in xs:
                assert np.linalg.norm(v) <= np.linalg.norm(x - dr_apply(pair, x)) + 1e-8, name
        _line(9, "PASS", f"minimality |v| <= |x - Tx| + tol_v on sampled points ({inputs})")
