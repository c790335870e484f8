import numpy as np

from normsplit import (
    AffineMonotone,
    Ball,
    ConstantValued,
    InnerShift,
    Inverse,
    NormalCone,
    OperatorPair,
    OuterShift,
    Zero,
    dr_apply,
    dual_pair,
    project,
    resolvent,
)
from reference import SHIFT_CALCULUS
from zoo import operator_zoo, rng, sample_points

W2 = np.array([0.8, -1.3])


class TestShiftBuilders:
    def test_inner_zero_operator_shift_invariant(self):
        op = InnerShift(Zero(2), W2)
        for x in sample_points(rng(1), 2, 10):
            np.testing.assert_allclose(resolvent(op, x), x)

    def test_inner_normal_cone_translate_project_translate(self):
        ball = Ball([0.0, 0.0], 1.0)
        op = InnerShift(NormalCone(ball), W2)
        for x in sample_points(rng(2), 2, 10):
            np.testing.assert_allclose(
                resolvent(op, x), project(ball, x - W2) + W2, atol=1e-12
            )

    def test_inner_constant_ignores_argument(self):
        a = np.array([0.4, 2.0])
        op = InnerShift(ConstantValued(a), W2)
        for x in sample_points(rng(3), 2, 10):
            np.testing.assert_allclose(resolvent(op, x), x - a, atol=1e-12)

    def test_outer_zero(self):
        op = OuterShift(Zero(2), W2)
        for x in sample_points(rng(4), 2, 10):
            np.testing.assert_allclose(resolvent(op, x), x + W2)

    def test_outer_constant(self):
        a = np.array([0.4, 2.0])
        op = OuterShift(ConstantValued(a), W2)
        for x in sample_points(rng(5), 2, 10):
            np.testing.assert_allclose(resolvent(op, x), x - a + W2, atol=1e-12)

    def test_outer_zero_shift_is_noop(self):
        base = NormalCone(Ball([1.0, 1.0], 2.0))
        op = OuterShift(base, np.zeros(2))
        for x in sample_points(rng(6), 2, 10):
            np.testing.assert_allclose(resolvent(op, x), resolvent(base, x))

    def test_inner_then_reverse_shift_roundtrips(self):
        gen = rng(7)
        for dim in (2, 3):
            for name, op in operator_zoo(dim):
                w = gen.normal(size=dim)
                roundtrip = InnerShift(InnerShift(op, w), -w)
                for x in sample_points(gen, dim, 10):
                    gap = resolvent(roundtrip, x) - resolvent(op, x)
                    assert np.linalg.norm(gap) <= 1e-12, name


class TestCalculusIdentities:
    def test_index_1_zero_shift_is_plain_inverse(self):
        base = NormalCone(Ball([0.5, 0.0], 1.0))
        lhs, rhs = SHIFT_CALCULUS[1](base, np.zeros(2))
        plain = Inverse(base)
        for x in sample_points(rng(8), 2, 10):
            np.testing.assert_allclose(resolvent(lhs, x), resolvent(plain, x), atol=1e-12)
            np.testing.assert_allclose(resolvent(rhs, x), resolvent(plain, x), atol=1e-12)

    def test_index_3_zero_operator_gives_identity_resolvent(self):
        lhs, rhs = SHIFT_CALCULUS[3](Zero(2), W2)
        for x in sample_points(rng(9), 2, 10):
            np.testing.assert_allclose(resolvent(lhs, x), x, atol=1e-12)
            np.testing.assert_allclose(resolvent(rhs, x), x, atol=1e-12)

    def test_index_5_constant_hand_expansion(self):
        a = np.array([1.5, -0.25])
        lhs, rhs = SHIFT_CALCULUS[5](ConstantValued(a), W2)
        for x in sample_points(rng(10), 2, 10):
            np.testing.assert_allclose(resolvent(lhs, x), -a, atol=1e-10)
            np.testing.assert_allclose(resolvent(rhs, x), -a, atol=1e-10)


class TestDualOfPerturbed:
    """The dual of (<w>A, B<w>) is ((A^-v)<w>, <-w>(B^-1)), the right sides of
    identities 5 and 2 in SHIFT_CALCULUS."""

    def test_zero_shift_matches_plain_dual_pair(self):
        a = NormalCone(Ball([0.0, 0.0], 1.0))
        b = AffineMonotone([[1.0, 0.0], [0.0, 2.0]], [0.3, -0.3])
        da, db = SHIFT_CALCULUS[5](a, np.zeros(2))[1], SHIFT_CALCULUS[2](b, np.zeros(2))[1]
        plain = dual_pair(OperatorPair(a, b))
        for x in sample_points(rng(11), 2, 10):
            np.testing.assert_allclose(resolvent(da, x), resolvent(plain.A, x), atol=1e-12)
            np.testing.assert_allclose(resolvent(db, x), resolvent(plain.B, x), atol=1e-12)

    def test_constant_pair_hand_expansion(self):
        a_val = np.array([1.0, -2.0])
        b_val = np.array([0.5, 3.0])
        w = np.array([1.0, 0.0])
        da = SHIFT_CALCULUS[5](ConstantValued(a_val), w)[1]
        db = SHIFT_CALCULUS[2](ConstantValued(b_val), w)[1]
        for x in sample_points(rng(12), 2, 10):
            np.testing.assert_allclose(resolvent(da, x), -a_val, atol=1e-10)
            np.testing.assert_allclose(resolvent(db, x), b_val - w, atol=1e-10)

    def test_redualizing_recovers_perturbed_pair(self):
        gen = rng(13)
        a = NormalCone(Ball([0.0, 1.0], 1.5))
        b = AffineMonotone([[1.0, -1.0], [1.0, 1.0]], [0.2, 0.1])
        for _ in range(5):
            w = gen.normal(size=2)
            dual = OperatorPair(SHIFT_CALCULUS[5](a, w)[1], SHIFT_CALCULUS[2](b, w)[1])
            recovered = dual_pair(dual)
            expect_a = InnerShift(a, w)
            expect_b = OuterShift(b, w)
            for x in sample_points(gen, 2, 10):
                np.testing.assert_allclose(
                    resolvent(recovered.A, x), resolvent(expect_a, x), atol=1e-10
                )
                np.testing.assert_allclose(
                    resolvent(recovered.B, x), resolvent(expect_b, x), atol=1e-10
                )

    def test_shares_splitting_operator_with_shifted_map(self):
        gen = rng(14)
        a = NormalCone(Ball([0.0, 0.0], 2.0))
        b = AffineMonotone([[0.0, -1.0], [1.0, 0.0]], [1.0, 1.0])
        pair = OperatorPair(a, b)
        for _ in range(5):
            w = gen.normal(size=2)
            dual = OperatorPair(SHIFT_CALCULUS[5](a, w)[1], SHIFT_CALCULUS[2](b, w)[1])
            for x in sample_points(gen, 2, 10):
                np.testing.assert_allclose(
                    dr_apply(dual, x), dr_apply(pair, x + w), atol=1e-10
                )


class TestShiftCommutationRemark:
    """Pointwise sum identity on a single-valued affine subfamily."""

    def test_affine_invertible_family(self):
        gen = rng(15)
        m_a = np.array([[2.0, 1.0], [0.0, 1.0]])
        a_off = np.array([0.5, -1.0])
        m_b = np.array([[1.0, -1.0], [1.0, 1.0]])
        b_off = np.array([-0.3, 0.7])

        def a_flip_inv(y):
            # A^-v(y) = -A^-1(-y) for single-valued invertible affine A
            return -np.linalg.solve(m_a, -y - a_off)

        def b_inv(y):
            return np.linalg.solve(m_b, y - b_off)

        for _ in range(20):
            w = gen.normal(size=2)
            x = gen.normal(size=2, scale=3.0)
            lhs = a_flip_inv(x - w) + (b_inv(x) - w)
            y = x - w
            rhs = (a_flip_inv(y) - w) + b_inv(y + w)
            assert np.linalg.norm(lhs - rhs) <= 1e-9
