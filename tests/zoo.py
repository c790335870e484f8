"""Shared samplers: a diverse fixed family of operators plus seeded points."""

import numpy as np

from normsplit import (
    AffineMonotone,
    AffineSubspace,
    Ball,
    Box,
    ConstantValued,
    EpigraphExp,
    FlipBoth,
    Halfspace,
    InnerShift,
    Inverse,
    NormalCone,
    OuterShift,
    Zero,
)
from normsplit.scenarios import build_registry, get_scenario, rotator_matrix

SEED = 20240901


def rng(seed: int = SEED) -> np.random.Generator:
    return np.random.default_rng(seed)


def sample_points(gen: np.random.Generator, dim: int, count: int,
                  scale: float = 4.0) -> np.ndarray:
    return gen.normal(scale=scale, size=(count, dim))


def seeded_points(dim: int) -> np.ndarray:
    """100 points in R^dim from a stream seeded by the dimension."""
    return sample_points(rng(SEED + dim), dim, 100)


def sample_sets(dim: int):
    """One instance of every projectable-set variant in this dimension."""
    gen = rng(SEED + dim)
    lo = -np.abs(gen.normal(size=dim)) - 0.2
    hi = np.abs(gen.normal(size=dim)) + 0.2
    basis = np.zeros((1, dim))
    basis[0, 0] = 1.0
    sets = [
        ("box", Box(lo, hi)),
        ("ball", Ball(gen.normal(size=dim), 1.5)),
        ("line", AffineSubspace(gen.normal(size=dim), basis)),
        ("point", AffineSubspace(gen.normal(size=dim), np.zeros((0, dim)))),
        ("halfspace", Halfspace(gen.normal(size=dim), 0.7)),
    ]
    if dim == 2:
        sets.append(("epigraph", EpigraphExp(0.7)))
    return sets


def leaf_operators(dim: int):
    """One instance of every leaf operator variant in this dimension."""
    gen = rng(SEED + 7 * dim)
    g = gen.normal(size=(dim, dim)) / np.sqrt(dim)
    skew = gen.normal(size=(dim, dim)) / np.sqrt(dim)
    psd_plus_skew = g @ g.T + (skew - skew.T)
    leaves = [
        ("zero", Zero(dim)),
        ("constant", ConstantValued(gen.normal(size=dim))),
        ("affine", AffineMonotone(psd_plus_skew, gen.normal(size=dim))),
        ("affine_skew", AffineMonotone(skew - skew.T, gen.normal(size=dim))),
    ]
    if dim == 2:
        leaves.append(("rotator", AffineMonotone(rotator_matrix(), gen.normal(size=2))))
    leaves += [(f"cone_{name}", NormalCone(region)) for name, region in sample_sets(dim)]
    return leaves


def operator_zoo(dim: int):
    """Leaves plus every wrapper applied to each leaf, plus deeper composites."""
    gen = rng(SEED + 13 * dim)
    ops = []
    for name, leaf in leaf_operators(dim):
        w1 = gen.normal(size=dim)
        w2 = gen.normal(size=dim)
        ops += [
            (name, leaf),
            (f"inv({name})", Inverse(leaf)),
            (f"flip({name})", FlipBoth(leaf)),
            (f"ishift({name})", InnerShift(leaf, w1)),
            (f"oshift({name})", OuterShift(leaf, w2)),
        ]
    _, affine = leaf_operators(dim)[2]
    _, cone = leaf_operators(dim)[4]
    deep_w = gen.normal(size=dim)
    ops += [
        ("flip(inv(affine))", FlipBoth(Inverse(affine))),
        ("oshift(flip(inv(cone)))", OuterShift(FlipBoth(Inverse(cone)), deep_w)),
        ("ishift(inv(affine))", InnerShift(Inverse(affine), deep_w)),
    ]
    return ops


def operator_pairs(dim: int, count: int | None = None):
    """Deterministic mixed (A, B) pairs drawn from the zoo."""
    from normsplit import OperatorPair

    ops = operator_zoo(dim)
    gen = rng(SEED + 29 * dim)
    idx = gen.permutation(len(ops))
    pairs = []
    for i in range(0, len(idx) - 1, 2):
        name_a, a = ops[idx[i]]
        name_b, b = ops[idx[i + 1]]
        pairs.append((f"{name_a}|{name_b}", OperatorPair(a, b)))
    return pairs[:count] if count is not None else pairs


def fused_pairs():
    """The registry and zoo pairs (dims 2, 3, 5) whose DR step is one affine map."""
    pairs = [(name, get_scenario(name).pair) for name in sorted(build_registry())]
    for dim in (2, 3, 5):
        pairs += [(f"zoo{dim}:{name}", pair) for name, pair in operator_pairs(dim)]
    return [(name, pair) for name, pair in pairs if pair.affine_step is not None]


def lines_at_angle(dim: int, angle: float, gap: float = 0.0):
    """Two lines through 0 in R^dim; DR on them contracts at rate cos(angle).

    With a gap (dim >= 3) the second line is moved by gap along the third
    axis, normal to both: v = (0, 0, gap), and every displacement's third
    entry is exactly gap, while its first two contract as without a gap.
    """
    from normsplit import OperatorPair

    u = np.zeros((1, dim))
    u[0, 0] = 1.0
    v = np.zeros((1, dim))
    v[0, 0], v[0, 1] = np.cos(angle), np.sin(angle)
    origin = np.zeros(dim)
    if gap:
        origin[2] = gap
    return OperatorPair(NormalCone(AffineSubspace(np.zeros(dim), u)),
                        NormalCone(AffineSubspace(origin, v)))


def lines_pair():
    """The parallel lines x_2 = 0 and x_2 = 1 in R^2: v = (0, 1), reached in one step."""
    from normsplit import OperatorPair

    lower = AffineSubspace([0.0, 0.0], [[1.0, 0.0]])
    upper = AffineSubspace([0.0, 1.0], [[1.0, 0.0]])
    return OperatorPair(NormalCone(lower), NormalCone(upper))
