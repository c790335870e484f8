"""Compiled resolvents against the recursive reference, their normal form
against the set images it projects onto, block evaluation against the
per-point one, the fused affine DR step against the two-resolvent step,
and the shared loop's iteration counts pinned per registry scenario.

The reference, block and fused-step checks are each one function, run on
hypothesis-drawn wrapper stacks and on every registry and zoo operator or
fused pair at 100 seeded points."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from normsplit import (
    AffineMonotone,
    AffineSubspace,
    Ball,
    Box,
    ConstantValued,
    EpigraphExp,
    FlipBoth,
    InnerShift,
    Inverse,
    NormalCone,
    OperatorPair,
    OuterShift,
    ProjectableSet,
    SolveOptions,
    compile_resolvent,
    dr_apply,
    estimate_v,
    project,
    resolvent,
    solve_normal,
)
from normsplit import operators
from normsplit.splitting import _fused_step
from normsplit.scenarios import build_registry, get_scenario

from reference import reference_resolvent
from zoo import fused_pairs, leaf_operators, operator_zoo, rng, sample_sets, seeded_points

# an affine leaf whose matrix is a multiple of the identity compiles as any other
ZOO = [op for dim in (2, 3) for _, op in operator_zoo(dim)] + [
    AffineMonotone(2.0 * np.eye(dim), np.arange(1.0, dim + 1.0)) for dim in (2, 3)]
WRAPPERS = ("inverse", "flip", "inner_shift", "outer_shift")


def wrapped(op, kind: str, shift: np.ndarray):
    if kind == "inverse":
        return Inverse(op)
    if kind == "flip":
        return FlipBoth(op)
    if kind == "inner_shift":
        return InnerShift(op, shift)
    return OuterShift(op, shift)


def draw_stack(data):
    """(op, vectors): a ZOO operator under up to six drawn wrappers, and the
    strategy for its vectors."""
    op = data.draw(st.sampled_from(ZOO))
    vectors = arrays(np.float64, op.dim, elements=st.floats(-10.0, 10.0))
    for kind in data.draw(st.lists(st.sampled_from(WRAPPERS), max_size=6)):
        op = wrapped(op, kind, data.draw(vectors))
    return op, vectors


def close_rows(rows: np.ndarray, xs: np.ndarray, one_point) -> bool:
    """Each row within 1e-12 (1 + |x|) of one_point at its x."""
    return all(np.linalg.norm(row - one_point(x)) <= 1e-12 * (1.0 + np.linalg.norm(x))
               for x, row in zip(xs, rows))


def assert_matches_reference(op, xs):
    for x in xs:
        assert np.linalg.norm(resolvent(op, x) - reference_resolvent(op, x)) <= 1e-12


def assert_rows_match_points(op, xs):
    form = compile_resolvent(op)
    assert close_rows(form.apply_rows(xs), xs, form.apply)


def assert_fused_step_matches(pair, w, xs):
    m_t, t_w = _fused_step(pair, w)
    steps = [m_t.dot(x) + t_w for x in xs]
    assert close_rows(steps, xs, lambda x: dr_apply(pair, x if w is None else x + w))


@settings(max_examples=400)
@given(data=st.data())
def test_compiled_stack_matches_reference(data):
    op, vectors = draw_stack(data)
    assert_matches_reference(op, [data.draw(vectors)])


SEEDED = [op for name in sorted(build_registry())
          for op in (get_scenario(name).pair.A, get_scenario(name).pair.B)] + ZOO


def test_registry_and_zoo_operators_at_seeded_points():
    # each operator at the same 100 points, one at a time and as one block
    for op in SEEDED:
        xs = seeded_points(op.dim)
        assert_matches_reference(op, xs)
        assert_rows_match_points(op, xs)


IMAGE_SETS = [region for dim in (2, 3) for _, region in sample_sets(dim)
              if not isinstance(region, EpigraphExp)]


@settings(max_examples=400)
@given(data=st.data())
def test_projection_onto_the_image_set(data):
    region = data.draw(st.sampled_from(IMAGE_SETS))
    vectors = arrays(np.float64, region.dim, elements=st.floats(-10.0, 10.0))
    sigma = data.draw(st.sampled_from((1, -1)))
    a, x = data.draw(vectors), data.draw(vectors)
    image = region.image(sigma, a)
    assert type(image) is type(region)
    gap = np.linalg.norm(project(region, sigma * x + a) - (sigma * project(image, x) + a))
    assert gap <= 1e-12 * (1.0 + np.linalg.norm(x) + np.linalg.norm(a))


SET_VARIANTS = ProjectableSet.__subclasses__()


def test_image_rules_cover_every_set_but_the_epigraph():
    for cls in SET_VARIANTS:
        assert (cls.image is None) == (cls is EpigraphExp), cls.__name__


def test_sample_sets_cover_every_set_variant():
    # the zoo and its hypothesis stacks draw their sets from sample_sets, so
    # a variant missing there goes unchecked
    sampled = {type(region) for dim in (2, 3) for _, region in sample_sets(dim)}
    assert sampled == set(SET_VARIANTS)


def leaf_of(op):
    while hasattr(op, "inner"):
        op = op.inner
    return op


def test_stacks_over_sets_with_images_compile_to_a_bare_projection():
    stacks = [op for op in ZOO if isinstance(leaf_of(op), NormalCone)
              and not isinstance(leaf_of(op).region, EpigraphExp)]
    assert len(stacks) > 2 * 5 * 5  # five sets and five stacks of each, in dims 2 and 3
    for op in stacks:
        form = compile_resolvent(op)
        assert form.sigma == 1 and isinstance(form.a, float) and form.a == 0.0
        assert form.projects_bare


def test_a_stack_whose_image_overflows_keeps_sigma_and_a():
    # the image box would reach hi - a = 1e308 + 1e308, which is not a float64,
    # so the form keeps a; its projection P(x + a) is finite
    box = Box([-1.0, -1.0], [1e308, 1.0])
    op = OuterShift(NormalCone(box), [-1e308, 0.0])
    form = compile_resolvent(op)
    assert form.region is box and not form.projects_bare
    for x in ([0.0, 0.0], [3.0, -2.0]):
        x = np.array(x)
        np.testing.assert_array_equal(resolvent(op, x), reference_resolvent(op, x))


def test_a_stack_whose_constant_overflows_keeps_sigma_and_a():
    # J(x) = P(x + w) + w for w = (1e308, 0); the normal form's constant
    # c + a = w + w is not a float64, though the image box, shifted by -w,
    # is; so the form keeps a
    box = Box([-1.0, -1.0], [1.0, 1.0])
    w = np.array([1e308, 0.0])
    op = OuterShift(OuterShift(InnerShift(NormalCone(box), w), w), w)
    form = compile_resolvent(op)
    assert form.region is box and not form.projects_bare
    np.testing.assert_array_equal(form.a, w)
    np.testing.assert_array_equal(form.c, w)
    for x in ([0.0, 0.0], [3.0, -2.0]):
        x = np.array(x)
        np.testing.assert_array_equal(resolvent(op, x), box.project(x + w) + w)


def test_the_bare_leaf_evaluates_as_its_projector():
    for _, region in sample_sets(2):
        form = compile_resolvent(NormalCone(region))
        x = np.array([3.0, -2.0])
        np.testing.assert_array_equal(form.apply(x), project(region, x))
        assert form.apply == region.project


@settings(max_examples=400)
@given(data=st.data())
def test_block_rows_match_the_per_point_form(data):
    op, _ = draw_stack(data)
    k = data.draw(st.integers(1, 8))
    xs = data.draw(arrays(np.float64, (k, op.dim), elements=st.floats(-1e3, 1e3)))
    assert_rows_match_points(op, xs)


BETA = 0.7


def _on_curve(t: float, offset: float) -> tuple:
    return t, BETA + math.exp(t) + offset


EPIGRAPH_POINTS = st.one_of(
    # inside the set
    st.tuples(st.floats(-50.0, 50.0), st.floats(0.0, 100.0)).map(lambda pd: _on_curve(*pd)),
    # far left, where exp(p) underflows against beta
    st.tuples(st.floats(-1e4, -30.0), st.floats(-1e3, 1e3)),
    # within 1e-9 of the boundary curve, on either side
    st.tuples(st.floats(-30.0, 30.0), st.floats(-1e-9, 1e-9)).map(lambda pd: _on_curve(*pd)),
    # large p, where exp(p) overflows (|x| stays finite for the tolerance)
    st.tuples(st.floats(709.8, 1e150), st.floats(-1e3, 1e3)),
)


@given(st.lists(EPIGRAPH_POINTS, min_size=1, max_size=12))
def test_epigraph_rows_match_the_per_point_solve(points):
    epi = EpigraphExp(BETA)
    xs = np.array(points)
    rows = epi.project_rows(xs)
    assert close_rows(rows, xs, lambda x: project(epi, x))


@pytest.mark.parametrize("dim", [2, 3])
def test_project_rows_matches_project_on_each_row(dim):
    xs = rng(dim).normal(scale=4.0, size=(50, dim))
    for name, region in sample_sets(dim):
        rows = region.project_rows(xs)
        assert rows.shape == xs.shape, name
        assert close_rows(rows, xs, region.project), name


@pytest.mark.parametrize("dim", [2, 3])
def test_every_stack_projects_once_per_resolvent(monkeypatch, dim):
    gen = rng(77)
    originals = {cls: cls.project for cls in SET_VARIANTS}
    for name, region in sample_sets(dim):
        calls = []

        def counting(reg, y, original=originals[type(region)], calls=calls):
            calls.append(1)
            return original(reg, y)

        monkeypatch.setattr(type(region), "project", counting)
        for depth in range(1, 7):
            op = NormalCone(region)  # a fresh leaf, compiled against the patched method
            for i in range(depth):
                op = wrapped(op, WRAPPERS[(i + depth) % 4], gen.normal(size=dim))
            for x in gen.normal(scale=4.0, size=(3, dim)):
                calls.clear()
                resolvent(op, x)
                assert len(calls) == 1, (name, depth)


def affine_leaves(dim: int):
    """Leaves with affine resolvents: affine maps, constants, zero, and the
    normal cones of a line, a point (empty basis) and the whole space."""
    leaves = [op for _, op in leaf_operators(dim)
              if not isinstance(op, NormalCone) or isinstance(op.region, AffineSubspace)]
    whole = AffineSubspace(rng(dim).normal(size=dim), np.eye(dim))
    return leaves + [NormalCone(whole)]


AFFINE_LEAVES = {dim: affine_leaves(dim) for dim in (2, 3)}


@settings(max_examples=400)
@given(data=st.data())
def test_fused_step_matches_the_two_resolvents(data):
    dim = data.draw(st.sampled_from(sorted(AFFINE_LEAVES)))
    vectors = arrays(np.float64, dim, elements=st.floats(-10.0, 10.0))
    ops = []
    for _ in range(2):
        op = data.draw(st.sampled_from(AFFINE_LEAVES[dim]))
        for kind in data.draw(st.lists(st.sampled_from(WRAPPERS), max_size=6)):
            op = wrapped(op, kind, data.draw(vectors))
        ops.append(op)
    pair = OperatorPair(*ops)
    w = data.draw(st.none() | vectors)
    assert_fused_step_matches(pair, w, [data.draw(vectors)])


def test_fused_registry_and_zoo_pairs_at_seeded_points():
    for _, pair in fused_pairs():
        assert_fused_step_matches(pair, None, seeded_points(pair.dim))


def test_folds_cover_exactly_the_wrappers():
    # every wrapper folds its inner form, every leaf starts one, none does both
    wrappers = {Inverse, FlipBoth, InnerShift, OuterShift}
    leaves = {type(op) for _, op in leaf_operators(2)}
    for cls in wrappers | leaves:
        assert issubclass(cls, operators.Wrapper) == (cls in wrappers), cls
        assert hasattr(cls, "fold") == (cls in wrappers), cls
        assert hasattr(cls, "leaf_form") == (cls in leaves), cls


def test_compilation_is_cached_per_operator():
    op = InnerShift(Inverse(ConstantValued([1.0, 2.0])), [0.5, -0.5])
    form = compile_resolvent(op)
    assert compile_resolvent(op) is form
    # J(x) = value + shift: M = 0 is kept as a scalar, no matrix-vector product
    assert isinstance(form.m, float) and form.m == 0.0
    np.testing.assert_array_equal(form.apply(np.array([9.0, 9.0])), [1.5, 1.5])


def test_compiled_operators_still_pickle():
    for op in ZOO:
        x = np.linspace(-1.0, 2.0, op.dim)
        expected = resolvent(op, x)  # compiles and caches the form
        clone = pickle.loads(pickle.dumps(op))
        np.testing.assert_array_equal(resolvent(clone, x), expected)


def test_pickled_forms_evaluate_bit_for_bit():
    gen = rng(29)
    for op in ZOO:
        form = compile_resolvent(op)
        xs = gen.normal(scale=3.0, size=(8, op.dim))
        expected = [form.apply(x) for x in xs]  # caches the evaluator closure
        clone = pickle.loads(pickle.dumps(form))
        for x, want in zip(xs, expected):
            np.testing.assert_array_equal(clone.apply(x), want)
        np.testing.assert_array_equal(clone.apply_rows(xs), form.apply_rows(xs))


def test_only_an_evaluated_form_builds_its_evaluator(monkeypatch):
    assert "apply" not in {f.name for f in dataclasses.fields(operators.ResolventForm)}
    built = []
    real = operators.ResolventForm._evaluator

    def counting(form):
        built.append(form)
        return real(form)

    monkeypatch.setattr(operators.ResolventForm, "_evaluator", counting)
    ball = NormalCone(Ball([1.0, -2.0, 0.5], 1.5))
    op = OuterShift(FlipBoth(InnerShift(ball, [0.3, 0.1, -0.2])), [1.0, 0.0, 2.0])
    form = compile_resolvent(op)
    assert built == []
    form.apply(np.zeros(3))
    form.apply(np.ones(3))
    assert built == [form]


# (iterations_used, phase-1 rows) of solve_normal from x0 = 0, recorded with
# the per-phase loops that the shared loop replaced. Since then the feasible
# pairs, affine-default and overlapping-balls, stop phase 1 on |d_n| <= tol_v
# before its window fills, and a phase 1 that stops on its rule hands phase 2
# its last iterate, which phase 2 certifies at its first row; the epigraph's
# phase 1 spends its budget, so its phase 2 still starts at x0. Phase 1's rows
# are those of estimate_v run with solve_normal's arguments
PINNED_COUNTS = {
    "affine-default": (28, 27),
    "box-halfspace": (52, 51),
    "constants-default": (52, 51),
    "disjoint-balls": (52, 51),
    "epigraph": (8000, 4000),
    "least-squares-default": (79, 78),
    "overlapping-balls": (3, 2),
    "rotators-default": (52, 51),
    "two-lines": (52, 51),
}


def test_pinned_counts_cover_the_registry():
    assert set(PINNED_COUNTS) == set(build_registry())


@pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
def test_registry_iteration_counts_are_pinned(name):
    sc = get_scenario(name)
    opts = SolveOptions(max_iter=4000) if name == "epigraph" else sc.solve_opts
    report = solve_normal(sc.pair, opts=opts, record=True)
    _, phase_1 = estimate_v(sc.pair, None, opts.max_iter, opts.tol_v)
    assert (report.iterations_used, len(phase_1)) == PINNED_COUNTS[name]
