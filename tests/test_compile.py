"""Compiled resolvents against the recursive reference, and the shared loop's
iteration counts pinned per registry scenario."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from normsplit import (
    ConstantValued,
    FlipBoth,
    InnerShift,
    Inverse,
    NormalCone,
    OuterShift,
    SolveOptions,
    compile_resolvent,
    resolvent,
    solve_normal,
)
from normsplit import operators
from normsplit.scenarios import build_registry, get_scenario

from reference import reference_resolvent
from zoo import operator_zoo, rng, sample_sets

ZOO = [op for dim in (2, 3) for _, op in operator_zoo(dim)]
WRAPPERS = ("inverse", "flip", "inner_shift", "outer_shift")


def wrapped(op, kind: str, shift: np.ndarray):
    if kind == "inverse":
        return Inverse(op)
    if kind == "flip":
        return FlipBoth(op)
    if kind == "inner_shift":
        return InnerShift(op, shift)
    return OuterShift(op, shift)


@settings(max_examples=400)
@given(data=st.data())
def test_compiled_stack_matches_reference(data):
    op = data.draw(st.sampled_from(ZOO))
    vectors = arrays(np.float64, op.dim, elements=st.floats(-10.0, 10.0))
    for kind in data.draw(st.lists(st.sampled_from(WRAPPERS), max_size=6)):
        op = wrapped(op, kind, data.draw(vectors))
    x = data.draw(vectors)
    gap = np.linalg.norm(resolvent(op, x) - reference_resolvent(op, x))
    assert gap <= 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_every_stack_projects_once_per_resolvent(monkeypatch, dim):
    gen = rng(77)
    originals = dict(operators._PROJECTORS)
    for name, region in sample_sets(dim):
        calls = []

        def counting(reg, y, original=originals[type(region)], calls=calls):
            calls.append(1)
            return original(reg, y)

        monkeypatch.setitem(operators._PROJECTORS, type(region), counting)
        for depth in range(1, 7):
            op = NormalCone(region)  # a fresh leaf, compiled against the patched table
            for i in range(depth):
                op = wrapped(op, WRAPPERS[(i + depth) % 4], gen.normal(size=dim))
            for x in gen.normal(scale=4.0, size=(3, dim)):
                calls.clear()
                resolvent(op, x)
                assert len(calls) == 1, (name, depth)


def test_folds_cover_exactly_the_wrappers():
    assert set(operators._FOLDS) == {Inverse, FlipBoth, InnerShift, OuterShift}


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


# (iterations_used, len(v_trace)) of solve_normal from x0 = 0, recorded with
# the per-phase loops that the shared loop replaced
PINNED_COUNTS = {
    "affine-default": (107, 77),
    "box-halfspace": (52, 51),
    "constants-default": (52, 51),
    "disjoint-balls": (52, 51),
    "epigraph": (8000, 4000),
    "least-squares-default": (109, 78),
    "overlapping-balls": (54, 52),
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
    assert (report.iterations_used, len(report.v_trace)) == PINNED_COUNTS[name]
