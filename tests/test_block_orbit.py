"""Fast-forwarded affine orbits against the per-step loop of tests/reference.py.

An unrecorded affine orbit steps x -> M_T x + t_w in blocks, screened once per
block, up to the first row a stop rule might act on, and hands over to the
per-step loop there. Every result must be the one the per-step loop gives,
bit for bit: row counts, statuses, certificates, the v estimate, the
solution and, when recorded, every trace column.
"""

import math
import tracemalloc

import numpy as np
import pytest

from normsplit import (
    AffineMonotone,
    AffineSubspace,
    ConstantValued,
    NormalCone,
    OperatorPair,
    SolveOptions,
    compile_resolvent,
    estimate_v,
    solve_normal,
    solve_perturbed,
)
from normsplit import splitting
from normsplit.errors import NonFiniteIterateError
from normsplit.scenarios import build_registry, get_scenario
from normsplit.splitting import _WINDOW, CONVERGED, NO_FIXED_POINT, IterationTrace, _orbit

from reference import orbit_fingerprint, orbit_outcome, reference_orbit, same_report
from zoo import lines_at_angle, lines_pair, operator_pairs, rng


def fused_pairs():
    pairs = [(name, get_scenario(name).pair) for name in sorted(build_registry())]
    for dim in (2, 3, 5):
        pairs += [(f"zoo{dim}:{name}", pair) for name, pair in operator_pairs(dim)]
    return [(name, pair) for name, pair in pairs if pair.affine_step is not None]


FUSED = fused_pairs()


def sliding_pair(c1: float) -> OperatorPair:
    """A = const (c1, 1), B = N of the first axis: T x = (x_1 - c1, -1).

    From x0 = (0, 3), x_n = (-n c1, -1) up to rounding; it overflows once
    n c1 passes the float64 range.
    """
    axis = AffineSubspace([0.0, 0.0], [[1.0, 0.0]])
    return OperatorPair(ConstantValued([c1, 1.0]), NormalCone(axis))


def outcome(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except NonFiniteIterateError as err:
        return err.step


def per_step(monkeypatch, solve, *args, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(splitting, "_orbit", reference_orbit)
        return outcome(solve, *args, **kwargs)


def assert_same_end(end, expected, label):
    assert type(end) is type(expected), label
    assert len(end) == len(expected), label
    np.testing.assert_array_equal(end.v_diff, expected.v_diff, err_msg=label)
    assert (end.x_last is None) == (expected.x_last is None), label
    if expected.x_last is not None:
        np.testing.assert_array_equal(end.x_last, expected.x_last, err_msg=label)
    if isinstance(expected, IterationTrace):
        for column in ("xs", "shadows", "displacements"):
            np.testing.assert_array_equal(
                getattr(end, column), getattr(expected, column), err_msg=f"{label} {column}")


def assert_same_orbit(got, expected, label):
    assert orbit_fingerprint(got) == orbit_fingerprint(expected), label


def assert_same_report(report, expected, label):
    assert same_report(report, expected), label
    for end, end_ref in ((report.trace, expected.trace), (report.v_trace, expected.v_trace)):
        assert (end is None) == (end_ref is None), label
        if end_ref is not None:
            assert_same_end(end, end_ref, label)


class TestParity:
    """Every fused zoo pair (dims 2, 3, 5) and affine registry scenario."""

    OPTS = SolveOptions(max_iter=1000)

    def test_the_pair_list_covers_fused_zoo_and_registry_pairs(self):
        names = [name for name, _ in FUSED]
        assert {"affine-default", "least-squares-default", "two-lines"} <= set(names)
        assert all(any(name.startswith(f"zoo{dim}:") for name in names) for dim in (2, 3, 5))

    @pytest.mark.parametrize("record", [False, True])
    def test_estimate_v(self, monkeypatch, record):
        gen = rng(41)
        for name, pair in FUSED:
            x0 = gen.normal(scale=3.0, size=pair.dim)
            got = outcome(estimate_v, pair, x0, 1000, record=record)
            expected = per_step(monkeypatch, estimate_v, pair, x0, 1000, record=record)
            if isinstance(expected, int):
                assert got == expected, name
                continue
            np.testing.assert_array_equal(got[0], expected[0], err_msg=name)
            assert_same_end(got[1], expected[1], name)

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("seeded_w", [False, True])
    def test_solve_perturbed(self, monkeypatch, record, seeded_w):
        gen = rng(42)
        for name, pair in FUSED:
            x0 = gen.normal(scale=3.0, size=pair.dim)
            w = gen.normal(size=pair.dim) if seeded_w else np.zeros(pair.dim)
            got = outcome(solve_perturbed, pair, w, x0, self.OPTS, record=record)
            expected = per_step(monkeypatch, solve_perturbed, pair, w, x0, self.OPTS,
                                record=record)
            if isinstance(expected, int):
                assert got == expected, name
                continue
            assert_same_report(got, expected, name)

    @pytest.mark.parametrize("record", [False, True])
    def test_solve_normal(self, monkeypatch, record):
        gen = rng(43)
        for name, pair in FUSED:
            x0 = gen.normal(scale=3.0, size=pair.dim)
            got = outcome(solve_normal, pair, x0, self.OPTS, record=record)
            expected = per_step(monkeypatch, solve_normal, pair, x0, self.OPTS, record=record)
            if isinstance(expected, int):
                assert got == expected, name
                continue
            assert_same_report(got, expected, name)

    @pytest.mark.parametrize("max_iter", [1, 49, 50, 51, 99, 100, 137])
    @pytest.mark.parametrize("phase", [1, 2])
    def test_budgets_across_block_seams(self, max_iter, phase):
        gen = rng(44 + max_iter)
        for name, pair in FUSED:
            x0 = gen.normal(scale=3.0, size=pair.dim)
            w = None if phase == 1 else gen.normal(size=pair.dim)
            for tol in (0.0, 1e-9, 1e-8, 1e-3):
                for record in (False, True):
                    args = (pair, x0, w, max_iter, tol)
                    assert (orbit_outcome(_orbit, *args, record=record)
                            == orbit_outcome(reference_orbit, *args, record=record)), \
                        f"{name} tol={tol} record={record}"


def stop_statistics(pair, x0, w, rows: int) -> np.ndarray:
    """Per row, the norm a stop rule compares with tol, from a per-step run that never stops.

    In phase 1 that is |d_n - d_{n - _WINDOW}| with d_m = 0 for m < 0, so
    |d_n| itself before row _WINDOW.
    """
    trace = reference_orbit(pair, x0, w, rows, -1.0, record=True)[0]
    disps = trace.displacements
    if w is None:
        disps = np.concatenate([disps[:_WINDOW], disps[_WINDOW:] - disps[:-_WINDOW]])
    return np.array([math.sqrt(d.dot(d)) for d in disps])


class TestBlockSeams:
    """Stops and overflows at the probes and at either side of a block seam."""

    def test_phase_1_stops_at_its_probe(self):
        # parallel lines: the displacement is exact after one step
        pair = lines_pair()
        got = _orbit(pair, [3.0, -2.0], None, 1000, 1e-8)
        assert len(got[0]) == _WINDOW + 1
        assert_same_orbit(got, reference_orbit(pair, [3.0, -2.0], None, 1000, 1e-8), "lines")

    def test_phase_2_stops_at_its_probe(self):
        pair = lines_pair()
        w = np.array([0.0, 1.0])  # T(x + w) = x: every point is a certified fixed point
        got = _orbit(pair, [3.0, -2.0], w, 1000, 1e-9)
        assert len(got[0]) == 1 and got[1] == CONVERGED
        assert_same_orbit(got, reference_orbit(pair, [3.0, -2.0], w, 1000, 1e-9), "lines")

    @pytest.mark.parametrize("phase, stop_row", [
        (1, 1), (1, 31), (1, _WINDOW - 1),
        (1, _WINDOW), (1, _WINDOW + 1), (1, 2 * _WINDOW - 1), (1, 2 * _WINDOW),
        (1, 3 * _WINDOW - 1), (1, 3 * _WINDOW), (1, 137),
        (2, _WINDOW - 1), (2, _WINDOW), (2, 2 * _WINDOW - 1), (2, 2 * _WINDOW),
        (2, 3 * _WINDOW - 1), (2, 3 * _WINDOW), (2, 137),
    ])
    @pytest.mark.parametrize("record", [False, True])
    def test_stop_on_either_side_of_a_seam(self, phase, stop_row, record):
        # two lines at angle 0.9: the orbit's in-plane part shrinks by
        # cos(0.9) a step, so each row's statistic is a new minimum, and tol
        # set to row stop_row's statistic stops there (phase 2 certifies from
        # row ~45). Through 0 (v = 0) phase 1 takes the certified exit
        # |d_n| <= tol inside its opening block; with a gap, |d_n| >= |v| = 10,
        # above every window statistic, holds it to the window test
        gap = 10.0 if phase == 1 and stop_row >= _WINDOW else 0.0
        pair = lines_at_angle(3, 0.9, gap)
        x0 = np.array([3.0, -2.0, 0.0])
        w = None if phase == 1 else np.zeros(3)
        tol = float(stop_statistics(pair, x0, w, 200)[stop_row])
        expected = reference_orbit(pair, x0, w, 1000, tol, record=record)
        assert len(expected[0]) == stop_row + 1
        if phase == 2:
            assert expected[1] == CONVERGED
        assert_same_orbit(_orbit(pair, x0, w, 1000, tol, record=record), expected, "seam")

    @pytest.mark.parametrize("phase", [1, 2])
    def test_a_handoff_row_that_does_not_stop_continues_per_step(self, phase):
        # the seam test's orbits: each row's statistic is about cos(0.9) times
        # the last. Bisection finds the largest tol that does not stop at row
        # 75, a hair below its statistic, so row 75 is the first row within
        # sqrt(2) tol, the handoff row, and it does not stop; row 76 stops
        row = 75
        pair = counting(lines_at_angle(3, 0.9, 10.0 if phase == 1 else 0.0))
        x0 = np.array([3.0, -2.0, 0.0])
        w = None if phase == 1 else np.zeros(3)

        def stops_by_row(tol):
            return len(reference_orbit(pair, x0, w, 1000, tol)[0]) <= row + 1

        lo, hi = 0.0, 1.0
        assert not stops_by_row(lo) and stops_by_row(hi)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if stops_by_row(mid):
                hi = mid
            else:
                lo = mid
        assert hi - lo <= 1e-15 * hi
        CountingMatrix.calls = CountingMatrix.into = 0
        got = _orbit(pair, x0, w, 1000, lo)
        per_step = CountingMatrix.calls - CountingMatrix.into - (w is not None)
        assert (len(got[0]), per_step, CountingMatrix.into) == (row + 2, 2, 2 * _WINDOW)
        if phase == 2:
            assert got[1] == CONVERGED
        assert_same_orbit(got, reference_orbit(pair, x0, w, 1000, lo), "handoff")

    @pytest.mark.parametrize("phase", [1, 2])
    @pytest.mark.parametrize("overflow_row", [1, 30, _WINDOW, 75, 2 * _WINDOW - 1, 2 * _WINDOW])
    def test_overflow_raises_at_the_per_step_row(self, phase, overflow_row):
        # x_n = (-n c1, -1) is finite up to row overflow_row and not after it
        c1 = np.finfo(float).max / (overflow_row + 0.5)
        pair = sliding_pair(c1)
        assert pair.affine_step is not None
        w = None if phase == 1 else np.zeros(2)
        with pytest.raises(NonFiniteIterateError) as info:
            _orbit(pair, [0.0, 3.0], w, 1000, -1.0)
        assert info.value.step == overflow_row
        with pytest.raises(NonFiniteIterateError) as ref:
            reference_orbit(pair, [0.0, 3.0], w, 1000, -1.0)
        assert ref.value.step == overflow_row

    def test_stop_before_an_overflow_in_the_same_block(self):
        # x_n = (-n 2^1018, -1) is exact, and x_64 = (-2^1024, -1) overflows; the
        # window statistic is 4 at row _WINDOW and exactly 0 from row _WINDOW + 1,
        # the first row of the block that overflows at row 63
        pair = sliding_pair(2.0 ** 1018)
        with pytest.raises(NonFiniteIterateError) as info:
            _orbit(pair, [0.0, 3.0], None, 1000, -1.0)
        assert info.value.step == 63
        for record in (False, True):
            got = _orbit(pair, [0.0, 3.0], None, 1000, 1e-8, record=record)
            assert len(got[0]) == _WINDOW + 2
            assert_same_orbit(
                got, reference_orbit(pair, [0.0, 3.0], None, 1000, 1e-8, record=record), "slide")

    def test_drift_verdict_at_its_edge(self):
        # x_{n+1} = (rotate and shrink (x_1, x_2) by 0.05 rad, x_3 - c): the tail's
        # net move over its path length grows with c and crosses _DRIFT_RATIO;
        # at max_iter 437 the tail starts at row 327, inside a block. One more
        # or one less row in the path sum moves the edge by about 1%.
        skew = np.zeros((3, 3))
        skew[0, 1], skew[1, 0] = 0.05, -0.05

        def status(loop, c):
            pair = OperatorPair(ConstantValued([0.0, 0.0, c]), AffineMonotone(skew, np.zeros(3)))
            return loop(pair, [3.0, 0.0, 0.0], np.zeros(3), 437, 1e-9)[1]

        lo, hi = 0.1, 0.4
        assert status(reference_orbit, lo) != NO_FIXED_POINT == status(reference_orbit, hi)
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if status(reference_orbit, mid) == NO_FIXED_POINT:
                hi = mid
            else:
                lo = mid
        assert hi - lo < 1e-9
        assert status(_orbit, lo) == status(reference_orbit, lo) != NO_FIXED_POINT
        assert status(_orbit, hi) == NO_FIXED_POINT


class CountingMatrix(np.ndarray):
    """M_T that counts its matrix-vector products, those written with out= apart."""

    calls = 0
    into = 0  # products written into a buffer row: the fast-forward's

    def dot(self, *args, **kwargs):
        CountingMatrix.calls += 1
        CountingMatrix.into += "out" in kwargs
        return np.asarray(self).dot(*args, **kwargs)


def counting(pair: OperatorPair) -> OperatorPair:
    m_t, t = pair.affine_step
    vars(pair)["affine_step"] = (m_t.view(CountingMatrix), t)
    CountingMatrix.calls = CountingMatrix.into = 0
    return pair


class TestWork:
    """The fast-forward computes each row once, up to the end of the block that holds
    the first row a stop rule might act on, its handoff row; the per-step loop
    computes that row again and every row after it.

    Blocks end at multiples of _WINDOW, with a one-row probe at row _WINDOW in
    phase 1 and row 0 in phase 2, and none passes row max_iter - 2. So a phase
    computes at most _WINDOW products past its rows, and a stop at a probe one.
    """

    @pytest.mark.parametrize("phase", [1, 2])
    @pytest.mark.parametrize("angle, max_iter, tol", [
        (0.3, 1000, 1e-8), (0.3, 1000, 1e-3), (0.3, 137, 0.0), (0.05, 1000, 1e-6),
        (1.2, 1000, 1e-9), (0.3, 51, 1e-12), (0.3, 1, 1e-8),
    ])
    def test_matrix_vector_products_per_phase(self, phase, angle, max_iter, tol):
        pair = counting(lines_at_angle(3, angle))
        x0 = np.array([3.0, -2.0, 1.0])
        w = None if phase == 1 else np.array([0.1, -0.2, 0.0])
        rows = len(_orbit(pair, x0, w, max_iter, tol)[0])
        per_step = CountingMatrix.calls - CountingMatrix.into - (w is not None)  # t_w takes one
        handoff = rows - per_step
        probe = _WINDOW if phase == 1 else 0
        block_end = handoff + 1 if handoff == probe else (handoff // _WINDOW + 1) * _WINDOW
        assert per_step >= 1
        assert CountingMatrix.into == min(block_end, max_iter - 1)
        assert rows <= CountingMatrix.into + per_step <= rows + _WINDOW

    def test_a_probe_stop_takes_one_extra_step(self):
        pair = counting(lines_pair())
        assert len(_orbit(pair, [3.0, -2.0], None, 1000, 1e-8)[0]) == _WINDOW + 1
        assert (CountingMatrix.into, CountingMatrix.calls) == (_WINDOW + 1, _WINDOW + 2)
        pair = counting(lines_pair())
        assert len(_orbit(pair, [3.0, -2.0], np.array([0.0, 1.0]), 1000, 1e-9)[0]) == 1
        assert (CountingMatrix.into, CountingMatrix.calls) == (1, 1 + 2)

    def test_a_warm_phase_2_hands_off_at_its_probe_before_any_buffer(self):
        # phase 1 settles, so phase 2 starts at its x_N and certifies at row 0
        pair = lines_at_angle(100, 0.3)
        v, end = estimate_v(pair, np.linspace(-3.0, 3.0, 100), 1000)
        assert end.x_last is not None
        m_t, t_w = splitting._fused_step(pair, v)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            n, x, ring, path, x_from = splitting._fast_forward(
                m_t, t_w, end.x_last, False, 1000, 1e-9, 749)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert (n, ring, path, x_from) == (0, None, 0.0, None)
        np.testing.assert_array_equal(x, end.x_last)
        # the probe row and its displacement, where the (51, 100) block and the
        # (50, 100) window differences took 80 kB
        assert peak <= 4 * 100 * 8

    @pytest.mark.parametrize("phase", [1, 2])
    def test_a_negative_tol_fast_forwards_to_the_last_row(self, phase):
        # no row stops at tol < 0, however small its statistic
        pair = counting(lines_at_angle(3, 0.3))
        w = None if phase == 1 else np.zeros(3)
        assert len(_orbit(pair, [3.0, -2.0, 1.0], w, 1000, -1.0)[0]) == 1000
        assert CountingMatrix.into == 999
        assert CountingMatrix.calls - CountingMatrix.into - (w is not None) == 1

    def test_a_recorded_fused_orbit_evaluates_one_shadow_per_row(self):
        # no row certifies in 300 steps at angle 0.01, so J_B evaluates only shadows
        pair = lines_at_angle(3, 0.01)
        calls = {"A": 0, "B": 0}
        for side in calls:
            form = compile_resolvent(getattr(pair, side))

            def counted(x, apply=form.apply, side=side):
                calls[side] += 1
                return apply(x)

            vars(form)["apply"] = counted
        x0 = np.array([3.0, -2.0, 1.0])
        v, trace = estimate_v(pair, x0, 300, record=True)
        assert calls == {"A": 0, "B": len(trace)}
        np.testing.assert_array_equal(v, estimate_v(pair, x0, 300)[0])
        calls["B"] = 0
        opts = SolveOptions(max_iter=300)
        recorded = solve_perturbed(pair, np.zeros(3), x0, opts, record=True)
        assert recorded.status != CONVERGED
        assert calls == {"A": 0, "B": len(recorded.trace)}
        assert same_report(solve_perturbed(pair, np.zeros(3), x0, opts), recorded)
