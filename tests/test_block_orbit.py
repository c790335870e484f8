"""Fast-forwarded affine orbits against the per-step loop of tests/reference.py.

An unrecorded affine orbit steps x -> M_T x + t_w in blocks, screened once per
block, and jumps _WINDOW rows per product with M_T^_WINDOW wherever no stop
rule can act, up to the first row a stop rule might act on, and hands over to
the per-step loop there. After a landing it computes a block by one product
with M_T^_WINDOW from the block before it, and phase 2 steps such a drift tail
again where their rounding might move its verdict. An orbit on which no jump
lands must give what the per-step loop gives, bit for bit: row counts,
statuses, certificates, the v estimate, the solution and, when recorded, every
trace column. An orbit on which a jump lands keeps its row counts, statuses,
certificates, NonFiniteIterateError rows and whether x_last is None exactly,
while its v_diff, x_last and solution agree to 1e-12 (1 + |x|).
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
from normsplit.splitting import (
    _WINDOW, CONVERGED, MAX_ITER, NO_FIXED_POINT, IterationTrace, _orbit)

from reference import orbit_fingerprint, reference_orbit, same_report
from zoo import fused_pairs, lines_at_angle, lines_pair, rng, seeded_points


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


class Landings:
    """Counts the jumps splitting._leap takes while the test runs."""

    def __init__(self, monkeypatch):
        self.count = 0
        leap = splitting._leap

        def counted(pair, t_w, shift, x, n, *rest):
            result = leap(pair, t_w, shift, x, n, *rest)
            self.count += (result[0] - n) // _WINDOW
            return result

        monkeypatch.setattr(splitting, "_leap", counted)

    def since(self, before: int) -> bool:
        return self.count > before


@pytest.fixture
def landings(monkeypatch):
    return Landings(monkeypatch)


def assert_close(got, expected, err_msg=""):
    """|got - expected| <= 1e-12 (1 + |expected|): a jumped orbit's vectors."""
    gap = float(np.linalg.norm(got - expected))
    assert gap <= 1e-12 * (1.0 + float(np.linalg.norm(expected))), f"{err_msg}: {gap:.3e}"


def assert_same_end(end, expected, label, exact=True):
    same = np.testing.assert_array_equal if exact else assert_close
    assert type(end) is type(expected), label
    assert len(end) == len(expected), label
    same(end.v_diff, expected.v_diff, err_msg=label)
    assert (end.x_last is None) == (expected.x_last is None), label
    if expected.x_last is not None:
        same(end.x_last, expected.x_last, err_msg=label)
    if isinstance(expected, IterationTrace):
        for column in ("xs", "shadows", "displacements"):
            same(getattr(end, column), getattr(expected, column), err_msg=f"{label} {column}")


def assert_same_orbit(got, expected, label, exact=True):
    if exact:
        assert orbit_fingerprint(got) == orbit_fingerprint(expected), label
        return
    end, status, certificates, solution = got
    end_ref, status_ref, certificates_ref, solution_ref = expected
    assert ((status, certificates, solution is None)
            == (status_ref, certificates_ref, solution_ref is None)), label
    assert_same_end(end, end_ref, label, exact=False)
    for value, value_ref in zip(solution or (), solution_ref or ()):
        assert_close(value, value_ref, label)


def assert_same_report(report, expected, label, exact=True):
    if exact:
        assert same_report(report, expected), label
    else:
        assert ((report.status, report.certificates, report.iterations_used)
                == (expected.status, expected.certificates, expected.iterations_used)), label
        for name in ("v_estimate", "normal_solution", "governing_point", "dual_solution"):
            value, value_ref = getattr(report, name), getattr(expected, name)
            assert (value is None) == (value_ref is None), f"{label} {name}"
            if value_ref is not None:
                assert_close(value, value_ref, f"{label} {name}")
    assert (report.trace is None) == (expected.trace is None), label
    if expected.trace is not None:
        assert_same_end(report.trace, expected.trace, label, exact)


def assert_same_estimate(got, expected, label, exact=True):
    (np.testing.assert_array_equal if exact else assert_close)(got[0], expected[0], err_msg=label)
    assert_same_end(got[1], expected[1], label, exact)


class TestParity:
    """Every fused zoo pair (dims 2, 3, 5) and affine registry scenario."""

    OPTS = SolveOptions(max_iter=1000)

    def test_the_pair_list_covers_fused_zoo_and_registry_pairs(self):
        names = [name for name, _ in FUSED]
        assert {"affine-default", "least-squares-default", "two-lines"} <= set(names)
        assert all(any(name.startswith(f"zoo{dim}:") for name in names) for dim in (2, 3, 5))

    @pytest.mark.parametrize("record", [False, True])
    def test_estimate_v(self, monkeypatch, landings, record):
        gen = rng(41)
        for name, pair in FUSED:
            x0 = gen.normal(scale=3.0, size=pair.dim)
            before = landings.count
            got = outcome(estimate_v, pair, x0, 1000, record=record)
            expected = per_step(monkeypatch, estimate_v, pair, x0, 1000, record=record)
            if isinstance(expected, int):
                assert got == expected, name
                continue
            assert_same_estimate(got, expected, name, not landings.since(before))
        # recorded orbits never jump; some unrecorded ones do
        assert (landings.count > 0) is not record

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("seeded_w", [False, True])
    def test_solve_perturbed(self, monkeypatch, landings, record, seeded_w):
        gen = rng(42)
        for name, pair in FUSED:
            x0 = gen.normal(scale=3.0, size=pair.dim)
            w = gen.normal(size=pair.dim) if seeded_w else np.zeros(pair.dim)
            before = landings.count
            got = outcome(solve_perturbed, pair, w, x0, self.OPTS, record=record)
            expected = per_step(monkeypatch, solve_perturbed, pair, w, x0, self.OPTS,
                                record=record)
            if isinstance(expected, int):
                assert got == expected, name
                continue
            assert_same_report(got, expected, name, not landings.since(before))
        assert (landings.count > 0) is not record

    @pytest.mark.parametrize("record", [False, True])
    def test_solve_normal(self, monkeypatch, landings, record):
        gen = rng(43)
        solve_landings = 0
        for name, pair in FUSED:
            x0 = gen.normal(scale=3.0, size=pair.dim)
            before = landings.count
            got = outcome(solve_normal, pair, x0, self.OPTS, record=record)
            expected = per_step(monkeypatch, solve_normal, pair, x0, self.OPTS, record=record)
            solve_landings += landings.count - before
            if isinstance(expected, int):
                assert got == expected, name
                continue
            assert_same_report(got, expected, name, not landings.since(before))
            # phase 1 alone: the report keeps neither its row count nor x_N
            before = landings.count
            got = estimate_v(pair, x0, self.OPTS.max_iter)
            expected = per_step(monkeypatch, estimate_v, pair, x0, self.OPTS.max_iter)
            assert_same_estimate(got, expected, name, not landings.since(before))
        # phase 1 never records in solve_normal, so both runs jump
        assert solve_landings > 0

    @pytest.mark.parametrize("max_iter", [1, 49, 50, 51, 99, 100, 137, 202, 250, 251, 252])
    @pytest.mark.parametrize("phase", [1, 2])
    def test_budgets_across_block_seams(self, landings, max_iter, phase):
        # budgets 202, 250, 251 and 252 end 1, 49, 50 and 51 rows into the blocks
        # computed by one product after a landing. A recorded orbit steps every
        # row in the per-step loop, so those budgets run unrecorded only
        gen = rng(44 + max_iter)
        for name, pair in FUSED:
            x0 = gen.normal(scale=3.0, size=pair.dim)
            w = None if phase == 1 else gen.normal(size=pair.dim)
            for tol in (0.0, 1e-9, 1e-8, 1e-3):
                for record in (False, True) if max_iter <= 137 else (False,):
                    args, label = (pair, x0, w, max_iter, tol), f"{name} tol={tol} record={record}"
                    before = landings.count
                    got = outcome(_orbit, *args, record=record)
                    expected = outcome(reference_orbit, *args, record=record)
                    if isinstance(expected, int):
                        assert got == expected, label
                    else:
                        assert_same_orbit(got, expected, label, not landings.since(before))


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
        stats = stop_statistics(pair, x0, w, 200)
        tol = float(stats[stop_row])
        jumped = phase == 2 and stop_row > 2 * _WINDOW and not record
        if jumped:
            # a jump lands at row 2 _WINDOW, and the rows after it agree with the
            # per-step loop's to rounding: tol sits between two rows' statistics
            tol = math.sqrt(stats[stop_row] * stats[stop_row - 1])
        expected = reference_orbit(pair, x0, w, 1000, tol, record=record)
        assert len(expected[0]) == stop_row + 1
        if phase == 2:
            assert expected[1] == CONVERGED
        got = _orbit(pair, x0, w, 1000, tol, record=record)
        assert_same_orbit(got, expected, "seam", exact=not jumped)

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
        CountingMatrix.calls = CountingMatrix.into = CountingMatrix.blocks = 0
        got = _orbit(pair, x0, w, 1000, lo)
        # phase 2 tries a jump from row _WINDOW to 2 _WINDOW, refused: S t_w,
        # x_{_WINDOW + 1}, the landing and the row after it
        leap = 0 if phase == 1 else 4
        per_step = CountingMatrix.calls - CountingMatrix.into - (w is not None) - leap
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

    def test_only_a_drift_verdict_at_its_edge_steps_its_tail_again(self):
        # the edge test's orbit lands at rows 100 to 300, steps rows 300 to 350
        # and computes rows 350 to 436 by two products. Far from the edge
        # (c = 0.1 and 0.4) its verdict stands with their rounding; at the
        # bisected edge it might not, so rows 300 to 436 are stepped again
        def run(loop, c):
            pair = counting(drift_pair(c))
            return loop(pair, [3.0, 0.0, 0.0], np.zeros(3), 437, 1e-9)[1]

        lo, hi = 0.1, 0.4
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if run(reference_orbit, mid) == NO_FIXED_POINT:
                hi = mid
            else:
                lo = mid
        for c, again in ((0.1, 0), (0.4, 0), (lo, 136), (hi, 136)):
            status = run(_orbit, c)
            assert (CountingMatrix.into, CountingMatrix.blocks) == (50 + 50 + again, 2), c
            assert status == run(reference_orbit, c), c

    def test_a_stop_in_a_drift_tail_of_one_product_blocks(self):
        # lines at the angle whose statistic falls to about 2.5e-9 by row 901
        # (w = 0, max_iter 1000, drift tail from row 749): the orbit lands at
        # rows 100 to 700, steps rows 700 to 750 and computes later blocks by
        # one product each. With tol between rows 900 and 901's statistics,
        # row 885 is the first within sqrt(2) tol, and since it lies in the
        # drift tail, every block from row 700 is stepped again. The per-step
        # loop runs rows 885 to 901 and certifies 901. Below every statistic,
        # the budget is spent
        stop_row = 901
        pair = counting(lines_at_angle(3, math.acos((1e-8 / 3.0) ** (1.0 / stop_row))))
        x0, w = np.array([3.0, -2.0, 0.0]), np.zeros(3)
        stats = stop_statistics(pair, x0, w, 1000)
        tol = math.sqrt(stats[stop_row] * stats[stop_row - 1])
        CountingMatrix.calls = CountingMatrix.into = CountingMatrix.blocks = 0
        got = _orbit(pair, x0, w, 1000, tol)
        products = (CountingMatrix.into, CountingMatrix.calls - CountingMatrix.into - 1,
                    CountingMatrix.blocks)
        assert products == predicted_products(stats, 2, 1000, tol, stop_row + 1)
        assert products == (50 + 50 + 200, 17 + 2 + 2 * 13, 3)
        expected = reference_orbit(pair, x0, w, 1000, tol)
        assert len(expected[0]) == stop_row + 1 and expected[1] == CONVERGED
        assert_same_orbit(got, expected, "tail stop", exact=False)
        assert reference_orbit(pair, x0, w, 1000, 0.1 * stats[-1])[1] == MAX_ITER


def drift_pair(c: float) -> OperatorPair:
    """The edge tests' pair: x -> (rotate and shrink (x_1, x_2) by 0.05 rad, x_3 - c)."""
    skew = np.zeros((3, 3))
    skew[0, 1], skew[1, 0] = 0.05, -0.05
    return OperatorPair(ConstantValued([0.0, 0.0, c]), AffineMonotone(skew, np.zeros(3)))


class TestLandings:
    """Stops and overflows on either side of a landing, against the per-step loop."""

    def test_a_jump_matches_window_fused_steps(self):
        # M_T^_WINDOW x + (I + ... + M_T^(_WINDOW - 1)) t against _WINDOW steps
        # x -> M_T x + t, within 1e-12 (1 + |x|) at 100 seeded points a pair
        for name, pair in FUSED:
            m_t, t = pair.affine_step
            power, total = pair._window_jump
            xs = seeded_points(pair.dim)
            stepped = xs
            for _ in range(_WINDOW):
                stepped = stepped @ m_t.T + t
            gaps = np.linalg.norm(xs @ power.T + total.dot(t) - stepped, axis=1)
            assert np.all(gaps <= 1e-12 * (1.0 + np.linalg.norm(xs, axis=1))), name

    @pytest.mark.parametrize("phase, stop_row, jumps", [
        (1, 99, 0), (1, 100, 0), (1, 101, 0), (1, 149, 0), (1, 150, 0), (1, 151, 0),
        (1, 160, 1), (1, 210, 2), (1, 1949, 35), (1, 1950, 35), (1, 1951, 35),
        (2, 99, 0), (2, 100, 0), (2, 101, 0), (2, 149, 1), (2, 150, 1), (2, 151, 1),
        (2, 160, 2), (2, 210, 3), (2, 1949, 37), (2, 1950, 37), (2, 1951, 37),
    ])
    def test_stop_on_either_side_of_a_landing(self, landings, phase, stop_row, jumps):
        # two lines at the angle whose rate cos(angle) brings the statistic to
        # about 1e-5 (phase 1, with a gap) or 1e-8 (phase 2, where the stop
        # must also certify) at stop_row; tol sits between that row's
        # statistic and the last's, since jumped rows agree to rounding
        target = 1e-5 if phase == 1 else 1e-8
        pair = lines_at_angle(3, math.acos((target / 3.0) ** (1.0 / stop_row)),
                              10.0 if phase == 1 else 0.0)
        x0 = np.array([3.0, -2.0, 0.0])
        w = None if phase == 1 else np.zeros(3)
        stats = stop_statistics(pair, x0, w, stop_row + 1)
        tol = math.sqrt(stats[stop_row] * stats[stop_row - 1])
        expected = reference_orbit(pair, x0, w, 5000, tol)
        assert len(expected[0]) == stop_row + 1
        assert expected[1] == (MAX_ITER if phase == 1 else CONVERGED)
        got = _orbit(pair, x0, w, 5000, tol)
        assert landings.count == jumps
        assert_same_orbit(got, expected, "landing", exact=not jumps)

    @pytest.mark.parametrize("overflow_row", [151, 175, 199, 200, 201, 230])
    def test_overflow_past_a_landing_raises_at_the_per_step_row(self, landings, overflow_row):
        # x_n = (-n c1, -1) is finite up to row overflow_row and not after it.
        # The window statistic is 0 up to rounding, yet no landing is taken:
        # |x_n| + _WINDOW |d_n| is above 1e166, so the rounding floor refuses
        # it, and the blocks reach the overflow
        c1 = np.finfo(float).max / (overflow_row + 0.5)
        with pytest.raises(NonFiniteIterateError) as info:
            _orbit(sliding_pair(c1), [0.0, 3.0], None, 1000, -1.0)
        assert info.value.step == overflow_row
        assert landings.count == 0
        with pytest.raises(NonFiniteIterateError) as ref:
            reference_orbit(sliding_pair(c1), [0.0, 3.0], None, 1000, -1.0)
        assert ref.value.step == overflow_row

    def test_a_statistic_at_the_rounding_floor_refuses_the_landing(self, landings):
        # at tol 0 only an exact 0 stops, and this zoo pair's phase 2 reaches a
        # fixed point exactly at row 58; the landing at row 100 computes
        # rounding noise in its place, which must not pass for a statistic
        gen = rng(44 + 137)  # test_budgets_across_block_seams' draws
        for name, pair in FUSED:
            x0, w = gen.normal(scale=3.0, size=pair.dim), gen.normal(size=pair.dim)
            if name == "zoo2:cone_line|flip(inv(affine))":
                break
        expected = reference_orbit(pair, x0, w, 137, 0.0)
        assert len(expected[0]) == 59
        assert_same_orbit(_orbit(pair, x0, w, 137, 0.0), expected, name)
        assert landings.count == 0


class CountingMatrix(np.ndarray):
    """M_T that counts its matrix-vector products, those written with out= apart.

    M_T^_WINDOW and S, built from it, count too; so does each np.dot of a
    block of rows by the transpose of M_T^_WINDOW, the fast-forward's
    one-product blocks.
    """

    calls = 0
    into = 0  # products written into a buffer row: the fast-forward's
    blocks = 0

    def dot(self, *args, **kwargs):
        CountingMatrix.calls += 1
        CountingMatrix.into += "out" in kwargs
        return np.asarray(self).dot(*args, **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        CountingMatrix.blocks += func is np.dot
        return super().__array_function__(func, types, args, kwargs)


def counting(pair: OperatorPair) -> OperatorPair:
    m_t, t = pair.affine_step
    vars(pair)["affine_step"] = (m_t.view(CountingMatrix), t)
    CountingMatrix.calls = CountingMatrix.into = CountingMatrix.blocks = 0
    return pair


def predicted_products(stats, phase: int, max_iter: int, tol: float, rows: int) -> tuple:
    """(block products, other products, one-product blocks) of an unrecorded fused orbit.

    Blocks compute each row once up to the end of the block that holds the
    handoff row h, the first whose squared statistic is not above 2 tol^2;
    the per-step loop computes h and every row after it. From row 2 _WINDOW
    in phase 1, _WINDOW in phase 2, the orbit jumps instead: landings
    _WINDOW rows apart are taken while L <= max_iter - 2 (and drift_from in
    phase 2) and row L's statistic passes the same screen, that is while
    L < h, since the statistics never increase.
    A jump costs two products, the landing and the row after it, and the
    first one two more, S t_w and d_n; a refused landing costs two. Phase 1
    steps the last jump's _WINDOW rows again, into the block.
    After the last landing L every block that follows a whole block of
    stepped or one-product rows is one product: in phase 1 from L on, after
    the ring's refill, in phase 2 from L + _WINDOW on, the block holding h
    included. A phase 2 that has kept a one-product block and hands off
    inside its drift tail steps every block from L again. The orbits here keep every landing's
    and every block row's statistic far above the rounding floor, and a
    spent phase 2 decides its drift verdict far outside the rounding margin.
    """
    bound = math.copysign(2.0 * tol * tol, tol)
    fails = [m for m, size in enumerate(stats) if not bound < size * size < math.inf]
    handoff = min(fails + [max_iter - 1])
    probe = _WINDOW if phase == 1 else 0
    block_end = handoff + 1 if handoff == probe else (handoff // _WINDOW + 1) * _WINDOW
    block_end = min(block_end, max_iter - 1)
    leap_from = 2 * _WINDOW if phase == 1 else _WINDOW
    drift_from = max_iter - 1 - min(1000, max_iter // 4) if max_iter >= 100 else max_iter
    last_landing = max_iter - 2 if phase == 1 else min(drift_from, max_iter - 2)
    if handoff < leap_from or leap_from + _WINDOW > last_landing:
        return block_end, rows - handoff, 0
    landings = range(leap_from + _WINDOW, last_landing + 1, _WINDOW)
    taken = next((k for k, row in enumerate(landings) if row >= handoff), len(landings))
    other = rows - handoff + 2 + 2 * min(taken + 1, len(landings))
    if not taken:
        return block_end, other, 0
    last = leap_from + _WINDOW * taken
    products_from = last if phase == 1 else min(last + _WINDOW, block_end)
    blocks = -(-(block_end - products_from) // _WINDOW)
    into = leap_from + (_WINDOW if phase == 1 else products_from - last)
    if phase == 2 and blocks and drift_from < handoff < max_iter - 1:
        into += block_end - last
    return into, other, blocks


class TestWork:
    """Products per phase: predicted_products, and the few a jump leaves.

    Blocks end at multiples of _WINDOW, with a one-row probe at row _WINDOW in
    phase 1 and row 0 in phase 2, and none passes row max_iter - 2.
    """

    @pytest.mark.parametrize("phase", [1, 2])
    @pytest.mark.parametrize("angle, max_iter, tol", [
        (0.3, 1000, 1e-8), (0.3, 1000, 1e-3), (0.3, 137, 0.0), (0.05, 1000, 1e-6),
        (1.2, 1000, 1e-9), (0.3, 51, 1e-12), (0.3, 1, 1e-8), (0.02, 2000, 1e-9),
        (0.05, 1000, -1.0),
    ])
    def test_matrix_vector_products_per_phase(self, phase, angle, max_iter, tol):
        pair = counting(lines_at_angle(3, angle))
        x0 = np.array([3.0, -2.0, 1.0])
        w = None if phase == 1 else np.array([0.1, -0.2, 0.0])
        stats = stop_statistics(pair, x0, w, max_iter)
        CountingMatrix.calls = CountingMatrix.into = CountingMatrix.blocks = 0
        rows = len(_orbit(pair, x0, w, max_iter, tol)[0])
        other = CountingMatrix.calls - CountingMatrix.into - (w is not None)  # t_w takes one
        assert ((CountingMatrix.into, other, CountingMatrix.blocks)
                == predicted_products(stats, phase, max_iter, tol, rows))
        assert rows == len(reference_orbit(pair, x0, w, max_iter, tol)[0])

    def test_a_budget_spent_dim_100_phase_1_jumps(self):
        # 2000 rows at angle 0.05 do not settle: 100 block rows, 37 jumps of two
        # products and two more, the last jump's 50 rows again, one product for
        # the 49 rows after them and one per-step row at the end, where the
        # per-step loop alone took 2000
        pair = counting(lines_at_angle(100, 0.05, 1.0))
        x0 = np.linspace(-3.0, 3.0, 100)
        v, end = estimate_v(pair, x0, 2000)
        assert len(end) == 2000 and end.x_last is None
        assert CountingMatrix.calls == 100 + 2 + 2 * 37 + 50 + 1 <= 300
        assert CountingMatrix.blocks == 1

    def test_a_spent_dim_100_phase_2_computes_its_drift_tail_by_blocks(self):
        # 2000 rows a phase at angle 0.05 do not settle, so phase 2 starts cold
        # at x0: t_w, its row-0 probe and 49 block rows, 28 jumps of two products
        # and two more to row 1450, 50 rows to the first drift row 1499 and one
        # product for each later block, 10 of them, and one per-step row at the
        # end. Its tail took 549 block rows, 659 products in all, when stepped
        pair = counting(lines_at_angle(100, 0.05, 1.0))
        x0 = np.linspace(-3.0, 3.0, 100)
        v, end = estimate_v(pair, x0, 2000)
        assert end.x_last is None
        CountingMatrix.calls = CountingMatrix.into = CountingMatrix.blocks = 0
        got = _orbit(pair, x0, v, 2000, SolveOptions.tol_fix)
        assert CountingMatrix.calls == 1 + 1 + 49 + 2 + 2 * 28 + 50 + 1
        assert CountingMatrix.blocks == 10
        expected = reference_orbit(pair, x0, v, 2000, SolveOptions.tol_fix)
        assert len(expected[0]) == 2000 and expected[1] == MAX_ITER
        assert_same_orbit(got, expected, "dim 100", exact=False)

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
        t_w = splitting._fused_step(pair, v)[1]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            n, x, ring, path, x_from = splitting._fast_forward(
                pair, t_w, end.x_last, False, 1000, 1e-9, 749)
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
        # no row stops at tol < 0, however small its statistic. Phase 1 takes
        # 100 block rows, 17 jumps to row 950, its 50 rows again and one product
        # for the 49 rows after; phase 2 50 rows, 13 jumps to row 700, the last
        # landing before drift_from = 749, 50 rows and five one-product blocks
        # for the 249 rows after
        pair = counting(lines_at_angle(3, 0.05))
        w = None if phase == 1 else np.zeros(3)
        assert len(_orbit(pair, [3.0, -2.0, 1.0], w, 1000, -1.0)[0]) == 1000
        jumps, into, blocks = (17, 100 + 50, 1) if phase == 1 else (13, 50 + 50, 5)
        assert (CountingMatrix.into, CountingMatrix.blocks) == (into, blocks)
        assert CountingMatrix.calls - CountingMatrix.into - (w is not None) == 2 + 2 * jumps + 1

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
