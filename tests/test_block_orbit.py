"""Jumped affine orbits against the per-step loop of tests/reference.py.

An unrecorded affine orbit steps x -> M_T x + t_w one row at a time, as a
recorded one does, and once per phase jumps _WINDOW rows per product with
M_T^_WINDOW wherever no stop rule can act, its landings ending at row
max_iter - 2. An orbit on which no jump lands must give what the per-step
loop gives, bit for bit: row counts, statuses, certificates, the v estimate,
the solution and, when recorded, every trace column. An orbit on which a
jump lands keeps its row counts, statuses, certificates,
NonFiniteIterateError rows and whether x_last is None exactly, while its
v_diff, x_last and solution agree to 1e-12 (1 + |x|).
"""

import math

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

        def counted(pair, t_w, x, n, *rest):
            result = leap(pair, t_w, x, n, *rest)
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
        # phase 1 jumps from budget 102 on, phase 2 from 53, and the landings
        # end at row max_iter - 2 whatever the budget's remainder mod _WINDOW.
        # A recorded orbit never jumps, so the larger budgets run unrecorded only
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
    """Stops and overflows at the first rows and on either side of a multiple of _WINDOW.

    Row _WINDOW is phase 1's first with a real window partner, and row 0 is
    where a warm phase 2 certifies.
    """

    def test_phase_1_stops_at_its_probe(self):
        # parallel lines: the displacement is exact after one step, so the
        # window statistic is 0 from row _WINDOW
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
    def test_stop_on_either_side_of_a_seam(self, landings, phase, stop_row, record):
        # two lines at angle 0.9: the orbit's in-plane part shrinks by
        # cos(0.9) a step, so each row's statistic is a new minimum, and tol
        # set to row stop_row's statistic stops there (phase 2 certifies from
        # row ~45). Through 0 (v = 0) phase 1 takes the certified exit
        # |d_n| <= tol before row _WINDOW; with a gap, |d_n| >= |v| = 10,
        # above every window statistic, holds it to the window test. The
        # statistics fall below the rounding floor before the first landing
        # row, so no jump lands and the rows match bit for bit
        gap = 10.0 if phase == 1 and stop_row >= _WINDOW else 0.0
        pair = lines_at_angle(3, 0.9, gap)
        x0 = np.array([3.0, -2.0, 0.0])
        w = None if phase == 1 else np.zeros(3)
        tol = float(stop_statistics(pair, x0, w, 200)[stop_row])
        expected = reference_orbit(pair, x0, w, 1000, tol, record=record)
        assert len(expected[0]) == stop_row + 1
        if phase == 2:
            assert expected[1] == CONVERGED
        got = _orbit(pair, x0, w, 1000, tol, record=record)
        assert landings.count == 0
        assert_same_orbit(got, expected, "seam")

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
        # within _WINDOW rows of the overflow at row 63
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
        # x_{n+1} = (rotate and shrink (x_1, x_2) by 0.05 rad, x_3 - c): R =
        # ran(I - M_T) is the (x_1, x_2) plane and t_w = -c e_3, so rho = |c|.
        # Every c with |c| above tol + 1e-12 (1 + |c|) is proved to have no
        # fixed point, also near c = 0.2, where the tail's net move over its
        # path length crosses the drift rule's 0.9 at max_iter 437; c = 0 is
        # left unproven
        for c in (-0.4, -2e-9, 2e-9, 1e-6, 0.1, 0.2, 0.25, 0.4, 1e3):
            for loop in (_orbit, reference_orbit):
                assert loop(drift_pair(c), [3.0, 0.0, 0.0], np.zeros(3), 437, 1e-9)[1] \
                    == NO_FIXED_POINT, (c, loop)
        for loop in (_orbit, reference_orbit):
            assert loop(drift_pair(0.0), [3.0, 0.0, 0.0], np.zeros(3), 437, 1e-9)[1] == MAX_ITER


def drift_pair(c: float) -> OperatorPair:
    """The edge test's pair: x -> (rotate and shrink (x_1, x_2) by 0.05 rad, x_3 - c)."""
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
        (1, 99, 0), (1, 100, 0), (1, 101, 0), (1, 149, 1), (1, 150, 1), (1, 151, 1),
        (1, 160, 2), (1, 210, 3), (1, 1949, 36), (1, 1950, 36), (1, 1951, 36),
        (2, 99, 0), (2, 100, 0), (2, 101, 0), (2, 149, 1), (2, 150, 1), (2, 151, 1),
        (2, 160, 2), (2, 210, 3), (2, 1949, 37), (2, 1950, 37), (2, 1951, 37),
    ])
    def test_stop_on_either_side_of_a_landing(self, landings, phase, stop_row, jumps):
        # two lines at the angle whose rate cos(angle) brings the statistic to
        # about 1e-5 (phase 1, with a gap) or 1e-8 (phase 2, where the stop
        # must also certify) at stop_row; tol sits between that row's
        # statistic and the last's, since jumped rows agree to rounding. At
        # max_iter 5002 both phases jump from row 50, so the landings are the
        # multiples of _WINDOW from 100
        target = 1e-5 if phase == 1 else 1e-8
        pair = lines_at_angle(3, math.acos((target / 3.0) ** (1.0 / stop_row)),
                              10.0 if phase == 1 else 0.0)
        x0 = np.array([3.0, -2.0, 0.0])
        w = None if phase == 1 else np.zeros(3)
        stats = stop_statistics(pair, x0, w, stop_row + 1)
        tol = math.sqrt(stats[stop_row] * stats[stop_row - 1])
        expected = reference_orbit(pair, x0, w, 5002, tol)
        assert len(expected[0]) == stop_row + 1
        assert expected[1] == (MAX_ITER if phase == 1 else CONVERGED)
        got = _orbit(pair, x0, w, 5002, tol)
        assert landings.count == jumps
        assert_same_orbit(got, expected, "landing", exact=not jumps)

    @pytest.mark.parametrize("stop_row, jumps", [(379, 2), (601, 6)])
    def test_refilled_rows_read_no_stale_window_partner(self, landings, stop_row, jumps):
        # at angle pi / 50 the in-plane part of d_m turns by pi every _WINDOW
        # rows, so after an even number of jumps the ring's partners, rows
        # before the first jump, point the way d_m does, and |d_m - partner| is
        # far below the statistic |d_m - d_{m-_WINDOW}|. Phase 1 refills its ring
        # from the last jump's origin; a refilled row that read such a partner
        # would stop at its first row, 148 or 348
        pair = lines_at_angle(3, math.pi / 50, 10.0)
        x0 = np.array([3.0, -2.0, 0.0])
        stats = stop_statistics(pair, x0, None, stop_row + 1)
        tol = math.sqrt(stats[stop_row] * stats[stop_row - 1])
        expected = reference_orbit(pair, x0, None, 5000, tol)
        assert len(expected[0]) == stop_row + 1
        got = _orbit(pair, x0, None, 5000, tol)
        assert landings.count == jumps
        assert_same_orbit(got, expected, "refill", exact=False)

    @pytest.mark.parametrize("overflow_row", [151, 175, 199, 200, 201, 230])
    def test_overflow_past_a_landing_raises_at_the_per_step_row(self, landings, overflow_row):
        # x_n = (-n c1, -1) is finite up to row overflow_row and not after it.
        # The window statistic is 0 up to rounding, yet no landing is taken:
        # |x_n| + _WINDOW |d_n| is above 1e166, so the rounding floor refuses
        # it, and the per-step loop reaches the overflow
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
        # fixed point exactly at row 58; the landing at row 85 computes
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
    """M_T that counts its matrix-vector products; M_T^_WINDOW and S, built from it, count too."""

    calls = 0

    def dot(self, *args, **kwargs):
        CountingMatrix.calls += 1
        return np.asarray(self).dot(*args, **kwargs)


def counting(pair: OperatorPair) -> OperatorPair:
    m_t, t = pair.affine_step
    vars(pair)["affine_step"] = (m_t.view(CountingMatrix), t)
    CountingMatrix.calls = 0
    return pair


def predicted_products(stats, phase: int, max_iter: int, tol: float, rows: int) -> int:
    """Matrix-vector products of an unrecorded fused orbit of `rows` rows, t_w's aside.

    The per-step loop takes one product per row it runs. An orbit that
    reaches row first + (max_iter - 2 - first) % _WINDOW, first = _WINDOW in
    phase 1 and 1 in phase 2, tries its jumps there when at least one
    landing fits by row max_iter - 2: two products for S t_w and d_n, and two
    for each landing tried, the landing and the row after it. Landings
    _WINDOW rows apart are taken while row L's statistic is finite and its
    square above 2 tol^2, signed as tol, and skip their rows; phase 1 steps
    the last jump's _WINDOW rows again. The orbits here keep every landing's
    statistic far above the rounding floor.
    """
    first = _WINDOW if phase == 1 else 1
    leap_at = first + (max_iter - 2 - first) % _WINDOW
    if max_iter - 2 - first < _WINDOW or rows <= leap_at:
        return rows
    bound = math.copysign(2.0 * tol * tol, tol)
    landings = range(leap_at + _WINDOW, max_iter - 1, _WINDOW)
    taken = next((k for k, row in enumerate(landings)
                  if not bound < stats[row] ** 2 < math.inf), len(landings))
    refill = _WINDOW if phase == 1 and taken else 0
    return rows - _WINDOW * taken + refill + 2 + 2 * min(taken + 1, len(landings))


class TestWork:
    """Products per phase: predicted_products, and a few exact counts.

    A stop at row N takes N + 1 products, and a spent budget ends its
    landings at row max_iter - 2, so only the last two rows and, in phase 1,
    the last jump's rows follow them.
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
        CountingMatrix.calls = 0
        rows = len(_orbit(pair, x0, w, max_iter, tol)[0])
        products = CountingMatrix.calls - (w is not None)  # t_w takes one
        assert products == predicted_products(stats, phase, max_iter, tol, rows)
        assert rows == len(reference_orbit(pair, x0, w, max_iter, tol)[0])

    def test_a_budget_spent_dim_100_phase_1_jumps(self):
        # 2000 rows at angle 0.05 do not settle: 98 rows, 38 jumps to row
        # 1998 of two products and two more, the last jump's 50 rows again and
        # the last two rows, where the per-step loop alone took 2000
        pair = counting(lines_at_angle(100, 0.05, 1.0))
        x0 = np.linspace(-3.0, 3.0, 100)
        v, end = estimate_v(pair, x0, 2000)
        assert len(end) == 2000 and end.x_last is None
        assert CountingMatrix.calls == 98 + 2 + 2 * 38 + 50 + 2 == 228

    def test_a_stop_at_row_n_takes_n_plus_one_products(self):
        # phase 1 stops at row _WINDOW, before its jumps; a warm phase 2 at row
        # 0, after one product for t_w
        pair = counting(lines_pair())
        assert len(_orbit(pair, [3.0, -2.0], None, 1000, 1e-8)[0]) == _WINDOW + 1
        assert CountingMatrix.calls == _WINDOW + 1
        pair = counting(lines_pair())
        assert len(_orbit(pair, [3.0, -2.0], np.array([0.0, 1.0]), 1000, 1e-9)[0]) == 1
        assert CountingMatrix.calls == 1 + 1

    @pytest.mark.parametrize("phase", [1, 2])
    def test_a_negative_tol_runs_to_the_last_row(self, phase):
        # no row stops at tol < 0, however small its statistic. Phase 1 steps
        # 98 rows, jumps 18 times to row 998, steps its last jump's 50 rows
        # again and the last two rows; phase 2 steps 48 rows after t_w, jumps
        # 19 times to row 998 and steps the last two rows. Lines through 0
        # have a fixed point, so phase 2 proves nothing
        pair = counting(lines_at_angle(3, 0.05))
        w = None if phase == 1 else np.zeros(3)
        end, status = _orbit(pair, [3.0, -2.0, 1.0], w, 1000, -1.0)[:2]
        assert len(end) == 1000 and status == MAX_ITER
        expected = 98 + 2 + 2 * 18 + 50 + 2 if phase == 1 else 1 + 48 + 2 + 2 * 19 + 2
        assert CountingMatrix.calls == expected == (188 if phase == 1 else 91)

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
