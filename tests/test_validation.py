"""The validation contract: which malformed inputs each entry point refuses, and how.

For NaN, +-inf, empty, 0-d, 2-D-for-1-D, ragged, bool and str entries and
integer literals beyond float64, every entry point that takes outside
vectors is pinned here: the exception type, the field path and the message,
and through normsplit.cli.main the exit code and the stderr line. A faster
validation path must refuse the same inputs in the same words, and accept
the same others.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from normsplit import cli
from normsplit.errors import DimensionMismatchError, ProblemFormatError
from normsplit.problemio import parse_problem, report_from_jsonable
from normsplit.vecspace import as_matrix, as_rows, as_vector

NAN, INF = math.nan, math.inf
HUGE = 10**400  # an integer literal beyond the float64 range
# numpy's own complaint about a ragged list starts so
RAGGED = "setting an array element with a sequence."
NOT_FLOAT = "could not convert string to float: 'a'"
TOO_BIG = "int too large to convert to float"


def refusal(fn, *args):
    """(type, path, message) of what fn raises; fails the test when it returns."""
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is pinned
        return type(exc), getattr(exc, "path", None), str(exc)
    pytest.fail(f"{fn.__name__} accepted {args!r}")


# ---------------------------------------------------------------------------
# vecspace
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value, dim, kind, message", [
    ([1.0, NAN], None, ValueError, "vector entries must be finite"),
    ([INF, 1.0], None, ValueError, "vector entries must be finite"),
    ([1.0, -INF], 3, ValueError, "vector entries must be finite"),
    # past 32 entries as_vector checks with np.isfinite instead
    ([0.0] * 39 + [NAN], None, ValueError, "vector entries must be finite"),
    ([INF] + [0.0] * 99, 100, ValueError, "vector entries must be finite"),
    ([0.0] * 99 + [-INF], 100, ValueError, "vector entries must be finite"),
    ([], None, DimensionMismatchError, "vectors must have positive dimension"),
    (1.0, None, DimensionMismatchError, "expected a vector, got array of shape ()"),
    (None, None, DimensionMismatchError, "expected a vector, got array of shape ()"),
    ([[1.0, 2.0]], None, DimensionMismatchError, "expected a vector, got array of shape (1, 2)"),
    (np.zeros((2, 0)), None, DimensionMismatchError,
     "expected a vector, got array of shape (2, 0)"),
    ([["a"], ["b"]], None, ValueError, NOT_FLOAT),
    (["a", "b"], None, ValueError, NOT_FLOAT),
    ([HUGE, 1], None, OverflowError, TOO_BIG),
    ([True, False], 3, DimensionMismatchError, "expected dimension 3, got 2"),
])
def test_as_vector_refusals(value, dim, kind, message):
    assert refusal(as_vector, value, dim) == (kind, None, message)


def test_as_vector_ragged():
    kind, _, message = refusal(as_vector, [[1.0], [1.0, 2.0]])
    assert kind is ValueError and message.startswith(RAGGED)


@pytest.mark.parametrize("value, expected", [
    ([True, False], [1.0, 0.0]), (["1", "2.5"], [1.0, 2.5]), ((3, -4), [3.0, -4.0]),
])
def test_as_vector_accepts(value, expected):
    v = as_vector(value, 2)
    assert v.dtype == float and v.tolist() == expected


MATRIX_REFUSALS = [
    ([[1.0, NAN], [0.0, 1.0]], ValueError, "matrix entries must be finite"),
    ([[INF, 0.0], [0.0, 1.0]], ValueError, "matrix entries must be finite"),
    ([[1.0, 0.0], [0.0, -INF]], ValueError, "matrix entries must be finite"),
    ([], DimensionMismatchError, "expected a matrix, got array of shape (0,)"),
    (1.0, DimensionMismatchError, "expected a matrix, got array of shape ()"),
    (None, DimensionMismatchError, "expected a matrix, got array of shape ()"),
    ([1.0, 2.0], DimensionMismatchError, "expected a matrix, got array of shape (2,)"),
    ([[[1.0]]], DimensionMismatchError, "expected a matrix, got array of shape (1, 1, 1)"),
    ([["a", "b"], ["c", "d"]], ValueError, NOT_FLOAT),
    ([[HUGE, 0], [0, 1]], OverflowError, TOO_BIG),
]


@pytest.mark.parametrize("value, kind, message", MATRIX_REFUSALS)
def test_as_matrix_and_as_rows_refusals(value, kind, message):
    assert refusal(as_matrix, value) == (kind, None, message)
    assert refusal(as_matrix, value, True) == (kind, None, message)
    assert refusal(as_rows, value, 2) == (kind, None, message)


def test_matrix_ragged():
    ragged = [[1.0], [1.0, 2.0]]
    for kind, _, message in (refusal(as_matrix, ragged), refusal(as_rows, ragged, 2)):
        assert kind is ValueError and message.startswith(RAGGED)


@pytest.mark.parametrize("value, square, rows", [
    ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], "expected a square matrix, got (2, 3)",
     "expected 2 columns, got 3"),
    (np.zeros((0, 2)), "expected a square matrix, got (0, 2)",
     "a block of points needs at least one row"),
])
def test_matrix_shapes(value, square, rows):
    assert refusal(as_matrix, value, True) == (DimensionMismatchError, None, square)
    assert refusal(as_rows, value, 2) == (DimensionMismatchError, None, rows)
    assert as_matrix(value).shape == np.shape(value)


def test_matrix_accepts_bool_and_numeric_str():
    for value in ([[True, False], [False, True]], [["1", "0"], ["0", "1"]]):
        for m in (as_matrix(value), as_matrix(value, True), as_rows(value, 2)):
            assert m.dtype == float and m.tolist() == [[1.0, 0.0], [0.0, 1.0]]


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

ZERO = {"type": "zero", "dim": 2}


def problem(a=ZERO, b=ZERO, **extra):
    return {"dim": 2, "A": a, "B": b, **extra}


def in_set(region):
    return problem(a={"type": "normal_cone", "set": region})


def box(lo=(0.0, 0.0), hi=(1.0, 1.0)):
    return in_set({"type": "box", "lo": list(lo), "hi": list(hi)})


IDENTITY = [[1.0, 0.0], [0.0, 1.0]]

# field path -> problem with the value in that field
VECTOR_FIELDS = {
    "A.set.lo": lambda v: in_set({"type": "box", "lo": v, "hi": [1.0, 1.0]}),
    "A.set.hi": lambda v: in_set({"type": "box", "lo": [0.0, 0.0], "hi": v}),
    "A.set.center": lambda v: in_set({"type": "ball", "center": v, "radius": 1.0}),
    "A.set.anchor": lambda v: in_set(
        {"type": "affine_subspace", "anchor": v, "basis": [[1.0, 0.0]]}),
    "A.set.normal": lambda v: in_set({"type": "halfspace", "normal": v, "offset": 1.0}),
    "A.offset": lambda v: problem(a={"type": "affine", "matrix": IDENTITY, "offset": v}),
    "A.value": lambda v: problem(a={"type": "constant", "value": v}),
    "A.shift": lambda v: problem(a={"type": "inner_shift", "inner": ZERO, "shift": v}),
    "B.shift": lambda v: problem(b={"type": "outer_shift", "inner": ZERO, "shift": v}),
    "problem.w": lambda v: problem(w=v),
    "problem.options.x0": lambda v: problem(options={"x0": v}),
}

FINITE_VECTOR = "expected a nonempty finite vector"
NUMBERS = "expected a list of numbers"
TOO_BIG_FIELD = "integer too large for a float64"
# malformed vectors, refused by the field's own decoder with its path
VECTOR_VALUES = [
    ([1.0, NAN], FINITE_VECTOR), ([INF, 1.0], FINITE_VECTOR), ([1.0, -INF], FINITE_VECTOR),
    ([], FINITE_VECTOR), (1.0, FINITE_VECTOR), ([[1.0, 2.0]], FINITE_VECTOR),
    ([[1.0], [1.0, 2.0]], NUMBERS), (["a", "b"], NUMBERS), ([HUGE, 1], TOO_BIG_FIELD),
    ([0.0] * 39 + [NAN], FINITE_VECTOR), ([0.0] * 99 + [INF], FINITE_VECTOR),
]


@pytest.mark.parametrize("path", VECTOR_FIELDS)
@pytest.mark.parametrize("value, message", VECTOR_VALUES)
def test_problem_vector_fields(path, value, message):
    got = refusal(parse_problem, VECTOR_FIELDS[path](value))
    assert got == (ProblemFormatError, path, f"{path}: {message}")
    # the same record read back from its JSON text (NaN and Infinity included)
    text = json.dumps(VECTOR_FIELDS[path](value))
    assert refusal(parse_problem, json.loads(text)) == got


@pytest.mark.parametrize("path", [p for p in VECTOR_FIELDS
                                  if p not in ("problem.w", "problem.options.x0")])
def test_problem_vector_fields_refuse_null(path):
    got = refusal(parse_problem, VECTOR_FIELDS[path](None))
    assert got == (ProblemFormatError, path, f"{path}: {FINITE_VECTOR}")


def test_null_w_and_x0_mean_none():
    p = parse_problem(problem(w=None, options={"x0": None}))
    assert p.w is None and p.x0 is None


# a vector of the wrong dimension: (path, message) of the refusal
SHORT = {
    "A.set.lo": ("A.set", "expected dimension 1, got 2"),
    "A.set.hi": ("A.set", "expected dimension 2, got 1"),
    "A.set.center": ("A", "operator dimension 1 does not match problem dim 2"),
    "A.set.anchor": ("A.set", "basis rows must match anchor dimension"),
    "A.set.normal": ("A", "operator dimension 1 does not match problem dim 2"),
    "A.offset": ("A", "expected dimension 2, got 1"),
    "A.value": ("A", "operator dimension 1 does not match problem dim 2"),
    "A.shift": ("A", "expected dimension 2, got 1"),
    "B.shift": ("B", "expected dimension 2, got 1"),
    "problem.w": ("problem.w", "expected dimension 2"),
    "problem.options.x0": ("problem.options.x0", "expected dimension 2"),
}


@pytest.mark.parametrize("path", VECTOR_FIELDS)
def test_problem_vector_of_the_wrong_dimension(path):
    where, message = SHORT[path]
    got = refusal(parse_problem, VECTOR_FIELDS[path]([1.0]))
    assert got == (ProblemFormatError, where, f"{where}: {message}")


@pytest.mark.parametrize("path", VECTOR_FIELDS)
def test_problem_vector_fields_accept_bool_and_numeric_str(path):
    # bools read as 0 and 1, and numeric strings as their numbers
    parse_problem(VECTOR_FIELDS[path]([True, True]))
    parse_problem(VECTOR_FIELDS[path](["1", "1e0"]))


def test_accepted_values_are_read_only_float64():
    p = parse_problem(box(lo=[False, True], hi=["1", "2"]))
    region = p.a.region
    assert region.lo.tolist() == [0.0, 1.0] and region.hi.tolist() == [1.0, 2.0]
    for v in (region.lo, region.hi):
        assert v.dtype == float and not v.flags.writeable
    p = parse_problem(problem(w=[True, 2], options={"x0": ["3", 4]}))
    assert p.w.tolist() == [1.0, 2.0] and p.x0.tolist() == [3.0, 4.0]


MATRIX_FIELDS = {
    "A.set.basis": lambda m: in_set(
        {"type": "affine_subspace", "anchor": [0.0, 0.0], "basis": m}),
    "A.matrix": lambda m: problem(a={"type": "affine", "matrix": m, "offset": [0.0, 0.0]}),
}
FINITE_MATRIX = "expected a finite matrix as list of rows"
ROWS = "expected a row-major list of rows"
MATRIX_VALUES = [
    ([[1.0, NAN], [0.0, 1.0]], FINITE_MATRIX), ([[INF, 0.0], [0.0, 1.0]], FINITE_MATRIX),
    ([[1.0, 0.0], [0.0, -INF]], FINITE_MATRIX), (1.0, FINITE_MATRIX), (None, FINITE_MATRIX),
    ([1.0, 0.0], FINITE_MATRIX), ([[[1.0]]], FINITE_MATRIX),
    ([[1.0], [1.0, 2.0]], ROWS), ([["a", "b"], ["c", "d"]], ROWS),
    ([[HUGE, 0], [0, 1]], TOO_BIG_FIELD),
]


@pytest.mark.parametrize("path", MATRIX_FIELDS)
@pytest.mark.parametrize("value, message", MATRIX_VALUES)
def test_problem_matrix_fields(path, value, message):
    got = refusal(parse_problem, MATRIX_FIELDS[path](value))
    assert got == (ProblemFormatError, path, f"{path}: {message}")


@pytest.mark.parametrize("path, value, where, message", [
    ("A.set.basis", [[1.0, 2.0, 3.0]], "A.set", "basis rows must match anchor dimension"),
    ("A.set.basis", [[1.0, 1.0]], "A.set", "basis rows must be orthonormal"),
    ("A.matrix", [], "A", "expected a matrix, got array of shape (0,)"),
    ("A.matrix", [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], "A", "expected a square matrix, got (2, 3)"),
    ("A.matrix", [[1.0, 0.0]], "A", "expected a square matrix, got (1, 2)"),
    ("A.matrix", [[0.0, 0.0], [0.0, -1.0]], "A",
     "affine map is not monotone: symmetric part has eigenvalue -1.000e+00"),
])
def test_problem_matrix_shapes(path, value, where, message):
    got = refusal(parse_problem, MATRIX_FIELDS[path](value))
    assert got == (ProblemFormatError, where, f"{where}: {message}")


def test_problem_matrix_fields_accept():
    for value in ([[True, False], [False, True]], [["1", "0"], ["0", "1"]]):
        parse_problem(MATRIX_FIELDS["A.matrix"](value))
    for value in ([], [[True, False]], [["0", "1"]]):
        parse_problem(MATRIX_FIELDS["A.set.basis"](value))


NUMBER_FIELDS = {
    "A.set.radius": lambda x: in_set({"type": "ball", "center": [0.0, 0.0], "radius": x}),
    "A.set.offset": lambda x: in_set({"type": "halfspace", "normal": [1.0, 0.0], "offset": x}),
    "A.set.beta": lambda x: in_set({"type": "epigraph_exp", "beta": x}),
    "problem.options.tol_v": lambda x: problem(options={"tol_v": x}),
    "problem.options.tol_fix": lambda x: problem(options={"tol_fix": x}),
}


@pytest.mark.parametrize("path", NUMBER_FIELDS)
@pytest.mark.parametrize("value, message", [
    ("1", "expected a number"), (True, "expected a number"), ([1.0], "expected a number"),
    (None, "expected a number"), (HUGE, TOO_BIG_FIELD),
])
def test_problem_number_fields(path, value, message):
    got = refusal(parse_problem, NUMBER_FIELDS[path](value))
    assert got == (ProblemFormatError, path, f"{path}: {message}")


RADIUS = ("A.set", "ball radius must be positive and finite")
OFFSET = ("A.set", "halfspace offset must be finite")
BETA = ("A.set", "beta must be nonnegative and finite")


def tolerance(name, shown):
    path = f"problem.options.{name}"
    return path, f"expected a finite tolerance >= 0, got {shown}"


@pytest.mark.parametrize("path, value, refused", [
    ("A.set.radius", NAN, RADIUS), ("A.set.radius", INF, RADIUS),
    ("A.set.radius", -INF, RADIUS), ("A.set.radius", 0, RADIUS),
    ("A.set.offset", NAN, OFFSET), ("A.set.offset", INF, OFFSET), ("A.set.offset", -INF, OFFSET),
    ("A.set.beta", NAN, BETA), ("A.set.beta", INF, BETA), ("A.set.beta", -1.0, BETA),
    ("problem.options.tol_v", NAN, tolerance("tol_v", "nan")),
    ("problem.options.tol_v", -INF, tolerance("tol_v", "-inf")),
    ("problem.options.tol_fix", INF, tolerance("tol_fix", "inf")),
    ("problem.options.tol_fix", -1, tolerance("tol_fix", "-1.0")),
])
def test_problem_number_ranges(path, value, refused):
    where, message = refused
    got = refusal(parse_problem, NUMBER_FIELDS[path](value))
    assert got == (ProblemFormatError, where, f"{where}: {message}")


COUNT_FIELDS = {
    "problem.dim": lambda n: dict(problem(), dim=n),
    "A.dim": lambda n: problem(a={"type": "zero", "dim": n}),
    "problem.options.max_iter": lambda n: problem(options={"max_iter": n}),
}


@pytest.mark.parametrize("path", COUNT_FIELDS)
@pytest.mark.parametrize("value", [NAN, INF, "2", True, [2], None, -1, 0, 2.0])
def test_problem_count_fields(path, value):
    got = refusal(parse_problem, COUNT_FIELDS[path](value))
    assert got == (ProblemFormatError, path, f"{path}: expected an integer >= 1")


def test_problem_huge_counts():
    where, message = "A", "operator dimension 2 does not match problem dim " + str(HUGE)
    assert refusal(parse_problem, COUNT_FIELDS["problem.dim"](HUGE)) == (
        ProblemFormatError, where, f"{where}: {message}")
    assert parse_problem(COUNT_FIELDS["problem.options.max_iter"](HUGE)).options.max_iter == HUGE


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

REPORT = {"v_estimate": [0.0, 1.0], "status": "converged", "normal_solution": [0.0, 0.0],
          "governing_point": [1.0, 1.0], "dual_solution": None,
          "certificates": {"a_side": True}, "iterations_used": 3}
REPORT_VECTORS = ("v_estimate", "normal_solution", "governing_point", "dual_solution")


@pytest.mark.parametrize("key", REPORT_VECTORS)
@pytest.mark.parametrize("value, message", VECTOR_VALUES)
def test_report_vector_fields(key, value, message):
    path = f"report.{key}"
    got = refusal(report_from_jsonable, dict(REPORT, **{key: value}))
    assert got == (ProblemFormatError, path, f"{path}: {message}")


@pytest.mark.parametrize("key", REPORT_VECTORS)
def test_report_vector_fields_null_and_accepted(key):
    if key == "v_estimate":
        got = refusal(report_from_jsonable, dict(REPORT, v_estimate=None))
        assert got == (ProblemFormatError, "report.v_estimate",
                       f"report.v_estimate: {FINITE_VECTOR}")
    else:
        assert getattr(report_from_jsonable(dict(REPORT, **{key: None})), key) is None
    for value in ([True, False], ["1", "0"]):
        got = getattr(report_from_jsonable(dict(REPORT, **{key: value})), key)
        assert got.dtype == float and got.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("value", [NAN, INF, "3", True, [3], None, -1, 3.0])
def test_report_iteration_count(value):
    got = refusal(report_from_jsonable, dict(REPORT, iterations_used=value))
    path = "report.iterations_used"
    assert got == (ProblemFormatError, path, f"{path}: expected an integer >= 0")


# ---------------------------------------------------------------------------
# --w and --x0 through the CLI
# ---------------------------------------------------------------------------

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


UNPARSED = "could not parse {text!r} as comma-separated floats"
NOT_TWO = "expected 2 finite comma-separated floats, got {text!r}"


@pytest.mark.parametrize("flag", ["--w", "--x0"])
@pytest.mark.parametrize("text, message", [
    ("nan", NOT_TWO), ("1,nan", NOT_TWO), ("inf,1", NOT_TWO), ("1,-inf", NOT_TWO),
    ("1e400,0", NOT_TWO), ("1" + "0" * 400 + ",0", NOT_TWO), ("1", NOT_TWO),
    ("1,2,3", NOT_TWO), ("", UNPARSED), ("a,b", UNPARSED), ("True,False", UNPARSED),
    ("1,,2", UNPARSED), ("0x1,2", UNPARSED), ("[1,2]", UNPARSED),
])
def test_cli_vector_flags(tmp_path, flag, text, message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem()))
    expected = (cli.EXIT_INPUT_ERROR, f"error: {flag}: {message.format(text=text)}\n")
    assert run(["solve", str(path), f"{flag}={text}"]) == expected
    if flag == "--w":
        assert run(["duality-check", str(path), f"{flag}={text}"]) == expected


@pytest.mark.parametrize("flag", ["--w", "--x0"])
def test_cli_vector_flags_accept_spaces(tmp_path, flag):
    # float() strips the spaces around each part; Zero + Zero at w = (1, 2) drifts
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem(options={"max_iter": 200})))
    code = cli.EXIT_NO_FIXED_POINT if flag == "--w" else cli.EXIT_OK
    assert run(["solve", str(path), f"{flag}= 1 , 2 "]) == (code, "")
