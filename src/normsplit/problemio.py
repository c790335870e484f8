"""JSON schemas for problem files, solve reports, and the operator AST.

Operators and sets are read from tagged records mirroring the AST one to
one; matrices are row-major nested lists, vectors flat lists. One table
entry per variant (_SETS, _OPERATORS) drives the decoder. Report floats
rely on Python's shortest round-trip repr, so read_report(write_report(r))
is bit-faithful. A report file without a schema_version is version 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ProblemFormatError
from .operators import (
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
    OperatorSpec,
    OuterShift,
    ProjectableSet,
    Zero,
)
from .splitting import CONVERGED, MAX_ITER, NO_FIXED_POINT, SolveOptions, SolveReport, _write_in_place
from .vecspace import as_matrix, as_vector

# the deepest wrapper stack a record may hold; decoding recurses once per level
MAX_NESTING = 100
# written into every report; read_report also reads version 1, ignoring its extra field
_SCHEMA_VERSION = 2


@dataclass
class Problem:
    dim: int
    a: OperatorSpec
    b: OperatorSpec
    w: Optional[np.ndarray]
    x0: Optional[np.ndarray]
    options: SolveOptions


# ---------------------------------------------------------------------------
# field decoders, with field paths in every complaint
# ---------------------------------------------------------------------------

def _require(obj: dict, key: str, path: str):
    if not isinstance(obj, dict):
        raise ProblemFormatError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ProblemFormatError(f"{path}.{key}", "missing required field")
    return obj[key]


def _floats(obj, path: str, expected: str) -> np.ndarray:
    """obj as a float64 array, else a complaint that it is not `expected`."""
    try:
        return np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        raise ProblemFormatError(path, f"expected {expected}") from None
    except OverflowError:  # an integer literal beyond the float64 range
        raise ProblemFormatError(path, "integer too large for a float64") from None


def _vector(obj, path: str, dim: Optional[int] = None) -> np.ndarray:
    v = _floats(obj, path, "a list of numbers")
    try:
        v = as_vector(v)
    except ValueError:  # not 1-D, empty or not finite
        raise ProblemFormatError(path, "expected a nonempty finite vector") from None
    if dim is not None and v.size != dim:
        raise ProblemFormatError(path, f"expected dimension {dim}")
    return v


def _matrix(obj, path: str) -> np.ndarray:
    """A finite matrix as a list of rows; [], a list of no rows, passes as is."""
    m = _floats(obj, path, "a row-major list of rows")
    try:
        return as_matrix(m) if m.size else m
    except ValueError:  # not 2-D or not finite
        raise ProblemFormatError(path, "expected a finite matrix as list of rows") from None


def _number(obj, path: str) -> float:
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        raise ProblemFormatError(path, "expected a number")
    return float(_floats(obj, path, "a number"))


def _count(obj, path: str, least: int) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool) or obj < least:
        raise ProblemFormatError(path, f"expected an integer >= {least}")
    return obj


def _dim(obj, path: str) -> int:
    return _count(obj, path, 1)


def _set(obj, path: str) -> ProjectableSet:
    return _decode(_SETS, "set", obj, path)


def operator_from_jsonable(obj, path: str) -> OperatorSpec:
    """Decode a tagged operator record; complaints name the field path under `path`."""
    inner = obj
    for _ in range(MAX_NESTING + 1):
        if not (isinstance(inner, dict) and "inner" in inner):
            return _decode(_OPERATORS, "operator", obj, path)
        inner = inner["inner"]
    raise ProblemFormatError(path, f"wrappers nest more than {MAX_NESTING} deep")


# ---------------------------------------------------------------------------
# the codec: one entry per variant, tag -> (class, ((json key, decoder), ...))
# with the fields in constructor order
# ---------------------------------------------------------------------------

_SETS = {
    "box": (Box, (("lo", _vector), ("hi", _vector))),
    "ball": (Ball, (("center", _vector), ("radius", _number))),
    "affine_subspace": (AffineSubspace, (("anchor", _vector), ("basis", _matrix))),
    "halfspace": (Halfspace, (("normal", _vector), ("offset", _number))),
    "epigraph_exp": (EpigraphExp, (("beta", _number),)),
}

_OPERATORS = {
    "normal_cone": (NormalCone, (("set", _set),)),
    "affine": (AffineMonotone, (("matrix", _matrix), ("offset", _vector))),
    "constant": (ConstantValued, (("value", _vector),)),
    "zero": (Zero, (("dim", _dim),)),
    "inverse": (Inverse, (("inner", operator_from_jsonable),)),
    "flip_both": (FlipBoth, (("inner", operator_from_jsonable),)),
    "inner_shift": (InnerShift, (("inner", operator_from_jsonable), ("shift", _vector))),
    "outer_shift": (OuterShift, (("inner", operator_from_jsonable), ("shift", _vector))),
}


def _decode(table: dict, kind: str, obj, path: str):
    tag = _require(obj, "type", path)
    try:
        cls, spec = table[tag]
    except (KeyError, TypeError):  # TypeError: an unhashable tag
        raise ProblemFormatError(f"{path}.type", f"unknown {kind} tag {tag!r}") from None
    args = [decode(_require(obj, key, path), f"{path}.{key}") for key, decode in spec]
    try:
        return cls(*args)
    except ValueError as exc:
        raise ProblemFormatError(path, str(exc)) from None


def checked_options(max_iter, tol_v, tol_fix, paths=(
        "problem.options.max_iter", "problem.options.tol_v", "problem.options.tol_fix"),
) -> SolveOptions:
    """Solve options from outside input: max_iter >= 1 and finite tolerances >= 0.

    `paths` names the three fields in complaints. The Python API itself
    accepts any tolerance (a negative one forces the whole budget).
    """
    tols = []
    for value, path in zip((tol_v, tol_fix), paths[1:]):
        tol = _number(value, path)
        if not (math.isfinite(tol) and tol >= 0.0):
            raise ProblemFormatError(path, f"expected a finite tolerance >= 0, got {tol!r}")
        tols.append(tol)
    return SolveOptions(max_iter=_count(max_iter, paths[0], 1), tol_v=tols[0], tol_fix=tols[1])


def _loaded_json(path, label: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(
                label, f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from None
        except UnicodeDecodeError as exc:
            raise ProblemFormatError(
                label, f"not UTF-8 text: byte 0x{exc.object[exc.start]:02x} at offset {exc.start}"
            ) from None
        except RecursionError:
            raise ProblemFormatError(label, "JSON nests too deep to parse") from None


def parse_problem(obj: dict) -> Problem:
    dim = _dim(_require(obj, "dim", "problem"), "problem.dim")
    a = operator_from_jsonable(_require(obj, "A", "problem"), "A")
    b = operator_from_jsonable(_require(obj, "B", "problem"), "B")
    for label, op in (("A", a), ("B", b)):
        if op.dim != dim:
            raise ProblemFormatError(
                label, f"operator dimension {op.dim} does not match problem dim {dim}"
            )
    w = None if obj.get("w") is None else _vector(obj["w"], "problem.w", dim)

    defaults = SolveOptions()
    raw = obj.get("options")
    if raw is None:
        raw = {}
    elif not isinstance(raw, dict):
        raise ProblemFormatError("problem.options", "expected an object")
    known = {"max_iter", "tol_v", "tol_fix", "x0"}
    for key in raw:
        if key not in known:
            raise ProblemFormatError(f"problem.options.{key}", "unknown option")
    x0 = None if raw.get("x0") is None else _vector(raw["x0"], "problem.options.x0", dim)
    options = checked_options(
        raw.get("max_iter", defaults.max_iter),
        raw.get("tol_v", defaults.tol_v),
        raw.get("tol_fix", defaults.tol_fix),
    )
    return Problem(dim=dim, a=a, b=b, w=w, x0=x0, options=options)


def load_problem(path) -> Problem:
    return parse_problem(_loaded_json(path, "problem"))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _opt_list(v) -> Optional[list]:
    return None if v is None else np.asarray(v).tolist()


def report_to_jsonable(report: SolveReport) -> dict:
    return {
        "v_estimate": report.v_estimate.tolist(),
        "status": report.status,
        "normal_solution": _opt_list(report.normal_solution),
        "governing_point": _opt_list(report.governing_point),
        "dual_solution": _opt_list(report.dual_solution),
        "certificates": dict(report.certificates),
        "iterations_used": report.iterations_used,
    }


def report_from_jsonable(obj: dict) -> SolveReport:
    def opt_vec(key):
        val = _require(obj, key, "report")
        return None if val is None else _vector(val, f"report.{key}")

    status = _require(obj, "status", "report")
    if status not in (CONVERGED, NO_FIXED_POINT, MAX_ITER):
        raise ProblemFormatError("report.status", f"unknown status {status!r}")
    certificates = _require(obj, "certificates", "report")
    if not isinstance(certificates, dict) or not all(
            isinstance(v, bool) for v in certificates.values()):
        raise ProblemFormatError("report.certificates", "expected an object of booleans")
    return SolveReport(
        v_estimate=_vector(_require(obj, "v_estimate", "report"), "report.v_estimate"),
        status=status,
        normal_solution=opt_vec("normal_solution"),
        governing_point=opt_vec("governing_point"),
        dual_solution=opt_vec("dual_solution"),
        certificates=dict(certificates),
        iterations_used=_count(
            _require(obj, "iterations_used", "report"), "report.iterations_used", 0
        ),
    )


def write_report(path, report: SolveReport, metadata: dict) -> None:
    payload = {"schema_version": _SCHEMA_VERSION,
               "report": report_to_jsonable(report), "metadata": metadata}
    _write_in_place(path, json.dumps(payload, indent=2) + "\n", newline=None)


def read_report(path) -> SolveReport:
    payload = _loaded_json(path, "report_file")
    obj = _require(payload, "report", "report_file")
    version = payload.get("schema_version", 1)
    if type(version) is not int or version not in (1, _SCHEMA_VERSION):
        raise ProblemFormatError("report_file.schema_version",
                                 f"expected 1 or {_SCHEMA_VERSION}, got {version!r}")
    return report_from_jsonable(obj)
