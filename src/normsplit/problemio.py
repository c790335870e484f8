"""JSON schemas for problem files, solve reports, and the operator AST.

Operators serialize as tagged records mirroring the AST one to one; matrices
are row-major nested lists, vectors flat lists. Floats rely on Python's
shortest round-trip repr, so parse(serialize(x)) is bit-faithful.
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
from .splitting import SolveOptions, SolveReport


@dataclass
class Problem:
    dim: int
    a: OperatorSpec
    b: OperatorSpec
    w: Optional[np.ndarray]
    x0: Optional[np.ndarray]
    options: SolveOptions


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def set_to_jsonable(region: ProjectableSet) -> dict:
    if isinstance(region, Box):
        return {"type": "box", "lo": region.lo.tolist(), "hi": region.hi.tolist()}
    if isinstance(region, Ball):
        return {"type": "ball", "center": region.center.tolist(), "radius": region.radius}
    if isinstance(region, AffineSubspace):
        return {
            "type": "affine_subspace",
            "anchor": region.anchor.tolist(),
            "basis": region.basis.tolist(),
        }
    if isinstance(region, Halfspace):
        return {
            "type": "halfspace",
            "normal": region.normal.tolist(),
            "offset": region.offset,
        }
    if isinstance(region, EpigraphExp):
        return {"type": "epigraph_exp", "beta": region.beta}
    raise TypeError(f"unknown set variant {type(region).__name__}")


def operator_to_jsonable(op: OperatorSpec) -> dict:
    if isinstance(op, NormalCone):
        return {"type": "normal_cone", "set": set_to_jsonable(op.region)}
    if isinstance(op, AffineMonotone):
        return {
            "type": "affine",
            "matrix": op.matrix.tolist(),
            "offset": op.offset.tolist(),
        }
    if isinstance(op, ConstantValued):
        return {"type": "constant", "value": op.value.tolist()}
    if isinstance(op, Zero):
        return {"type": "zero", "dim": op.dim}
    if isinstance(op, Inverse):
        return {"type": "inverse", "inner": operator_to_jsonable(op.inner)}
    if isinstance(op, FlipBoth):
        return {"type": "flip_both", "inner": operator_to_jsonable(op.inner)}
    if isinstance(op, InnerShift):
        return {
            "type": "inner_shift",
            "inner": operator_to_jsonable(op.inner),
            "shift": op.shift.tolist(),
        }
    if isinstance(op, OuterShift):
        return {
            "type": "outer_shift",
            "inner": operator_to_jsonable(op.inner),
            "shift": op.shift.tolist(),
        }
    raise TypeError(f"unknown operator variant {type(op).__name__}")


# ---------------------------------------------------------------------------
# decoding, with field paths in every complaint
# ---------------------------------------------------------------------------

def _require(obj: dict, key: str, path: str):
    if not isinstance(obj, dict):
        raise ProblemFormatError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ProblemFormatError(f"{path}.{key}", "missing required field")
    return obj[key]


def _vector(obj, path: str) -> np.ndarray:
    try:
        v = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        raise ProblemFormatError(path, "expected a list of numbers") from None
    if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)):
        raise ProblemFormatError(path, "expected a nonempty finite vector")
    return v


def _matrix(obj, path: str) -> np.ndarray:
    try:
        m = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        raise ProblemFormatError(path, "expected a row-major list of rows") from None
    if m.ndim != 2 or not np.all(np.isfinite(m)):
        raise ProblemFormatError(path, "expected a finite matrix as list of rows")
    return m


def _number(obj, path: str) -> float:
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        raise ProblemFormatError(path, "expected a number")
    return float(obj)


def _count(obj, path: str, least: int) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool) or obj < least:
        raise ProblemFormatError(path, f"expected an integer >= {least}")
    return obj


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
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(
                label, f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from None


def set_from_jsonable(obj, path: str) -> ProjectableSet:
    tag = _require(obj, "type", path)
    try:
        if tag == "box":
            return Box(_vector(_require(obj, "lo", path), f"{path}.lo"),
                       _vector(_require(obj, "hi", path), f"{path}.hi"))
        if tag == "ball":
            return Ball(
                _vector(_require(obj, "center", path), f"{path}.center"),
                _number(_require(obj, "radius", path), f"{path}.radius"),
            )
        if tag == "affine_subspace":
            anchor = _vector(_require(obj, "anchor", path), f"{path}.anchor")
            raw_basis = _require(obj, "basis", path)
            if raw_basis == []:  # a single point: zero direction rows
                basis = np.zeros((0, anchor.size))
            else:
                basis = _matrix(raw_basis, f"{path}.basis")
            return AffineSubspace(anchor, basis)
        if tag == "halfspace":
            return Halfspace(
                _vector(_require(obj, "normal", path), f"{path}.normal"),
                _number(_require(obj, "offset", path), f"{path}.offset"),
            )
        if tag == "epigraph_exp":
            return EpigraphExp(_number(_require(obj, "beta", path), f"{path}.beta"))
    except ProblemFormatError:
        raise
    except ValueError as exc:
        raise ProblemFormatError(path, str(exc)) from None
    raise ProblemFormatError(f"{path}.type", f"unknown set tag {tag!r}")


def operator_from_jsonable(obj, path: str) -> OperatorSpec:
    tag = _require(obj, "type", path)
    try:
        if tag == "normal_cone":
            return NormalCone(set_from_jsonable(_require(obj, "set", path), f"{path}.set"))
        if tag == "affine":
            return AffineMonotone(
                _matrix(_require(obj, "matrix", path), f"{path}.matrix"),
                _vector(_require(obj, "offset", path), f"{path}.offset"),
            )
        if tag == "constant":
            return ConstantValued(_vector(_require(obj, "value", path), f"{path}.value"))
        if tag == "zero":
            dim = _require(obj, "dim", path)
            if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
                raise ProblemFormatError(f"{path}.dim", "expected a positive integer")
            return Zero(dim)
        if tag == "inverse":
            return Inverse(operator_from_jsonable(_require(obj, "inner", path), f"{path}.inner"))
        if tag == "flip_both":
            return FlipBoth(operator_from_jsonable(_require(obj, "inner", path), f"{path}.inner"))
        if tag == "inner_shift":
            return InnerShift(
                operator_from_jsonable(_require(obj, "inner", path), f"{path}.inner"),
                _vector(_require(obj, "shift", path), f"{path}.shift"),
            )
        if tag == "outer_shift":
            return OuterShift(
                operator_from_jsonable(_require(obj, "inner", path), f"{path}.inner"),
                _vector(_require(obj, "shift", path), f"{path}.shift"),
            )
    except ProblemFormatError:
        raise
    except ValueError as exc:
        raise ProblemFormatError(path, str(exc)) from None
    raise ProblemFormatError(f"{path}.type", f"unknown operator tag {tag!r}")


def parse_problem(obj: dict) -> Problem:
    dim = _require(obj, "dim", "problem")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ProblemFormatError("problem.dim", "expected a positive integer")
    a = operator_from_jsonable(_require(obj, "A", "problem"), "A")
    b = operator_from_jsonable(_require(obj, "B", "problem"), "B")
    for label, op in (("A", a), ("B", b)):
        if op.dim != dim:
            raise ProblemFormatError(
                label, f"operator dimension {op.dim} does not match problem dim {dim}"
            )
    w = None
    if obj.get("w") is not None:
        w = _vector(obj["w"], "problem.w")
        if w.size != dim:
            raise ProblemFormatError("problem.w", f"expected dimension {dim}")

    defaults = SolveOptions()
    raw = obj.get("options") or {}
    if not isinstance(raw, dict):
        raise ProblemFormatError("problem.options", "expected an object")
    known = {"max_iter", "tol_v", "tol_fix", "x0"}
    for key in raw:
        if key not in known:
            raise ProblemFormatError(f"problem.options.{key}", "unknown option")
    x0 = None
    if raw.get("x0") is not None:
        x0 = _vector(raw["x0"], "problem.options.x0")
        if x0.size != dim:
            raise ProblemFormatError("problem.options.x0", f"expected dimension {dim}")
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
        "v_residual": report.v_residual,
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
    if status not in ("converged", "no_fixed_point_detected", "max_iter"):
        raise ProblemFormatError("report.status", f"unknown status {status!r}")
    certificates = _require(obj, "certificates", "report")
    if not isinstance(certificates, dict) or not all(
            isinstance(v, bool) for v in certificates.values()):
        raise ProblemFormatError("report.certificates", "expected an object of booleans")
    return SolveReport(
        v_estimate=_vector(_require(obj, "v_estimate", "report"), "report.v_estimate"),
        v_residual=_number(_require(obj, "v_residual", "report"), "report.v_residual"),
        status=status,
        normal_solution=opt_vec("normal_solution"),
        governing_point=opt_vec("governing_point"),
        dual_solution=opt_vec("dual_solution"),
        certificates=dict(certificates),
        iterations_used=_count(
            _require(obj, "iterations_used", "report"), "report.iterations_used", 0
        ),
    )


def write_report(path, report: SolveReport, metadata: Optional[dict] = None) -> None:
    payload = {"report": report_to_jsonable(report)}
    if metadata:
        payload["metadata"] = metadata
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_report(path) -> SolveReport:
    payload = _loaded_json(path, "report_file")
    return report_from_jsonable(_require(payload, "report", "report_file"))
