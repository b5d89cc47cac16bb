"""JSON serialization of experiment reports, plus schema validation.

Conventions: complex numbers are {"re": ..., "im": ...} objects, never
strings; non-finite floats become null (JSON has no Infinity), with
explicit boolean flags carrying the divergence information.  Output is
sorted and indented so identical reports give identical bytes, and
floats use repr round-tripping (15+ significant digits survive).
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from importlib import resources

from .escape import (
    EscapeMeasureReport,
    PolyFlowSummary,
    RubelPathReport,
)
from .expr import to_text
from .flow import BlowupEstimate, Termination, Trajectory
from .level import LevelCurve, TransitReport

__all__ = [
    "load_schema",
    "report_to_dict",
    "validate_report",
]


def _json(value):
    """The one conversion rule per value type; ``fields`` raises TypeError for a value without one."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if value is None or isinstance(value, (str, int)):  # bool is an int
        return value
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (tuple, list)):
        return [_json(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json(v) for k, v in value.items()}
    kind = {"kind": value.name} if isinstance(value, Termination) else {}
    return kind | {f.name: _json(getattr(value, f.name)) for f in fields(value)}


# One row per report class: its "type", the fields its JSON leaves out, and
# the keys it derives (a derived key replaces the field of its name).
_ROWS = {
    Trajectory: ("trajectory", ("spec", "samples", "errors"), lambda r: {
        "flow_kind": r.spec.kind,
        "func": to_text(r.spec.func),
        "time_direction": r.spec.time_direction,
        "n_samples": len(r.samples),
        "t_end": r.t_end,
        "z_end": r.z_end,
    }),
    LevelCurve: ("level_curve", ("big_g", "xs", "zs"), lambda r: {
        "func": to_text(r.big_g),
        "n_samples": len(r),
        "x_range": (r.x_start, r.x_end),
        "z_end": r.z_end,
    }),
    RubelPathReport: ("rubel_path", ("samples",), lambda r: {
        "func": to_text(r.func),
        "n_samples": len(r.samples),
        "t_range": (r.samples[0][0], r.samples[-1][0]),
    }),
    TransitReport: ("transit", (), lambda r: {"divergent": not math.isfinite(r.quadrature_time)}),
    EscapeMeasureReport: ("escape_measure", ("trajectories",), None),
    BlowupEstimate: ("blowup_estimate", (), None),
    PolyFlowSummary: ("poly_summary", (), None),
}


def report_to_dict(report) -> dict:
    """Convert any experiment report (or trajectory) to plain JSON data."""
    for cls, (name, left_out, derive) in _ROWS.items():
        if isinstance(report, cls):
            kept = {f.name: getattr(report, f.name) for f in fields(cls) if f.name not in left_out}
            return _json({"type": name, **kept, **(derive(report) if derive else {})})
    raise TypeError(f"no JSON form for {type(report).__name__}")


def dumps_report(report) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# schema validation (small JSON-Schema subset: enough for our own files)


def load_schema() -> dict:
    """The shipped report schema, parsed afresh: the caller may change it."""
    return json.loads(resources.files("planeflow").joinpath("schemas/report.schema.json").read_text())


def validate_report(instance: dict, schema: dict) -> None:
    """Check a report dict against ``schema`` (:func:`load_schema`); raises ValueError."""
    defs = schema.get("$defs", {})
    _check(instance, schema, defs, "$")


def _resolve(node: dict, defs: dict) -> dict:
    while "$ref" in node:
        ref = node["$ref"]
        if not ref.startswith("#/$defs/"):
            raise ValueError(f"unsupported $ref {ref!r}")
        node = defs[ref.split("/")[-1]]
    return node


def _type_ok(value, kind: str) -> bool:
    if kind == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if kind == "string":
        return isinstance(value, str)
    if kind == "boolean":
        return isinstance(value, bool)
    if kind == "null":
        return value is None
    if kind == "object":
        return isinstance(value, dict)
    if kind == "array":
        return isinstance(value, list)
    raise ValueError(f"unsupported type {kind!r}")


def _check(value, node: dict, defs: dict, path: str) -> None:
    node = _resolve(node, defs)
    if "oneOf" in node:
        errors = []
        for sub in node["oneOf"]:
            try:
                _check(value, sub, defs, path)
                return
            except ValueError as exc:
                errors.append(str(exc))
        raise ValueError(f"{path}: no oneOf branch matched ({'; '.join(errors[:3])})")
    if "const" in node and value != node["const"]:
        raise ValueError(f"{path}: expected const {node['const']!r}, got {value!r}")
    if "enum" in node and value not in node["enum"]:
        raise ValueError(f"{path}: {value!r} not in enum {node['enum']!r}")
    if "type" in node:
        kinds = node["type"] if isinstance(node["type"], list) else [node["type"]]
        if not any(_type_ok(value, k) for k in kinds):
            raise ValueError(f"{path}: {value!r} is not of type {kinds}")
    if isinstance(value, dict):
        props = node.get("properties", {})
        for name in node.get("required", []):
            if name not in value:
                raise ValueError(f"{path}: missing required property {name!r}")
        extra = node.get("additionalProperties", True)
        for key, item in value.items():
            if key in props:
                _check(item, props[key], defs, f"{path}.{key}")
            elif isinstance(extra, dict):
                _check(item, extra, defs, f"{path}.{key}")
            elif extra is False:
                raise ValueError(f"{path}: unexpected property {key!r}")
    if isinstance(value, list):
        if "minItems" in node and len(value) < node["minItems"]:
            raise ValueError(f"{path}: fewer than {node['minItems']} items")
        if "maxItems" in node and len(value) > node["maxItems"]:
            raise ValueError(f"{path}: more than {node['maxItems']} items")
        if "items" in node:
            for i, item in enumerate(value):
                _check(item, node["items"], defs, f"{path}[{i}]")
