"""JSON serialization of experiment reports, plus schema validation.

Conventions: complex numbers are {"re": ..., "im": ...} objects, never
strings; non-finite floats become null (JSON has no Infinity), with
explicit boolean flags carrying the divergence information.  Output is
sorted and indented so identical reports give identical bytes, and
floats use repr round-tripping (15+ significant digits survive).
"""

from __future__ import annotations

import copy
import json
import math
from functools import lru_cache
from importlib import resources
from typing import Optional

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


def _num(x) -> Optional[float]:
    x = float(x)
    return x if math.isfinite(x) else None


def _cplx(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _termination_dict(term: Termination) -> dict:
    out = {"kind": term.name}
    for name in getattr(term, "__dataclass_fields__", {}):
        value = getattr(term, name)
        if isinstance(value, complex):
            out[name] = _cplx(value)
        else:
            out[name] = _num(value)
    return out


def report_to_dict(report) -> dict:
    """Convert any experiment report (or trajectory) to plain JSON data."""
    if isinstance(report, Trajectory):
        return {
            "type": "trajectory",
            "flow_kind": report.spec.kind,
            "func": to_text(report.spec.func),
            "time_direction": report.spec.time_direction,
            "z0": _cplx(report.z0),
            "n_samples": len(report.samples),
            "t_end": _num(report.t_end),
            "z_end": _cplx(report.z_end),
            "termination": _termination_dict(report.termination),
        }
    if isinstance(report, BlowupEstimate):
        return {
            "type": "blowup_estimate",
            "t_est": _num(report.t_est),
            "t_err": _num(report.t_err),
            "conclusive": bool(report.conclusive),
            "method": report.method,
            "exit_times": [[_num(r), _num(t)] for r, t in report.exit_times],
            "note": report.note,
        }
    if isinstance(report, TransitReport):
        return {
            "type": "transit",
            "x_range": [_num(report.x_range[0]), _num(report.x_range[1])],
            "quadrature_time": _num(report.quadrature_time),
            "divergent": not math.isfinite(report.quadrature_time),
            "divergence_witness": _num(report.divergence_witness)
            if report.divergence_witness is not None
            else None,
            "ode_time": _num(report.ode_time),
            "relative_gap": _num(report.relative_gap),
        }
    if isinstance(report, EscapeMeasureReport):
        return {
            "type": "escape_measure",
            "delta": _num(report.delta),
            "n_samples": int(report.n_samples),
            "seed": int(report.seed),
            "counts": {k: int(v) for k, v in sorted(report.counts.items())},
            "finite_time_fraction": _num(report.finite_time_fraction),
        }
    if isinstance(report, RubelPathReport):
        return {
            "type": "rubel_path",
            "func": to_text(report.func),
            "d_shift": _num(report.d_shift),
            "n_samples": len(report.samples),
            "t_range": [_num(report.samples[0][0]), _num(report.samples[-1][0])],
            "monotone": bool(report.monotone),
            "im_deviation": _num(report.im_deviation),
            "growth_ratios": {
                str(m): [[_num(r), _num(q)] for r, q in points]
                for m, points in sorted(report.growth_ratios.items())
            },
            "tail_integrals": [
                {
                    "m": int(t.m),
                    "c": _num(t.c),
                    "partial_sum": _num(t.partial_sum),
                    "window_ratio": _num(t.window_ratio),
                    "tail_bound": _num(t.tail_bound),
                    "finite": bool(t.finite),
                }
                for t in report.tail_integrals
            ],
        }
    if isinstance(report, PolyFlowSummary):
        return {
            "type": "poly_summary",
            "kind": report.kind,
            "degree": int(report.degree),
            "finite_time_directions": [_num(a) for a in report.finite_time_directions],
            "finite_transit": report.finite_transit,
        }
    if isinstance(report, LevelCurve):
        return {
            "type": "level_curve",
            "func": to_text(report.big_g),
            "beta": _num(report.beta),
            "stop_reason": report.stop_reason,
            "n_samples": len(report),
            "x_range": [_num(report.x_start), _num(report.x_end)],
            "z_end": _cplx(report.z_end),
        }
    raise TypeError(f"no JSON form for {type(report).__name__}")


def dumps_report(report) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# schema validation (small JSON-Schema subset: enough for our own files)


def load_schema() -> dict:
    """The shipped report schema, as a fresh dict the caller may change."""
    return copy.deepcopy(_shipped_schema())


@lru_cache(maxsize=1)
def _shipped_schema() -> dict:
    # read once; validate_report only reads it, so sharing it is safe
    text = resources.files("planeflow").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


def validate_report(instance: dict, schema: Optional[dict] = None) -> None:
    """Check a report dict against the shipped schema; raises ValueError."""
    schema = schema or _shipped_schema()
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
