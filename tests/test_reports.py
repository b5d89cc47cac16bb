import json
import math
from types import SimpleNamespace

import pytest

from planeflow.escape import (
    escape_measure,
    poly_flow_summary,
    rubel_path,
)
from planeflow.expr import parse_expr
from planeflow.flow import (
    HOLOMORPHIC,
    FlowSpec,
    IntegratorConfig,
    blowup_time_estimate,
    integrate,
)
from planeflow import reports
from planeflow.level import trace_level, transit_time
from planeflow.reports import (
    dumps_report,
    load_schema,
    report_to_dict,
    validate_report,
)


@pytest.fixture(scope="module")
def schema():
    return load_schema()


def roundtrip(report):
    return json.loads(dumps_report(report))


class TestSerialization:
    def test_trajectory_roundtrip_precision(self, schema):
        traj = integrate(FlowSpec(HOLOMORPHIC, parse_expr("z^2 - 1")), 0.3 + 0.2j,
                         IntegratorConfig(t_max=2.0))
        data = roundtrip(traj)
        validate_report(data, schema)
        # json round trip is bit-exact for doubles via repr
        assert data["z_end"]["re"] == traj.z_end.real
        assert data["z_end"]["im"] == traj.z_end.imag
        assert data["t_end"] == traj.t_end
        assert data["n_samples"] == len(traj.samples)

    def test_transit_report(self, schema):
        cfg = IntegratorConfig(escape_radius=100.0)
        curve = trace_level(parse_expr("z^2 / 2"), 1.0, 50.0, cfg)
        rep = transit_time(curve, cfg)
        data = roundtrip(rep)
        validate_report(data, schema)
        assert set(data) >= {"x_range", "quadrature_time", "ode_time", "relative_gap"}
        assert data["divergent"] is False

    def test_infinite_transit_uses_null(self, schema):
        import planeflow.level as level_mod

        curve = trace_level(parse_expr("z^2 / 2"), 1j, 0.0)
        # synthetic divergent report: quadrature_time = inf must become null
        rep = level_mod.TransitReport((0.0, 1.0), math.inf, 2.0, math.inf, 0.5)
        data = roundtrip(rep)
        validate_report(data, schema)
        assert data["quadrature_time"] is None
        assert data["divergent"] is True

    def test_escape_measure_report(self, schema):
        cfg = IntegratorConfig(escape_radius=10.0, t_max=20.0)
        rep = escape_measure(parse_expr("-exp(-z)"), 0.0, 1.0, 25, cfg, seed=3)
        data = roundtrip(rep)
        validate_report(data, schema)
        assert sum(data["counts"].values()) == 25

    def test_rubel_report(self, schema):
        cfg = IntegratorConfig(escape_radius=1e9)
        rep = rubel_path(parse_expr("exp(z)"), 0.0, 2.0, math.exp(40.0), cfg)
        data = roundtrip(rep)
        validate_report(data, schema)
        assert set(data["growth_ratios"]) == {"0", "1", "2", "3"}

    def test_poly_summary_report(self, schema):
        data = roundtrip(poly_flow_summary([0, 0, 1], HOLOMORPHIC))
        validate_report(data, schema)

    def test_estimate_and_curve_and_criterion(self, schema):
        cfg = IntegratorConfig(escape_radius=100.0)
        est = blowup_time_estimate(
            integrate(FlowSpec(HOLOMORPHIC, parse_expr("z^2")), 1.0, cfg), cfg
        )
        validate_report(roundtrip(est), schema)
        curve = trace_level(parse_expr("z"), 1.0, 700.0, IntegratorConfig(escape_radius=1e4))
        validate_report(roundtrip(curve), schema)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            report_to_dict({"not": "a report"})


class TestValidator:
    def test_missing_required_rejected(self, schema):
        with pytest.raises(ValueError):
            validate_report({"type": "poly_summary", "kind": "holomorphic"}, schema)

    def test_wrong_type_rejected(self, schema):
        data = roundtrip(poly_flow_summary([0, 0, 1], HOLOMORPHIC))
        data["degree"] = "two"
        with pytest.raises(ValueError):
            validate_report(data, schema)

    def test_unknown_report_kind_rejected(self, schema):
        with pytest.raises(ValueError):
            validate_report({"type": "mystery"}, schema)

    def test_shipped_schema_read_once(self, monkeypatch):
        reads = []
        real = reports.resources

        def files(package):
            reads.append(package)
            return real.files(package)

        monkeypatch.setattr(reports, "resources", SimpleNamespace(files=files))
        reports._shipped_schema.cache_clear()
        try:
            data = roundtrip(poly_flow_summary([0, 0, 1], HOLOMORPHIC))
            validate_report(data)
            validate_report(data)
        finally:
            reports._shipped_schema.cache_clear()
        assert len(reads) == 1

    def test_load_schema_copy_does_not_leak(self):
        data = roundtrip(poly_flow_summary([0, 0, 1], HOLOMORPHIC))
        mutated = load_schema()
        for node in mutated["$defs"].values():
            node.clear()
            node["type"] = "string"
        with pytest.raises(ValueError):
            validate_report(data, mutated)
        validate_report(data)
        assert load_schema() != mutated

    def test_every_definition_reachable(self, schema):
        def refs(node):
            if isinstance(node, dict):
                if "$ref" in node:
                    yield node["$ref"].removeprefix("#/$defs/")
                for value in node.values():
                    yield from refs(value)
            elif isinstance(node, list):
                for value in node:
                    yield from refs(value)

        reached, todo = set(), list(refs(schema["oneOf"]))
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                todo.extend(refs(schema["$defs"][name]))
        assert reached == set(schema["$defs"])
