import math

import pytest

from planeflow.expr import parse_expr
from planeflow.flow import HOLOMORPHIC, FlowSpec, IntegratorConfig, integrate
from planeflow.svg import SvgScene, render_svg


class TestRender:
    def test_empty_scene_is_valid_svg_with_axes(self):
        doc = render_svg(SvgScene(0j, 5.0))
        assert doc.startswith("<svg xmlns=")
        assert doc.rstrip().endswith("</svg>")
        assert doc.count('class="axis"') == 2

    def test_rotation_orbit_is_closed_polyline(self):
        traj = integrate(FlowSpec(HOLOMORPHIC, parse_expr("i*z")), 1.0, IntegratorConfig())
        scene = SvgScene(0j, 1.5)
        scene.add_polyline([z for _, z in traj.samples])
        doc = render_svg(scene)
        assert 'class="trajectory"' in doc
        pts = doc.split('class="trajectory" points="')[1].split('"')[0].split()
        first, last = pts[0], pts[-1]
        fx, fy = (float(v) for v in first.split(","))
        lx, ly = (float(v) for v in last.split(","))
        assert math.hypot(fx - lx, fy - ly) <= 1.0  # pixels

    def test_deterministic_bytes(self):
        scene_a = SvgScene(1 + 1j, 3.0)
        scene_b = SvgScene(1 + 1j, 3.0)
        for scene in (scene_a, scene_b):
            scene.add_polyline([0j, 1 + 1j, 2 + 0.5j], "level")
            scene.add_marker(1j, "zero")
            scene.add_legend("a legend line")
        assert render_svg(scene_a) == render_svg(scene_b)

    def test_clipping_splits_excursions(self):
        scene = SvgScene(0j, 1.0)
        # wanders out of the window and comes back: two visible runs
        scene.add_polyline([0j, 0.5, 5.0, 5 + 5j, 0.5j, 0.2j])
        doc = render_svg(scene)
        assert doc.count('class="trajectory"') == 2
        for chunk in doc.split('points="')[1:]:
            coords = chunk.split('"')[0].split()
            for pair in coords:
                x, y = (float(v) for v in pair.split(","))
                assert -1e-6 <= x <= 640 + 1e-6
                assert -1e-6 <= y <= 640 + 1e-6

    def test_fully_outside_polyline_dropped(self):
        scene = SvgScene(0j, 1.0)
        scene.add_polyline([10 + 10j, 12 + 10j])
        assert 'class="trajectory"' not in render_svg(scene)

    def test_markers_styled_by_kind(self):
        scene = SvgScene(0j, 2.0)
        scene.add_marker(1j, "zero")
        scene.add_marker(0.5, "seed")
        doc = render_svg(scene)
        assert 'class="marker-zero"' in doc
        assert 'class="marker-seed"' in doc

    def test_blowup_class_styles_distinctly(self):
        scene = SvgScene(0j, 2.0)
        scene.add_polyline([0j, 1.0], "trajectory")
        scene.add_polyline([0j, 1j], "blowup")
        doc = render_svg(scene)
        assert 'class="blowup"' in doc and 'class="trajectory"' in doc
        assert ".blowup { stroke: #d62728" in doc

    def test_legend_escaped(self):
        scene = SvgScene(0j, 1.0)
        scene.add_legend("a < b & c")
        assert "a &lt; b &amp; c" in render_svg(scene)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            SvgScene(0j, 0.0)
