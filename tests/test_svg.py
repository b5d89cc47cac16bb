import math
import random
import re

import pytest

from planeflow.expr import parse_expr
from planeflow.flow import HOLOMORPHIC, FlowSpec, IntegratorConfig, integrate
from planeflow.svg import render_svg


class TestRender:
    def test_empty_scene_is_valid_svg_with_axes(self):
        doc = render_svg(0j, 5.0, [], [], [])
        assert doc.startswith("<svg xmlns=")
        assert doc.rstrip().endswith("</svg>")
        assert doc.count('class="axis"') == 2

    def test_rotation_orbit_is_closed_polyline(self):
        traj = integrate(FlowSpec(HOLOMORPHIC, parse_expr("i*z")), 1.0, IntegratorConfig())
        doc = render_svg(0j, 1.5, [([z for _, z in traj.samples], "trajectory")], [], [])
        assert 'class="trajectory"' in doc
        pts = doc.split('class="trajectory" points="')[1].split('"')[0].split()
        first, last = pts[0], pts[-1]
        fx, fy = (float(v) for v in first.split(","))
        lx, ly = (float(v) for v in last.split(","))
        assert math.hypot(fx - lx, fy - ly) <= 1.0  # pixels

    def test_deterministic_bytes(self):
        def scene():
            return 1 + 1j, 3.0, [([0j, 1 + 1j, 2 + 0.5j], "level")], [(1j, "zero")], ["a legend line"]

        assert render_svg(*scene()) == render_svg(*scene())

    def test_clipping_splits_excursions(self):
        # wanders out of the window and comes back: two visible runs
        doc = render_svg(0j, 1.0, [([0j, 0.5, 5.0, 5 + 5j, 0.5j, 0.2j], "trajectory")], [], [])
        assert doc.count('class="trajectory"') == 2
        for chunk in doc.split('points="')[1:]:
            coords = chunk.split('"')[0].split()
            for pair in coords:
                x, y = (float(v) for v in pair.split(","))
                assert -1e-6 <= x <= 640 + 1e-6
                assert -1e-6 <= y <= 640 + 1e-6

    def test_fully_outside_polyline_dropped(self):
        assert 'class="trajectory"' not in render_svg(0j, 1.0, [([10 + 10j, 12 + 10j], "trajectory")], [], [])

    def test_markers_styled_by_kind(self):
        doc = render_svg(0j, 2.0, [], [(1j, "zero"), (0.5, "seed")], [])
        assert 'class="marker-zero"' in doc
        assert 'class="marker-seed"' in doc

    def test_blowup_class_styles_distinctly(self):
        doc = render_svg(0j, 2.0, [([0j, 1.0], "trajectory"), ([0j, 1j], "blowup")], [], [])
        assert 'class="blowup"' in doc and 'class="trajectory"' in doc
        assert ".blowup { stroke: #d62728" in doc

    def test_legend_escaped(self):
        assert "a &lt; b &amp; c" in render_svg(0j, 1.0, [], [], ["a < b & c"])

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            render_svg(0j, 0.0, [], [], [])

    @pytest.mark.parametrize("half_width", [1e-320, 5e-324, 1e308, math.inf, math.nan])
    def test_window_without_finite_scale_rejected(self, half_width):
        with pytest.raises(ValueError):
            render_svg(0j, half_width, [], [], [])

    def test_every_number_written_is_finite(self):
        # windows from subnormal to near-overflow half-widths, points near
        # them and across the double range: pixel ends overflow, the clip
        # of a finite segment overflows, and still no inf or nan is written
        rng = random.Random(20261019)

        def coord():
            return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, 308.2)

        # pixel ends of opposite sign whose difference overflows
        wide = (0j, 320.0, [([-1.7e308, 1.7e308, 1.7e308 + 1.7e308j], "trajectory")], [])
        # a window whose top edge cy + hw overflows, with a marker on it
        tall = (1.7e308j, 8e307, [([0.5e308j, 1.7e308j], "trajectory")], [(1.7e308j, "zero")])
        scenes = [wide, tall]
        for _ in range(400):
            center = complex(coord(), coord()) if rng.random() < 0.5 else 0j
            half_width = 10.0 ** rng.uniform(-323.0, 308.0)
            try:
                render_svg(center, half_width, [], [], [])
            except ValueError:
                continue
            near = [center + half_width * 10.0 ** rng.uniform(-2.0, 3.0) * complex(rng.gauss(0, 1), rng.gauss(0, 1))
                    for _ in range(6)]
            far = [complex(coord(), coord()) for _ in range(3)]
            markers = [(z, "zero") for z in near[:2] + far[:1]]
            scenes.append((center, half_width, [(rng.sample(near + far, 9), "trajectory")], markers))
        drawn = 0
        for scene in scenes:
            doc = render_svg(*scene, [])
            drawn += doc.count('class="trajectory"')
            for value in re.findall(r'(?:points|cx|cy)="([^"]*)"', doc):
                assert all(math.isfinite(float(v)) for v in re.split("[ ,]", value)), (scene, value)
        assert drawn >= 100
