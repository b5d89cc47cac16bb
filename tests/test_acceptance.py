"""End-to-end acceptance checks, one test per numbered criterion.

Each criterion is computed once, by its function in the ``planeflow
demo`` suite (``planeflow.cli._DEMOS``).  The test asserts on the values
that function measured, with the tolerance stated for the criterion,
and prints the demo's detail line (visible with -s / -rP).
"""

import math

from planeflow import cli


def report(criterion, ok, detail):
    assert ok, detail
    print(f"[criterion {criterion:>2}] pass: {detail}")


def test_criterion_01_closed_form_exponential_escape():
    ok, detail, m = cli._demo_closed_form_escape()
    assert m["sup"] <= 1e-6
    assert m["estimate"].conclusive
    assert abs(m["estimate"].t_est - 1.0) <= 1e-4
    report(1, ok, detail)


def test_criterion_02_polynomial_blowup_chart_switched():
    ok, detail, m = cli._demo_quadratic_blowup()
    assert sorted(m["estimates"]) == [0.5, 1.0]
    for want, est in m["estimates"].items():
        assert est.conclusive and est.method == "w_chart"
        assert abs(est.t_est - want) <= 1e-4
    report(2, ok, detail)


def test_criterion_03_conformal_clock():
    ok, detail, m = cli._demo_conformal_clock()
    assert len(m["residuals"]) == 15
    assert all(r <= 1e-5 for r in m["residuals"])
    report(3, ok, detail)


def test_criterion_04_antiholomorphic_dichotomy():
    ok, detail, m = cli._demo_antiholo_dichotomy()
    # degree 1: time to radius R grows like ln R with unit slope
    assert m["terminations"] == ["ReachedRadius"] * 4
    assert abs(m["slope"] - 1.0) <= 0.05
    # degree 2: total time to radius 1e6 is 1 - 1e-6
    assert 0.99 <= m["t_deg2"] <= 1.0
    report(4, ok, detail)


def test_criterion_05_transit_quadrature_vs_ode():
    ok, detail, m = cli._demo_transit_gap()
    assert len(m["gaps"]) == 2
    assert all(g <= 1e-3 for g in m["gaps"])
    report(5, ok, detail)


def test_criterion_06_tract_demo():
    ok, detail, m = cli._demo_tract()
    want = -math.log(1.0 - math.exp(-1.0))
    finite, infinite = m["finite"], m["infinite"]
    assert finite["termination"] == "FiniteTimeBlowup"
    assert abs(finite["t_est"] - want) <= 1e-3
    assert finite["im_drift"] <= 1e-6
    assert infinite["termination"] == "ReachedRadius"
    assert not infinite["conclusive"]
    assert infinite["im_drift"] <= 1e-6
    assert tuple(r for r, _ in infinite["times_to_radius"]) == (10.0, 100.0, 1000.0)
    for radius, t in infinite["times_to_radius"]:
        assert t >= radius - 2.0
    report(6, ok, detail)


def test_criterion_07_measure_zero_experiment():
    ok, detail, m = cli._demo_measure_zero(10_000)
    assert sum(m["counts"].values()) == 10_000
    assert m["fraction"] <= 0.01
    report(7, ok, detail)


def test_criterion_08_rubel_path_growth_and_integrability():
    ok, detail, m = cli._demo_rubel()
    assert sorted(m["paths"]) == [0.0, 5.0]
    for path in m["paths"].values():
        assert path["monotone"]
        assert path["orders"] >= {0, 1, 2, 3}
        assert path["ratio_at_100"] > 20.0
        assert path["rising"]
        assert path["tail_c"] == {0.5, 1.0}
        assert path["tails_finite"]
    report(8, ok, detail)


def test_criterion_09_infinite_time_criterion():
    ok, detail, m = cli._demo_criterion()
    assert m["z"].fires and m["z"].witnesses
    assert not m["z^2/2"].fires and m["z^2/2"].witnesses
    assert not m["z^3/3"].fires and m["z^3/3"].witnesses
    report(9, ok, detail)


def test_criterion_10_property_suites(tmp_path, capsys):
    ok, detail, m = cli._demo_properties()
    assert len(m["returns"]) == 3 and all(r <= 1e-5 for r in m["returns"])
    assert len(m["drifts"]) == 3 and all(d <= 1e-6 for d in m["drifts"])
    assert m["termination"].name == "Periodic"
    assert abs(m["termination"].period - 2.0 * math.pi) <= 1e-4

    # identical seeds, byte-identical outputs
    blobs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        code = cli.run_cli(
            ["measure", "--f", "-exp(-z)", "--z0", "0", "--delta", "1",
             "--N", "30", "--seed", "9", "--tmax", "20", "--svg", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        blobs.append(
            ((out / "measure.json").read_bytes(), (out / "measure.svg").read_bytes())
        )
    assert blobs[0] == blobs[1]
    report(10, ok, detail + "; outputs byte-identical")
