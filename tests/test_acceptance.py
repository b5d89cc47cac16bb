"""End-to-end acceptance checks, one test per numbered criterion.

Each criterion has one rule: the ``ok`` that its function in the
``planeflow demo`` suite (``planeflow.cli._DEMOS``) returns.  Every test
runs one body, which asserts that verdict with the demo's detail line as
its message and prints the line (visible with -s / -rP).
"""

from planeflow import cli


def _asserts_verdict(criterion, demo, *args):
    def test():
        ok, detail = demo(*args)
        assert ok, detail
        print(f"[criterion {criterion:>2}] pass: {detail}")

    return test


test_criterion_01_closed_form_exponential_escape = _asserts_verdict(1, cli._demo_closed_form_escape)
test_criterion_02_polynomial_blowup_chart_switched = _asserts_verdict(2, cli._demo_quadratic_blowup)
test_criterion_03_conformal_clock = _asserts_verdict(3, cli._demo_conformal_clock)
test_criterion_04_antiholomorphic_dichotomy = _asserts_verdict(4, cli._demo_antiholo_dichotomy)
test_criterion_05_transit_quadrature_vs_ode = _asserts_verdict(5, cli._demo_transit_gap)
test_criterion_06_tract_demo = _asserts_verdict(6, cli._demo_tract)
test_criterion_07_measure_zero_experiment = _asserts_verdict(7, cli._demo_measure_zero, 10_000)
test_criterion_08_rubel_path_growth_and_integrability = _asserts_verdict(8, cli._demo_rubel)
test_criterion_09_infinite_time_criterion = _asserts_verdict(9, cli._demo_criterion)
test_criterion_10_property_suites = _asserts_verdict(10, cli._demo_properties)


def test_measure_outputs_byte_identical(tmp_path, capsys):
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
        blobs.append(((out / "measure.json").read_bytes(), (out / "measure.svg").read_bytes()))
    assert blobs[0] == blobs[1]
