"""scripts/compare_outputs.py, the same-bytes gate between two reference-output
trees, scripts/unreached_statements.py, the report of unexecuted statements,
and scripts/reference_costs.py, the report of call counts."""

import importlib.util
import json
from pathlib import Path

import pytest


def _load(name):
    spec = importlib.util.spec_from_file_location(name, Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_outputs = _load("compare_outputs")
reference_costs = _load("reference_costs")
unreached_statements = _load("unreached_statements")


def _tree(root: Path, outputs: dict) -> Path:
    for rel, text in outputs.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return root


@pytest.fixture
def trees(tmp_path):
    base = _tree(tmp_path / "base", {"a/stdout.txt": "1\n", "a/files/x.svg": "<svg/>", "b/stdout.txt": "2\n"})
    new = _tree(tmp_path / "new", {"a/stdout.txt": "1\n", "a/files/x.svg": "<svg />", "b/stdout.txt": "2\n", "c/stdout.txt": ""})
    return base, new


def test_changed_commands_name_their_files(trees):
    # a byte change, and a command present on one side only
    assert compare_outputs.changed_commands(*trees) == {"a": ["files/x.svg"], "c": ["stdout.txt"]}


@pytest.mark.parametrize(
    "listed, code",
    [
        ("# comment\na\nc  # new\n", 0),
        ("a\n", 1),  # c changed unlisted
        ("a\nb\nc\n", 1),  # b listed but unchanged
        ("", 1),
    ],
)
def test_gate_passes_only_on_the_exact_list(trees, tmp_path, monkeypatch, listed, code):
    intended = tmp_path / "intended.txt"
    intended.write_text(listed)
    monkeypatch.setattr(compare_outputs, "INTENDED", intended)
    assert compare_outputs.main([str(p) for p in trees]) == code


_SOURCE = '''"""module docstring"""
import math


@decorator
def f(x):
    """docstring"""
    if x:
        return 1
    try:
        y = (
            2)
    except ValueError:
        y = 3
    return y
'''


@pytest.mark.parametrize(
    "ran, missed",
    [
        # import time: the import and the decorator line of the def
        ({2, 5}, [8, 9, 10, 11, 14, 15]),
        # f(0) without an exception: the try is reached through its body,
        # whose statement runs on its second line
        ({2, 5, 8, 12, 15}, [9, 14]),
        (set(), [2, 6, 8, 9, 10, 11, 14, 15]),
    ],
)
def test_unreached_statements(ran, missed):
    assert unreached_statements.unreached(_SOURCE, ran) == missed


def test_reference_costs_count_named_and_generated_calls(tmp_path, capsys):
    # transit-short, twice in fresh interpreters: the same counts, one transit,
    # the DP5 step attempts of its cross-check, and no comprehension or lambda
    short = ["transit", "--G", "z^2*(1/2)", "--start", "1", "--Xmax", "2"]
    for root in ("a", "b"):
        reference_costs.record(tmp_path / root, [("transit-short", short)])
    a, b = (json.loads((tmp_path / r / "transit-short.json").read_text()) for r in "ab")
    assert a == b and a["exit_code"] == 0
    calls = a["calls"]
    assert calls["level:transit_time"] == 1 and calls["level:trace_level"] == 1
    assert calls["<generated>:step"] > 0 and calls["<generated>:newton"] > 0
    assert all(name.split(":")[1][0] != "<" for name in calls)
    assert capsys.readouterr().out.startswith("transit-short: ")


def test_reference_costs_diff(tmp_path):
    for root, counts in (("base", {"x": {"<generated>:step": 9, "flow:drive_field": 1}, "y": {}}),
                         ("new", {"x": {"<generated>:step": 6, "flow:drive_field": 1, "level:f": 2}, "z": {}})):
        (tmp_path / root).mkdir()
        for name, calls in counts.items():
            (tmp_path / root / f"{name}.json").write_text(json.dumps({"exit_code": 0, "calls": calls}))
    assert reference_costs.diff(tmp_path / "base", tmp_path / "new") == [
        "x: <generated>:step 9 -> 6", "x: level:f 0 -> 2", "y: only in BASE", "z: only in NEW",
    ]
    assert reference_costs.main(["--diff", str(tmp_path / "base")]) == 2
