"""scripts/compare_outputs.py, the same-bytes gate between two reference-output
trees, and scripts/unreached_statements.py, the report of unexecuted statements."""

import importlib.util
from pathlib import Path

import pytest


def _load(name):
    spec = importlib.util.spec_from_file_location(name, Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_outputs = _load("compare_outputs")
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
