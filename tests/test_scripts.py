"""scripts/compare_outputs.py: the same-bytes gate between two reference-output trees."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


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
