"""README's Python examples run as written, and README and the package's
exported names cannot drift apart."""

import ast
import re
from pathlib import Path

import pytest

import shotr

from .conftest import random_track, write_csv

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, flags=re.M | re.S)


def test_readme_has_python_examples():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_readme_python_block_runs(tmp_path, monkeypatch, rng, index):
    """Each block runs on its own, in a directory holding the tracks.csv
    that the file example reads."""
    tracks = [random_track(rng, n, track_id=track_id) for track_id, n in (("a", 12), ("b", 3))]
    write_csv(tmp_path / "tracks.csv",
              [(t.track_id, *row) for t in tracks for row in zip(t.times, *t.coords.T)])
    monkeypatch.chdir(tmp_path)
    exec(compile(PYTHON_BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_imports_only_exported_names_and_names_every_export():
    imported = {alias.name for block in PYTHON_BLOCKS for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "shotr"
                for alias in node.names}
    assert imported and imported <= set(shotr.__all__)
    assert [name for name in shotr.__all__ if not re.search(rf"\b{name}\b", README)] == []
