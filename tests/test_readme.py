"""README's Python examples run as written, README and the package's
exported names cannot drift apart, and README's call spans name the
code's parameters."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import shotr
from shotr import validate

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


def _documented_callable(name):
    """The object a README call span names, or None when the scan does not
    check that name: `shotr.<module>.<attr>`, an exported name, or a method
    of a synthetic case, `case.<method>`."""
    module, _, attr = name.removeprefix("shotr.").rpartition(".")
    if name.startswith("shotr.") and module:
        return getattr(importlib.import_module(f"shotr.{module}"), attr)
    if name in shotr.__all__:
        return getattr(shotr, name)
    if module == "case":
        return getattr(validate.get_case("conv3d"), attr)
    return None


def test_readme_call_signatures_match_the_code():
    """Each inline code span `name(args)` that names a documented callable
    passes it parameter names that open its signature: `x=...` reads as x,
    and `...` stands for arguments the span leaves out."""
    spans = re.findall(r"`([A-Za-z_][\w.]*)\(([^`()]*)\)`", README)
    checked, wrong = [], []
    for name, args in spans:
        target = _documented_callable(name)
        if target is None:
            continue
        names = [arg.split("=")[0].strip() for arg in args.split(",")
                 if arg.strip() and arg.strip() != "..."]
        params = list(inspect.signature(target).parameters)
        checked.append(name)
        if names != params[: len(names)]:
            wrong.append(f"{name}({args}) vs {params}")
    assert {"shotr.validate.backtrace", "TrackSeries", "case.sample"} <= set(checked)
    assert wrong == []
