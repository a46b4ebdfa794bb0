"""Packaging metadata matches the package: entry points import, dependencies are used."""

import ast
import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _project():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def _imported_top_level_names():
    names = set()
    for path in (ROOT / "src" / "softprop").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_scripts_import_and_dependencies_are_used():
    for name, target in _project().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
    imported = _imported_top_level_names()
    for requirement in _project()["dependencies"]:
        dist = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        assert dist.lower().replace("-", "_") in imported, requirement


@pytest.mark.parametrize("needle, owner", [
    ('"manifest.json"', "datafiles.py"),
    ("raise MissingArtifactError", "datafiles.py"),
    ("json.dump(", "nn.py"),
])
def test_artifact_io_has_one_owner(needle, owner):
    # Artifact directories are written and read only through datafiles;
    # the one other JSON writer is the checkpoint sidecar in nn.
    holders = sorted(path.name for path in (ROOT / "src" / "softprop").rglob("*.py")
                     if needle in path.read_text())
    assert holders == [owner]
