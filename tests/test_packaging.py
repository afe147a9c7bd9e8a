"""The package metadata names only what exists: importable dependencies and
resolvable console-script targets."""

import importlib
import importlib.metadata
import re
from pathlib import Path

import pytest
from packaging.requirements import Requirement

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _project():
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]


@pytest.mark.parametrize("spec", _project()["dependencies"])
def test_runtime_dependency_imports_at_declared_version(spec):
    req = Requirement(spec)
    importlib.import_module(re.sub(r"[-.]", "_", req.name.lower()))
    assert req.specifier.contains(importlib.metadata.version(req.name), prereleases=True)


def test_console_scripts_resolve():
    for name, target in _project().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name
