"""The package metadata names only what exists: importable dependencies that
fqcc imports, and resolvable console-script targets."""

import ast
import importlib
import importlib.metadata
import re
from pathlib import Path

import pytest
from packaging.requirements import Requirement

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def _project():
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]


def _module_name(spec):
    return re.sub(r"[-.]", "_", Requirement(spec).name.lower())


@pytest.mark.parametrize("spec", _project()["dependencies"])
def test_runtime_dependency_imports_at_declared_version(spec):
    req = Requirement(spec)
    importlib.import_module(_module_name(spec))
    assert req.specifier.contains(importlib.metadata.version(req.name), prereleases=True)


def test_every_runtime_dependency_is_used():
    imported = set()
    for path in (ROOT / "src" / "fqcc").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    unused = [spec for spec in _project()["dependencies"] if _module_name(spec) not in imported]
    assert not unused, f"declared but imported nowhere in fqcc: {unused}"


def test_console_scripts_resolve():
    for name, target in _project().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name
