"""The package names only what exists and serves: importable dependencies that
fqcc imports, resolvable console-script targets, and public code that the
pipeline, the tools or the benchmark reach."""

import ast
import importlib
import importlib.metadata
import re
from pathlib import Path

import pytest
from packaging.requirements import Requirement

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: only the pyproject checks skip
    tomllib = None

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
needs_tomllib = pytest.mark.skipif(tomllib is None, reason="reading pyproject.toml needs tomllib")

# Public names that nothing outside the tests uses yet, each with the reason it stays.
_FT_ROW = "Clifford+T couplers: ROADMAP item 4 compiles a step from them, item 2's FT row"
UNCALLED = {
    "ftgates.ft_single_body": _FT_ROW,
    "ftgates.ft_two_body_with_z": _FT_ROW,
    "ftgates.rel_phase_toffoli3": _FT_ROW,
    "ftgates.weight_sum_accounting": _FT_ROW,
    "ftgates.prefix_linear_functions": _FT_ROW,
    "ftgates.format_linear_form": _FT_ROW,
    "trotter.pf_sequence": "ROADMAP item 4 builds a product-formula step on it or deletes it",
    "measure.qsr_context_from_terms": "ROADMAP item 5 puts qubit-space reduction on the HMP2 path",
    "measure.qsr_compress_sum": "ROADMAP item 5 puts qubit-space reduction on the HMP2 path",
    "pso.read_checkpoint": "resumes a search from the checkpoint pso.run writes",
    "trotter.plan_report": "a plan's JSON report, an output the north star names",
    "hmp2.write_cycles_csv": "a run's per-cycle table, an output the north star names",
}


def _project():
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]


def _dependencies():
    return _project()["dependencies"] if tomllib else []


def _module_name(spec):
    return re.sub(r"[-.]", "_", Requirement(spec).name.lower())


@needs_tomllib
@pytest.mark.parametrize("spec", _dependencies())
def test_runtime_dependency_imports_at_declared_version(spec):
    req = Requirement(spec)
    importlib.import_module(_module_name(spec))
    assert req.specifier.contains(importlib.metadata.version(req.name), prereleases=True)


@needs_tomllib
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


@needs_tomllib
def test_console_scripts_resolve():
    for name, target in _project().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def public_definitions(root):
    """'module.name' of every top-level public def and class in ``src/fqcc``."""
    out = set()
    for path in (root / "src" / "fqcc").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    out.add(f"{path.stem}.{node.name}")
    return out


def _referenced_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value  # fqccbench wraps calls by attribute-name strings
    return None


def references(root):
    """'module.name' of each fqcc definition that code outside the tests refers to.

    Scans ``src``, ``tools`` and ``fqccbench`` (not their ``tests``).  A
    reference is a Name, an Attribute, an import alias or a string constant
    outside ``__all__``, matched to a definition by name; a definition's own
    body does not count.
    """
    defs = {}
    for qualified in public_definitions(root):
        module, name = qualified.split(".")
        defs.setdefault(name, set()).add(module)
    out = set()
    for top in ("src", "tools", "fqccbench"):
        for path in (root / top).rglob("*.py"):
            if "tests" in path.relative_to(root).parts:
                continue
            tree = ast.parse(path.read_text())
            in_fqcc = path.parent == root / "src" / "fqcc"
            for stmt in tree.body:
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
                ):
                    continue
                own = getattr(stmt, "name", None) if in_fqcc else None
                for node in ast.walk(stmt):
                    name = _referenced_name(node)
                    for module in defs.get(name, ()):
                        if not (name == own and module == path.stem):
                            out.add(f"{module}.{name}")
    return out


def test_every_public_name_serves_a_pipeline():
    unused = public_definitions(ROOT) - references(ROOT) - UNCALLED.keys()
    assert not unused, (
        f"public but used only by tests, or not at all: {sorted(unused)}; "
        "delete them, move test-only code to tests/oracles.py, or list them in UNCALLED"
    )


def test_uncalled_entries_are_current():
    missing = UNCALLED.keys() - public_definitions(ROOT)
    assert not missing, f"UNCALLED names definitions that do not exist: {sorted(missing)}"
    called = UNCALLED.keys() & references(ROOT)
    assert not called, f"UNCALLED lists names that are now used, drop them: {sorted(called)}"


def unused_imports(path):
    """Names that ``path``'s imports bind and no ``Name`` node in it reads.

    ``import a.b`` binds ``a``; ``from __future__`` imports bind nothing.
    """
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_unused_imports():
    """Across ``src/fqcc``, ``tools`` and ``tests``; ``__init__.py`` files
    re-export what they import, so they are not scanned."""
    found = {}
    for top in ("src/fqcc", "tools", "tests"):
        for path in (ROOT / top).rglob("*.py"):
            if path.name != "__init__.py" and (names := unused_imports(path)):
                found[str(path.relative_to(ROOT))] = sorted(names)
    assert not found, f"imported but never used: {found}"
