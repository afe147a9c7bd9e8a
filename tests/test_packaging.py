"""The package names only what exists and serves: importable dependencies that
fqcc imports, resolvable console-script targets, and public code that the
pipeline, the tools or the benchmark reach."""

import ast
import importlib
import importlib.metadata
import re
import textwrap
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
    "transform.Transform.basis_circuit": "ROADMAP item 1 emits and charges the basis change B",
    "pso.SearchReport.as_dict": "a search's JSON report, an output the north star names",
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


def public_members(root):
    """'module.Class.member' of every public def (method, property or
    classmethod) directly in a top-level class body of ``src/fqcc``."""
    out = set()
    for path in (root / "src" / "fqcc").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if not item.name.startswith("_"):
                            out.add(f"{path.stem}.{node.name}.{item.name}")
    return out


def _string(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value  # fqccbench wraps calls by attribute-name strings
    return None


def _referenced_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    return _string(node)


def _referenced_member(node):
    # a member is reached through an attribute; a bare Name of the same
    # spelling is a local or a loop variable
    return node.attr if isinstance(node, ast.Attribute) else _string(node)


def _scanned_statements(root):
    """(module, top-level statement) of the code in ``src``, ``tools`` and
    ``fqccbench`` outside their ``tests``; ``module`` is the stem of an
    ``src/fqcc`` file and None elsewhere.  ``__all__`` is skipped."""
    for top in ("src", "tools", "fqccbench"):
        for path in (root / top).rglob("*.py"):
            if "tests" in path.relative_to(root).parts:
                continue
            module = path.stem if path.parent == root / "src" / "fqcc" else None
            for stmt in ast.parse(path.read_text()).body:
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
                ):
                    continue
                yield module, stmt


def references(root):
    """'module.name' of each fqcc definition that code outside the tests refers to.

    A reference is a Name, an Attribute, an import alias or a string
    constant, matched to a definition by name; a definition's own body does
    not count.
    """
    defs = {}
    for qualified in public_definitions(root):
        module, name = qualified.split(".")
        defs.setdefault(name, set()).add(module)
    out = set()
    for module, stmt in _scanned_statements(root):
        own = getattr(stmt, "name", None) if module else None
        for node in ast.walk(stmt):
            name = _referenced_name(node)
            for defined_in in defs.get(name, ()):
                if not (name == own and defined_in == module):
                    out.add(f"{defined_in}.{name}")
    return out


def member_references(root):
    """'module.Class.member' of each public member that code outside the tests refers to.

    A reference is an Attribute or a string constant with the member's
    name; a member's own body does not count.
    """
    members = {}
    for qualified in public_members(root):
        members.setdefault(qualified.rpartition(".")[2], set()).add(qualified)
    out = set()
    for module, stmt in _scanned_statements(root):
        own = {}  # id of each node in a member's body -> that member
        if module and isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualified = f"{module}.{stmt.name}.{item.name}"
                    own.update((id(node), qualified) for node in ast.walk(item))
        for node in ast.walk(stmt):
            out.update(members.get(_referenced_member(node), set()) - {own.get(id(node))})
    return out


def unused_public(root, uncalled):
    """Public names and members nothing outside the tests reaches, less ``uncalled``."""
    unused = public_definitions(root) - references(root)
    unused |= public_members(root) - member_references(root)
    return sorted(unused - uncalled.keys())


def stale_uncalled(root, uncalled):
    """(entries that name nothing, entries that are now used) of ``uncalled``."""
    missing = uncalled.keys() - public_definitions(root) - public_members(root)
    called = uncalled.keys() & (references(root) | member_references(root))
    return sorted(missing), sorted(called)


def test_every_public_name_serves_a_pipeline():
    unused = unused_public(ROOT, UNCALLED)
    assert not unused, (
        f"public but used only by tests, or not at all: {unused}; "
        "delete them, move test-only code to tests/oracles.py, or list them in UNCALLED"
    )


def test_uncalled_entries_are_current():
    missing, called = stale_uncalled(ROOT, UNCALLED)
    assert not missing, f"UNCALLED names definitions that do not exist: {missing}"
    assert not called, f"UNCALLED lists names that are now used, drop them: {called}"


def test_member_rule_on_a_synthetic_tree(tmp_path):
    package = tmp_path / "src" / "fqcc"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(textwrap.dedent(
        """
        class Box:
            def used(self):
                return 0

            def recursive(self):
                return self.recursive()

            def idle(self):
                return 0

            def named(self):
                return 0

            def listed(self):
                return 0

            def _private(self):
                return 0


        def run(box):
            named = box.used()
            return named
        """
    ))
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "main.py").write_text("from fqcc.mod import Box, run\nrun(Box())\n")
    uncalled = {"mod.Box.listed": "", "mod.Box.gone": "", "mod.Box.used": ""}
    unused = unused_public(tmp_path, uncalled)
    assert "mod.Box.idle" in unused  # referenced nowhere
    assert "mod.Box.recursive" in unused  # only from its own body
    assert "mod.Box.named" in unused  # only a local Name of the same spelling
    assert unused == ["mod.Box.idle", "mod.Box.named", "mod.Box.recursive"]
    assert stale_uncalled(tmp_path, uncalled) == (["mod.Box.gone"], ["mod.Box.used"])


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
