"""The package names only what exists and serves: importable dependencies that
fqcc imports, resolvable console-script targets, and public code, and
module-level private code, that the pipeline, the tools or the benchmark
reach."""

import ast
import importlib
import importlib.metadata
import os
import re
import subprocess
import sys
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
_FT_ROW = "Clifford+T couplers: ROADMAP item 11 compiles a step from them, item 2's FT row"
_HEADER = "an FCIDUMP header field: the record keeps the whole header it parsed"
_REPORT_FIELD = "a search report's field, which SearchReport.as_dict reads through dataclasses.fields"
UNCALLED = {
    "ftgates.ft_single_body": _FT_ROW,
    "ftgates.ft_two_body_with_z": _FT_ROW,
    "ftgates.rel_phase_toffoli3": _FT_ROW,
    "ftgates.weight_sum_accounting": _FT_ROW,
    "ftgates.prefix_linear_functions": _FT_ROW,
    "ftgates.format_linear_form": _FT_ROW,
    "ftgates.FTResourceReport.variant": _FT_ROW,
    "ftgates.FTResourceReport.extrapolated": _FT_ROW,
    "fcidump.FcidumpRecord.ms2": _HEADER,
    "fcidump.FcidumpRecord.orbsym": _HEADER,
    "fcidump.FcidumpRecord.isym": _HEADER,
    "measure.MeasurementGroup.basis_change": (
        "the circuit that measures the group; ROADMAP item 7 makes it an output or deletes it"
    ),
    "measure.qsr_context_from_terms": "ROADMAP item 5 puts qubit-space reduction on the HMP2 path",
    "measure.qsr_compress_sum": "ROADMAP item 5 puts qubit-space reduction on the HMP2 path",
    "pso.read_checkpoint": "resumes a search from the checkpoint pso.run writes",
    "trotter.plan_report": "a plan's JSON report, an output the north star names",
    "hmp2.write_cycles_csv": "a run's per-cycle table, an output the north star names",
    "transform.Transform.basis_circuit": "ROADMAP item 1 emits and charges the basis change B",
    "fermions.FermionTerm.adjoint": (
        "a term's Hermitian conjugate, which the tests' oracles build T+ with; "
        "simulate reads T+ off the excitation's reversed modes"
    ),
    "pso.SearchReport.as_dict": "a search's JSON report, an output the north star names",
    "pso.SearchReport.improvement": _REPORT_FIELD,
    "pso.SearchReport.resource_fraction": _REPORT_FIELD,
}


def _project():
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]


def _dependencies(extra=None):
    """The runtime dependencies, or those of the optional ``extra``."""
    if not tomllib:
        return []
    project = _project()
    return project["dependencies"] if extra is None else project["optional-dependencies"][extra]


def _module_name(spec):
    return re.sub(r"[-.]", "_", Requirement(spec).name.lower())


def _imports_at_declared_version(spec):
    req = Requirement(spec)
    importlib.import_module(_module_name(spec))
    assert req.specifier.contains(importlib.metadata.version(req.name), prereleases=True)


@needs_tomllib
@pytest.mark.parametrize("spec", _dependencies())
def test_runtime_dependency_imports_at_declared_version(spec):
    _imports_at_declared_version(spec)


@needs_tomllib
@pytest.mark.parametrize("spec", _dependencies("dev"))
def test_dev_dependency_imports_at_declared_version(spec):
    _imports_at_declared_version(spec)


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


def public_definitions(root, private=False):
    """'module.name' of every top-level public def and class in ``src/fqcc``,
    or with ``private`` of every one whose name has a leading underscore
    and is no dunder."""
    out = set()
    for path in (root / "src" / "fqcc").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") == private and not node.name.startswith("__"):
                    out.add(f"{path.stem}.{node.name}")
    return out


def _is_dataclass(cls):
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _slot_names(cls):
    """The string constants of a class body's ``__slots__`` assignment."""
    for item in cls.body:
        if isinstance(item, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
        ):
            for node in ast.walk(item.value):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    yield node


def _member_names(cls):
    """The public defs (methods, properties, classmethods), dataclass
    fields and ``__slots__`` names directly in a class body."""
    names = [
        item.name
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    if _is_dataclass(cls):
        names += [
            item.target.id
            for item in cls.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        ]
    names += [node.value for node in _slot_names(cls)]
    return [name for name in names if not name.startswith("_")]


def public_members(root):
    """'module.Class.member' of every public member (``_member_names``) of a
    top-level class of ``src/fqcc``."""
    out = set()
    for path in (root / "src" / "fqcc").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                out.update(f"{path.stem}.{node.name}.{name}" for name in _member_names(node))
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
    # a member is read through an attribute; a bare Name of the same
    # spelling is a local or a loop variable, and an assignment to the
    # attribute sets a field without reading it
    if isinstance(node, ast.Attribute):
        return None if isinstance(node.ctx, ast.Store) else node.attr
    return _string(node)


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


def references(root, private=False):
    """'module.name' of each public (or, with ``private``, private) fqcc
    definition that code outside the tests refers to.

    A reference is a Name, an Attribute, an import alias or a string
    constant, matched to a definition by name; a definition's own body does
    not count, and neither does a docstring, which is never just the name.
    """
    defs = {}
    for qualified in public_definitions(root, private):
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

    A reference is a read of an Attribute, or a string constant, with the
    member's name; a member's own body, and a ``__slots__`` entry naming
    it, do not count.
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
            own.update(
                (id(node), f"{module}.{stmt.name}.{node.value}") for node in _slot_names(stmt)
            )
        for node in ast.walk(stmt):
            out.update(members.get(_referenced_member(node), set()) - {own.get(id(node))})
    return out


def unused_public(root, uncalled):
    """Public names and members nothing outside the tests reaches, less ``uncalled``."""
    unused = public_definitions(root) - references(root)
    unused |= public_members(root) - member_references(root)
    return sorted(unused - uncalled.keys())


def unused_private(root):
    """Module-level private defs and classes that nothing outside the tests
    reaches."""
    return sorted(public_definitions(root, True) - references(root, True))


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


def test_every_private_definition_serves_a_pipeline():
    unused = unused_private(ROOT)
    assert not unused, (
        f"private but used only by tests, or not at all: {unused}; "
        "delete them or move them to the tests' oracles"
    )


def test_uncalled_entries_are_current():
    missing, called = stale_uncalled(ROOT, UNCALLED)
    assert not missing, f"UNCALLED names definitions that do not exist: {missing}"
    assert not called, f"UNCALLED lists names that are now used, drop them: {called}"


_ARITHMETIC = {
    "__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__matmul__", "__neg__",
    "__truediv__",
}


def arithmetic_dunders(root):
    """'module.Class.dunder' of each arithmetic operator that a top-level
    class of ``src/fqcc`` defines, by a def or by an assignment."""
    out = []
    for path in sorted((root / "src" / "fqcc").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [item.name]
                else:
                    names = [t.id for t in getattr(item, "targets", ()) if isinstance(t, ast.Name)]
                out += [f"{path.stem}.{node.name}.{name}" for name in names if name in _ARITHMETIC]
    return out


def test_no_operator_algebra():
    """No pipeline multiplies, adds or negates operators; the tests' algebra
    lives in tests/oracles.py."""
    found = arithmetic_dunders(ROOT)
    assert not found, f"arithmetic operators defined in fqcc: {found}; move them to tests/oracles.py"


def test_compile_and_search_paths_load_no_scipy():
    """Importing scipy took most of a process's start-up, and nothing in
    fqcc needs it: every module, a whole search and a whole H2 HMP2 run
    (VQE included) run without loading any of it."""
    h2 = ROOT / "tests" / "fixtures" / "h2_sto3g.fcidump"
    code = (
        "import sys\n"
        "import fqcc.trotter, fqcc.measure, fqcc.pso, fqcc.transform, fqcc.fermions, fqcc.fcidump, fqcc.circuits\n"
        "import fqcc.simulate, fqcc.hmp2\n"
        "from fqcc import hmp2, pso\n"
        "from fqcc.fcidump import load_fcidump\n"
        "from fqcc.fermions import uccsd_pool\n"
        "config = pso.SwarmConfig(n_modes=4, k_max=2, t_max=3, seed=1)\n"
        "report = pso.run(config, pso.ansatz_cost_fn(uccsd_pool((0, 1), (2, 3)), occupied=range(2)))\n"
        "assert report.steps > 0\n"
        f"ham, fock = load_fcidump({str(h2)!r}).to_spin_orbital()\n"
        "run = hmp2.run_hmp2_loop(ham, fock)\n"
        "assert run.converged and run.final.vqe_iterations > 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True, env=env
    )
    assert done.stdout.strip() == "[]"


def test_emulator_path_loads_no_circuits():
    """The emulator builds no circuit: importing ``fqcc.hmp2`` and running a
    whole H2 HMP2 loop leave ``fqcc.circuits`` unloaded (``transform``
    imports it only inside ``basis_circuit``)."""
    h2 = ROOT / "tests" / "fixtures" / "h2_sto3g.fcidump"
    code = (
        "import sys\n"
        "import fqcc.hmp2\n"
        "loaded = 'fqcc.circuits' in sys.modules\n"
        "from fqcc.fcidump import load_fcidump\n"
        f"ham, fock = load_fcidump({str(h2)!r}).to_spin_orbital()\n"
        "assert fqcc.hmp2.run_hmp2_loop(ham, fock).converged\n"
        "print(loaded, 'fqcc.circuits' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True, env=env
    )
    assert done.stdout.strip() == "False False"


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

            def __mul__(self, other):
                return self

            __rmul__ = __mul__


        @dataclass
        class Report:
            read: int
            written: int
            passed: int
            _hidden: int = 0


        class Slots:
            __slots__ = ("kept", "unread", "_own")

            def __init__(self):
                self.kept = self.unread = self._own = 0


        def run(box):
            named = box.used()
            report = Report(1, 2, passed=3)
            report.written = Slots().kept
            return named, report.read
        """
    ))
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "main.py").write_text("from fqcc.mod import Box, run\nrun(Box())\n")
    uncalled = {"mod.Box.listed": "", "mod.Box.gone": "", "mod.Box.used": ""}
    unused = unused_public(tmp_path, uncalled)
    assert "mod.Box.idle" in unused  # referenced nowhere
    assert "mod.Box.recursive" in unused  # only from its own body
    assert "mod.Box.named" in unused  # only a local Name of the same spelling
    assert "mod.Report.written" in unused  # only assigned
    assert "mod.Report.passed" in unused  # only a keyword at construction
    assert "mod.Slots.unread" in unused  # only its __slots__ entry and a store
    assert unused == [
        "mod.Box.idle", "mod.Box.named", "mod.Box.recursive",
        "mod.Report.passed", "mod.Report.written", "mod.Slots.unread",
    ]
    assert stale_uncalled(tmp_path, uncalled) == (["mod.Box.gone"], ["mod.Box.used"])
    assert arithmetic_dunders(tmp_path) == ["mod.Box.__mul__", "mod.Box.__rmul__"]


def test_private_rule_on_a_synthetic_tree(tmp_path):
    package = tmp_path / "src" / "fqcc"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(textwrap.dedent(
        """
        def _called():
            return 0


        def _recursive(k):
            return _recursive(k - 1) if k else 0


        def _named_in_a_docstring():
            return 0


        class _Wrapped:
            pass


        def __getattr__(name):
            raise AttributeError(name)


        def run():
            \"\"\"Runs ``_named_in_a_docstring``.\"\"\"
            return _called()
        """
    ))
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "main.py").write_text("import fqcc.mod\ngetattr(fqcc.mod, '_Wrapped')\n")
    assert unused_private(tmp_path) == ["mod._named_in_a_docstring", "mod._recursive"]


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
