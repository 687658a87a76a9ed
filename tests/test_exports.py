"""Export consistency: every public name the package advertises resolves.

Each public ``possfit.*`` module's ``__all__`` names only attributes the
module has, and every name ``possfit/__init__.py`` imports from a module is
in that module's ``__all__``, so a deleted function cannot leave a stale
export behind.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import possfit

PUBLIC_MODULES = sorted(
    info.name for info in pkgutil.iter_modules(possfit.__path__)
    if not info.name.startswith("_")
)


def test_public_modules_are_found():
    assert {"contours", "families", "nuisance", "models"} <= set(PUBLIC_MODULES)


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"possfit.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def _package_imports():
    """(module name, imported name) for each relative import of the package."""
    tree = ast.parse(Path(possfit.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_package_imports_only_exported_names():
    pairs = _package_imports()
    assert len(pairs) > 50
    stale = [
        (module, name) for module, name in pairs
        if name not in importlib.import_module(f"possfit.{module}").__all__
    ]
    assert stale == []
    assert all(hasattr(possfit, name) for _, name in pairs)


SOURCE_MODULES = sorted(
    path for path in Path(possfit.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def _unused_imports(path):
    """Names a module imports at its top level but neither uses nor lists
    in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    return [name for name in imported if name not in used | exported]


@pytest.mark.parametrize("path", SOURCE_MODULES, ids=lambda p: p.stem)
def test_every_module_import_is_used(path):
    assert _unused_imports(path) == []


def _unreferenced_private_definitions():
    """``module.name`` of each top-level private function, class or constant
    of the package that no other top-level statement of the package reads."""
    uses, defined = [], []
    for path in sorted(Path(possfit.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            inner = list(ast.walk(node))
            uses.append((node, {n.id for n in inner if isinstance(n, ast.Name)
                                and isinstance(n.ctx, ast.Load)}
                         | {n.attr for n in inner if isinstance(n, ast.Attribute)}
                         | {a.name for n in inner if isinstance(n, ast.ImportFrom)
                            for a in n.names}))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(path.stem, node, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    return [f"{module}.{name}" for module, node, name in defined
            if not any(name in read for other, read in uses if other is not node)]


def test_every_private_definition_is_read():
    """A private helper that nothing calls any more is deleted, not left
    behind: each is read by some other top-level statement of the package."""
    assert _unreferenced_private_definitions() == []
