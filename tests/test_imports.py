"""No library module imports a name it never uses, or defines one that
nothing names.

Stdlib stand-ins for a linter's unused-import and dead-code rules.
__init__.py is exempt: its imports are the package's public re-exports,
and they do not count as naming a definition.
"""

import ast
import pathlib
import re
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crossflats"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# Where a definition may be named: the tracer looks functions up by string.
SEARCHED = sorted(p for top in ("src", "tests", "perfbench") for p in (ROOT / top).rglob("*.py")
                  if p != PACKAGE / "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a.b import c, d as e\n"
                          "print(sys.argv, e)\n") == ["c", "os"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


def test_the_package_has_modules():
    assert len(MODULES) >= 6


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def module_level_names(source: str) -> list[str]:
    """Functions, classes and constants the module defines, dunders aside."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def unnamed(names, texts) -> list[str]:
    """Names that occur as a whole word only once in all the texts: at
    their own definition."""
    def occurrences(name):
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        return sum(len(pattern.findall(text)) for text in texts)

    return sorted(name for name in names if occurrences(name) <= 1)


def test_the_check_sees_an_unnamed_definition():
    source = ("LIMIT = 3\nN: int = 2\n__all__ = []\ndef used(): pass\n"
              "def dead(): pass\nclass Gone: pass\nprint(used(), 'LIMIT')\n")
    names = module_level_names(source)
    assert names == ["LIMIT", "N", "used", "dead", "Gone"]
    assert unnamed(names, [source]) == ["Gone", "N", "dead"]
    assert unnamed(names, [source, "x = dead_end + N"]) == ["Gone", "dead"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_named_elsewhere(path):
    texts = [p.read_text(encoding="utf-8") for p in SEARCHED]
    assert unnamed(module_level_names(path.read_text(encoding="utf-8")), texts) == []


def test_all_lists_exactly_the_public_names():
    """__all__ is the package's public names less its submodules, so a
    deleted definition leaves no stale export behind, and the star import
    binds every name it lists."""
    import crossflats

    public = {name for name, value in vars(crossflats).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(crossflats.__all__) == sorted(public)
    assert len(set(crossflats.__all__)) == len(crossflats.__all__)
    namespace = {}
    exec("from crossflats import *", namespace)
    assert set(crossflats.__all__) <= set(namespace)
