"""The package's modules form one import order, with no cycle.

group -> transform -> weights -> kernels -> points, then oracles and cli on
top: a module imports, at module level, only modules earlier in that order.
The check scans the source, not a child import, because vilenkin/__init__
imports every layer, so importing any one submodule loads them all.
"""

import ast

from conftest import ROOT

SRC = ROOT / "src" / "vilenkin"
# module -> its place in the order; a module may import only lower places
ORDER = {
    "group": 0,
    "transform": 1,
    "weights": 2,
    "kernels": 3,
    "points": 4,
    "oracles": 5,
    "cli": 5,
    "__init__": 6,
    "__main__": 6,
}
# the only imports inside a function: the oracles, loaded on first use, and
# json, which only a config file needs
LAZY = {"from . import oracles", "import json"}


def _imports(tree: ast.AST, in_function: bool = False):
    """(import node, whether a function holds it) for every import in tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, in_function
        inner = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        yield from _imports(node, inner)


def _package_modules(node: ast.AST) -> list[str]:
    """The vilenkin modules an import statement names."""
    if isinstance(node, ast.ImportFrom) and node.level:
        return [node.module] if node.module else [alias.name for alias in node.names]
    names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
    return [name.split(".")[1] for name in names if name.startswith("vilenkin.")]


def test_every_module_imports_only_modules_below_it():
    modules = sorted(path.stem for path in SRC.glob("*.py"))
    wrong = [f"{name}.py has no place in ORDER" for name in modules if name not in ORDER]
    for name in modules:
        path = SRC / f"{name}.py"
        for node, in_function in _imports(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            if in_function:
                if ast.unparse(node) not in LAZY:
                    wrong.append(f"{where} (inside a function)")
                continue
            for imported in _package_modules(node):
                if name in ORDER and ORDER.get(imported, ORDER[name]) >= ORDER[name]:
                    wrong.append(f"{where} (not below {name})")
    assert wrong == [], "\n".join(wrong)
