"""Every public function of ``metacert.autodiff`` and ``metacert.tasks`` is
referenced from the package itself.

A function that only the tests call belongs in the tests (the reference ops
live in ``tests/reference_ops.py``).  The scan reads ``src/metacert`` with
``ast`` and imports nothing.  Another module references ``f`` of module
``T`` through ``from .T import f`` or an alias of ``from . import T``; ``T``
itself references ``f`` by a name that the enclosing top-level statement
does not bind (an argument called ``mean`` is not the function ``mean``).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "metacert"


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def bound_names(node: ast.AST) -> set[str]:
    """The names a statement binds: every argument of a function in it, and
    every name it assigns."""
    return ({n.arg for n in ast.walk(node) if isinstance(n, ast.arg)}
            | {n.id for n in ast.walk(node)
               if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)})


def references(module: str) -> set[str]:
    """The names of ``module`` that some module of the package references."""
    found = set()
    for stmt in parse(module).body:
        local = bound_names(stmt)
        found |= {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)
                  and isinstance(n.ctx, ast.Load) and n.id not in local}
    for path in PACKAGE.glob("*.py"):
        if path.stem == module:
            continue
        tree = ast.parse(path.read_text())
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module == module:
                    found |= {alias.name for alias in node.names}
                elif node.module is None:
                    aliases |= {alias.asname or alias.name for alias in node.names
                                if alias.name == module}
        found |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                  and isinstance(n.value, ast.Name) and n.value.id in aliases}
    return found


@pytest.mark.parametrize("module", ["autodiff", "tasks"])
def test_every_public_function_is_referenced_in_the_package(module):
    public = [node.name for node in parse(module).body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert public
    referenced = references(module)
    unreferenced = [name for name in public if name not in referenced]
    assert not unreferenced, f"no module of metacert references metacert.{module}'s {unreferenced}"
