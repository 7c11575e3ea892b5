"""Every public module-level name in the package has a caller inside the package.

A public name (no leading underscore) that only tests or outside scripts use
is surface nothing in kronspec needs: it is deleted, or moved into the tests
as an oracle, rather than kept.  The check reads the source with ``ast``; a
name counts as used when any other top-level statement of any package module
reads it, as a bare name, an attribute or an imported name.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "kronspec"


def _defined(statement) -> list[str]:
    """The public names a top-level function, class or assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, ast.Assign):
        names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        names = [statement.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def _read(statement) -> set[str]:
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def unused_public_names(package: pathlib.Path) -> list[str]:
    """``module.name`` for each public name no other package statement reads."""
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(package.glob("*.py"))}
    statements = [(module, statement, _read(statement))
                  for module, tree in modules.items() for statement in tree.body]
    return [f"{module}.{name}"
            for module, definition, _ in statements
            for name in _defined(definition)
            if not any(name in read for _, statement, read in statements
                       if statement is not definition)]


def test_every_public_name_has_a_caller_in_the_package():
    unused = unused_public_names(PACKAGE)
    assert not unused, f"public names with no caller in the package: {', '.join(unused)}"


@pytest.fixture
def toy_package(tmp_path):
    (tmp_path / "core.py").write_text(
        "LIMIT = 3\n"
        "_HIDDEN = 4\n"
        "def used(x):\n    return x + LIMIT\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
        "def orphan():\n    return used(1)\n"
        "class Shape:\n    pass\n"
    )
    (tmp_path / "app.py").write_text(
        "from .core import Shape\n"
        "from . import core\n"
        "def main():\n    return core.used(2)\n"
        "if __name__ == '__main__':\n    main()\n"
    )
    return tmp_path


def test_check_flags_names_read_only_by_their_own_definition(toy_package):
    # recursion is not a caller, an import or an attribute read is, and
    # private names are not checked
    assert unused_public_names(toy_package) == ["core.recursive", "core.orphan"]
