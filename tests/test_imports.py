import ast
from pathlib import Path

import quasiherm

PACKAGE = Path(quasiherm.__file__).parent


def private_imports(path: Path) -> list[str]:
    """The names that start with one underscore, not dunder names, which
    the module imports from another module of the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("quasiherm")):
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_")
                      and not alias.name.startswith("__")]
    return found


def test_no_module_imports_a_private_name_of_a_sibling():
    found = {path.name: private_imports(path)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
