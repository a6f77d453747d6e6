"""Every name a package module imports is used in that module, and a
package module imports another one only at its top level.

No lint tool ships with the project, so this stands in for one: an import
the module never reads fails here, unless its line carries ``# noqa: F401``
(the names perfbench looks up on a module). An import of a package module
inside a function hides a dependency from the module's header; it fails
here unless its line carries ``# noqa: PLC0415`` and the reason (a real
import cycle).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "frustumbox"


def unused_imports(path):
    """(line, name) of each name `path` imports but never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.append((alias.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def nested_package_imports(path):
    """(line, module) of each package-relative import `path` makes below its
    top level without a ``# noqa: PLC0415 - <reason>`` on its line."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    top = set(map(id, tree.body))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0 and id(node) not in top:
            marker = lines[node.lineno - 1].partition("# noqa: PLC0415")[2]
            if not marker.strip(" -"):
                found.append((node.lineno, node.module))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_at_top_level(path):
    assert nested_package_imports(path) == []
