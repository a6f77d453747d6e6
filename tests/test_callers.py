"""Every module-level function and class of the package is named somewhere
in the package besides its own definition.

A definition that only tests or demos call is library surface kept alive for
them; it belongs in ``tests/oracles.py`` or in the demo that uses it. Like
``test_imports.py`` this stands in for a lint tool, and it matches by name:
a reference is any identifier or attribute with the definition's name, in
any module of the package, outside the definition's own body.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "frustumbox"


def uncalled_definitions(package):
    """(module, name) of each top-level function or class in `package` that
    no other code of the package names."""
    definitions, references = [], set()
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if own is not None:
                definitions.append((path.stem, own))
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    references.add(name)
    return [(module, name) for module, name in definitions if name not in references]


def test_every_definition_has_a_library_caller():
    assert uncalled_definitions(PACKAGE) == []
