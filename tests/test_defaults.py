"""Every defaulted parameter of a package function is set by some call.

The companion of ``test_parameters.py``: a default that no caller ever
overrides is a constant written as a setting. It belongs in the body, or
as a module constant beside the function. Like ``test_callers.py`` this
stands in for a lint tool and matches by name: a call sets a parameter when
it names the function (as a plain name or an attribute) and passes the
parameter by keyword or reaches its position; a call of a class name counts
for the class's ``__init__``. A call that unpacks ``*args`` or ``**kwargs``
counts as setting every parameter it could reach.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "frustumbox"
CALLERS = [ROOT / "src", ROOT / "tests", ROOT / "demos"]


def defaulted_parameters(package):
    """(module, function, parameter, position) of every parameter with a
    default; position is None for keyword-only ones, and counts from the
    first argument a caller passes (a method's ``self`` or ``cls`` is not)."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        classes = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = classes.get(id(node)) if node.name == "__init__" else node.name
            if name is None:
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            offset = 1 if positional and positional[0].arg in ("self", "cls") else 0
            first_default = len(positional) - len(args.defaults)
            found += [(path.stem, name, a.arg, i - offset)
                      for i, a in enumerate(positional) if i >= first_default]
            found += [(path.stem, name, a.arg, None)
                      for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def set_parameters(roots):
    """{function name: (most positional arguments passed, keywords passed)}
    over every call in the files under `roots`; an unpacked ``*args`` counts
    as any number of positions and an unpacked ``**kwargs`` as every keyword."""
    calls = {}
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                if name is None:
                    continue
                most, keywords = calls.get(name, (0, set()))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                most = max(most, float("inf") if starred else len(node.args))
                keywords = keywords | {k.arg for k in node.keywords}
                calls[name] = (most, keywords)
    return calls


def unset_defaults(package, roots):
    """(module, function, parameter) of each default no call overrides."""
    calls = set_parameters(roots)
    unset = []
    for module, function, param, position in defaulted_parameters(package):
        most, keywords = calls.get(function, (0, set()))
        by_position = position is not None and most > position
        if not (by_position or param in keywords or None in keywords):
            unset.append((module, function, param))
    return unset


def test_every_default_is_set_by_some_call():
    assert unset_defaults(PACKAGE, CALLERS) == []
