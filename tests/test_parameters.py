"""Every parameter of every package function is read by that function.

The companion of ``test_imports.py``: a parameter that nothing reads is a
setting a caller can pass with no effect. A method's ``self`` or ``cls``
counts as read; a nested function's reads count for its enclosing one.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "frustumbox"


def unread_parameters(path):
    """(line, function, parameter) of each parameter `path` never reads."""
    tree = ast.parse(path.read_text())
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [(node.lineno, name, p) for p in params
                   if p not in read and p not in ("self", "cls")]
    return unread


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path) == []
