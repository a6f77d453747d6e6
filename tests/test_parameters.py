"""Every parameter of every package function is read by that function.

The companion of ``test_imports.py``: a parameter that nothing reads is a
setting a caller can pass with no effect. The first parameter of a method
(a function defined directly in a class body, not a staticmethod), its
``self`` or ``cls``, counts as read; a nested function's reads count for its
enclosing one.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "frustumbox"


def unread_parameters(path):
    """(line, function, parameter) of each parameter `path` never reads."""
    tree = ast.parse(path.read_text())
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
               if not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                          for d in getattr(f, "decorator_list", ()))}
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params = params[1:] if id(node) in methods else params
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [(node.lineno, name, p) for p in params if p not in read]
    return unread


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path) == []


def test_unread_cls_of_a_module_function_is_flagged(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "def f(cls, x):\n    return x\n"
        "class C:\n"
        "    def g(self, n):\n        return n\n"
        "    @classmethod\n    def h(cls, n):\n        return n\n"
        "    @staticmethod\n    def s(self, n):\n        return n\n")
    assert unread_parameters(path) == [(1, "f", "cls"), (10, "s", "self")]
