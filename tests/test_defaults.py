"""Every defaulted parameter of a package function is set by some call, and
not only to its own default, and left at its default by some other call.

The companion of ``test_parameters.py``: a default that no caller ever
overrides is a constant written as a setting, and so is one that every call
setting it passes as the default's own literal. Either belongs in the body,
or as a module constant beside the function. A default that every call
overrides is a required parameter written as an optional one. Like
``test_callers.py`` this stands in for a lint tool and matches by name: a
call sets a parameter when it names the function (as a plain name or an
attribute) and passes the parameter by keyword or reaches its position; a
call of a class name counts for the class's ``__init__``. A call that
unpacks ``*args`` or ``**kwargs`` counts as setting every parameter it could
reach to a value that is not the default.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "frustumbox"
CALLERS = [ROOT / "src", ROOT / "tests", ROOT / "demos"]


def defaulted_parameters(package):
    """(module, function, parameter, position, default) of every parameter
    with a default; position is None for keyword-only ones, and counts from
    the first argument a caller passes (a method's ``self`` or ``cls`` is
    not, a module function's first parameter is, whatever its name);
    default is the default's expression."""
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
            offset = 1 if id(node) in classes and not is_static(node) else 0
            first_default = len(positional) - len(args.defaults)
            found += [(path.stem, name, a.arg, i - offset, args.defaults[i - first_default])
                      for i, a in enumerate(positional) if i >= first_default]
            found += [(path.stem, name, a.arg, None, d)
                      for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def is_static(function):
    """Whether a function defined in a class body is a staticmethod, whose
    first parameter is an argument a caller passes."""
    return any(isinstance(d, ast.Name) and d.id == "staticmethod"
               for d in function.decorator_list)


def calls_by_name(roots):
    """{function name: [call node]} over every call in the files under `roots`."""
    calls = {}
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                if name is not None:
                    calls.setdefault(name, []).append(node)
    return calls


UNPACKED = object()  # an unpacked *args or **kwargs that may reach the parameter


def passed(call, param, position):
    """The expression `call` passes for a parameter, UNPACKED, or None when
    the call leaves the parameter at its default."""
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            if position is not None:
                return UNPACKED
            break
        if i == position:
            return arg
    for k in call.keywords:
        if k.arg == param:
            return k.value
    if any(k.arg is None for k in call.keywords):
        return UNPACKED
    return None


def literal(node):
    """(type, value) of a literal expression, or None for any other."""
    if node is UNPACKED:
        return None
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError):
        return None
    return type(value), value


def default_settings(package, roots):
    """(module, function, parameter, default, [what each call passes, None
    where it leaves the default]) of every defaulted parameter."""
    calls = calls_by_name(roots)
    return [(module, function, param, default,
             [passed(call, param, position) for call in calls.get(function, [])])
            for module, function, param, position, default in defaulted_parameters(package)]


def unset_defaults(package, roots):
    """(module, function, parameter) of each default no call overrides."""
    return [(module, function, param)
            for module, function, param, _, values in default_settings(package, roots)
            if all(v is None for v in values)]


def restated_defaults(package, roots):
    """(module, function, parameter) of each default that every call setting
    it passes as the default's own literal."""
    restated = []
    for module, function, param, default, values in default_settings(package, roots):
        own, values = literal(default), [v for v in values if v is not None]
        if values and own is not None and all(literal(v) == own for v in values):
            restated.append((module, function, param))
    return restated


def required_defaults(package, roots):
    """(module, function, parameter) of each default that no call omits."""
    return [(module, function, param)
            for module, function, param, _, values in default_settings(package, roots)
            if None not in values]


def test_every_default_is_set_by_some_call():
    assert unset_defaults(PACKAGE, CALLERS) == []


def test_no_default_is_only_restated():
    assert restated_defaults(PACKAGE, CALLERS) == []


def test_every_default_is_omitted_by_some_call():
    assert required_defaults(PACKAGE, CALLERS) == []


def test_restated_default_is_flagged(tmp_path):
    package, callers = tmp_path / "pkg", tmp_path / "callers"
    package.mkdir()
    callers.mkdir()
    (package / "m.py").write_text(
        "def f(x, strict=True, axis=-1, scale=1.0):\n    return x\n")
    (callers / "c.py").write_text(
        "f(1, True, axis=-1)\nf(2, strict=True, scale=s)\nf(3, *rest)\n")
    assert restated_defaults(package, [callers]) == []  # *rest may pass anything
    (callers / "c.py").write_text("f(1, True, axis=-1)\nf(2, strict=True, scale=s)\n")
    assert restated_defaults(package, [callers]) == [("m", "f", "strict"), ("m", "f", "axis")]
    # a module function's first parameter is one a caller passes, even named cls
    (package / "m.py").write_text("def f(cls, strict=True):\n    return cls\n")
    (callers / "c.py").write_text('f("Car", True)\n')
    assert restated_defaults(package, [callers]) == [("m", "f", "strict")]


def test_required_default_is_flagged(tmp_path):
    package, callers = tmp_path / "pkg", tmp_path / "callers"
    package.mkdir()
    callers.mkdir()
    (package / "m.py").write_text(
        "def f(x, axis=0, scale=1.0):\n    return x\n"
        "class C:\n    def g(self, n=1):\n        return n\n")
    (callers / "c.py").write_text("f(1, 1, scale=s)\nf(2, axis=2)\nC().g(3)\nc.g(n=4)\n")
    assert required_defaults(package, [callers]) == [("m", "f", "axis"), ("m", "g", "n")]
    (callers / "c.py").write_text("f(1, 1, scale=s)\nf(2)\nc.g(*args)\nc.g()\n")
    assert required_defaults(package, [callers]) == []
