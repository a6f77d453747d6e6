"""Exit categories: one exception class each, all in ``errors.py``, and the
codes ``frustumbox`` exits with are the README's.

Like ``test_callers.py`` this stands in for a lint tool: a class in any
other module whose bases name an exception fails here, except
``train.NonFiniteLoss``, the one failure other code catches by name.
"""

import ast
import re
from pathlib import Path

import pytest

from frustumbox import errors
from frustumbox.cli import _classify
from frustumbox.train import NonFiniteLoss

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "frustumbox"
ALLOWED = {("errors", cls.__name__) for cls in errors.CATEGORIES} | {("train", "NonFiniteLoss")}


def exception_classes(package):
    """(module, name) of each class whose bases name an exception: a base
    ending in Error or Exception, or another such class of the package."""
    found, names = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)
                         for b in node.bases}
                if any(b and (b.endswith(("Error", "Exception")) or b in names)
                       for b in bases):
                    found.append((path.stem, node.name))
                    names.add(node.name)
    return found


def readme_exit_codes():
    """{category: code} from the README's exit-code paragraph."""
    text = (ROOT / "README.md").read_text()
    match = re.search(r"category-specific codes \(([^)]*)\)", " ".join(text.split()))
    return {cat: int(code) for cat, code in re.findall(r"(\w+)=(\d+)", match.group(1))}


def test_exception_classes_live_in_errors_module():
    assert set(exception_classes(PACKAGE)) == ALLOWED


def test_non_finite_loss_is_numeric():
    assert issubclass(NonFiniteLoss, errors.NumericError)


@pytest.mark.parametrize("cls", errors.CATEGORIES, ids=lambda c: c.__name__)
def test_category_exit_code_is_the_readmes(cls):
    category, code = _classify(cls("message"))
    assert readme_exit_codes()[category] == code


def test_readme_categories_all_have_a_class():
    classes = {cls.category for cls in errors.CATEGORIES}
    assert set(readme_exit_codes()) == classes | {"io"}
    assert _classify(FileNotFoundError("x")) == ("io", readme_exit_codes()["io"])


@pytest.mark.parametrize("err", [ValueError("x"), KeyError("x"), ZeroDivisionError("x")],
                         ids=lambda e: type(e).__name__)
def test_anything_else_is_internal(err):
    assert _classify(err) == ("internal", 1)
