"""The benchmark's traced mode wraps package functions by owner and name.

A rename under `src/` that leaves one of those names unresolved would crash
`perfbench/run.py --trace 1`; this test catches it in the suite instead.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing._targets()
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets
               if not hasattr(owner, attr)]
    assert not missing, f"traced names that no longer resolve: {missing}"
