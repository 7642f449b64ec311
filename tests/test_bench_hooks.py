"""Every daylux name the benchmark's tracer wraps still exists.

The tracer replaces these names by attribute lookup, so a renamed or deleted
one breaks each traced benchmark operation.  bench/tracing.py is only read
here, never imported as a package module.
"""

import importlib
import runpy
from pathlib import Path

TRACING = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "tracing.py"))


def test_every_traced_name_exists_in_daylux():
    targets = [
        (module, name)
        for group in (TRACING["TIMED"], TRACING["COUNTED"])
        for module, names in group.items()
        for name in names
    ]
    assert len(targets) > 20
    missing = [
        f"{module}.{name}"
        for module, name in targets
        if not callable(getattr(importlib.import_module(f"daylux.{module}"), name, None))
    ]
    for module, cls, method in TRACING["TIMED_METHODS"]:
        owner = getattr(importlib.import_module(f"daylux.{module}"), cls, None)
        if not callable(getattr(owner, method, None)):
            missing.append(f"{module}.{cls}.{method}")
    assert missing == []
