"""The benchmark's traced run wraps library calls by name.

``perfbench/tracing.py`` lists the public calls it times (``WRAPPED``);
a refactor that renames or moves one silently drops its spans.  This
imports the tracer read-only and checks every entry still resolves.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrapped_call_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.Tracer().missing == []
