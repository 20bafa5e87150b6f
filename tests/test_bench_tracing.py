"""The benchmark's tracer finds the package's call boundaries by name.

``bench/tracing.py`` wraps each ``(owner, attribute)`` it lists, looked up in
``owner.__dict__``; a name the package stops binding would make a traced
benchmark run fail with ``KeyError``.  The file is read, not imported as a
module, so nothing is written beside it.
"""

from __future__ import annotations

import types
from pathlib import Path

import bellbound

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_attribute_is_bound():
    tracing = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    attributes = tracing.traced_attributes(bellbound)
    assert len(attributes) > 20
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in attributes if attr not in owner.__dict__]
    assert missing == []
