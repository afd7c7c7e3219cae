"""Every module attribute the benchmark's tracer wraps must exist.

``perfbench/tracer.py`` reaches each layer through module attributes (see
``SPANS`` and ``COUNTERS`` there) and marks a metric absent when one is
missing, so renaming or deleting a function silently drops a benchmark
metric.  The tracer is loaded from its file, without the benchmark's own
test setup, and only read.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _tracer()
    targets = [t for wrapped, _, _ in tracer.SPANS.values() for t in wrapped]
    targets += [t for wrapped in tracer.COUNTERS.values() for t in wrapped]
    assert len(targets) > 20
    missing = []
    for target in targets:
        module, attr = target.split(".")
        if not callable(getattr(importlib.import_module(f"semcheck.{module}"), attr, None)):
            missing.append(target)
    assert missing == []
