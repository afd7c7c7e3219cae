"""Every module attribute the benchmark's tracer wraps must exist, and the
CLI must reach each span through it.

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

from semcheck import cli

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


def test_every_cli_call_site_records_its_span(capsys):
    """A wrapped name that is still imported but no longer called (say, a
    call moved out of ``cli``) makes its traced metrics read 0, not absent,
    so each span must be recorded by a real query through ``cli.main``."""
    tracer = _tracer().Tracer()
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    must, ct, brz, gps = (str(fixtures / f"{n}.lts")
                          for n in ("must-xy", "ct-w", "brz-must", "gps-pu"))
    queries = [
        ["equiv", "--sem", "must", "--algo", "naive", must, "x", "y"],
        ["equiv", "--sem", "must", "--algo", "hkc", must, "x", "y"],
        ["equiv", "--sem", "must", "--algo", "brzozowski", must, "x", "y"],
        ["preorder", "--sem", "may", ct, "w0", "w1"],
        ["minimize", "--sem", "must", "--init", "x1", brz],
        ["gps-equiv", "--sem", "g_mfailure", gps, "p", "u"],
    ]
    tracer.install()
    try:
        codes = [tracer.query(str(i), lambda: cli.main(argv))
                 for i, argv in enumerate(queries)]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0, 0, 1, 0, 0]
    recorded = {span[3] for span in tracer.spans}
    assert recorded >= {"lts.parse", "decorations.decorate", "moore.naive", "hkc.check",
                        "brzozowski.pass1", "brzozowski.pass2", "brzozowski.iso",
                        "gps.equiv"}
    assert tracer.absent == set()
