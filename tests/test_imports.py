"""Every name a module imports is used in that module, and importing the
package stays cheap.

A deletion that leaves an import behind fails here.  An import kept only so
that the benchmark's tracer can count calls through the module's attribute
carries ``# noqa: F401`` on its own line, and is exempt.  The package's
``__init__.py`` imports to re-export, so it is not checked.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "semcheck"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """``(line, name)`` of each imported name the module never reads, unless
    the line it is imported on says ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    out.append((alias.lineno, name))
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = ("from x import (\n    a,\n    b,  # noqa: F401\n    c,\n)\n"
              "import d.e\nimport f as g\n\nprint(a, d)\n")
    assert unused_imports(source) == [(4, "c"), (7, "g")]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Each query is a fresh ``semcheck`` process, so each pays this import.
    ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``,
    and each decorated class execs generated source."""
    probe = ("import sys\nbefore = set(sys.modules)\nimport semcheck, semcheck.cli\n"
             "print(*sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), check=True)
    assert out.stdout.split() == []
