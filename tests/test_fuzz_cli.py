"""The CLI's exit contract on mutated fixtures: exit 0, 1 or 2, at most one
JSON document on stdout, and no traceback or exception class name on stderr.

Mutations never raise a header's state count to a value a list could hold,
so nothing here allocates per declared state; such inputs run only in the
address-space-limited children of ``tests/test_cli.py``."""

from __future__ import annotations

import builtins
import json
import random
import re
import sys

import pytest

from semcheck import SEMANTICS
from semcheck.cli import main

from conftest import FIXTURES

MUTATIONS_PER_FIXTURE = 168
CAP = "5000"   # bounds every exponential stage of a mutated system
LONG = "1" + "0" * 5000   # more digits than int() converts by default
TOKENS = ("tau", "٣", "²", "0/0", "1/0", "3/2", "0.5", "007", LONG)
ALPHABETS = ("alphabet", "alphabet a a", "alphabet tau", "alphabet b",
             "alphabet a b c d e", "alphabet ²", "alphabet a-b")
SEMCHECK_ERRORS = ("FormatError", "CapExceeded", "VariantMismatch")


def _commands(kind):
    """Every command a fixture of ``kind`` runs under, before its file and
    state arguments."""
    if kind == "gps":
        return [("gps-equiv", "--sem", sem)
                for sem in ("g_trace", "g_mtrace", "g_ready", "g_failure", "g_mfailure")]
    return ([("equiv", "--sem", sem, "--algo", algo, "--cap", CAP)
             for sem in SEMANTICS for algo in ("naive", "hkc", "brzozowski")]
            + [("preorder", "--sem", sem, "--cap", CAP) for sem in ("may", "must")]
            + [("minimize", "--sem", sem, "--cap", CAP) for sem in SEMANTICS])


def _header(lines):
    """The line index and tokens of the first content line."""
    for i, raw in enumerate(lines):
        toks = raw.split("#", 1)[0].split()
        if toks:
            return i, toks
    return None, []


def _state_count(lines):
    """The header's state count, where it is one a list could hold."""
    _, toks = _header(lines)
    if len(toks) == 2 and toks[0] in ("lts", "gps") and toks[1].isdecimal() \
            and len(toks[1]) < 20 and int(toks[1]) <= sys.maxsize:
        return int(toks[1])
    return None


def _mutate(text, rng):
    """One seeded mutation: truncate, duplicate or delete a line, swap two
    tokens, replace a token or rewrite the alphabet line.  The header's count
    is never swapped, nor replaced by a numeral a list could index."""
    lines = text.splitlines()
    op = rng.randrange(6)
    if op == 0:
        return text[: rng.randrange(len(text))]
    if op == 1:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
    elif op == 2:
        del lines[rng.randrange(len(lines))]
    elif op == 3:
        count = (_header(lines)[0], 1)
        spots = [(i, j) for i, line in enumerate(lines) if not line.startswith("#")
                 for j in range(len(line.split())) if (i, j) != count]
        (i, j), (k, m) = rng.choice(spots), rng.choice(spots)
        toks = [line.split() for line in lines]
        toks[i][j], toks[k][m] = toks[k][m], toks[i][j]
        lines[i], lines[k] = " ".join(toks[i]), " ".join(toks[k])
    elif op == 4:
        spots = [(i, j) for i, line in enumerate(lines) if not line.startswith("#")
                 for j in range(len(line.split()))]
        i, j = rng.choice(spots)
        toks = lines[i].split()
        counts = (i, j) == (_header(lines)[0], 1)
        toks[j] = rng.choice([t for t in TOKENS if not counts or t in ("tau", "0.5", LONG)])
        lines[i] = " ".join(toks)
    else:
        lines = [rng.choice(ALPHABETS) if line.startswith("alphabet") else line
                 for line in lines]
    return "\n".join(lines) + "\n"


def _state_args(text):
    """State arguments for a fixture: indices, a set, and its first names."""
    args = ["0", "1", "0,1"]
    for raw in text.splitlines():
        toks = raw.split()
        if toks and toks[0] == "names":
            args += toks[1:3]
    return args


def _is_exception_name(name):
    cls = getattr(builtins, name, None)
    return name in SEMCHECK_ERRORS or (isinstance(cls, type) and issubclass(cls, BaseException))


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.lts")))
def test_mutated_fixtures_keep_the_exit_contract(fixture, tmp_path, capsys):
    text = (FIXTURES / fixture).read_text()
    lines = text.splitlines()
    kind, count = _header(lines)[1][0], _state_count(lines)
    commands, args = _commands(kind), _state_args(text)
    rng = random.Random(fixture)
    path = tmp_path / fixture
    for n in range(MUTATIONS_PER_FIXTURE):
        mutated = _mutate(text, rng)
        assert (_state_count(mutated.splitlines()) or 0) <= count, mutated
        path.write_text(mutated, encoding="utf-8")
        command = commands[n % len(commands)]
        if command[0] == "minimize":
            argv = [*command, "--init", rng.choice(args), str(path)]
        else:
            argv = [*command, str(path), rng.choice(args), rng.choice(args)]
        code = main(argv)
        out, err = capsys.readouterr()
        where = (fixture, n, command, mutated[:300])
        assert code in (0, 1, 2), where
        if out:
            json.loads(out)   # one JSON document, nothing after it
        assert "Traceback" not in err, where
        for line in err.splitlines():
            named = re.match(r"semcheck: error: (\w+):", line)
            assert not (named and _is_exception_name(named.group(1))), (where, line)
