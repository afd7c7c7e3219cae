"""Regression guard for the CLI's equivalence and preorder reports.

Runs ``equiv --algo naive|hkc`` and ``preorder --sem may|must`` over a fixed
set of files and reduces every report, with its ``time_ms`` dropped, to one
text whose sha256 is pinned.  The files cover the interleave and cycles
families, divergent τ-systems under must (so TOP shows in witnesses), texts
with and without a ``names`` line, and equal and unequal verdicts, so any
change to a relation, a witness's rendering, a pair count or a
counterexample shows up here.

A second digest pins the raw stdout bytes, ``time_ms`` masked, of the same
queries plus ``minimize`` (pair labels such as ``<a,{b}>``) and
``gps-equiv`` reports (a counterexample, and ``[]`` for a pair whose start
vectors differ).  The first digest re-dumps each parsed report with sorted
keys, so only the second pins the layout and the key order.
"""

from __future__ import annotations

import hashlib
import json
import re

from semcheck import TAU, Lts, disjoint_union, format_lts, gen_cycles, gen_interleave
from semcheck.cli import main

from conftest import FIXTURES

PINNED_SHA256 = "f17c8866d0879cf0def96cab238578ccff6ce6b3a83d4bde058c562df48d616f"
RAW_SHA256 = "fc49bc76ee978bb379b5f343731d5878f4e1a0a901ad7436957762ee5b6a0d48"


def _numbered(lts: Lts) -> Lts:
    return Lts(lts.n_states, lts.alphabet, lts.transitions, lts.finals, None)


def _loop(names) -> Lts:
    return Lts(1, ("a",), {(0, "a"): frozenset({0})}, None, names)


def _tau_ladder(n: int, names: bool) -> Lts:
    """A τ-ladder of ``n`` rungs with a visible ``a`` off every rung and a
    τ-loop at the top, next to a one-state a-loop with a divergent b-exit."""
    t = {}
    for i in range(n):
        t[(i, TAU)] = frozenset({i + 1})
        t[(i, "a")] = frozenset({(i + 2) % (n + 1)})
    t[(n, TAU)] = frozenset({n})
    t[(n, "b")] = frozenset({0})
    t[(n + 1, "a")] = frozenset({n + 1})
    t[(n + 1, "b")] = frozenset({n + 2})
    t[(n + 2, TAU)] = frozenset({n + 2})
    state_names = [f"r{i}" for i in range(n + 1)] + ["y", "y1"]
    return Lts(n + 3, ("a", "b"), t, None, tuple(state_names) if names else None)


def _cases():
    """(file text, [(subcommand, semantics, left, right)])"""
    both = ("naive", "hkc")
    inter = gen_interleave(5)
    yield format_lts(inter), [
        *((a, s, "x", "y") for a in both for s in ("must", "trace", "may", "failure")),
        *(("preorder", s, l, r) for s in ("may", "must") for l, r in (("x", "y"), ("y", "x"))),
        *((a, "ready", "x,x1", "y") for a in both),
    ]
    x, y = inter.resolve_state("x"), inter.resolve_state("y")
    yield format_lts(_numbered(inter)), [
        *((a, s, str(x), str(y)) for a in both for s in ("must", "may")),
        *(("preorder", s, str(x), str(y)) for s in ("may", "must")),
    ]
    cyc = gen_cycles(5)
    starts = ",".join(f"c{k}_0" for k in range(1, 6))
    yield format_lts(disjoint_union(cyc, _loop(("loop",)))), [
        *((a, s, starts, "loop") for a in both for s in ("trace", "ready", "must")),
        *((a, "failure", "c3_0,c5_1", "c2_1") for a in both),
        *(("preorder", s, "c4_0", "loop") for s in ("may", "must")),
    ]
    n = gen_cycles(4).n_states
    yield format_lts(_numbered(disjoint_union(gen_cycles(4), _loop(("l",))))), [
        *((a, s, "0,1,3,6", str(n)) for a in both for s in ("trace", "must")),
        *(("preorder", s, "3", str(n)) for s in ("may", "must")),
    ]
    for names in (True, False):
        ladder = _tau_ladder(4, names)
        r0, y = ("r0", "y") if names else ("0", "5")
        r4, y1 = ("r4", "y1") if names else ("4", "6")
        yield format_lts(ladder), [
            *((a, "must", l, r) for a in both
              for l, r in ((r0, y), (r4, y), (y1, r4), (f"{r0},{r4}", y))),
            *((a, s, r0, y) for a in both for s in ("may", "failure")),
            *(("preorder", s, l, r) for s in ("may", "must")
              for l, r in ((r0, y), (y, r0), (r4, y1), (y1, r4))),
        ]


def _queries(tmp_path):
    """Each query of ``_cases`` as a head line (its case number and argv
    without the path) and its argv."""
    for i, (text, queries) in enumerate(_cases()):
        path = tmp_path / f"case{i}.lts"
        path.write_text(text)
        for algo, sem, left, right in queries:
            if algo == "preorder":
                argv = ["preorder", "--sem", sem, str(path), left, right]
            else:
                argv = ["equiv", "--sem", sem, "--algo", algo, str(path), left, right]
            yield f"{i} {' '.join(argv[:-3])} {left} {right}", argv


def _more_queries(tmp_path):
    """``minimize`` and ``gps-equiv`` queries as ``_queries`` gives them,
    with the file's name in the head line."""
    for sem, init, name in (("rtrace", "p0", "rtrace-pq"), ("must", "x1", "brz-must"),
                            ("failure", "p0,q0", "fail-pq"), ("trace", "w0", "ct-w")):
        argv = ["minimize", "--sem", sem, "--init", init, str(FIXTURES / f"{name}.lts")]
        yield f"{name} {' '.join(argv[:-1])}", argv
    cycles = tmp_path / "cycles.lts"
    cycles.write_text(format_lts(gen_cycles(4)))
    argv = ["minimize", "--sem", "ready", "--init", "0,1,3,6", str(cycles)]
    yield f"cycles {' '.join(argv[:-1])}", argv
    cex = tmp_path / "cex.gps"
    # 0 and 2 differ after a b; 0 and 1 already differ at their start vectors
    cex.write_text("gps 4\nalphabet a b\n0 a 1/2 1\n1 b 1/2 1\n2 a 1/2 3\n3 b 1/3 3\n")
    for path, sem, left, right in (
            *((FIXTURES / "gps-pu.lts", g, "p", "u") for g in ("g_ready", "g_trace", "g_mtrace")),
            (cex, "g_ready", "0", "2"), (cex, "g_ready", "0", "1"),
            (cex, "g_trace", "0", "2"), (cex, "g_failure", "3", "1")):
        yield (f"{path.stem} gps-equiv --sem {sem} {left} {right}",
               ["gps-equiv", "--sem", sem, str(path), left, right])


def _report_lines(tmp_path, capsys):
    for head, argv in _queries(tmp_path):
        code = main(argv)
        report = json.loads(capsys.readouterr().out)
        del report["stats"]["time_ms"]
        yield code, f"{head} {code} " + json.dumps(report, sort_keys=True)


def test_cli_reports_match_pinned_digest(tmp_path, capsys):
    codes, lines = zip(*_report_lines(tmp_path, capsys))
    text = "\n".join(lines)
    # the corpus holds both verdicts and TOP in a witness
    assert set(codes) == {0, 1}
    assert '"TOP"' in text
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256


def test_cli_stdout_bytes_match_pinned_digest(tmp_path, capsysbinary):
    queries = [*_queries(tmp_path), *_more_queries(tmp_path)]
    chunks = []
    for head, argv in queries:
        code = main(argv)
        out = re.sub(rb'"time_ms": [0-9.e+-]+', b'"time_ms": 0', capsysbinary.readouterr().out)
        chunks.append(f"{head} {code}\n".encode() + out)
    raw = b"".join(chunks)
    assert raw.count(b'"time_ms": 0\n') == len(queries)
    # minimize's pair labels, a GPS counterexample and an empty one
    for shown in (b'"<a,{a}>": 1', b'"counterexample": [\n    "a",\n    "b"\n  ]',
                  b'"counterexample": []'):
        assert shown in raw
    assert hashlib.sha256(raw).hexdigest() == RAW_SHA256
