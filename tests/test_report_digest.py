"""Regression guard for the CLI's equivalence and preorder reports.

Runs ``equiv --algo naive|hkc`` and ``preorder --sem may|must`` over a fixed
set of files and reduces every report, with its ``time_ms`` dropped, to one
text whose sha256 is pinned.  The files cover the interleave and cycles
families, divergent τ-systems under must (so TOP shows in witnesses), texts
with and without a ``names`` line, and equal and unequal verdicts, so any
change to a relation, a witness's rendering, a pair count or a
counterexample shows up here.
"""

from __future__ import annotations

import hashlib
import json

from semcheck import TAU, Lts, disjoint_union, format_lts, gen_cycles, gen_interleave
from semcheck.cli import main

PINNED_SHA256 = "f17c8866d0879cf0def96cab238578ccff6ce6b3a83d4bde058c562df48d616f"


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


def _report_lines(tmp_path, capsys):
    for i, (text, queries) in enumerate(_cases()):
        path = tmp_path / f"case{i}.lts"
        path.write_text(text)
        for algo, sem, left, right in queries:
            if algo == "preorder":
                argv = ["preorder", "--sem", sem, str(path), left, right]
            else:
                argv = ["equiv", "--sem", sem, "--algo", algo, str(path), left, right]
            code = main(argv)
            report = json.loads(capsys.readouterr().out)
            del report["stats"]["time_ms"]
            yield code, f"{i} {' '.join(argv[:-3])} {left} {right} {code} " + json.dumps(
                report, sort_keys=True)


def test_cli_reports_match_pinned_digest(tmp_path, capsys):
    codes, lines = zip(*_report_lines(tmp_path, capsys))
    text = "\n".join(lines)
    # the corpus holds both verdicts and TOP in a witness
    assert set(codes) == {0, 1}
    assert '"TOP"' in text
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256
