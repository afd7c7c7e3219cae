"""The benchmark's own checks: seeded inputs, failing references, tracing.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import references
import run
import tracer as tracing
import workloads

from conftest import BENCH, ROOT


def _files(directory: Path):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _profile(corpus: workloads.Corpus):
    return {name: (s.n, len(s.edges)) for name, s in corpus.systems.items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes_other_seed_same_profile(workload, tmp_path):
    corpus = workloads.build_corpus(workload)
    assert workloads.build_corpus(workload).digest() == corpus.digest()
    corpus.write(tmp_path / "a", 7)
    corpus.write(tmp_path / "b", 7)
    corpus.write(tmp_path / "c", 8)
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c
    again = workloads.build_corpus(workload)
    assert _profile(again) == _profile(corpus)


def test_corpus_matches_pinned_digest():
    for workload in workloads.WORKLOADS:
        assert references.load(workload)["digest"] == \
            workloads.build_corpus(workload).digest()


def _runner(workload, tmp_path, seed=3):
    return run.Runner(workload, seed, tmp_path / workload)


def test_pinned_answers_pass(tmp_path):
    r = _runner("cli-small", tmp_path)
    r.run_pass()
    assert r.failed == 0, r.failures
    assert r.attempted == len(r.queries)


def test_corrupted_reference_is_a_failure(tmp_path):
    r = _runner("cli-small", tmp_path)
    flipped = {kind: next(q for q, _ in r.queries if q.argv[0] == kind)
               for kind in ("equiv", "preorder", "gps-equiv", "minimize")}
    for q in flipped.values():
        ref = r.checker.refs[q.qid]
        if "equal" in ref:
            ref["equal"] = not ref["equal"]
        else:
            ref["states"] += 1
    r.run_pass()
    assert r.failed == len(flipped)
    assert {line.split(":")[0] for line in r.failures} == {q.qid for q in flipped.values()}


def test_gps_counterexample_replay_rejects_a_wrong_word(tmp_path):
    r = _runner("gps-dense", tmp_path)
    q, argv = next((q, a) for q, a in r.queries if r.checker.refs[q.qid]["equal"] is False)
    code, stdout = r._call(argv)
    assert r.checker.check(q, code, stdout) is None
    report = json.loads(stdout)
    report["counterexample"] = []  # both states are point masses of mass 1 here
    q_trace = workloads.Query(q.qid, q.system, q.argv[:2] + ["g_trace"] + q.argv[3:])
    assert "does not distinguish" in r.checker.check(q_trace, code, json.dumps(report))


def test_changed_corpus_is_refused(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.CORPUS_SEEDS, "cli-small", 1)
    with pytest.raises(RuntimeError, match="re-pin"):
        _runner("cli-small", tmp_path)


def _answers(runner, tracer=None):
    out = {}
    for q, argv in runner.queries:
        if tracer is None:
            code, stdout = runner._call(argv)
        else:
            code, stdout = tracer.query(q.qid, lambda: runner._call(argv))
        report = json.loads(stdout)
        report.pop("stats")
        out[q.qid] = (code, report)
    return out


def test_wrappers_leave_answers_unchanged_and_are_removed(tmp_path):
    from semcheck import brzozowski, cli, hkc
    originals = (cli.hkc_check, hkc.saturate, brzozowski.explicit_reversal)
    r = _runner("cli-small", tmp_path)
    plain = _answers(r)
    t = tracing.Tracer()
    t.install()
    try:
        traced = _answers(r, t)
    finally:
        t.uninstall()
    assert traced == plain
    assert (cli.hkc_check, hkc.saturate, brzozowski.explicit_reversal) == originals
    layers = t.take_pass()
    assert not t.absent
    assert layers["hkc.saturate_calls"] > 0 and layers["brzozowski.pass1_states"] > 0
    assert layers["cli.self_ms"] > 0 and layers["lts.parse_ms"] > 0
    assert {s[3] for s in t.spans} >= {"cli", "lts.parse", "decorations.decorate"}
    assert all(s[6] >= 0 for s in t.spans)


def test_missing_target_is_absent_not_fatal(tmp_path, monkeypatch):
    monkeypatch.setitem(tracing.COUNTERS, "hkc.saturate_calls", ("hkc.no_such_function",))
    monkeypatch.setitem(tracing.SPANS, "gps.equiv",
                        (("nosuchmodule.gps_equiv",), None, ("gps.equiv_ms",)))
    r = _runner("cli-small", tmp_path)
    t = tracing.Tracer()
    t.install()
    try:
        r.run_pass(t)
    finally:
        t.uninstall()
    layers = t.take_pass()
    assert r.failed == 0
    assert "hkc.saturate_calls" not in layers and "gps.equiv_ms" not in layers
    assert layers["hkc.pairs_processed"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "families",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
