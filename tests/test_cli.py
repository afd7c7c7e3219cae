"""Command-line interface: exit codes, JSON reports, stdin handling."""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import random
import re
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import semcheck
from semcheck import (DEFAULT_CAP, GPS_SEMANTICS, SEMANTICS, cli, disjoint_union, format_lts,
                      parse_gps, parse_lts)
from semcheck.cli import main

from conftest import FIXTURES, cycles_left, kth_lts, perm2r_lts

REPO = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip().startswith("{") else captured.out
    return code, payload, captured.err


def fx(name: str) -> str:
    return str(FIXTURES / f"{name}.lts")


# -- equiv -------------------------------------------------------------------


def test_equiv_holds_exit_zero(capsys):
    code, payload, err = run_cli(
        capsys, "equiv", "--sem", "must", "--algo", "hkc", fx("must-xy"), "x", "y")
    assert code == 0
    assert payload["schema"] == 1
    assert payload["result"] is True
    assert payload["stats"]["pairs"] == 2
    assert payload["witness"][0] == ["{x}", "{y}"]
    assert "equivalent" in err


def test_equiv_fails_exit_one_with_counterexample(capsys):
    code, payload, err = run_cli(
        capsys, "equiv", "--sem", "ctrace", "--algo", "naive", fx("ct-w"), "w0", "w0p")
    assert code == 1
    assert payload["result"] is False
    assert payload["counterexample"] == ["a"]
    assert "not equivalent" in err


def test_equiv_accepts_state_sets_and_indices(capsys):
    code, payload, _ = run_cli(
        capsys, "equiv", "--sem", "failure", "--algo", "brzozowski",
        fx("fail-pq"), "0", "11")
    assert code == 0
    assert payload["algorithm"] == "brzozowski"
    assert payload["stats"]["states"] is not None


def test_equiv_of_a_set_with_itself_keeps_an_empty_witness(capsys):
    # hkc relates a set to itself without processing a pair, so its relation
    # is empty but present: the report keeps "witness": [], not no witness
    code, payload, _ = run_cli(
        capsys, "equiv", "--sem", "trace", "--algo", "hkc", fx("must-xy"), "x", "x")
    assert code == 0 and payload["result"] is True
    assert payload["stats"]["pairs"] == 0 and payload["witness"] == []
    code, payload, _ = run_cli(
        capsys, "equiv", "--sem", "trace", "--algo", "naive", fx("must-xy"), "x", "x")
    assert code == 0 and payload["result"] is True
    assert payload["stats"]["pairs"] == 5 and len(payload["witness"]) == 5
    assert payload["witness"][0] == ["{x}", "{x}"]


def test_equiv_renders_pair_label_counterexamples(capsys):
    code, payload, _ = run_cli(
        capsys, "equiv", "--sem", "rtrace", fx("rtrace-pq"), "p0", "q0")
    assert code == 1
    assert all(w.startswith("<") and w.endswith(">")
               for w in payload["counterexample"])


def test_equiv_reads_stdin(capsys, monkeypatch):
    text = (FIXTURES / "eq-automata.lts").read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, payload, _ = run_cli(capsys, "equiv", "--sem", "language", "-", "x", "u")
    assert code == 0
    assert payload["result"] is True



def test_equiv_must_on_long_tau_chain(capsys, tmp_path):
    n = 1000
    lines = [f"lts {n}", "alphabet a b"]
    lines += [f"{i} tau {i + 1}" for i in range(n - 1)]
    lines += [f"{n - 1} a {n - 1}", f"{n - 1} b 0"]
    f = tmp_path / "tau-chain.lts"
    f.write_text("\n".join(lines) + "\n")
    code, payload, _ = run_cli(capsys, "equiv", "--sem", "must", str(f), "0", str(n - 1))
    assert code == 0
    assert payload["result"] is True


@pytest.mark.parametrize("sem", ["may", "must"])
def test_equiv_on_5000_state_tau_chain(capsys, tmp_path, sem):
    # x_0 -tau-> x_1 -tau-> ... -> x_4999, every state with an a-self-loop:
    # x_0 and the last state both weakly offer a forever, and neither
    # diverges.  The tau closures are Theta(n^2) states in total.
    n = 5000
    lines = [f"lts {n}", "alphabet a"]
    lines += [f"{i} tau {i + 1}" for i in range(n - 1)]
    lines += [f"{i} a {i}" for i in range(n)]
    f = tmp_path / "tau-chain-5000.lts"
    f.write_text("\n".join(lines) + "\n")
    code, payload, err = run_cli(capsys, "equiv", "--sem", sem, "--algo", "hkc",
                                 str(f), "0", str(n - 1))
    assert code == 0
    assert payload["result"] is True
    assert f"equivalent under {sem}" in err


def test_equiv_cap_bounds_pfutures_decoration(capsys):
    # the trace classes behind pfutures take 57 forward sets or 11 backward
    # sets here, while hkc needs only 41 pairs; either search alone decides,
    # so the cap sits below both
    code, _, err = run_cli(capsys, "equiv", "--sem", "pfutures", "--cap", "8",
                           fx("pf-pq"), "p0", "q0")
    assert code == 2
    assert "determinisation" in err


def test_equiv_cap_bounds_both_trace_class_searches(capsys, tmp_path):
    # k-th-from-last (k = 20) beside the two-copy permutation system (k = 16):
    # the forward sets blow up on the first, the backward sets on the second
    f = tmp_path / "kth-perm2r.lts"
    f.write_text(format_lts(disjoint_union(kth_lts(20, ("a", "b", "c")), perm2r_lts(16))))
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, "equiv", "--sem", "pfutures", "--cap", "1000",
                           str(f), "0", "1")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "determinisation" in err


def test_equiv_pfutures_on_kth_from_last(tmp_path):
    # kth_lts(20): determinising from the singletons builds more than 2**20
    # sets, past the default cap, while the backward sets number 21.  Run in
    # a child, so a search that does blow up is cut by the timeout.
    f = tmp_path / "kth20.lts"
    f.write_text(format_lts(kth_lts(20)))
    child = ("import sys, time\nfrom semcheck.cli import main\nt0 = time.perf_counter()\n"
             "code = main(sys.argv[1:])\nprint('elapsed_s', time.perf_counter() - t0,"
             " file=sys.stderr)\nsys.exit(code)\n")
    src = str(Path(semcheck.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", child, "equiv", "--sem", "pfutures",
                           str(f), "0", "1"], capture_output=True, text=True, env=env,
                          timeout=30)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["counterexample"] == []
    assert float(proc.stderr.split("elapsed_s")[1]) < 1.0


def test_equiv_pfutures_on_a_2000_state_chain(capsys, tmp_path):
    # 0 -a-> 1 -a-> ... -a-> 1999: states 0 and 1 lie in different trace
    # classes, so their pfutures outputs differ before any step.
    n = 2000
    f = tmp_path / "a-chain.lts"
    f.write_text(f"lts {n}\nalphabet a\n" + "".join(f"{i} a {i + 1}\n" for i in range(n - 1)))
    code, payload, _ = run_cli(capsys, "equiv", "--sem", "pfutures", str(f), "0", "1")
    assert code == 1
    assert payload["result"] is False and payload["counterexample"] == []


def _wide_deadlock(tmp_path, width: int) -> str:
    """Two states over ``width`` labels: state 0 offers l0 into state 1,
    which deadlocks, so state 1 refuses every one of the 2**width subsets."""
    labels = [f"l{i}" for i in range(width)]
    f = tmp_path / f"wide-{width}.lts"
    f.write_text(f"lts 2\nalphabet {' '.join(labels)}\n0 l0 1\n")
    return str(f)


@pytest.mark.parametrize("sem", ["failure", "ftrace", "must", "ready"])
def test_equiv_over_a_64_label_alphabet(capsys, tmp_path, sem):
    # Outputs stay ints over the distinct refusals (or enabled sets), so no
    # refusal family is built; a decoration of explicit families would build
    # 2**64 refusal sets for state 1.
    f = _wide_deadlock(tmp_path, 64)
    t0 = time.perf_counter()
    code, payload, _ = run_cli(capsys, "equiv", "--sem", sem, f, "0", "1")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert payload["result"] is False and payload["counterexample"] == []


def test_cap_bounds_minimize_rendering(capsys, tmp_path):
    # Rendering state 1's failure output builds its 2**16 refusal sets.
    code, out, err = run_cli(capsys, "minimize", "--sem", "failure", "--init", "0",
                             "--cap", "1000", _wide_deadlock(tmp_path, 16))
    assert code == 2 and out == ""
    assert err == ("semcheck: error: output rendering: exceeded cap after "
                   "building 1000 refusal sets\n")


# -- preorder ----------------------------------------------------------------


def test_preorder_may_and_must(capsys):
    code, payload, err = run_cli(
        capsys, "preorder", "--sem", "may", fx("ct-w"), "w1", "w0")
    assert code == 0 and payload["result"] is True
    assert "below" in err

    code, payload, err = run_cli(
        capsys, "preorder", "--sem", "may", fx("ct-w"), "w0", "w1")
    assert code == 1 and payload["result"] is False
    assert "not below" in err

    code, payload, _ = run_cli(
        capsys, "preorder", "--sem", "must", fx("must-xy"), "y1", "y")
    assert code == 0


# -- minimize ----------------------------------------------------------------


def test_minimize_reports_machine(capsys):
    code, payload, err = run_cli(
        capsys, "minimize", "--sem", "must", "--init", "x1", fx("brz-must"))
    assert code == 0
    machine = payload["result"]
    assert machine["states"] == 5
    assert machine["intermediate_states"] == 6
    assert len(machine["outputs"]) == 5
    assert len(machine["steps"]) == 5
    assert "minimal machine: 5 states" in err


def test_minimize_requires_initial_states(capsys):
    code, _, err = run_cli(
        capsys, "minimize", "--sem", "trace", "--init", "", fx("ct-w"))
    assert code == 2
    assert "error" in err


# -- gps-equiv ---------------------------------------------------------------


def test_gps_equiv_all_five(capsys):
    for sem in ("g_ready", "g_failure", "g_mfailure", "g_trace", "g_mtrace"):
        code, payload, _ = run_cli(
            capsys, "gps-equiv", "--sem", sem, fx("gps-pu"), "p", "u")
        assert code == 0 and payload["result"] is True, sem


def test_gps_equiv_with_trace_strengthens(capsys, tmp_path):
    f = tmp_path / "loops.lts"
    f.write_text("gps 2\nalphabet a b\n0 a 1/1 0\n1 b 1/1 1\n")
    code, payload, _ = run_cli(
        capsys, "gps-equiv", "--sem", "g_mtrace", str(f), "0", "1")
    assert code == 0
    code, payload, _ = run_cli(
        capsys, "gps-equiv", "--sem", "g_mtrace", "--with-trace", str(f), "0", "1")
    assert code == 1
    assert payload["counterexample"] == ["a"]


def test_gps_equiv_on_5000_state_chain(tmp_path):
    # Two copies of a 2500-state chain, each state emitting a and b towards
    # the next; x and its copy are equal.  The span search inserts 2500 basis
    # vectors of two entries each: sparse vectors, and a parent index rather
    # than a word per queued vector, keep that small, where dense vectors
    # would queue |A| * n^2 ints.  Memory is read off the child.
    n = 2500
    lines = [f"gps {2 * n}", "alphabet a b"]
    for x in (*range(n - 1), *range(n, 2 * n - 1)):
        lines += [f"{x} a 1/2 {x + 1}", f"{x} b 1/3 {x + 1}"]
    f = tmp_path / "gps-chain-5000.lts"
    f.write_text("\n".join(lines) + "\n")
    child = ("import resource, sys\nfrom semcheck.cli import main\ncode = main(sys.argv[1:])\n"
             "print('maxrss_kb', resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,"
             " file=sys.stderr)\nsys.exit(code)\n")
    src = str(Path(semcheck.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", child, "gps-equiv", "--sem", "g_ready",
                           str(f), "0", str(n)], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"] is True
    assert proc.stderr.startswith("equivalent under g_ready")
    assert int(proc.stderr.split("maxrss_kb")[1]) < 100 * 1024


# -- gen and bench -----------------------------------------------------------


def test_gen_output_parses_and_pipes_to_minimize(capsys, monkeypatch):
    code = main(["gen", "--family", "cycles", "--n", "5"])
    text = capsys.readouterr().out
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, payload, _ = run_cli(
        capsys, "minimize", "--sem", "trace", "--init", "0,1,3,6,10", "-")
    assert code == 0
    assert payload["result"]["states"] == 1


def test_bench_with_spec_file(capsys, tmp_path):
    spec = {
        "cases": [{"file": fx("ct-w"), "left": "w0", "right": "w0p",
                   "name": "ct"}],
        "semantics": ["trace", "ctrace"],
        "algorithms": ["oracle", "hkc"],
    }
    sf = tmp_path / "spec.json"
    sf.write_text(json.dumps(spec))
    out = tmp_path / "report.csv"
    code = main(["bench", "--spec", str(sf), "--format", "csv",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "0 disagreements" in captured.err
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("case,semantics,algorithm")
    assert len(lines) == 1 + 2 * 2


def test_bench_exits_one_on_a_disagreement(capsys, monkeypatch):
    import semcheck.bench as bench

    decide = bench.decide

    def flipped(d, algorithm, *args):
        equal, states, pairs = decide(d, algorithm, *args)
        return (not equal if algorithm == "naive" else equal), states, pairs

    monkeypatch.setattr(bench, "decide", flipped)
    code, payload, err = run_cli(capsys, "bench")
    assert code == 1
    assert len(payload["disagreements"]) == 15   # 3 cases x 5 semantics
    assert "15 disagreements" in err


def _readme_commands():
    """The ``semcheck`` lines of README's command-line usage block, as argv."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command-line usage", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("semcheck ")]


def test_readme_examples_run(capsys, monkeypatch):
    # in process, from the repository root; CI runs the one pipe through
    # the installed script
    monkeypatch.chdir(REPO)
    commands = _readme_commands()
    assert sum("|" in argv for argv in commands) == 1
    for argv in commands:
        if "|" in argv:
            continue
        code = main(argv)
        out = capsys.readouterr().out
        assert code in (0, 1), argv
        if "csv" in argv:
            rows = list(csv.reader(io.StringIO(out)))
            assert code == 0
            assert rows[0] == ["case", "semantics", "algorithm", "equal", "states", "pairs",
                               "time_ms", "error"]
            assert len(rows) == 1 + 60
        else:
            assert json.loads(out)["schema"] == 1, argv


# -- error handling ----------------------------------------------------------


def test_gen_rejects_a_family_size_below_one(capsys):
    for family in ("interleave", "chain", "cycles"):
        code, out, err = run_cli(capsys, "gen", "--family", family, "--n", "0")
        assert (code, out) == (2, ""), family
        assert err == "semcheck: error: n must be positive\n", family


def test_missing_file_is_exit_two(capsys):
    code, _, err = run_cli(capsys, "equiv", "--sem", "trace",
                           "/nonexistent/system.lts", "0", "1")
    assert code == 2
    assert "semcheck: error:" in err


def test_unknown_state_is_exit_two(capsys):
    code, _, err = run_cli(capsys, "equiv", "--sem", "trace", fx("ct-w"),
                           "w0", "zz")
    assert code == 2
    assert "semcheck: error:" in err


def test_state_argument_too_long_for_int_is_unknown(capsys):
    state = "1" + "0" * 5000
    code, out, err = run_cli(capsys, "equiv", "--sem", "trace", fx("ct-w"), "0", state)
    assert (code, out) == (2, "")
    assert err == f"semcheck: error: unknown state {state!r}\n"


def test_malformed_input_is_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.lts"
    bad.write_text("lts 2\nalphabet a\n0 a 7\n")
    code, _, err = run_cli(capsys, "equiv", "--sem", "trace", str(bad), "0", "1")
    assert code == 2
    assert "line 3" in err


def test_comma_in_a_state_name_is_exit_two(capsys, tmp_path):
    bad = tmp_path / "comma.lts"
    bad.write_text("lts 2\nalphabet a\nnames p,q r\n0 a 1\n")
    code, out, err = run_cli(capsys, "equiv", "--sem", "trace", str(bad), "p,q", "r")
    assert (code, out) == (2, "")
    assert err == "semcheck: error: line 3: state name 'p,q' contains ','\n"


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("name, parse, argv", [
    ("must-xy", parse_lts, ["equiv", "--sem", "must", "FILE", "x", "y"]),
    ("rtrace-pq", parse_lts, ["minimize", "--sem", "rtrace", "--init", "p0", "FILE"]),
    ("gps-pu", parse_gps, ["gps-equiv", "--sem", "g_ready", "FILE", "p", "u"]),
], ids=["equiv", "minimize", "gps-equiv"])
def test_crlf_and_cr_texts_read_as_their_lf_text(capsys, tmp_path, newline, name,
                                                 parse, argv):
    # the fixtures hold comment lines, so a comment's line end is read too
    text = (FIXTURES / f"{name}.lts").read_text()
    assert "#" in text and "\r" not in text
    path = tmp_path / f"{name}.lts"
    path.write_bytes(text.replace("\n", newline).encode())
    assert parse(cli._read_source(str(path))) == parse(text)
    lf, other = (_outcome(capsys, lambda: main([file if a == "FILE" else a for a in argv]))
                 for file in (fx(name), str(path)))
    assert lf == other
    assert lf[0] in (("returned", 0), ("returned", 1))


@pytest.mark.parametrize("tail, message", [
    (b"0 a \xff1\n", "can't decode byte 0xff in position 21: invalid start byte"),
    (b"0 a 1\n\xe2\x82", "can't decode bytes in position 23-24: unexpected end of data"),
], ids=["invalid-start", "truncated"])
def test_invalid_utf8_is_exit_two(capsys, tmp_path, tail, message):
    bad = tmp_path / "bad.lts"
    bad.write_bytes(b"lts 2\nalphabet a\n" + tail)
    code, out, err = run_cli(capsys, "equiv", "--sem", "trace", str(bad), "0", "1")
    assert (code, out) == (2, "")
    assert err == f"semcheck: error: 'utf-8' codec {message}\n"


def _limit_address_space():
    gib = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (gib, gib))


@pytest.mark.parametrize("text, argv", [
    ("lts 100000000000000000000\nalphabet a\n0 a 1\n", ["equiv", "--sem", "trace"]),
    ("gps 100000000000000000000\nalphabet a\n0 a 1/2 1\n", ["gps-equiv", "--sem", "g_trace"]),
], ids=["lts", "gps"])
def test_state_count_beyond_any_list_is_exit_two(text, argv):
    # A child process under a 1 GiB address-space limit: a parser that
    # allocated by the declared count would fail there, not exhaust the host.
    src = str(Path(semcheck.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = "import sys\nfrom semcheck.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    proc = subprocess.run([sys.executable, "-c", child, *argv, "-", "0", "1"], input=text,
                          capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=_limit_address_space)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"semcheck: error: line 1: more than {sys.maxsize} states\n"


def test_parse_allocates_by_the_text_not_the_declared_count():
    # A child process under a 1 GiB address-space limit: a hundred million
    # declared states, one named edge.
    src = str(Path(semcheck.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = ("from semcheck import parse_lts\n"
             "lts = parse_lts('lts 100000000\\nalphabet a\\n0 a 1\\n')\n"
             "assert lts.successors(0, 'a') == {1}\n")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=env, timeout=60, preexec_fn=_limit_address_space)
    assert (proc.returncode, proc.stderr) == (0, "")


_MALFORMED_SPECS = [
    ({"cases": 5}, "bench spec 'cases' must be a list of objects"),
    ([1, 2], "bench spec must be a JSON object"),
    ({"cases": [{"file": fx("ct-w"), "left": "w0", "right": "w0p"}], "cap": "big"},
     "bench spec 'cap' must be a positive integer"),
    ({"cases": [{"file": 3, "left": "0", "right": "1"}]},
     "bench spec 'cases' must be a list of objects"),
    ({"cases": [{"file": fx("ct-w"), "left": "w0", "right": "w0p"}],
      "semantics": ["mustt"]}, "bench spec 'semantics' has unknown name 'mustt'"),
    ({"cases": [{"file": fx("ct-w"), "left": "w0", "right": "w0p"}],
      "algorithms": ["hkc", "bogus"]}, "bench spec 'algorithms' has unknown name 'bogus'"),
    ({"cases": [{"file": fx("ct-w"), "left": "w0", "right": "w0p"}],
      "semantics": ["trace", 3]}, "bench spec 'semantics' must be a list of strings"),
]


@pytest.mark.parametrize("spec, message", _MALFORMED_SPECS,
                         ids=[f"spec{i}" for i in range(len(_MALFORMED_SPECS))])
def test_malformed_bench_spec_is_exit_two(capsys, tmp_path, spec, message):
    sf = tmp_path / "spec.json"
    sf.write_text(json.dumps(spec))
    code, _, err = run_cli(capsys, "bench", "--spec", str(sf))
    assert code == 2
    assert err.startswith("semcheck: error: " + message)


def _empty_state_spec(tmp_path):
    sf = tmp_path / "spec.json"
    sf.write_text(json.dumps(
        {"cases": [{"file": fx("ct-w"), "left": "", "right": "w0"}]}))
    return str(sf)


@pytest.mark.parametrize("argv", [
    ["equiv", "--sem", "trace", fx("ct-w"), "", "w0"],
    ["equiv", "--sem", "trace", "--algo", "naive", fx("ct-w"), "w0", ","],
    ["preorder", "--sem", "may", fx("ct-w"), "", "w0"],
    ["minimize", "--sem", "trace", "--init", "", fx("ct-w")],
    ["gps-equiv", "--sem", "g_trace", fx("gps-pu"), "p", ""],
    ["bench", "--spec", None],
])
def test_empty_state_argument_is_exit_two(capsys, tmp_path, argv):
    argv = [_empty_state_spec(tmp_path) if a is None else a for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("semcheck: error:")
    assert "needs at least one state" in err


def test_unexpected_error_is_one_line_exit_two(capsys, monkeypatch):
    import semcheck.cli as cli

    def broken(*args):
        raise RuntimeError("closure index\ncorrupted")

    monkeypatch.setattr(cli, "hkc_check", broken)
    argv = ["equiv", "--sem", "trace", fx("ct-w"), "w0", "w0p"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "semcheck: error: RuntimeError: closure index corrupted\n"
    with pytest.raises(RuntimeError):
        main(["--debug"] + argv)


@pytest.mark.parametrize("exc", [MemoryError(), ValueError()],
                         ids=["MemoryError", "ValueError"])
def test_error_without_message_names_its_type(capsys, monkeypatch, exc):
    def broken(*args):
        raise exc

    monkeypatch.setattr(cli, "hkc_check", broken)
    code, out, err = run_cli(capsys, "equiv", "--sem", "trace", fx("ct-w"), "w0", "w0p")
    assert code == 2 and out == ""
    assert err == f"semcheck: error: {type(exc).__name__}\n"


def test_cap_exhaustion_is_exit_two(capsys):
    code, _, err = run_cli(capsys, "equiv", "--sem", "failure", "--algo",
                           "naive", "--cap", "2", fx("fail-pq"), "p0", "q0")
    assert code == 2
    assert err == "semcheck: error: pair exploration: exceeded cap after building 2 pairs\n"
    code, _, err = run_cli(capsys, "equiv", "--sem", "failure", "--algo",
                           "hkc", "--cap", "2", fx("fail-pq"), "p0", "q0")
    assert code == 2
    assert err == "semcheck: error: pair exploration: exceeded cap after building 2 pairs\n"


@pytest.mark.parametrize("argv, k, stage, unit", [
    (["equiv", "--sem", "failure", "--algo", "naive", fx("fail-pq"), "p0", "q0"],
     2, "pair exploration", "pairs"),
    (["equiv", "--sem", "failure", "--algo", "hkc", fx("fail-pq"), "p0", "q0"],
     2, "pair exploration", "pairs"),
    (["preorder", "--sem", "may", fx("must-xy"), "x", "y"], 1, "pair exploration", "pair"),
    (["preorder", "--sem", "must", fx("must-xy"), "x", "y"], 1, "pair exploration", "pair"),
    (["equiv", "--sem", "failure", "--algo", "brzozowski", fx("fail-pq"), "p0", "q0"],
     2, "reverse pass 1", "states"),
    (["equiv", "--sem", "pfutures", fx("pf-pq"), "p0", "q0"], 8, "determinisation", "states"),
], ids=["naive", "hkc", "may", "must", "brzozowski", "pfutures"])
def test_every_capped_stage_stops_at_the_cap(capsys, argv, k, stage, unit):
    code, _, err = run_cli(capsys, *argv[:1], "--cap", str(k), *argv[1:])
    assert code == 2
    assert err == f"semcheck: error: {stage}: exceeded cap after building {k} {unit}\n"


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["equiv", "--sem", "failure", fx("fail-pq"), "p0", "q0"],
    ["preorder", "--sem", "may", fx("must-xy"), "x", "y"],
    ["minimize", "--sem", "must", "--init", "0", fx("brz-must")],
])
def test_cap_must_be_positive(capsys, argv, cap):
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--cap", cap] + argv[1:])
    assert exc.value.code == 2
    assert f"argument --cap: must be a positive integer, not '{cap}'" in capsys.readouterr().err


def test_installed_entry_point_runs():
    proc = subprocess.run(
        ["semcheck", "equiv", "--sem", "language", fx("eq-automata"), "x", "u"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] is True


# -- memory ------------------------------------------------------------------

_GPS_CEX = "gps 4\nalphabet a b\n0 a 1/2 1\n1 b 1/2 1\n2 a 1/2 3\n3 b 1/3 3\n"


@pytest.mark.parametrize("argv", [
    *(["equiv", "--sem", "trace", "--algo", a, fx("must-xy"), "x", "y"]
      for a in ("naive", "hkc", "brzozowski")),
    # the closure parks a rule on a pair that is dead for a while
    ["equiv", "--sem", "must", "--algo", "hkc", fx("must-xy"), "x", "y"],
    ["preorder", "--sem", "may", fx("ct-w"), "w1", "w0"],
    ["preorder", "--sem", "must", fx("must-xy"), "y1", "y"],
    ["minimize", "--sem", "rtrace", "--init", "p0", fx("rtrace-pq")],
    ["gps-equiv", "--sem", "g_ready", "GPS_CEX", "0", "2"],
], ids=["naive", "hkc", "brzozowski", "hkc-parked", "may", "must", "minimize", "gps-equiv"])
def test_a_query_leaves_no_reference_cycle(capsys, tmp_path, argv):
    """A query frees everything it allocates by reference counting, so the
    cycle collector has nothing to find after it."""
    path = tmp_path / "cex.gps"
    path.write_text(_GPS_CEX)
    argv = [str(path) if a == "GPS_CEX" else a for a in argv]
    # the first call builds the parser and anything else built on first use
    assert main(argv) in (0, 1)
    assert cycles_left(lambda: main(argv)) == 0


# -- the report writer -------------------------------------------------------

# names that need escaping, non-ASCII names (one outside the BMP) and names
# that look like a rendered set
_NAMES = ['say "hi"', "back\\slash", "tab\tnew\nline\r", "\x00\x07\x1f\x7f", "naïve",
          "日本", "\U0001f600", "\u2028", "{x}", "{", "}{,}", "TOP", ""]


def _adversarial_reports():
    stats = [{"states": None, "pairs": None, "time_ms": 0.0},
             {"states": 7, "pairs": None, "time_ms": 1e-05},
             {"states": None, "pairs": 0, "time_ms": 12.25},
             {"states": 2 ** 70, "pairs": 3, "time_ms": 1e16},
             {"states": 1, "pairs": 1, "time_ms": 0.1 + 0.2}]
    witnesses = [[], [["TOP", "TOP"]], [["{" + n + "}", "TOP"] for n in _NAMES],
                 [[n, m] for n, m in zip(_NAMES, reversed(_NAMES))]]
    machines = [{"states": 2, "intermediate_states": 3, "init": 0, "alphabet": _NAMES,
                 "outputs": ["{}", "{{a}}", *_NAMES],
                 "steps": [{n: i for i, n in enumerate(_NAMES)}, {}]},
                {"states": 1, "intermediate_states": 1, "init": 0, "alphabet": [],
                 "outputs": ["{{}}"], "steps": [{}]}]
    for st in stats:
        for sem in ("must", *_NAMES[:3]):
            base = {"schema": 1, "result": True, "semantics": sem, "algorithm": "hkc",
                    "stats": st}
            yield base
            yield from ({**base, "witness": w} for w in witnesses)
            yield from ({**base, "result": False, "counterexample": c}
                        for c in ([], ["a"], _NAMES))
            yield {**base, "result": False, "algorithm": "span", "counterexample": _NAMES,
                   "witness": witnesses[2]}
            yield from ({**base, "result": m, "algorithm": "brzozowski"} for m in machines)


def test_report_writer_writes_what_json_dumps_writes():
    reports = list(_adversarial_reports())
    assert len(reports) == 220
    for report in reports:
        assert cli._report_text(report) == json.dumps(report, indent=2), report


# -- parser reuse ------------------------------------------------------------


def _count_parser_builds(monkeypatch):
    """Forget the built parser and count the builds from here on."""
    from semcheck import cli

    builds = []
    build = cli.build_parser

    def counting():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    return builds


def test_main_builds_the_parser_once(capsys, monkeypatch):
    builds = _count_parser_builds(monkeypatch)
    code, first, _ = run_cli(capsys, "equiv", "--sem", "must", fx("must-xy"), "x", "y")
    assert code == 0
    code, second, _ = run_cli(capsys, "preorder", "--sem", "may", fx("ct-w"), "w0", "w1")
    assert code == 1
    assert first["algorithm"] == "hkc" and second["result"] is False
    assert len(builds) == 1


def test_failed_parse_leaves_the_next_parse_intact(capsys, monkeypatch):
    builds = _count_parser_builds(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["equiv", "--sem", "no-such-tag", fx("must-xy"), "x", "y"])
    assert exc.value.code == 2
    code, _, err = run_cli(capsys, "minimize", "--sem", "must", "--init", "", fx("brz-must"))
    assert code == 2 and "--init needs at least one state" in err
    code, payload, _ = run_cli(
        capsys, "equiv", "--sem", "failure", "--algo", "brzozowski", fx("fail-pq"), "0", "11")
    assert code == 0
    assert payload["algorithm"] == "brzozowski" and payload["semantics"] == "failure"
    assert len(builds) == 1


# -- the front door ----------------------------------------------------------


def _masked(text: str) -> str:
    """``text`` with the timings of a report and a summary blanked."""
    text = re.sub(r'"time_ms": [0-9.e+-]+', '"time_ms": 0', text)
    return re.sub(r"[0-9.]+ ms\)", "0 ms)", text)


def _outcome(capsys, call):
    """What ``call()`` returns or exits with, and its masked output."""
    try:
        code = ("returned", call())
    except SystemExit as exc:
        code = ("exited", exc.code)
    out, err = capsys.readouterr()
    return code, _masked(out), _masked(err)


def _reference(argv):
    args = cli.build_parser().parse_args(argv)
    return args.fn(args)


@pytest.mark.parametrize("argv", [
    ["equiv", "--sem", "must", fx("must-xy"), "x", "y"],
    ["equiv", "--sem", "no-such-tag", fx("must-xy"), "x", "y"],
    ["equiv", "--sem", "failure", "--algo", "brzozowski", fx("fail-pq"), "p0"],
    ["equiv", "--sem", "must", "--bogus", fx("must-xy"), "x", "y"],
    ["equiv", "--sem", "must", fx("must-xy"), "x", "y", "--debug"],
    ["equiv", "--se", "must", "--algo", "naive", fx("must-xy"), "x", "y"],
    ["equiv", "-h"],
    ["equiv"],
    ["preorder", "--sem=must", fx("must-xy"), "x", "y"],
    ["preorder", "--cap", "0", "--sem", "may", fx("ct-w"), "w1", "w0"],
    ["minimize", "--sem", "ready", "--init", "p0", fx("ready-p")],
    ["minimize", "--sem", "must", fx("brz-must")],
    ["gps-equiv", "--sem", "g_mfailure", "--", fx("gps-pu"), "p", "u"],
    ["gps-equiv", "--sem", "g_mtrace", "--with-trace", fx("gps-pu"), "p", "u"],
    ["gen", "--family", "cycles", "--n", "3"],
    ["gen", "--family", "chain", "--n", "three"],
    ["bench", "--format", "xml"],
    ["bench", "--help"],
    ["--debug", "equiv", "--sem", "must", fx("must-xy"), "x", "y"],
    ["--", "equiv", "--sem", "must", fx("must-xy"), "x", "y"],
    ["-h"],
    [],
    ["no-such-command", "--sem", "must"],
    ["equiv", fx("must-xy"), "x", "y", "--sem", "must"],
    ["equiv", fx("fail-pq"), "--algo", "naive", "p0", "--sem", "failure", "q0"],
    ["equiv", "--cap", "1000", "--sem", "failure", fx("fail-pq"), "p0", "q0"],
    ["equiv", "--sem", "trace", "-", "x", "y", "--cap", "50"],
    ["preorder", "-", "y1", "--sem", "must", "y"],
    ["minimize", "-", "--init", "x", "--sem", "must"],
    ["gps-equiv", fx("gps-pu"), "p", "u", "--with-trace", "--sem", "g_mtrace"],
    ["gps-equiv", "--sem", "g_trace", fx("gps-pu"), "--with-trace", "p", "u"],
    ["gen", "--n", "3", "--family", "chain"],
])
def test_main_answers_as_the_full_parse_does(capsys, monkeypatch, argv):
    # an argv that reads ``-`` reads must-xy on each call
    def outcome(call):
        monkeypatch.setattr(sys, "stdin", io.StringIO((FIXTURES / "must-xy.lts").read_text()))
        return _outcome(capsys, call)

    expected = outcome(lambda: _reference(argv))
    assert outcome(lambda: main(argv)) == expected


def _count_top_level_parses(monkeypatch):
    """Count the parses that go through a freshly built top-level parser,
    which ``main`` then uses."""
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "_PARSER", parser)
    parses = []
    parse = parser.parse_known_args

    def counting(*args, **kwargs):
        parses.append(1)
        return parse(*args, **kwargs)

    monkeypatch.setattr(parser, "parse_known_args", counting)
    return parses


@pytest.mark.parametrize("argv, code", [
    (["equiv", "--sem", "must", fx("must-xy"), "x", "y"], ("returned", 0)),
    (["preorder", "--sem", "may", fx("ct-w"), "w0", "w1"], ("returned", 1)),
])
def test_a_subcommand_skips_the_top_level_parse(capsys, monkeypatch, argv, code):
    parses = _count_top_level_parses(monkeypatch)
    assert _outcome(capsys, lambda: main(argv))[0] == code
    assert parses == []


@pytest.mark.parametrize("argv, code", [
    (["--debug", "equiv", "--sem", "must", fx("must-xy"), "x", "y"], ("returned", 0)),
    (["-h"], ("exited", 0)),
    ([], ("exited", 2)),
    (["no-such-command"], ("exited", 2)),
    (["equiv", "--sem", "must", "--bogus", fx("must-xy"), "x", "y"], ("exited", 2)),
    (["gen", "-h"], ("exited", 0)),
])
def test_anything_else_takes_the_top_level_parse_once(capsys, monkeypatch, argv, code):
    parses = _count_top_level_parses(monkeypatch)
    assert _outcome(capsys, lambda: main(argv))[0] == code
    assert parses == [1]


# -- the argv reader ---------------------------------------------------------

# Each subcommand's options with the values the corpus draws from, valid and
# not (None marks a flag), and the number of positionals it declares.
_GRAMMAR = {
    "equiv": ({"--cap": ["5", "1000", "0", "x", "-1", " 7"],
               "--sem": ["must", "trace", "g_ready", "", "-"],
               "--algo": ["hkc", "naive", "brzozowski", "fast"]}, 3),
    "preorder": ({"--cap": ["2", "0", "1_0"], "--sem": ["may", "must", "trace", "-1"]}, 3),
    "minimize": ({"--cap": ["9", "-3"], "--sem": ["ready", "ctrace", "mustt", "-"],
                  "--init": ["x", "0,1", "", "-", "--"]}, 1),
    "gps-equiv": ({"--sem": ["g_trace", "g_mfailure", "must"], "--with-trace": None}, 3),
    "gen": ({"--family": ["chain", "cycles", "pyramid"], "--n": ["3", "12", "three", "-2", "0"]}, 0),
    "bench": ({"--spec": ["spec.json", "s b.json", "-"], "--format": ["json", "csv", "xml"],
               "--out": ["out.txt", "=", "-"]}, 0),
}
_POSITIONALS = ["f.lts", "x", "-", "", "p,q", "0"]
_NOISE = ["--", "-", "-1", "", "-h", "--help", "--bogus", "--debug", "x"]


def _corpus_argv(rng: random.Random, name: str) -> list:
    """One argv for ``name``: its options in random places among the
    positionals, then, now and again, an option written another way, a
    dropped value, a repeat, a noise token or a positional too many or too
    few."""
    options, n_positionals = _GRAMMAR[name]
    units = []
    for option, values in options.items():
        if rng.random() < 0.9:
            for _ in range(1 + (rng.random() < 0.08)):
                value = [] if values is None else [rng.choice(values[:2] * 3 + values)]
                spelled = option
                if len(option) > 3 and rng.random() < 0.08:
                    spelled = option[:rng.randrange(3, len(option))]
                if value and rng.random() < 0.06:
                    units.append([f"{option}={value[0]}"])
                    continue
                if value and rng.random() < 0.04:
                    value = []
                units.append([spelled] + value)
    positionals = [rng.choice(_POSITIONALS[:2] * 4 + _POSITIONALS) for _ in
                   range(max(0, n_positionals + rng.choice([0] * 8 + [-1, 1])))]
    for unit in units:
        at = rng.randrange(len(positionals) + 1) if rng.random() < 0.5 else 0
        positionals[at:at] = unit
    if rng.random() < 0.2:
        positionals.insert(rng.randrange(len(positionals) + 1), rng.choice(_NOISE))
    return positionals


def test_reader_returns_none_or_what_argparse_returns():
    reader, reference = cli.build_parser(), cli.build_parser()
    rng = random.Random(2901)
    accepted = {name: 0 for name in _GRAMMAR}
    for _ in range(5000):
        name = rng.choice(sorted(_GRAMMAR))
        tokens = _corpus_argv(rng, name)
        got = cli._read(reader.commands[name], tokens)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                expected = reference.commands[name].parse_known_args(tokens)
        except SystemExit:
            expected = None
        if got is not None:
            assert expected == (got, []), (name, tokens)
            accepted[name] += 1
    # every subcommand's plain argvs are read, so the check is not vacuous
    assert all(n > 50 for n in accepted.values()), accepted


# -- the declared commands ---------------------------------------------------


def _reference_parser() -> argparse.ArgumentParser:
    """The parser as six hand-written subcommand blocks declared it, with
    ``--cap`` shared through a parent parser: the reference that
    ``build_parser`` must match in help text and in every parse."""
    p = argparse.ArgumentParser(
        prog="semcheck",
        description="Decide behavioural equivalences and preorders on finite "
                    "transition systems.")
    p.add_argument("--debug", action="store_true",
                   help="re-raise errors with their traceback")
    sub = p.add_subparsers(dest="command", required=True)

    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--cap", type=cli._positive_int, default=DEFAULT_CAP,
                        help="state/pair budget (default %(default)s)")

    eq = sub.add_parser("equiv", parents=[capped],
                        help="decide equivalence of two state sets")
    eq.add_argument("--sem", required=True, choices=SEMANTICS)
    eq.add_argument("--algo", default="hkc", choices=["naive", "hkc", "brzozowski"])
    eq.add_argument("file")
    eq.add_argument("left", help="state or comma-separated state set")
    eq.add_argument("right", help="state or comma-separated state set")
    eq.set_defaults(fn=cli.cmd_equiv)

    po = sub.add_parser("preorder", parents=[capped], help="decide a testing preorder")
    po.add_argument("--sem", required=True, choices=["may", "must"])
    po.add_argument("file")
    po.add_argument("left")
    po.add_argument("right")
    po.set_defaults(fn=cli.cmd_preorder)

    mi = sub.add_parser("minimize", parents=[capped],
                        help="minimal Moore machine by double reversal")
    mi.add_argument("--sem", required=True, choices=SEMANTICS)
    mi.add_argument("--init", required=True, help="comma-separated initial state set")
    mi.add_argument("file")
    mi.set_defaults(fn=cli.cmd_minimize)

    gq = sub.add_parser("gps-equiv",
                        help="decide a probabilistic equivalence exactly")
    gq.add_argument("--sem", required=True, choices=list(GPS_SEMANTICS))
    gq.add_argument("--with-trace", action="store_true", dest="with_trace",
                    help="additionally require probabilistic trace equality")
    gq.add_argument("file")
    gq.add_argument("left")
    gq.add_argument("right")
    gq.set_defaults(fn=cli.cmd_gps_equiv)

    ge = sub.add_parser("gen", help="emit a parametric benchmark family")
    ge.add_argument("--family", required=True, choices=["interleave", "chain", "cycles"])
    ge.add_argument("--n", type=int, required=True)
    ge.set_defaults(fn=cli.cmd_gen)

    be = sub.add_parser("bench", help="run the cross-check matrix")
    be.add_argument("--spec", help="JSON file describing cases to run")
    be.add_argument("--format", default="json", choices=["json", "csv"])
    be.add_argument("--out", help="write the report here instead of stdout")
    be.set_defaults(fn=cli.cmd_bench)
    p.commands = sub.choices
    return p


def test_declared_commands_format_the_reference_help():
    # compared on the running Python: argparse's help layout differs
    # between versions, so no help text is stored
    built, reference = cli.build_parser(), _reference_parser()
    assert built.format_help() == reference.format_help()
    assert list(built.commands) == list(reference.commands) \
        == ["equiv", "preorder", "minimize", "gps-equiv", "gen", "bench"]
    for name, command in reference.commands.items():
        assert built.commands[name].format_help() == command.format_help(), name


def _parse_outcome(command: argparse.ArgumentParser, tokens: list):
    """``command.parse_known_args(tokens)``, or the exit status and the
    stdout and stderr text of the parse that exited."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return command.parse_known_args(tokens)
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


def test_declared_commands_parse_as_the_reference_does():
    built, reference = cli.build_parser(), _reference_parser()
    rng = random.Random(3401)
    kinds = {"parsed": 0, "exited": 0}
    for _ in range(5000):
        name = rng.choice(sorted(_GRAMMAR))
        tokens = _corpus_argv(rng, name)
        expected = _parse_outcome(reference.commands[name], tokens)
        assert _parse_outcome(built.commands[name], tokens) == expected, (name, tokens)
        kinds["exited" if isinstance(expected[0], int) else "parsed"] += 1
    # both parses and exits are compared, so the check is not vacuous
    assert min(kinds.values()) > 500, kinds


def _count_subcommand_parses(monkeypatch):
    """Count the parses that go through any subcommand parser of a freshly
    built parser, which ``main`` then uses."""
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "_PARSER", parser)
    parses = []
    for command in parser.commands.values():
        def counting(*args, _parse=command.parse_known_args, **kwargs):
            parses.append(1)
            return _parse(*args, **kwargs)

        monkeypatch.setattr(command, "parse_known_args", counting)
    return parses


@pytest.mark.parametrize("argv, code", [
    (["equiv", "--sem", "must", "--algo", "naive", fx("must-xy"), "x", "y"], ("returned", 0)),
    (["equiv", "--sem", "failure", "--algo", "brzozowski", "--cap", "50", fx("fail-pq"),
      "p0", "q0"], ("returned", 0)),
    (["preorder", "--sem", "may", fx("ct-w"), "w0", "w1"], ("returned", 1)),
    (["minimize", "--sem", "must", "--init", "x1", fx("brz-must")], ("returned", 0)),
    (["gps-equiv", "--sem", "g_mfailure", fx("gps-pu"), "p", "u"], ("returned", 0)),
    (["gps-equiv", "--sem", "g_mtrace", "--with-trace", fx("gps-pu"), "p", "u"],
     ("returned", 0)),
])
def test_every_benchmark_argv_shape_skips_argparse(capsys, monkeypatch, argv, code):
    parses = _count_subcommand_parses(monkeypatch)
    assert _outcome(capsys, lambda: main(argv))[0] == code
    assert parses == []


@pytest.mark.parametrize("argv, code", [
    (["preorder", "--sem=must", fx("must-xy"), "x", "y"], ("returned", 0)),
    (["equiv", "--se", "must", fx("must-xy"), "x", "y"], ("returned", 0)),
    (["gps-equiv", "--sem", "g_mfailure", "--", fx("gps-pu"), "p", "u"], ("returned", 0)),
    (["equiv", "--sem", "must", "--sem", "trace", fx("must-xy"), "x", "y"], ("returned", 0)),
    (["equiv", "-h"], ("exited", 0)),
    (["preorder", "--cap", "0", "--sem", "may", fx("ct-w"), "w1", "w0"], ("exited", 2)),
    (["equiv", "--sem", "no-such-tag", fx("must-xy"), "x", "y"], ("exited", 2)),
    (["equiv", "--sem", "must", fx("must-xy"), "x"], ("exited", 2)),
    (["equiv", "--sem", "must", fx("must-xy"), "x", "y", "z"], ("exited", 2)),
    (["minimize", "--sem", "must", fx("brz-must")], ("exited", 2)),
])
def test_every_other_argv_takes_argparse_once(capsys, monkeypatch, argv, code):
    parses = _count_subcommand_parses(monkeypatch)
    assert _outcome(capsys, lambda: main(argv))[0] == code
    assert parses == [1]


def test_main_reads_sys_argv_by_default(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["semcheck", "equiv", "--sem", "must",
                                      fx("must-xy"), "x", "y"])
    code = main()
    out, err = capsys.readouterr()
    assert code == 0 and json.loads(out)["result"] is True
    assert err.startswith("equivalent under must (hkc, ")
