"""Command-line interface: exit codes, JSON reports, stdin handling."""

from __future__ import annotations

import csv
import io
import json
import os
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import semcheck
from semcheck import disjoint_union, format_lts
from semcheck.cli import main

from conftest import FIXTURES, kth_lts, perm2r_lts

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
    code, out, err = run_cli(capsys, "gen", "--family", "chain", "--n", "0")
    assert (code, out) == (2, "")
    assert err == "semcheck: error: n must be positive\n"


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


@pytest.mark.parametrize("spec", [
    {"cases": 5},
    [1, 2],
    {"cases": [{"file": fx("ct-w"), "left": "w0", "right": "w0p"}], "cap": "big"},
    {"cases": [{"file": 3, "left": "0", "right": "1"}]},
    {"cases": [{"file": fx("ct-w"), "left": "w0", "right": "w0p"}],
     "semantics": ["mustt"]},
    {"cases": [{"file": fx("ct-w"), "left": "w0", "right": "w0p"}],
     "algorithms": ["hkc", "bogus"]},
])
def test_malformed_bench_spec_is_exit_two(capsys, tmp_path, spec):
    sf = tmp_path / "spec.json"
    sf.write_text(json.dumps(spec))
    code, _, err = run_cli(capsys, "bench", "--spec", str(sf))
    assert code == 2
    assert "semcheck: error:" in err


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
