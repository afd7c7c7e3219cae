"""Parametric families, random instances, oracle, and the cross-check matrix."""

from __future__ import annotations

import json

import pytest

import semcheck.bench as bench
from semcheck import (
    ALGORITHMS,
    BenchCase,
    cycle_starts,
    decide,
    decorate,
    default_cases,
    format_lts,
    gen_chain,
    gen_cycles,
    gen_interleave,
    hkc_check,
    oracle_equal,
    parse_lts,
    random_lts,
    reachable_machine,
    run_matrix,
)

from conftest import load_lts


def s(*xs):
    return frozenset(xs)


# -- generators --------------------------------------------------------------


def test_gen_interleave_shape():
    lts = gen_interleave(3)
    assert lts.n_states == 2 * 3 + 5
    assert lts.names[:5] == ("x", "x1", "x2", "x3", "u")
    x = lts.names.index("x")
    assert lts.successors(x, "a") == s(x)
    assert lts.successors(x, "b") == s(x, lts.names.index("x1"))
    u = lts.names.index("u")
    assert lts.successors(u, "tau") == s(u)


def test_gen_interleave_must_congruence_is_linear():
    lts = gen_interleave(3)
    d = decorate(lts, "must")
    rep = hkc_check(d, s(lts.names.index("x")), s(lts.names.index("y")))
    assert rep.equal
    assert len(rep.relation) == 3 + 2


def test_gen_chain_shape_and_forward_size():
    lts = gen_chain(3)
    assert lts.n_states == 4
    assert lts.successors(0, "a") == s(0)
    assert lts.successors(lts.names.index("x1"), "b") == s(0)
    d = decorate(lts, "must")
    m = reachable_machine(d, [s(lts.names.index("x3"))])
    assert m.n_states == 3 + 2  # chain prefixes plus the empty sink


def test_gen_cycles_shape():
    lts = gen_cycles(3)
    assert lts.n_states == 1 + 2 + 3
    assert lts.successors(0, "a") == s(0)      # length-1 cycle
    assert lts.successors(3, "a") == s(4)      # length-3 cycle steps
    assert lts.successors(5, "a") == s(3)
    assert cycle_starts(3) == s(0, 1, 3)


def test_gen_cycles_superposition_period():
    lts = gen_cycles(3)
    d = decorate(lts, "trace")
    m = reachable_machine(d, [cycle_starts(3)])
    assert m.n_states == 6  # lcm(1, 2, 3)


def test_generators_roundtrip_through_text_format():
    for lts in (gen_interleave(2), gen_chain(3), gen_cycles(4)):
        assert parse_lts(format_lts(lts)) == lts


def test_random_lts_is_reproducible():
    assert random_lts(42) == random_lts(42)
    assert random_lts(42, allow_tau=False) != random_lts(43, allow_tau=False) or True
    strong = random_lts(7, allow_tau=False)
    assert all(lab != "tau" for (_, lab) in strong.transitions)


# -- oracle ------------------------------------------------------------------


def test_oracle_matches_known_verdicts():
    ct = load_lts("ct-w")
    assert oracle_equal(decorate(ct, "trace"), s(0), s(2))
    assert not oracle_equal(decorate(ct, "ctrace"), s(0), s(2))
    must = load_lts("must-xy")
    assert oracle_equal(decorate(must, "must"),
                        s(must.resolve_state("x")), s(must.resolve_state("y")))


def test_oracle_agrees_with_hkc_on_random_systems():
    for seed in range(40):
        lts = random_lts(seed, allow_tau=False)
        d = decorate(lts, "trace")
        want = oracle_equal(d, s(0), s(1))
        assert hkc_check(d, s(0), s(1)).equal == want, seed


def test_oracle_decision_builds_the_joint_machine_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return reachable_machine(*args, **kwargs)

    monkeypatch.setattr(bench, "reachable_machine", counting)
    must = load_lts("must-xy")
    d = decorate(must, "must")
    equal, states, _ = decide(d, "oracle", s(must.resolve_state("x")),
                              s(must.resolve_state("y")))
    assert equal and states is not None
    assert len(calls) == 1


# -- decide and the matrix ---------------------------------------------------


def test_decide_covers_every_algorithm():
    lts = load_lts("eq-automata")
    d = decorate(lts, "language")
    for algo in ALGORITHMS:
        equal, states, pairs = decide(d, algo, s(0), s(3))
        assert equal, algo
    assert decide(d, "hkc", s(0), s(3))[2] == 3
    with pytest.raises(ValueError):
        decide(d, "magic", s(0), s(3))


def test_run_matrix_default_cases_agree():
    report = run_matrix(default_cases(), ("trace", "must"), cap=100_000)
    assert report.disagreements == []
    assert len(report.records) == 3 * 2 * len(ALGORITHMS)
    payload = json.loads(report.to_json())
    assert payload["schema"] == 1
    assert len(payload["records"]) == len(report.records)


def _case(lts, left, right):
    return BenchCase("case", lts, s(lts.names.index(left)), s(lts.names.index(right)))


def _cap_error(stage, n, unit):
    return f"{stage}: exceeded cap after building {n} {unit}"


def test_run_matrix_records_cap_errors_without_crashing():
    for case, sem, cap, rows in [
        # the oracle's subset machine blows up; the congruence closure stays small
        (_case(gen_interleave(6), "x", "y"), "must", 20, [
            ("oracle", None, 20, None, _cap_error("determinisation", 20, "states")),
            ("hkc", True, None, 8, None)]),
        # each count sits under the unit its stage counted
        (_case(load_lts("fail-pq"), "p0", "q0"), "failure", 2, [
            ("oracle", None, 2, None, _cap_error("determinisation", 2, "states")),
            ("naive", None, None, 2, _cap_error("pair exploration", 2, "pairs")),
            ("hkc", None, None, 2, _cap_error("pair exploration", 2, "pairs")),
            ("brzozowski", None, 2, None, _cap_error("reverse pass 1", 2, "states"))]),
    ]:
        report = run_matrix([case], (sem,), [row[0] for row in rows], cap=cap)
        assert [(r.algorithm, r.equal, r.states, r.pairs, r.error)
                for r in report.records] == rows
        assert report.disagreements == []


def test_run_matrix_records_a_decoration_error_as_one_row():
    for name, sem, cap, states, error in [
        ("ct-w", "language", 100, None, "language semantics needs a 'final' line"),
        # the cap bounds the trace classes behind pfutures too
        ("pf-pq", "pfutures", 8, 8, _cap_error("determinisation", 8, "states")),
    ]:
        report = run_matrix([BenchCase(name, load_lts(name), s(0), s(1))], (sem,), cap=cap)
        assert [(r.algorithm, r.equal, r.states, r.pairs, r.error)
                for r in report.records] == [("-", None, states, None, error)]
        assert report.disagreements == []


def test_csv_output_has_header_and_rows():
    report = run_matrix(default_cases()[:1], ("trace",), ("hkc",))
    text = report.to_csv()
    lines = text.strip().splitlines()
    assert lines[0].startswith("case,semantics,algorithm,equal")
    assert len(lines) == 2
