"""Generalised subset construction and the naive product-walk back end."""

from __future__ import annotations

import pytest

from semcheck import (
    TOP,
    CapExceeded,
    MooreMachine,
    Output,
    VariantMismatch,
    behavior,
    coarsen_failure_to_ctrace,
    coarsen_ready_to_failure,
    decorate,
    det_output,
    det_step,
    mask_of,
    moore_partition_classes,
    naive_bisim,
    reachable_machine,
    render_output,
)

from conftest import load_lts


def ready_p():
    lts = load_lts("ready-p")
    return lts, decorate(lts, "ready")


# -- one-step homomorphism ---------------------------------------------------


def test_det_output_joins_member_outputs():
    lts, d = ready_p()
    c = mask_of(["c"], lts.alphabet)
    dd = mask_of(["d"], lts.alphabet)
    assert det_output(d, frozenset({2, 3})) == Output("family", frozenset({c, dd}))
    assert det_output(d, frozenset()) == Output("family", frozenset())


def test_det_step_unions_rows():
    lts, d = ready_p()
    assert det_step(d, frozenset({0, 1}), "b") == frozenset({2, 3})
    assert det_step(d, frozenset({0, 1}), "a") == frozenset({0, 1})
    assert det_step(d, frozenset(), "a") == frozenset()
    with pytest.raises(ValueError):
        det_step(d, frozenset({0}), "z")


def test_det_step_top_is_absorbing_under_must():
    lts = load_lts("must-xy")
    d = decorate(lts, "must")
    x = lts.resolve_state("x")
    assert det_step(d, frozenset({x}), "b") is TOP
    assert det_step(d, TOP, "a") is TOP
    assert det_output(d, TOP).is_top()


def test_top_state_rejected_outside_must():
    lts, d = ready_p()
    with pytest.raises(VariantMismatch):
        det_output(d, TOP)


def test_behavior_iterates_steps():
    lts, d = ready_p()
    c = mask_of(["c"], lts.alphabet)
    dd = mask_of(["d"], lts.alphabet)
    assert behavior(d, frozenset({0}), ("a", "b")) == Output("family", frozenset({c, dd}))
    assert behavior(d, frozenset({0}), ()) == d.output(0)


# -- reachable machine -------------------------------------------------------


def test_reachable_machine_ready_p():
    lts, d = ready_p()
    m = reachable_machine(d, [frozenset({0})])
    assert m.n_states == 6
    assert m.state_keys[0] == frozenset({0})
    keyed = {k: render_output(m.outputs[i], lts.alphabet)
             for i, k in enumerate(m.state_keys)}
    assert keyed == {
        frozenset({0}): "{{a}}",
        frozenset({0, 1}): "{{a},{b}}",
        frozenset(): "{}",
        frozenset({2, 3}): "{{c},{d}}",
        frozenset({4}): "{{}}",
        frozenset({5}): "{{}}",
    }


def test_reachable_machine_run_matches_behavior():
    lts, d = ready_p()
    m = reachable_machine(d, [frozenset({0})])
    for word in [(), ("a",), ("a", "b"), ("a", "b", "c"), ("b", "d")]:
        assert m.run(word) == behavior(d, frozenset({0}), word)


def test_reachable_machine_cap():
    lts, d = ready_p()
    with pytest.raises(CapExceeded) as exc:
        reachable_machine(d, [frozenset({0})], cap=3)
    assert exc.value.states_built == 3
    assert "determinisation" in str(exc.value)


# -- naive product walk ------------------------------------------------------


def test_naive_bisim_accepts_with_relation():
    lts = load_lts("eq-automata")
    d = decorate(lts, "language")
    ok, rel = naive_bisim(d, frozenset({0}), frozenset({3}))
    assert ok
    assert len(rel) == 6
    assert rel[0] == (frozenset({0}), frozenset({3}))


def test_naive_bisim_rejects_with_shortest_word():
    lts = load_lts("ct-w")
    d = decorate(lts, "ctrace")
    ok, word = naive_bisim(d, frozenset({0}), frozenset({2}))
    assert not ok
    assert word == ("a",)
    assert behavior(d, frozenset({0}), word) != behavior(d, frozenset({2}), word)


def test_naive_bisim_must_xy():
    lts = load_lts("must-xy")
    d = decorate(lts, "must")
    ok, rel = naive_bisim(d, frozenset({lts.resolve_state("x")}),
                          frozenset({lts.resolve_state("y")}))
    assert ok
    assert len(rel) == 5


def test_naive_bisim_cap():
    lts = load_lts("fail-pq")
    d = decorate(lts, "failure")
    with pytest.raises(CapExceeded) as exc:
        naive_bisim(d, frozenset({0}), frozenset({11}), cap=2)
    assert "pair exploration" in str(exc.value)


# -- partition refinement ----------------------------------------------------


def test_moore_partition_classes_merges_twins():
    lts, d = ready_p()
    m = reachable_machine(d, [frozenset({0})])
    classes = moore_partition_classes(m)
    i4 = m.state_keys.index(frozenset({4}))
    i5 = m.state_keys.index(frozenset({5}))
    assert classes[i4] == classes[i5]
    assert len(set(classes)) == 5
    assert classes[0] == 0  # classes numbered by first occurrence


def test_moore_partition_separates_by_output():
    lts = load_lts("ct-w")
    d = decorate(lts, "ctrace")
    m = reachable_machine(d, [frozenset({0}), frozenset({2})])
    classes = moore_partition_classes(m)
    assert classes[0] != classes[1]


def test_moore_partition_seeds_blocks_by_equal_outputs():
    # Equal frozensets built in different orders can print differently.
    a, b = frozenset([8, 0, 2]), frozenset([0, 2, 8])
    m = MooreMachine("failure", ("a",), [Output("family", a), Output("family", b)],
                     [{"a": 0}, {"a": 1}], [0])
    assert moore_partition_classes(m) == (0, 0)


# -- spectrum coarsenings ----------------------------------------------------


def test_failure_output_coarsens_to_ctrace():
    for name in ("fail-pq", "ct-w", "ready-p"):
        lts = load_lts(name)
        df = decorate(lts, "failure")
        dc = decorate(lts, "ctrace")
        for x in range(lts.n_states):
            assert coarsen_failure_to_ctrace(df.output(x), lts.alphabet) == dc.output(x)


def test_ready_output_coarsens_to_failure():
    for name in ("fail-pq", "rtrace-pq", "ready-p"):
        lts = load_lts(name)
        dr = decorate(lts, "ready")
        df = decorate(lts, "failure")
        for x in range(lts.n_states):
            assert coarsen_ready_to_failure(dr.output(x), lts.alphabet) == df.output(x)
