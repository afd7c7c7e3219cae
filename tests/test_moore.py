"""Generalised subset construction and the naive product-walk back end."""

from __future__ import annotations

import random

import pytest

from semcheck import (
    SEMANTICS,
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
    in_congruence,
    join_outputs,
    mask_of,
    moore_partition_classes,
    naive_bisim,
    random_lts,
    reachable_machine,
    render_output,
    saturate,
)
from semcheck.lts import mask_states
from semcheck.moore import det_value

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


# -- raw output values are canonical -----------------------------------------
#
# The walks, the reversal passes and the isomorphism test compare raw values
# (ints over a decoration's atoms, or TOP) instead of outputs.  That is sound
# only if equal raw joins are exactly equal outputs and ``|`` on raw values
# is the output join.


def test_raw_joins_are_canonical():
    rng = random.Random(1107)
    checked = 0
    for seed in range(120):
        lts = random_lts(seed, allow_tau=seed % 2 == 0)
        for tag in SEMANTICS:
            try:
                d = decorate(lts, tag)
            except ValueError:  # language needs final states
                continue
            sets = [rng.getrandbits(lts.n_states) for _ in range(7)]
            for a, b in zip(sets, sets[1:]):
                va, vb = det_value(d, a), det_value(d, b)
                oa = _joined_output(d, mask_states(a))
                ob = _joined_output(d, mask_states(b))
                assert (va == vb) == (oa == ob), (seed, tag, a, b)
                assert d.decode(va | vb) == join_outputs(oa, ob), (seed, tag, a, b)
                checked += 1
    assert checked > 5000


# -- guard: the determinised views against unions written out ---------------


def _union_step(d, state, label):
    """The rows of ``state``'s members under ``label``, unioned; TOP absorbs."""
    if state is TOP:
        return TOP
    acc = set()
    for x in state:
        row = d.row(x, label)
        if row is TOP:
            return TOP
        acc |= row
    return frozenset(acc)


def _joined_output(d, state):
    """The outputs of ``state``'s members, joined by kind; TOP absorbs."""
    if state is TOP:
        return Output("top_or_family", TOP)
    values = [d.output(x).value for x in state]
    if any(v is TOP for v in values):
        return Output(d.output_kind, TOP)
    if d.output_kind == "bit":
        return Output("bit", max(values, default=0))
    return Output(d.output_kind, frozenset().union(*values))


def _sweep(pairs, z):
    """Widen ``z`` by the pairs, sweeping until a whole pass adds nothing."""
    def below(a, b):
        return b is TOP or (a is not TOP and a <= b)

    changed = True
    while changed:
        changed = False
        for u, v in pairs:
            for p, q in ((u, v), (v, u)):
                if below(p, z) and not below(q, z):
                    z = TOP if q is TOP else z | q
                    changed = True
    return z


def _is_detstate(s):
    return s is TOP or type(s) is frozenset


def test_det_views_match_row_unions():
    # Seeded random walks from random start sets, for every tag that
    # decorates: each step and output given frozensets must return the
    # union of the rows and the join of the outputs, as frozensets; and the
    # congruence closure over the walk's states must equal a plain sweep.
    walks = reached_top = 0
    for seed in range(300):
        lts = random_lts(seed)
        rng = random.Random(seed)
        for tag in SEMANTICS:
            try:
                d = decorate(lts, tag)
            except ValueError:  # language needs final states
                continue
            if not d.eff_alphabet:  # rtrace/ftrace on a system without edges
                continue
            for _ in range(3):
                state = frozenset(x for x in range(lts.n_states) if rng.random() < 0.4)
                seen = [state]
                for _ in range(8):
                    assert det_output(d, state) == _joined_output(d, state), (seed, tag)
                    label = rng.choice(d.eff_alphabet)
                    nxt = det_step(d, state, label)
                    assert _is_detstate(nxt)
                    assert nxt == _union_step(d, state, label), (seed, tag, state, label)
                    state = nxt
                    seen.append(state)
                walks += 1
                reached_top += state is TOP
                pairs = [(rng.choice(seen), rng.choice(seen)) for _ in range(4)]
                for z in rng.sample(seen, 3):
                    full = saturate(pairs, z)
                    assert _is_detstate(full)
                    assert full == _sweep(pairs, z), (seed, tag, pairs, z)
                    goal = rng.choice(seen)
                    assert in_congruence(pairs, z, goal) == (full == _sweep(pairs, goal))
    assert walks > 5000
    assert reached_top > 50


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


def _round_based_classes(machine):
    """Reference refinement: every state's signature (its block and its
    successors' blocks) rebuilt once a round until no block splits, blocks
    numbered by first occurrence.  Quadratic; kept only to compare against."""
    def renumber(sig):
        ids = {}
        return tuple(ids.setdefault(s, len(ids)) for s in sig)

    blocks = renumber(machine.values)
    while True:
        sig = [(blocks[q], tuple(blocks[machine.steps[q][a]] for a in machine.alphabet))
               for q in range(machine.n_states)]
        refined = renumber(sig)
        if refined == blocks:
            return blocks
        blocks = refined


def _random_machine(rng, max_states):
    """A total Moore machine of 0..``max_states`` states over 1-3 labels whose
    values are ints, ints and TOP, or family outputs; an output's frozenset
    is filled in a random order, so equal values are built differently."""
    n = rng.randint(0, max_states)
    alphabet = tuple("abc"[: rng.randint(1, 3)])
    kind = rng.choice(("int", "top", "output"))
    palette = {"int": [0, 1, 2], "top": [0, 5, TOP],
               "output": [(8, 0, 2), (1,), ()]}[kind][: rng.randint(1, 3)]

    def value():
        v = rng.choice(palette)
        return Output("family", frozenset(rng.sample(v, len(v)))) if kind == "output" else v

    values = [value() for _ in range(n)]
    steps = [{a: rng.randrange(n) for a in alphabet} for _ in range(n)]
    return MooreMachine("failure", alphabet, values, steps, [0] if n else [])


def test_moore_partition_classes_match_round_based_refinement():
    rng = random.Random(1971)
    merged = 0
    for _ in range(2000):
        m = _random_machine(rng, 14)
        classes = moore_partition_classes(m)
        assert classes == _round_based_classes(m), (m.values, m.steps)
        merged += len(set(classes)) < m.n_states
    assert merged > 500
    assert moore_partition_classes(MooreMachine("trace", ("a",), [], [], [])) == ()
    for seed in range(300):
        lts = random_lts(seed)
        m = reachable_machine(decorate(lts, "trace"), [1 << x for x in range(lts.n_states)])
        assert moore_partition_classes(m) == _round_based_classes(m), seed


def _outputs_along_words(m, q):
    """``q``'s values after every word of length at most ``n - 1``, words in
    length-then-label order."""
    seen, frontier = [], [q]
    for _ in range(m.n_states):
        seen += [m.values[s] for s in frontier]
        frontier = [m.steps[s][a] for s in frontier for a in m.alphabet]
    return seen


def test_partition_blocks_are_output_equality_on_short_words():
    # n - 1 refinement rounds stabilise any partition of n states, so two
    # states are equivalent exactly when no word of length < n tells them apart.
    rng = random.Random(1956)
    merged = split = 0
    for _ in range(300):
        m = _random_machine(rng, 7)
        classes = moore_partition_classes(m)
        words = [_outputs_along_words(m, q) for q in range(m.n_states)]
        for p in range(m.n_states):
            for q in range(p):
                same = classes[p] == classes[q]
                assert same == (words[p] == words[q]), (m.values, m.steps, p, q)
                merged += same
                split += not same and m.values[p] == m.values[q]
    assert merged > 700 and split > 400  # 768 and 479


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
